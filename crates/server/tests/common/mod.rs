//! Helpers shared by the daemon's integration tests.

use std::time::Duration;

use cv_server::{Client, Event, Request};

/// Polls `status` until `active` jobs are queued or running and `queued`
/// of them sit in the queue — how a test with a [`cv_server::Server::hold_runner`]
/// hold learns that its occupants are in place, without sleeping.
pub fn wait_for_occupants(addr: std::net::SocketAddr, active: usize, queued: usize) {
    let mut control = Client::connect(addr).unwrap();
    loop {
        let reply = control.round_trip(&Request::Status { job: None }).unwrap();
        if let Event::Status {
            jobs, queue_len, ..
        } = reply
        {
            let live = jobs
                .iter()
                .filter(|j| j.state == "queued" || j.state == "running");
            if live.count() == active && queue_len == queued {
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}
