//! End-to-end tests for the supervised execution layer: job deadlines,
//! cancellation with partial results, and typed overload shedding
//! (including through the cv-chaos proxy). Cancellation determinism and
//! the lost-cancel race belong to cv-sim's batch entry point and are tested
//! there (`cv_sim::supervise`).
//!
//! The fault-injection (panic isolation / quarantine) counterpart lives in
//! `panic_isolation.rs` behind the `fault-injection` feature; everything
//! here runs in default builds and is part of the tier-1 gate.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use cv_chaos::{ChaosProxy, FaultSchedule};
use cv_server::{
    Client, ClientConfig, ClientError, Event, Request, RetryPolicy, Server, ServerConfig,
    StackSpecWire,
};
use cv_sim::{BatchConfig, EpisodeConfig};

mod common;
use common::wait_for_occupants;

fn paper_batch(episodes: usize, seed: u64) -> BatchConfig {
    BatchConfig::new(EpisodeConfig::paper_default(seed), episodes)
}

/// Runs `f` on a worker thread and panics if it exceeds `deadline` — no
/// test in this suite may hang the gate.
fn with_deadline<T: Send + 'static>(
    deadline: Duration,
    label: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(deadline) {
        Ok(value) => {
            worker.join().expect("worker already delivered its value");
            value
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The worker panicked before delivering; resume its panic so
            // the real assertion message surfaces, not a fake timeout.
            match worker.join() {
                Err(payload) => std::panic::resume_unwind(payload),
                Ok(()) => unreachable!("worker exited without sending"),
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{label}: exceeded the {deadline:?} suite deadline")
        }
    }
}

/// Cancels every job the server reports as queued or running — cleanup for
/// tests that deliberately wedge the queue (job ids are not guessable once
/// shed submissions have burned some).
fn cancel_all_active(addr: std::net::SocketAddr) {
    let mut control = Client::connect(addr).unwrap();
    if let Ok(Event::Status { jobs, .. }) = control.round_trip(&Request::Status { job: None }) {
        for j in jobs {
            if j.state == "queued" || j.state == "running" {
                let _ = control.round_trip(&Request::Cancel { job: j.job });
            }
        }
    }
}

/// A job whose deadline expires mid-run stops at episode-step granularity,
/// flushes a typed `deadline_exceeded` frame with a partial summary over
/// exactly the finished episodes, and leaves the server serving.
#[test]
fn deadline_expiry_yields_typed_partial_results_and_a_live_server() {
    with_deadline(Duration::from_secs(120), "deadline e2e", || {
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();

        let mut client = Client::connect(addr).unwrap();
        let mut batch = paper_batch(20_000, 31);
        batch.threads = 1;
        let mut partial = None;
        let mut streamed_done = 0usize;
        let result = client.submit_batch_deadline(
            &batch,
            StackSpecWire::TeacherConservative,
            Some(300),
            |e| match e {
                Event::EpisodeDone { done, .. } => streamed_done = *done,
                Event::DeadlineExceeded { partial: p, .. } => partial = p.clone(),
                _ => {}
            },
        );
        match result {
            Err(ClientError::DeadlineExceeded { done }) => {
                assert!(
                    done < 20_000,
                    "a 300 ms deadline cannot finish 20k episodes"
                );
                assert_eq!(done, streamed_done, "terminal count matches the stream");
                let p = partial.expect("terminal frame carries the partial summary");
                assert_eq!(p.requested, 20_000);
                assert_eq!(
                    p.episodes, done,
                    "partial covers exactly the finished episodes"
                );
                assert_eq!(p.episodes + p.skipped, 20_000);
                assert_eq!(p.etas.len(), done);
            }
            other => panic!("expected deadline_exceeded, got {other:?}"),
        }

        // Status reports the typed phase, and the server still serves.
        match client
            .round_trip(&Request::Status { job: Some(1) })
            .unwrap()
        {
            Event::Status { jobs, .. } => assert_eq!(jobs[0].state, "deadline_exceeded"),
            other => panic!("expected status, got {other:?}"),
        }
        let summary = client
            .submit_batch(
                &paper_batch(2, 32),
                StackSpecWire::TeacherConservative,
                |_| {},
            )
            .unwrap();
        assert_eq!(summary.episodes, 2);
        server.shutdown();
    });
}

/// An already-expired deadline (0 ms) still produces the typed terminal
/// frame — with at most a few straggler episodes completed — rather than
/// an error frame or a hang.
#[test]
fn zero_deadline_is_typed_not_an_error() {
    with_deadline(Duration::from_secs(60), "zero deadline", || {
        let server = Server::spawn_ephemeral().unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let batch = paper_batch(256, 33);
        match client.submit_batch_deadline(
            &batch,
            StackSpecWire::TeacherConservative,
            Some(0),
            |_| {},
        ) {
            Err(ClientError::DeadlineExceeded { done }) => assert!(done < 256),
            other => panic!("expected deadline_exceeded, got {other:?}"),
        }
        server.shutdown();
    });
}

/// A cancel request lands within one episode step and the terminal
/// `cancelled` frame carries a partial summary over the finished episodes.
#[test]
fn cancel_flushes_a_typed_partial_summary() {
    with_deadline(Duration::from_secs(120), "cancel partial", || {
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();

        let submitter = std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut batch = paper_batch(20_000, 34);
            batch.threads = 1;
            let mut partial = None;
            let result = client.submit_batch(&batch, StackSpecWire::TeacherConservative, |e| {
                if let Event::Cancelled { partial: p, .. } = e {
                    partial = p.clone();
                }
            });
            (result, partial)
        });
        std::thread::sleep(Duration::from_millis(200));
        let mut control = Client::connect(addr).unwrap();
        control.round_trip(&Request::Cancel { job: 1 }).unwrap();

        let (result, partial) = submitter.join().unwrap();
        match result {
            Err(ClientError::Cancelled { done }) => {
                assert!(done < 20_000, "cancel landed before the batch finished");
                let p = partial.expect("cancelled frame carries the partial summary");
                assert_eq!(p.episodes, done);
                assert_eq!(p.requested, 20_000);
                assert_eq!(p.episodes + p.skipped, 20_000);
                assert_eq!(p.etas.len(), done);
            }
            other => panic!("expected cancellation, got {other:?}"),
        }
        server.shutdown();
    });
}

/// A batch bigger than the whole episode admission budget is shed
/// immediately with the typed `overloaded` frame and a clamped hint — the
/// deterministic admission-control path, no occupant or timing involved.
#[test]
fn episode_budget_sheds_oversize_submissions_deterministically() {
    with_deadline(Duration::from_secs(60), "episode budget", || {
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_pending_episodes: 10,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        match client.submit_batch(
            &paper_batch(16, 45),
            StackSpecWire::TeacherConservative,
            |_| {},
        ) {
            Err(ClientError::Overloaded { retry_after_ms }) => {
                assert!((50..=10_000).contains(&retry_after_ms));
            }
            other => panic!("expected overloaded, got {other:?}"),
        }
        // A batch inside the budget sails through on the same connection.
        let summary = client
            .submit_batch(
                &paper_batch(4, 46),
                StackSpecWire::TeacherConservative,
                |_| {},
            )
            .unwrap();
        assert_eq!(summary.episodes, 4);
        server.shutdown();
    });
}

/// A saturated server answers with the typed `overloaded` frame (carrying
/// a clamped retry hint) — across ≥ 4 seeds, through the cv-chaos proxy,
/// with retries disabled so the shed is observed directly. No connection
/// resets, no hangs, and the running occupants are undisturbed.
#[test]
fn saturated_server_sheds_typed_overloaded_through_the_chaos_proxy() {
    with_deadline(Duration::from_secs(120), "overload shed", || {
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            queue_capacity: 1,
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        // A clean-schedule proxy still exercises the full relay path: the
        // typed frame must arrive as a frame, not as a reset.
        let proxy = ChaosProxy::start(server.local_addr(), FaultSchedule::clean()).unwrap();
        let addr = proxy.local_addr();

        // Saturate: the held runner pins one occupant, the other fills the
        // capacity-1 queue.
        let hold = server.hold_runner();
        let occupy = |seed: u64| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut batch = paper_batch(50, seed);
                batch.threads = 1;
                client.submit_batch(&batch, StackSpecWire::TeacherConservative, |_| {})
            })
        };
        let running = occupy(51);
        wait_for_occupants(addr, 1, 0);
        let queued = occupy(52);
        wait_for_occupants(addr, 2, 1);

        for seed in [53u64, 54, 55, 56] {
            let config = ClientConfig {
                retry: RetryPolicy::none(),
                ..ClientConfig::default()
            };
            let result = Client::submit_with_retry(
                addr,
                &config,
                &paper_batch(500, seed),
                StackSpecWire::TeacherConservative,
                None,
                |_| {},
                |_, _| {},
            );
            match result {
                Err(ClientError::Overloaded { retry_after_ms }) => {
                    assert!(
                        (50..=10_000).contains(&retry_after_ms),
                        "seed {seed}: hint {retry_after_ms} outside the clamp"
                    );
                }
                other => panic!("seed {seed}: expected overloaded, got {other:?}"),
            }
        }

        // The occupants were shed around, not reset: both report typed
        // cancellation (the cleanup) rather than I/O errors.
        cancel_all_active(addr);
        drop(hold);
        for (label, handle) in [("running", running), ("queued", queued)] {
            match handle.join().unwrap() {
                Ok(_) | Err(ClientError::Cancelled { .. }) => {}
                Err(other) => panic!("{label} occupant saw a non-typed end: {other}"),
            }
        }
        proxy.shutdown();
        server.shutdown();
    });
}

/// `submit_with_retry` treats the server's `retry_after_ms` hint as a
/// floor on its next backoff sleep and converges once capacity frees up;
/// with a tiny `retry_deadline` it instead surfaces the typed overload
/// error quickly rather than sleeping out the hint schedule. The server is
/// saturated by occupants a runner hold keeps in place, so the test does
/// not depend on how fast episodes run.
#[test]
fn retry_honours_the_overload_hint_and_the_retry_deadline() {
    with_deadline(Duration::from_secs(180), "overload retry", || {
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            queue_capacity: 1,
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();

        // Phase 1 — convergence: occupants held in place until the shed
        // client has seen its first overload, then released to drain.
        let occupy = |seed: u64| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut batch = paper_batch(50, seed);
                batch.threads = 1;
                client.submit_batch(&batch, StackSpecWire::TeacherConservative, |_| {})
            })
        };
        let saturate = |first: u64, second: u64| {
            let hold = server.hold_runner();
            let first = occupy(first);
            wait_for_occupants(addr, 1, 0);
            let second = occupy(second);
            wait_for_occupants(addr, 2, 1);
            (hold, first, second)
        };
        let (hold, first, second) = saturate(61, 62);
        let mut hold = Some(hold);

        let config = ClientConfig {
            retry: RetryPolicy {
                max_attempts: 40,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(5),
                jitter_seed: 63,
                retry_deadline: None,
            },
            ..ClientConfig::default()
        };
        let mut overloads = 0u32;
        let summary = Client::submit_with_retry(
            addr,
            &config,
            &paper_batch(50, 64),
            StackSpecWire::TeacherConservative,
            None,
            |_| {},
            |_, e| {
                if matches!(e, ClientError::Overloaded { .. }) {
                    overloads += 1;
                    hold.take();
                }
            },
        )
        .expect("retry converges once the occupants drain");
        assert_eq!(summary.episodes, 50);
        assert!(overloads >= 1, "the saturated phase was never observed");
        first.join().unwrap().expect("first occupant completes");
        second.join().unwrap().expect("second occupant completes");

        // Phase 2 — the bound: occupants held for the whole retry, and a
        // retry_deadline far below the 50 ms hint floor.
        let (hold, first, second) = saturate(65, 66);
        let bounded = ClientConfig {
            retry: RetryPolicy {
                max_attempts: 40,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(5),
                jitter_seed: 67,
                retry_deadline: Some(Duration::from_millis(10)),
            },
            ..ClientConfig::default()
        };
        let t0 = Instant::now();
        let result = Client::submit_with_retry(
            addr,
            &bounded,
            &paper_batch(50, 68),
            StackSpecWire::TeacherConservative,
            None,
            |_| {},
            |_, _| {},
        );
        assert!(
            matches!(result, Err(ClientError::Overloaded { .. })),
            "bounded retry must surface the typed overload, got {result:?}"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "retry_deadline must prevent sleeping out the full hint schedule"
        );

        drop(hold);
        first.join().unwrap().expect("first occupant completes");
        second.join().unwrap().expect("second occupant completes");
        server.shutdown();
    });
}
