//! End-to-end tests over a real TCP socket: an ephemeral server, the
//! blocking client, and the acceptance criteria from the service design —
//! bit-identical summaries, malformed-input robustness, mid-batch
//! disconnects, backpressure, and graceful shutdown.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use cv_comm::CommSetting;
use cv_server::{Client, ClientError, Event, Request, Server, ServerConfig, StackSpecWire};
use cv_sim::{run_batch, BatchConfig, BatchSummary, EpisodeConfig, StackSpec};

mod common;
use common::wait_for_occupants;

fn paper_batch(episodes: usize, seed: u64) -> BatchConfig {
    BatchConfig::new(EpisodeConfig::paper_default(seed), episodes)
}

#[test]
fn streamed_summary_is_bit_identical_to_in_process_run_batch() {
    let server = Server::spawn_ephemeral().unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let batch = paper_batch(16, 1);
    let mut episode_events = Vec::new();
    let mut last_done = 0;
    let streamed = client
        .submit_batch(&batch, StackSpecWire::TeacherConservative, |event| {
            if let Event::EpisodeDone {
                index,
                eta,
                done,
                total,
                eta_secs,
                ..
            } = event
            {
                episode_events.push((*index, *eta));
                // Progress counts up by one per episode, with a remaining-
                // time estimate that is never negative.
                assert_eq!((*done, *total), (last_done + 1, 16));
                assert!(*eta_secs >= 0.0, "eta_secs {eta_secs}");
                last_done = *done;
            }
        })
        .unwrap();
    assert_eq!(last_done, 16);

    let spec = StackSpec::pure_teacher_conservative(&batch.template).unwrap();
    let reference = BatchSummary::from_results(&run_batch(&batch, &spec).unwrap());

    // Paper-statistics acceptance: reaching time, safe rate, mean η,
    // emergency frequency, and the per-episode ηs all match exactly.
    assert!(streamed.stats_eq(&reference));
    assert_eq!(streamed.etas, reference.etas);
    assert!(streamed.wall_time_secs > 0.0, "server side measures timing");

    // Every episode was streamed exactly once, with its true η.
    episode_events.sort_unstable_by_key(|(i, _)| *i);
    assert_eq!(episode_events.len(), 16);
    for (i, (index, eta)) in episode_events.iter().enumerate() {
        assert_eq!(*index, i);
        assert_eq!(*eta, reference.etas[i]);
    }

    server.shutdown();
}

#[test]
fn malformed_requests_get_error_frames_and_the_connection_survives() {
    let server = Server::spawn_ephemeral().unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    for bad in [
        "this is not json\n",
        "{\"op\":\"submit_batch\"}\n", // valid JSON, missing payload
        "{\"op\":\"warp_drive\"}\n",   // unknown op
        "{\"op\":\"submit_batch\",\"stack\":\"ultimate\",\"batch\":{}}\n",
    ] {
        stream.write_all(bad.as_bytes()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("\"event\":\"error\""),
            "expected error frame for {bad:?}, got {line:?}"
        );
    }

    // Input that used to kill or fool the daemon: nesting deep enough to
    // overflow a recursive parser's stack, and a ping carrying a byte that
    // is not UTF-8 (once silently repaired and answered `pong`).
    let mut deep = vec![b'['; 100_000];
    deep.push(b'\n');
    for bad in [deep, b"{\"op\":\"ping\",\"x\":\"\xff\"}\n".to_vec()] {
        stream.write_all(&bad).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("\"code\":\"bad_request\""),
            "expected bad_request, got {line:?}"
        );
    }

    // A batch too large to hold in memory is refused before it is queued.
    let submit = |stream: &mut TcpStream, episodes: usize| {
        let frame = Request::SubmitBatch {
            batch: paper_batch(episodes, 6),
            stack: StackSpecWire::TeacherConservative,
            deadline_ms: None,
        };
        stream
            .write_all(format!("{}\n", frame.to_json().encode()).as_bytes())
            .unwrap();
    };
    submit(&mut stream, 1_000_000_000_000_000);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"code\":\"invalid_batch\""),
        "expected invalid_batch, got {line:?}"
    );

    // The same connection still answers a well-formed request, and still
    // runs a batch.
    stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"event\":\"pong\""));
    submit(&mut stream, 2);
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(!line.contains("\"event\":\"error\""), "{line:?}");
        if line.contains("\"event\":\"batch_done\"") {
            assert!(line.contains("\"episodes\":2"), "{line:?}");
            break;
        }
    }

    server.shutdown();
}

#[test]
fn a_reply_that_is_not_utf8_is_a_protocol_error_for_the_client() {
    // A stand-in server answering a ping with a `pong` frame that carries
    // a byte that is not UTF-8: the client must not repair it into a pong.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let mut request = String::new();
        BufReader::new(conn.try_clone().unwrap())
            .read_line(&mut request)
            .unwrap();
        conn.write_all(b"{\"event\":\"pong\",\"x\":\"\xff\"}\n")
            .unwrap();
    });
    let mut client = Client::connect(addr).unwrap();
    match client.round_trip(&Request::Ping) {
        Err(ClientError::Protocol(message)) => assert!(message.contains("UTF-8"), "{message}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
    fake.join().unwrap();
}

#[test]
fn empty_start_grid_is_rejected_with_invalid_batch() {
    let server = Server::spawn_ephemeral().unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut batch = paper_batch(4, 0);
    batch.starts.clear();
    match client.submit_batch(&batch, StackSpecWire::TeacherConservative, |_| {}) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "invalid_batch"),
        other => panic!("expected invalid_batch rejection, got {other:?}"),
    }

    // A batch may not ask for more threads than the daemon's per-job
    // worker count (its `workers: 0` default is all available
    // parallelism); the rejection leaves the connection serving.
    let cap = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut batch = paper_batch(4, 0);
    batch.threads = cap + 1;
    match client.submit_batch(&batch, StackSpecWire::TeacherConservative, |_| {}) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "invalid_batch"),
        other => panic!("expected invalid_batch rejection, got {other:?}"),
    }
    batch.threads = cap;
    let summary = client
        .submit_batch(&batch, StackSpecWire::TeacherConservative, |_| {})
        .unwrap();
    assert_eq!(summary.episodes, 4);
    server.shutdown();
}

#[test]
fn a_negative_delay_is_invalid_batch_and_does_not_quarantine_its_seeds() {
    // A negative delay panics the channel constructor. Admitted, it would
    // panic every episode and charge the panics to seeds 0-3 in the
    // daemon's shared quarantine, so that with a budget of 1 the valid job
    // below would come back all skipped.
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        panic_budget: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut batch = paper_batch(4, 0);
    batch.template.comm = CommSetting::Delayed {
        delay: -1.0,
        drop_prob: 0.0,
    };
    match client.submit_batch(&batch, StackSpecWire::TeacherConservative, |_| {}) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, "invalid_batch");
            assert!(message.contains("comm.delay"), "{message}");
        }
        other => panic!("expected invalid_batch rejection, got {other:?}"),
    }
    let summary = client
        .submit_batch(
            &paper_batch(4, 0),
            StackSpecWire::TeacherConservative,
            |_| {},
        )
        .unwrap();
    assert_eq!((summary.episodes, summary.skipped), (4, 0));
    server.shutdown();
}

#[test]
fn episodes_that_fail_stream_typed_fault_frames_and_the_batch_completes() {
    // C1 starting inside the conflict zone is geometrically invalid: every
    // episode fails, and each failure is a typed `failed` fault frame.
    let server = Server::spawn_ephemeral().unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut batch = paper_batch(4, 11);
    batch.starts = vec![10.0];
    let mut faults = Vec::new();
    let summary = client
        .submit_batch(&batch, StackSpecWire::TeacherConservative, |event| {
            if let Event::EpisodeFault { index, kind, .. } = event {
                faults.push((*index, kind.clone()));
            }
        })
        .unwrap();
    assert_eq!((summary.episodes, summary.failed), (0, 4));
    faults.sort_unstable();
    assert_eq!(
        faults,
        (0..4)
            .map(|i| (i, "failed".to_string()))
            .collect::<Vec<_>>()
    );
    server.shutdown();
}

#[test]
fn client_disconnect_mid_batch_cancels_without_killing_the_server() {
    let server = Server::spawn_ephemeral().unwrap();

    // Submit a long batch raw, read the accepted frame plus one progress
    // frame, then slam the connection shut.
    {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let batch = paper_batch(64, 3);
        let frame = Request::SubmitBatch {
            batch,
            stack: StackSpecWire::TeacherConservative,
            deadline_ms: None,
        }
        .to_json()
        .encode();
        stream.write_all(format!("{frame}\n").as_bytes()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"event\":\"accepted\""));
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"event\":\"episode_done\""));
    } // both halves dropped: TCP reset/close mid-stream

    // The server keeps serving new clients and completes new work.
    let mut client = Client::connect(server.local_addr()).unwrap();
    let summary = client
        .submit_batch(&paper_batch(2, 5), StackSpecWire::TeacherAggressive, |_| {})
        .unwrap();
    assert_eq!(summary.episodes, 2);

    // The abandoned job wound up cancelled (or finished, on a fast box —
    // but never left running forever).
    let reply = client
        .round_trip(&Request::Status { job: Some(1) })
        .unwrap();
    match reply {
        Event::Status { jobs, .. } => {
            assert_eq!(jobs.len(), 1);
            assert!(
                jobs[0].state == "cancelled" || jobs[0].state == "done",
                "job 1 in state {}",
                jobs[0].state
            );
        }
        other => panic!("expected status, got {other:?}"),
    }

    server.shutdown();
}

#[test]
fn full_queue_pushes_back_with_a_typed_overloaded_frame() {
    // Capacity-1 queue and a single worker thread: one running job, one
    // queued job, and the third submission must bounce.
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_capacity: 1,
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    let occupy = |seed: u64| {
        let mut stream = TcpStream::connect(addr).unwrap();
        // Large enough to still be running when the third submission
        // arrives, even though single episodes take well under a millisecond.
        let mut batch = paper_batch(5_000, seed);
        batch.threads = 1;
        let frame = Request::SubmitBatch {
            batch,
            stack: StackSpecWire::TeacherConservative,
            deadline_ms: None,
        }
        .to_json()
        .encode();
        stream.write_all(format!("{frame}\n").as_bytes()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"event\":\"accepted\""), "got {line:?}");
        stream
    };
    // First job: popped by the runner and held there. Second: sits in the
    // queue. The hold keeps both in place however fast episodes run.
    let hold = server.hold_runner();
    let _running = occupy(10);
    wait_for_occupants(addr, 1, 0);
    let _queued = occupy(11);
    wait_for_occupants(addr, 2, 1);

    let mut client = Client::connect(addr).unwrap();
    match client.submit_batch(
        &paper_batch(4, 12),
        StackSpecWire::TeacherConservative,
        |_| {},
    ) {
        Err(e @ ClientError::Overloaded { retry_after_ms }) => {
            assert!(retry_after_ms >= 50, "hint below floor: {retry_after_ms}");
            assert!(e.is_retryable(), "overload must invite a retry");
        }
        other => panic!("expected overloaded, got {other:?}"),
    }

    // Cancel both occupants so the drop below drains quickly.
    client.round_trip(&Request::Cancel { job: 1 }).unwrap();
    client.round_trip(&Request::Cancel { job: 2 }).unwrap();
    drop(hold);
    drop(server);
}

#[test]
fn shutdown_drains_in_flight_jobs_before_exiting() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_capacity: 4,
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    // Submit a batch, then send shutdown from a second connection while it
    // runs; the submitter must still receive its full summary.
    let submitter = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let mut batch = paper_batch(24, 7);
        batch.threads = 1;
        client.submit_batch(&batch, StackSpecWire::TeacherConservative, |_| {})
    });
    std::thread::sleep(std::time::Duration::from_millis(150));

    let mut control = Client::connect(addr).unwrap();
    match control.round_trip(&Request::Shutdown).unwrap() {
        Event::ShutdownAck { .. } => {}
        other => panic!("expected shutdown_ack, got {other:?}"),
    }

    let summary = submitter.join().unwrap().expect("draining job completes");
    assert_eq!(summary.episodes, 24);

    // New submissions are refused while draining/after exit: either the
    // connection is refused outright or the server answers shutting_down.
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut late) => {
            match late.submit_batch(
                &paper_batch(2, 9),
                StackSpecWire::TeacherConservative,
                |_| {},
            ) {
                Err(ClientError::Server { code, .. }) => assert_eq!(code, "shutting_down"),
                Err(ClientError::Io(_)) => {}
                other => panic!("late submission should fail, got {other:?}"),
            }
        }
    }

    server.wait(); // returns because shutdown was requested
}

#[test]
fn cancel_request_stops_a_running_job() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_capacity: 4,
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    let submitter = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let mut batch = paper_batch(20_000, 21);
        batch.threads = 1;
        client.submit_batch(&batch, StackSpecWire::TeacherConservative, |_| {})
    });
    std::thread::sleep(std::time::Duration::from_millis(200));

    let mut control = Client::connect(addr).unwrap();
    control.round_trip(&Request::Cancel { job: 1 }).unwrap();

    match submitter.join().unwrap() {
        Err(ClientError::Cancelled { done }) => assert!(done < 20_000),
        Ok(_) => panic!("20000-episode job finished before the cancel landed"),
        Err(other) => panic!("expected cancellation, got {other}"),
    }
    server.shutdown();
}

#[test]
fn server_closes_idle_connections_on_shutdown() {
    let server = Server::spawn_ephemeral().unwrap();
    let mut idle = TcpStream::connect(server.local_addr()).unwrap();
    server.shutdown(); // must not hang on the idle connection
    let mut buf = [0u8; 16];
    assert_eq!(idle.read(&mut buf).unwrap(), 0, "idle connection closed");
}
