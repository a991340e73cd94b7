//! Chaos tests: the cv-server client/server pair driven through the
//! `cv-chaos` fault-injection proxy across a seeded fault matrix.
//!
//! The invariants under test, per ISSUE acceptance:
//!
//! * **no hangs** — every cell finishes under a global watchdog deadline;
//! * **no panics** — faults surface as typed [`ClientError`]s, never
//!   unwinds;
//! * **bit-identical or typed error** — a batch that completes through
//!   chaos matches the direct in-process `run_batch` exactly (same
//!   per-episode `η`s, same statistics); anything else is a typed error;
//! * **reproducible** — the same seed produces the same per-cell outcome
//!   (attempt count and result class) on a rerun;
//! * **transparent recovery** — with a bounded fault budget and retry
//!   enabled, the client converges to the bit-identical summary without
//!   the caller seeing any error at all.
//!
//! The default tests keep the matrix small enough for the tier-1 gate;
//! the `#[ignore]`d soak test (run via `scripts/soak.sh`) scales the same
//! harness up in seeds, concurrency, and batch size.

use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use cv_chaos::{ChaosProxy, ConnPlan, Fault, FaultSchedule};
use cv_comm::CommSetting;
use cv_rng::{derive_seed, Rng, SplitMix64};
use cv_server::{
    Client, ClientConfig, ClientError, Request, RetryPolicy, Server, ServerConfig, StackSpecWire,
};
use cv_sim::{run_batch, BatchConfig, BatchSummary, EpisodeConfig, PlatoonSpec, StackSpec};

/// The six injected fault kinds of the matrix (direction varies by seed).
const FAULT_KINDS: [&str; 6] = [
    "delay",
    "throttle",
    "truncate",
    "reset",
    "silent_drop",
    "stall",
];

fn paper_batch(episodes: usize, seed: u64) -> BatchConfig {
    BatchConfig::new(EpisodeConfig::paper_default(seed), episodes)
}

/// A 4-vehicle platoon batch with *independent per-pair V2V channels*: the
/// first follower's channel is stalled outright (`Lost`), the others stay
/// clean. The platoon row of the matrix drives this template through the
/// same transport faults as the paper batch — two fault layers at once.
fn platoon_batch(episodes: usize, seed: u64) -> BatchConfig {
    let mut platoon = PlatoonSpec::paper_default(4, seed).expect("n = 4 is valid");
    platoon.followers[0].comm = Some(CommSetting::Lost);
    BatchConfig::new(platoon.episode(), episodes)
}

/// The in-process ground truth a chaos-surviving summary must match
/// bit-for-bit.
fn reference_summary(batch: &BatchConfig) -> BatchSummary {
    let spec = StackSpec::pure_teacher_conservative(&batch.template).unwrap();
    BatchSummary::from_results(&run_batch(batch, &spec).unwrap())
}

fn assert_bit_identical(streamed: &BatchSummary, reference: &BatchSummary, context: &str) {
    assert!(
        streamed.stats_eq(reference),
        "{context}: summary statistics diverged from the direct path"
    );
    assert_eq!(
        streamed.etas, reference.etas,
        "{context}: per-episode etas diverged from the direct path"
    );
}

/// Client tuned for chaos: short enough timeouts that starvation faults
/// fail fast, a deterministic jittered backoff, and a retry budget that
/// out-lasts every matrix schedule's fault budget.
fn chaos_config(seed: u64) -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Duration::from_secs(1),
        write_timeout: Duration::from_secs(2),
        retry: RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(100),
            jitter_seed: seed,
            retry_deadline: None,
        },
    }
}

/// Runs `f` on a worker thread and panics if it exceeds `deadline` — the
/// suite-wide no-hang guarantee. The payload's own panics propagate.
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
            let _ = worker.join();
            value
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("hang detected: {label} exceeded the {deadline:?} global deadline")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The worker panicked; join to surface its message.
            match worker.join() {
                Err(e) => std::panic::resume_unwind(e),
                Ok(()) => unreachable!("worker vanished without sending"),
            }
        }
    }
}

/// The deterministic fault for matrix cell `(kind, seed)`. Cutoffs are
/// derived from `request_len` so byte-shaped faults on the upstream
/// direction always land mid-request, whatever the encoded size is.
fn fault_for(kind: &str, seed: u64, request_len: usize) -> Fault {
    let mut rng = SplitMix64::seed_from_u64(derive_seed(seed, "chaos-matrix.params"));
    let cutoff = rng.random_range(1..=request_len.saturating_sub(2).max(1));
    match kind {
        "delay" => Fault::Delay {
            millis: rng.random_range(20..=250u64),
        },
        "throttle" => Fault::Throttle {
            chunk: rng.random_range(256..=512usize),
            pause_millis: rng.random_range(1..=2u64),
        },
        "truncate" => Fault::Truncate {
            after_bytes: cutoff,
        },
        "reset" => Fault::Reset {
            after_bytes: cutoff,
        },
        "silent_drop" => Fault::SilentDrop {
            after_bytes: cutoff,
        },
        "stall" => Fault::Stall,
        other => panic!("unknown fault kind {other}"),
    }
}

/// What one matrix cell produced. `result` is `"ok"` (bit-identical
/// summary) or `"err:..."` (typed error class); `attempts` counts
/// connections the retry loop actually made. Both must reproduce exactly
/// on a same-seed rerun.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CellOutcome {
    kind: &'static str,
    seed: u64,
    attempts: u32,
    result: String,
}

fn classify(e: &ClientError) -> String {
    if e.is_retryable() {
        "err:retryable".to_string()
    } else {
        match e {
            ClientError::Server { code, .. } => format!("err:terminal:{code}"),
            ClientError::Protocol(_) => "err:terminal:protocol".to_string(),
            other => format!("err:terminal:{other:?}"),
        }
    }
}

/// Runs one matrix cell: its own server and proxy, a fault budget of one
/// connection, and a retrying client that must converge. `batch_fn` picks
/// the workload (paper single-vehicle or platoon template).
fn run_cell(
    batch_fn: fn(usize, u64) -> BatchConfig,
    kind: &'static str,
    seed: u64,
    episodes: usize,
) -> CellOutcome {
    let batch = batch_fn(episodes, seed);
    let request_len = Request::SubmitBatch {
        batch: batch.clone(),
        stack: StackSpecWire::TeacherConservative,
        deadline_ms: None,
    }
    .to_json()
    .encode()
    .len();
    let fault = fault_for(kind, seed, request_len);
    // Alternate the faulted direction by seed so both ends get exercised.
    let plan = if seed.is_multiple_of(2) {
        ConnPlan::upstream(fault)
    } else {
        ConnPlan::downstream(fault)
    };

    let server = Server::start(ServerConfig {
        // Reap the half-open leftovers of drop/stall cells promptly.
        idle_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    })
    .unwrap();
    let proxy = ChaosProxy::start(server.local_addr(), FaultSchedule::fixed(plan, 1)).unwrap();

    let mut retries = 0u32;
    let result = Client::submit_with_retry(
        proxy.local_addr(),
        &chaos_config(seed),
        &batch,
        StackSpecWire::TeacherConservative,
        None,
        |_| {},
        |_, _| retries += 1,
    );
    let result = match result {
        Ok(summary) => {
            assert_bit_identical(
                &summary,
                &reference_summary(&batch),
                &format!("{kind}/{seed}"),
            );
            "ok".to_string()
        }
        Err(e) => classify(&e),
    };
    proxy.shutdown();
    server.shutdown();
    CellOutcome {
        kind,
        seed,
        attempts: retries + 1,
        result,
    }
}

/// Runs the full `kinds × seeds` matrix, cells in bounded parallel chunks
/// (each cell owns its server and proxy, so cells are independent).
fn run_matrix(seeds: &[u64], episodes: usize) -> Vec<CellOutcome> {
    run_matrix_with(paper_batch, seeds, episodes)
}

fn run_matrix_with(
    batch_fn: fn(usize, u64) -> BatchConfig,
    seeds: &[u64],
    episodes: usize,
) -> Vec<CellOutcome> {
    let cells: Vec<(&'static str, u64)> = FAULT_KINDS
        .iter()
        .flat_map(|kind| seeds.iter().map(move |&seed| (*kind, seed)))
        .collect();
    let mut outcomes = Vec::with_capacity(cells.len());
    for chunk in cells.chunks(8) {
        let handles: Vec<_> = chunk
            .iter()
            .map(|&(kind, seed)| {
                std::thread::spawn(move || run_cell(batch_fn, kind, seed, episodes))
            })
            .collect();
        for handle in handles {
            outcomes.push(handle.join().expect("matrix cell panicked"));
        }
    }
    outcomes
}

/// 6 fault kinds × 8 seeds, fault budget 1 connection, retry budget 4:
/// every cell must converge to the bit-identical summary with no hang and
/// no panic. (`run_cell` asserts bit-identity internally; this asserts
/// the recovery.)
#[test]
fn fault_matrix_recovers_bit_identically_under_retry() {
    let outcomes = with_deadline(Duration::from_secs(120), "fault matrix", || {
        run_matrix(&[1, 2, 3, 4, 5, 6, 7, 8], 3)
    });
    assert_eq!(outcomes.len(), 6 * 8);
    for cell in &outcomes {
        assert_eq!(
            cell.result, "ok",
            "{}/{} did not recover: {:?}",
            cell.kind, cell.seed, cell
        );
        assert!(
            cell.attempts <= 4,
            "{}/{} blew the retry budget: {:?}",
            cell.kind,
            cell.seed,
            cell
        );
    }
}

/// The platoon row of the matrix: a 4-vehicle platoon whose per-pair V2V
/// channels carry *independent* fault settings (one stalled, the rest
/// clean), pushed through all 6 transport fault kinds across 4 seeds under
/// the same watchdog budget as the paper row. Every cell must either
/// converge to the bit-identical summary or surface a typed error — the
/// retry budget out-lasts the fault budget, so here that means "ok".
#[test]
fn platoon_batches_recover_bit_identically_through_the_fault_matrix() {
    let outcomes = with_deadline(Duration::from_secs(120), "platoon fault matrix", || {
        run_matrix_with(platoon_batch, &[1, 2, 3, 4], 2)
    });
    assert_eq!(outcomes.len(), 6 * 4);
    for cell in &outcomes {
        assert_eq!(
            cell.result, "ok",
            "platoon {}/{} did not recover: {:?}",
            cell.kind, cell.seed, cell
        );
        assert!(
            cell.attempts <= 4,
            "platoon {}/{} blew the retry budget: {:?}",
            cell.kind,
            cell.seed,
            cell
        );
    }
}

/// Same seed, same outcomes — attempt counts and result classes included.
/// Fault cutoffs are byte-based and request encodings are deterministic,
/// so reruns retrace the cell exactly.
#[test]
fn same_seed_reruns_reproduce_identical_outcomes() {
    let (first, second) = with_deadline(Duration::from_secs(120), "reproducibility matrix", || {
        (run_matrix(&[11, 12], 3), run_matrix(&[11, 12], 3))
    });
    assert_eq!(first, second, "same-seed rerun diverged");
}

/// The headline recovery path, spelled out: the response stream is reset
/// mid-flight on the first two connections; the retrying client rides it
/// out and the caller sees only the bit-identical summary.
#[test]
fn retry_recovers_transparently_from_mid_stream_resets() {
    with_deadline(Duration::from_secs(60), "reset recovery", || {
        let server = Server::spawn_ephemeral().unwrap();
        let proxy = ChaosProxy::start(
            server.local_addr(),
            FaultSchedule::fixed(ConnPlan::downstream(Fault::Reset { after_bytes: 40 }), 2),
        )
        .unwrap();
        let batch = paper_batch(4, 21);
        let mut retry_errors = Vec::new();
        let summary = Client::submit_with_retry(
            proxy.local_addr(),
            &chaos_config(21),
            &batch,
            StackSpecWire::TeacherConservative,
            None,
            |_| {},
            |attempt, e| retry_errors.push((attempt, e.is_retryable())),
        )
        .expect("retry must ride out a bounded fault budget");
        assert_bit_identical(&summary, &reference_summary(&batch), "reset recovery");
        assert_eq!(
            retry_errors,
            vec![(0, true), (1, true)],
            "exactly the two faulted connections were retried"
        );
        assert_eq!(proxy.connections(), 3, "two faulted attempts + one clean");
        proxy.shutdown();
        server.shutdown();
    });
}

/// A request that silently vanishes (accepted, consumed, never forwarded)
/// must surface as a read timeout — not a hang — and the retry converges.
#[test]
fn retry_recovers_from_silently_dropped_requests() {
    with_deadline(Duration::from_secs(60), "silent-drop recovery", || {
        let server = Server::start(ServerConfig {
            idle_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        })
        .unwrap();
        let proxy = ChaosProxy::start(
            server.local_addr(),
            FaultSchedule::fixed(ConnPlan::upstream(Fault::SilentDrop { after_bytes: 0 }), 1),
        )
        .unwrap();
        let batch = paper_batch(3, 33);
        let mut saw_timeout = false;
        let summary = Client::submit_with_retry(
            proxy.local_addr(),
            &chaos_config(33),
            &batch,
            StackSpecWire::TeacherConservative,
            None,
            |_| {},
            |_, e| saw_timeout |= matches!(e, ClientError::Timeout { .. }),
        )
        .expect("one dropped request, then clean");
        assert_bit_identical(&summary, &reference_summary(&batch), "silent-drop recovery");
        assert!(
            saw_timeout,
            "the dropped request must classify as a timeout"
        );
        proxy.shutdown();
        server.shutdown();
    });
}

/// Regression: a peer that accepts the connection and then goes silent
/// used to block the client forever (no read timeout). It must now fail
/// with a typed timeout in bounded time.
#[test]
fn dead_peer_yields_a_timely_typed_timeout_not_a_hang() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // Accept and park the socket: never read, never write, never close.
    let accepted = std::thread::spawn(move || listener.accept().map(|(s, _)| s));

    let config = ClientConfig {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Duration::from_millis(300),
        write_timeout: Duration::from_secs(2),
        retry: RetryPolicy::none(),
    };
    let t0 = Instant::now();
    let mut client = Client::connect_with(addr, config).unwrap();
    let err = client
        .submit_batch(
            &paper_batch(2, 1),
            StackSpecWire::TeacherConservative,
            |_| {},
        )
        .expect_err("a silent peer must not look like success");
    let elapsed = t0.elapsed();
    match &err {
        ClientError::Timeout { op, after } => {
            assert_eq!(*op, "read");
            assert_eq!(*after, Duration::from_millis(300));
        }
        other => panic!("expected a read timeout, got {other:?}"),
    }
    assert!(err.is_retryable(), "a dead peer is a retryable condition");
    assert!(
        elapsed < Duration::from_secs(5),
        "typed error took {elapsed:?}; the old behaviour was an unbounded block"
    );
    drop(accepted);
}

/// Terminal errors must fail fast: no retry, one connection, the server's
/// typed rejection handed straight back.
#[test]
fn terminal_errors_are_not_retried() {
    with_deadline(Duration::from_secs(30), "terminal classification", || {
        let server = Server::spawn_ephemeral().unwrap();
        let proxy = ChaosProxy::start(server.local_addr(), FaultSchedule::clean()).unwrap();
        let mut batch = paper_batch(2, 5);
        batch.starts.clear(); // invalid: nothing to simulate
        let mut retried = false;
        let err = Client::submit_with_retry(
            proxy.local_addr(),
            &chaos_config(5),
            &batch,
            StackSpecWire::TeacherConservative,
            None,
            |_| {},
            |_, _| retried = true,
        )
        .expect_err("an invalid batch cannot succeed");
        match &err {
            ClientError::Server { code, .. } => assert_eq!(code, "invalid_batch"),
            other => panic!("expected the server's typed rejection, got {other:?}"),
        }
        assert!(!err.is_retryable());
        assert!(!retried, "terminal errors must not burn retry budget");
        assert_eq!(proxy.connections(), 1);
        proxy.shutdown();
        server.shutdown();
    });
}

/// A peer speaking garbage gets `bad_request` answers up to the quarantine
/// threshold, then one final `quarantined` frame and the connection closes.
#[test]
fn malformed_frame_quarantine_closes_the_connection() {
    use std::io::{BufRead, BufReader, Write};
    let server = Server::start(ServerConfig {
        max_bad_frames: 3,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    for expected in ["bad_request", "bad_request", "quarantined"] {
        stream.write_all(b"definitely not json\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains(&format!("\"code\":\"{expected}\"")),
            "expected {expected}, got {line:?}"
        );
    }
    // After quarantine the server hangs up.
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "got {line:?}");
    server.shutdown();
}

/// A half-open peer (mid-frame stall) is reaped by the idle deadline: it
/// gets a typed `idle_timeout` frame and the handler thread is reclaimed,
/// so stalled connections cannot pin the server.
#[test]
fn half_open_connections_are_reaped_by_the_idle_deadline() {
    use std::io::{BufRead, BufReader, Write};
    let server = Server::start(ServerConfig {
        idle_timeout: Duration::from_millis(400),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Half a frame, then silence: a stalled peer mid-line.
    stream.write_all(b"{\"op\":\"pi").unwrap();
    let t0 = Instant::now();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"code\":\"idle_timeout\""),
        "expected the idle reap frame, got {line:?}"
    );
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "then EOF");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "reap took {:?}",
        t0.elapsed()
    );
    server.shutdown();
}

/// Several concurrent sessions, each through its own seeded random-fault
/// proxy against one shared server: all converge bit-identically. Per-
/// session proxies keep each session's connection indices deterministic
/// even though the sessions interleave arbitrarily.
#[test]
fn concurrent_sessions_through_seeded_proxies_all_converge() {
    with_deadline(Duration::from_secs(90), "concurrent sessions", || {
        let server = Server::start(ServerConfig {
            idle_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let handles: Vec<_> = (0u64..4)
            .map(|session| {
                std::thread::spawn(move || {
                    let seed = derive_seed(0xC0FFEE, "session") ^ session;
                    let proxy = ChaosProxy::start(addr, FaultSchedule::random(seed, 1)).unwrap();
                    let batch = paper_batch(3, seed);
                    let summary = Client::submit_with_retry(
                        proxy.local_addr(),
                        &chaos_config(seed),
                        &batch,
                        StackSpecWire::TeacherConservative,
                        None,
                        |_| {},
                        |_, _| {},
                    )
                    .unwrap_or_else(|e| panic!("session {session} failed: {e}"));
                    assert_bit_identical(
                        &summary,
                        &reference_summary(&batch),
                        &format!("session {session}"),
                    );
                    proxy.shutdown();
                })
            })
            .collect();
        for h in handles {
            h.join().expect("session panicked");
        }
        server.shutdown();
    });
}

/// The full soak: a wider seed sweep of the matrix run twice (outcome
/// vectors compared for reproducibility) plus a concurrent-session storm.
/// Ignored by default; `scripts/soak.sh` runs it in release mode. Scale
/// with `CV_SOAK_SEEDS` (seed count, default 16).
#[test]
#[ignore = "long-running; driven by scripts/soak.sh"]
fn soak_full_matrix_and_session_storm() {
    let seed_count: u64 = std::env::var("CV_SOAK_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let seeds: Vec<u64> = (1..=seed_count).collect();

    let (first, second) = with_deadline(Duration::from_secs(1800), "soak matrix", {
        let seeds = seeds.clone();
        move || (run_matrix(&seeds, 6), run_matrix(&seeds, 6))
    });
    assert_eq!(first.len(), 6 * seeds.len());
    for cell in &first {
        assert_eq!(cell.result, "ok", "soak cell failed: {cell:?}");
    }
    assert_eq!(first, second, "soak rerun diverged");

    // Session storm: 8 concurrent sessions × 3 rounds through random
    // per-session schedules against one shared server.
    with_deadline(Duration::from_secs(600), "soak session storm", || {
        let server = Server::start(ServerConfig {
            idle_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        for round in 0u64..3 {
            let handles: Vec<_> = (0u64..8)
                .map(|session| {
                    std::thread::spawn(move || {
                        let seed = derive_seed(round, "soak-session") ^ session;
                        let proxy =
                            ChaosProxy::start(addr, FaultSchedule::random(seed, 1)).unwrap();
                        let batch = paper_batch(4, seed);
                        let summary = Client::submit_with_retry(
                            proxy.local_addr(),
                            &chaos_config(seed),
                            &batch,
                            StackSpecWire::TeacherConservative,
                            None,
                            |_| {},
                            |_, _| {},
                        )
                        .unwrap_or_else(|e| panic!("round {round} session {session} failed: {e}"));
                        assert_bit_identical(
                            &summary,
                            &reference_summary(&batch),
                            &format!("round {round} session {session}"),
                        );
                        proxy.shutdown();
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("soak session panicked");
            }
        }
        server.shutdown();
    });
}
