//! Server-level panic isolation (ISSUE S3): a batch containing an episode
//! whose planner panics must yield partial results plus a typed
//! `episode_fault` frame, leave the server serving, keep every surviving
//! episode bit-identical to a clean run, and replay byte-identically on
//! resubmission. Repeat offenders get quarantined once the server's panic
//! budget is spent.
//!
//! The whole suite requires the `fault-injection` feature (the deliberately
//! panicking `panic_injection` stack is not nameable in default builds):
//!
//! ```text
//! cargo test -p cv-server --features fault-injection --test panic_isolation
//! ```
#![cfg(feature = "fault-injection")]

use std::sync::mpsc;
use std::time::Duration;

use cv_server::{Client, ClientError, Event, Server, ServerConfig, StackSpecWire};
use cv_sim::{run_batch, BatchConfig, BatchSummary, EpisodeConfig, StackSpec};

fn paper_batch(episodes: usize, seed: u64) -> BatchConfig {
    BatchConfig::new(EpisodeConfig::paper_default(seed), episodes)
}

/// Runs `f` on a worker thread and panics if it exceeds `deadline`.
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

/// Submits the panic-injection batch and collects (faults, summary).
fn submit_panic_batch(
    client: &mut Client,
    batch: &BatchConfig,
) -> (Vec<(usize, String)>, Result<BatchSummary, ClientError>) {
    let mut faults = Vec::new();
    let result = client.submit_batch(batch, StackSpecWire::PanicInjection, |e| {
        if let Event::EpisodeFault { index, kind, .. } = e {
            faults.push((*index, kind.clone()));
        }
    });
    (faults, result)
}

/// The S3 acceptance test: 32 episodes, one injected panic (episode 0, the
/// template seed), exactly one typed fault frame, 31 bit-identical
/// survivors, a still-serving server, and a byte-identical rerun.
#[test]
fn panicking_episode_is_contained_with_bit_identical_survivors() {
    with_deadline(Duration::from_secs(120), "panic isolation e2e", || {
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            // High enough that the rerun below cannot trip quarantine.
            panic_budget: 8,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        let batch = paper_batch(32, 71);
        let (faults, result) = submit_panic_batch(&mut client, &batch);
        let summary = result.expect("a contained panic still completes the batch");

        // Exactly one typed fault, at the injected episode.
        assert_eq!(faults, vec![(0, "panicked".to_string())]);
        assert_eq!(summary.requested, 32);
        assert_eq!(summary.episodes, 31);
        assert_eq!(summary.panicked, 1);
        assert_eq!(summary.failed, 0);
        assert_eq!(summary.skipped, 0);

        // Survivors are bit-identical to a clean conservative-teacher run
        // of the same batch (the injection stack is the conservative stack
        // plus the panic hook, so episodes 1..32 must match exactly).
        let spec = StackSpec::pure_teacher_conservative(&batch.template).unwrap();
        let reference = run_batch(&batch, &spec).unwrap();
        assert_eq!(summary.etas.len(), 31);
        for (survivor, reference_result) in summary.etas.iter().zip(reference[1..].iter()) {
            assert_eq!(
                survivor.to_bits(),
                reference_result.eta.to_bits(),
                "survivor diverged from the clean run"
            );
        }

        // The server is still serving — a clean batch on a fresh
        // connection completes normally.
        let mut fresh = Client::connect(server.local_addr()).unwrap();
        let clean = fresh
            .submit_batch(
                &paper_batch(4, 72),
                StackSpecWire::TeacherConservative,
                |_| {},
            )
            .unwrap();
        assert_eq!(clean.episodes, 4);

        // Resubmitting the same batch replays byte-identically: same fault,
        // same statistics, same per-episode bits.
        let (refaults, rerun) = submit_panic_batch(&mut client, &batch);
        let rerun = rerun.expect("rerun completes too");
        assert_eq!(refaults, vec![(0, "panicked".to_string())]);
        assert!(rerun.stats_eq(&summary), "rerun statistics diverged");
        assert_eq!(rerun.etas, summary.etas, "rerun η bits diverged");

        server.shutdown();
    });
}

/// Once a seed has spent the server's panic budget, later encounters are
/// quarantined: skipped with a typed `quarantined` fault instead of being
/// re-run, and counted under `skipped` in the summary.
#[test]
fn repeat_offender_seed_is_quarantined_after_the_budget() {
    with_deadline(Duration::from_secs(120), "quarantine e2e", || {
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            panic_budget: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let batch = paper_batch(4, 73);

        for run in 0..2 {
            let (faults, result) = submit_panic_batch(&mut client, &batch);
            let summary = result.expect("contained panic, batch completes");
            assert_eq!(faults, vec![(0, "panicked".to_string())], "run {run}");
            assert_eq!((summary.panicked, summary.skipped), (1, 0), "run {run}");
        }

        // Third run: the budget (2) is spent, the seed is quarantined.
        let (faults, result) = submit_panic_batch(&mut client, &batch);
        let summary = result.expect("quarantined episode still completes the batch");
        assert_eq!(faults, vec![(0, "quarantined".to_string())]);
        assert_eq!(summary.panicked, 0);
        assert_eq!(summary.skipped, 1);
        assert_eq!(summary.episodes, 3);

        server.shutdown();
    });
}
