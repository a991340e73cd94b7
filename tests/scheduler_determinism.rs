//! Bit-identity matrix for the dynamic batch scheduler and the reusable
//! episode workspace.
//!
//! The engine overhaul (claim-by-index scheduling, per-worker retained
//! [`EpisodeWorkspace`]s, transpose-free backprop kernels) is only valid if
//! results stay bit-identical to the original fresh-state serial path. This
//! suite pins that contract end to end:
//!
//! 1. a reused workspace reproduces `run_episode` exactly, traces included;
//! 2. `run_batch` (dynamic) over the full paper start grid matches
//!    `run_episode` called on each episode in index order, for every
//!    thread count in {1, 2, 4, 8};
//! 3. the daemon serves the same summary statistics as the library batch
//!    runner, for 1 and 4 workers, per-episode and (for an n = 4 platoon)
//!    on the event wheel.

use cv_server::{Client, Server, ServerConfig, StackSpecWire};
use safe_cv::prelude::*;
use safe_cv::sim::{
    run_batch, run_episode, BatchConfig, BatchSummary, EpisodeWorkspace, PlatoonSpec,
};

fn disturbed_template(seed: u64) -> EpisodeConfig {
    let mut cfg = EpisodeConfig::paper_default(seed);
    cfg.comm = CommSetting::Delayed {
        delay: 0.25,
        drop_prob: 0.5,
    };
    cfg
}

/// A reused workspace must reproduce the one-shot entry point exactly,
/// including the full per-step traces, across episodes with different
/// seeds, starts, and comm settings (so every retained buffer is re-armed
/// in between).
#[test]
fn reused_workspace_matches_fresh_episodes_with_traces() {
    let template = disturbed_template(41);
    let spec = StackSpec::pure_teacher_aggressive(&template).expect("paper geometry");
    let mut ws = EpisodeWorkspace::new(spec.clone());
    for (i, start) in [50.5, 53.0, 58.5, 50.5].into_iter().enumerate() {
        let mut cfg = template.clone();
        cfg.seed = 41 + i as u64;
        cfg.other_start_shared = start;
        if i == 2 {
            cfg.comm = CommSetting::NoDisturbance; // force a channel rebuild
        }
        let fresh = run_episode(&cfg, &spec, true).expect("valid episode");
        let reused = ws.run(&cfg, true).expect("valid episode");
        assert_eq!(fresh, reused, "episode {i} diverged (start {start})");
        assert!(fresh.traces.is_some(), "traces were requested");
    }
}

/// Dynamic claim-by-index scheduling must be invisible in the results: the
/// full paper start grid, every thread count, both teacher stacks, compared
/// against one `run_episode` per index and against single-threaded runs.
#[test]
fn batch_results_identical_across_schedulers_and_thread_counts() {
    let template = disturbed_template(7);
    let grid = EpisodeConfig::paper_start_grid();
    for spec in [
        StackSpec::pure_teacher_conservative(&template).expect("paper geometry"),
        StackSpec::pure_teacher_aggressive(&template).expect("paper geometry"),
    ] {
        let mut batch = BatchConfig::new(template.clone(), 2 * grid.len());
        batch.threads = 1;
        let reference = run_batch(&batch, &spec).expect("valid batch");
        let static_: Vec<_> = (0..batch.episodes)
            .map(|i| run_episode(&batch.episode(i), &spec, false).expect("valid episode"))
            .collect();
        for threads in [1usize, 2, 4, 8] {
            batch.threads = threads;
            let dynamic = run_batch(&batch, &spec).expect("valid batch");
            assert_eq!(reference, dynamic, "dynamic @ {threads} threads");
            assert_eq!(reference, static_, "static @ {threads} threads");
        }
    }
}

/// The daemon runs its jobs on the same scheduler; the summary it serves
/// must agree with the library runner for any worker count — on a
/// per-episode daemon, and on an event-driven one for an n = 4 platoon.
#[test]
fn served_summary_matches_run_batch() {
    let template = disturbed_template(19);
    let spec = StackSpec::pure_teacher_aggressive(&template).expect("paper geometry");
    let platoon = PlatoonSpec::paper_default(4, 19).expect("n >= 2").episode();
    let platoon_spec = StackSpec::pure_teacher_conservative(&platoon).expect("paper geometry");
    let inputs = [
        (template, spec, StackSpecWire::TeacherAggressive, false),
        (
            platoon,
            platoon_spec,
            StackSpecWire::TeacherConservative,
            true,
        ),
    ];
    for (template, spec, wire, event_driven) in inputs {
        let mut batch = BatchConfig::new(template, 12);
        let expected = BatchSummary::from_results(&run_batch(&batch, &spec).expect("valid batch"));
        // No cache: every job is computed, never replayed.
        let server = Server::start(ServerConfig {
            workers: 4,
            cache_bytes: 0,
            event_driven,
            ..ServerConfig::default()
        })
        .expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for workers in [1usize, 4] {
            batch.threads = workers;
            let summary = client
                .submit_batch(&batch, wire, |_| {})
                .expect("served batch completes");
            assert!(
                summary.stats_eq(&expected),
                "event_driven={event_driven} summary diverged at {workers} workers"
            );
        }
        server.shutdown();
    }
}
