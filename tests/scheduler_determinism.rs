//! Bit-identity matrix for the dynamic batch scheduler and the reusable
//! episode workspace.
//!
//! The engine overhaul (claim-by-index scheduling, per-worker retained
//! [`EpisodeWorkspace`]s, transpose-free backprop kernels) is only valid if
//! results stay bit-identical to the original fresh-state serial path. This
//! suite pins that contract end to end:
//!
//! 1. a reused workspace reproduces `run_episode` exactly, traced and
//!    untraced, as the pair count changes, on a teacher and a `κ_cu` stack;
//! 2. `run_batch` (dynamic) over the full paper start grid matches
//!    `run_episode` called on each episode in index order, for every
//!    thread count in {1, 2, 4, 8};
//! 3. the daemon serves the same summary statistics as the library batch
//!    runner, for 1 and 4 workers, for one oncoming vehicle and for an
//!    n = 4 platoon;
//! 4. platoon batches on the event wheel (DESIGN.md §18) are identical
//!    across worker counts and re-runs; the `#[ignore]`d sparse soak
//!    (`scripts/soak.sh`) repeats that at soak scale.

use cv_server::{Client, Server, ServerConfig, StackSpecWire};
use safe_cv::prelude::*;
use safe_cv::sim::training::{train_planner, Personality, TrainSetup};
use safe_cv::sim::{
    run_batch, run_episode, BatchConfig, BatchSummary, EpisodeWorkspace, PlatoonFollower,
    PlatoonSpec,
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
/// seeds, starts, comm settings and pair counts (so every retained buffer
/// is re-armed in between): one conflicting vehicle, then an n = 4 platoon
/// (3 pairs), then 2 pairs, then 1 again. Every episode runs traced and
/// untraced, because only untraced runs retire pairs and arm their pins,
/// on the aggressive teacher and on a `κ_cu` stack.
#[test]
fn reused_workspace_matches_fresh_episodes_with_traces() {
    let template = disturbed_template(41);
    let planner = train_planner(&TrainSetup::smoke(), Personality::Aggressive).expect("training");
    let specs = [
        StackSpec::pure_teacher_aggressive(&template).expect("paper geometry"),
        StackSpec::ultimate(planner, AggressiveConfig::default()),
    ];
    for spec in specs {
        let mut ws = EpisodeWorkspace::new(spec.clone());
        for (i, (start, vehicles)) in [(50.5, 2), (53.0, 4), (58.5, 3), (50.5, 2)]
            .into_iter()
            .enumerate()
        {
            let mut platoon = PlatoonSpec::paper_default(vehicles, 41 + i as u64).expect("n >= 2");
            platoon.leader_start_shared = start;
            platoon.comm = template.comm;
            if i == 2 {
                platoon.comm = CommSetting::NoDisturbance; // force channel rebuilds
            }
            let cfg = platoon.episode();
            for traced in [true, false] {
                let fresh = run_episode(&cfg, &spec, traced).expect("valid episode");
                let reused = ws.run(&cfg, traced).expect("valid episode");
                let context = format!(
                    "{} episode {i} (start {start}, n = {vehicles})",
                    spec.label()
                );
                assert_eq!(fresh, reused, "{context}, traced: {traced}");
                assert_eq!(fresh.traces.is_some(), traced, "{context}");
            }
        }
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
/// must agree with the library runner for any worker count — for the
/// single-vehicle scenario and for an n = 4 platoon.
#[test]
fn served_summary_matches_run_batch() {
    let template = disturbed_template(19);
    let spec = StackSpec::pure_teacher_aggressive(&template).expect("paper geometry");
    let platoon = PlatoonSpec::paper_default(4, 19).expect("n >= 2").episode();
    let platoon_spec = StackSpec::pure_teacher_conservative(&platoon).expect("paper geometry");
    let inputs = [
        (template, spec, StackSpecWire::TeacherAggressive),
        (platoon, platoon_spec, StackSpecWire::TeacherConservative),
    ];
    for (template, spec, wire) in inputs {
        let mut batch = BatchConfig::new(template, 12);
        let expected = BatchSummary::from_results(&run_batch(&batch, &spec).expect("valid batch"));
        // No cache: every job is computed, never replayed.
        let server = Server::start(ServerConfig {
            workers: 4,
            cache_bytes: 0,
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
                "{wire:?} summary diverged at {workers} workers"
            );
        }
        server.shutdown();
    }
}

/// `batch` at 1 worker is the reference; 2 and 4 workers, each run twice,
/// must reproduce it bit for bit.
fn assert_identical_across_workers_and_reruns(batch: &BatchConfig, spec: &StackSpec, ctx: &str) {
    let mut batch = batch.clone();
    batch.threads = 1;
    let reference = run_batch(&batch, spec).expect("valid batch");
    for threads in [2usize, 4] {
        batch.threads = threads;
        for rerun in 0..2 {
            let again = run_batch(&batch, spec).expect("valid batch");
            assert_eq!(
                reference, again,
                "{ctx}: diverged at {threads} workers, rerun {rerun}"
            );
        }
    }
}

/// Wheel execution never falls back on claim order or timing: an n = 4
/// platoon under delayed, dropping V2V is identical across worker counts
/// and re-runs.
#[test]
fn platoon_batches_are_identical_across_worker_counts_and_reruns() {
    let mut platoon = PlatoonSpec::paper_default(4, 7).expect("n >= 2");
    platoon.comm = CommSetting::Delayed {
        delay: 0.25,
        drop_prob: 0.5,
    };
    let template = platoon.episode();
    let spec = StackSpec::pure_teacher_conservative(&template).expect("paper geometry");
    assert_identical_across_workers_and_reruns(&BatchConfig::new(template, 16), &spec, "n = 4");
}

/// The sparse-disturbance n = 8 platoon: ego far upstream, leader at the
/// zone's edge, 6 m gaps — every pair retires in the first quarter of a
/// long approach episode.
fn sparse_platoon(seed: u64, comm: CommSetting) -> EpisodeConfig {
    let mut platoon = PlatoonSpec::paper_default(8, seed).expect("n >= 2");
    platoon.leader_start_shared = 16.0;
    platoon.comm = comm;
    for f in &mut platoon.followers {
        *f = PlatoonFollower {
            gap: 6.0,
            ..PlatoonFollower::paper_default()
        };
    }
    let mut cfg = platoon.episode();
    cfg.ego_init.position = -150.0;
    cfg
}

#[test]
#[ignore = "long-horizon sparse-disturbance soak; run via scripts/soak.sh"]
fn sparse_soak_is_identical_across_worker_counts_and_reruns() {
    let episodes: usize = std::env::var("CV_SOAK_EVENT_EPISODES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4000);
    // Lost channels (the sparsest disturbance) and a heavy delay/drop
    // channel (arrivals rare and late): both spend most of each long
    // episode with every pair quiescent.
    for (name, comm) in [
        ("lost", CommSetting::Lost),
        (
            "delayed-0.5-0.9",
            CommSetting::Delayed {
                delay: 0.5,
                drop_prob: 0.9,
            },
        ),
    ] {
        for seed in [1u64, 77] {
            let template = sparse_platoon(seed, comm);
            let spec = StackSpec::pure_teacher_conservative(&template).expect("paper geometry");
            let mut batch = BatchConfig::new(template, episodes);
            // Keep the early-retirement geometry: the default start grid
            // would move the leader back to 50.5–60 m.
            batch.starts = (0..20).map(|j| 16.0 + 0.25 * f64::from(j)).collect();
            assert_identical_across_workers_and_reruns(
                &batch,
                &spec,
                &format!("soak {name} seed {seed}"),
            );
            println!("soak cell {name} seed {seed}: {episodes} episodes identical");
        }
    }
}
