//! Integration-level contract tests for lane-batched execution
//! (`cv_sim::run_batch_lanes`, DESIGN.md §15).
//!
//! The unit tests in `cv-sim` pin the mechanics (mode validation, refill,
//! rescue, panic isolation); here the *numeric contract* is exercised at
//! full-stack scale: for every lane width `K ∈ {1, 2, 4, 8}`, worker count,
//! and planner stack of the paper (unshielded pure NN, basic `κ_cb`,
//! ultimate `κ_cu`), a lane-batched batch must match the per-episode
//! reference — bit-identically for `K = 1`, within the per-field tolerance
//! gate (`lane_tolerance_check`) for `K > 1`.

mod common;

use safe_cv::shield::AggressiveConfig;
use safe_cv::sim::{
    lane_tolerance_check, run_batch_lanes, BatchConfig, BatchMode, EpisodeConfig, EpisodeResult,
    StackSpec, WindowKind,
};

/// The three NN-embedding stacks of the paper's case study.
fn stacks() -> Vec<(&'static str, StackSpec)> {
    vec![
        (
            "pure-nn",
            StackSpec::PureNn {
                planner: common::conservative_nn(),
                window: WindowKind::Conservative,
            },
        ),
        ("basic", StackSpec::basic(common::conservative_nn())),
        (
            "ultimate",
            StackSpec::ultimate(common::conservative_nn(), AggressiveConfig::default()),
        ),
    ]
}

fn reference_results(batch: &BatchConfig, spec: &StackSpec) -> Vec<EpisodeResult> {
    run_batch_lanes(batch, spec, BatchMode::EventDriven, None, None)
        .expect("reference batch must run")
        .into_results()
        .expect("reference episodes must complete")
}

#[test]
fn tolerance_matrix_holds_across_k_threads_and_stacks() {
    const EPISODES: usize = 12;
    for (name, spec) in stacks() {
        let template = EpisodeConfig::paper_default(29);
        let mut batch = BatchConfig::new(template, EPISODES);
        batch.threads = 1;
        let reference = reference_results(&batch, &spec);
        for threads in [1usize, 3] {
            batch.threads = threads;
            for k in [1usize, 2, 4, 8] {
                let results = run_batch_lanes(&batch, &spec, BatchMode::Lanes(k), None, None)
                    .expect("lane batch must run")
                    .into_results()
                    .expect("lane episodes must complete");
                assert_eq!(results.len(), reference.len());
                if k == 1 {
                    // Lanes(1) routes through the exact per-sample kernel:
                    // bit-identical, independent of worker count.
                    assert_eq!(
                        results, reference,
                        "[{name}] Lanes(1) diverged at {threads} threads"
                    );
                } else {
                    for (i, (r, b)) in reference.iter().zip(&results).enumerate() {
                        lane_tolerance_check(r, b).unwrap_or_else(|e| {
                            panic!(
                                "[{name}] episode {i} out of tolerance \
                                 (K={k}, threads={threads}): {e}"
                            )
                        });
                    }
                }
            }
        }
    }
}

/// The lane-tolerance gate on an NN *platoon* stack: `n = 4` vehicles,
/// gap-tracking followers, and a per-vehicle channel override, across the
/// full `K × threads` matrix. `Lanes(1)` must stay bit-identical — the
/// platoon actuation path is shared between the per-episode loop and the
/// lane stepper, so any divergence is a real lockstep bug, not tolerance.
#[test]
fn platoon_tolerance_matrix_holds_across_k_and_threads() {
    const EPISODES: usize = 12;
    let mut platoon = safe_cv::sim::PlatoonSpec::paper_default(4, 43).expect("n = 4 is valid");
    platoon.comm = safe_cv::comm::CommSetting::Delayed {
        delay: 0.25,
        drop_prob: 0.25,
    };
    // One pair's channel diverges from the template: the per-vehicle
    // override must survive lane grouping too.
    platoon.followers[1].comm = Some(safe_cv::comm::CommSetting::NoDisturbance);
    let spec = StackSpec::ultimate(common::conservative_nn(), AggressiveConfig::default());
    let mut batch = BatchConfig::new(platoon.episode(), EPISODES);
    batch.threads = 1;
    let reference = reference_results(&batch, &spec);
    for threads in [1usize, 3] {
        batch.threads = threads;
        for k in [1usize, 2, 4, 8] {
            let results = run_batch_lanes(&batch, &spec, BatchMode::Lanes(k), None, None)
                .expect("platoon lane batch must run")
                .into_results()
                .expect("platoon lane episodes must complete");
            assert_eq!(results.len(), reference.len());
            if k == 1 {
                assert_eq!(
                    results, reference,
                    "platoon Lanes(1) diverged at {threads} threads"
                );
            } else {
                for (i, (r, b)) in reference.iter().zip(&results).enumerate() {
                    lane_tolerance_check(r, b).unwrap_or_else(|e| {
                        panic!(
                            "platoon episode {i} out of tolerance \
                             (K={k}, threads={threads}): {e}"
                        )
                    });
                }
            }
        }
    }
}

/// Early-exit refill: with more episodes than lanes and episodes retiring
/// at different times (per-seed noise spreads the outcome times), finished
/// lanes claim fresh episodes mid-flight while their neighbours keep
/// stepping. The partially-occupied rounds this produces must not leak
/// into the numerics of any co-resident episode.
#[test]
fn refill_after_early_exit_stays_within_tolerance() {
    const EPISODES: usize = 18;
    let spec = StackSpec::basic(common::aggressive_nn());
    let template = EpisodeConfig::paper_default(61);
    let mut batch = BatchConfig::new(template, EPISODES);
    batch.threads = 1;
    let reference = reference_results(&batch, &spec);

    // The premise of the test: the batch is genuinely imbalanced, so a
    // K=4 group must refill several times from lanes that retired early.
    let steps: Vec<u64> = reference.iter().map(|r| r.total_steps).collect();
    let (min, max) = (steps.iter().min().unwrap(), steps.iter().max().unwrap());
    assert!(
        min < max,
        "seed spread produced a perfectly balanced batch; pick another seed"
    );

    let results = run_batch_lanes(&batch, &spec, BatchMode::Lanes(4), None, None)
        .expect("lane batch must run")
        .into_results()
        .expect("lane episodes must complete");
    for (i, (r, b)) in reference.iter().zip(&results).enumerate() {
        lane_tolerance_check(r, b)
            .unwrap_or_else(|e| panic!("episode {i} out of tolerance after refill: {e}"));
    }
}
