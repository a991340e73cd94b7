//! Integration contract tests for the event-driven episode engine
//! (`cv_sim::events`, `BatchMode::EventDriven`, DESIGN.md §18).
//!
//! The unit tests in `cv-sim` pin the mechanics (arrival-tick
//! integerisation, workspace reuse, per-channel scheduling); here the
//! *engine contract* is exercised at full-stack scale:
//!
//! * **Bit-identity matrix** — whenever every cadence divides the control
//!   step (the repo default), an event-driven batch must reproduce the
//!   fixed-step oracle bit for bit, across seeds, worker counts, and
//!   planner stacks (teacher conservative, teacher aggressive under
//!   delay/drop disturbance, an n = 4 platoon with one lost V2V channel,
//!   and the pure-NN stack).
//! * **Event-ordering determinism** — simultaneous events resolve in the
//!   documented, seed-independent priority order (per tick and pair:
//!   arrivals in send order, then the sensor read, then the tick-wide
//!   control decision; pairs in index order). The order is observable
//!   through the estimates the planner sees, so bit-identity against the
//!   fixed-step loop *at delays that force tick collisions* is the
//!   sharpest available probe; re-run and cross-thread identity pin that
//!   the wheel never falls back on allocation order or timing.
//! * **Sparse-disturbance soak** (`#[ignore]`, `scripts/soak.sh`) — the
//!   long-horizon platoon workload the engine exists for, at soak scale.

use safe_cv::comm::CommSetting;
use safe_cv::nn::{Activation, Mlp};
use safe_cv::planner::{FeatureScaling, NnPlanner};
use safe_cv::sim::{
    run_batch_lanes, BatchConfig, BatchMode, EpisodeConfig, EpisodeResult, PlatoonFollower,
    PlatoonSpec, StackSpec, WindowKind,
};

/// Strict per-episode fingerprint: `to_bits` on η so `-0.0`/NaN sloppiness
/// can never hide behind float `==`.
fn bits(r: &EpisodeResult) -> (u64, String, u64, u64, Option<usize>) {
    (
        r.eta.to_bits(),
        format!("{:?}", r.outcome),
        r.emergency_steps,
        r.total_steps,
        r.collided_pair,
    )
}

fn fixed_results(batch: &BatchConfig, spec: &StackSpec) -> Vec<EpisodeResult> {
    run_batch_lanes(batch, spec, BatchMode::PerEpisode, None, None)
        .expect("fixed-step batch must run")
        .into_results()
        .expect("fixed-step episodes must complete")
}

fn event_results(batch: &BatchConfig, spec: &StackSpec) -> Vec<EpisodeResult> {
    run_batch_lanes(batch, spec, BatchMode::EventDriven, None, None)
        .expect("event-driven batch must run")
        .into_results()
        .expect("event-driven episodes must complete")
}

fn assert_bit_identical(batch: &BatchConfig, spec: &StackSpec, ctx: &str) {
    let fixed = fixed_results(batch, spec);
    let event = event_results(batch, spec);
    assert_eq!(fixed.len(), event.len(), "{ctx}: episode count diverged");
    for (i, (f, e)) in fixed.iter().zip(&event).enumerate() {
        assert_eq!(bits(f), bits(e), "{ctx}: episode {i} diverged");
    }
}

/// An untrained case-study-shaped NN planner: for engine identity only the
/// forward pass matters, not the weights.
fn untrained_nn(seed: u64) -> NnPlanner {
    let template = EpisodeConfig::paper_default(seed);
    let ego_limits = template.scenario().expect("paper geometry").ego_limits();
    let net = Mlp::new(&[5, 32, 32, 1], Activation::Tanh, Activation::Tanh, seed)
        .expect("case-study shape");
    NnPlanner::new(
        net,
        ego_limits,
        FeatureScaling::left_turn(),
        "event-test-nn",
    )
}

/// An n = 4 platoon whose first follower's V2V channel is lost — the mixed
/// case where one pair can only retire through sensing while its
/// neighbours keep scheduling arrivals.
fn platoon_n4_one_lost(seed: u64) -> EpisodeConfig {
    let mut platoon = PlatoonSpec::paper_default(4, seed).expect("n >= 2");
    platoon.followers[0].comm = Some(CommSetting::Lost);
    platoon.episode()
}

/// The stacks of the bit-identity matrix.
fn matrix_stacks(seed: u64) -> Vec<(&'static str, EpisodeConfig, StackSpec)> {
    let cons_template = EpisodeConfig::paper_default(seed);
    let cons = StackSpec::pure_teacher_conservative(&cons_template).expect("paper geometry");
    let mut aggr_template = EpisodeConfig::paper_default(seed);
    aggr_template.comm = CommSetting::Delayed {
        delay: 0.25,
        drop_prob: 0.5,
    };
    let aggr = StackSpec::pure_teacher_aggressive(&aggr_template).expect("paper geometry");
    let platoon_template = platoon_n4_one_lost(seed);
    let platoon = StackSpec::pure_teacher_conservative(&platoon_template).expect("paper geometry");
    let nn_template = EpisodeConfig::paper_default(seed);
    let nn = StackSpec::PureNn {
        planner: untrained_nn(seed),
        window: WindowKind::Conservative,
    };
    vec![
        ("teacher-cons", cons_template, cons),
        ("teacher-aggr/delayed", aggr_template, aggr),
        ("platoon-n4/one-lost", platoon_template, platoon),
        ("nn-pure", nn_template, nn),
    ]
}

#[test]
fn bit_identity_matrix_across_seeds_threads_and_stacks() {
    for &seed in &[3u64, 17, 101, 4242] {
        for (name, template, spec) in matrix_stacks(seed) {
            let mut batch = BatchConfig::new(template, 10);
            for threads in [1usize, 2] {
                batch.threads = threads;
                assert_bit_identical(&batch, &spec, &format!("{name} seed {seed} x{threads}"));
            }
        }
    }
}

#[test]
fn event_execution_is_identical_across_thread_counts_and_reruns() {
    let mut platoon = PlatoonSpec::paper_default(4, 7).expect("n >= 2");
    platoon.comm = CommSetting::Delayed {
        delay: 0.25,
        drop_prob: 0.5,
    };
    let template = platoon.episode();
    let spec = StackSpec::pure_teacher_conservative(&template).expect("paper geometry");
    let mut batch = BatchConfig::new(template, 16);
    batch.threads = 1;
    let reference = event_results(&batch, &spec);
    for threads in [1usize, 2, 4] {
        batch.threads = threads;
        for rerun in 0..2 {
            let again = event_results(&batch, &spec);
            assert_eq!(reference.len(), again.len());
            for (i, (a, b)) in reference.iter().zip(&again).enumerate() {
                assert_eq!(
                    bits(a),
                    bits(b),
                    "episode {i} diverged at {threads} threads, rerun {rerun}"
                );
            }
        }
    }
}

#[test]
fn simultaneous_events_resolve_in_the_documented_order() {
    // Delays chosen to force tick collisions on the wheel: 0.0 lands every
    // arrival on its own send tick (arrival/broadcast/sensor all
    // simultaneous), 0.1 and 0.2 land arrivals exactly on later broadcast
    // ticks, so with three conflicting vehicles each collision tick holds
    // several same-tick events per pair and across pairs. `drop_prob: 0.0`
    // keeps every message in play. The documented priority order
    // (arrivals in send order, then sensing, then the control decision;
    // pairs in index order) is exactly the fixed-step loop's implicit
    // order, so bit-identity under forced collisions is the ordering
    // check — any deviation (heap pop order, pair iteration, stamp
    // handling) moves an estimator update across a planner read and
    // changes some episode's bits.
    for delay in [0.0, 0.1, 0.2] {
        let mut platoon = PlatoonSpec::paper_default(4, 11).expect("n >= 2");
        platoon.comm = CommSetting::Delayed {
            delay,
            drop_prob: 0.0,
        };
        let template = platoon.episode();
        let spec = StackSpec::pure_teacher_conservative(&template).expect("paper geometry");
        let mut batch = BatchConfig::new(template, 8);
        batch.threads = 2;
        assert_bit_identical(&batch, &spec, &format!("delay {delay}"));
    }
}

/// The sparse-disturbance n = 8 platoon of the throughput benchmark: ego
/// far upstream, leader at the zone's edge, all channels lost — every pair
/// retires in the first quarter of a long approach episode.
fn sparse_platoon(seed: u64) -> EpisodeConfig {
    let mut platoon = PlatoonSpec::paper_default(8, seed).expect("n >= 2");
    platoon.leader_start_shared = 16.0;
    platoon.comm = CommSetting::Lost;
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
fn sparse_disturbance_soak_stays_bit_identical() {
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
        for &seed in &[1u64, 77] {
            let mut template = sparse_platoon(seed);
            template.comm = comm;
            let spec = StackSpec::pure_teacher_conservative(&template).expect("paper geometry");
            let mut batch = BatchConfig::new(template, episodes);
            // Keep the early-retirement geometry: the default start grid
            // would move the leader back to 50.5–60 m.
            batch.starts = (0..20).map(|j| 16.0 + 0.25 * j as f64).collect();
            for threads in [2usize, 4] {
                batch.threads = threads;
                assert_bit_identical(&batch, &spec, &format!("soak {name} seed {seed}"));
            }
            println!("soak cell {name} seed {seed}: {episodes} episodes bit-identical");
        }
    }
}
