//! N-vehicle platoon workload: the differential harness that backs the
//! multi-vehicle shield at scale.
//!
//! * An `n = 2` platoon is *definitionally* the paper's single-conflicting-
//!   vehicle scenario — its lowered config and its episode results must be
//!   bit-identical to the existing path, so the platoon layer can never
//!   drift from the validated baseline.
//! * The episode score of a platoon is the minimum per-pair `η`
//!   (`safe_shield::platoon_eta`), and per-pair slack is monotone under
//!   removing vehicles: dropping a pair can only relax the platoon.
//! * Degenerate platoons (`n < 2`) are a typed error, not a panic.

mod common;

use safe_cv::prelude::*;
use safe_cv::shield::{pair_time_slack, platoon_eta, platoon_slack};
use safe_cv::sim::{
    run_batch, run_episode, BatchConfig, DriverModel, EpisodeConfig, PlatoonSpec, SimError,
    StackSpec, WindowKind,
};

/// The differential oracle: for every seed, the two-vehicle platoon lowers
/// to *exactly* the paper's single-conflicting-vehicle config, and running
/// it produces to-the-bit identical results on both spellings.
#[test]
fn n2_platoon_is_bit_identical_to_the_single_vehicle_path() {
    for seed in 0..8u64 {
        let platoon = PlatoonSpec::paper_default(2, seed).expect("n = 2 is valid");
        let lowered = platoon.episode();
        let single = EpisodeConfig::paper_default(seed);
        assert_eq!(lowered, single, "seed {seed}: configs must be identical");

        let spec = StackSpec::pure_teacher_conservative(&single).expect("valid geometry");
        let a = run_episode(&lowered, &spec, false).expect("platoon episode");
        let b = run_episode(&single, &spec, false).expect("single episode");
        assert_eq!(a, b, "seed {seed}: results must match");
        assert_eq!(
            a.eta.to_bits(),
            b.eta.to_bits(),
            "seed {seed}: η must be bit-identical"
        );
    }
}

/// The same oracle through the batch path: an n = 2 platoon template and
/// the paper template produce statistically *and* bitwise equal batches.
#[test]
fn n2_platoon_batches_match_the_single_vehicle_batches() {
    let platoon = PlatoonSpec::paper_default(2, 3).expect("n = 2 is valid");
    let spec = StackSpec::pure_teacher_aggressive(&platoon.episode()).expect("valid geometry");
    let a = run_batch(&BatchConfig::new(platoon.episode(), 12), &spec).expect("platoon batch");
    let b = run_batch(
        &BatchConfig::new(EpisodeConfig::paper_default(3), 12),
        &spec,
    )
    .expect("single batch");
    assert_eq!(a, b);
}

/// `η` of a platoon episode is the minimum over its per-pair `η` values,
/// and a collision is attributed to exactly one pair. The matrix uses the
/// unprotected aggressive NN under communication disturbance, which is the
/// known collision-producing regime — so the property is exercised on
/// genuine collisions, not just safe runs.
#[test]
fn episode_eta_is_the_minimum_over_pair_etas() {
    let spec = StackSpec::PureNn {
        planner: common::aggressive_nn(),
        window: WindowKind::Nominal,
    };
    let mut collisions = 0;
    for seed in 0..30u64 {
        let mut platoon = PlatoonSpec::paper_default(4, seed).expect("n = 4 is valid");
        platoon.comm = CommSetting::Delayed {
            delay: 0.25,
            drop_prob: 0.5,
        };
        let cfg = platoon.episode();
        let pairs = cfg.others.len();
        let r = run_episode(&cfg, &spec, false).expect("platoon episode");
        let per_pair = r.pair_etas(pairs);
        assert_eq!(per_pair.len(), pairs);
        assert_eq!(
            r.eta.to_bits(),
            platoon_eta(per_pair.iter().copied()).to_bits(),
            "seed {seed}: episode η must be the min over pairs"
        );
        if matches!(r.outcome, Outcome::Collision { .. }) {
            collisions += 1;
            assert_eq!(
                per_pair.iter().filter(|&&e| e == -1.0).count(),
                1,
                "seed {seed}: a collision belongs to exactly one pair"
            );
            let hit = r.collided_pair.expect("collision must name its pair");
            assert_eq!(per_pair[hit], -1.0);
        } else {
            assert_eq!(r.collided_pair, None);
        }
    }
    assert!(
        collisions >= 1,
        "the unprotected aggressive matrix must produce at least one collision"
    );
}

/// Removing a vehicle from a platoon never *decreases* the slack of the
/// remaining pairs: per-pair slacks are computed independently, and the
/// platoon slack is their minimum, so every subset is at least as slack as
/// the full set. Grounded in real scenario geometry and simulated states.
#[test]
fn dropping_a_vehicle_never_decreases_remaining_slack() {
    let platoon = PlatoonSpec::paper_default(5, 7).expect("n = 5 is valid");
    let cfg = platoon.episode();
    let scenarios = cfg.scenarios().expect("valid geometry");
    for (t_idx, ego_pos) in [(0, -30.0), (10, -20.0), (25, -8.0), (40, 2.0)] {
        let time = t_idx as f64 * cfg.dt_c;
        let ego = safe_cv::dynamics::VehicleState::new(ego_pos, 8.0, 0.0);
        // Ground-truth estimates: each vehicle cruising in its own frame.
        let per_pair: Vec<f64> = scenarios
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let other = safe_cv::dynamics::VehicleState::new(6.0 + 2.0 * i as f64, 10.0, 0.0);
                let est = safe_cv::estimation::VehicleEstimate::exact(time, other);
                pair_time_slack(
                    s.projected_window(time, &ego),
                    s.conservative_window(time, &est),
                )
            })
            .collect();
        let full = platoon_slack(per_pair.iter().copied());
        for drop in 0..per_pair.len() {
            let subset = per_pair
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != drop)
                .map(|(_, s)| *s);
            assert!(
                platoon_slack(subset) >= full,
                "t {time}: dropping vehicle {drop} tightened the platoon"
            );
        }
        // The per-pair values themselves are independent of the drop: they
        // are recomputed identically from the same pairwise inputs.
        for (i, s) in scenarios.iter().enumerate() {
            let other = safe_cv::dynamics::VehicleState::new(6.0 + 2.0 * i as f64, 10.0, 0.0);
            let est = safe_cv::estimation::VehicleEstimate::exact(time, other);
            let again = pair_time_slack(
                s.projected_window(time, &ego),
                s.conservative_window(time, &est),
            );
            assert_eq!(again.to_bits(), per_pair[i].to_bits());
        }
    }
}

/// A platoon needs an ego and at least one conflicting vehicle; smaller
/// `n` is a typed [`SimError::InvalidBatch`], never a panic.
#[test]
fn degenerate_platoons_are_rejected_with_a_typed_error() {
    for n in [0, 1] {
        match PlatoonSpec::paper_default(n, 0) {
            Err(SimError::InvalidBatch { reason }) => {
                assert!(
                    reason.contains("at least 2"),
                    "n = {n}: reason should explain the floor, got '{reason}'"
                );
            }
            other => panic!("n = {n} must be InvalidBatch, got {other:?}"),
        }
    }
}

/// Followers are real dynamics, not scenery: a gap-tracking follower in a
/// platoon episode holds formation behind its (randomly driven) leader.
#[test]
fn followers_track_the_leader_through_a_full_episode() {
    let platoon = PlatoonSpec::paper_default(3, 11).expect("n = 3 is valid");
    let cfg = platoon.episode();
    assert_eq!(
        cfg.others[1].driver,
        DriverModel::GapTracking {
            target_gap: 9.0,
            gain: 0.6,
        }
    );
    let spec = StackSpec::pure_teacher_conservative(&cfg).expect("valid geometry");
    let r = run_episode(&cfg, &spec, true).expect("platoon episode");
    let traces = r.traces.expect("traces requested");
    let leader = traces.others[0].last().expect("leader trace").state;
    let follower = traces.others[1].last().expect("follower trace").state;
    // Shared-axis gap at the end of the episode: started at 9 m, must not
    // have collapsed or blown up while the leader drove randomly.
    let starts: Vec<f64> = cfg.vehicles().iter().map(|v| v.0).collect();
    let gap = (starts[1] - follower.position) - (starts[0] - leader.position);
    assert!(
        (3.0..=20.0).contains(&gap),
        "follower lost formation: gap {gap}"
    );
}
