//! The shield on the second scenario: randomized lead behaviours must never
//! defeat the gap guarantee of the wrapped (reckless) cruise controller.

use car_following::{CarFollowingScenario, CruisePlanner};
use cv_rng::{Rng, SplitMix64};
use safe_cv::prelude::*;

/// Runs a shielded closed loop with a randomly driven lead; returns the
/// minimum gap observed (with perfect estimation — the estimation stack is
/// covered by the left-turn suites).
fn min_gap_shielded(seed: u64, ambush_at: Option<f64>, initial_gap: f64) -> f64 {
    let scenario = CarFollowingScenario::highway_default().expect("valid scenario");
    let ego_limits = scenario.ego_limits();
    let lead_limits = scenario.lead_limits();
    let dt = scenario.dt_c();
    let mut compound = CompoundPlanner::basic(vec![scenario], CruisePlanner::reckless(&scenario));

    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut ego = VehicleState::new(0.0, 20.0, 0.0);
    let mut lead = VehicleState::new(initial_gap, rng.random_range(5.0..25.0), 0.0);
    let mut min_gap = lead.position - ego.position;
    for step in 0..4000u64 {
        let t = step as f64 * dt;
        min_gap = min_gap.min(lead.position - ego.position);
        if scenario.target_reached(t, &ego) {
            break;
        }
        let est = VehicleEstimate::exact(t, lead);
        let accel = compound.plan(t, &ego, &[est]).accel;
        ego = ego_limits.step(&ego, accel, dt);
        let lead_accel = match ambush_at {
            Some(at) if t >= at => lead_limits.a_min(),
            _ => rng.random_range(lead_limits.a_min()..=lead_limits.a_max()),
        };
        lead = lead_limits.step(&lead, lead_accel, dt);
    }
    min_gap
}

cv_rng::props! {
    fn gap_holds_under_random_lead_driving(
        cases = 24,
        seed in 0u64..10_000,
        initial_gap in 40.0..120.0f64,
    ) {
        let g = min_gap_shielded(seed, None, initial_gap);
        assert!(g >= 5.0, "gap violated: {g}");
    }
    fn gap_holds_under_brake_ambush(
        cases = 24,
        seed in 0u64..10_000,
        ambush_at in 0.5..8.0f64,
        initial_gap in 40.0..120.0f64,
    ) {
        let g = min_gap_shielded(seed, Some(ambush_at), initial_gap);
        assert!(g >= 5.0, "gap violated: {g}");
    }
}

#[test]
fn adaptive_cruise_is_smoother_than_reckless_under_the_shield() {
    // Comfort comparison: the ACC engages the emergency planner far less
    // than the reckless controller (which relies on the shield for all of
    // its braking).
    let scenario = CarFollowingScenario::highway_default().expect("valid scenario");
    let ego_limits = scenario.ego_limits();
    let lead_limits = scenario.lead_limits();
    let dt = scenario.dt_c();
    let run = |planner: CruisePlanner| {
        let mut compound = CompoundPlanner::basic(vec![scenario], planner);
        let (mut emergency_steps, mut steps) = (0u64, 0u64);
        let mut rng = SplitMix64::seed_from_u64(9);
        let mut ego = VehicleState::new(0.0, 20.0, 0.0);
        let mut lead = VehicleState::new(60.0, 15.0, 0.0);
        for step in 0..4000u64 {
            let t = step as f64 * dt;
            if scenario.target_reached(t, &ego) {
                break;
            }
            let est = VehicleEstimate::exact(t, lead);
            let decision = compound.plan(t, &ego, &[est]);
            steps += 1;
            emergency_steps += u64::from(decision.source == PlannerSource::Emergency);
            ego = ego_limits.step(&ego, decision.accel, dt);
            let a = rng.random_range(-1.0..1.0);
            lead = lead_limits.step(&lead, a, dt);
        }
        emergency_steps as f64 / steps as f64
    };
    let reckless = run(CruisePlanner::reckless(&scenario));
    let adaptive = run(CruisePlanner::adaptive(&scenario, 1.5));
    assert!(
        adaptive < reckless,
        "ACC {adaptive} should engage the shield less than reckless {reckless}"
    );
}
