//! Second scenario: same-lane car following with the paper's distance-gap
//! unsafe set (`X_u = {x | p_lead − p_0 < p_gap}`, Section II-A). A reckless
//! cruise controller is wrapped by the same compound-planner framework and
//! survives a lead-vehicle brake ambush.
//!
//! Run with: `cargo run --release --example car_following`

use car_following::{CarFollowingScenario, CruisePlanner};
use safe_cv::prelude::*;

fn closed_loop(shielded: bool) -> (f64, bool) {
    let scenario = CarFollowingScenario::highway_default().expect("valid scenario");
    let ego_limits = scenario.ego_limits();
    let lead_limits = scenario.lead_limits();
    let dt = scenario.dt_c();

    let reckless = CruisePlanner::reckless(&scenario);
    let mut compound = CompoundPlanner::basic(vec![scenario], reckless);
    let mut raw = reckless;

    // Perfect lead estimation for clarity (the estimation stack is
    // exercised by the left-turn experiments).
    let mut ego = VehicleState::new(0.0, 20.0, 0.0);
    let mut lead = VehicleState::new(60.0, 22.0, 0.0);
    let mut min_gap = f64::MAX;
    for step in 0..6000u64 {
        let t = step as f64 * dt;
        // The lead slams the brakes at t = 4 s and crawls from t = 10 s.
        let lead_accel = if t >= 4.0 && lead.velocity > 2.0 {
            lead_limits.a_min()
        } else {
            0.0
        };
        min_gap = min_gap.min(lead.position - ego.position);
        if scenario.collision(&ego, &lead) {
            return (min_gap, false);
        }
        if scenario.target_reached(t, &ego) {
            break;
        }
        let est = VehicleEstimate::exact(t, lead);
        let accel = if shielded {
            compound.plan(t, &ego, &[est]).accel
        } else {
            raw.plan(&Observation::new(t, ego, Some(est.position)))
        };
        ego = ego_limits.step(&ego, accel, dt);
        lead = lead_limits.step(&lead, lead_accel, dt);
    }
    (min_gap, true)
}

fn main() {
    println!("lead vehicle brake-ambushes at t = 4 s; p_gap = 5 m\n");
    let (gap_raw, ok_raw) = closed_loop(false);
    println!(
        "reckless cruise, unshielded: min gap {gap_raw:6.2} m — {}",
        if ok_raw {
            "survived (lucky)"
        } else {
            "REAR-ENDED the lead"
        }
    );
    let (gap_shielded, ok_shielded) = closed_loop(true);
    println!(
        "reckless cruise, shielded:   min gap {gap_shielded:6.2} m — {}",
        if ok_shielded {
            "gap held"
        } else {
            "rear-ended (bug!)"
        }
    );
    assert!(
        !ok_raw,
        "the ambush should defeat the unshielded controller"
    );
    assert!(
        ok_shielded && gap_shielded >= 5.0,
        "the shield must hold the gap"
    );
    println!("\nSame framework, different scenario — the Scenario trait carries all geometry.");
}
