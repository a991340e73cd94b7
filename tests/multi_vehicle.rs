//! Multi-vehicle extension tests: the safety guarantee must hold against
//! arbitrary platoons, and the merged-window planning must behave sensibly.

mod common;

use safe_cv::prelude::*;
use safe_cv::sim::{run_episode, DriverModel, OtherVehicle};

fn platoon_cfg(seed: u64, gaps: &[f64]) -> EpisodeConfig {
    let mut cfg = EpisodeConfig::paper_default(seed);
    cfg.comm = CommSetting::Delayed {
        delay: 0.25,
        drop_prob: 0.25,
    };
    let mut pos = cfg.others[0].start_shared;
    cfg.others.extend(gaps.iter().map(|gap| {
        pos += gap;
        OtherVehicle::new(pos, 10.0, DriverModel::UniformRandom)
    }));
    cfg
}

#[test]
fn shield_holds_for_two_vehicle_platoons() {
    let spec = StackSpec::ultimate(common::aggressive_nn(), AggressiveConfig::default());
    for seed in 0..25u64 {
        let cfg = platoon_cfg(seed, &[9.0]);
        let r = run_episode(&cfg, &spec, false).expect("valid episode");
        assert!(r.outcome.is_safe(), "seed {seed}: {:?}", r.outcome);
    }
}

#[test]
fn shield_holds_for_three_vehicle_platoons_with_mixed_drivers() {
    let spec = StackSpec::basic(common::aggressive_nn());
    for seed in 0..20u64 {
        let mut cfg = platoon_cfg(seed, &[8.0, 25.0]);
        cfg.others[1].driver = DriverModel::Ambush { brake_at: 2.5 };
        cfg.others[2].driver = DriverModel::OrnsteinUhlenbeck {
            theta: 0.5,
            sigma: 1.5,
        };
        let r = run_episode(&cfg, &spec, false).expect("valid episode");
        assert!(r.outcome.is_safe(), "seed {seed}: {:?}", r.outcome);
    }
}

#[test]
fn denser_traffic_never_speeds_up_the_crossing_on_average() {
    // Per-episode strict monotonicity is not guaranteed (the merged window
    // changes the NN's pacing profile nonlinearly), but waiting for a
    // trailing second car must cost time in the mean and can only beat the
    // single-car twin by pacing noise.
    let spec = StackSpec::ultimate(common::conservative_nn(), AggressiveConfig::default());
    let mut single_sum = 0.0;
    let mut platoon_sum = 0.0;
    let mut compared = 0;
    for seed in 0..10u64 {
        let single = run_episode(&platoon_cfg(seed, &[]), &spec, false).expect("episode");
        let platoon = run_episode(&platoon_cfg(seed, &[9.0]), &spec, false).expect("episode");
        assert!(platoon.outcome.is_safe());
        if let (Some(t1), Some(t2)) = (
            single.outcome.reaching_time(),
            platoon.outcome.reaching_time(),
        ) {
            compared += 1;
            single_sum += t1;
            platoon_sum += t2;
            assert!(
                t2 + 0.5 >= t1,
                "seed {seed}: platoon {t2} beat single {t1} by more than pacing noise"
            );
        }
    }
    assert!(compared >= 5, "not enough comparable episodes");
    assert!(
        platoon_sum >= single_sum,
        "platoon mean {} vs single mean {}",
        platoon_sum / compared as f64,
        single_sum / compared as f64
    );
}

#[test]
fn ego_waits_out_a_tight_cluster_and_uses_the_gap() {
    // Two cars 8 m apart (cluster), third far behind: the ego should cross
    // between the cluster and the third car.
    let spec = StackSpec::ultimate(common::conservative_nn(), AggressiveConfig::default());
    let cfg = platoon_cfg(3, &[8.0, 45.0]);
    let r = run_episode(&cfg, &spec, true).expect("valid episode");
    assert!(r.outcome.is_safe());
    let reach = r.outcome.reaching_time().expect("should reach");
    // Verify the crossing happened after the 2nd vehicle cleared but before
    // the 3rd arrived.
    let traces = r.traces.expect("traces requested");
    let scenarios = cfg.scenarios().expect("valid scenarios");
    let second_exit = traces.others[1]
        .iter()
        .filter(|s| s.state.position <= scenarios[1].other_exit())
        .map(|s| s.time)
        .next_back()
        .expect("second vehicle trace");
    let third_entry = traces.others[2]
        .iter()
        .filter(|s| s.state.position >= scenarios[2].other_entry())
        .map(|s| s.time)
        .next();
    assert!(
        reach >= second_exit - 0.5,
        "crossed before the cluster cleared: reach {reach}, exit {second_exit}"
    );
    if let Some(third) = third_entry {
        assert!(
            reach < third,
            "missed the gap: reach {reach}, third arrives {third}"
        );
    }
}
