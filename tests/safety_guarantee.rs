//! The paper's central claim (Section III-E): the compound planner never
//! enters the unsafe set — `η(κ_c) ≥ 0` — for *any* embedded planner, under
//! *any* communication disturbance. These tests hammer that guarantee.

mod common;

use safe_cv::prelude::*;
use safe_cv::sim::run_episode;

fn assert_batch_safe(spec: &StackSpec, mutate: impl Fn(&mut EpisodeConfig), n: u64, tag: &str) {
    for seed in 0..n {
        let mut cfg = EpisodeConfig::paper_default(seed);
        cfg.others[0].start_shared = 50.5 + 0.5 * (seed % 20) as f64;
        mutate(&mut cfg);
        let r = run_episode(&cfg, spec, false).expect("valid episode");
        assert!(
            r.outcome.is_safe(),
            "{tag}: collision with seed {seed} ({:?})",
            r.outcome
        );
        assert!(r.eta >= 0.0, "{tag}: η < 0 with seed {seed}");
    }
}

#[test]
fn basic_compound_with_aggressive_nn_is_always_safe_no_disturbance() {
    let spec = StackSpec::basic(common::aggressive_nn());
    assert_batch_safe(&spec, |_| {}, 40, "basic/no-dist");
}

#[test]
fn ultimate_compound_with_aggressive_nn_is_always_safe_under_delay_and_drops() {
    let spec = StackSpec::ultimate(common::aggressive_nn(), AggressiveConfig::default());
    assert_batch_safe(
        &spec,
        |cfg| {
            cfg.comm = CommSetting::Delayed {
                delay: 0.25,
                drop_prob: 0.5,
            };
        },
        40,
        "ultimate/delayed",
    );
}

#[test]
fn ultimate_compound_is_safe_with_messages_lost_and_heavy_noise() {
    let spec = StackSpec::ultimate(common::aggressive_nn(), AggressiveConfig::default());
    assert_batch_safe(
        &spec,
        |cfg| {
            cfg.comm = CommSetting::Lost;
            cfg.noise = SensorNoise::uniform(4.8); // worst point of Fig. 5e
        },
        40,
        "ultimate/lost",
    );
}

#[test]
fn compound_is_safe_with_extreme_transmission_periods() {
    let spec = StackSpec::basic(common::conservative_nn());
    assert_batch_safe(
        &spec,
        |cfg| {
            cfg.dt_m = 1.0; // worst point of Fig. 5a
            cfg.dt_s = 1.0;
            cfg.comm = CommSetting::Delayed {
                delay: 0.25,
                drop_prob: 0.25,
            };
        },
        30,
        "basic/slow-comm",
    );
}

#[test]
fn compound_is_safe_with_tiny_aggressive_buffers() {
    // Zero buffers make the aggressive window maximally optimistic; the
    // monitor must still hold the line.
    let spec = StackSpec::ultimate(common::aggressive_nn(), AggressiveConfig::new(0.0, 0.0));
    assert_batch_safe(
        &spec,
        |cfg| {
            cfg.comm = CommSetting::Delayed {
                delay: 0.25,
                drop_prob: 0.75,
            };
        },
        40,
        "ultimate/zero-buffers",
    );
}

/// The guarantee is planner-agnostic: a hand-written hostile planner that
/// always floors it must also be contained (cf. `examples/custom_planner`).
#[test]
fn shield_contains_a_hostile_planner() {
    struct Hostile;
    impl Planner for Hostile {
        fn plan(&mut self, _obs: &Observation) -> f64 {
            f64::MAX
        }
    }

    for seed in 0..30u64 {
        let cfg = EpisodeConfig::paper_default(seed);
        let scenario = cfg.scenario().expect("valid scenario");
        let ego_limits = scenario.ego_limits();
        let other_limits = scenario.other_limits();
        let mut compound = CompoundPlanner::basic(vec![scenario], Hostile);
        let mut estimator = InformationFilter::new(
            other_limits,
            cfg.noise,
            FilterMode::HardOnly,
            Prior::exact(0.0, 0.0, cfg.others[0].init_speed),
        );
        let mut ego = cfg.ego_init;
        let mut other = VehicleState::new(0.0, cfg.others[0].init_speed, 0.0);
        let mut sensor = UniformNoiseSensor::new(cfg.noise, cfg.seed_sensor_for(0));
        let mut rng = cv_rng::SplitMix64::seed_from_u64(cfg.seed_driving_for(0));
        for step in 0..(cfg.horizon / cfg.dt_c) as u64 {
            use cv_rng::Rng as _;
            let t = step as f64 * cfg.dt_c;
            if step % 2 == 0 {
                estimator.on_measurement(&sensor.measure(1, t, &other));
            }
            assert!(
                !scenario.collision(&ego, &other),
                "hostile planner broke through with seed {seed} at t = {t:.2}"
            );
            if scenario.target_reached(t, &ego) {
                break;
            }
            let d = compound.plan(t, &ego, &[estimator.estimate(t)]);
            ego = ego_limits.step(&ego, d.accel, cfg.dt_c);
            let a1 = rng.random_range(other_limits.a_min()..=other_limits.a_max());
            other = other_limits.step(&other, a1, cfg.dt_c);
        }
    }
}
