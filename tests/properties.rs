//! Workspace-level property tests: the safety guarantee and estimator
//! soundness under randomly drawn disturbance parameters.

mod common;
use safe_cv::prelude::*;
use safe_cv::sim::run_episode;

cv_rng::props! {
    /// η(κ_c) ≥ 0 for the ultimate compound planner under arbitrary
    /// delay/drop/noise/start combinations.
    fn ultimate_compound_never_collides(
        cases = 24,
        seed in 0u64..10_000,
        drop_prob in 0.0..0.95f64,
        delay in 0.0..0.5f64,
        delta in 0.5..4.8f64,
        start_idx in 0usize..20,
    ) {
        let mut cfg = EpisodeConfig::paper_default(seed);
        cfg.comm = CommSetting::Delayed { delay, drop_prob };
        cfg.noise = SensorNoise::uniform(delta);
        cfg.others[0].start_shared = 50.5 + 0.5 * start_idx as f64;
        let spec = StackSpec::ultimate(common::aggressive_nn(), AggressiveConfig::default());
        let r = run_episode(&cfg, &spec, false).expect("valid episode");
        assert!(r.outcome.is_safe(), "collision: {:?}", r.outcome);
        assert!(r.eta >= 0.0);
    }

    /// Same guarantee with messages entirely lost and arbitrary sensing
    /// noise/periods.
    fn basic_compound_never_collides_on_sensing_alone(
        cases = 24,
        seed in 0u64..10_000,
        delta in 0.5..4.8f64,
        sense_steps in 1u64..10,
    ) {
        let mut cfg = EpisodeConfig::paper_default(seed);
        cfg.comm = CommSetting::Lost;
        cfg.noise = SensorNoise::uniform(delta);
        cfg.dt_s = 0.1 * sense_steps as f64;
        cfg.dt_m = cfg.dt_s;
        let spec = StackSpec::basic(common::aggressive_nn());
        let r = run_episode(&cfg, &spec, false).expect("valid episode");
        assert!(r.outcome.is_safe(), "collision: {:?}", r.outcome);
    }

    /// Episodes are exactly reproducible from their configuration.
    fn episodes_are_deterministic(cases = 24, seed in 0u64..1_000) {
        let cfg = EpisodeConfig::paper_default(seed);
        let spec = StackSpec::pure_teacher_conservative(&cfg).expect("valid scenario");
        let a = run_episode(&cfg, &spec, false).expect("episode a");
        let b = run_episode(&cfg, &spec, false).expect("episode b");
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.emergency_steps, b.emergency_steps);
        assert_eq!(a.total_steps, b.total_steps);
    }
}
