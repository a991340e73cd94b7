//! The framework wraps *any* planner — even a hostile one. This example
//! implements the `Planner` trait by hand with a deliberately reckless
//! policy (always full throttle) and shows the compound planner still
//! guarantees safety.
//!
//! Run with: `cargo run --release --example custom_planner`

use safe_cv::prelude::*;

/// A planner that floors it, no matter what it sees.
struct FullThrottle;

impl Planner for FullThrottle {
    fn plan(&mut self, _obs: &Observation) -> f64 {
        f64::INFINITY // the framework clamps to the ego limits
    }

    fn name(&self) -> &str {
        "full-throttle"
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = EpisodeConfig::paper_default(3);
    // The one conflicting vehicle `C_1` of the paper's evaluation.
    let c1 = cfg.others[0];
    let scenario = cfg.scenario()?;
    let ego_limits = scenario.ego_limits();
    let other_limits = scenario.other_limits();

    // Drive the compound planner manually (the batch runner wants NN
    // planners; a hand-rolled loop shows the raw framework API).
    let mut compound = CompoundPlanner::basic(vec![scenario], FullThrottle);
    let mut estimator = InformationFilter::new(
        other_limits,
        cfg.noise,
        FilterMode::HardOnly,
        Prior::exact(0.0, 0.0, c1.init_speed),
    );

    let mut ego = cfg.ego_init;
    let mut other = VehicleState::new(0.0, c1.init_speed, 0.0);
    let mut channel = cfg.effective_comm(0).channel(cfg.seed_channel_for(0));
    let mut sensor = UniformNoiseSensor::new(cfg.noise, cfg.seed_sensor_for(0));
    let mut rng = cv_rng::SplitMix64::seed_from_u64(cfg.seed_driving_for(0));

    let dt = cfg.dt_c;
    let mut collided = false;
    let mut reached = None;
    let (mut emergency_steps, mut steps) = (0u64, 0u64);
    for step in 0..(cfg.horizon / dt) as u64 {
        use cv_rng::Rng as _;
        let t = step as f64 * dt;
        if step % 2 == 0 {
            channel.send(Message::from_state(1, t, &other), t);
            for m in channel.receive(t) {
                estimator.on_message(&m);
            }
            estimator.on_measurement(&sensor.measure(1, t, &other));
        }
        if scenario.collision(&ego, &other) {
            collided = true;
            break;
        }
        if scenario.target_reached(t, &ego) {
            reached = Some(t);
            break;
        }
        let decision = compound.plan(t, &ego, &[estimator.estimate(t)]);
        steps += 1;
        emergency_steps += u64::from(decision.source == PlannerSource::Emergency);
        ego = ego_limits.step(&ego, decision.accel, dt);
        let a1 = rng.random_range(other_limits.a_min()..=other_limits.a_max());
        other = other_limits.step(&other, a1, dt);
    }

    println!("planner: always-full-throttle (reckless by construction)");
    println!("collided: {collided}");
    match reached {
        Some(t) => println!("reached the target at t = {t:.2} s"),
        None => println!("did not reach the target within the horizon"),
    }
    println!(
        "emergency engaged on {:.1}% of steps — the shield did the driving where it had to",
        100.0 * emergency_steps as f64 / steps as f64
    );
    assert!(!collided, "the shield must keep even this planner safe");
    Ok(())
}
