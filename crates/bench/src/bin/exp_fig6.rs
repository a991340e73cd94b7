//! Regenerates **Figure 6**: effectiveness of the information filter and of
//! the aggressive unsafe-set estimation.
//!
//! * panel a — measured vs filtered velocity of `C_1` along one sensing-only
//!   episode, plus the RMSE reduction of position/velocity estimates over
//!   200 sampled trajectories (the paper reports −69 % / −76 %);
//! * panel b — conservative (Eq. 7) vs aggressive (Eq. 8) passing-window
//!   estimates along one episode, against `C_1`'s *actual* passing times.
//!
//! Usage: `cargo run --release -p bench --bin exp_fig6 [--panel a|b|all]`

use cv_dynamics::{VehicleLimits, VehicleState};
use cv_estimation::TrackingFilter;
use cv_rng::{Rng, SplitMix64};
use cv_sensing::{Measurement, SensorNoise, UniformNoiseSensor};
use cv_sim::{run_episode, EpisodeConfig, StackSpec};
use safe_shield::AggressiveConfig;

/// Simulates one random `C_1` trajectory and returns per-sensing-period
/// `(t, truth, measurement, filtered)` samples.
fn filter_run(
    seed: u64,
    delta: f64,
    duration: f64,
) -> Vec<(f64, VehicleState, Measurement, (f64, f64))> {
    let limits = VehicleLimits::new(3.0, 14.0, -3.0, 3.0).expect("valid limits");
    let dt_c = 0.05;
    let dt_s = 0.1;
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut sensor = UniformNoiseSensor::new(SensorNoise::uniform(delta), seed ^ 0xABCD);
    let mut truth = VehicleState::new(0.0, 10.0, 0.0);
    let half_range = 0.5 * (limits.a_max() - limits.a_min());
    let mut filter = TrackingFilter::new(SensorNoise::uniform(delta), 0.0, 0.0, 10.0)
        .with_process_accel_var(half_range * half_range / 3.0);
    let mut out = Vec::new();
    let steps = (duration / dt_c).round() as usize;
    for step in 0..=steps {
        let t = step as f64 * dt_c;
        if step % ((dt_s / dt_c).round() as usize) == 0 {
            let m = sensor.measure(1, t, &truth);
            filter.on_measurement(&m);
            let (mean, _) = filter.predicted(t);
            out.push((t, truth, m, (mean.x, mean.y)));
        }
        let a = rng.random_range(limits.a_min()..=limits.a_max());
        truth = limits.step(&truth, a, dt_c);
    }
    out
}

fn panel_a() {
    println!("\nFIG 6a — sensor-measured vs filtered velocity (one sensing-only episode, δ = 2)");
    println!(
        "{:>6} {:>10} {:>10} {:>10}",
        "t[s]", "true v", "measured v", "filtered v"
    );
    for (t, truth, meas, (_, v_filt)) in filter_run(7, 2.0, 8.0) {
        if (t * 10.0).round() as i64 % 5 == 0 {
            println!(
                "{t:6.2} {:10.3} {:10.3} {:10.3}",
                truth.velocity, meas.velocity, v_filt
            );
        }
    }

    // RMSE reduction over 200 sampled trajectories (paper: −69 % position,
    // −76 % velocity).
    let trajectories = 200;
    let (mut raw_p, mut raw_v, mut fil_p, mut fil_v) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut tru_p, mut tru_v) = (Vec::new(), Vec::new());
    for seed in 0..trajectories {
        for (_, truth, meas, (p_f, v_f)) in filter_run(1000 + seed, 2.0, 8.0) {
            tru_p.push(truth.position);
            tru_v.push(truth.velocity);
            raw_p.push(meas.position);
            raw_v.push(meas.velocity);
            fil_p.push(p_f);
            fil_v.push(v_f);
        }
    }
    let rmse_raw_p = cv_sim::rmse(&raw_p, &tru_p);
    let rmse_fil_p = cv_sim::rmse(&fil_p, &tru_p);
    let rmse_raw_v = cv_sim::rmse(&raw_v, &tru_v);
    let rmse_fil_v = cv_sim::rmse(&fil_v, &tru_v);
    println!("\nRMSE over {trajectories} trajectories (paper: −69% position, −76% velocity):");
    println!(
        "  position: raw {rmse_raw_p:.3} m  -> filtered {rmse_fil_p:.3} m  ({:+.1}%)",
        100.0 * (rmse_fil_p / rmse_raw_p - 1.0)
    );
    println!(
        "  velocity: raw {rmse_raw_v:.3} m/s -> filtered {rmse_fil_v:.3} m/s ({:+.1}%)",
        100.0 * (rmse_fil_v / rmse_raw_v - 1.0)
    );
}

fn panel_b() {
    println!("\nFIG 6b — conservative vs aggressive passing-window estimates (one episode)");
    let mut cfg = EpisodeConfig::paper_default(11);
    cfg.comm = cv_comm::CommSetting::Delayed {
        delay: 0.25,
        drop_prob: 0.25,
    };
    let (_, aggr_planner) = bench::planners();
    let spec = StackSpec::ultimate(aggr_planner, AggressiveConfig::default());
    let result = run_episode(&cfg, &spec, true).expect("valid episode");
    let traces = result.traces.expect("traces requested");

    // C1's actual occupancy of the conflict zone.
    let scenario = cfg.scenario().expect("valid scenario");
    let inside: Vec<f64> = traces
        .primary_other()
        .iter()
        .filter(|s| (scenario.other_entry()..=scenario.other_exit()).contains(&s.state.position))
        .map(|s| s.time)
        .collect();
    match (inside.first(), inside.last()) {
        (Some(first), Some(last)) => {
            println!("actual passing window of C1: [{first:.2}, {last:.2}] s")
        }
        _ => println!("C1 did not enter the zone during the episode"),
    }

    println!(
        "{:>6} {:>9} {:>9} {:>9} {:>9}",
        "t[s]", "cons.lo", "cons.hi", "aggr.lo", "aggr.hi"
    );
    for w in traces
        .windows
        .iter()
        .filter(|w| (w.time * 10.0).round() as i64 % 5 == 0)
    {
        let fmt = |i: Option<cv_estimation::Interval>, hi: bool| match i {
            Some(iv) => format!("{:9.2}", if hi { iv.hi() } else { iv.lo() }),
            None => "       --".to_string(),
        };
        println!(
            "{:6.2} {} {} {} {}",
            w.time,
            fmt(w.conservative, false),
            fmt(w.conservative, true),
            fmt(w.aggressive, false),
            fmt(w.aggressive, true),
        );
    }
    println!("(outcome: {})", result.outcome);
}

const USAGE: &str = "usage: exp_fig6 [--panel a|b|all]";

fn main() {
    let panel = bench::parse_args(USAGE, &["--panel"], &[], |a| bench::panel(a, &["a", "b"]));
    if panel == "a" || panel == "all" {
        panel_a();
    }
    if panel == "b" || panel == "all" {
        panel_b();
    }
}
