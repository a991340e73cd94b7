//! Multi-vehicle extension: an unprotected left turn across a *platoon* of
//! oncoming vehicles. The paper's system model allows `n − 1` conflicting
//! vehicles; its evaluation uses one — this example exercises three.
//!
//! The runtime monitor checks every vehicle's passing window; the NN planner
//! sees the fused window of the earliest traffic cluster
//! (`safe_shield::merge_windows_in_place`).
//!
//! Run with: `cargo run --release --example platoon`

use safe_cv::prelude::*;
use safe_cv::sim::training::{train_planner, Personality, TrainSetup};
use safe_cv::sim::{DriverModel, OtherVehicle};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("training a small conservative NN planner...");
    let planner = train_planner(&TrainSetup::smoke(), Personality::Conservative)?;

    let mut cfg = EpisodeConfig::paper_default(21);
    cfg.comm = CommSetting::Delayed {
        delay: 0.25,
        drop_prob: 0.25,
    };
    // Two more oncoming vehicles, 8 m and 30 m behind the first: the first
    // pair forms one unusable cluster; the third leaves a usable gap.
    cfg.others.extend([
        OtherVehicle::new(
            60.0,
            10.0,
            DriverModel::OrnsteinUhlenbeck {
                theta: 0.5,
                sigma: 1.5,
            },
        ),
        OtherVehicle::new(82.0, 11.0, DriverModel::UniformRandom),
    ]);

    let spec = StackSpec::ultimate(planner, AggressiveConfig::default());
    let result = run_episode(&cfg, &spec, true)?;
    println!(
        "3-vehicle platoon: {} (η = {:+.3}, emergency {:.1}%)",
        result.outcome,
        result.eta,
        100.0 * result.emergency_frequency()
    );
    assert!(
        result.outcome.is_safe(),
        "the shield must hold for platoons"
    );

    // Show when each vehicle actually crossed the zone.
    let traces = result.traces.expect("traces requested");
    let scenarios = cfg.scenarios()?;
    for (i, (scenario, trajectory)) in scenarios.iter().zip(&traces.others).enumerate() {
        let inside: Vec<f64> = trajectory
            .iter()
            .filter(|s| {
                (scenario.other_entry()..=scenario.other_exit()).contains(&s.state.position)
            })
            .map(|s| s.time)
            .collect();
        match (inside.first(), inside.last()) {
            (Some(a), Some(b)) => {
                println!("  C{} occupied the zone during [{a:.2}, {b:.2}] s", i + 1)
            }
            _ => println!(
                "  C{} never entered the zone before the episode ended",
                i + 1
            ),
        }
    }
    if let Some(t) = result.outcome.reaching_time() {
        println!("  ego completed the turn at {t:.2} s — after the cluster, in the gap");
    }
    Ok(())
}
