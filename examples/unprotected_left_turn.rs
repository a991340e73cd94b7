//! The paper's case study, narrated: an unprotected left turn across random
//! oncoming traffic, with the compound planner's decisions traced step by
//! step.
//!
//! Run with: `cargo run --release --example unprotected_left_turn`

use safe_cv::prelude::*;
use safe_cv::sim::training::{train_planner, Personality, TrainSetup};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("training a small aggressive NN planner...");
    let planner = train_planner(&TrainSetup::smoke(), Personality::Aggressive)?;

    let mut cfg = EpisodeConfig::paper_default(7);
    cfg.comm = CommSetting::Delayed {
        delay: 0.25,
        drop_prob: 0.5,
    };
    let scenario = cfg.scenario()?;
    println!(
        "conflict zone on the ego axis: [{}, {}] m; C1 starts {} m down the road\n",
        scenario.geometry().p_f,
        scenario.geometry().p_b,
        cfg.others[0].start_shared
    );

    let spec = StackSpec::ultimate(planner, AggressiveConfig::default());
    let result = run_episode(&cfg, &spec, true)?;
    let traces = result.traces.as_ref().expect("traces requested");

    println!(
        "{:>6} {:>9} {:>8} {:>10} {:>9} {:>20}",
        "t[s]", "ego p[m]", "ego v", "C1 shared", "slack", "cons window"
    );
    for (ego, windows) in traces.iter_steps().step_by(10) {
        let c1_shared = cfg.others[0].start_shared
            - traces
                .primary_other()
                .sample_at(ego.time)
                .map(|s| s.state.position)
                .unwrap_or(0.0);
        let w = windows
            .conservative
            .map(|w| format!("[{:6.2}, {:6.2}]", w.lo(), w.hi()))
            .unwrap_or_else(|| "     (cleared)     ".to_string());
        println!(
            "{:6.2} {:9.2} {:8.2} {:10.2} {:9.2} {:>20}",
            ego.time,
            ego.state.position,
            ego.state.velocity,
            c1_shared,
            scenario.slack(&ego.state),
            w
        );
    }

    println!(
        "\noutcome: {} — η = {:+.3}, emergency frequency {:.1}%",
        result.outcome,
        result.eta,
        100.0 * result.emergency_frequency()
    );
    Ok(())
}

/// Extension trait pairing trajectory samples with window traces.
trait StepIter {
    fn iter_steps(
        &self,
    ) -> Box<dyn Iterator<Item = (&cv_dynamics::TrajectorySample, &cv_sim::WindowTrace)> + '_>;
}

impl StepIter for cv_sim::EpisodeTraces {
    fn iter_steps(
        &self,
    ) -> Box<dyn Iterator<Item = (&cv_dynamics::TrajectorySample, &cv_sim::WindowTrace)> + '_> {
        Box::new(self.ego.iter().zip(self.windows.iter()))
    }
}
