//! Ablation study (DESIGN.md A1/A2): which of the ultimate compound
//! planner's two techniques — the Kalman information filter and the
//! aggressive unsafe-set estimation — contributes what.
//!
//! * A1: basic → +filter-only → +aggressive-only → ultimate, under the three
//!   communication settings (conservative family).
//! * A2 (`--buffers`): sensitivity of the ultimate planner to the
//!   `a_buf`/`v_buf` buffers of paper Eq. 8.
//!
//! Usage: `cargo run --release -p bench --bin exp_ablation [--sims N] [--buffers]`

use bench::{planners, CommScenario};
use cv_estimation::FilterMode;
use cv_sim::{run_batch, BatchConfig, BatchSummary, EpisodeConfig, StackSpec};
use safe_shield::{AggressiveConfig, WindowSource};

fn summarise(spec: &StackSpec, scenario: CommScenario, sims: usize, seed: u64) -> BatchSummary {
    let mut template = EpisodeConfig::paper_default(seed);
    scenario.apply(&mut template);
    let batch = BatchConfig::new(template, sims);
    BatchSummary::from_results(&run_batch(&batch, spec).expect("valid batch"))
}

const USAGE: &str = "usage: exp_ablation [--sims 500] [--seed 1] [--buffers]";

fn main() {
    let (sims, seed, buffers): (usize, u64, bool) =
        bench::parse_args(USAGE, &["--sims", "--seed"], &["--buffers"], |a| {
            Ok((
                a.value("--sims", 500)?,
                a.value("--seed", 1)?,
                a.has("--buffers"),
            ))
        });
    eprintln!("training/loading planners...");
    let (cons, _) = planners();

    if buffers {
        println!("\nABLATION A2 — buffer sensitivity of the ultimate planner (no disturbance)");
        println!(
            "{:>6} {:>6} {:>8} {:>8} {:>8}",
            "a_buf", "v_buf", "reach", "safe", "emerg"
        );
        for (a_buf, v_buf) in [(0.25, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, 4.0), (3.0, 6.0)] {
            let spec = StackSpec::ultimate(cons.clone(), AggressiveConfig::new(a_buf, v_buf));
            let s = summarise(&spec, CommScenario::NoDisturbance, sims, seed);
            println!(
                "{a_buf:6.2} {v_buf:6.2} {:7.3}s {:7.2}% {:7.2}%",
                s.reaching_time,
                100.0 * s.safe_rate,
                100.0 * s.emergency_frequency
            );
        }
        return;
    }

    println!("\nABLATION A1 — contribution of each technique (conservative family, {sims} sims)");
    let variants: [(&str, StackSpec); 4] = [
        ("basic (neither)", StackSpec::basic(cons.clone())),
        (
            "+filter only",
            StackSpec::Compound {
                planner: cons.clone(),
                filter_mode: FilterMode::Fused,
                window_source: WindowSource::Conservative,
            },
        ),
        (
            "+aggressive only",
            StackSpec::Compound {
                planner: cons.clone(),
                filter_mode: FilterMode::HardOnly,
                window_source: WindowSource::Aggressive(AggressiveConfig::default()),
            },
        ),
        (
            "ultimate (both)",
            StackSpec::ultimate(cons.clone(), AggressiveConfig::default()),
        ),
    ];
    println!(
        "{:<18} {:<18} {:>8} {:>8} {:>8} {:>8}",
        "settings", "variant", "reach", "safe", "eta", "emerg"
    );
    for scenario in CommScenario::all() {
        for (label, spec) in &variants {
            let s = summarise(spec, scenario, sims, seed);
            println!(
                "{:<18} {:<18} {:7.3}s {:7.2}% {:8.3} {:7.2}%",
                scenario.label(),
                label,
                s.reaching_time,
                100.0 * s.safe_rate,
                s.eta_mean,
                100.0 * s.emergency_frequency
            );
        }
    }
}
