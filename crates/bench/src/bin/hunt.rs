//! Safety fuzzer: sweeps thousands of randomized episodes over every
//! communication setting, planner family, and compound configuration,
//! hunting for violations of the `η(κ_c) ≥ 0` guarantee. Prints a detailed
//! monitor trace for any failure it finds.
//!
//! Usage: `cargo run --release -p bench --bin hunt [--sims N]`

use cv_comm::CommSetting;
use cv_sensing::SensorNoise;
use cv_sim::{run_episode, BatchConfig, EpisodeConfig, StackSpec};
use safe_shield::{AggressiveConfig, Outcome, PlannerSource};

fn dump_trace(cfg: &EpisodeConfig, spec: &StackSpec) {
    let r = run_episode(cfg, spec, true).expect("valid episode");
    let tr = r.traces.expect("traces requested");
    let scenario = cfg.scenario().expect("valid scenario");
    let t_crash = match r.outcome {
        Outcome::Collision { time } => time,
        _ => cfg.horizon,
    };
    for ((e, o), (w, d)) in tr
        .ego
        .iter()
        .zip(tr.primary_other().iter())
        .zip(tr.windows.iter().zip(tr.decisions.iter()))
    {
        if e.time >= t_crash - 2.5 {
            let cw = w
                .conservative
                .map(|i| format!("[{:6.2},{:6.2}]", i.lo(), i.hi()))
                .unwrap_or_else(|| "--".into());
            let src = match d.source {
                PlannerSource::Emergency => "EMG",
                PlannerSource::NeuralNetwork => "nn ",
            };
            println!(
                "t={:.2} {src} a={:6.2} | ego p={:7.3} v={:6.3} slack={:8.3} cmt={} | C1={:7.3} v={:5.2} | cons={cw}",
                e.time,
                d.accel,
                e.state.position,
                e.state.velocity,
                scenario.slack(&e.state),
                scenario.is_committed(&e.state),
                o.state.position,
                o.state.velocity,
            );
        }
    }
}

const USAGE: &str = "usage: hunt [--sims 2000]";

fn main() {
    let sims: usize = bench::parse_args(USAGE, &["--sims"], &[], |a| a.value("--sims", 2000));
    let (cons, aggr) = bench::planners();
    let settings: [(&str, CommSetting, f64); 4] = [
        ("no-dist", CommSetting::NoDisturbance, 1.0),
        (
            "delayed",
            CommSetting::Delayed {
                delay: 0.25,
                drop_prob: 0.25,
            },
            1.0,
        ),
        (
            "heavy-drop",
            CommSetting::Delayed {
                delay: 0.5,
                drop_prob: 0.9,
            },
            2.0,
        ),
        ("lost", CommSetting::Lost, 3.0),
    ];
    let mut violations = 0usize;
    for (nn_name, nn) in [("cons", &cons), ("aggr", &aggr)] {
        for (stack_name, spec) in [
            ("basic", StackSpec::basic(nn.clone())),
            (
                "ultimate",
                StackSpec::ultimate(nn.clone(), AggressiveConfig::default()),
            ),
            (
                "zero-buffers",
                StackSpec::ultimate(nn.clone(), AggressiveConfig::new(0.0, 0.0)),
            ),
        ] {
            for (setting_name, comm, delta) in &settings {
                let mut template = EpisodeConfig::paper_default(1);
                template.comm = *comm;
                template.noise = SensorNoise::uniform(*delta);
                let batch = BatchConfig::new(template, sims);
                let mut bad = 0usize;
                for i in 0..sims {
                    let cfg = batch.episode(i);
                    let r = run_episode(&cfg, &spec, false).expect("valid episode");
                    if !r.outcome.is_safe() {
                        bad += 1;
                        violations += 1;
                        println!(
                            "VIOLATION {nn_name}/{stack_name}/{setting_name} idx {i} seed {} start {}: {:?}",
                            cfg.seed, cfg.others[0].start_shared, r.outcome
                        );
                        if bad == 1 {
                            dump_trace(&cfg, &spec);
                        }
                    }
                }
                println!(
                    "{nn_name:<5} {stack_name:<12} {setting_name:<10}: {sims} episodes, {bad} violations"
                );
            }
        }
    }
    if violations == 0 {
        println!("\nall clean — the shield held everywhere");
    } else {
        println!("\n{violations} VIOLATIONS FOUND");
        std::process::exit(1);
    }
}
