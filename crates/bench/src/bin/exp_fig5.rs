//! Regenerates **Figure 5**: the impact of communication disturbance on the
//! conservative planner family (`κ_n,cons`, `κ_cb,cons`, `κ_cu,cons`).
//!
//! * panels a/b — reaching time and emergency frequency vs the transmission
//!   time step `Δt_m = Δt_s`;
//! * panels c/d — vs the message drop probability `p_d` (with
//!   `Δt_d = 0.25 s`);
//! * panels e/f — vs the sensor uncertainty `δ` under "messages lost".
//!
//! Each sweep prints one row per x-value with the reaching time (panel
//! a/c/e) *and* the emergency frequency (panel b/d/f) of all three planners,
//! so one run regenerates both panels of a pair.
//!
//! Usage:
//! `cargo run --release -p bench --bin exp_fig5 [--panel a|c|e|all] [--sims N]`

use bench::{planners, stacks_for, Family};
use cv_comm::CommSetting;
use cv_sensing::SensorNoise;
use cv_sim::{run_batch, BatchConfig, BatchSummary, EpisodeConfig, StackSpec};

struct SweepPoint {
    x: f64,
    rows: Vec<(String, BatchSummary)>,
}

fn sweep(
    stacks: &[(&'static str, StackSpec)],
    sims: usize,
    seed: u64,
    xs: &[f64],
    configure: impl Fn(&mut EpisodeConfig, f64),
) -> Vec<SweepPoint> {
    xs.iter()
        .map(|&x| {
            let mut template = EpisodeConfig::paper_default(seed);
            configure(&mut template, x);
            let batch = BatchConfig::new(template, sims);
            let rows = stacks
                .iter()
                .map(|(label, spec)| {
                    (
                        label.to_string(),
                        BatchSummary::from_results(&run_batch(&batch, spec).expect("valid batch")),
                    )
                })
                .collect();
            SweepPoint { x, rows }
        })
        .collect()
}

fn print_sweep(title: &str, x_name: &str, points: &[SweepPoint]) {
    println!("\n{title}");
    print!("{x_name:>8}");
    for (label, _) in &points[0].rows {
        print!(
            " {:>10} {:>9}",
            format!("reach:{label}"),
            format!("emrg:{label}")
        );
    }
    println!();
    for p in points {
        print!("{:8.3}", p.x);
        for (_, s) in &p.rows {
            let reach = if s.reaching_time.is_nan() {
                "    --".to_string()
            } else {
                format!("{:9.3}s", s.reaching_time)
            };
            print!(" {reach} {:8.2}%", 100.0 * s.emergency_frequency);
        }
        println!();
    }
}

const USAGE: &str = "usage: exp_fig5 [--panel a|b|c|d|e|f|all] [--sims 300] [--seed 1]";

fn main() {
    let (sims, seed, panel): (usize, u64, String) =
        bench::parse_args(USAGE, &["--sims", "--seed", "--panel"], &[], |a| {
            let panel = bench::panel(a, &["a", "b", "c", "d", "e", "f"])?;
            Ok((a.value("--sims", 300)?, a.value("--seed", 1)?, panel))
        });
    eprintln!("training/loading planners...");
    let (cons, _) = planners();
    let stacks = stacks_for(&cons, Family::Conservative);

    if panel == "a" || panel == "b" || panel == "all" {
        // Fig. 5a/5b: transmission time step sweep (Δt_m = Δt_s).
        let xs: Vec<f64> = (1..=10).map(|i| 0.1 * i as f64).collect();
        let pts = sweep(&stacks, sims, seed, &xs, |cfg, x| {
            cfg.dt_m = x;
            cfg.dt_s = x;
            cfg.comm = CommSetting::NoDisturbance;
        });
        print_sweep(
            "FIG 5a/5b — reaching time & emergency frequency vs transmission time step",
            "dt_m[s]",
            &pts,
        );
    }
    if panel == "c" || panel == "d" || panel == "all" {
        // Fig. 5c/5d: drop probability sweep, Δt_d = 0.25 s.
        let xs: Vec<f64> = (0..20).map(|j| 0.05 * j as f64).collect();
        let pts = sweep(&stacks, sims, seed, &xs, |cfg, x| {
            cfg.comm = CommSetting::Delayed {
                delay: 0.25,
                drop_prob: x,
            };
        });
        print_sweep(
            "FIG 5c/5d — reaching time & emergency frequency vs message drop probability",
            "p_d",
            &pts,
        );
    }
    if panel == "e" || panel == "f" || panel == "all" {
        // Fig. 5e/5f: sensor uncertainty sweep under messages lost.
        let xs: Vec<f64> = (0..20).map(|j| 1.0 + 0.2 * j as f64).collect();
        let pts = sweep(&stacks, sims, seed, &xs, |cfg, x| {
            cfg.comm = CommSetting::Lost;
            cfg.noise = SensorNoise::uniform(x);
        });
        print_sweep(
            "FIG 5e/5f — reaching time & emergency frequency vs sensor uncertainty",
            "delta",
            &pts,
        );
    }
}
