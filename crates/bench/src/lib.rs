//! Shared experiment harness for regenerating the paper's tables & figures.
//!
//! Every binary in `src/bin/` (one per paper artifact) builds on these
//! helpers:
//!
//! * [`planners`] — loads (or trains once, cached under
//!   `target/planner-cache/<key>/`, keyed by the NN numerics and the
//!   training set-up) the conservative and aggressive NN planners.
//! * [`CommScenario`] — the three communication settings of Section V with
//!   the paper's parameters.
//! * [`evaluate_block`] / [`TableRow`] — run one (setting × planner-stack)
//!   cell of Tables I/II and format it like the paper.
//!
//! Binaries accept `--sims N` to scale the Monte-Carlo size (the paper used
//! 80,000 per setting; the default here is 2,000, which already stabilises
//! every qualitative ordering). [`parse_args`] reads every binary's command
//! line strictly: an unknown flag or a bad value is a usage error (exit code
//! 64), never a silent default.

use cv_comm::CommSetting;
use cv_planner::NnPlanner;
use cv_sensing::SensorNoise;
use cv_server::cli::{Args, UsageError, EXIT_USAGE};
use cv_sim::training::{load_or_train_planners, TrainSetup};
use cv_sim::{
    run_batch, winning_percentage, BatchConfig, BatchSummary, EpisodeConfig, KeyHasher, StackSpec,
    WindowKind,
};
use safe_shield::AggressiveConfig;
use std::path::PathBuf;

/// Directory used to cache trained planner weights between runs: the
/// workspace's `target/planner-cache/`, one subdirectory per NN numerics
/// tag and training set-up.
pub fn planner_cache_dir() -> PathBuf {
    // Keep the cache inside the workspace target dir so `cargo clean`
    // removes it.
    let mut dir = std::env::current_dir().expect("cwd");
    // Walk up to the workspace root (directory containing Cargo.toml with
    // [workspace]); fall back to cwd.
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.exists() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    break;
                }
            }
        }
        if !dir.pop() {
            dir = std::env::current_dir().expect("cwd");
            break;
        }
    }
    dir.join("target")
        .join("planner-cache")
        .join(planner_cache_key(cv_nn::NUMERICS, &TrainSetup::default()))
}

/// Name of the planner-cache subdirectory for weights trained under NN
/// numerics `numerics` (normally [`cv_nn::NUMERICS`]) with `setup`: a
/// digest of both, so a build whose `tanh` or kernels round differently,
/// or a different set-up, never loads weights another one trained.
fn planner_cache_key(numerics: &str, setup: &TrainSetup) -> String {
    let mut h = KeyHasher::new();
    h.write_str(numerics);
    h.write_str(&format!("{setup:?}"));
    let key = h.finish();
    format!("{:016x}{:016x}", key.hi, key.lo)
}

/// Loads (or trains and caches) the two NN planners of Section V-A:
/// `(κ_n,cons, κ_n,aggr)`.
pub fn planners() -> (NnPlanner, NnPlanner) {
    load_or_train_planners(&planner_cache_dir(), &TrainSetup::default())
        .expect("planner training must succeed")
}

/// The three communication settings of the paper's tables, with their
/// default parameters (`Δt_d = 0.25 s`; table cells use `p_d = 0.25` and
/// `δ = 2` as representative mid-sweep values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommScenario {
    /// Perfect communication.
    NoDisturbance,
    /// Messages delayed 0.25 s and dropped with probability 0.25.
    Delayed,
    /// All messages lost; sensing only, `δ = 2`.
    Lost,
}

impl CommScenario {
    /// All three, in table order.
    pub fn all() -> [CommScenario; 3] {
        [
            CommScenario::NoDisturbance,
            CommScenario::Delayed,
            CommScenario::Lost,
        ]
    }

    /// Table label.
    pub fn label(&self) -> &'static str {
        match self {
            CommScenario::NoDisturbance => "no disturbance",
            CommScenario::Delayed => "messages delayed",
            CommScenario::Lost => "messages lost",
        }
    }

    /// Applies the setting to an episode template.
    pub fn apply(&self, cfg: &mut EpisodeConfig) {
        match self {
            CommScenario::NoDisturbance => {
                cfg.comm = CommSetting::NoDisturbance;
                cfg.noise = SensorNoise::uniform(1.0);
            }
            CommScenario::Delayed => {
                cfg.comm = CommSetting::Delayed {
                    delay: 0.25,
                    drop_prob: 0.25,
                };
                cfg.noise = SensorNoise::uniform(1.0);
            }
            CommScenario::Lost => {
                cfg.comm = CommSetting::Lost;
                cfg.noise = SensorNoise::uniform(2.0);
            }
        }
    }
}

/// Planner personality (which NN is embedded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Conservative family (`Table I`).
    Conservative,
    /// Aggressive family (`Table II`).
    Aggressive,
}

impl Family {
    /// Window flavour the unshielded planner consumes.
    pub fn window_kind(&self) -> WindowKind {
        match self {
            Family::Conservative => WindowKind::Conservative,
            Family::Aggressive => WindowKind::Nominal,
        }
    }
}

/// The three stacks compared in each table block.
pub fn stacks_for(planner: &NnPlanner, family: Family) -> [(&'static str, StackSpec); 3] {
    [
        (
            "pure NN",
            StackSpec::PureNn {
                planner: planner.clone(),
                window: family.window_kind(),
            },
        ),
        ("basic", StackSpec::basic(planner.clone())),
        (
            "ultimate",
            StackSpec::ultimate(planner.clone(), AggressiveConfig::default()),
        ),
    ]
}

/// One row of Table I/II.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Communication setting label.
    pub setting: &'static str,
    /// Planner label.
    pub planner: &'static str,
    /// Summary statistics.
    pub summary: BatchSummary,
    /// Winning percentage of the ultimate planner against this row
    /// (`None` for the ultimate row itself).
    pub ultimate_wins: Option<f64>,
}

impl TableRow {
    /// Formats the row like the paper's tables.
    pub fn format(&self) -> String {
        let reaching = if self.summary.reaching_time.is_nan() {
            "   --  ".to_string()
        } else {
            format!("{:6.3}s", self.summary.reaching_time)
        };
        let winning = match self.ultimate_wins {
            Some(w) => format!("{:7.2}%", 100.0 * w),
            None => "     --".to_string(),
        };
        format!(
            "{:<18} {:<9} {} {:7.2}% {:8.3} {} {:7.2}%",
            self.setting,
            self.planner,
            reaching,
            100.0 * self.summary.safe_rate,
            self.summary.eta_mean,
            winning,
            100.0 * self.summary.emergency_frequency,
        )
    }
}

/// Table header matching [`TableRow::format`].
pub fn table_header() -> String {
    format!(
        "{:<18} {:<9} {:>7} {:>8} {:>8} {:>7} {:>8}",
        "settings", "planner", "reach", "safe", "eta", "win%", "emerg"
    )
}

/// Runs the three stacks of one family under one communication scenario and
/// returns the three paired table rows.
pub fn evaluate_block(
    planner: &NnPlanner,
    family: Family,
    scenario: CommScenario,
    sims: usize,
    base_seed: u64,
) -> Vec<TableRow> {
    let mut template = EpisodeConfig::paper_default(base_seed);
    scenario.apply(&mut template);
    let batch = BatchConfig::new(template, sims);

    let stacks = stacks_for(planner, family);
    let results: Vec<(usize, BatchSummary)> = stacks
        .iter()
        .enumerate()
        .map(|(i, (_, spec))| {
            (
                i,
                BatchSummary::from_results(&run_batch(&batch, spec).expect("valid batch")),
            )
        })
        .collect();
    let ultimate_etas = results[2].1.etas.clone();
    results
        .into_iter()
        .map(|(i, summary)| TableRow {
            setting: scenario.label(),
            planner: stacks[i].0,
            ultimate_wins: (i != 2).then(|| winning_percentage(&ultimate_etas, &summary.etas)),
            summary,
        })
        .collect()
}

/// Parses this process's command line strictly with [`Args`]: `valued`
/// flags take a value, `switches` take none, and `read` turns the parsed
/// line into the binary's settings. An unknown or repeated flag, a
/// positional argument, a value that does not parse, or a setting `read`
/// rejects prints the error beside `usage` and exits with [`EXIT_USAGE`]
/// before any planner is trained, so no experiment silently runs on a
/// default.
pub fn parse_args<T>(
    usage: &str,
    valued: &[&str],
    switches: &[&str],
    read: impl FnOnce(&Args) -> Result<T, UsageError>,
) -> T {
    Args::parse(std::env::args().skip(1), valued, switches)
        .and_then(|args| match args.positionals() {
            [] => read(&args),
            [extra, ..] => Err(UsageError(format!("unexpected argument '{extra}'"))),
        })
        .unwrap_or_else(|e| {
            eprintln!("{e}\n{usage}");
            std::process::exit(EXIT_USAGE);
        })
}

/// The `--panel` value: `all` when absent, otherwise one of `panels`.
///
/// # Errors
///
/// [`UsageError`] for any other panel name.
pub fn panel(args: &Args, panels: &[&str]) -> Result<String, UsageError> {
    let panel = args.get("--panel").unwrap_or("all");
    if panel == "all" || panels.contains(&panel) {
        Ok(panel.to_string())
    } else {
        Err(UsageError(format!("--panel: unknown panel '{panel}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_scenarios_configure_templates() {
        let mut cfg = EpisodeConfig::paper_default(0);
        CommScenario::Lost.apply(&mut cfg);
        assert_eq!(cfg.comm, CommSetting::Lost);
        assert_eq!(cfg.noise.delta_p, 2.0);
        CommScenario::Delayed.apply(&mut cfg);
        assert!(matches!(cfg.comm, CommSetting::Delayed { .. }));
    }

    #[test]
    fn planner_cache_key_follows_numerics_and_setup() {
        let setup = TrainSetup::default();
        let key = planner_cache_key(cv_nn::NUMERICS, &setup);
        assert_eq!(key, planner_cache_key(cv_nn::NUMERICS, &setup));
        assert_ne!(key, planner_cache_key("libm-tanh", &setup));
        let reseeded = TrainSetup {
            seed: setup.seed + 1,
            ..setup
        };
        assert_ne!(key, planner_cache_key(cv_nn::NUMERICS, &reseeded));
        assert!(planner_cache_dir().ends_with(&key));
    }

    #[test]
    fn panel_is_all_or_a_known_name() {
        let args = |line: &str| {
            Args::parse(line.split_whitespace().map(String::from), &["--panel"], &[]).unwrap()
        };
        assert_eq!(panel(&args(""), &["a", "b"]), Ok("all".to_string()));
        assert_eq!(panel(&args("--panel b"), &["a", "b"]), Ok("b".to_string()));
        assert_eq!(
            panel(&args("--panel g"), &["a", "b"]).unwrap_err().0,
            "--panel: unknown panel 'g'"
        );
    }

    #[test]
    fn header_and_rows_align() {
        let header = table_header();
        assert!(header.contains("reach"));
        assert!(header.contains("emerg"));
    }
}
