//! The repository's benchmark: one command that runs a seeded workload
//! through the public entry points (`cv_sim::run_batch` /
//! `run_batch_lanes`, `cv_server::Server` + `Client`), checks the outputs,
//! and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload tables --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of a timed run, with times
//! scaled to a reference host speed (see `host`); `--trace 1` runs the
//! same workload with spans and prints the per-layer metrics.
//! `perfbench --prepare` only trains and caches the planners.
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0 for
//! a correct run, 1 for a failed check or error, 2 for a usage error.
//! `perfbench/METRICS.md` documents every metric.

mod gen;
mod host;
mod inproc;
mod layers;
mod profile;
mod report;
mod service;
mod stats;
mod trace;

use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::OnceLock;
use std::time::Duration;

use cv_planner::NnPlanner;
use cv_sim::training::{load_or_train_planners, TrainSetup};

const USAGE: &str = "usage: perfbench --workload <tables|tables-lanes|platoon|service> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>\n       \
                     perfbench --prepare";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Tables,
    TablesLanes,
    Platoon,
    Service,
}

impl Workload {
    fn from_name(name: &str) -> Option<Self> {
        match name {
            "tables" => Some(Self::Tables),
            "tables-lanes" => Some(Self::TablesLanes),
            "platoon" => Some(Self::Platoon),
            "service" => Some(Self::Service),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Tables => "tables",
            Self::TablesLanes => "tables-lanes",
            Self::Platoon => "platoon",
            Self::Service => "service",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            let bad = || format!("bad value '{value}' for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<u64>()
                            .ok()
                            .filter(|s| (1..=600).contains(s))
                            .ok_or_else(bad)?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }

    pub fn duration(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// Build and scratch directory: `$CARGO_TARGET_DIR` when set (relative
/// paths resolve against the checkout root the benchmark runs from),
/// `perfbench/target` otherwise.
pub fn work_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"))
}

/// The paper's two trained planners `(κ_n,cons, κ_n,aggr)`. The first
/// call for a build trains them (see [`prepare`]); later calls read the
/// cached weights.
pub fn planners() -> Result<(NnPlanner, NnPlanner), String> {
    let setup = TrainSetup::default();
    load_or_train_planners(&planner_dir(&setup)?, &setup)
        .map_err(|e| format!("planner training failed: {e}"))
}

/// Where the planners of this build are cached: a directory named by a
/// digest of the training set-up and of this executable, which holds the
/// training and network code. A rebuilt program never reads the weights
/// an older build trained.
fn planner_dir(setup: &TrainSetup) -> Result<PathBuf, String> {
    static DIR: OnceLock<Result<PathBuf, String>> = OnceLock::new();
    DIR.get_or_init(|| {
        let exe = std::env::current_exe()
            .and_then(std::fs::read)
            .map_err(|e| format!("cannot read the benchmark executable: {e}"))?;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!("{setup:?}").hash(&mut h);
        exe.hash(&mut h);
        Ok(work_dir().join(format!("perfbench-planners-{:016x}", h.finish())))
    })
    .clone()
}

/// The untimed prepare step: makes sure the planners of this build are
/// cached, training them on its first run. It runs in a child process
/// (`perfbench --prepare`), so that training's memory never counts in the
/// run's peak.
fn prepare() -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find the executable: {e}"))?;
    let status = Command::new(exe)
        .arg("--prepare")
        .status()
        .map_err(|e| format!("cannot start the prepare step: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("the prepare step failed ({status})"))
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw == ["--prepare"] {
        return match planners() {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(1)
            }
        };
    }
    let args = match Args::parse(raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = prepare() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(1);
    }
    let outcome = match args.workload {
        Workload::Service => service::run(&args),
        _ => inproc::run(&args),
    };
    match outcome {
        Ok(report) => {
            for p in &report.problems {
                eprintln!("perfbench: check failed: {p}");
            }
            println!("{}", report.json());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload tables-lanes --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::TablesLanes,
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(parse("--workload tables --seed 7 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload bogus --seed 7 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload tables --seed x --seconds 10 --trace 0").is_err());
        assert!(parse("--workload tables --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload tables --seed 1 --seconds 10 --trace 0 --fast 1").is_err());
        assert!(parse("--workload tables --seed 1 --seconds 10").is_err());
        assert!(parse("--workload").is_err());
    }
}
