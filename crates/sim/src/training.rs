//! Behaviour-cloning pipeline: teacher rollouts → datasets → NN planners.
//!
//! The paper trains `κ_n,cons` and `κ_n,aggr` with the learning method of
//! its ref. \[6\]; per the substitution in `DESIGN.md`, we clone two analytic
//! [`cv_planner::TeacherPolicy`] presets instead. Rollouts run closed-loop under a mix
//! of communication settings so the NN sees the windows it will face at
//! deployment time.

use std::path::Path;

use cv_comm::CommSetting;
use cv_planner::{clone_behaviour, CloneConfig, Dataset, FeatureScaling, NnPlanner};
use cv_rng::{Rng, SplitMix64};
use safe_shield::{Observation, Scenario};

use crate::{run_episode, EpisodeConfig, SimError, StackSpec, WindowKind};

/// Training-pipeline errors.
#[derive(Debug)]
pub enum TrainError {
    /// Episode simulation failed.
    Sim(SimError),
    /// Network training failed.
    Nn(cv_nn::NnError),
    /// Reading/writing cached planner weights failed.
    Io(std::io::Error),
    /// A cached planner file was unparseable.
    Parse(String),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Sim(e) => write!(f, "simulation failed: {e}"),
            TrainError::Nn(e) => write!(f, "training failed: {e}"),
            TrainError::Io(e) => write!(f, "planner cache I/O failed: {e}"),
            TrainError::Parse(e) => write!(f, "cannot parse cached planner: {e}"),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<SimError> for TrainError {
    fn from(e: SimError) -> Self {
        TrainError::Sim(e)
    }
}

impl From<left_turn::ScenarioError> for TrainError {
    fn from(e: left_turn::ScenarioError) -> Self {
        TrainError::Sim(SimError::from(e))
    }
}

impl From<cv_nn::NnError> for TrainError {
    fn from(e: cv_nn::NnError) -> Self {
        TrainError::Nn(e)
    }
}

impl From<std::io::Error> for TrainError {
    fn from(e: std::io::Error) -> Self {
        TrainError::Io(e)
    }
}

/// Hyperparameters of the full training pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainSetup {
    /// Closed-loop teacher rollouts per planner.
    pub rollout_episodes: usize,
    /// Master seed.
    pub seed: u64,
    /// Behaviour-cloning hyperparameters.
    pub clone: CloneConfig,
}

impl Default for TrainSetup {
    fn default() -> Self {
        Self {
            rollout_episodes: 240,
            seed: 7,
            clone: CloneConfig::default(),
        }
    }
}

impl TrainSetup {
    /// A tiny setup for unit tests (seconds instead of minutes in debug
    /// builds; the resulting planners are crude but functional).
    pub fn smoke() -> Self {
        Self {
            rollout_episodes: 24,
            seed: 7,
            clone: CloneConfig {
                epochs: 15,
                ..CloneConfig::default()
            },
        }
    }
}

/// Which planner personality to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Personality {
    /// Clone of [`cv_planner::TeacherPolicy::conservative`] on Eq. 7 windows.
    Conservative,
    /// Clone of [`cv_planner::TeacherPolicy::aggressive`] on optimistic windows.
    Aggressive,
}

impl Personality {
    fn window_kind(&self) -> WindowKind {
        match self {
            Personality::Conservative => WindowKind::Conservative,
            Personality::Aggressive => WindowKind::Nominal,
        }
    }

    fn planner_name(&self) -> &'static str {
        match self {
            Personality::Conservative => "kappa_n_cons",
            Personality::Aggressive => "kappa_n_aggr",
        }
    }

    fn file_name(&self) -> &'static str {
        match self {
            Personality::Conservative => "kappa_n_cons.nnp",
            Personality::Aggressive => "kappa_n_aggr.nnp",
        }
    }
}

/// Rolls out the teacher closed-loop and collects `(observation, accel)`
/// pairs, cycling communication settings and initial positions for coverage.
///
/// # Errors
///
/// Returns [`TrainError::Sim`] if an episode configuration is invalid.
pub fn collect_teacher_dataset(
    setup: &TrainSetup,
    personality: Personality,
) -> Result<Dataset, TrainError> {
    let comm_mix = [
        CommSetting::NoDisturbance,
        CommSetting::Delayed {
            delay: 0.25,
            drop_prob: 0.25,
        },
        CommSetting::Lost,
    ];
    let starts = EpisodeConfig::paper_start_grid();
    let mut vary_rng = SplitMix64::seed_from_u64(setup.seed ^ 0xDA7A);
    let mut data = Dataset::new();

    for ep in 0..setup.rollout_episodes {
        let mut cfg = EpisodeConfig::paper_default(setup.seed.wrapping_add(ep as u64));
        cfg.comm = comm_mix[ep % comm_mix.len()];
        cfg.others[0].start_shared = starts[ep % starts.len()];
        // Randomise the start state a little so the clone generalises.
        cfg.ego_init.velocity = vary_rng.random_range(5.0..10.0);
        cfg.ego_init.position = -30.0 + vary_rng.random_range(-3.0..3.0);
        cfg.others[0].init_speed = vary_rng.random_range(8.0..12.0);
        rollout_into(&cfg, personality, &mut data)?;
    }
    Ok(data)
}

/// Rolls out one teacher episode on the episode stepper with traces,
/// appending one `(observation, teacher acceleration)` sample per planned
/// step to `data`.
fn rollout_into(
    cfg: &EpisodeConfig,
    personality: Personality,
    data: &mut Dataset,
) -> Result<(), TrainError> {
    let spec = match personality {
        Personality::Conservative => StackSpec::pure_teacher_conservative(cfg)?,
        Personality::Aggressive => StackSpec::pure_teacher_aggressive(cfg)?,
    };
    let scenario = cfg.scenario()?;
    let traces = run_episode(cfg, &spec, true)?
        .traces
        .expect("traces were requested");
    let steps = traces
        .ego
        .iter()
        .zip(&traces.estimates)
        .zip(&traces.decisions);
    for ((ego, (t, est)), decision) in steps {
        // The window the teacher planned on, from the estimate it saw.
        let window = match personality.window_kind() {
            WindowKind::Conservative => scenario.conservative_window(*t, est),
            WindowKind::Nominal => scenario.nominal_window(*t, est),
        };
        data.push(Observation::new(*t, ego.state, window), decision.accel);
    }
    Ok(())
}

/// Trains one planner personality from scratch.
///
/// # Errors
///
/// Returns a [`TrainError`] if rollout or fitting fails.
pub fn train_planner(
    setup: &TrainSetup,
    personality: Personality,
) -> Result<NnPlanner, TrainError> {
    let data = collect_teacher_dataset(setup, personality)?;
    let scenario = EpisodeConfig::paper_default(0).scenario()?;
    let (planner, _loss) = clone_behaviour(
        &data,
        scenario.ego_limits(),
        FeatureScaling::left_turn(),
        CloneConfig {
            seed: setup.seed,
            ..setup.clone
        },
        personality.planner_name(),
    )?;
    Ok(planner)
}

/// Trains (or loads from `cache_dir`) the paper's two NN planners,
/// `(κ_n,cons, κ_n,aggr)`.
///
/// Training is deterministic in `setup`, so the cache is just an
/// accelerator; delete the directory to force retraining.
///
/// # Errors
///
/// Returns a [`TrainError`] on training or cache-I/O failure.
pub fn load_or_train_planners(
    cache_dir: &Path,
    setup: &TrainSetup,
) -> Result<(NnPlanner, NnPlanner), TrainError> {
    std::fs::create_dir_all(cache_dir)?;
    let mut planners = Vec::with_capacity(2);
    for personality in [Personality::Conservative, Personality::Aggressive] {
        let path = cache_dir.join(personality.file_name());
        let planner = if path.exists() {
            NnPlanner::from_text(&std::fs::read_to_string(&path)?).map_err(TrainError::Parse)?
        } else {
            let p = train_planner(setup, personality)?;
            std::fs::write(&path, p.to_text())?;
            p
        };
        planners.push(planner);
    }
    let aggr = planners.pop().expect("two planners");
    let cons = planners.pop().expect("two planners");
    Ok((cons, aggr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_episode, StackSpec};

    #[test]
    fn dataset_collection_produces_samples() {
        let setup = TrainSetup {
            rollout_episodes: 3,
            ..TrainSetup::smoke()
        };
        let data = collect_teacher_dataset(&setup, Personality::Conservative).unwrap();
        assert!(data.len() > 100, "only {} samples", data.len());
    }

    #[test]
    fn smoke_trained_conservative_planner_mostly_reaches() {
        let planner = train_planner(&TrainSetup::smoke(), Personality::Conservative).unwrap();
        let mut reached = 0;
        let n = 10;
        for seed in 0..n {
            let cfg = EpisodeConfig::paper_default(1000 + seed);
            let spec = StackSpec::PureNn {
                planner: planner.clone(),
                window: WindowKind::Conservative,
            };
            let r = run_episode(&cfg, &spec, false).unwrap();
            if r.outcome.reaching_time().is_some() {
                reached += 1;
            }
        }
        assert!(reached >= n / 2, "only {reached}/{n} reached");
    }

    #[test]
    fn cache_roundtrip() {
        let dir = std::env::temp_dir().join(format!("safe-cv-test-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let setup = TrainSetup {
            rollout_episodes: 2,
            clone: CloneConfig {
                epochs: 2,
                ..CloneConfig::default()
            },
            ..TrainSetup::smoke()
        };
        let (cons1, aggr1) = load_or_train_planners(&dir, &setup).unwrap();
        // Second call loads from cache and must be identical.
        let (cons2, aggr2) = load_or_train_planners(&dir, &setup).unwrap();
        assert_eq!(cons1, cons2);
        assert_eq!(aggr1, aggr2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
