use cv_dynamics::Trajectory;
use cv_estimation::{Interval, VehicleEstimate};
use cv_sensing::Measurement;
use left_turn::ScenarioError;
use safe_shield::{Outcome, PlannerSource};

use crate::stepper::{NnAnswer, StepAdvance};
use crate::{EpisodeConfig, EpisodeWorkspace, StackSpec};

/// Errors running an episode.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The episode configuration produced an invalid scenario.
    Scenario(ScenarioError),
    /// A batch configuration that cannot be run (empty start grid, zero
    /// episodes, …) — rejected up front instead of panicking mid-batch.
    InvalidBatch {
        /// What is wrong with the configuration.
        reason: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Scenario(e) => write!(f, "invalid scenario: {e}"),
            SimError::InvalidBatch { reason } => write!(f, "invalid batch: {reason}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Scenario(e) => Some(e),
            SimError::InvalidBatch { .. } => None,
        }
    }
}

impl From<ScenarioError> for SimError {
    fn from(e: ScenarioError) -> Self {
        SimError::Scenario(e)
    }
}

/// Per-step traces recorded when requested (used by the Fig. 6 experiments
/// and the examples).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpisodeTraces {
    /// Ego trajectory (shared axis).
    pub ego: Trajectory,
    /// Conflicting-vehicle trajectories (each in its own forward frame),
    /// primary `C_1` first.
    pub others: Vec<Trajectory>,
    /// Raw sensor measurements (all vehicles, in event order).
    pub measurements: Vec<Measurement>,
    /// The estimator's belief about the primary vehicle at each control step.
    pub estimates: Vec<(f64, VehicleEstimate)>,
    /// Window estimates for the primary vehicle at each control step.
    pub windows: Vec<WindowTrace>,
    /// Planner decision at each control step.
    pub decisions: Vec<DecisionTrace>,
}

impl EpisodeTraces {
    /// The primary conflicting vehicle's trajectory.
    ///
    /// # Panics
    ///
    /// Panics if no trajectory was recorded.
    pub fn primary_other(&self) -> &Trajectory {
        &self.others[0]
    }
}

/// One planning decision along an episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionTrace {
    /// Step time.
    pub time: f64,
    /// Who produced the command.
    pub source: PlannerSource,
    /// The (unclamped) acceleration command.
    pub accel: f64,
}

/// The three `τ_1` window estimates at one control step, plus the truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowTrace {
    /// Step time.
    pub time: f64,
    /// Conservative window (paper Eq. 7).
    pub conservative: Option<Interval>,
    /// Aggressive window (paper Eq. 8, default buffers).
    pub aggressive: Option<Interval>,
    /// Window computed from the *true* `C_1` state with zero uncertainty
    /// (constant-speed projection of the truth).
    pub truth_nominal: Option<Interval>,
}

/// Result of one simulated episode.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeResult {
    /// Ground-truth outcome (collision / reached / timeout).
    pub outcome: Outcome,
    /// The paper's evaluation value `η`.
    pub eta: f64,
    /// Steps decided by the emergency planner.
    pub emergency_steps: u64,
    /// Total planned steps.
    pub total_steps: u64,
    /// On [`Outcome::Collision`], the index of the conflicting vehicle the
    /// ego collided with (`0` = the primary `C_1`); `None` otherwise. This
    /// is the per-pair attribution behind [`EpisodeResult::pair_etas`].
    pub collided_pair: Option<usize>,
    /// Optional per-step traces.
    pub traces: Option<EpisodeTraces>,
}

impl EpisodeResult {
    /// Emergency frequency: fraction of steps decided by `κ_e`.
    pub fn emergency_frequency(&self) -> f64 {
        if self.total_steps == 0 {
            0.0
        } else {
            self.emergency_steps as f64 / self.total_steps as f64
        }
    }

    /// Per-pair η scores, one per conflicting vehicle (`pairs` of them):
    /// `−1` for the pair the ego collided with, `1/t_r` for every pair when
    /// the target was reached, `0` otherwise. The episode-level `η` is the
    /// minimum over pairs ([`safe_shield::platoon_eta`]).
    pub fn pair_etas(&self, pairs: usize) -> Vec<f64> {
        (0..pairs)
            .map(|i| match self.outcome {
                Outcome::Collision { .. } if self.collided_pair == Some(i) => -1.0,
                Outcome::Reached { .. } => self.eta,
                _ => 0.0,
            })
            .collect()
    }
}

/// Simulates one episode of the unprotected left turn (with one or more
/// oncoming vehicles; the paper evaluates one).
///
/// Event order per control step `t = k·Δt_c` is the episode stepper's
/// ([`crate::stepper`]): every vehicle broadcasts (every `Δt_m`), due
/// messages are delivered, the sensors fire (every `Δt_s`), ground truth is
/// checked (collision → `η = −1`, target → `η = 1/t`), the stack plans, and
/// all vehicles advance one step (each conflicting vehicle under its
/// configured [`crate::DriverModel`]).
///
/// # Errors
///
/// Returns [`SimError::Scenario`] if the configuration is invalid.
///
/// This is the one-shot convenience path: it builds a fresh
/// [`EpisodeWorkspace`] per call. Batch loops should hold one workspace per
/// worker and call [`EpisodeWorkspace::run`] directly — the results are
/// bit-identical.
pub fn run_episode(
    cfg: &EpisodeConfig,
    spec: &StackSpec,
    record_traces: bool,
) -> Result<EpisodeResult, SimError> {
    EpisodeWorkspace::new(spec.clone()).run(cfg, record_traces)
}

impl EpisodeWorkspace {
    /// Runs one episode, reusing every buffer this workspace retains from
    /// earlier runs (see the [`crate::workspace`] module docs): the episode
    /// stepper with the NN answered inline. Results are identical to
    /// [`run_episode`], and with or without traces.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Scenario`] if the configuration is invalid.
    pub fn run(
        &mut self,
        cfg: &EpisodeConfig,
        record_traces: bool,
    ) -> Result<EpisodeResult, SimError> {
        self.start(cfg, NnAnswer::Inline, record_traces)?;
        match self.advance(cfg, None, None) {
            StepAdvance::Finished(result) => Ok(result),
            _ => unreachable!("an inline episode without an interrupt runs to its outcome"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DriverModel, OtherVehicle};
    use cv_comm::CommSetting;

    #[test]
    fn conservative_teacher_is_safe_and_eventually_reaches() {
        let mut safe = 0;
        let mut reached = 0;
        for seed in 0..20 {
            let cfg = EpisodeConfig::paper_default(seed);
            let spec = StackSpec::pure_teacher_conservative(&cfg).unwrap();
            let r = run_episode(&cfg, &spec, false).unwrap();
            if r.outcome.is_safe() {
                safe += 1;
            }
            if r.outcome.reaching_time().is_some() {
                reached += 1;
            }
        }
        assert_eq!(safe, 20, "conservative teacher collided");
        assert!(reached >= 18, "only {reached} reached the target");
    }

    #[test]
    fn aggressive_teacher_is_fast_but_unsafe_somewhere() {
        let mut collisions = 0;
        let mut fastest = f64::MAX;
        for seed in 0..60 {
            let mut cfg = EpisodeConfig::paper_default(seed);
            // Under disturbance its naive estimates go stale.
            cfg.comm = CommSetting::Delayed {
                delay: 0.25,
                drop_prob: 0.5,
            };
            let spec = StackSpec::pure_teacher_aggressive(&cfg).unwrap();
            let r = run_episode(&cfg, &spec, false).unwrap();
            if !r.outcome.is_safe() {
                collisions += 1;
            }
            if let Some(t) = r.outcome.reaching_time() {
                fastest = fastest.min(t);
            }
        }
        assert!(collisions > 0, "aggressive teacher never collided");
        assert!(fastest < 8.0, "aggressive teacher too slow: {fastest}");
    }

    #[test]
    fn same_seed_same_result() {
        let cfg = EpisodeConfig::paper_default(9);
        let spec = StackSpec::pure_teacher_conservative(&cfg).unwrap();
        let a = run_episode(&cfg, &spec, false).unwrap();
        let b = run_episode(&cfg, &spec, false).unwrap();
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.emergency_steps, b.emergency_steps);
    }

    #[test]
    fn traces_are_recorded_when_requested() {
        let cfg = EpisodeConfig::paper_default(1);
        let spec = StackSpec::pure_teacher_conservative(&cfg).unwrap();
        let r = run_episode(&cfg, &spec, true).unwrap();
        let tr = r.traces.expect("traces requested");
        assert!(!tr.ego.is_empty());
        assert_eq!(tr.ego.len(), tr.primary_other().len());
        assert!(!tr.measurements.is_empty());
        assert_eq!(tr.estimates.len(), tr.windows.len());
        assert_eq!(tr.estimates.len(), tr.decisions.len());
    }

    #[test]
    fn timeout_when_ego_cannot_move() {
        let mut cfg = EpisodeConfig::paper_default(2);
        cfg.horizon = 0.5;
        let spec = StackSpec::pure_teacher_conservative(&cfg).unwrap();
        let r = run_episode(&cfg, &spec, false).unwrap();
        assert_eq!(r.outcome, Outcome::Timeout);
        assert_eq!(r.eta, 0.0);
    }

    #[test]
    fn platoon_episode_runs_and_respects_every_vehicle() {
        // Two oncoming vehicles; the conservative teacher must stay safe and
        // crossing behind two cars can never beat crossing behind one.
        let mut cfg = EpisodeConfig::paper_default(4);
        cfg.others
            .push(OtherVehicle::new(62.0, 10.0, DriverModel::UniformRandom));
        let spec = StackSpec::pure_teacher_conservative(&cfg).unwrap();
        let single = {
            let mut c = cfg.clone();
            c.others.truncate(1);
            run_episode(&c, &spec, false).unwrap()
        };
        let platoon = run_episode(&cfg, &spec, false).unwrap();
        assert!(platoon.outcome.is_safe());
        if let (Some(t1), Some(t2)) = (
            single.outcome.reaching_time(),
            platoon.outcome.reaching_time(),
        ) {
            assert!(t2 + 1e-9 >= t1, "platoon {t2} vs single {t1}");
        }
    }

    #[test]
    fn sensor_dropout_does_not_break_safety() {
        // Messages lost AND half the sensor frames dropped: the hard
        // intervals widen, the shield stays sound.
        let spec_cfg = EpisodeConfig::paper_default(0);
        let spec = StackSpec::pure_teacher_conservative(&spec_cfg).unwrap();
        for seed in 0..10 {
            let mut cfg = EpisodeConfig::paper_default(seed);
            cfg.comm = CommSetting::Lost;
            cfg.sensor_dropout = 0.5;
            let r = run_episode(&cfg, &spec, false).unwrap();
            assert!(r.outcome.is_safe(), "seed {seed}: {:?}", r.outcome);
        }
    }

    #[test]
    fn ambush_driver_is_contained_by_the_teacher() {
        // The oncoming vehicle brakes hard mid-approach: worst case for a
        // constant-velocity assumption. The conservative teacher uses sound
        // windows, so it must stay safe.
        let mut cfg = EpisodeConfig::paper_default(5);
        cfg.others[0].driver = DriverModel::Ambush { brake_at: 2.0 };
        let spec = StackSpec::pure_teacher_conservative(&cfg).unwrap();
        let r = run_episode(&cfg, &spec, false).unwrap();
        assert!(r.outcome.is_safe());
    }
}
