//! Per-worker reusable episode state.
//!
//! Building an episode from scratch allocates boxed communication channels,
//! boxed estimators, per-pair queues and a planner clone (for an NN stack:
//! every weight matrix). A batch worker runs thousands of episodes with the
//! *same* stack, so [`EpisodeWorkspace`] keeps that alive across episodes:
//!
//! - each conflicting vehicle of [`EpisodeConfig::others`] is one `Pair`
//!   record (paper §II-A: each of the ego's `n − 1` conflicting vehicles
//!   has its own V2V channel, sensor and estimator), and one loop over that
//!   list re-arms them all in place (`EpisodeWorkspace::arm_pairs`): a
//!   channel is re-armed via [`Channel::reset`] (bit-identical to a fresh
//!   channel — see the `cv-comm` tests) while its setting is unchanged and
//!   rebuilt otherwise, the arrival queue keeps its capacity, and the
//!   estimator is rebuilt from `StackSpec::estimator`;
//! - the [`StackSpec`]'s executor is built once and re-armed in place, so
//!   the planner is cloned exactly once per worker. The executor's scenario
//!   list (the compound planner's own, for a compound stack) is the one
//!   home of the episode's geometry: each episode rebuilds it in place,
//!   which is a few comparisons per vehicle.
//!
//! Together with the scratch buffers inside the planner stack — including
//! the `MlpScratch` each `NnPlanner` carries for allocation-free inference
//! (`DESIGN.md` §13) — this makes the per-*step* simulation loop
//! allocation-free in the steady state; `tests/alloc_guard.rs` in the root
//! crate proves it with a counting allocator. Results are bit-identical to
//! the build-from-scratch path; `tests/scheduler_determinism.rs` enforces
//! that.

use cv_comm::{Channel, CommSetting};
use cv_dynamics::{VehicleLimits, VehicleState};
use cv_estimation::{Estimator, VehicleEstimate};
use cv_sensing::UniformNoiseSensor;

use crate::driver::Driver;
use crate::events::Arrivals;
use crate::stack::StackExec;
use crate::stepper::Run;
use crate::{EpisodeConfig, StackSpec};

/// One ego/vehicle pair: everything the engine keeps about one conflicting
/// vehicle, from its ground truth to the stack's belief about it.
pub(crate) struct Pair {
    /// Start position on the shared ego axis.
    pub(crate) start: f64,
    /// Ground-truth state, in the vehicle's own forward frame.
    pub(crate) truth: VehicleState,
    pub(crate) driver: Driver,
    pub(crate) sensor: UniformNoiseSensor,
    /// The setting `channel` was built for.
    pub(crate) comm: CommSetting,
    pub(crate) channel: Box<dyn Channel + Send>,
    /// Messages sent and not yet delivered ([`crate::events`]).
    pub(crate) arrivals: Arrivals,
    pub(crate) estimator: Box<dyn Estimator + Send>,
    /// The estimate pinned when the pair retired; a pair is retired exactly
    /// when this is `Some` ([`crate::events`]).
    pub(crate) pin: Option<VehicleEstimate>,
}

/// Reusable per-worker state for running episodes of one [`StackSpec`].
///
/// See the module docs for what is retained. The workspace is bound to its
/// spec at construction: the executor it reuses embeds that spec's planner,
/// so running a different spec requires a different workspace.
///
/// # Example
///
/// ```
/// use cv_sim::{EpisodeConfig, EpisodeWorkspace, StackSpec};
///
/// let cfg = EpisodeConfig::paper_default(0);
/// let spec = StackSpec::pure_teacher_conservative(&cfg)?;
/// let mut ws = EpisodeWorkspace::new(spec);
/// let first = ws.run(&cfg, false)?;
/// let again = ws.run(&cfg, false)?; // reuses buffers, identical result
/// assert_eq!(first, again);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct EpisodeWorkspace {
    pub(crate) spec: StackSpec,
    /// Built on first use, re-armed (not rebuilt) on every later episode.
    pub(crate) exec: Option<StackExec>,
    /// One record per entry of [`EpisodeConfig::others`], in its order.
    pub(crate) pairs: Vec<Pair>,
    /// The episode the stepper is running, between `start` and its finish.
    pub(crate) run: Option<Run>,
}

impl EpisodeWorkspace {
    /// A workspace bound to `spec`. No heavy state is built until the first
    /// episode starts.
    pub fn new(spec: StackSpec) -> Self {
        Self {
            spec,
            exec: None,
            pairs: Vec::new(),
            run: None,
        }
    }

    /// The stack this workspace runs.
    pub fn spec(&self) -> &StackSpec {
        &self.spec
    }

    /// Re-arms one pair per conflicting vehicle of `cfg`, in place.
    pub(crate) fn arm_pairs(&mut self, cfg: &EpisodeConfig, limits: VehicleLimits) {
        self.pairs.truncate(cfg.others.len());
        for (i, other) in cfg.others.iter().enumerate() {
            let start = other.start_shared;
            let truth = VehicleState::new(0.0, other.init_speed, 0.0);
            let driver = other.driver.driver(limits, cfg.seed_driving_for(i));
            let sensor = UniformNoiseSensor::new(cfg.noise, cfg.seed_sensor_for(i))
                .with_dropout(cfg.sensor_dropout);
            let (comm, seed) = (cfg.effective_comm(i), cfg.seed_channel_for(i));
            let estimator = self.spec.estimator(cfg, limits, truth);
            match self.pairs.get_mut(i) {
                Some(pair) => {
                    if pair.comm == comm {
                        pair.channel.reset(seed);
                    } else {
                        pair.channel = comm.channel(seed);
                    }
                    pair.arrivals.clear();
                    (pair.start, pair.truth, pair.driver, pair.sensor) =
                        (start, truth, driver, sensor);
                    (pair.comm, pair.estimator, pair.pin) = (comm, estimator, None);
                }
                None => self.pairs.push(Pair {
                    start,
                    truth,
                    driver,
                    sensor,
                    comm,
                    channel: comm.channel(seed),
                    arrivals: Arrivals::default(),
                    estimator,
                    pin: None,
                }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OtherVehicle;
    use left_turn::ScenarioError;

    #[test]
    fn invalid_geometry_is_a_typed_error_and_the_workspace_recovers() {
        let cfg = EpisodeConfig::paper_default(0);
        let spec = StackSpec::pure_teacher_conservative(&cfg).unwrap();
        let mut ws = EpisodeWorkspace::new(spec);
        let good = ws.run(&cfg, false).unwrap();
        let mut inside = cfg.clone();
        inside.others.push(OtherVehicle::new(
            10.0, // inside the zone
            10.0,
            crate::DriverModel::ConstantSpeed,
        ));
        let mut empty = cfg.clone();
        empty.others.clear();
        for (bad, expected) in [
            (inside, ScenarioError::OtherStartsInsideZone),
            (empty, ScenarioError::NoOncomingVehicle),
        ] {
            assert_eq!(
                ws.run(&bad, false),
                Err(crate::SimError::Scenario(expected))
            );
            assert_eq!(ws.run(&cfg, false).unwrap(), good);
        }
    }
}
