//! Per-worker reusable episode state.
//!
//! Building an episode from scratch allocates scenario geometry, boxed
//! communication channels, boxed estimators, and a planner clone (for an NN
//! stack: every weight matrix). A batch worker runs thousands of episodes
//! with the *same* stack and a handful of distinct geometries, so
//! [`EpisodeWorkspace`] keeps all of that alive across episodes:
//!
//! - scenario lists are cached per geometry (`Δt_c` + every vehicle's start
//!   position fully determine them);
//! - channels are re-armed via [`Channel::reset`] (bit-identical to a fresh
//!   channel — see the `cv-comm` tests) instead of re-boxed;
//! - sensors, drivers, and vehicle-state buffers are refilled in place
//!   (their elements are heap-free);
//! - the [`StackSpec`]'s executor is re-armed via `StackSpec::reinit`, so
//!   the planner is cloned exactly once per worker;
//! - the event wheel's per-pair arrival queues ([`crate::events`]) keep
//!   their capacity.
//!
//! Together with the scratch buffers inside the planner stack — including
//! the `MlpScratch` each `NnPlanner` carries for allocation-free inference
//! (`DESIGN.md` §13) — this makes the per-*step* simulation loop
//! allocation-free in the steady state; `tests/alloc_guard.rs` in the root
//! crate proves it with a counting allocator. Results are bit-identical to
//! the build-from-scratch path; `tests/scheduler_determinism.rs` enforces
//! that.

use cv_comm::{Channel, CommSetting};
use cv_dynamics::VehicleState;
use cv_sensing::UniformNoiseSensor;
use left_turn::LeftTurnScenario;

use crate::driver::Driver;
use crate::events::EventScratch;
use crate::stack::StackExec;
use crate::stepper::Run;
use crate::{DriverModel, EpisodeConfig, SimError, StackSpec};

/// A communication channel kept for reuse, remembering which setting built
/// it so a template change (e.g. a comm-scenario sweep) rebuilds instead of
/// mis-resetting.
pub(crate) struct ChannelSlot {
    pub(crate) setting: CommSetting,
    pub(crate) chan: Box<dyn Channel + Send>,
}

/// Upper bound on cached geometries; far above the paper's 20-start grid,
/// and a sweep over more geometries than this simply re-derives them.
const MAX_CACHED_GEOMETRIES: usize = 64;

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
    /// Geometry-keyed scenario cache; the key is the bit pattern of `Δt_c`
    /// followed by every vehicle's start position.
    pub(crate) scenario_cache: Vec<(Vec<u64>, Vec<LeftTurnScenario>)>,
    key_scratch: Vec<u64>,
    pub(crate) channels: Vec<ChannelSlot>,
    pub(crate) sensors: Vec<UniformNoiseSensor>,
    pub(crate) drivers: Vec<Driver>,
    pub(crate) others: Vec<VehicleState>,
    /// Event-wheel scratch (arrival queues, retired flags), reused across
    /// episodes.
    pub(crate) events: EventScratch,
    /// The episode the stepper is running, between `start` and its finish.
    pub(crate) run: Option<Run>,
}

/// `(start_shared, init_speed, driver)` of conflicting vehicle `i` without
/// materialising [`EpisodeConfig::vehicles`].
pub(crate) fn vehicle(cfg: &EpisodeConfig, i: usize) -> (f64, f64, DriverModel) {
    if i == 0 {
        (cfg.other_start_shared, cfg.other_init_speed, cfg.driver)
    } else {
        let e = &cfg.extra_others[i - 1];
        (e.start_shared, e.init_speed, e.driver)
    }
}

impl EpisodeWorkspace {
    /// A workspace bound to `spec`. No heavy state is built until the first
    /// episode starts.
    pub fn new(spec: StackSpec) -> Self {
        Self {
            spec,
            exec: None,
            scenario_cache: Vec::new(),
            key_scratch: Vec::new(),
            channels: Vec::new(),
            sensors: Vec::new(),
            drivers: Vec::new(),
            others: Vec::new(),
            events: EventScratch::default(),
            run: None,
        }
    }

    /// The stack this workspace runs.
    pub fn spec(&self) -> &StackSpec {
        &self.spec
    }

    /// Index into the scenario cache for `cfg`'s geometry, building (and
    /// validating) the scenario list on a cache miss.
    pub(crate) fn scenario_slot(&mut self, cfg: &EpisodeConfig) -> Result<usize, SimError> {
        self.key_scratch.clear();
        self.key_scratch.push(cfg.dt_c.to_bits());
        self.key_scratch.push(cfg.other_start_shared.to_bits());
        self.key_scratch
            .extend(cfg.extra_others.iter().map(|e| e.start_shared.to_bits()));
        if let Some(pos) = self
            .scenario_cache
            .iter()
            .position(|(k, _)| *k == self.key_scratch)
        {
            return Ok(pos);
        }
        let scenarios = cfg.scenarios()?;
        if self.scenario_cache.len() >= MAX_CACHED_GEOMETRIES {
            self.scenario_cache.clear();
        }
        self.scenario_cache
            .push((self.key_scratch.clone(), scenarios));
        Ok(self.scenario_cache.len() - 1)
    }

    /// The cached scenario list at `slot`.
    pub(crate) fn cached_scenarios(&self, slot: usize) -> &[LeftTurnScenario] {
        &self.scenario_cache[slot].1
    }

    /// Re-arms channels, sensors, drivers, and vehicle states for `cfg`
    /// (`n` conflicting vehicles), reusing every buffer.
    pub(crate) fn arm_vehicles(
        &mut self,
        cfg: &EpisodeConfig,
        other_limits: cv_dynamics::VehicleLimits,
    ) {
        let n = 1 + cfg.extra_others.len();
        self.others.clear();
        self.others
            .extend((0..n).map(|i| VehicleState::new(0.0, vehicle(cfg, i).1, 0.0)));

        // Every vehicle pair carries its own channel; a per-vehicle
        // override (platoons) re-arms only that slot's setting.
        self.channels.truncate(n);
        for (i, slot) in self.channels.iter_mut().enumerate() {
            let comm = cfg.effective_comm(i);
            let seed = cfg.seed_channel_for(i);
            if slot.setting == comm {
                slot.chan.reset(seed);
            } else {
                slot.setting = comm;
                slot.chan = comm.channel(seed);
            }
        }
        for i in self.channels.len()..n {
            let comm = cfg.effective_comm(i);
            self.channels.push(ChannelSlot {
                setting: comm,
                chan: comm.channel(cfg.seed_channel_for(i)),
            });
        }

        self.sensors.clear();
        self.sensors.extend((0..n).map(|i| {
            UniformNoiseSensor::new(cfg.noise, cfg.seed_sensor_for(i))
                .with_dropout(cfg.sensor_dropout)
        }));

        self.drivers.clear();
        self.drivers.extend((0..n).map(|i| {
            vehicle(cfg, i)
                .2
                .driver(other_limits, cfg.seed_driving_for(i))
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_cache_hits_on_repeated_geometry() {
        let cfg = EpisodeConfig::paper_default(0);
        let spec = StackSpec::pure_teacher_conservative(&cfg).unwrap();
        let mut ws = EpisodeWorkspace::new(spec);
        let a = ws.scenario_slot(&cfg).unwrap();
        let b = ws.scenario_slot(&cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(ws.scenario_cache.len(), 1);

        let mut moved = cfg.clone();
        moved.other_start_shared = 55.0;
        let c = ws.scenario_slot(&moved).unwrap();
        assert_ne!(a, c);
        assert_eq!(ws.scenario_cache.len(), 2);
    }

    #[test]
    fn scenario_cache_is_bounded() {
        let cfg = EpisodeConfig::paper_default(0);
        let spec = StackSpec::pure_teacher_conservative(&cfg).unwrap();
        let mut ws = EpisodeWorkspace::new(spec);
        for j in 0..(2 * MAX_CACHED_GEOMETRIES) {
            let mut c = cfg.clone();
            c.other_start_shared = 50.5 + 0.01 * j as f64;
            ws.scenario_slot(&c).unwrap();
        }
        assert!(ws.scenario_cache.len() <= MAX_CACHED_GEOMETRIES);
    }

    #[test]
    fn invalid_geometry_is_not_cached() {
        let mut cfg = EpisodeConfig::paper_default(0);
        cfg.other_start_shared = -1.0; // inside / behind the zone
        let spec = StackSpec::PureTeacher {
            policy: cv_planner::TeacherPolicy::conservative(
                &EpisodeConfig::paper_default(0).scenario().unwrap(),
            ),
            window: crate::WindowKind::Conservative,
        };
        let mut ws = EpisodeWorkspace::new(spec);
        assert!(ws.scenario_slot(&cfg).is_err());
        assert!(ws.scenario_cache.is_empty());
    }
}
