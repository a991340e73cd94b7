use cv_comm::CommSetting;
use cv_dynamics::VehicleState;
use cv_sensing::SensorNoise;
use left_turn::{LeftTurnScenario, ScenarioError};

use crate::episode::SimError;
use crate::DriverModel;

/// An additional conflicting vehicle beyond the paper's single `C_1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtraVehicle {
    /// Initial position on the shared ego axis.
    pub start_shared: f64,
    /// Initial speed (m/s, forward frame).
    pub init_speed: f64,
    /// Driving behaviour.
    pub driver: DriverModel,
    /// Per-pair V2V channel override: `None` inherits the episode-level
    /// [`EpisodeConfig::comm`] setting (the pre-platoon behaviour, and the
    /// wire default), `Some` gives this vehicle's channel its own
    /// independent delay/drop.
    pub comm: Option<CommSetting>,
}

impl ExtraVehicle {
    /// An extra vehicle inheriting the episode-level channel setting.
    pub fn new(start_shared: f64, init_speed: f64, driver: DriverModel) -> Self {
        Self {
            start_shared,
            init_speed,
            driver,
            comm: None,
        }
    }

    /// Overrides this vehicle's V2V channel setting.
    pub fn with_comm(mut self, comm: CommSetting) -> Self {
        self.comm = Some(comm);
        self
    }
}

/// Full configuration of one simulated episode.
///
/// Defaults ([`EpisodeConfig::paper_default`]) follow paper Section V; the
/// quantities the paper does not specify (speed/acceleration limits, initial
/// speeds, horizon) are fixed in `DESIGN.md` §6.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeConfig {
    /// `C_1`'s initial position on the shared ego axis (`p_1(0)`).
    pub other_start_shared: f64,
    /// Ego initial state (paper: `p_0(0) = −30 m`).
    pub ego_init: VehicleState,
    /// `C_1` initial speed (m/s, forward frame).
    pub other_init_speed: f64,
    /// Control period `Δt_c` (s).
    pub dt_c: f64,
    /// Message transmission period `Δt_m` (s).
    pub dt_m: f64,
    /// Sensing period `Δt_s` (s).
    pub dt_s: f64,
    /// Episode horizon (s); `η = 0` on timeout.
    pub horizon: f64,
    /// Communication setting.
    pub comm: CommSetting,
    /// Sensor noise bounds.
    pub noise: SensorNoise,
    /// Master seed; sub-streams (C1 driving, channel drops, sensor noise)
    /// are derived deterministically so different planner stacks replay the
    /// *same* episode.
    pub seed: u64,
    /// Per-measurement sensor dropout probability (occlusions / detector
    /// misses). `0` reproduces the paper's always-detecting sensor and
    /// keeps the historical noise stream bit-identical; positive values use
    /// an extra RNG draw per sensing period.
    pub sensor_dropout: f64,
    /// Driving behaviour of the primary oncoming vehicle `C_1`.
    pub driver: DriverModel,
    /// Additional oncoming vehicles (the paper's system model allows
    /// `n − 1`; its evaluation uses one). Empty by default.
    pub extra_others: Vec<ExtraVehicle>,
}

impl EpisodeConfig {
    /// The paper's default episode at `p_1(0) = 52 m` under perfect
    /// communication, with `Δt_m = Δt_s = 0.1 s` and `δ = 1`.
    pub fn paper_default(seed: u64) -> Self {
        Self {
            other_start_shared: 52.0,
            ego_init: VehicleState::new(-30.0, 8.0, 0.0),
            other_init_speed: 10.0,
            dt_c: 0.05,
            dt_m: 0.1,
            dt_s: 0.1,
            horizon: 30.0,
            comm: CommSetting::NoDisturbance,
            noise: SensorNoise::uniform(1.0),
            seed,
            sensor_dropout: 0.0,
            driver: DriverModel::UniformRandom,
            extra_others: Vec::new(),
        }
    }

    /// Builds the scenario geometry for this episode.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] if the configuration is geometrically
    /// invalid (e.g. `C_1` starting inside the zone).
    pub fn scenario(&self) -> Result<LeftTurnScenario, ScenarioError> {
        let mut scenario = LeftTurnScenario::paper_default(self.other_start_shared)?;
        if (scenario.dt_c() - self.dt_c).abs() > 1e-12 {
            scenario = LeftTurnScenario::new(
                scenario.geometry(),
                scenario.ego_limits(),
                scenario.other_limits(),
                self.other_start_shared,
                self.dt_c,
            )?;
        }
        Ok(scenario)
    }

    /// All conflicting vehicles: the primary `C_1` followed by
    /// [`EpisodeConfig::extra_others`], as
    /// `(start_shared, init_speed, driver)` tuples.
    pub fn vehicles(&self) -> Vec<(f64, f64, DriverModel)> {
        let mut v = vec![(self.other_start_shared, self.other_init_speed, self.driver)];
        v.extend(
            self.extra_others
                .iter()
                .map(|e| (e.start_shared, e.init_speed, e.driver)),
        );
        v
    }

    /// One scenario per conflicting vehicle (shared geometry, per-vehicle
    /// frame mapping).
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] if any vehicle starts inside the zone.
    pub fn scenarios(&self) -> Result<Vec<LeftTurnScenario>, ScenarioError> {
        let mut out = Vec::new();
        self.scenarios_into(&mut out)?;
        Ok(out)
    }

    /// [`EpisodeConfig::scenarios`] written into `out` (cleared first),
    /// reusing its capacity.
    pub(crate) fn scenarios_into(
        &self,
        out: &mut Vec<LeftTurnScenario>,
    ) -> Result<(), ScenarioError> {
        let primary = self.scenario()?;
        out.clear();
        out.push(primary);
        for extra in &self.extra_others {
            out.push(LeftTurnScenario::new(
                primary.geometry(),
                primary.ego_limits(),
                primary.other_limits(),
                extra.start_shared,
                self.dt_c,
            )?);
        }
        Ok(())
    }

    /// The effective V2V channel setting of conflicting vehicle `i`: the
    /// per-vehicle override when one is set, the episode-level
    /// [`EpisodeConfig::comm`] otherwise. Vehicle `0` (the primary `C_1`)
    /// always uses the episode-level setting.
    pub fn effective_comm(&self, i: usize) -> CommSetting {
        match i.checked_sub(1).and_then(|j| self.extra_others.get(j)) {
            Some(extra) => extra.comm.unwrap_or(self.comm),
            None => self.comm,
        }
    }

    /// Derived sub-seed for vehicle `i`'s random driving.
    pub fn seed_driving_for(&self, i: usize) -> u64 {
        split_seed(self.seed, 1 + 8 * i as u64)
    }

    /// Derived sub-seed for vehicle `i`'s communication channel.
    pub fn seed_channel_for(&self, i: usize) -> u64 {
        split_seed(self.seed, 2 + 8 * i as u64)
    }

    /// Derived sub-seed for the sensor observing vehicle `i`.
    pub fn seed_sensor_for(&self, i: usize) -> u64 {
        split_seed(self.seed, 3 + 8 * i as u64)
    }

    /// The 20 initial positions of the paper's sweep,
    /// `p_1(0) ∈ {50.5 + 0.5j | j = 0..19}`.
    pub fn paper_start_grid() -> Vec<f64> {
        (0..20).map(|j| 50.5 + 0.5 * j as f64).collect()
    }
}

/// One trailing vehicle of a [`PlatoonSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatoonFollower {
    /// Initial headway to its predecessor (m, shared axis) — also the
    /// headway its gap-tracking policy holds, so the platoon starts in
    /// equilibrium.
    pub gap: f64,
    /// Initial speed (m/s, forward frame).
    pub init_speed: f64,
    /// Gap-tracking feedback gain (1/s²); see
    /// [`DriverModel::GapTracking`].
    pub policy_gain: f64,
    /// Per-pair V2V channel override (`None` inherits
    /// [`PlatoonSpec::comm`]).
    pub comm: Option<CommSetting>,
}

impl PlatoonFollower {
    /// The default follower: 9 m headway at the leader's 10 m/s, gain 0.6,
    /// inheriting the platoon-level channel.
    pub fn paper_default() -> Self {
        Self {
            gap: 9.0,
            init_speed: 10.0,
            policy_gain: 0.6,
            comm: None,
        }
    }
}

/// An N-vehicle platoon episode: the NN-controlled ego `C_0` turning across
/// an oncoming platoon — a free-driven leader (the paper's `C_1`) trailed by
/// gap-tracking followers, each vehicle with its own V2V channel.
///
/// [`PlatoonSpec::episode`] lowers the spec onto [`EpisodeConfig`]: the
/// leader becomes the primary conflicting vehicle and each follower an
/// [`ExtraVehicle`] whose start position accumulates the headways and whose
/// driver is [`DriverModel::GapTracking`]. An `n = 2` platoon (ego +
/// leader, no followers) lowers to exactly the single-conflicting-vehicle
/// configuration — the differential oracle the platoon test-suite pins.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatoonSpec {
    /// Master episode seed.
    pub seed: u64,
    /// Leader initial position on the shared ego axis (`p_1(0)`).
    pub leader_start_shared: f64,
    /// Leader initial speed (m/s, forward frame).
    pub leader_init_speed: f64,
    /// Leader driving behaviour (the paper default draws uniform random
    /// accelerations).
    pub leader_driver: DriverModel,
    /// Channel setting for every pair without a per-vehicle override.
    pub comm: CommSetting,
    /// Trailing vehicles, ordered front to back.
    pub followers: Vec<PlatoonFollower>,
}

impl PlatoonSpec {
    /// The paper-default platoon of `n` vehicles total (the ego plus
    /// `n − 1` oncoming): leader at `p_1(0) = 52 m`, default followers.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidBatch`] for `n < 2`: a platoon needs the
    /// ego and at least one conflicting vehicle
    /// (`CompoundPlanner` is undefined over zero pairs).
    pub fn paper_default(n: usize, seed: u64) -> Result<Self, SimError> {
        if n < 2 {
            return Err(SimError::InvalidBatch {
                reason: format!("platoon needs at least 2 vehicles (ego + 1 conflicting), got {n}"),
            });
        }
        Ok(Self {
            seed,
            leader_start_shared: 52.0,
            leader_init_speed: 10.0,
            leader_driver: DriverModel::UniformRandom,
            comm: CommSetting::NoDisturbance,
            followers: vec![PlatoonFollower::paper_default(); n - 2],
        })
    }

    /// Total vehicle count, ego included.
    pub fn n(&self) -> usize {
        2 + self.followers.len()
    }

    /// Lowers the platoon onto an [`EpisodeConfig`].
    pub fn episode(&self) -> EpisodeConfig {
        let mut cfg = EpisodeConfig::paper_default(self.seed);
        cfg.other_start_shared = self.leader_start_shared;
        cfg.other_init_speed = self.leader_init_speed;
        cfg.driver = self.leader_driver;
        cfg.comm = self.comm;
        let mut start = self.leader_start_shared;
        for f in &self.followers {
            start += f.gap;
            cfg.extra_others.push(ExtraVehicle {
                start_shared: start,
                init_speed: f.init_speed,
                driver: DriverModel::GapTracking {
                    target_gap: f.gap,
                    gain: f.policy_gain,
                },
                comm: f.comm,
            });
        }
        cfg
    }
}

/// SplitMix64-style seed derivation: decorrelates the per-purpose RNG
/// streams from the master seed.
fn split_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let c = EpisodeConfig::paper_default(0);
        assert_eq!(c.ego_init.position, -30.0);
        assert_eq!(c.dt_c, 0.05);
        assert_eq!(c.dt_m, c.dt_s); // paper: Δt_m = Δt_s
        let s = c.scenario().unwrap();
        assert_eq!(s.geometry().p_f, 5.0);
        assert_eq!(s.geometry().p_b, 15.0);
    }

    #[test]
    fn start_grid_matches_paper() {
        let grid = EpisodeConfig::paper_start_grid();
        assert_eq!(grid.len(), 20);
        assert_eq!(grid[0], 50.5);
        assert_eq!(grid[19], 60.0);
    }

    #[test]
    fn sub_seeds_are_distinct_and_deterministic() {
        let c = EpisodeConfig::paper_default(7);
        assert_ne!(c.seed_driving_for(0), c.seed_channel_for(0));
        assert_ne!(c.seed_channel_for(0), c.seed_sensor_for(0));
        assert_eq!(
            c.seed_driving_for(0),
            EpisodeConfig::paper_default(7).seed_driving_for(0)
        );
        assert_ne!(
            c.seed_driving_for(0),
            EpisodeConfig::paper_default(8).seed_driving_for(0)
        );
    }

    #[test]
    fn scenario_respects_custom_dt_c() {
        let mut c = EpisodeConfig::paper_default(0);
        c.dt_c = 0.02;
        assert_eq!(c.scenario().unwrap().dt_c(), 0.02);
    }

    #[test]
    fn effective_comm_inherits_unless_overridden() {
        let mut c = EpisodeConfig::paper_default(0);
        c.comm = CommSetting::delayed_with_drop(0.25);
        c.extra_others
            .push(ExtraVehicle::new(61.0, 10.0, DriverModel::ConstantSpeed));
        c.extra_others.push(
            ExtraVehicle::new(70.0, 10.0, DriverModel::ConstantSpeed).with_comm(CommSetting::Lost),
        );
        assert_eq!(c.effective_comm(0), c.comm);
        assert_eq!(c.effective_comm(1), c.comm);
        assert_eq!(c.effective_comm(2), CommSetting::Lost);
        // Out of range falls back to the episode-level setting.
        assert_eq!(c.effective_comm(3), c.comm);
    }

    #[test]
    fn platoon_lowering_accumulates_gaps_and_policies() {
        let mut spec = PlatoonSpec::paper_default(4, 11).unwrap();
        spec.comm = CommSetting::delayed_with_drop(0.1);
        spec.followers[1].gap = 12.0;
        spec.followers[1].policy_gain = 0.4;
        spec.followers[1].comm = Some(CommSetting::Lost);
        assert_eq!(spec.n(), 4);
        let cfg = spec.episode();
        assert_eq!(cfg.other_start_shared, 52.0);
        assert_eq!(cfg.extra_others.len(), 2);
        assert_eq!(cfg.extra_others[0].start_shared, 61.0);
        assert_eq!(cfg.extra_others[1].start_shared, 73.0);
        assert_eq!(
            cfg.extra_others[1].driver,
            DriverModel::GapTracking {
                target_gap: 12.0,
                gain: 0.4
            }
        );
        assert_eq!(cfg.effective_comm(1), CommSetting::delayed_with_drop(0.1));
        assert_eq!(cfg.effective_comm(2), CommSetting::Lost);
        // Every vehicle maps onto a scenario sharing the zone geometry.
        assert_eq!(cfg.scenarios().unwrap().len(), 3);
    }

    #[test]
    fn degenerate_platoon_rejects_with_the_typed_error() {
        for n in [0usize, 1] {
            match PlatoonSpec::paper_default(n, 0) {
                Err(SimError::InvalidBatch { reason }) => {
                    assert!(reason.contains("at least 2"), "reason: {reason}")
                }
                other => panic!("n={n} must reject, got {other:?}"),
            }
        }
    }

    #[test]
    fn two_vehicle_platoon_lowers_to_the_single_vehicle_config() {
        let spec = PlatoonSpec::paper_default(2, 5).unwrap();
        assert_eq!(spec.episode(), EpisodeConfig::paper_default(5));
    }
}
