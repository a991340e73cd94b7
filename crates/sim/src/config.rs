use cv_comm::CommSetting;
use cv_dynamics::VehicleState;
use cv_sensing::SensorNoise;
use left_turn::{LeftTurnScenario, ScenarioError};

use crate::episode::SimError;
use crate::DriverModel;

/// One conflicting vehicle `C_i` (paper §II-A): where it starts, how it
/// drives, and its V2V channel to the ego.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OtherVehicle {
    /// Initial position on the shared ego axis (`p_i(0)`).
    pub start_shared: f64,
    /// Initial speed (m/s, forward frame).
    pub init_speed: f64,
    /// Driving behaviour.
    pub driver: DriverModel,
    /// Per-pair V2V channel override: `None` inherits the episode-level
    /// [`EpisodeConfig::comm`] setting, `Some` gives this vehicle's channel
    /// its own independent delay/drop.
    pub comm: Option<CommSetting>,
}

impl OtherVehicle {
    /// A vehicle inheriting the episode-level channel setting.
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
    /// Ego initial state (paper: `p_0(0) = −30 m`).
    pub ego_init: VehicleState,
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
    /// The conflicting vehicles `C_1 … C_{n−1}`, `C_1` first (the paper's
    /// system model allows `n − 1`; its evaluation uses one). Vehicle `i`'s
    /// random streams are keyed by its index.
    pub others: Vec<OtherVehicle>,
}

impl EpisodeConfig {
    /// The paper's default episode at `p_1(0) = 52 m` under perfect
    /// communication, with `Δt_m = Δt_s = 0.1 s` and `δ = 1`.
    pub fn paper_default(seed: u64) -> Self {
        Self {
            ego_init: VehicleState::new(-30.0, 8.0, 0.0),
            dt_c: 0.05,
            dt_m: 0.1,
            dt_s: 0.1,
            horizon: 30.0,
            comm: CommSetting::NoDisturbance,
            noise: SensorNoise::uniform(1.0),
            seed,
            sensor_dropout: 0.0,
            others: vec![OtherVehicle::new(52.0, 10.0, DriverModel::UniformRandom)],
        }
    }

    /// Builds the scenario geometry of `C_1` (`others[0]`).
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] if the configuration is geometrically
    /// invalid (e.g. `C_1` starting inside the zone) or has no conflicting
    /// vehicle.
    pub fn scenario(&self) -> Result<LeftTurnScenario, ScenarioError> {
        let first = self
            .others
            .first()
            .ok_or(ScenarioError::NoOncomingVehicle)?;
        self.scenario_at(first.start_shared)
    }

    /// The paper's scenario for a vehicle starting at `start_shared`, at
    /// this episode's control period.
    fn scenario_at(&self, start_shared: f64) -> Result<LeftTurnScenario, ScenarioError> {
        let paper = LeftTurnScenario::paper_default(start_shared)?;
        let (ego, other) = (paper.ego_limits(), paper.other_limits());
        LeftTurnScenario::new(paper.geometry(), ego, other, start_shared, self.dt_c)
    }

    /// All conflicting vehicles as `(start_shared, init_speed, driver)`
    /// tuples, `C_1` first.
    pub fn vehicles(&self) -> Vec<(f64, f64, DriverModel)> {
        self.others
            .iter()
            .map(|v| (v.start_shared, v.init_speed, v.driver))
            .collect()
    }

    /// One scenario per conflicting vehicle (shared geometry, per-vehicle
    /// frame mapping).
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] if any vehicle starts inside the zone or
    /// there is no conflicting vehicle.
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
        out.clear();
        if self.others.is_empty() {
            return Err(ScenarioError::NoOncomingVehicle);
        }
        for v in &self.others {
            out.push(self.scenario_at(v.start_shared)?);
        }
        Ok(())
    }

    /// The effective V2V channel setting of conflicting vehicle `i`: its
    /// override when one is set, the episode-level [`EpisodeConfig::comm`]
    /// otherwise (also for an index past the last vehicle).
    pub fn effective_comm(&self, i: usize) -> CommSetting {
        self.others.get(i).and_then(|v| v.comm).unwrap_or(self.comm)
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
/// [`PlatoonSpec::episode`] lowers the spec onto [`EpisodeConfig::others`]:
/// the leader becomes `C_1` and each follower a further [`OtherVehicle`]
/// whose start position accumulates the headways and whose driver is
/// [`DriverModel::GapTracking`]. An `n = 2` platoon (ego +
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
        cfg.comm = self.comm;
        let mut start = self.leader_start_shared;
        cfg.others = vec![OtherVehicle::new(
            start,
            self.leader_init_speed,
            self.leader_driver,
        )];
        for f in &self.followers {
            start += f.gap;
            cfg.others.push(OtherVehicle {
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
        c.others
            .push(OtherVehicle::new(61.0, 10.0, DriverModel::ConstantSpeed));
        c.others.push(
            OtherVehicle::new(70.0, 10.0, DriverModel::ConstantSpeed).with_comm(CommSetting::Lost),
        );
        assert_eq!(c.effective_comm(0), c.comm);
        assert_eq!(c.effective_comm(1), c.comm);
        assert_eq!(c.effective_comm(2), CommSetting::Lost);
        // Out of range falls back to the episode-level setting.
        assert_eq!(c.effective_comm(3), c.comm);
        // C_1 is a vehicle like any other: its override is honoured too.
        c.others[0].comm = Some(CommSetting::NoDisturbance);
        assert_eq!(c.effective_comm(0), CommSetting::NoDisturbance);
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
        assert_eq!(cfg.others.len(), 3);
        assert_eq!(cfg.others[0].start_shared, 52.0);
        assert_eq!(cfg.others[1].start_shared, 61.0);
        assert_eq!(cfg.others[2].start_shared, 73.0);
        assert_eq!(
            cfg.others[2].driver,
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
