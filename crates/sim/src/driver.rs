//! Driver models for the oncoming vehicle `C_1`.
//!
//! The paper's experiments draw `C_1`'s control input uniformly at random
//! every control step (Section V-A) — [`DriverModel::UniformRandom`]. As a
//! library we also provide smoother and *harder* traffic behaviours, used by
//! the stress tests and available for custom experiments:
//!
//! * [`DriverModel::OrnsteinUhlenbeck`] — temporally correlated
//!   accelerations (more realistic speed profiles than white noise);
//! * [`DriverModel::ConstantSpeed`] — the textbook baseline;
//! * [`DriverModel::Ambush`] — cruise, then brake hard at a fixed time: the
//!   adversarial manoeuvre that breaks constant-velocity assumptions.
//! * [`DriverModel::GapTracking`] — a platoon follower: critically damped
//!   feedback on the headway to its predecessor (the ReachMM-style
//!   gap-tracking policy). Followers receive the predecessor snapshot as
//!   [`LeadInfo`] through [`Driver::accel_following`]; the front vehicle of
//!   a platoon (no predecessor) holds its speed.
//!
//! All models are deterministic given the episode seed, preserving paired
//! Monte-Carlo comparisons across planner stacks.

use cv_dynamics::{VehicleLimits, VehicleState};
use cv_rng::{Rng, SplitMix64};

/// A driving behaviour for a non-ego vehicle.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum DriverModel {
    /// The paper's behaviour: a fresh uniform sample from
    /// `[a_min, a_max]` at every control step.
    #[default]
    UniformRandom,
    /// Mean-reverting (Ornstein–Uhlenbeck) acceleration:
    /// `a' = a + θ·(0 − a)·Δt + σ·√Δt·ξ`, clamped to the limits.
    OrnsteinUhlenbeck {
        /// Mean-reversion rate `θ` (1/s).
        theta: f64,
        /// Noise scale `σ` (m/s²·√s).
        sigma: f64,
    },
    /// No acceleration at all.
    ConstantSpeed,
    /// Cruise at constant speed, then brake at `a_min` from `brake_at`
    /// until `v_min` — the adversarial profile that invalidates naive
    /// constant-velocity predictions in a single manoeuvre.
    Ambush {
        /// Time at which braking starts (s).
        brake_at: f64,
    },
    /// Platoon follower: critically damped feedback on the headway to the
    /// vehicle directly ahead,
    /// `a = gain·(gap − target_gap) + 2·√gain·(v_lead − v)`,
    /// clamped to the limits. Deterministic (no RNG draws); without a
    /// predecessor it holds its speed.
    GapTracking {
        /// Headway the follower tracks (m, shared axis).
        target_gap: f64,
        /// Proportional feedback gain on the gap error (1/s²); the
        /// velocity term is derived as `2·√gain` (critical damping).
        gain: f64,
    },
}

/// Snapshot of the predecessor vehicle handed to a platoon follower for one
/// control step: the shared-axis headway and the predecessor's speed, both
/// taken *before* either vehicle is advanced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeadInfo {
    /// Shared-axis distance to the predecessor (positive when behind it).
    pub gap: f64,
    /// Predecessor speed (m/s, forward frame).
    pub velocity: f64,
}

impl DriverModel {
    /// Instantiates the per-episode driver with a deterministic seed.
    pub fn driver(&self, limits: VehicleLimits, seed: u64) -> Driver {
        Driver {
            model: *self,
            limits,
            rng: SplitMix64::seed_from_u64(seed),
            accel: 0.0,
        }
    }
}

/// Stateful per-episode driver produced by [`DriverModel::driver`].
#[derive(Debug, Clone)]
pub struct Driver {
    model: DriverModel,
    limits: VehicleLimits,
    rng: SplitMix64,
    accel: f64,
}

impl Driver {
    /// The acceleration command for the step starting at `time`.
    ///
    /// Equivalent to [`Driver::accel_following`] without a predecessor; a
    /// [`DriverModel::GapTracking`] driver therefore holds its speed.
    pub fn accel(&mut self, time: f64, state: &VehicleState, dt: f64) -> f64 {
        self.accel_following(time, state, None, dt)
    }

    /// The acceleration command for the step starting at `time`, given the
    /// predecessor snapshot `lead` (for platoon followers).
    ///
    /// Models other than [`DriverModel::GapTracking`] ignore `lead` and
    /// consume their RNG streams exactly as [`Driver::accel`] always has,
    /// so threading predecessor state through the episode loop is
    /// bit-invisible to every pre-platoon configuration.
    pub fn accel_following(
        &mut self,
        time: f64,
        state: &VehicleState,
        lead: Option<LeadInfo>,
        dt: f64,
    ) -> f64 {
        let (a_min, a_max) = (self.limits.a_min(), self.limits.a_max());
        self.accel = match self.model {
            DriverModel::UniformRandom => self.rng.random_range(a_min..=a_max),
            DriverModel::OrnsteinUhlenbeck { theta, sigma } => {
                let xi: f64 = self.rng.random_range(-1.0..=1.0) * 3.0_f64.sqrt(); // unit variance
                (self.accel - theta * self.accel * dt + sigma * dt.sqrt() * xi).clamp(a_min, a_max)
            }
            DriverModel::ConstantSpeed => 0.0,
            DriverModel::Ambush { brake_at } => {
                if time >= brake_at {
                    a_min
                } else {
                    0.0
                }
            }
            DriverModel::GapTracking { target_gap, gain } => match lead {
                Some(lead) => (gain * (lead.gap - target_gap)
                    + 2.0 * gain.sqrt() * (lead.velocity - state.velocity))
                    .clamp(a_min, a_max),
                None => 0.0,
            },
        };
        self.accel
    }
}

/// Advances every conflicting vehicle one control step — the stepper's one
/// actuation site.
///
/// Vehicles update in index order, and each gap-tracking follower sees its
/// predecessor's *pre-step* snapshot (both frames sampled at `t`), so the
/// in-place update order cannot leak into the feedback law. The shared-axis
/// headway of vehicle `i` to vehicle `i − 1` is
/// `(start_i − p_i) − (start_{i−1} − p_{i−1})` (each vehicle drives toward
/// decreasing shared coordinates in its own forward frame). Non-platoon
/// models ignore the snapshot and keep their historical RNG streams.
pub(crate) fn actuate_others(
    limits: VehicleLimits,
    pairs: &mut [crate::workspace::Pair],
    t: f64,
    dt: f64,
) {
    let mut lead: Option<(f64, VehicleState)> = None;
    for pair in pairs {
        let pre = pair.truth;
        let info = lead.map(|(lead_start, lead_pre): (f64, VehicleState)| LeadInfo {
            gap: (pair.start - pre.position) - (lead_start - lead_pre.position),
            velocity: lead_pre.velocity,
        });
        let a = pair.driver.accel_following(t, &pre, info, dt);
        pair.truth = limits.step(&pre, a, dt);
        lead = Some((pair.start, pre));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> VehicleLimits {
        VehicleLimits::new(3.0, 14.0, -3.0, 3.0).unwrap()
    }

    #[test]
    fn uniform_random_stays_in_bounds_and_is_seeded() {
        let s = VehicleState::new(0.0, 10.0, 0.0);
        let mut d1 = DriverModel::UniformRandom.driver(limits(), 9);
        let mut d2 = DriverModel::UniformRandom.driver(limits(), 9);
        for i in 0..200 {
            let t = i as f64 * 0.05;
            let a1 = d1.accel(t, &s, 0.05);
            assert!((-3.0..=3.0).contains(&a1));
            assert_eq!(a1, d2.accel(t, &s, 0.05));
        }
    }

    #[test]
    fn ou_accelerations_are_correlated() {
        let s = VehicleState::new(0.0, 10.0, 0.0);
        let model = DriverModel::OrnsteinUhlenbeck {
            theta: 0.5,
            sigma: 1.5,
        };
        let mut d = model.driver(limits(), 4);
        let series: Vec<f64> = (0..400)
            .map(|i| d.accel(i as f64 * 0.05, &s, 0.05))
            .collect();
        // Lag-1 autocorrelation should be clearly positive (white noise ~ 0).
        let mean = series.iter().sum::<f64>() / series.len() as f64;
        let var: f64 = series.iter().map(|a| (a - mean) * (a - mean)).sum();
        let cov: f64 = series
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum();
        let rho = cov / var;
        assert!(rho > 0.5, "lag-1 autocorrelation {rho}");
        assert!(series.iter().all(|a| (-3.0..=3.0).contains(a)));
    }

    #[test]
    fn ambush_switches_to_full_braking() {
        let s = VehicleState::new(0.0, 10.0, 0.0);
        let mut d = DriverModel::Ambush { brake_at: 1.0 }.driver(limits(), 0);
        assert_eq!(d.accel(0.5, &s, 0.05), 0.0);
        assert_eq!(d.accel(1.0, &s, 0.05), -3.0);
        assert_eq!(d.accel(2.0, &s, 0.05), -3.0);
    }

    #[test]
    fn constant_speed_never_accelerates() {
        let s = VehicleState::new(0.0, 10.0, 0.0);
        let mut d = DriverModel::ConstantSpeed.driver(limits(), 0);
        assert_eq!(d.accel(0.0, &s, 0.05), 0.0);
    }

    #[test]
    fn gap_tracker_closes_on_the_target_headway() {
        let model = DriverModel::GapTracking {
            target_gap: 10.0,
            gain: 0.6,
        };
        let mut d = model.driver(limits(), 0);
        // Lead cruises at 10 m/s; follower starts 6 m too far back.
        let lead_v = 10.0;
        let mut follower = VehicleState::new(0.0, 10.0, 0.0);
        let mut gap = 16.0;
        let dt = 0.05;
        for i in 0..1200 {
            let a = d.accel_following(
                i as f64 * dt,
                &follower,
                Some(LeadInfo {
                    gap,
                    velocity: lead_v,
                }),
                dt,
            );
            let next = limits().step(&follower, a, dt);
            // Both frames advance toward decreasing shared coordinates.
            gap -= (next.position - follower.position) - lead_v * dt;
            follower = next;
        }
        assert!((gap - 10.0).abs() < 0.1, "gap settled at {gap}");
        assert!((follower.velocity - lead_v).abs() < 0.1);
    }

    #[test]
    fn gap_tracker_without_predecessor_holds_speed() {
        let s = VehicleState::new(0.0, 10.0, 0.0);
        let mut d = DriverModel::GapTracking {
            target_gap: 9.0,
            gain: 0.6,
        }
        .driver(limits(), 3);
        assert_eq!(d.accel(0.0, &s, 0.05), 0.0);
        assert_eq!(d.accel_following(0.5, &s, None, 0.05), 0.0);
    }

    #[test]
    fn gap_tracker_is_deterministic_and_draws_no_randomness() {
        let s = VehicleState::new(0.0, 9.0, 0.0);
        let lead = Some(LeadInfo {
            gap: 12.0,
            velocity: 10.0,
        });
        let mut d1 = DriverModel::GapTracking {
            target_gap: 9.0,
            gain: 0.6,
        }
        .driver(limits(), 1);
        let mut d2 = DriverModel::GapTracking {
            target_gap: 9.0,
            gain: 0.6,
        }
        .driver(limits(), 999);
        for i in 0..50 {
            let t = i as f64 * 0.05;
            assert_eq!(
                d1.accel_following(t, &s, lead, 0.05),
                d2.accel_following(t, &s, lead, 0.05),
                "seed must not influence the feedback policy"
            );
        }
    }
}
