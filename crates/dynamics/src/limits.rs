use crate::VehicleState;

/// Error returned when constructing an inconsistent [`VehicleLimits`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LimitsError {
    /// `v_min > v_max`.
    VelocityRangeEmpty,
    /// `a_min > a_max`.
    AccelRangeEmpty,
    /// `a_min` must be strictly negative (braking must be possible).
    BrakingImpossible,
    /// `a_max` must be strictly positive (acceleration must be possible).
    ThrottleImpossible,
    /// A bound was NaN or infinite.
    NonFinite,
}

impl std::fmt::Display for LimitsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LimitsError::VelocityRangeEmpty => write!(f, "velocity range is empty (v_min > v_max)"),
            LimitsError::AccelRangeEmpty => {
                write!(f, "acceleration range is empty (a_min > a_max)")
            }
            LimitsError::BrakingImpossible => write!(f, "a_min must be strictly negative"),
            LimitsError::ThrottleImpossible => write!(f, "a_max must be strictly positive"),
            LimitsError::NonFinite => write!(f, "limit bounds must be finite"),
        }
    }
}

impl std::error::Error for LimitsError {}

/// Physical actuation and velocity limits of a vehicle.
///
/// These are the `v_min`, `v_max`, `a_min`, `a_max` bounds used throughout the
/// paper: in the braking-distance term of the slack (Eq. 5), in the
/// reachability analysis over stale messages (Eq. 2), and in the conservative
/// passing-time-window estimation (Eq. 7).
///
/// Invariants (checked by [`VehicleLimits::new`]):
/// `v_min ≤ v_max`, `a_min < 0 < a_max`, all finite.
///
/// # Example
///
/// ```
/// use cv_dynamics::VehicleLimits;
///
/// let limits = VehicleLimits::new(0.0, 12.0, -6.0, 3.0)?;
/// assert_eq!(limits.clamp_accel(100.0), 3.0);
/// assert_eq!(limits.clamp_accel(-100.0), -6.0);
/// # Ok::<(), cv_dynamics::LimitsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VehicleLimits {
    v_min: f64,
    v_max: f64,
    a_min: f64,
    a_max: f64,
}

impl VehicleLimits {
    /// Creates a new set of limits.
    ///
    /// # Errors
    ///
    /// Returns a [`LimitsError`] if the ranges are empty, `a_min` is not
    /// strictly negative, `a_max` is not strictly positive, or any bound is
    /// not finite.
    pub fn new(v_min: f64, v_max: f64, a_min: f64, a_max: f64) -> Result<Self, LimitsError> {
        if !(v_min.is_finite() && v_max.is_finite() && a_min.is_finite() && a_max.is_finite()) {
            return Err(LimitsError::NonFinite);
        }
        if v_min > v_max {
            return Err(LimitsError::VelocityRangeEmpty);
        }
        if a_min > a_max {
            return Err(LimitsError::AccelRangeEmpty);
        }
        if a_min >= 0.0 {
            return Err(LimitsError::BrakingImpossible);
        }
        if a_max <= 0.0 {
            return Err(LimitsError::ThrottleImpossible);
        }
        Ok(Self {
            v_min,
            v_max,
            a_min,
            a_max,
        })
    }

    /// Minimum velocity `v_min` (m/s).
    pub fn v_min(&self) -> f64 {
        self.v_min
    }

    /// Maximum velocity `v_max` (m/s).
    pub fn v_max(&self) -> f64 {
        self.v_max
    }

    /// Maximum braking (most negative acceleration) `a_min` (m/s²).
    pub fn a_min(&self) -> f64 {
        self.a_min
    }

    /// Maximum throttle `a_max` (m/s²).
    pub fn a_max(&self) -> f64 {
        self.a_max
    }

    /// Clamps an acceleration command into `[a_min, a_max]`.
    pub fn clamp_accel(&self, accel: f64) -> f64 {
        accel.clamp(self.a_min, self.a_max)
    }

    /// Clamps a velocity into `[v_min, v_max]`.
    pub fn clamp_velocity(&self, velocity: f64) -> f64 {
        velocity.clamp(self.v_min, self.v_max)
    }

    /// Advances a vehicle state by one control step of length `dt` under the
    /// (clamped) acceleration command `accel`, saturating velocity exactly.
    ///
    /// If the commanded acceleration would push the velocity past `v_max`
    /// (or below `v_min`) inside the step, the position update integrates the
    /// accelerated segment up to the saturation instant and the constant-
    /// velocity segment after it. This makes the discrete model consistent
    /// with the piecewise closed-form reachability bound of paper Eq. 2.
    ///
    /// The returned state stores the clamped acceleration that was actually
    /// applied over the (initial part of the) step.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `dt <= 0`.
    pub fn step(&self, state: &VehicleState, accel: f64, dt: f64) -> VehicleState {
        debug_assert!(dt > 0.0, "time step must be positive, got {dt}");
        let a = self.clamp_accel(accel);
        let v0 = self.clamp_velocity(state.velocity);
        let v_unclamped = v0 + a * dt;

        let (position, velocity) = if v_unclamped > self.v_max {
            // Accelerating into the upper velocity bound.
            let t_sat = if a.abs() > f64::EPSILON {
                ((self.v_max - v0) / a).clamp(0.0, dt)
            } else {
                0.0
            };
            let p_sat = state.position + v0 * t_sat + 0.5 * a * t_sat * t_sat;
            (p_sat + self.v_max * (dt - t_sat), self.v_max)
        } else if v_unclamped < self.v_min {
            // Braking into the lower velocity bound.
            let t_sat = if a.abs() > f64::EPSILON {
                ((self.v_min - v0) / a).clamp(0.0, dt)
            } else {
                0.0
            };
            let p_sat = state.position + v0 * t_sat + 0.5 * a * t_sat * t_sat;
            (p_sat + self.v_min * (dt - t_sat), self.v_min)
        } else {
            (state.position + v0 * dt + 0.5 * a * dt * dt, v_unclamped)
        };

        VehicleState {
            position,
            velocity,
            acceleration: a,
        }
    }
}

impl std::fmt::Display for VehicleLimits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "v ∈ [{}, {}] m/s, a ∈ [{}, {}] m/s²",
            self.v_min, self.v_max, self.a_min, self.a_max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> VehicleLimits {
        VehicleLimits::new(0.0, 10.0, -5.0, 2.0).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert_eq!(
            VehicleLimits::new(5.0, 1.0, -1.0, 1.0),
            Err(LimitsError::VelocityRangeEmpty)
        );
        assert_eq!(
            VehicleLimits::new(0.0, 1.0, 1.0, 0.5),
            Err(LimitsError::AccelRangeEmpty)
        );
        assert_eq!(
            VehicleLimits::new(0.0, 1.0, 0.0, 1.0),
            Err(LimitsError::BrakingImpossible)
        );
        assert_eq!(
            VehicleLimits::new(0.0, 1.0, -1.0, 0.0),
            Err(LimitsError::ThrottleImpossible)
        );
        assert_eq!(
            VehicleLimits::new(f64::NAN, 1.0, -1.0, 1.0),
            Err(LimitsError::NonFinite)
        );
    }

    #[test]
    fn plain_step_matches_double_integrator() {
        let s = VehicleState::new(0.0, 5.0, 0.0);
        let n = limits().step(&s, 2.0, 0.1);
        assert!((n.position - (0.5 + 0.5 * 2.0 * 0.01)).abs() < 1e-12);
        assert!((n.velocity - 5.2).abs() < 1e-12);
        assert_eq!(n.acceleration, 2.0);
    }

    #[test]
    fn accel_is_clamped() {
        let s = VehicleState::new(0.0, 5.0, 0.0);
        let n = limits().step(&s, 100.0, 0.1);
        assert_eq!(n.acceleration, 2.0);
    }

    #[test]
    fn velocity_saturates_exactly_at_v_max() {
        // v0 = 9.9, a = 2 over dt = 0.1 -> saturates at t_sat = 0.05.
        let s = VehicleState::new(0.0, 9.9, 0.0);
        let n = limits().step(&s, 2.0, 0.1);
        assert_eq!(n.velocity, 10.0);
        let expect = 9.9 * 0.05 + 0.5 * 2.0 * 0.05 * 0.05 + 10.0 * 0.05;
        assert!((n.position - expect).abs() < 1e-12, "{}", n.position);
    }

    #[test]
    fn velocity_saturates_exactly_at_v_min() {
        // v0 = 0.2, a = -5 -> stops at t_sat = 0.04 and stays stopped.
        let s = VehicleState::new(0.0, 0.2, 0.0);
        let n = limits().step(&s, -5.0, 0.1);
        assert_eq!(n.velocity, 0.0);
        let expect = 0.2 * 0.04 + 0.5 * (-5.0) * 0.04 * 0.04;
        assert!((n.position - expect).abs() < 1e-12);
    }

    #[test]
    fn stopped_vehicle_stays_stopped_under_braking() {
        let s = VehicleState::new(3.0, 0.0, 0.0);
        let n = limits().step(&s, -5.0, 0.1);
        assert_eq!(n.velocity, 0.0);
        assert_eq!(n.position, 3.0);
    }

    #[test]
    fn saturated_step_position_never_exceeds_vmax_travel() {
        let s = VehicleState::new(0.0, 9.5, 0.0);
        let n = limits().step(&s, 2.0, 1.0);
        assert!(n.position <= 10.0 * 1.0 + 1e-12);
    }

    mod props {
        use super::*;

        cv_rng::props! {            fn velocity_always_within_limits(
                v0 in 0.0..10.0f64,
                a in -5.0..2.0f64,
                dt in 0.001..0.5f64,
            ) {
                let s = VehicleState::new(0.0, v0, 0.0);
                let n = limits().step(&s, a, dt);
                assert!(n.velocity >= 0.0 - 1e-12);
                assert!(n.velocity <= 10.0 + 1e-12);
            }
            fn position_advance_bounded_by_velocity_envelope(
                v0 in 0.0..10.0f64,
                a in -5.0..2.0f64,
                dt in 0.001..0.5f64,
            ) {
                let s = VehicleState::new(0.0, v0, 0.0);
                let n = limits().step(&s, a, dt);
                // The vehicle can never travel further than at v_max the
                // whole step, nor "go backward" below v_min = 0 travel.
                assert!(n.position <= 10.0 * dt + 1e-9);
                assert!(n.position >= -1e-9);
            }
            fn max_throttle_dominates(
                v0 in 0.0..10.0f64,
                a in -5.0..2.0f64,
                dt in 0.001..0.5f64,
            ) {
                let s = VehicleState::new(0.0, v0, 0.0);
                let n = limits().step(&s, a, dt);
                let n_max = limits().step(&s, 2.0, dt);
                assert!(n_max.position + 1e-9 >= n.position);
                assert!(n_max.velocity + 1e-9 >= n.velocity);
            }
            fn step_is_continuous_in_dt(
                v0 in 0.0..10.0f64,
                a in -5.0..2.0f64,
                dt in 0.002..0.5f64,
            ) {
                // Splitting a step in two must give the same end state
                // (semigroup property of the exact integrator).
                let s = VehicleState::new(0.0, v0, 0.0);
                let whole = limits().step(&s, a, dt);
                let half = limits().step(&s, a, dt / 2.0);
                let two = limits().step(&half, a, dt / 2.0);
                assert!((whole.position - two.position).abs() < 1e-9);
                assert!((whole.velocity - two.velocity).abs() < 1e-9);
            }
        }
    }
}
