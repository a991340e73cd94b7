use cv_comm::Message;
use cv_dynamics::{VehicleLimits, VehicleState};
use cv_sensing::Measurement;

use crate::{Interval, VehicleEstimate};

/// Anything that turns a stream of messages and measurements into a belief
/// about one remote vehicle.
///
/// Implemented by [`crate::InformationFilter`] (the paper's filter, used by
/// the compound planners) and [`NaiveEstimator`] (what an unshielded NN
/// planner effectively does with its inputs).
pub trait Estimator {
    /// Incorporates a (possibly delayed) V2V message.
    fn on_message(&mut self, msg: &Message);

    /// Incorporates a fresh but noisy sensor measurement.
    fn on_measurement(&mut self, m: &Measurement);

    /// The belief about the remote vehicle at time `now`.
    fn estimate(&self, now: f64) -> VehicleEstimate;
}

impl<E: Estimator + ?Sized> Estimator for Box<E> {
    fn on_message(&mut self, msg: &Message) {
        (**self).on_message(msg);
    }

    fn on_measurement(&mut self, m: &Measurement) {
        (**self).on_measurement(m);
    }

    fn estimate(&self, now: f64) -> VehicleEstimate {
        (**self).estimate(now)
    }
}

/// The estimator a *pure* NN planner implicitly uses: take the latest V2V
/// message **at face value, as if it described the present** — the
/// perfect-communication assumption the paper's introduction calls out —
/// falling back to the latest raw sensor reading only when no sufficiently
/// recent message exists.
///
/// No extrapolation, no uncertainty: a planner built and trained under
/// perfect communication treats the payload `(p, v, a)` as the current
/// state. With `Δt_d` of delay the belief is consistently `v·Δt_d` metres
/// behind the truth, which is precisely why the unshielded aggressive
/// planner collides in the paper's Table II. Its estimates are point
/// intervals: precise-looking but unsound.
///
/// # Example
///
/// ```
/// use cv_estimation::{Estimator, NaiveEstimator};
/// use cv_dynamics::{VehicleLimits, VehicleState};
/// use cv_comm::Message;
///
/// let limits = VehicleLimits::new(3.0, 14.0, -3.0, 3.0)?;
/// let mut est = NaiveEstimator::new(limits, 0.0, VehicleState::new(0.0, 10.0, 0.0));
/// est.on_message(&Message::new(1, 1.0, 10.0, 10.0, 0.0));
/// // At t = 2.0 the naive belief is still the raw payload: p = 10 m.
/// let e = est.estimate(2.0);
/// assert_eq!(e.position.width(), 0.0);
/// assert!((e.nominal.position - 10.0).abs() < 1e-12);
/// # Ok::<(), cv_dynamics::LimitsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NaiveEstimator {
    limits: VehicleLimits,
    last_msg: Option<(f64, VehicleState)>,
    last_meas: Option<(f64, VehicleState)>,
    initial: (f64, VehicleState),
}

impl NaiveEstimator {
    /// Maximum age (s) of a message before the naive planner falls back to
    /// its sensors.
    pub const MAX_STALENESS: f64 = 1.0;

    /// Creates a naive estimator with an initial belief.
    pub fn new(limits: VehicleLimits, t0: f64, initial: VehicleState) -> Self {
        Self {
            limits,
            last_msg: None,
            last_meas: None,
            initial: (t0, initial),
        }
    }

    /// The information source the estimator would use at `now`.
    fn source(&self, now: f64) -> (f64, VehicleState) {
        match (self.last_msg, self.last_meas) {
            (Some(msg), _) if now - msg.0 <= Self::MAX_STALENESS => msg,
            (msg, Some(meas)) => {
                // Fall back to sensing, unless the (stale) message is still
                // the freshest thing we have.
                match msg {
                    Some(m) if m.0 > meas.0 => m,
                    _ => meas,
                }
            }
            (Some(msg), None) => msg,
            (None, None) => self.initial,
        }
    }
}

impl Estimator for NaiveEstimator {
    fn on_message(&mut self, msg: &Message) {
        if self.last_msg.is_none_or(|(t, _)| msg.stamp >= t) {
            self.last_msg = Some((msg.stamp, msg.state()));
        }
    }

    fn on_measurement(&mut self, m: &Measurement) {
        if self.last_meas.is_none_or(|(t, _)| m.stamp >= t) {
            self.last_meas = Some((
                m.stamp,
                VehicleState::new(m.position, m.velocity, m.acceleration),
            ));
        }
    }

    fn estimate(&self, now: f64) -> VehicleEstimate {
        let (_stamp, s) = self.source(now);
        // Perfect-communication assumption: the payload *is* the present.
        let v = self.limits.clamp_velocity(s.velocity);
        let p = s.position;
        VehicleEstimate {
            time: now,
            position: Interval::point(p),
            velocity: Interval::point(v),
            acceleration: Interval::point(self.limits.clamp_accel(s.acceleration)),
            nominal: VehicleState::new(p, v, self.limits.clamp_accel(s.acceleration)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> VehicleLimits {
        VehicleLimits::new(3.0, 14.0, -3.0, 3.0).unwrap()
    }

    #[test]
    fn prefers_recent_messages_over_fresh_sensing() {
        let mut e = NaiveEstimator::new(limits(), 0.0, VehicleState::new(0.0, 10.0, 0.0));
        e.on_message(&Message::new(1, 0.5, 5.0, 10.0, 0.0));
        e.on_measurement(&Measurement::new(1, 1.0, 11.0, 9.0, 0.0));
        // The message is only 0.5 s old: its raw payload is trusted.
        let est = e.estimate(1.0);
        assert!((est.nominal.position - 5.0).abs() < 1e-12);
        // Once the message is too stale, sensing takes over (raw, too).
        let est = e.estimate(2.0);
        assert!((est.nominal.position - 11.0).abs() < 1e-12);
    }

    #[test]
    fn falls_back_to_initial_belief_without_data() {
        let e = NaiveEstimator::new(limits(), 0.0, VehicleState::new(0.0, 10.0, 0.0));
        let est = e.estimate(1.0);
        assert!((est.nominal.position - 0.0).abs() < 1e-12);
        assert!((est.nominal.velocity - 10.0).abs() < 1e-12);
    }

    #[test]
    fn does_not_extrapolate_stale_data() {
        // The defining flaw of the naive belief: time passes, the belief
        // does not move.
        let e = NaiveEstimator::new(limits(), 0.0, VehicleState::new(0.0, 10.0, 0.0));
        assert!((e.estimate(3.0).nominal.position - 0.0).abs() < 1e-12);
    }

    #[test]
    fn naive_estimate_is_unsound_under_delay() {
        // Demonstrates the failure mode the framework protects against: the
        // true vehicle brakes, but the naive belief marches on.
        let lim = limits();
        let e = NaiveEstimator::new(lim, 0.0, VehicleState::new(0.0, 14.0, 0.0));
        let mut truth = VehicleState::new(0.0, 14.0, 0.0);
        for _ in 0..20 {
            truth = lim.step(&truth, -3.0, 0.1); // braking hard
        }
        let est = e.estimate(2.0);
        assert!(!est.consistent_with(&truth));
    }
}
