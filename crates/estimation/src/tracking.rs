use std::collections::VecDeque;

use cv_comm::Message;
use cv_sensing::{Measurement, SensorNoise};

use crate::{KalmanFilter, Mat2, Vec2};

/// One stored sensing event, kept for message-triggered replay.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SensorRecord {
    stamp: f64,
    z: Vec2,
    accel: f64,
}

/// Kalman tracker for one remote vehicle with the paper's message rollback.
///
/// This is the "modified design" of paper §III-B: every sensing period the
/// extrapolated state and covariance are (conceptually) stored, and *"every
/// time a message recording the states of `C_i` at time `t_k` arrives,
/// `x̂(t_k)`/`P(t_k)` are restored and the filter renews the estimations from
/// `t_k` to the current timestamp"*. Because the message payload is exact,
/// restoring means pinning the state to the payload with near-zero
/// covariance, then replaying the retained measurements after `t_k`.
///
/// # Example
///
/// ```
/// use cv_estimation::TrackingFilter;
/// use cv_sensing::{Measurement, SensorNoise};
/// use cv_comm::Message;
///
/// let mut tf = TrackingFilter::new(SensorNoise::uniform(1.0), 0.0, 50.0, 10.0);
/// tf.on_measurement(&Measurement::new(1, 0.1, 50.9, 10.2, 0.0));
/// // A delayed message about t = 0.05 arrives at t = 0.3:
/// tf.on_message(&Message::new(1, 0.05, 50.5, 10.0, 0.0));
/// let (state, _) = tf.predicted(0.3);
/// assert!((state.x - 53.0).abs() < 1.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TrackingFilter {
    kf: KalmanFilter,
    /// Time of the current posterior estimate.
    last_time: f64,
    /// Latest acceleration input, used to extrapolate beyond `last_time`.
    last_accel: f64,
    history: VecDeque<SensorRecord>,
}

impl TrackingFilter {
    /// Number of retained sensing events for rollback replay.
    ///
    /// At `Δt_s = 0.1 s` this covers 20 s of history — far beyond any
    /// realistic message delay.
    pub const MAX_HISTORY: usize = 256;

    /// Creates a tracker initialised at time `t0` with a rough guess of the
    /// target's position and velocity (covariance starts wide).
    pub fn new(noise: SensorNoise, t0: f64, position_guess: f64, velocity_guess: f64) -> Self {
        Self {
            kf: KalmanFilter::new(
                noise,
                Vec2::new(position_guess, velocity_guess),
                Mat2::diag(25.0, 25.0),
            ),
            last_time: t0,
            last_accel: 0.0,
            // Sized for the common case up front: the rollback/replay path
            // pushes one record per sensing period, and regrowing the ring
            // mid-episode is the only allocation the tracker would make.
            history: VecDeque::with_capacity(64),
        }
    }

    /// Overrides the underlying filter's process-noise acceleration
    /// variance (see [`KalmanFilter::with_process_accel_var`]).
    ///
    /// # Panics
    ///
    /// Panics if `var` is negative or non-finite.
    pub fn with_process_accel_var(mut self, var: f64) -> Self {
        self.kf = self.kf.clone().with_process_accel_var(var);
        self
    }

    /// Time of the latest posterior estimate.
    pub fn last_time(&self) -> f64 {
        self.last_time
    }

    /// Incorporates a sensor measurement taken at `m.stamp`.
    ///
    /// Measurements must arrive in nondecreasing stamp order (sensors have
    /// no delay); out-of-order measurements are ignored.
    pub fn on_measurement(&mut self, m: &Measurement) {
        if m.stamp < self.last_time - 1e-12 {
            return;
        }
        let dt = (m.stamp - self.last_time).max(0.0);
        self.kf.predict(self.last_accel, dt);
        let z = Vec2::new(m.position, m.velocity);
        self.kf.update(z);
        self.last_time = m.stamp;
        self.last_accel = m.acceleration;
        self.history.push_back(SensorRecord {
            stamp: m.stamp,
            z,
            accel: m.acceleration,
        });
        while self.history.len() > Self::MAX_HISTORY {
            self.history.pop_front();
        }
    }

    /// Incorporates an exact (possibly delayed) V2V message.
    ///
    /// If the message is newer than every measurement, the filter simply
    /// fast-forwards and pins itself to the payload. If it is stale, the
    /// filter rolls back to `msg.stamp`, pins the state there, and replays
    /// the retained measurements taken after `msg.stamp`.
    pub fn on_message(&mut self, msg: &Message) {
        let payload = Vec2::new(msg.position, msg.velocity);
        if msg.stamp >= self.last_time {
            self.kf.reset_exact(payload);
            self.last_time = msg.stamp;
            self.last_accel = msg.acceleration;
            self.history.clear();
            return;
        }
        // Rollback: pin at msg.stamp, replay newer measurements.
        self.kf.reset_exact(payload);
        let mut t = msg.stamp;
        let mut accel = msg.acceleration;
        self.history.retain(|r| r.stamp > msg.stamp + 1e-12);
        // VecDeque::retain keeps order; replay in place.
        for r in self.history.iter() {
            self.kf.predict(accel, (r.stamp - t).max(0.0));
            self.kf.update(r.z);
            t = r.stamp;
            accel = r.accel;
        }
        self.last_time = t;
        self.last_accel = accel;
    }

    /// Extrapolated state and covariance at `now ≥ last_time`, without
    /// mutating the filter.
    pub fn predicted(&self, now: f64) -> (Vec2, Mat2) {
        let mut kf = self.kf.clone();
        kf.predict(self.last_accel, (now - self.last_time).max(0.0));
        (kf.state(), kf.covariance())
    }

    /// Latest known acceleration input of the target.
    pub fn last_accel(&self) -> f64 {
        self.last_accel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_dynamics::{VehicleLimits, VehicleState};
    use cv_rng::{Rng, SplitMix64};

    #[test]
    fn measurement_sequence_tracks_target() {
        let mut tf = TrackingFilter::new(SensorNoise::uniform(1.0), 0.0, 0.0, 5.0);
        let mut rng = SplitMix64::seed_from_u64(3);
        let mut p = 0.0;
        let v = 6.0;
        for i in 1..=200 {
            let t = i as f64 * 0.1;
            p += v * 0.1;
            tf.on_measurement(&Measurement::new(
                1,
                t,
                p + rng.random_range(-1.0..1.0),
                v + rng.random_range(-1.0..1.0),
                0.0,
            ));
        }
        let (x, _) = tf.predicted(20.0);
        assert!((x.x - p).abs() < 0.5, "position err {}", (x.x - p).abs());
        assert!((x.y - v).abs() < 0.3, "velocity err {}", (x.y - v).abs());
    }

    #[test]
    fn fresh_message_pins_estimate_exactly() {
        let mut tf = TrackingFilter::new(SensorNoise::uniform(2.0), 0.0, 0.0, 0.0);
        tf.on_measurement(&Measurement::new(1, 0.1, 55.0, 3.0, 0.0));
        tf.on_message(&Message::new(1, 0.2, 40.0, 8.0, 1.0));
        let (x, p) = tf.predicted(0.2);
        assert_eq!(x, Vec2::new(40.0, 8.0));
        assert!(p.a < 1e-6);
    }

    #[test]
    fn stale_message_rollback_improves_estimate() {
        // Target moves with a known accel profile; sensor is very noisy.
        // A delayed exact message about the past should *reduce* the error
        // at the current time versus not having the message.
        let limits = VehicleLimits::new(0.0, 20.0, -3.0, 3.0).unwrap();
        let mut rng = SplitMix64::seed_from_u64(9);
        let dt = 0.1;
        let mut truth = VehicleState::new(0.0, 8.0, 0.0);
        let mut with_msg = TrackingFilter::new(SensorNoise::uniform(3.0), 0.0, 0.0, 8.0);
        let mut without_msg = with_msg.clone();
        let mut truth_at_1s = truth;
        for i in 1..=20 {
            let t = i as f64 * dt;
            let a = rng.random_range(-2.0..2.0);
            truth = limits.step(&truth, a, dt);
            let m = Measurement::new(
                1,
                t,
                truth.position + rng.random_range(-3.0..3.0),
                truth.velocity + rng.random_range(-3.0..3.0),
                truth.acceleration + rng.random_range(-3.0..3.0),
            );
            with_msg.on_measurement(&m);
            without_msg.on_measurement(&m);
            if i == 10 {
                truth_at_1s = truth;
            }
        }
        // Message about t = 1.0 arrives (delayed by 1 s).
        with_msg.on_message(&Message::from_state(1, 1.0, &truth_at_1s));
        let (xw, _) = with_msg.predicted(2.0);
        let (xo, _) = without_msg.predicted(2.0);
        let err_with = (xw.x - truth.position).abs();
        let err_without = (xo.x - truth.position).abs();
        assert!(
            err_with <= err_without + 0.2,
            "rollback made things worse: {err_with} vs {err_without}"
        );
    }

    #[test]
    fn rollback_replays_only_newer_measurements() {
        let mut tf = TrackingFilter::new(SensorNoise::uniform(1.0), 0.0, 0.0, 5.0);
        for i in 1..=5 {
            tf.on_measurement(&Measurement::new(1, i as f64 * 0.1, i as f64, 5.0, 0.0));
        }
        tf.on_message(&Message::new(1, 0.3, 3.0, 5.0, 0.0));
        // History before/at 0.3 must be gone: a later message at 0.2 fast-
        // forward path is not taken; check last_time is the last replay.
        assert!((tf.last_time() - 0.5).abs() < 1e-12);
    }

    /// Pins the message-triggered rollback replay (paper §III-B) against a
    /// trace computed by hand from the filter equations: with `δ = 1`
    /// everywhere, `R = diag(1/3, 1/3)` and process variance `δ_a²/3 = 1/3`.
    /// The delayed message pins `(0.6, 10.0)` at `t = 0.05` with
    /// `P = diag(1e-9, 1e-9)`; the replay is then exactly
    ///
    /// ```text
    /// predict(a = 0.2, Δt = 0.05) → x = (1.10025, 10.01)
    /// update(z₁ = (1.0, 10.5))    → x = (1.1002803921026938, 10.01121569469008)
    /// predict(a = 0.5, Δt = 0.1)  → x = (2.103901961571702, 10.06121569469008)
    /// update(z₂ = (2.1, 10.8))    → x = (2.104493963620591, 10.070328392211479)
    /// ```
    ///
    /// evaluated step by step with the scalar closed forms of the predict
    /// and Joseph-form update equations (independently of `KalmanFilter`).
    #[test]
    fn rollback_replay_matches_hand_computed_two_step_trace() {
        let mut tf = TrackingFilter::new(SensorNoise::uniform(1.0), 0.0, 0.0, 0.0);
        tf.on_measurement(&Measurement::new(1, 0.1, 1.0, 10.5, 0.5));
        tf.on_measurement(&Measurement::new(1, 0.2, 2.1, 10.8, -0.3));
        // Delayed exact message about t = 0.05, older than both records:
        // roll back, pin, replay the two retained measurements.
        tf.on_message(&Message::new(1, 0.05, 0.6, 10.0, 0.2));

        assert!((tf.last_time() - 0.2).abs() < 1e-12);
        assert!((tf.last_accel() - (-0.3)).abs() < 1e-12);

        let (x, p) = tf.predicted(0.2);
        assert!((x.x - 2.104_493_963_620_591).abs() < 1e-9, "x.x = {}", x.x);
        assert!((x.y - 10.070_328_392_211_48).abs() < 1e-9, "x.y = {}", x.y);
        assert!(
            (p.a - 2.110_444_163_483_168_5e-5).abs() < 1e-9,
            "p.a = {}",
            p.a
        );
        assert!(
            (p.b - 2.672_178_653_468_012e-4).abs() < 1e-9,
            "p.b = {}",
            p.b
        );
        assert!((p.c - p.b).abs() < 1e-15, "P must stay symmetric");
        assert!(
            (p.d - 4.112_984_659_349_493e-3).abs() < 1e-9,
            "p.d = {}",
            p.d
        );

        // Extrapolating past the replay uses the last replayed accel
        // (−0.3): one more hand-computed prediction step to t = 0.25.
        let (xe, _) = tf.predicted(0.25);
        assert!(
            (xe.x - 2.607_635_383_231_165).abs() < 1e-9,
            "xe.x = {}",
            xe.x
        );
        assert!(
            (xe.y - 10.055_328_392_211_479).abs() < 1e-9,
            "xe.y = {}",
            xe.y
        );
    }

    #[test]
    fn out_of_order_measurement_is_ignored() {
        let mut tf = TrackingFilter::new(SensorNoise::uniform(1.0), 0.0, 0.0, 5.0);
        tf.on_measurement(&Measurement::new(1, 0.5, 2.5, 5.0, 0.0));
        let before = tf.predicted(0.5);
        tf.on_measurement(&Measurement::new(1, 0.2, 999.0, 99.0, 0.0));
        assert_eq!(tf.predicted(0.5), before);
    }

    /// Platoon invariant: per-pair filters are fully independent. A pair's
    /// posterior is a function of *its own* event stream alone — starving
    /// or flooding a neighbouring pair's filter (a stalled V2V channel, a
    /// rollback storm) must leave it bit-identical. The platoon episode
    /// loop relies on this to keep one disturbed channel from perturbing
    /// the other pairs' interval estimates.
    #[test]
    fn per_pair_filters_are_bitwise_independent() {
        let stream_for = |id: usize| {
            let mut rng = SplitMix64::seed_from_u64(100 + id as u64);
            let mut events = Vec::new();
            for i in 1..=40 {
                let t = i as f64 * 0.1;
                events.push(Measurement::new(
                    id,
                    t,
                    10.0 * t + rng.random_range(-1.0..1.0),
                    10.0 + rng.random_range(-1.0..1.0),
                    0.0,
                ));
            }
            events
        };

        // Run 1: pair 0 alone.
        let mut solo = TrackingFilter::new(SensorNoise::uniform(1.0), 0.0, 52.0, 10.0);
        for m in stream_for(1) {
            solo.on_measurement(&m);
        }

        // Run 2: pair 0 next to a heavily disturbed pair 1 — interleaved
        // measurements plus delayed-message rollbacks on pair 1 only.
        let mut pair0 = TrackingFilter::new(SensorNoise::uniform(1.0), 0.0, 52.0, 10.0);
        let mut pair1 = TrackingFilter::new(SensorNoise::uniform(1.0), 0.0, 61.0, 10.0);
        for (m0, m1) in stream_for(1).iter().zip(stream_for(2).iter()) {
            pair0.on_measurement(m0);
            pair1.on_measurement(m1);
            // Pair 1's channel is a mess: every event triggers a stale
            // rollback replay. Pair 0 never sees any of it.
            pair1.on_message(&Message::new(2, m1.stamp - 0.25, 9.0 * m1.stamp, 9.5, 0.1));
        }
        assert_eq!(solo, pair0, "a neighbour's channel leaked into pair 0");
        let (a, pa) = solo.predicted(4.5);
        let (b, pb) = pair0.predicted(4.5);
        assert_eq!(
            (a.x.to_bits(), a.y.to_bits()),
            (b.x.to_bits(), b.y.to_bits())
        );
        assert_eq!(pa, pb);
    }

    #[test]
    fn history_is_bounded() {
        let mut tf = TrackingFilter::new(SensorNoise::uniform(1.0), 0.0, 0.0, 5.0);
        for i in 1..=1000 {
            tf.on_measurement(&Measurement::new(1, i as f64 * 0.1, 0.0, 5.0, 0.0));
        }
        assert!(tf.history.len() <= TrackingFilter::MAX_HISTORY);
    }
}
