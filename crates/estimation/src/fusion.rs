use cv_comm::Message;
use cv_dynamics::{VehicleLimits, VehicleState};
use cv_sensing::{Measurement, SensorNoise};

use crate::{reachability, Estimator, Interval, TrackingFilter, VehicleEstimate};

/// How much processing the information filter applies (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterMode {
    /// Hard bounds only: reachability over the latest message and the
    /// noise-bound-widened latest measurement, joined by intersection.
    /// This is what the *basic* compound planner uses — sound but loose.
    HardOnly,
    /// Hard bounds for the intervals, with a Kalman tracker (including the
    /// paper's message rollback) providing a sharp *nominal* state. This is
    /// the information filter of the *ultimate* compound planner.
    ///
    /// Design note: the paper intersects the Kalman band into the estimate
    /// handed to the runtime monitor. A `k·σ` band is statistical, not
    /// sound, and we found it can (rarely) exclude the truth and defeat the
    /// shield, so here the monitor-facing intervals stay hard and the Kalman
    /// output only sharpens the nominal state that drives the *aggressive*
    /// window — which is exactly the part of the pipeline that is allowed
    /// to be unsound (paper Section III-C). See `DESIGN.md` §3.
    Fused,
}

/// Prior knowledge about a tracked vehicle before any message/measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prior {
    /// Time of the prior.
    pub time: f64,
    /// Prior position bound (target's forward frame).
    pub position: Interval,
    /// Prior velocity bound.
    pub velocity: Interval,
}

impl Prior {
    /// An exact prior at the target's known initial state.
    pub fn exact(time: f64, position: f64, velocity: f64) -> Self {
        Self {
            time,
            position: Interval::point(position),
            velocity: Interval::point(velocity),
        }
    }
}

/// The paper's information filter for one remote vehicle.
///
/// Fuses three sources into a [`VehicleEstimate`]:
///
/// 1. **Prior** — propagated by reachability from `t₀`.
/// 2. **Latest message** (exact, stale) — propagated by reachability
///    (paper Eq. 2).
/// 3. **Latest measurement** (bounded noise, fresh) — widened by `±δ` and
///    propagated by reachability.
///
/// The hard bound is their intersection. In [`FilterMode::Fused`] a
/// [`TrackingFilter`] (Kalman + message rollback) additionally provides the
/// nominal state (its mean, clamped into the hard bound).
///
/// # Example
///
/// ```
/// use cv_estimation::{Estimator, FilterMode, InformationFilter, Prior};
/// use cv_dynamics::VehicleLimits;
/// use cv_sensing::SensorNoise;
/// use cv_comm::Message;
///
/// let limits = VehicleLimits::new(3.0, 14.0, -3.0, 3.0)?;
/// let mut filt = InformationFilter::new(
///     limits,
///     SensorNoise::uniform(1.0),
///     FilterMode::Fused,
///     Prior::exact(0.0, 0.0, 10.0),
/// );
/// filt.on_message(&Message::new(1, 0.0, 0.0, 10.0, 0.0));
/// let est = filt.estimate(0.5);
/// assert!(est.position.contains(5.0)); // constant speed is reachable
/// # Ok::<(), cv_dynamics::LimitsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct InformationFilter {
    limits: VehicleLimits,
    noise: SensorNoise,
    mode: FilterMode,
    prior: Prior,
    last_msg: Option<Message>,
    last_meas: Option<Measurement>,
    tracker: Option<TrackingFilter>,
}

impl InformationFilter {
    /// Creates a filter for a vehicle with physical `limits`, sensed with
    /// `noise`, starting from `prior`.
    pub fn new(limits: VehicleLimits, noise: SensorNoise, mode: FilterMode, prior: Prior) -> Self {
        Self {
            limits,
            noise,
            mode,
            prior,
            last_msg: None,
            last_meas: None,
            tracker: None,
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> FilterMode {
        self.mode
    }

    /// Process-noise acceleration variance matched to the target's physical
    /// acceleration range (uniform over `[a_min, a_max]`), which dominates
    /// the sensor's `δ_a` for freely driven vehicles.
    fn process_accel_var(&self) -> f64 {
        let half_range = 0.5 * (self.limits.a_max() - self.limits.a_min());
        let range_var = half_range * half_range / 3.0;
        range_var.max(SensorNoise::variance(self.noise.delta_a))
    }

    fn new_tracker(&self, t0: f64, position: f64, velocity: f64) -> TrackingFilter {
        TrackingFilter::new(self.noise, t0, position, velocity)
            .with_process_accel_var(self.process_accel_var())
    }

    fn hard_position_velocity(&self, now: f64) -> (Interval, Interval) {
        // Intersect the candidate reach sets as they are produced — same
        // order as before (prior, message, measurement), no per-call Vec:
        // this runs every control step of every episode.
        let prior = reachability::reach(
            self.prior.position,
            clamp_velocity_interval(self.prior.velocity, &self.limits),
            (now - self.prior.time).max(0.0),
            &self.limits,
        );
        let mut p = prior.position;
        let mut v = prior.velocity;
        // The truth lies in every candidate, so the intersection is
        // nonempty up to floating-point noise; fall back to the tighter
        // candidate if rounding makes them disjoint.
        let refine = |p: &mut Interval, v: &mut Interval, c: reachability::ReachSet| {
            *p = p
                .intersect(&c.position)
                .unwrap_or_else(|| tighter(*p, c.position));
            *v = v
                .intersect(&c.velocity)
                .unwrap_or_else(|| tighter(*v, c.velocity));
        };
        if let Some(msg) = &self.last_msg {
            refine(
                &mut p,
                &mut v,
                reachability::reach(
                    Interval::point(msg.position),
                    clamp_velocity_interval(Interval::point(msg.velocity), &self.limits),
                    (now - msg.stamp).max(0.0),
                    &self.limits,
                ),
            );
        }
        if let Some(m) = &self.last_meas {
            let mp = Interval::centered(m.position, self.noise.delta_p);
            let mv = clamp_velocity_interval(
                Interval::centered(m.velocity, self.noise.delta_v),
                &self.limits,
            );
            refine(
                &mut p,
                &mut v,
                reachability::reach(mp, mv, (now - m.stamp).max(0.0), &self.limits),
            );
        }
        // Guard against the ~1 ulp discrepancy between the closed-form
        // reachability bound and the step-wise simulated integrator.
        (p.expand(1e-9), v.expand(1e-9))
    }

    fn accel_bound(&self) -> Interval {
        let a_range = Interval::new(self.limits.a_min(), self.limits.a_max());
        let from_msg = self
            .last_msg
            .as_ref()
            .map(|m| (m.stamp, Interval::point(m.acceleration)));
        let from_meas = self.last_meas.as_ref().map(|m| {
            (
                m.stamp,
                Interval::centered(m.acceleration, self.noise.delta_a),
            )
        });
        let latest = match (from_msg, from_meas) {
            (Some((t1, a1)), Some((t2, a2))) => Some(if t1 >= t2 { a1 } else { a2 }),
            (Some((_, a)), None) | (None, Some((_, a))) => Some(a),
            (None, None) => None,
        };
        match latest {
            Some(a) => a.intersect(&a_range).unwrap_or(a_range),
            None => a_range,
        }
    }
}

fn clamp_velocity_interval(v: Interval, limits: &VehicleLimits) -> Interval {
    let physical = Interval::new(limits.v_min(), limits.v_max());
    v.intersect(&physical).unwrap_or_else(|| {
        // Measurement noise pushed the whole interval out of range; snap to
        // the nearest physical bound.
        if v.hi() < physical.lo() {
            Interval::point(physical.lo())
        } else {
            Interval::point(physical.hi())
        }
    })
}

fn tighter(a: Interval, b: Interval) -> Interval {
    if a.width() <= b.width() {
        a
    } else {
        b
    }
}

impl Estimator for InformationFilter {
    fn on_message(&mut self, msg: &Message) {
        let newer = self.last_msg.is_none_or(|m| msg.stamp > m.stamp);
        if newer {
            self.last_msg = Some(*msg);
        }
        if self.mode == FilterMode::Fused {
            match &mut self.tracker {
                Some(t) => t.on_message(msg),
                None => {
                    let mut t = self.new_tracker(msg.stamp, msg.position, msg.velocity);
                    t.on_message(msg);
                    self.tracker = Some(t);
                }
            }
        }
    }

    fn on_measurement(&mut self, m: &Measurement) {
        let newer = self.last_meas.is_none_or(|prev| m.stamp >= prev.stamp);
        if newer {
            self.last_meas = Some(*m);
        }
        if self.mode == FilterMode::Fused {
            match &mut self.tracker {
                Some(t) => t.on_measurement(m),
                None => {
                    let mut t = self.new_tracker(m.stamp, m.position, m.velocity);
                    t.on_measurement(m);
                    self.tracker = Some(t);
                }
            }
        }
    }

    fn estimate(&self, now: f64) -> VehicleEstimate {
        let (hard_p, hard_v) = self.hard_position_velocity(now);
        let accel = self.accel_bound();
        match (&self.tracker, self.mode) {
            (Some(t), FilterMode::Fused) => {
                // Monitor-facing intervals stay hard (sound); the Kalman
                // mean sharpens only the nominal state.
                let (mean, _) = t.predicted(now);
                VehicleEstimate {
                    time: now,
                    position: hard_p,
                    velocity: hard_v,
                    acceleration: accel,
                    nominal: VehicleState::new(
                        hard_p.clamp(mean.x),
                        hard_v.clamp(mean.y),
                        accel.clamp(t.last_accel()),
                    ),
                }
            }
            _ => VehicleEstimate {
                time: now,
                position: hard_p,
                velocity: hard_v,
                acceleration: accel,
                nominal: VehicleState::new(hard_p.midpoint(), hard_v.midpoint(), accel.midpoint()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_rng::{Rng, SplitMix64};

    fn limits() -> VehicleLimits {
        VehicleLimits::new(3.0, 14.0, -3.0, 3.0).unwrap()
    }

    fn filter(mode: FilterMode) -> InformationFilter {
        InformationFilter::new(
            limits(),
            SensorNoise::uniform(1.0),
            mode,
            Prior::exact(0.0, 0.0, 10.0),
        )
    }

    #[test]
    fn prior_only_estimate_grows_with_time() {
        let f = filter(FilterMode::HardOnly);
        let e1 = f.estimate(0.5);
        let e2 = f.estimate(1.0);
        assert!(e2.uncertainty() > e1.uncertainty());
        assert!(e1.position.contains(5.0)); // constant 10 m/s
    }

    #[test]
    fn message_tightens_estimate() {
        let mut f = filter(FilterMode::HardOnly);
        let loose = f.estimate(2.0).uncertainty();
        f.on_message(&Message::new(1, 1.8, 18.0, 10.0, 0.0));
        let tight = f.estimate(2.0).uncertainty();
        assert!(tight < loose);
    }

    #[test]
    fn measurement_tightens_estimate() {
        let mut f = filter(FilterMode::HardOnly);
        let loose = f.estimate(2.0).uncertainty();
        f.on_measurement(&Measurement::new(1, 2.0, 20.0, 10.0, 0.0));
        let tight = f.estimate(2.0).uncertainty();
        assert!(tight < loose);
        // Fresh measurement: position bound is ± δ_p.
        assert!((f.estimate(2.0).position.width() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn fused_mode_is_at_least_as_tight_as_hard_only() {
        let mut hard = filter(FilterMode::HardOnly);
        let mut fused = filter(FilterMode::Fused);
        let mut rng = SplitMix64::seed_from_u64(5);
        let lim = limits();
        let mut truth = cv_dynamics::VehicleState::new(0.0, 10.0, 0.0);
        for i in 1..=30 {
            let t = i as f64 * 0.1;
            truth = lim.step(&truth, rng.random_range(-2.0..2.0), 0.1);
            let meas = Measurement::new(
                1,
                t,
                truth.position + rng.random_range(-1.0..1.0),
                truth.velocity + rng.random_range(-1.0..1.0),
                truth.acceleration + rng.random_range(-1.0..1.0),
            );
            hard.on_measurement(&meas);
            fused.on_measurement(&meas);
        }
        let now = 3.2; // a little after the last measurement
        let eh = hard.estimate(now);
        let ef = fused.estimate(now);
        assert!(ef.uncertainty() <= eh.uncertainty() + 1e-9);
        // Both must remain sound at the measurement times they saw.
        assert!(eh.position.lo() <= truth.position + lim.v_max() * 0.2);
    }

    /// Soundness: under random driving, messages, and measurements, the hard
    /// estimate always contains the true state.
    #[test]
    fn hard_estimate_always_contains_truth() {
        let lim = limits();
        let dt = 0.05;
        for seed in 0..20u64 {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let mut truth = cv_dynamics::VehicleState::new(0.0, rng.random_range(3.0..14.0), 0.0);
            let mut f = InformationFilter::new(
                lim,
                SensorNoise::uniform(2.0),
                FilterMode::HardOnly,
                Prior::exact(0.0, truth.position, truth.velocity),
            );
            for i in 1..=100 {
                let t = i as f64 * dt;
                truth = lim.step(&truth, rng.random_range(-3.0..3.0), dt);
                // Message every 0.25 s, delayed but exact; measurement every 0.1 s.
                if i % 5 == 0 {
                    f.on_message(&Message::from_state(1, t, &truth));
                }
                if i % 2 == 0 {
                    f.on_measurement(&Measurement::new(
                        1,
                        t,
                        truth.position + rng.random_range(-2.0..2.0),
                        truth.velocity + rng.random_range(-2.0..2.0),
                        truth.acceleration + rng.random_range(-2.0..2.0),
                    ));
                }
                let est = f.estimate(t);
                assert!(
                    est.consistent_with(&truth),
                    "seed {seed} step {i}: truth {truth} not in p={} v={}",
                    est.position,
                    est.velocity
                );
            }
        }
    }

    #[test]
    fn nominal_stays_inside_intervals() {
        let mut f = filter(FilterMode::Fused);
        f.on_measurement(&Measurement::new(1, 0.1, 1.0, 10.0, 0.0));
        f.on_message(&Message::new(1, 0.05, 0.5, 10.0, 0.0));
        let e = f.estimate(0.3);
        assert!(e.position.contains(e.nominal.position));
        assert!(e.velocity.contains(e.nominal.velocity));
    }
}
