use cv_sensing::SensorNoise;

use crate::{Mat2, Vec2};

/// Kalman filter over the `(position, velocity)` state of one tracked
/// vehicle, following the equations of paper §III-B (after \[16\]):
///
/// ```text
/// x̂(t+Δt, t) = F x̂(t,t) + G a(t)
/// P(t+Δt, t) = F P(t,t) Fᵀ + Q
/// K(t)       = P(t, t−Δt) (P(t, t−Δt) + R)⁻¹
/// x̂(t,t)     = x̂(t, t−Δt) + K(t) (z(t) − x̂(t, t−Δt))
/// P(t,t)     = (I − K) P (I − K)ᵀ + K R Kᵀ        (Joseph form)
/// ```
///
/// with `F = [[1, Δt], [0, 1]]`, `G = [½Δt², Δt]ᵀ`,
/// `Q = [[¼Δt⁴, ½Δt³], [½Δt³, Δt²]] · δ_a²/3` and
/// `R = diag(δ_p²/3, δ_v²/3)` — the `δ²/3` terms being the variances of the
/// bounded uniform noise of `cv-sensing`.
///
/// The measurement model is full-state (`H = I`): the sensor reports both
/// position and velocity.
///
/// # Example
///
/// ```
/// use cv_estimation::{KalmanFilter, Vec2, Mat2};
/// use cv_sensing::SensorNoise;
///
/// let mut kf = KalmanFilter::new(SensorNoise::uniform(1.0), Vec2::new(0.0, 5.0), Mat2::diag(4.0, 4.0));
/// kf.predict(0.0, 0.1);                  // extrapolate 0.1 s at a = 0
/// kf.update(Vec2::new(0.52, 5.1));       // noisy measurement
/// assert!(kf.covariance().a < 4.0);      // uncertainty shrank
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KalmanFilter {
    noise: SensorNoise,
    process_accel_var: f64,
    x: Vec2,
    p: Mat2,
}

impl KalmanFilter {
    /// Creates a filter with measurement-noise bounds `noise`, initial state
    /// estimate `x0` and initial covariance `p0`.
    ///
    /// The process noise defaults to the paper's `Q` (driven by the sensor's
    /// `δ_a²/3`); when the tracked vehicle's *actual* acceleration varies
    /// more than the sensor uncertainty — e.g. the random driving of the
    /// experiments, `a ∈ [−3, 3]` resampled every step — use
    /// [`KalmanFilter::with_process_accel_var`] to avoid an overconfident
    /// covariance.
    ///
    /// # Panics
    ///
    /// Panics if `p0` is not symmetric positive semi-definite.
    pub fn new(noise: SensorNoise, x0: Vec2, p0: Mat2) -> Self {
        assert!(p0.is_psd(1e-9), "initial covariance must be PSD: {p0:?}");
        Self {
            noise,
            process_accel_var: SensorNoise::variance(noise.delta_a),
            x: x0,
            p: p0,
        }
    }

    /// Overrides the process-noise acceleration variance (m²/s⁴).
    ///
    /// # Panics
    ///
    /// Panics if `var` is negative or non-finite.
    pub fn with_process_accel_var(mut self, var: f64) -> Self {
        assert!(
            var >= 0.0 && var.is_finite(),
            "invalid process variance {var}"
        );
        self.process_accel_var = var;
        self
    }

    /// Current state estimate `x̂`.
    pub fn state(&self) -> Vec2 {
        self.x
    }

    /// Current covariance `P`.
    pub fn covariance(&self) -> Mat2 {
        self.p
    }

    /// The configured measurement-noise bounds.
    pub fn noise(&self) -> SensorNoise {
        self.noise
    }

    /// Process-noise matrix `Q(Δt)` for acceleration variance `var_a`.
    fn process_noise(dt: f64, var_a: f64) -> Mat2 {
        Mat2::new(
            0.25 * dt.powi(4),
            0.5 * dt.powi(3),
            0.5 * dt.powi(3),
            dt * dt,
        )
        .scale(var_a.max(1e-9))
    }

    /// Measurement-noise matrix `R`.
    fn measurement_noise(&self) -> Mat2 {
        Mat2::diag(
            SensorNoise::variance(self.noise.delta_p).max(1e-9),
            SensorNoise::variance(self.noise.delta_v).max(1e-9),
        )
    }

    /// Extrapolates the estimate by `dt` seconds under measured acceleration
    /// `accel` (the `a_s(t)` input of the paper's prediction step).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `dt < 0`.
    pub fn predict(&mut self, accel: f64, dt: f64) {
        debug_assert!(dt >= 0.0, "dt must be nonnegative, got {dt}");
        if dt == 0.0 {
            return;
        }
        let f = Mat2::new(1.0, dt, 0.0, 1.0);
        let g = Vec2::new(0.5 * dt * dt, dt);
        self.x = f.mul_vec(&self.x) + g.scale(accel);
        self.p =
            f.mul(&self.p).mul(&f.transpose()) + Self::process_noise(dt, self.process_accel_var);
    }

    /// Incorporates a full-state measurement `z = (p_s, v_s)` using the
    /// Joseph-form covariance update (numerically stable, keeps `P` PSD).
    pub fn update(&mut self, z: Vec2) {
        let r = self.measurement_noise();
        let s = self.p + r;
        let Some(s_inv) = s.inverse() else {
            // Degenerate only if both P and R vanish; keep the prediction.
            return;
        };
        let k = self.p.mul(&s_inv);
        let innovation = z - self.x;
        self.x = self.x + k.mul_vec(&innovation);
        let i_k = Mat2::identity() - k;
        self.p = i_k.mul(&self.p).mul(&i_k.transpose()) + k.mul(&r).mul(&k.transpose());
        // Re-symmetrise to suppress floating-point drift.
        let sym = 0.5 * (self.p.b + self.p.c);
        self.p.b = sym;
        self.p.c = sym;
    }

    /// Resets the estimate to an exact state (e.g. an authoritative V2V
    /// message payload) with a tiny covariance.
    pub fn reset_exact(&mut self, x: Vec2) {
        self.x = x;
        self.p = Mat2::diag(1e-9, 1e-9);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_rng::{Rng, SplitMix64};

    fn filter() -> KalmanFilter {
        KalmanFilter::new(
            SensorNoise::uniform(1.0),
            Vec2::new(0.0, 5.0),
            Mat2::diag(1.0, 1.0),
        )
    }

    #[test]
    fn predict_moves_state_forward() {
        let mut kf = filter();
        kf.predict(2.0, 0.1);
        assert!((kf.state().x - (0.5 + 0.5 * 2.0 * 0.01)).abs() < 1e-12);
        assert!((kf.state().y - 5.2).abs() < 1e-12);
    }

    #[test]
    fn predict_grows_uncertainty_update_shrinks_it() {
        let mut kf = filter();
        let p0 = kf.covariance().a;
        kf.predict(0.0, 0.5);
        let p1 = kf.covariance().a;
        assert!(p1 > p0);
        kf.update(Vec2::new(2.5, 5.0));
        let p2 = kf.covariance().a;
        assert!(p2 < p1);
    }

    #[test]
    fn covariance_stays_psd_over_long_runs() {
        let mut kf = filter();
        let mut rng = SplitMix64::seed_from_u64(1);
        for _ in 0..5000 {
            kf.predict(rng.random_range(-3.0..3.0), 0.1);
            kf.update(Vec2::new(
                kf.state().x + rng.random_range(-1.0..1.0),
                kf.state().y + rng.random_range(-1.0..1.0),
            ));
            assert!(kf.covariance().is_psd(1e-9), "{:?}", kf.covariance());
        }
    }

    #[test]
    fn converges_on_constant_velocity_target() {
        // Track a target moving at constant 8 m/s with noisy measurements;
        // the filtered error must end up well below the raw noise bound.
        let delta = 2.0;
        let mut rng = SplitMix64::seed_from_u64(42);
        let mut kf = KalmanFilter::new(
            SensorNoise::uniform(delta),
            Vec2::new(0.0, 6.0), // biased initial guess
            Mat2::diag(25.0, 25.0),
        );
        let dt = 0.1;
        let mut truth_p = 0.0;
        let truth_v = 8.0;
        let mut errs = Vec::new();
        for _ in 0..300 {
            kf.predict(0.0, dt);
            truth_p += truth_v * dt;
            let z = Vec2::new(
                truth_p + rng.random_range(-delta..delta),
                truth_v + rng.random_range(-delta..delta),
            );
            kf.update(z);
            errs.push((kf.state().y - truth_v).abs());
        }
        let tail_mean: f64 = errs[200..].iter().sum::<f64>() / 100.0;
        // Raw measurement RMSE is δ/√3 ≈ 1.15; the filter should do much better.
        assert!(tail_mean < 0.4, "tail velocity error {tail_mean}");
    }

    #[test]
    fn reset_exact_pins_the_estimate() {
        let mut kf = filter();
        kf.reset_exact(Vec2::new(100.0, 3.0));
        assert_eq!(kf.state(), Vec2::new(100.0, 3.0));
        assert_eq!(kf.covariance(), Mat2::diag(1e-9, 1e-9));
    }

    #[test]
    #[should_panic]
    fn non_psd_initial_covariance_panics() {
        let _ = KalmanFilter::new(
            SensorNoise::uniform(1.0),
            Vec2::zero(),
            Mat2::diag(-1.0, 1.0),
        );
    }
}
