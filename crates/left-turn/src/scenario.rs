use cv_dynamics::{braking_distance, VehicleLimits, VehicleState};
use cv_estimation::{Interval, VehicleEstimate};
use safe_shield::{AggressiveConfig, Scenario};

use crate::tau::{time_to_cover, TAU_CAP};
use crate::{Geometry, ScenarioError};

/// The unprotected-left-turn scenario of paper Section IV.
///
/// One instance describes one episode configuration: the conflict-zone
/// geometry on the ego axis, the two vehicles' physical limits, the control
/// period `Δt_c` (needed by the boundary-safe-set bound) and where `C_1`
/// started on the shared axis (which fixes the zone's location in `C_1`'s
/// forward frame).
///
/// All `C_1`-related quantities ([`VehicleEstimate`]s, the `other` state in
/// [`Scenario::collision`]) are expressed in `C_1`'s forward frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeftTurnScenario {
    geometry: Geometry,
    ego_limits: VehicleLimits,
    other_limits: VehicleLimits,
    /// `C_1` forward-frame coordinate at which it enters the zone.
    other_entry: f64,
    /// `C_1` forward-frame coordinate at which it has cleared the zone.
    other_exit: f64,
    /// Control period `Δt_c` (s).
    dt_c: f64,
}

impl LeftTurnScenario {
    /// Creates a scenario.
    ///
    /// `start_shared` is `C_1`'s initial position on the shared ego
    /// axis (the paper sweeps `p_1(0) ∈ {50.5 + 0.5j}`); since `C_1` drives
    /// toward decreasing shared coordinates, it enters the zone after
    /// travelling `start_shared − p_b` metres.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] if the geometry is inverted, `C_1` does
    /// not start strictly beyond the back line, or `dt_c` is not positive.
    pub fn new(
        geometry: Geometry,
        ego_limits: VehicleLimits,
        other_limits: VehicleLimits,
        start_shared: f64,
        dt_c: f64,
    ) -> Result<Self, ScenarioError> {
        if geometry.p_f >= geometry.p_b {
            return Err(ScenarioError::EmptyConflictZone);
        }
        if start_shared <= geometry.p_b {
            return Err(ScenarioError::OtherStartsInsideZone);
        }
        if !(dt_c > 0.0 && dt_c.is_finite()) {
            return Err(ScenarioError::InvalidControlPeriod);
        }
        Ok(Self {
            geometry,
            ego_limits,
            other_limits,
            other_entry: start_shared - geometry.p_b,
            other_exit: start_shared - geometry.p_f,
            dt_c,
        })
    }

    /// The paper's default configuration (zone `[5, 15]`, `Δt_c = 0.05 s`,
    /// ego `v ∈ [0, 12]`, `a ∈ [−6, 3]`; `C_1` `v ∈ [3, 14]`, `a ∈ [−3, 3]`)
    /// with `C_1` starting at `start_shared` on the shared axis.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] if `start_shared` is not beyond the
    /// zone.
    pub fn paper_default(start_shared: f64) -> Result<Self, ScenarioError> {
        Self::new(
            Geometry::paper(),
            VehicleLimits::new(0.0, 12.0, -6.0, 3.0)?,
            VehicleLimits::new(3.0, 14.0, -3.0, 3.0)?,
            start_shared,
            0.05,
        )
    }

    /// The conflict-zone geometry on the ego axis.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// The ego vehicle's physical limits.
    pub fn ego_limits(&self) -> VehicleLimits {
        self.ego_limits
    }

    /// `C_1`'s physical limits.
    pub fn other_limits(&self) -> VehicleLimits {
        self.other_limits
    }

    /// `C_1` forward-frame coordinate of the zone entry line.
    pub fn other_entry(&self) -> f64 {
        self.other_entry
    }

    /// `C_1` forward-frame coordinate of the zone exit line.
    pub fn other_exit(&self) -> f64 {
        self.other_exit
    }

    /// Control period `Δt_c`.
    pub fn dt_c(&self) -> f64 {
        self.dt_c
    }

    /// The slack `s(t)` (paper Eq. 5): how much of the stopping margin
    /// before the front line remains. `+∞` once the ego has cleared the
    /// zone; negative inside the zone or when stopping before it is no
    /// longer possible.
    pub fn slack(&self, ego: &VehicleState) -> f64 {
        let d_b = braking_distance(
            self.ego_limits.clamp_velocity(ego.velocity),
            self.ego_limits.a_min(),
        );
        if ego.position <= self.geometry.p_f {
            self.geometry.p_f - d_b - ego.position
        } else if ego.position <= self.geometry.p_b {
            ego.position - self.geometry.p_b
        } else {
            f64::INFINITY
        }
    }

    /// The ego's projected passing window `[τ_0,min, τ_0,max]` under its
    /// current velocity (paper Eq. 5, second part), in absolute time.
    /// `None` when the ego has already cleared the zone or is stopped short
    /// of it (its projection never reaches the zone).
    pub fn projected_window(&self, time: f64, ego: &VehicleState) -> Option<Interval> {
        let v = self.ego_limits.clamp_velocity(ego.velocity);
        if ego.position > self.geometry.p_b {
            return None;
        }
        if ego.position <= self.geometry.p_f {
            if v <= 1e-9 {
                // Stopped before the zone: the constant-velocity projection
                // never reaches it.
                return None;
            }
            let lo = ((self.geometry.p_f - ego.position) / v).min(TAU_CAP);
            let hi = ((self.geometry.p_b - ego.position) / v).min(TAU_CAP);
            Some(Interval::new(time + lo.min(hi), time + hi))
        } else {
            // Inside the zone: occupying it from now until the exit.
            let hi = if v <= 1e-9 {
                TAU_CAP
            } else {
                ((self.geometry.p_b - ego.position) / v).min(TAU_CAP)
            };
            Some(Interval::new(time, time + hi))
        }
    }

    /// The runtime monitor works against a *virtual* front line this far
    /// short of the real one, so that every braking trajectory it commands
    /// stops robustly outside the conflict zone — floating-point drift on
    /// the exact-corner stopping trajectory can never tip the nose over the
    /// real line.
    pub const MONITOR_LINE_MARGIN: f64 = 0.05;

    /// Emergency stopping aims this far short of the (virtual) front line
    /// (m).
    pub const STOP_MARGIN: f64 = 0.2;

    /// Clearance (s) required between the ego's full-throttle zone exit and
    /// the window's earliest arrival for a crossing to be considered
    /// provably safe (the *dive exception* and the *rush* branch of `κ_e`).
    pub const DIVE_MARGIN: f64 = 0.1;

    /// Real-line slack deficits smaller than this (m) are treated as still
    /// stoppable by `κ_e` (full braking) rather than committed. This is a
    /// pure floating-point guard (accumulated drift on the slack-preserving
    /// full-braking trajectory is ~1e-12): any *physically* meaningful
    /// deficit must rush, because braking it would strand the vehicle just
    /// inside the zone.
    pub const RUSH_TOLERANCE: f64 = 1e-9;

    /// The virtual front line the monitor brakes against.
    fn p_f_monitor(&self) -> f64 {
        self.geometry.p_f - Self::MONITOR_LINE_MARGIN
    }

    /// Slack against the *virtual* front line (monitor-internal; the public
    /// [`Self::slack`] stays faithful to paper Eq. 5).
    fn monitor_slack(&self, ego: &VehicleState) -> f64 {
        let d_b = braking_distance(
            self.ego_limits.clamp_velocity(ego.velocity),
            self.ego_limits.a_min(),
        );
        if ego.position <= self.p_f_monitor() {
            self.p_f_monitor() - d_b - ego.position
        } else if ego.position <= self.geometry.p_b {
            ego.position - self.geometry.p_b
        } else {
            f64::INFINITY
        }
    }

    /// `true` when the ego can no longer stop before the virtual front line
    /// (or is already past it).
    pub fn is_committed(&self, ego: &VehicleState) -> bool {
        ego.position > self.p_f_monitor() || self.monitor_slack(ego) < 0.0
    }

    /// Earliest time (relative) at which the ego can clear the back line at
    /// full throttle.
    fn full_throttle_exit_time(&self, ego: &VehicleState) -> f64 {
        time_to_cover(
            self.geometry.p_b - ego.position,
            self.ego_limits.clamp_velocity(ego.velocity),
            self.ego_limits.a_max(),
            self.ego_limits.v_min(),
            self.ego_limits.v_max(),
        )
    }

    /// Earliest time (relative) at which the ego can reach the front line at
    /// full throttle.
    fn earliest_entry_time(&self, ego: &VehicleState) -> f64 {
        time_to_cover(
            self.geometry.p_f - ego.position,
            self.ego_limits.clamp_velocity(ego.velocity),
            self.ego_limits.a_max(),
            self.ego_limits.v_min(),
            self.ego_limits.v_max(),
        )
    }

    /// `true` when a commitment at this state is *certified*: either rushing
    /// provably clears the zone before the window's earliest arrival (the
    /// dive certificate), or the ego physically cannot reach the zone before
    /// the window's latest exit (the creep certificate). The shield only
    /// ever creates committed states satisfying one of the two, which is
    /// what the offline verifier ([`crate::verify`]) relies on to prune
    /// unreachable states.
    pub fn commitment_is_certified(
        &self,
        time: f64,
        ego: &VehicleState,
        window: &Interval,
    ) -> bool {
        self.rush_is_provably_safe(time, ego, window)
            || time + self.earliest_entry_time(ego) > window.hi() + Self::DIVE_MARGIN
    }

    /// `true` when flooring it provably clears the zone before the earliest
    /// possible oncoming arrival (with [`Self::DIVE_MARGIN`] of clearance).
    fn rush_is_provably_safe(&self, time: f64, ego: &VehicleState, window: &Interval) -> bool {
        time + self.full_throttle_exit_time(ego) + Self::DIVE_MARGIN < window.lo()
    }

    /// The one-step slack-decrease bound of the boundary safe set
    /// (Section IV): `(v_0·Δt_c + ½·a_0,max·Δt_c²)·(1 − a_0,max/a_0,min)`.
    pub fn boundary_threshold(&self, ego: &VehicleState) -> f64 {
        let v = self.ego_limits.clamp_velocity(ego.velocity);
        let travel = v * self.dt_c + 0.5 * self.ego_limits.a_max() * self.dt_c * self.dt_c;
        travel * (1.0 - self.ego_limits.a_max() / self.ego_limits.a_min())
    }

    /// Shared helper: `C_1` passing window from explicit kinematic
    /// assumptions. `d_entry`/`d_exit` are forward-frame distances to the
    /// entry/exit lines; the "fast" tuple bounds the earliest entry, the
    /// "slow" tuple the latest exit.
    #[allow(clippy::too_many_arguments)]
    fn window_from(
        &self,
        time: f64,
        d_entry: f64,
        d_exit: f64,
        v_fast: f64,
        a_fast: f64,
        cap_fast: f64,
        v_slow: f64,
        a_slow: f64,
        floor_slow: f64,
    ) -> Option<Interval> {
        if d_exit <= 0.0 {
            return None; // C1 has cleared the zone.
        }
        let lims = &self.other_limits;
        let t_min = time_to_cover(d_entry, v_fast, a_fast, lims.v_min(), cap_fast);
        let t_max = time_to_cover(d_exit, v_slow, a_slow, floor_slow, lims.v_max());
        let lo = time + t_min.min(TAU_CAP);
        let hi = time + t_max.min(TAU_CAP);
        Some(Interval::new(lo.min(hi), hi))
    }
}

impl Scenario for LeftTurnScenario {
    fn target_reached(&self, _time: f64, ego: &VehicleState) -> bool {
        ego.position > self.geometry.p_b
    }

    fn collision(&self, ego: &VehicleState, other: &VehicleState) -> bool {
        self.geometry.contains_ego(ego.position)
            && (self.other_entry..=self.other_exit).contains(&other.position)
    }

    fn conservative_window(&self, time: f64, estimate: &VehicleEstimate) -> Option<Interval> {
        let lims = &self.other_limits;
        self.window_from(
            time,
            self.other_entry - estimate.position.hi(),
            self.other_exit - estimate.position.lo(),
            lims.clamp_velocity(estimate.velocity.hi()),
            lims.a_max(),
            lims.v_max(),
            lims.clamp_velocity(estimate.velocity.lo()),
            lims.a_min(),
            lims.v_min(),
        )
    }

    fn nominal_window(&self, time: f64, estimate: &VehicleEstimate) -> Option<Interval> {
        let lims = &self.other_limits;
        let v = lims.clamp_velocity(estimate.nominal.velocity);
        let u = estimate.nominal.position;
        self.window_from(
            time,
            self.other_entry - u,
            self.other_exit - u,
            v,
            0.0,
            lims.v_max(),
            v,
            0.0,
            lims.v_min(),
        )
    }

    fn aggressive_window(
        &self,
        time: f64,
        estimate: &VehicleEstimate,
        config: &AggressiveConfig,
    ) -> Option<Interval> {
        let lims = &self.other_limits;
        let v_nom = lims.clamp_velocity(estimate.nominal.velocity);
        let a_nom = lims.clamp_accel(estimate.nominal.acceleration);
        let u = estimate.nominal.position;
        // Paper Eq. 8: physical limits replaced by buffered current values.
        let a_fast = (a_nom + config.a_buf).min(lims.a_max());
        let v_cap_fast = (v_nom + config.v_buf).min(lims.v_max());
        let a_slow = (a_nom - config.a_buf).max(lims.a_min());
        let v_floor_slow = (v_nom - config.v_buf).max(lims.v_min());
        self.window_from(
            time,
            self.other_entry - u,
            self.other_exit - u,
            v_nom,
            a_fast,
            v_cap_fast.max(lims.v_min()),
            v_nom,
            a_slow,
            v_floor_slow,
        )
    }

    fn in_unsafe_set(&self, time: f64, ego: &VehicleState, window: Option<Interval>) -> bool {
        let Some(tau1) = window else { return false };
        let Some(tau0) = self.projected_window(time, ego) else {
            return false;
        };
        self.slack(ego) < 0.0 && tau0.overlaps(&tau1)
    }

    fn in_boundary_safe_set(
        &self,
        time: f64,
        ego: &VehicleState,
        window: Option<Interval>,
    ) -> bool {
        // Direct implementation of paper Eq. 3: the state is in X_b iff some
        // admissible control reaches X_u within one step. The paper's closed
        // form only bounds the slack decrease; it misses that the control
        // also shifts the ego's projected window τ₀, so a state with no
        // current overlap can still be one accelerating step from X_u. The
        // slack part is monotone in the control, and the overlap part varies
        // continuously, so a dense acceleration grid (with both extremes)
        // decides membership; `slack_pre` screens out states that cannot go
        // negative in one step at all (the paper's closed-form bound).
        if window.is_none() {
            return false;
        }
        if self.in_unsafe_set(time, ego, window) {
            return false; // already unsafe, not "boundary safe"
        }
        let s = self.slack(ego);
        if s >= self.boundary_threshold(ego) {
            return false; // slack cannot reach zero within one step
        }
        const GRID: usize = 16;
        let (a_min, a_max) = (self.ego_limits.a_min(), self.ego_limits.a_max());
        (0..=GRID).any(|i| {
            let a = a_min + (a_max - a_min) * i as f64 / GRID as f64;
            let next = self.ego_limits.step(ego, a, self.dt_c);
            self.in_unsafe_set(time + self.dt_c, &next, window)
        })
    }

    fn emergency_accel(&self, _time: f64, ego: &VehicleState, _window: Option<Interval>) -> f64 {
        // Materially inside (or past) the real line: zone entry already
        // happened — escape as fast as possible. Sub-ENTRY_EPS penetrations
        // are floating-point artifacts of an exact-line stop and are
        // treated as "at the line" below.
        if ego.position > self.geometry.p_f + crate::Geometry::ENTRY_EPS {
            return self.ego_limits.a_max();
        }
        // Truly committed (cannot stop before the *real* line): entry is
        // unavoidable, so rush to minimise exposure. Never brake a
        // committed vehicle — that parks it inside the zone. Commitment is
        // only reachable through the certified dive exception, so rushing
        // clears the zone before the window's earliest possible arrival.
        // Stop feasibility is computed directly against the line (not via
        // `slack`, whose branch switch at `p_f` would misclassify an
        // at-the-line stop); the tolerance absorbs drift on the neutrally
        // stable exact-corner braking trajectory.
        let gap_to_line = (self.geometry.p_f - ego.position).max(0.0);
        let d_b = braking_distance(
            self.ego_limits.clamp_velocity(ego.velocity),
            self.ego_limits.a_min(),
        );
        if d_b > gap_to_line + Self::RUSH_TOLERANCE {
            return self.ego_limits.a_max();
        }
        // Stopping before the real line is feasible: least required
        // braking, aimed a margin short of the *virtual* line so the
        // asymptotic stop stays robustly outside the zone. (In the narrow
        // band where the virtual line is already lost but the real one is
        // not, this clamps to full braking and stops within the margin.)
        let gap = self.p_f_monitor() - Self::STOP_MARGIN - ego.position;
        if gap <= 1e-9 {
            self.ego_limits.a_min()
        } else {
            let v = self.ego_limits.clamp_velocity(ego.velocity);
            self.ego_limits.clamp_accel(-v * v / (2.0 * gap))
        }
    }

    fn requires_emergency(&self, time: f64, ego: &VehicleState, window: Option<Interval>) -> bool {
        let Some(w) = window else {
            return false; // oncoming traffic has cleared: nothing to shield
        };
        if ego.position > self.geometry.p_b {
            return false; // crossing complete
        }
        // Commit protection: stopping is no longer possible while the
        // conflict window is open — κ_e decides rush vs. delay.
        if self.is_committed(ego) {
            return true;
        }
        // Dive exception: the NN may keep control close to the line when a
        // full-throttle crossing provably beats the earliest possible
        // arrival — even if the NN then hesitates, commit protection
        // completes the manoeuvre within the proven envelope.
        if self.rush_is_provably_safe(time, ego, &w) {
            return false;
        }
        // Creep exception: even at full throttle the ego physically cannot
        // reach the front line before the *latest possible exit* of the
        // oncoming vehicle. The earliest absolute entry time never
        // decreases along any trajectory, and `w.hi` bounded the actual
        // exit when this was first certified, so the exception is robust
        // to later estimate wobble.
        if time + self.earliest_entry_time(ego) > w.hi() + Self::DIVE_MARGIN {
            return false;
        }
        // Brake band: within one control step of losing stoppability, with
        // the window still open. Unlike paper Eq. 3 this does NOT require
        // current window overlap: the window estimate can shift between
        // steps (new information), so overlap-gated braking is not sound.
        self.monitor_slack(ego) < self.boundary_threshold(ego)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_dynamics::VehicleState;

    fn scenario() -> LeftTurnScenario {
        LeftTurnScenario::paper_default(52.0).unwrap()
    }

    fn exact_estimate(u: f64, v: f64, a: f64) -> VehicleEstimate {
        VehicleEstimate::exact(0.0, VehicleState::new(u, v, a))
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(
            LeftTurnScenario::new(
                Geometry {
                    p_f: 15.0,
                    p_b: 5.0
                },
                VehicleLimits::new(0.0, 12.0, -6.0, 3.0).unwrap(),
                VehicleLimits::new(3.0, 14.0, -3.0, 3.0).unwrap(),
                52.0,
                0.05,
            ),
            Err(ScenarioError::EmptyConflictZone)
        ));
        assert!(matches!(
            LeftTurnScenario::paper_default(10.0),
            Err(ScenarioError::OtherStartsInsideZone)
        ));
    }

    #[test]
    fn frame_mapping() {
        let s = scenario();
        // C1 starts at shared 52: it enters the zone (shared 15) after 37 m
        // and exits (shared 5) after 47 m.
        assert_eq!(s.other_entry(), 37.0);
        assert_eq!(s.other_exit(), 47.0);
    }

    #[test]
    fn slack_branches_match_eq5() {
        let s = scenario();
        // Before the front line, v = 6: d_b = 36/12 = 3.
        let ego = VehicleState::new(-10.0, 6.0, 0.0);
        assert!((s.slack(&ego) - (5.0 - 3.0 + 10.0)).abs() < 1e-12);
        // Inside the zone: slack = p0 - p_b < 0.
        let inside = VehicleState::new(8.0, 6.0, 0.0);
        assert_eq!(s.slack(&inside), 8.0 - 15.0);
        // Past the zone.
        assert_eq!(s.slack(&VehicleState::new(15.1, 6.0, 0.0)), f64::INFINITY);
    }

    #[test]
    fn projected_window_before_and_inside_zone() {
        let s = scenario();
        let ego = VehicleState::new(-5.0, 5.0, 0.0);
        let w = s.projected_window(10.0, &ego).unwrap();
        assert!((w.lo() - 12.0).abs() < 1e-12); // (5 - (-5))/5 = 2 s
        assert!((w.hi() - 14.0).abs() < 1e-12); // (15 - (-5))/5 = 4 s
        let inside = s
            .projected_window(10.0, &VehicleState::new(10.0, 5.0, 0.0))
            .unwrap();
        assert_eq!(inside.lo(), 10.0);
        assert!((inside.hi() - 11.0).abs() < 1e-12);
        // Stopped before the zone: no projection.
        assert!(s
            .projected_window(10.0, &VehicleState::new(-5.0, 0.0, 0.0))
            .is_none());
        // Past the zone: no projection.
        assert!(s
            .projected_window(10.0, &VehicleState::new(16.0, 5.0, 0.0))
            .is_none());
    }

    #[test]
    fn conservative_window_brackets_constant_speed_passage() {
        let s = scenario();
        // C1 at u = 0 doing 10 m/s: constant-speed entry at 3.7 s, exit 4.7 s.
        let w = s
            .conservative_window(0.0, &exact_estimate(0.0, 10.0, 0.0))
            .unwrap();
        assert!(w.lo() < 3.7);
        assert!(w.hi() > 4.7);
        // Fastest possible: accelerate at 3 to 14 m/s — entry not before
        // that; check the bound is not absurdly loose either.
        assert!(w.lo() > 2.0, "lo {}", w.lo());
    }

    #[test]
    fn conservative_window_widens_with_estimate_uncertainty() {
        let s = scenario();
        let tight = s
            .conservative_window(0.0, &exact_estimate(10.0, 10.0, 0.0))
            .unwrap();
        let wide_est = VehicleEstimate::from_intervals(
            0.0,
            Interval::new(5.0, 15.0),
            Interval::new(8.0, 12.0),
            Interval::new(-1.0, 1.0),
        );
        let wide = s.conservative_window(0.0, &wide_est).unwrap();
        assert!(wide.contains_interval(&tight));
        assert!(wide.width() > tight.width());
    }

    #[test]
    fn aggressive_window_is_inside_conservative() {
        let s = scenario();
        let est = exact_estimate(5.0, 10.0, 0.5);
        let cons = s.conservative_window(0.0, &est).unwrap();
        let aggr = s
            .aggressive_window(0.0, &est, &AggressiveConfig::default())
            .unwrap();
        assert!(cons.contains_interval(&aggr), "cons {cons} aggr {aggr}");
        assert!(aggr.width() < cons.width());
        // And the nominal (true constant-speed) passage is inside both.
        let nom = s.nominal_window(0.0, &est).unwrap();
        assert!(aggr.expand(1e-9).contains_interval(&nom));
    }

    #[test]
    fn windows_are_none_after_c1_clears() {
        let s = scenario();
        let est = exact_estimate(48.0, 10.0, 0.0); // past exit at 47
        assert!(s.conservative_window(0.0, &est).is_none());
        assert!(s.nominal_window(0.0, &est).is_none());
        assert!(s
            .aggressive_window(0.0, &est, &AggressiveConfig::default())
            .is_none());
    }

    #[test]
    fn window_starts_now_when_c1_inside_zone() {
        let s = scenario();
        let est = exact_estimate(40.0, 10.0, 0.0); // between 37 and 47
        let w = s.conservative_window(3.0, &est).unwrap();
        assert_eq!(w.lo(), 3.0);
    }

    #[test]
    fn unsafe_set_requires_negative_slack_and_overlap() {
        let s = scenario();
        let window = Some(Interval::new(1.0, 3.0));
        // Fast and close: cannot stop (slack < 0), and the projection
        // overlaps the window => unsafe.
        let doomed = VehicleState::new(0.0, 12.0, 0.0); // d_b = 12 > 5
        assert!(s.slack(&doomed) < 0.0);
        assert!(s.in_unsafe_set(0.0, &doomed, window));
        // Same state, window already over => not unsafe.
        assert!(!s.in_unsafe_set(10.0, &doomed, None));
        // Slow and far: slack >= 0 => not unsafe.
        let safe = VehicleState::new(-20.0, 5.0, 0.0);
        assert!(!s.in_unsafe_set(0.0, &safe, window));
    }

    #[test]
    fn boundary_set_is_a_band_above_zero_slack() {
        let s = scenario();
        let window = Some(Interval::new(0.0, 100.0));
        // Construct states with tiny positive slack: v = 6 -> d_b = 3;
        // slack = 5 - 3 - p0. p0 = 1.9 -> slack = 0.1.
        let near = VehicleState::new(1.9, 6.0, 0.0);
        let slack = s.slack(&near);
        assert!(slack > 0.0 && slack < s.boundary_threshold(&near));
        assert!(s.in_boundary_safe_set(0.0, &near, window));
        // Larger slack is out of the band.
        let far = VehicleState::new(-10.0, 6.0, 0.0);
        assert!(!s.in_boundary_safe_set(0.0, &far, window));
        // Without overlap, never in the boundary set.
        assert!(!s.in_boundary_safe_set(0.0, &near, Some(Interval::new(90.0, 95.0))));
    }

    #[test]
    fn emergency_planner_brakes_before_and_rushes_when_committed() {
        let s = scenario();
        // 10 m before the line at 6 m/s: decel to stop STOP_MARGIN short of
        // the virtual line = 36 / (2 * (10 - 0.05 - 0.2)).
        let a = s.emergency_accel(0.0, &VehicleState::new(-5.0, 6.0, 0.0), None);
        assert!((a + 36.0 / (2.0 * 9.75)).abs() < 1e-12, "{a}");
        // Inside the zone with no window: full throttle escape.
        assert_eq!(
            s.emergency_accel(0.0, &VehicleState::new(8.0, 6.0, 0.0), None),
            s.ego_limits().a_max()
        );
        // At the line with speed: committed; the window opens far in the
        // future, so rushing provably clears => full throttle.
        assert_eq!(
            s.emergency_accel(
                0.0,
                &VehicleState::new(5.0, 6.0, 0.0),
                Some(Interval::new(50.0, 60.0))
            ),
            s.ego_limits().a_max()
        );
        // Committed *between the virtual and real line* with the window
        // imminent: hold before the real line.
        assert_eq!(
            s.emergency_accel(
                0.0,
                &VehicleState::new(4.97, 0.5, 0.0),
                Some(Interval::new(0.5, 6.0))
            ),
            s.ego_limits().a_min()
        );
        // Inside the real zone with the window imminent: escape regardless.
        assert_eq!(
            s.emergency_accel(
                0.0,
                &VehicleState::new(8.0, 3.0, 0.0),
                Some(Interval::new(0.5, 6.0))
            ),
            s.ego_limits().a_max()
        );
        // Stopped comfortably before the line: zero accel (hold).
        assert_eq!(
            s.emergency_accel(0.0, &VehicleState::new(-5.0, 0.0, 0.0), None),
            0.0
        );
    }

    #[test]
    fn commit_protection_extends_the_emergency_region() {
        let s = scenario();
        let window = Some(Interval::new(0.0, 100.0));
        // Too fast too close: slack < 0, not in X_b, but the monitor must
        // escalate anyway (the NN may not be trusted to finish the dive).
        let committed = VehicleState::new(0.0, 12.0, 0.0); // d_b = 12 > 5
        assert!(s.slack(&committed) < 0.0);
        assert!(!s.in_boundary_safe_set(0.0, &committed, window));
        assert!(s.requires_emergency(0.0, &committed, window));
        // Without a window there is nothing to protect against.
        assert!(!s.requires_emergency(0.0, &committed, None));
        // Comfortably stoppable: no emergency.
        let safe = VehicleState::new(-20.0, 5.0, 0.0);
        assert!(!s.requires_emergency(0.0, &safe, window));
    }

    /// Paper Eq. 4 contract: from any boundary-safe-set state, one emergency
    /// step keeps the slack nonnegative (stays in the safe set), and by
    /// induction repeated emergency steps never enter the zone.
    #[test]
    fn emergency_invariance_holds_from_boundary_states() {
        let s = scenario();
        let lims = s.ego_limits();
        let window = Some(Interval::new(0.0, 1e5));
        let mut checked = 0;
        for vi in 0..=60 {
            let v = vi as f64 * 0.2; // 0..12
            for pi in 0..200 {
                let p = -10.0 + pi as f64 * 0.075;
                let ego = VehicleState::new(p, v, 0.0);
                if !s.in_boundary_safe_set(0.0, &ego, window) {
                    continue;
                }
                checked += 1;
                // Run κ_e until (almost) stopped; the ego must never cross
                // the real front line.
                let mut cur = ego;
                for step in 0..2000 {
                    let a = s.emergency_accel(step as f64 * s.dt_c(), &cur, window);
                    cur = lims.step(&cur, a, s.dt_c());
                    assert!(
                        cur.position <= s.geometry().p_f + 1e-6,
                        "entered zone from boundary state p={p}, v={v} at step {step}"
                    );
                    if cur.velocity < 1e-3 {
                        break;
                    }
                }
            }
        }
        assert!(checked > 50, "only {checked} boundary states sampled");
    }

    /// Boundary coverage (paper Eq. 3): a state that is neither unsafe nor
    /// in the boundary set cannot reach the unsafe set in one step, for any
    /// admissible control.
    #[test]
    fn boundary_set_covers_one_step_reachability() {
        let s = scenario();
        let lims = s.ego_limits();
        let window = Some(Interval::new(0.0, 1e5));
        for vi in 0..=24 {
            let v = vi as f64 * 0.5;
            for pi in 0..=300 {
                let p = -20.0 + pi as f64 * 0.12;
                let ego = VehicleState::new(p, v, 0.0);
                if s.in_unsafe_set(0.0, &ego, window) || s.in_boundary_safe_set(0.0, &ego, window) {
                    continue;
                }
                for ai in 0..=12 {
                    let a = lims.a_min() + ai as f64 * (lims.a_max() - lims.a_min()) / 12.0;
                    let next = lims.step(&ego, a, s.dt_c());
                    assert!(
                        !s.in_unsafe_set(s.dt_c(), &next, window),
                        "one-step escape to X_u from p={p}, v={v} with a={a}"
                    );
                }
            }
        }
    }
}
