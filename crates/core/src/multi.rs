use cv_dynamics::VehicleState;
use cv_estimation::{Interval, VehicleEstimate};

use crate::{
    CompoundStats, Observation, PlanDecision, Planner, PlannerSource, Scenario, WindowSource,
};

/// Merges per-vehicle passing windows into the single window the (one-window)
/// NN planner consumes: the hull of the *earliest cluster* of windows whose
/// gaps are smaller than `merge_gap` seconds.
///
/// Gaps shorter than the ego's crossing time are not usable, so clustering
/// with a `merge_gap` of roughly the crossing time presents dense traffic as
/// one blocked interval while still exposing genuinely usable gaps behind it.
/// Soundness is unaffected — the runtime monitor always checks every window
/// individually.
///
/// # Example
///
/// ```
/// use cv_estimation::Interval;
/// use safe_shield::merge_windows;
///
/// let windows = [
///     Some(Interval::new(4.0, 5.0)),
///     Some(Interval::new(5.5, 6.5)), // 0.5 s gap: unusable, merged
///     Some(Interval::new(12.0, 13.0)), // 5.5 s gap: usable, kept separate
///     None,
/// ];
/// let merged = merge_windows(windows.iter().copied(), 2.0).expect("has windows");
/// assert_eq!(merged, Interval::new(4.0, 6.5));
/// ```
pub fn merge_windows(
    windows: impl IntoIterator<Item = Option<Interval>>,
    merge_gap: f64,
) -> Option<Interval> {
    let mut active: Vec<Interval> = windows.into_iter().flatten().collect();
    merge_windows_in_place(&mut active, merge_gap)
}

/// Allocation-free core of [`merge_windows`]: merges the windows already
/// collected in `active` (any order), sorting the buffer in place.
///
/// Hot loops keep `active` alive across calls (`clear()` + `extend(…)`) so
/// the per-step merge performs no heap allocation in the steady state. The
/// result is identical to [`merge_windows`] over the same windows.
pub fn merge_windows_in_place(active: &mut [Interval], merge_gap: f64) -> Option<Interval> {
    if active.is_empty() {
        return None;
    }
    active.sort_by(|a, b| a.lo().partial_cmp(&b.lo()).expect("finite bounds"));
    let mut merged = active[0];
    for w in &active[1..] {
        if w.lo() <= merged.hi() + merge_gap {
            merged = merged.hull(w);
        } else {
            break; // the earliest cluster is complete
        }
    }
    Some(merged)
}

/// Temporal slack of one ego/vehicle pair: how far the ego's projected
/// zone-crossing interval stays clear of that vehicle's passing window, in
/// seconds.
///
/// Positive when the two intervals are disjoint (the separation between
/// them), negative when they overlap (minus the overlap duration — the
/// amount of crossing time in conflict), and `+∞` when either interval is
/// absent (no projected crossing, or the vehicle never occupies the zone):
/// a pair that cannot meet has unbounded slack.
pub fn pair_time_slack(ego_crossing: Option<Interval>, window: Option<Interval>) -> f64 {
    match (ego_crossing, window) {
        (Some(ego), Some(win)) => {
            if ego.hi() < win.lo() {
                win.lo() - ego.hi()
            } else if win.hi() < ego.lo() {
                ego.lo() - win.hi()
            } else {
                -(ego.hi().min(win.hi()) - ego.lo().max(win.lo()))
            }
        }
        _ => f64::INFINITY,
    }
}

/// Platoon-level temporal slack: the minimum [`pair_time_slack`] over every
/// ego/vehicle pair, i.e. the slack of the *tightest* pair. `+∞` over an
/// empty platoon.
///
/// Because this is a plain `min` fold over independently computed per-pair
/// slacks, removing any vehicle can only keep the result or raise it —
/// never lower it — which is the monotonicity property the platoon tests
/// pin down.
pub fn platoon_slack(pair_slacks: impl IntoIterator<Item = f64>) -> f64 {
    pair_slacks.into_iter().fold(f64::INFINITY, f64::min)
}

/// Platoon-level safety score: the minimum per-pair `η` — a collision with
/// *any* vehicle scores the episode as a collision, exactly as the paper's
/// single-pair `η` does for its one conflicting vehicle.
pub fn platoon_eta(pair_etas: impl IntoIterator<Item = f64>) -> f64 {
    pair_etas.into_iter().fold(f64::INFINITY, f64::min)
}

/// Multi-vehicle compound planner: the paper's framework generalised to `n−1`
/// conflicting vehicles (its system model, Section II-A, already allows
/// them; the evaluation only exercises one).
///
/// One [`Scenario`] instance per conflicting vehicle (sharing the ego
/// geometry but each knowing where the conflict zone lies in *its* vehicle's
/// frame). The runtime monitor escalates if **any** vehicle's window demands
/// it; the embedded NN planner receives the [`merge_windows`] fusion of the
/// per-vehicle windows of its configured [`WindowSource`].
#[derive(Debug, Clone)]
pub struct MultiCompoundPlanner<S, P> {
    scenarios: Vec<S>,
    nn: P,
    window_source: WindowSource,
    merge_gap: f64,
    stats: CompoundStats,
    /// Per-step scratch (monitor windows / NN window cluster), retained
    /// across calls so [`MultiCompoundPlanner::plan`] is allocation-free in
    /// the steady state.
    win_scratch: Vec<Option<Interval>>,
    merge_scratch: Vec<Interval>,
}

/// Default window clustering gap (s): roughly the ego's zone-crossing time.
pub const DEFAULT_MERGE_GAP: f64 = 2.0;

/// Result of the decision phase of a compound-planner step
/// ([`MultiCompoundPlanner::plan_prepare`]), split out so lane-batched
/// executors can run monitor/emergency logic per episode while deferring
/// the NN evaluation to a batched kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PreparedPlan {
    /// The monitor decided (emergency); no NN evaluation is needed.
    Decided(PlanDecision),
    /// Nominal step: the embedded NN planner must be evaluated on `obs`,
    /// and its output used with [`crate::PlannerSource::NeuralNetwork`].
    Nominal {
        /// The fused observation the NN consumes.
        obs: Observation,
    },
}

impl<S: Scenario, P: Planner> MultiCompoundPlanner<S, P> {
    /// Wraps `nn` with one scenario per conflicting vehicle.
    ///
    /// # Panics
    ///
    /// Panics if `scenarios` is empty.
    pub fn new(scenarios: Vec<S>, nn: P, window_source: WindowSource) -> Self {
        assert!(
            !scenarios.is_empty(),
            "need at least one conflicting vehicle"
        );
        Self {
            scenarios,
            nn,
            window_source,
            merge_gap: DEFAULT_MERGE_GAP,
            stats: CompoundStats::default(),
            win_scratch: Vec::new(),
            merge_scratch: Vec::new(),
        }
    }

    /// Overrides the window clustering gap.
    ///
    /// # Panics
    ///
    /// Panics if `merge_gap` is negative.
    pub fn with_merge_gap(mut self, merge_gap: f64) -> Self {
        assert!(merge_gap >= 0.0, "merge gap must be nonnegative");
        self.merge_gap = merge_gap;
        self
    }

    /// The per-vehicle scenarios.
    pub fn scenarios(&self) -> &[S] {
        &self.scenarios
    }

    /// The embedded NN planner, for callers that answer a
    /// [`PreparedPlan::Nominal`] step with it themselves.
    pub fn nn_mut(&mut self) -> &mut P {
        &mut self.nn
    }

    /// Episode statistics so far.
    pub fn stats(&self) -> CompoundStats {
        self.stats
    }

    /// Clears statistics and resets the embedded planner.
    pub fn reset(&mut self) {
        self.stats = CompoundStats::default();
        self.nn.reset();
    }

    /// Re-arms the planner for a fresh episode with new per-vehicle
    /// scenarios, reusing the internal buffers (and, crucially, the embedded
    /// planner — an NN planner's weight matrices are *not* re-cloned).
    ///
    /// Equivalent to building a new planner with [`MultiCompoundPlanner::new`]
    /// over the same scenarios: statistics are cleared and the embedded
    /// planner is [`Planner::reset`].
    ///
    /// # Panics
    ///
    /// Panics if `scenarios` is empty.
    pub fn reinit(&mut self, scenarios: &[S])
    where
        S: Clone,
    {
        assert!(
            !scenarios.is_empty(),
            "need at least one conflicting vehicle"
        );
        self.scenarios.clear();
        self.scenarios.extend_from_slice(scenarios);
        self.reset();
    }

    /// Decision phase of one control step: runs the monitor/emergency logic
    /// and window fusion, but **defers** the NN evaluation.
    ///
    /// Statistics (total/emergency step counters) are updated here, so a
    /// caller that completes every [`PreparedPlan::Nominal`] with its own
    /// NN evaluation observes exactly the bookkeeping of
    /// [`MultiCompoundPlanner::plan`] — which is itself implemented as
    /// `plan_prepare` + an inline evaluation of the embedded planner.
    /// Lane-batched executors use this to gather the observations of many
    /// episodes and evaluate them in one batched forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `estimates.len()` differs from the scenario count.
    pub fn plan_prepare(
        &mut self,
        time: f64,
        ego: &VehicleState,
        estimates: &[VehicleEstimate],
    ) -> PreparedPlan {
        assert_eq!(
            estimates.len(),
            self.scenarios.len(),
            "one estimate per conflicting vehicle"
        );
        self.stats.total_steps += 1;

        self.win_scratch.clear();
        self.win_scratch.extend(
            self.scenarios
                .iter()
                .zip(estimates)
                .map(|(s, e)| s.conservative_window(time, e)),
        );

        // The monitor escalates on the first vehicle demanding it.
        for (i, scenario) in self.scenarios.iter().enumerate() {
            if scenario.requires_emergency(time, ego, self.win_scratch[i]) {
                self.stats.emergency_steps += 1;
                return PreparedPlan::Decided(PlanDecision {
                    accel: scenario.emergency_accel(time, ego, self.win_scratch[i]),
                    source: PlannerSource::Emergency,
                });
            }
        }

        // NN step: fuse the per-vehicle windows of the configured source.
        self.merge_scratch.clear();
        self.merge_scratch
            .extend(self.scenarios.iter().zip(estimates).filter_map(|(s, e)| {
                match self.window_source {
                    WindowSource::Conservative => s.conservative_window(time, e),
                    WindowSource::Aggressive(cfg) => s.aggressive_window(time, e, &cfg),
                }
            }));
        let fused = merge_windows_in_place(&mut self.merge_scratch, self.merge_gap);
        PreparedPlan::Nominal {
            obs: Observation::new(time, *ego, fused),
        }
    }

    /// Plans one control step from one estimate per conflicting vehicle.
    ///
    /// # Panics
    ///
    /// Panics if `estimates.len()` differs from the scenario count.
    pub fn plan(
        &mut self,
        time: f64,
        ego: &VehicleState,
        estimates: &[VehicleEstimate],
    ) -> PlanDecision {
        match self.plan_prepare(time, ego, estimates) {
            PreparedPlan::Decided(decision) => decision,
            PreparedPlan::Nominal { obs } => PlanDecision {
                accel: self.nn.plan(&obs),
                source: PlannerSource::NeuralNetwork,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AggressiveConfig;

    #[test]
    fn merge_keeps_disjoint_clusters_apart() {
        let merged = merge_windows(
            [
                Some(Interval::new(10.0, 11.0)),
                Some(Interval::new(2.0, 3.0)),
            ],
            2.0,
        )
        .unwrap();
        assert_eq!(merged, Interval::new(2.0, 3.0));
    }

    #[test]
    fn merge_fuses_chained_windows() {
        let merged = merge_windows(
            [
                Some(Interval::new(2.0, 3.0)),
                Some(Interval::new(4.0, 5.0)),
                Some(Interval::new(6.5, 7.0)),
            ],
            2.0,
        )
        .unwrap();
        // 2-3, 4-5 and 6.5-7 chain up (gaps 1.0 and 1.5 < 2.0).
        assert_eq!(merged, Interval::new(2.0, 7.0));
    }

    #[test]
    fn in_place_merge_matches_allocating_merge() {
        let cases: [&[Option<Interval>]; 4] = [
            &[],
            &[None, None],
            &[Some(Interval::new(4.0, 5.0)), Some(Interval::new(5.5, 6.5))],
            &[
                Some(Interval::new(10.0, 11.0)),
                None,
                Some(Interval::new(2.0, 3.0)),
                Some(Interval::new(4.5, 5.0)),
            ],
        ];
        let mut buf = Vec::new();
        for windows in cases {
            buf.clear();
            buf.extend(windows.iter().copied().flatten());
            assert_eq!(
                merge_windows_in_place(&mut buf, 2.0),
                merge_windows(windows.iter().copied(), 2.0),
            );
        }
    }

    #[test]
    fn merge_handles_empty_and_none() {
        assert_eq!(merge_windows([], 2.0), None);
        assert_eq!(merge_windows([None, None], 2.0), None);
        assert_eq!(
            merge_windows([None, Some(Interval::new(1.0, 2.0))], 2.0),
            Some(Interval::new(1.0, 2.0))
        );
    }

    #[test]
    fn pair_slack_measures_separation_and_overlap() {
        let ego = Some(Interval::new(4.0, 6.0));
        // Ego crosses before the window opens: separation 2 s.
        assert_eq!(pair_time_slack(ego, Some(Interval::new(8.0, 10.0))), 2.0);
        // Window closes before the ego arrives: separation 1 s.
        assert_eq!(pair_time_slack(ego, Some(Interval::new(1.0, 3.0))), 1.0);
        // Overlap of 1 s → slack −1.
        assert_eq!(pair_time_slack(ego, Some(Interval::new(5.0, 9.0))), -1.0);
        // Window swallowed by the crossing: overlap is the window length.
        assert_eq!(pair_time_slack(ego, Some(Interval::new(4.5, 5.5))), -1.0);
        // A pair that cannot meet has unbounded slack.
        assert_eq!(
            pair_time_slack(None, Some(Interval::new(1.0, 2.0))),
            f64::INFINITY
        );
        assert_eq!(pair_time_slack(ego, None), f64::INFINITY);
    }

    #[test]
    fn platoon_slack_is_the_tightest_pair_and_is_drop_monotone() {
        let slacks = [3.0, -0.5, f64::INFINITY, 1.25];
        assert_eq!(platoon_slack(slacks), -0.5);
        assert_eq!(platoon_slack([]), f64::INFINITY);
        // Dropping any one pair never lowers the remaining minimum.
        let full = platoon_slack(slacks);
        for drop in 0..slacks.len() {
            let subset = slacks
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != drop)
                .map(|(_, s)| *s);
            assert!(platoon_slack(subset) >= full, "dropping pair {drop}");
        }
    }

    #[test]
    fn platoon_eta_is_the_worst_pair() {
        assert_eq!(platoon_eta([0.0, -1.0, 0.125]), -1.0);
        assert_eq!(platoon_eta([0.125, 0.125]), 0.125);
    }

    /// Toy scenario parameterised by a wall position per "vehicle".
    struct Wall(f64);

    impl Scenario for Wall {
        fn target_reached(&self, _t: f64, ego: &VehicleState) -> bool {
            ego.position >= 20.0
        }

        fn collision(&self, ego: &VehicleState, _other: &VehicleState) -> bool {
            ego.position >= self.0
        }

        fn conservative_window(&self, _t: f64, _e: &VehicleEstimate) -> Option<Interval> {
            Some(Interval::new(0.0, 100.0))
        }

        fn nominal_window(&self, t: f64, e: &VehicleEstimate) -> Option<Interval> {
            self.conservative_window(t, e)
        }

        fn aggressive_window(
            &self,
            t: f64,
            e: &VehicleEstimate,
            _c: &AggressiveConfig,
        ) -> Option<Interval> {
            self.conservative_window(t, e)
        }

        fn in_unsafe_set(&self, _t: f64, ego: &VehicleState, w: Option<Interval>) -> bool {
            w.is_some() && ego.position >= self.0
        }

        fn in_boundary_safe_set(&self, _t: f64, ego: &VehicleState, w: Option<Interval>) -> bool {
            w.is_some() && ego.position >= self.0 - 1.0 && ego.position < self.0
        }

        fn emergency_accel(&self, _t: f64, _ego: &VehicleState, _w: Option<Interval>) -> f64 {
            -5.0
        }
    }

    struct Cruise;

    impl Planner for Cruise {
        fn plan(&mut self, _obs: &Observation) -> f64 {
            1.0
        }
    }

    #[test]
    fn any_vehicle_can_trigger_emergency() {
        let mut multi = MultiCompoundPlanner::new(
            vec![Wall(50.0), Wall(10.0)],
            Cruise,
            WindowSource::Conservative,
        );
        let est = VehicleEstimate::exact(0.0, VehicleState::at_rest());
        // Far from both walls: NN drives.
        let d = multi.plan(0.0, &VehicleState::new(0.0, 1.0, 0.0), &[est, est]);
        assert_eq!(d.source, PlannerSource::NeuralNetwork);
        // In the second wall's boundary band: emergency, even though the
        // first wall is far away.
        let d = multi.plan(0.1, &VehicleState::new(9.5, 1.0, 0.0), &[est, est]);
        assert_eq!(d.source, PlannerSource::Emergency);
        assert_eq!(d.accel, -5.0);
        assert_eq!(multi.stats().emergency_steps, 1);
    }

    /// `plan` must be exactly `plan_prepare` + inline NN completion —
    /// same decisions, same statistics — so batched executors that
    /// complete `Nominal` themselves reproduce the compound semantics.
    #[test]
    fn plan_prepare_plus_completion_matches_plan() {
        let mk = || {
            MultiCompoundPlanner::new(
                vec![Wall(50.0), Wall(10.0)],
                Cruise,
                WindowSource::Conservative,
            )
        };
        let mut whole = mk();
        let mut split = mk();
        let est = VehicleEstimate::exact(0.0, VehicleState::at_rest());
        for step in 0..12 {
            let ego = VehicleState::new(step as f64, 1.0, 0.0);
            let t = step as f64 * 0.1;
            let want = whole.plan(t, &ego, &[est, est]);
            let got = match split.plan_prepare(t, &ego, &[est, est]) {
                PreparedPlan::Decided(d) => d,
                PreparedPlan::Nominal { obs } => PlanDecision {
                    accel: Cruise.plan(&obs),
                    source: PlannerSource::NeuralNetwork,
                },
            };
            assert_eq!(want, got, "step {step}");
        }
        assert_eq!(whole.stats(), split.stats());
        assert!(whole.stats().emergency_steps > 0, "matrix must cover both");
    }

    #[test]
    #[should_panic]
    fn estimate_count_must_match() {
        let mut multi =
            MultiCompoundPlanner::new(vec![Wall(10.0)], Cruise, WindowSource::Conservative);
        let est = VehicleEstimate::exact(0.0, VehicleState::at_rest());
        let _ = multi.plan(0.0, &VehicleState::at_rest(), &[est, est]);
    }
}
