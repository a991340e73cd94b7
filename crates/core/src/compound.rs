use cv_dynamics::VehicleState;
use cv_estimation::{Interval, VehicleEstimate};

use crate::{AggressiveConfig, MonitorVerdict, Observation, Planner, RuntimeMonitor, Scenario};

/// Default window clustering gap (s): roughly the ego's zone-crossing time.
pub const DEFAULT_MERGE_GAP: f64 = 2.0;

/// Merges per-vehicle passing windows into the single window the (one-window)
/// NN planner consumes: the hull of the *earliest cluster* of the windows in
/// `active` (any order) whose gaps are smaller than `merge_gap` seconds.
///
/// Gaps shorter than the ego's crossing time are not usable, so clustering
/// with a `merge_gap` of roughly the crossing time ([`DEFAULT_MERGE_GAP`])
/// presents dense traffic as one blocked interval while still exposing
/// genuinely usable gaps behind it. Soundness is unaffected — the runtime
/// monitor always checks every window individually.
///
/// The buffer is sorted in place; hot loops keep it alive across calls
/// (`clear()` + `extend(…)`) so the per-step merge performs no heap
/// allocation in the steady state.
///
/// # Example
///
/// ```
/// use cv_estimation::Interval;
/// use safe_shield::merge_windows_in_place;
///
/// let mut windows = vec![
///     Interval::new(12.0, 13.0), // 5.5 s gap: usable, kept separate
///     Interval::new(4.0, 5.0),
///     Interval::new(5.5, 6.5), // 0.5 s gap: unusable, merged
/// ];
/// let merged = merge_windows_in_place(&mut windows, 2.0).expect("has windows");
/// assert_eq!(merged, Interval::new(4.0, 6.5));
/// ```
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

/// Which planner produced the acceleration of a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerSource {
    /// The embedded NN-based planner `κ_n`.
    NeuralNetwork,
    /// The emergency planner `κ_e`.
    Emergency,
}

/// Which unsafe-set estimate the embedded NN planner is fed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowSource {
    /// The sound conservative window (paper Eq. 7) — the *basic* compound
    /// planner (`κ_cb`).
    Conservative,
    /// The aggressive window (paper Eq. 8) with the given buffers — the
    /// *ultimate* compound planner (`κ_cu`).
    Aggressive(AggressiveConfig),
}

/// One planning decision of the compound planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanDecision {
    /// Acceleration command for this control step (m/s², unclamped).
    pub accel: f64,
    /// Who produced it.
    pub source: PlannerSource,
}

/// Result of the decision phase of a compound-planner step
/// ([`CompoundPlanner::plan_prepare`]), split out so an executor can run
/// the monitor/emergency logic itself and answer the NN step with its own
/// evaluation of the embedded planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PreparedPlan {
    /// The monitor decided (emergency); no NN evaluation is needed.
    Decided(PlanDecision),
    /// Nominal step: the embedded NN planner must be evaluated on `obs`,
    /// and its output used with [`PlannerSource::NeuralNetwork`].
    Nominal {
        /// The fused observation the NN consumes.
        obs: Observation,
    },
}

/// The compound planner `κ_c` of paper Section III: runtime monitor +
/// emergency planner wrapped around an arbitrary NN-based planner, over
/// `n ≥ 1` conflicting vehicles (the paper's system model, Section II-A,
/// allows `n−1` of them; its evaluation exercises one).
///
/// One [`Scenario`] instance per conflicting vehicle, each knowing where the
/// conflict zone lies in *its* vehicle's frame. Every step the
/// [`RuntimeMonitor`] checks each pair in index order; the first pair whose
/// state is in `X_b` hands the step to that pair's emergency planner `κ_e`.
/// Otherwise the embedded NN planner receives the [`merge_windows_in_place`]
/// fusion of the per-vehicle windows of its [`WindowSource`]:
///
/// * `κ_cb` (basic): `WindowSource::Conservative` — the NN sees the same
///   sound windows the monitor used.
/// * `κ_cu` (ultimate): `WindowSource::Aggressive` — the NN sees the
///   compact Eq. 8 windows while the monitor keeps the sound ones.
///
/// The information-filter half of the "ultimate" configuration lives in the
/// estimator that produces the [`VehicleEstimate`]s passed to
/// [`CompoundPlanner::plan`]; see `cv_estimation::FilterMode`.
///
/// # Example
///
/// See the `custom_planner` example in the workspace root, which wraps a
/// hand-written full-throttle planner for the unprotected left turn.
#[derive(Debug, Clone)]
pub struct CompoundPlanner<S, P> {
    scenarios: Vec<S>,
    nn: P,
    window_source: WindowSource,
    /// The NN's window cluster, retained across calls so
    /// [`CompoundPlanner::plan`] is allocation-free in the steady state.
    merge_scratch: Vec<Interval>,
}

impl<S: Scenario, P: Planner> CompoundPlanner<S, P> {
    /// Wraps `nn` with one scenario per conflicting vehicle, feeding it
    /// windows per `window_source`.
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
            merge_scratch: Vec::new(),
        }
    }

    /// The basic compound planner `κ_cb` (conservative windows for the NN).
    pub fn basic(scenarios: Vec<S>, nn: P) -> Self {
        Self::new(scenarios, nn, WindowSource::Conservative)
    }

    /// The ultimate compound planner `κ_cu` (aggressive windows for the NN).
    pub fn ultimate(scenarios: Vec<S>, nn: P, config: AggressiveConfig) -> Self {
        Self::new(scenarios, nn, WindowSource::Aggressive(config))
    }

    /// The embedded NN planner, for callers that answer a
    /// [`PreparedPlan::Nominal`] step with it themselves.
    pub fn nn_mut(&mut self) -> &mut P {
        &mut self.nn
    }

    /// The per-vehicle scenarios, in pair order.
    pub fn scenarios(&self) -> &[S] {
        &self.scenarios
    }

    /// Re-arms the planner for a fresh episode: as [`CompoundPlanner::new`]
    /// over the scenarios `fill` writes into the emptied list, except that
    /// the embedded planner is [`Planner::reset`] instead of re-cloned.
    ///
    /// # Errors
    ///
    /// Returns `fill`'s error; re-arm again before planning.
    ///
    /// # Panics
    ///
    /// Panics if `fill` leaves the list empty.
    pub fn reinit<E>(&mut self, fill: impl FnOnce(&mut Vec<S>) -> Result<(), E>) -> Result<(), E> {
        self.scenarios.clear();
        fill(&mut self.scenarios)?;
        assert!(
            !self.scenarios.is_empty(),
            "need at least one conflicting vehicle"
        );
        self.nn.reset();
        Ok(())
    }

    /// Decision phase of one control step: runs the monitor/emergency logic
    /// and window fusion, but **defers** the NN evaluation.
    ///
    /// [`CompoundPlanner::plan`] is this + an inline evaluation of the
    /// embedded planner, so a caller that completes every
    /// [`PreparedPlan::Nominal`] with its own NN evaluation reproduces it
    /// exactly.
    ///
    /// `estimates` are the (filtered) beliefs about the conflicting
    /// vehicles, one per scenario; they must come from a sound estimator for
    /// the safety guarantee (paper §III-E) to hold.
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
        // The monitor escalates on the first vehicle demanding it; under
        // `Conservative` the windows it returns are the NN's windows.
        let monitor = RuntimeMonitor::new();
        self.merge_scratch.clear();
        for (scenario, estimate) in self.scenarios.iter().zip(estimates) {
            match monitor.check(scenario, time, ego, estimate) {
                MonitorVerdict::Emergency { window } => {
                    return PreparedPlan::Decided(PlanDecision {
                        accel: scenario.emergency_accel(time, ego, window),
                        source: PlannerSource::Emergency,
                    });
                }
                MonitorVerdict::Nominal { window } => {
                    if matches!(self.window_source, WindowSource::Conservative) {
                        self.merge_scratch.extend(window);
                    }
                }
            }
        }
        if let WindowSource::Aggressive(cfg) = self.window_source {
            self.merge_scratch.extend(
                self.scenarios
                    .iter()
                    .zip(estimates)
                    .filter_map(|(s, e)| s.aggressive_window(time, e, &cfg)),
            );
        }
        let fused = merge_windows_in_place(&mut self.merge_scratch, DEFAULT_MERGE_GAP);
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
    use std::cell::Cell;

    /// Allocating oracle for [`merge_windows_in_place`]: collects the present
    /// windows into a fresh buffer and merges them.
    fn merge_windows(
        windows: impl IntoIterator<Item = Option<Interval>>,
        merge_gap: f64,
    ) -> Option<Interval> {
        let mut active: Vec<Interval> = windows.into_iter().flatten().collect();
        merge_windows_in_place(&mut active, merge_gap)
    }

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

    /// Toy scenario: the conflict zone starts at `wall` while the window is
    /// open until t = 5; the boundary band is `[wall − 1, wall)`. The
    /// aggressive window pretends it closes one second earlier.
    struct Wall {
        wall: f64,
        /// Counts `conservative_window` calls.
        cons_calls: Cell<u32>,
    }

    fn wall(wall: f64) -> Wall {
        Wall {
            wall,
            cons_calls: Cell::new(0),
        }
    }

    impl Scenario for Wall {
        fn target_reached(&self, _t: f64, ego: &VehicleState) -> bool {
            ego.position >= 20.0
        }

        fn collision(&self, ego: &VehicleState, _other: &VehicleState) -> bool {
            ego.position >= self.wall
        }

        fn conservative_window(&self, t: f64, _e: &VehicleEstimate) -> Option<Interval> {
            self.cons_calls.set(self.cons_calls.get() + 1);
            (t < 5.0).then(|| Interval::new(t, 5.0))
        }

        fn nominal_window(&self, t: f64, e: &VehicleEstimate) -> Option<Interval> {
            self.conservative_window(t, e)
        }

        fn aggressive_window(
            &self,
            t: f64,
            _e: &VehicleEstimate,
            _c: &AggressiveConfig,
        ) -> Option<Interval> {
            (t < 4.0).then(|| Interval::new(t, 4.0))
        }

        fn in_unsafe_set(&self, _t: f64, ego: &VehicleState, w: Option<Interval>) -> bool {
            w.is_some() && ego.position >= self.wall
        }

        fn in_boundary_safe_set(&self, _t: f64, ego: &VehicleState, w: Option<Interval>) -> bool {
            w.is_some() && (self.wall - 1.0..self.wall).contains(&ego.position)
        }

        fn emergency_accel(&self, _t: f64, _ego: &VehicleState, _w: Option<Interval>) -> f64 {
            -4.0
        }
    }

    /// Records the windows it was shown; `reset` forgets them.
    #[derive(Default)]
    struct Probe {
        windows: Vec<Option<Interval>>,
    }

    impl Planner for Probe {
        fn plan(&mut self, obs: &Observation) -> f64 {
            self.windows.push(obs.window);
            1.0
        }

        fn name(&self) -> &str {
            "probe"
        }

        fn reset(&mut self) {
            self.windows.clear();
        }
    }

    fn est() -> VehicleEstimate {
        VehicleEstimate::exact(0.0, VehicleState::at_rest())
    }

    #[test]
    fn switches_to_emergency_in_boundary_set() {
        let mut cp = CompoundPlanner::basic(vec![wall(10.0)], Probe::default());
        let far = cp.plan(0.0, &VehicleState::new(0.0, 1.0, 0.0), &[est()]);
        assert_eq!(far.source, PlannerSource::NeuralNetwork);
        assert_eq!(far.accel, 1.0);
        let near = cp.plan(0.1, &VehicleState::new(9.5, 1.0, 0.0), &[est()]);
        assert_eq!(near.source, PlannerSource::Emergency);
        assert_eq!(near.accel, -4.0);
    }

    #[test]
    fn no_emergency_after_window_closes() {
        let mut cp = CompoundPlanner::basic(vec![wall(10.0)], Probe::default());
        let d = cp.plan(6.0, &VehicleState::new(9.5, 1.0, 0.0), &[est()]);
        assert_eq!(d.source, PlannerSource::NeuralNetwork);
    }

    #[test]
    fn ultimate_feeds_aggressive_window_to_nn() {
        let mut cp = CompoundPlanner::ultimate(
            vec![wall(10.0)],
            Probe::default(),
            AggressiveConfig::default(),
        );
        cp.plan(0.0, &VehicleState::new(0.0, 1.0, 0.0), &[est()]);
        assert_eq!(cp.nn_mut().windows[0], Some(Interval::new(0.0, 4.0)));

        let mut basic = CompoundPlanner::basic(vec![wall(10.0)], Probe::default());
        basic.plan(0.0, &VehicleState::new(0.0, 1.0, 0.0), &[est()]);
        assert_eq!(basic.nn_mut().windows[0], Some(Interval::new(0.0, 5.0)));
    }

    #[test]
    fn reinit_resets_the_nn_and_refills_the_scenarios() {
        let mut cp = CompoundPlanner::basic(vec![wall(10.0)], Probe::default());
        cp.plan(0.0, &VehicleState::new(0.0, 1.0, 0.0), &[est()]);
        assert_eq!(cp.nn_mut().windows.len(), 1);
        let refill = |list: &mut Vec<Wall>| {
            list.extend([wall(50.0), wall(10.0)]);
            Ok::<_, ()>(())
        };
        cp.reinit(refill).unwrap();
        assert!(cp.nn_mut().windows.is_empty());
        let walls: Vec<f64> = cp.scenarios().iter().map(|s| s.wall).collect();
        assert_eq!(walls, [50.0, 10.0]);
        assert_eq!(cp.reinit(|_| Err("bad geometry")), Err("bad geometry"));
    }

    #[test]
    fn any_vehicle_can_trigger_emergency() {
        let mut cp = CompoundPlanner::basic(vec![wall(50.0), wall(10.0)], Probe::default());
        // Far from both walls: NN drives.
        let d = cp.plan(0.0, &VehicleState::new(0.0, 1.0, 0.0), &[est(), est()]);
        assert_eq!(d.source, PlannerSource::NeuralNetwork);
        // In the second wall's boundary band: emergency, even though the
        // first wall is far away.
        let d = cp.plan(0.1, &VehicleState::new(9.5, 1.0, 0.0), &[est(), est()]);
        assert_eq!(d.source, PlannerSource::Emergency);
        assert_eq!(d.accel, -4.0);
    }

    /// The NN of `κ_cb` is fed the windows the monitor already computed:
    /// a nominal step evaluates each pair's conservative window once.
    #[test]
    fn nominal_conservative_step_computes_each_window_once() {
        let mut cp =
            CompoundPlanner::basic(vec![wall(50.0), wall(10.0), wall(30.0)], Probe::default());
        let d = cp.plan(0.0, &VehicleState::new(0.0, 1.0, 0.0), &[est(); 3]);
        assert_eq!(d.source, PlannerSource::NeuralNetwork);
        let calls: Vec<u32> = cp.scenarios.iter().map(|s| s.cons_calls.get()).collect();
        assert_eq!(calls, [1, 1, 1]);
    }

    /// `plan` must be exactly `plan_prepare` + inline NN completion, so
    /// executors that complete `Nominal` themselves reproduce the compound
    /// semantics.
    #[test]
    fn plan_prepare_plus_completion_matches_plan() {
        let mk = || {
            CompoundPlanner::new(
                vec![wall(50.0), wall(10.0)],
                Probe::default(),
                WindowSource::Conservative,
            )
        };
        let mut whole = mk();
        let mut split = mk();
        let mut emergencies = 0;
        for step in 0..12 {
            let ego = VehicleState::new(step as f64, 1.0, 0.0);
            let t = step as f64 * 0.1;
            let want = whole.plan(t, &ego, &[est(), est()]);
            let got = match split.plan_prepare(t, &ego, &[est(), est()]) {
                PreparedPlan::Decided(d) => d,
                PreparedPlan::Nominal { obs } => PlanDecision {
                    accel: Probe::default().plan(&obs),
                    source: PlannerSource::NeuralNetwork,
                },
            };
            assert_eq!(want, got, "step {step}");
            emergencies += usize::from(want.source == PlannerSource::Emergency);
        }
        assert!(emergencies > 0, "matrix must cover both");
    }

    #[test]
    #[should_panic]
    fn estimate_count_must_match() {
        let mut cp = CompoundPlanner::basic(vec![wall(10.0)], Probe::default());
        let _ = cp.plan(0.0, &VehicleState::at_rest(), &[est(), est()]);
    }
}
