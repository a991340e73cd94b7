use cv_dynamics::{VehicleLimits, VehicleState};
use cv_estimation::{
    Estimator, FilterMode, InformationFilter, Interval, NaiveEstimator, Prior, VehicleEstimate,
};
use cv_planner::{NnPlanner, TeacherPolicy};
use left_turn::{LeftTurnScenario, ScenarioError};
use safe_shield::{
    merge_windows_in_place, AggressiveConfig, CompoundPlanner, Observation, PlanDecision, Planner,
    PlannerSource, Scenario, WindowSource, DEFAULT_MERGE_GAP,
};

use crate::workspace::Pair;
use crate::EpisodeConfig;

/// Which passing-time window an *unshielded* planner is fed.
///
/// The conservative planner family was trained on (and deploys with) sound
/// Eq. 7 windows; the aggressive family uses the optimistic constant-speed
/// window. Inside a compound planner this choice is superseded by
/// [`safe_shield::WindowSource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Paper Eq. 7 with physical limits.
    Conservative,
    /// Constant-current-speed projection (optimistic, unsound).
    Nominal,
}

/// One of the planner configurations compared in the paper's tables.
///
/// `PureNn`/`PureTeacher` run *unshielded* with naive estimation — the
/// baselines. `Basic` is `κ_cb` (runtime monitor + emergency planner over
/// sound hard-interval estimation). `Ultimate` is `κ_cu` (adds the Kalman
/// information filter and the aggressive unsafe set).
#[derive(Debug, Clone)]
pub enum StackSpec {
    /// An unshielded NN planner with naive estimation.
    PureNn {
        /// The trained planner.
        planner: NnPlanner,
        /// Window flavour it was trained with.
        window: WindowKind,
    },
    /// An unshielded analytic teacher (interpretable baseline).
    PureTeacher {
        /// The policy.
        policy: TeacherPolicy,
        /// Window flavour it consumes.
        window: WindowKind,
    },
    /// Test-only planner for the supervised execution layer: behaves
    /// exactly like the conservative [`StackSpec::PureTeacher`], except
    /// that an episode whose seed is listed in `panic_seeds` panics before
    /// its first step. Gated behind the `fault-injection` feature so it can
    /// never ship in a default build.
    #[cfg(feature = "fault-injection")]
    PanicInjection {
        /// The underlying (conservative-teacher) policy.
        policy: TeacherPolicy,
        /// Window flavour it consumes.
        window: WindowKind,
        /// Episode seeds that trigger an injected panic.
        panic_seeds: Vec<u64>,
    },
    /// A compound planner with an explicit estimator/window configuration.
    /// Use [`StackSpec::basic`] / [`StackSpec::ultimate`] for the paper's
    /// two variants; other combinations serve the ablation experiments.
    Compound {
        /// The embedded NN planner.
        planner: NnPlanner,
        /// Which estimator feeds the monitor and the NN.
        filter_mode: FilterMode,
        /// Which window the NN sees.
        window_source: WindowSource,
    },
}

impl StackSpec {
    /// The basic compound planner `κ_cb`: monitor + emergency planner over
    /// hard-interval estimation, conservative window for the NN.
    pub fn basic(planner: NnPlanner) -> Self {
        StackSpec::Compound {
            planner,
            filter_mode: FilterMode::HardOnly,
            window_source: WindowSource::Conservative,
        }
    }

    /// The ultimate compound planner `κ_cu`: adds the Kalman information
    /// filter and feeds the NN the aggressive (Eq. 8) window.
    pub fn ultimate(planner: NnPlanner, aggressive: AggressiveConfig) -> Self {
        StackSpec::Compound {
            planner,
            filter_mode: FilterMode::Fused,
            window_source: WindowSource::Aggressive(aggressive),
        }
    }

    /// Unshielded conservative teacher baseline for `cfg`'s scenario.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] if the episode geometry is invalid.
    pub fn pure_teacher_conservative(cfg: &EpisodeConfig) -> Result<Self, ScenarioError> {
        Ok(StackSpec::PureTeacher {
            policy: TeacherPolicy::conservative(&cfg.scenario()?),
            window: WindowKind::Conservative,
        })
    }

    /// Unshielded aggressive teacher baseline for `cfg`'s scenario.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] if the episode geometry is invalid.
    pub fn pure_teacher_aggressive(cfg: &EpisodeConfig) -> Result<Self, ScenarioError> {
        Ok(StackSpec::PureTeacher {
            policy: TeacherPolicy::aggressive(&cfg.scenario()?),
            window: WindowKind::Nominal,
        })
    }

    /// The conservative teacher with an injected panic on the listed
    /// episode seeds — the deliberately faulty planner used to test panic
    /// isolation. The panic fires inside the episode loop, before the first
    /// step; every non-listed seed is bit-identical to
    /// [`StackSpec::pure_teacher_conservative`].
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] if the episode geometry is invalid.
    #[cfg(feature = "fault-injection")]
    pub fn panic_injection(
        cfg: &EpisodeConfig,
        panic_seeds: Vec<u64>,
    ) -> Result<Self, ScenarioError> {
        Ok(StackSpec::PanicInjection {
            policy: TeacherPolicy::conservative(&cfg.scenario()?),
            window: WindowKind::Conservative,
            panic_seeds,
        })
    }

    /// Display name matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            StackSpec::PureNn { .. } => "pure NN",
            StackSpec::PureTeacher { .. } => "pure teacher",
            #[cfg(feature = "fault-injection")]
            StackSpec::PanicInjection { .. } => "panic-injection",
            StackSpec::Compound {
                filter_mode: FilterMode::HardOnly,
                window_source: WindowSource::Conservative,
                ..
            } => "basic",
            StackSpec::Compound {
                filter_mode: FilterMode::Fused,
                window_source: WindowSource::Aggressive(_),
                ..
            } => "ultimate",
            StackSpec::Compound { .. } => "compound",
        }
    }

    /// The NN planner embedded in this spec, when there is one. The
    /// lane-batched executor uses this to clone the network (and its
    /// scaling/limits) into the group's batched evaluator; teacher stacks
    /// return `None` and run per-episode.
    pub fn nn_planner(&self) -> Option<&NnPlanner> {
        match self {
            StackSpec::PureNn { planner, .. } | StackSpec::Compound { planner, .. } => {
                Some(planner)
            }
            StackSpec::PureTeacher { .. } => None,
            #[cfg(feature = "fault-injection")]
            StackSpec::PanicInjection { .. } => None,
        }
    }

    /// The estimator a pair of this stack starts each episode with, for a
    /// vehicle with `limits` starting exactly at `init`: the naive
    /// estimator for an unshielded stack, the information filter in the
    /// stack's [`FilterMode`] for a compound one.
    pub(crate) fn estimator(
        &self,
        cfg: &EpisodeConfig,
        limits: VehicleLimits,
        init: VehicleState,
    ) -> Box<dyn Estimator + Send> {
        match self {
            StackSpec::Compound { filter_mode, .. } => Box::new(InformationFilter::new(
                limits,
                cfg.noise,
                *filter_mode,
                Prior::exact(0.0, init.position, init.velocity),
            )),
            _ => Box::new(NaiveEstimator::new(limits, 0.0, init)),
        }
    }

    /// Builds the executor (the planner pipeline) for `cfg`'s geometry.
    ///
    /// The planner is cloned here — once. Reuse the executor across episodes
    /// with [`StackExec::reinit`] to avoid re-cloning NN weight matrices per
    /// episode.
    pub(crate) fn build(&self, cfg: &EpisodeConfig) -> Result<StackExec, ScenarioError> {
        let scenarios = cfg.scenarios()?;
        let pure = |planner: Box<dyn Planner + Send>, window: &WindowKind, is_nn, scenarios| {
            ExecKind::Pure {
                planner,
                window: *window,
                scenarios,
                is_nn,
            }
        };
        let kind = match self {
            StackSpec::PureNn { planner, window } => {
                pure(Box::new(planner.clone()), window, true, scenarios)
            }
            StackSpec::PureTeacher { policy, window } => {
                pure(Box::new(*policy), window, false, scenarios)
            }
            // The injected panic lives in the episode loop, not the
            // executor: the executor is the plain teacher.
            #[cfg(feature = "fault-injection")]
            StackSpec::PanicInjection { policy, window, .. } => {
                pure(Box::new(*policy), window, false, scenarios)
            }
            StackSpec::Compound {
                planner,
                window_source,
                ..
            } => ExecKind::Compound(CompoundPlanner::new(
                scenarios,
                Box::new(planner.clone()) as Box<dyn Planner + Send>,
                *window_source,
            )),
        };
        Ok(StackExec {
            kind,
            est_scratch: Vec::new(),
            win_scratch: Vec::new(),
        })
    }
}

/// The planner side of a running stack, plus per-step scratch buffers so
/// [`StackExec::plan_prepare`] performs no heap allocation in the steady
/// state. The per-vehicle side (estimators, retirement pins) lives in the
/// workspace's [`Pair`]s.
pub(crate) struct StackExec {
    kind: ExecKind,
    /// One estimate per conflicting vehicle, refilled each step.
    est_scratch: Vec<VehicleEstimate>,
    /// Window cluster buffer for the unshielded merge, refilled each step.
    win_scratch: Vec<Interval>,
}

/// Fills `out` with the per-vehicle passing-time windows.
///
/// Retired vehicles need no skip here: a pin is only armed once both the
/// estimate interval's lower bound and its nominal position sit at or past
/// the scenario exit (`crate::events` retirement probe), so every window of
/// the pinned estimate is `None` (`LeftTurnScenario`'s window function
/// returns `None` once the exit is behind), and the compound planner's
/// monitor cannot escalate on it either.
fn fill_windows(
    out: &mut Vec<Interval>,
    scenarios: &[LeftTurnScenario],
    ests: &[VehicleEstimate],
    window: WindowKind,
    time: f64,
) {
    out.clear();
    out.extend(
        scenarios
            .iter()
            .zip(ests)
            .filter_map(|(s, e)| match window {
                WindowKind::Conservative => s.conservative_window(time, e),
                WindowKind::Nominal => s.nominal_window(time, e),
            }),
    );
}

enum ExecKind {
    Pure {
        planner: Box<dyn Planner + Send>,
        window: WindowKind,
        scenarios: Vec<LeftTurnScenario>,
        /// Whether `planner` is an NN whose evaluation can be deferred to a
        /// batched kernel ([`StackExec::plan_prepare`]).
        is_nn: bool,
    },
    Compound(CompoundPlanner<LeftTurnScenario, Box<dyn Planner + Send>>),
}

/// Decision phase of one control step with the NN evaluation left open.
pub(crate) enum StepPlan {
    /// The step is fully decided (teacher stacks, or a compound stack whose
    /// monitor escalated to the emergency planner).
    Ready(PlanDecision),
    /// The embedded NN must be evaluated on `obs`; its mapped output
    /// completes the step with [`PlannerSource::NeuralNetwork`].
    Nn {
        /// The fused observation the NN consumes.
        obs: Observation,
    },
}

impl StackExec {
    /// Re-arms the executor for `cfg`'s episode: the planner is reset in
    /// place (NN weights are *not* re-cloned) and the scenario list is
    /// rebuilt in place. Equivalent to [`StackSpec::build`] over `cfg`.
    pub(crate) fn reinit(&mut self, cfg: &EpisodeConfig) -> Result<(), ScenarioError> {
        match &mut self.kind {
            ExecKind::Pure {
                planner, scenarios, ..
            } => {
                planner.reset();
                cfg.scenarios_into(scenarios)
            }
            ExecKind::Compound(compound) => compound.reinit(|list| cfg.scenarios_into(list)),
        }
    }

    /// One scenario per conflicting vehicle, in pair order.
    pub(crate) fn scenarios(&self) -> &[LeftTurnScenario] {
        match &self.kind {
            ExecKind::Pure { scenarios, .. } => scenarios,
            ExecKind::Compound(compound) => compound.scenarios(),
        }
    }

    /// Answers a [`StepPlan::Nn`] step with the executor's own planner: the
    /// embedded NN's mapped acceleration on `obs`.
    pub(crate) fn answer(&mut self, obs: &Observation) -> f64 {
        match &mut self.kind {
            ExecKind::Pure { planner, .. } => planner.plan(obs),
            ExecKind::Compound(compound) => compound.nn_mut().plan(obs),
        }
    }

    /// The primary vehicle's estimate as of the last
    /// [`StackExec::plan_prepare`] (for tracing).
    pub(crate) fn primary_estimate(&self) -> VehicleEstimate {
        self.est_scratch[0]
    }

    /// Decision phase of one step with the NN evaluation left open: reads
    /// each pair's estimate, runs window fusion and (for a compound stack)
    /// the monitor / emergency logic, then either returns the finished
    /// decision or the observation the NN must be evaluated on — by
    /// [`StackExec::answer`] inline, or by a batched forward over many
    /// episodes. Both build the observation with the same fusion code, and
    /// (for compound stacks) [`CompoundPlanner::plan`] is itself prepare +
    /// inline answer.
    pub(crate) fn plan_prepare(
        &mut self,
        time: f64,
        ego: &VehicleState,
        pairs: &[Pair],
    ) -> StepPlan {
        self.est_scratch.clear();
        self.est_scratch.extend(
            pairs
                .iter()
                .map(|pair| pair.pin.unwrap_or_else(|| pair.estimator.estimate(time))),
        );
        match &mut self.kind {
            ExecKind::Pure {
                planner,
                window,
                scenarios,
                is_nn,
            } => {
                fill_windows(
                    &mut self.win_scratch,
                    scenarios,
                    &self.est_scratch,
                    *window,
                    time,
                );
                let fused = merge_windows_in_place(&mut self.win_scratch, DEFAULT_MERGE_GAP);
                let obs = Observation::new(time, *ego, fused);
                if *is_nn {
                    StepPlan::Nn { obs }
                } else {
                    StepPlan::Ready(PlanDecision {
                        accel: planner.plan(&obs),
                        source: PlannerSource::NeuralNetwork,
                    })
                }
            }
            ExecKind::Compound(compound) => {
                match compound.plan_prepare(time, ego, &self.est_scratch) {
                    safe_shield::PreparedPlan::Decided(decision) => StepPlan::Ready(decision),
                    safe_shield::PreparedPlan::Nominal { obs } => StepPlan::Nn { obs },
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stepper::NnAnswer;
    use crate::EpisodeWorkspace;
    use cv_nn::{Activation, Mlp};
    use cv_planner::FeatureScaling;

    /// Plans one step of `ws`'s armed episode with the NN answered inline;
    /// returns the decision and the primary vehicle's estimate.
    fn plan(
        ws: &mut EpisodeWorkspace,
        t: f64,
        ego: &VehicleState,
    ) -> (PlanDecision, VehicleEstimate) {
        let exec = ws.exec.as_mut().expect("armed by start()");
        let decision = match exec.plan_prepare(t, ego, &ws.pairs) {
            StepPlan::Ready(decision) => decision,
            StepPlan::Nn { obs } => PlanDecision {
                accel: exec.answer(&obs),
                source: PlannerSource::NeuralNetwork,
            },
        };
        (decision, exec.primary_estimate())
    }

    #[test]
    fn labels_match_tables() {
        let cfg = EpisodeConfig::paper_default(0);
        let t = StackSpec::pure_teacher_conservative(&cfg).unwrap();
        assert_eq!(t.label(), "pure teacher");
    }

    #[test]
    fn executors_build_for_every_spec() {
        let cfg = EpisodeConfig::paper_default(0);
        let scenarios = cfg.scenarios().unwrap();
        let teacher = TeacherPolicy::conservative(&scenarios[0]);
        let net = Mlp::new(&[5, 8, 1], Activation::Tanh, Activation::Tanh, 7).unwrap();
        let nn = NnPlanner::new(
            net,
            scenarios[0].ego_limits(),
            FeatureScaling::left_turn(),
            "untrained",
        );
        let specs = [
            StackSpec::PureTeacher {
                policy: teacher,
                window: WindowKind::Conservative,
            },
            StackSpec::pure_teacher_aggressive(&cfg).unwrap(),
            StackSpec::basic(nn.clone()),
            StackSpec::ultimate(nn, AggressiveConfig::default()),
        ];
        for spec in specs {
            let mut ws = EpisodeWorkspace::new(spec);
            ws.start(&cfg, NnAnswer::Inline, false).unwrap();
            let (decision, est) = plan(&mut ws, 0.0, &cfg.ego_init);
            assert!(decision.accel.is_finite());
            assert!(est.position.contains(0.0)); // C1 starts at forward 0
        }
    }

    #[test]
    fn reinit_matches_a_fresh_build() {
        // Run an episode's worth of planning on a reused workspace, then
        // compare a freshly built one against a re-armed one.
        let cfg = EpisodeConfig::paper_default(3);
        let spec = StackSpec::pure_teacher_conservative(&cfg).unwrap();
        let mut reused = EpisodeWorkspace::new(spec.clone());
        reused.start(&cfg, NnAnswer::Inline, false).unwrap();
        for k in 0..40 {
            let t = k as f64 * cfg.dt_c;
            let _ = plan(&mut reused, t, &cfg.ego_init);
        }
        reused.start(&cfg, NnAnswer::Inline, false).unwrap();

        let mut fresh = EpisodeWorkspace::new(spec);
        fresh.start(&cfg, NnAnswer::Inline, false).unwrap();
        for k in 0..10 {
            let t = k as f64 * cfg.dt_c;
            let (a, ea) = plan(&mut fresh, t, &cfg.ego_init);
            let (b, eb) = plan(&mut reused, t, &cfg.ego_init);
            assert_eq!(a.accel.to_bits(), b.accel.to_bits(), "step {k}");
            assert_eq!(a.source, b.source, "step {k}");
            assert_eq!(ea, eb, "step {k}");
        }
    }
}
