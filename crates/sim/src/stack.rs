use cv_dynamics::VehicleState;
use cv_estimation::{
    Estimator, FilterMode, InformationFilter, Interval, NaiveEstimator, Prior, VehicleEstimate,
};
use cv_planner::{NnPlanner, TeacherPolicy};
use left_turn::{LeftTurnScenario, ScenarioError};
use safe_shield::{
    merge_windows_in_place, AggressiveConfig, CompoundPlanner, Observation, PlanDecision, Planner,
    PlannerSource, Scenario, WindowSource, DEFAULT_MERGE_GAP,
};

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

    /// Builds the per-episode executor (estimator + planner pipeline), one
    /// estimator per conflicting vehicle.
    ///
    /// The planner is cloned here — once. Reuse the executor across episodes
    /// with [`StackSpec::reinit`] to avoid re-cloning NN weight matrices per
    /// episode.
    pub(crate) fn build(&self, cfg: &EpisodeConfig, scenarios: &[LeftTurnScenario]) -> StackExec {
        let inits: Vec<VehicleState> = cfg
            .vehicles()
            .iter()
            .map(|(_, speed, _)| VehicleState::new(0.0, *speed, 0.0))
            .collect();
        let kind = match self {
            StackSpec::PureNn { planner, window } => ExecKind::Pure {
                planner: Box::new(planner.clone()),
                estimators: Vec::new(),
                window: *window,
                scenarios: scenarios.to_vec(),
                is_nn: true,
            },
            StackSpec::PureTeacher { policy, window } => ExecKind::Pure {
                planner: Box::new(*policy),
                estimators: Vec::new(),
                window: *window,
                scenarios: scenarios.to_vec(),
                is_nn: false,
            },
            // The injected panic lives in the episode loop, not the
            // executor: the executor is the plain teacher.
            #[cfg(feature = "fault-injection")]
            StackSpec::PanicInjection { policy, window, .. } => ExecKind::Pure {
                planner: Box::new(*policy),
                estimators: Vec::new(),
                window: *window,
                scenarios: scenarios.to_vec(),
                is_nn: false,
            },
            StackSpec::Compound {
                planner,
                window_source,
                ..
            } => ExecKind::Compound {
                compound: CompoundPlanner::new(
                    scenarios.to_vec(),
                    Box::new(planner.clone()) as Box<dyn Planner + Send>,
                    *window_source,
                ),
                estimators: Vec::new(),
            },
        };
        let mut exec = StackExec {
            kind,
            est_scratch: Vec::with_capacity(inits.len()),
            win_scratch: Vec::with_capacity(inits.len()),
            frozen: Vec::new(),
        };
        self.reinit(&mut exec, cfg, scenarios, &inits);
        exec
    }

    /// Re-arms an executor previously built from **this same spec** for a
    /// fresh episode: estimators are rebuilt from the episode's initial
    /// states, the planner is reset in place (NN weights are *not*
    /// re-cloned), and the compound planner's scenario list is refreshed.
    ///
    /// Equivalent to [`StackSpec::build`] over the same inputs.
    pub(crate) fn reinit(
        &self,
        exec: &mut StackExec,
        cfg: &EpisodeConfig,
        scenarios: &[LeftTurnScenario],
        inits: &[VehicleState],
    ) {
        // Normalise the fault-injection wrapper to the teacher it embeds so
        // the shape match below stays exhaustive over real stacks.
        #[cfg(feature = "fault-injection")]
        if let StackSpec::PanicInjection { policy, window, .. } = self {
            let teacher = StackSpec::PureTeacher {
                policy: *policy,
                window: *window,
            };
            return teacher.reinit(exec, cfg, scenarios, inits);
        }
        // Every slot starts live; the stepper pins retired vehicles.
        exec.frozen.clear();
        exec.frozen.resize(inits.len(), None);
        let other_limits = scenarios[0].other_limits();
        match (&mut exec.kind, self) {
            (
                ExecKind::Pure {
                    planner,
                    estimators,
                    scenarios: exec_scenarios,
                    ..
                },
                StackSpec::PureNn { .. } | StackSpec::PureTeacher { .. },
            ) => {
                planner.reset();
                estimators.clear();
                estimators.extend(inits.iter().map(|init| {
                    Box::new(NaiveEstimator::new(other_limits, 0.0, *init))
                        as Box<dyn Estimator + Send>
                }));
                exec_scenarios.clear();
                exec_scenarios.extend_from_slice(scenarios);
            }
            (
                ExecKind::Compound {
                    compound,
                    estimators,
                },
                StackSpec::Compound { filter_mode, .. },
            ) => {
                compound.reinit(scenarios);
                estimators.clear();
                estimators.extend(inits.iter().map(|init| {
                    Box::new(InformationFilter::new(
                        other_limits,
                        cfg.noise,
                        *filter_mode,
                        Prior::exact(0.0, init.position, init.velocity),
                    )) as Box<dyn Estimator + Send>
                }));
            }
            _ => unreachable!("executor was built from a different StackSpec shape"),
        }
    }
}

/// Per-episode executor: owns the estimators and the planner pipeline, plus
/// per-step scratch buffers so [`StackExec::plan`] performs no heap
/// allocation in the steady state.
pub(crate) struct StackExec {
    kind: ExecKind,
    /// One estimate per conflicting vehicle, refilled each step.
    est_scratch: Vec<VehicleEstimate>,
    /// Window cluster buffer for the unshielded merge, refilled each step.
    win_scratch: Vec<Interval>,
    /// Retirement pins, one slot per conflicting vehicle: a `Some(est)`
    /// here overrides estimator `i`'s live estimate with a snapshot taken
    /// when the stepper retired its vehicle (see `crate::events`).
    frozen: Vec<Option<VehicleEstimate>>,
}

/// Fills `out` with one estimate per vehicle: a retired vehicle's pinned
/// snapshot, else its estimator's live estimate.
fn fill_estimates(
    out: &mut Vec<VehicleEstimate>,
    frozen: &[Option<VehicleEstimate>],
    estimators: &[Box<dyn Estimator + Send>],
    time: f64,
) {
    out.clear();
    out.extend(
        estimators
            .iter()
            .zip(frozen)
            .map(|(e, f)| f.unwrap_or_else(|| e.estimate(time))),
    );
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
        estimators: Vec<Box<dyn Estimator + Send>>,
        window: WindowKind,
        scenarios: Vec<LeftTurnScenario>,
        /// Whether `planner` is an NN whose evaluation can be deferred to a
        /// batched kernel ([`StackExec::plan_prepare`]).
        is_nn: bool,
    },
    Compound {
        compound: CompoundPlanner<LeftTurnScenario, Box<dyn Planner + Send>>,
        estimators: Vec<Box<dyn Estimator + Send>>,
    },
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
    /// Pins vehicle `i`'s estimate to `est` for the rest of the episode.
    pub(crate) fn set_frozen(&mut self, i: usize, est: VehicleEstimate) {
        self.frozen[i] = Some(est);
    }

    /// The estimator tracking conflicting vehicle `i`.
    pub(crate) fn estimator_mut(&mut self, i: usize) -> &mut (dyn Estimator + Send) {
        match &mut self.kind {
            ExecKind::Pure { estimators, .. } => estimators[i].as_mut(),
            ExecKind::Compound { estimators, .. } => estimators[i].as_mut(),
        }
    }

    /// Plans one step with the NN answered inline; returns the decision and
    /// the primary vehicle's estimate.
    #[cfg(test)]
    pub(crate) fn plan(
        &mut self,
        time: f64,
        ego: &VehicleState,
    ) -> (PlanDecision, VehicleEstimate) {
        let decision = match self.plan_prepare(time, ego) {
            StepPlan::Ready(decision) => decision,
            StepPlan::Nn { obs } => PlanDecision {
                accel: self.answer(&obs),
                source: PlannerSource::NeuralNetwork,
            },
        };
        (decision, self.primary_estimate())
    }

    /// Answers a [`StepPlan::Nn`] step with the executor's own planner: the
    /// embedded NN's mapped acceleration on `obs`.
    pub(crate) fn answer(&mut self, obs: &Observation) -> f64 {
        match &mut self.kind {
            ExecKind::Pure { planner, .. } => planner.plan(obs),
            ExecKind::Compound { compound, .. } => compound.nn_mut().plan(obs),
        }
    }

    /// The primary vehicle's estimate as of the last
    /// [`StackExec::plan_prepare`] (for tracing).
    pub(crate) fn primary_estimate(&self) -> VehicleEstimate {
        self.est_scratch[0]
    }

    /// Decision phase of one step with the NN evaluation left open: runs
    /// estimation, window fusion, and (for a compound stack) the monitor /
    /// emergency logic, then either returns the finished decision or the
    /// observation the NN must be evaluated on — by [`StackExec::answer`]
    /// inline, or by a batched forward over many episodes. Both build the
    /// observation with the same fusion code, and (for compound stacks)
    /// [`CompoundPlanner::plan`] is itself prepare + inline answer.
    pub(crate) fn plan_prepare(&mut self, time: f64, ego: &VehicleState) -> StepPlan {
        match &mut self.kind {
            ExecKind::Pure {
                planner,
                estimators,
                window,
                scenarios,
                is_nn,
            } => {
                fill_estimates(&mut self.est_scratch, &self.frozen, estimators, time);
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
            ExecKind::Compound {
                compound,
                estimators,
            } => {
                fill_estimates(&mut self.est_scratch, &self.frozen, estimators, time);
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
        let specs = [
            StackSpec::PureTeacher {
                policy: teacher,
                window: WindowKind::Conservative,
            },
            StackSpec::pure_teacher_aggressive(&cfg).unwrap(),
        ];
        for spec in specs {
            let mut exec = spec.build(&cfg, &scenarios);
            let (decision, est) = exec.plan(0.0, &cfg.ego_init);
            assert!(decision.accel.is_finite());
            assert!(est.position.contains(0.0)); // C1 starts at forward 0
        }
    }

    #[test]
    fn reinit_matches_a_fresh_build() {
        // Run an episode's worth of planning on a reused executor, then
        // compare a freshly built one against a reinitialised one.
        let cfg = EpisodeConfig::paper_default(3);
        let scenarios = cfg.scenarios().unwrap();
        let spec = StackSpec::pure_teacher_conservative(&cfg).unwrap();
        let inits: Vec<VehicleState> = cfg
            .vehicles()
            .iter()
            .map(|(_, speed, _)| VehicleState::new(0.0, *speed, 0.0))
            .collect();

        let mut reused = spec.build(&cfg, &scenarios);
        for k in 0..40 {
            let t = k as f64 * cfg.dt_c;
            let _ = reused.plan(t, &cfg.ego_init);
        }
        spec.reinit(&mut reused, &cfg, &scenarios, &inits);

        let mut fresh = spec.build(&cfg, &scenarios);
        for k in 0..10 {
            let t = k as f64 * cfg.dt_c;
            let (a, ea) = fresh.plan(t, &cfg.ego_init);
            let (b, eb) = reused.plan(t, &cfg.ego_init);
            assert_eq!(a.accel.to_bits(), b.accel.to_bits(), "step {k}");
            assert_eq!(a.source, b.source, "step {k}");
            assert_eq!(ea, eb, "step {k}");
        }
    }
}
