//! The episode stepper: the simulator's one per-step loop.
//!
//! Every execution mode runs its episodes through
//! `EpisodeWorkspace::advance`. Per control step `t = k·Δt_c`, per
//! conflicting vehicle in index order: the vehicle broadcasts (every
//! `Δt_m`), due V2V messages reach its estimator, the sensor fires (every
//! `Δt_s`); then ground truth is checked (collision → `η = −1`, target →
//! `η = 1/t`), the stack plans, and all vehicles advance one step.
//!
//! The pairs run on one schedule, the event wheel ([`crate::events`]):
//! message arrivals are resolved at send time onto per-pair FIFOs, and
//! pairs that cleared the zone retire, except while traces are recorded.
//! One policy, derived from [`crate::BatchMode`], varies who answers a
//! nominal NN step (`NnAnswer`). *Inline* (one lane) answers it with the
//! executor's own planner inside `advance`; *deferred* (`Lanes(k > 1)`)
//! parks the episode with the observation, which the lane group answers
//! from one batched forward and hands back through `resume`
//! ([`crate::lanes`]).
//!
//! Traces are recorded only with the NN answered inline
//! ([`EpisodeWorkspace::run`]).

use std::sync::atomic::{AtomicBool, Ordering};

use cv_comm::Message;
use cv_dynamics::{Trajectory, VehicleState};
use cv_estimation::VehicleEstimate;
use left_turn::LeftTurnScenario;
use safe_shield::{Observation, Outcome, PlanDecision, PlannerSource, Scenario};

use crate::cadence::Cadence;
use crate::events::arrival_tick;
use crate::stack::StepPlan;
use crate::workspace::Pair;
use crate::{
    DecisionTrace, EpisodeConfig, EpisodeResult, EpisodeTraces, EpisodeWorkspace, SimError,
    WindowTrace,
};

/// Who answers a nominal NN step (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NnAnswer {
    /// The executor's own planner, inside [`EpisodeWorkspace::advance`].
    Inline,
    /// The caller, through the next `advance`'s `resume`.
    Deferred,
}

/// What [`EpisodeWorkspace::advance`] came back with.
pub(crate) enum StepAdvance {
    /// The episode reached its ground-truth outcome.
    Finished(EpisodeResult),
    /// Parked mid-step (deferred answer only): the NN must be evaluated on
    /// `obs` and the episode resumed with the mapped acceleration.
    NeedsNn { obs: Observation },
    /// The interrupt flag was observed set at a step boundary.
    Interrupted,
}

/// Per-episode state of the stepper, armed by [`EpisodeWorkspace::start`].
pub(crate) struct Run {
    /// The primary pair's scenario: the ego's target and limits, and the
    /// conflicting vehicles' limits.
    primary: LeftTurnScenario,
    ego: VehicleState,
    msg: Cadence,
    sense: Cadence,
    steps: u64,
    step: u64,
    emergency_steps: u64,
    total_steps: u64,
    answer: NnAnswer,
    /// Retirement is on: no traces are recorded, and `v_min > 0`, so a
    /// vehicle past the exit can never re-enter the zone (otherwise pairs
    /// simply never retire — the cost is per-tick work on every pair, not
    /// wrong answers).
    retire: bool,
    /// Truth margin before a retirement probe reads the estimate: past the
    /// exit by the full sensor-noise band (plus slack), every measurement
    /// and message also lands past the exit, so the live estimate a
    /// non-retired pair keeps refining stays exit-side forever — which is
    /// what makes the pin bit-invisible.
    truth_margin: f64,
    /// Number of pairs not yet retired.
    active: usize,
    /// An NN evaluation is outstanding (deferred answer).
    parked: bool,
    traces: Option<EpisodeTraces>,
}

impl EpisodeWorkspace {
    /// Arms the stepper for one episode — executor re-arm (its scenario
    /// list rebuilt in place), then one pair per conflicting vehicle —
    /// without running any step.
    ///
    /// # Errors
    ///
    /// [`SimError::Scenario`] for an invalid geometry.
    pub(crate) fn start(
        &mut self,
        cfg: &EpisodeConfig,
        answer: NnAnswer,
        record_traces: bool,
    ) -> Result<(), SimError> {
        #[cfg(feature = "fault-injection")]
        if let crate::StackSpec::PanicInjection { panic_seeds, .. } = self.spec() {
            assert!(
                !panic_seeds.contains(&cfg.seed),
                "injected planner fault for seed {}",
                cfg.seed
            );
        }
        // Re-arm the retained executor: the planner (for an NN stack, its
        // weight matrices) is NOT re-cloned.
        let primary = match &mut self.exec {
            Some(exec) => {
                exec.reinit(cfg)?;
                exec.scenarios()[0]
            }
            None => self.exec.insert(self.spec.build(cfg)?).scenarios()[0],
        };
        self.arm_pairs(cfg, primary.other_limits());
        let n = self.pairs.len();
        self.run = Some(Run {
            primary,
            ego: cfg.ego_init,
            msg: Cadence::new(cfg.dt_m, cfg.dt_c),
            sense: Cadence::new(cfg.dt_s, cfg.dt_c),
            steps: (cfg.horizon / cfg.dt_c).ceil() as u64,
            step: 0,
            emergency_steps: 0,
            total_steps: 0,
            answer,
            retire: !record_traces && primary.other_limits().v_min() > 0.0,
            truth_margin: 2.0 * cfg.noise.delta_p + 0.5,
            active: n,
            parked: false,
            traces: record_traces.then(|| EpisodeTraces {
                others: vec![Trajectory::new(); n],
                ..EpisodeTraces::default()
            }),
        });
        Ok(())
    }

    /// Runs the armed episode (`cfg` as passed to
    /// [`EpisodeWorkspace::start`]) until it finishes, parks on a deferred
    /// NN evaluation, or observes `interrupt` at a step boundary.
    ///
    /// A parked episode must be resumed with the mapped acceleration in
    /// `resume`: the call first completes the parked step (decision source
    /// [`PlannerSource::NeuralNetwork`]) and then keeps stepping.
    ///
    /// # Panics
    ///
    /// Panics without a successful `start`, or if `resume` is given exactly
    /// when no evaluation is outstanding.
    pub(crate) fn advance(
        &mut self,
        cfg: &EpisodeConfig,
        mut resume: Option<f64>,
        interrupt: Option<&AtomicBool>,
    ) -> StepAdvance {
        let EpisodeWorkspace {
            exec,
            pairs,
            run: armed,
            ..
        } = self;
        let run = armed.as_mut().expect("advance() before start()");
        let exec = exec.as_mut().expect("executor armed by start()");
        assert_eq!(
            run.parked,
            resume.is_some(),
            "resume must answer exactly the outstanding NN evaluation"
        );
        run.parked = false;

        let (outcome, collided_pair) = loop {
            let t = run.step as f64 * cfg.dt_c;
            let decision = match resume.take() {
                Some(accel) => PlanDecision {
                    accel,
                    source: PlannerSource::NeuralNetwork,
                },
                None => {
                    if run.step > run.steps {
                        break (Outcome::Timeout, None);
                    }
                    if interrupt.is_some_and(|f| f.load(Ordering::Relaxed)) {
                        return StepAdvance::Interrupted;
                    }
                    if run.active > 0 {
                        let msg_now = run.msg.due();
                        let sense_now = run.sense.due();
                        let scenarios = exec.scenarios();
                        // V2V broadcast and delivery, then sensing — per
                        // pair, in index order.
                        for (i, (pair, scenario)) in pairs.iter_mut().zip(scenarios).enumerate() {
                            if pair.pin.is_some() {
                                continue;
                            }
                            if msg_now {
                                let m = Message::from_state(1 + i, t, &pair.truth);
                                if let Some(at) = pair.channel.send_scheduled(m, t) {
                                    // An arrival past the horizon is never
                                    // delivered.
                                    let tick = arrival_tick(at, run.step, cfg.dt_c);
                                    if tick <= run.steps {
                                        pair.arrivals.schedule(m, tick);
                                    }
                                }
                            }
                            while let Some(m) = pair.arrivals.pop_due(run.step) {
                                pair.estimator.on_message(&m);
                            }
                            if sense_now {
                                // Dropout-free sensors keep the historical
                                // RNG stream.
                                let maybe = if cfg.sensor_dropout > 0.0 {
                                    pair.sensor.try_measure(1 + i, t, &pair.truth)
                                } else {
                                    Some(pair.sensor.measure(1 + i, t, &pair.truth))
                                };
                                if let Some(m) = maybe {
                                    if let Some(tr) = run.traces.as_mut() {
                                        tr.measurements.push(m);
                                    }
                                    pair.estimator.on_measurement(&m);
                                }
                            }
                            // Retirement probe (crate::events): truth past
                            // the exit beyond the noise band, nothing in
                            // flight, and the live estimate already
                            // exit-side in both forms.
                            let exit = scenario.other_exit();
                            if run.retire
                                && !pair.arrivals.in_flight()
                                && pair.truth.position >= exit + run.truth_margin
                            {
                                let est = pair.estimator.estimate(t);
                                if est.position.lo() >= exit && est.nominal.position >= exit {
                                    pair.pin = Some(est);
                                    run.active -= 1;
                                }
                            }
                        }

                        // Ground truth, attributed to the colliding pair. A
                        // retired pair sits past the exit with `v_min > 0`,
                        // so it can never collide again: skipping it finds
                        // the same first hit as a full scan.
                        if let Some(hit) = pairs.iter().zip(scenarios).position(|(pair, s)| {
                            pair.pin.is_none() && s.collision(&run.ego, &pair.truth)
                        }) {
                            break (Outcome::Collision { time: t }, Some(hit));
                        }
                    }
                    if run.primary.target_reached(t, &run.ego) {
                        break (Outcome::Reached { time: t }, None);
                    }

                    // The ego plans every tick: the teacher policies pace
                    // on the per-tick windows.
                    match exec.plan_prepare(t, &run.ego, pairs) {
                        StepPlan::Ready(decision) => decision,
                        StepPlan::Nn { obs } if run.answer == NnAnswer::Inline => PlanDecision {
                            accel: exec.answer(&obs),
                            source: PlannerSource::NeuralNetwork,
                        },
                        StepPlan::Nn { obs } => {
                            run.parked = true;
                            return StepAdvance::NeedsNn { obs };
                        }
                    }
                }
            };

            // Actuation: the one place a planned step completes.
            run.total_steps += 1;
            if decision.source == PlannerSource::Emergency {
                run.emergency_steps += 1;
            }
            if let Some(tr) = run.traces.as_mut() {
                record(
                    tr,
                    t,
                    &run.ego,
                    pairs,
                    exec.primary_estimate(),
                    &run.primary,
                    decision,
                );
            }
            run.ego = run
                .primary
                .ego_limits()
                .step(&run.ego, decision.accel, cfg.dt_c);
            if run.active > 0 {
                // Still-active followers gap-track their (possibly retired)
                // predecessors, so all vehicles advance together until the
                // last pair retires; after that nothing reads them again.
                let limits = run.primary.other_limits();
                crate::driver::actuate_others(limits, pairs, t, cfg.dt_c);
            }
            run.step += 1;
            run.msg.advance();
            run.sense.advance();
        };

        let run = armed.take().expect("armed above");
        StepAdvance::Finished(EpisodeResult {
            eta: outcome.eta(),
            outcome,
            emergency_steps: run.emergency_steps,
            total_steps: run.total_steps,
            collided_pair,
            traces: run.traces,
        })
    }
}

/// Appends one control step to the traces: states, the primary vehicle's
/// estimate and windows (plus the truth's nominal window), and the decision.
fn record(
    tr: &mut EpisodeTraces,
    t: f64,
    ego: &VehicleState,
    pairs: &[Pair],
    est: VehicleEstimate,
    primary: &LeftTurnScenario,
    decision: PlanDecision,
) {
    tr.ego.push(t, *ego);
    for (trajectory, pair) in tr.others.iter_mut().zip(pairs) {
        trajectory.push(t, pair.truth);
    }
    tr.estimates.push((t, est));
    let truth_est = VehicleEstimate::exact(t, pairs[0].truth);
    tr.windows.push(WindowTrace {
        time: t,
        conservative: primary.conservative_window(t, &est),
        aggressive: primary.aggressive_window(t, &est, &Default::default()),
        truth_nominal: primary.nominal_window(t, &truth_est),
    });
    tr.decisions.push(DecisionTrace {
        time: t,
        source: decision.source,
        accel: decision.accel,
    });
}
