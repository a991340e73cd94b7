//! Lane-batched episode execution: K episodes stepped in lockstep per
//! worker, with every deferred NN evaluation of the group answered by one
//! batched forward pass ([`cv_nn::Mlp::forward_batch_into`]).
//!
//! The per-episode path evaluates the planner network once per control
//! step on a 1-row input — far below the arithmetic intensity the dense
//! kernels want. Here each worker owns a [`LaneGroup`] of `K ≤ 8` episode
//! *lanes*; every lane runs its own episode through a resumable
//! [`EpisodeStepper`] that executes communication, sensing, estimation,
//! window fusion, and (for compound stacks) the monitor/emergency logic
//! per episode, but **defers** NN evaluations. The group gathers the
//! deferred observations into the columns of a structure-of-arrays input
//! slab and answers all of them with one `(out×in)·(in×8)` matmul chain.
//!
//! **Refill policy:** lanes are independent. When an episode finishes
//! early (collision / reached target), its lane immediately claims the
//! next unclaimed episode index from the shared [`WorkQueue`] — an
//! early-exit episode never stalls the rest of the group. A lane whose
//! stepper is between NN steps (emergency planner in control) simply
//! skips rounds of the batched forward.
//!
//! **Determinism and tolerance contract (DESIGN.md §15):** which lane —
//! and which group — an episode lands in is racy by design, so per-episode
//! numerics are *lane-invariant*: the batched kernels compute each output
//! column from its own input column with an identical operation order, and
//! dead lanes carry zeros. Results therefore depend only on the episode
//! configuration and the configured [`BatchMode`]:
//!
//! * `Lanes(1)` routes every NN evaluation through the exact per-episode
//!   `predict_into` path and is **bit-identical** to
//!   [`crate::run_batch_supervised`];
//! * `Lanes(k)` for `k > 1` uses the padded 8-wide kernel. Both paths
//!   share cv-nn's one vectorised `tanh`; the lane kernel's FMA
//!   contraction and missing zero-skip differ from the per-episode path
//!   at the last few ulps, so trajectories can diverge at decision
//!   boundaries, bounded by the per-field gate in [`lane_tolerance_check`].

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

use cv_comm::Message;
use cv_dynamics::{VehicleLimits, VehicleState};
use cv_nn::{BatchScratch, LanePlan, Matrix, Mlp, MlpScratch, LANE_WIDTH};
use cv_planner::NnPlanner;
use safe_shield::{Observation, Outcome, PlannerSource, Scenario};

use crate::cadence::Cadence;
use crate::events::run_batch_event_driven;
use crate::scheduler::WorkQueue;
use crate::stack::StepPlan;
use crate::supervise::payload_string;
use crate::{
    run_batch_supervised, BatchConfig, BatchReport, EpisodeConfig, EpisodeOutcome, EpisodeResult,
    EpisodeWorkspace, Quarantine, SimError, SkipReason, StackSpec,
};

/// How a batch distributes episodes over each worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchMode {
    /// The reference path: one episode at a time per worker, bit-identical
    /// to [`crate::run_batch_supervised`].
    PerEpisode,
    /// K episodes stepped in lockstep per worker (`1 ≤ K ≤` [`LANE_WIDTH`]).
    /// `Lanes(1)` is bit-identical to [`BatchMode::PerEpisode`]; larger K
    /// is covered by the tolerance contract (module docs).
    Lanes(usize),
    /// The event-driven engine ([`crate::events`]): one episode at a time
    /// per worker, with V2V deliveries scheduled on an event wheel and
    /// cleared vehicle pairs retired from the per-tick loop. Bit-identical
    /// to [`BatchMode::PerEpisode`] (DESIGN.md §18); fastest on sparse
    /// platoon workloads where most pairs are quiescent most of the time.
    EventDriven,
}

impl BatchMode {
    /// The lane count this mode runs (`1` for the per-episode and
    /// event-driven paths).
    pub fn lanes(&self) -> usize {
        match self {
            BatchMode::PerEpisode | BatchMode::EventDriven => 1,
            BatchMode::Lanes(k) => *k,
        }
    }

    /// Rejects lane counts outside `1..=`[`LANE_WIDTH`].
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidBatch`] with the offending count.
    pub fn validate(&self) -> Result<(), SimError> {
        match self {
            BatchMode::PerEpisode | BatchMode::EventDriven => Ok(()),
            BatchMode::Lanes(k) if (1..=LANE_WIDTH).contains(k) => Ok(()),
            BatchMode::Lanes(k) => Err(SimError::InvalidBatch {
                reason: format!("lane count {k} outside 1..={LANE_WIDTH}"),
            }),
        }
    }
}

/// Tolerance gate between a lane-batched [`EpisodeResult`] and its
/// per-episode reference: two control periods of time slack at a decision
/// boundary, and the `η` drift that time slack implies.
pub const LANE_TOL_TIME: f64 = 0.1;
/// `η` tolerance of the gate (`η = 1/t_r`; `LANE_TOL_TIME` at `t_r ≳ 4 s`
/// moves `η` by well under this).
pub const LANE_TOL_ETA: f64 = 0.01;
/// Step-count tolerance of the gate (total and emergency steps).
pub const LANE_TOL_STEPS: u64 = 4;

/// The per-field tolerance contract between a lane-batched episode result
/// and the per-episode reference (module docs; DESIGN.md §15): identical
/// outcome *kind*, outcome time within [`LANE_TOL_TIME`], `η` within
/// [`LANE_TOL_ETA`], and step counters within [`LANE_TOL_STEPS`].
///
/// # Errors
///
/// A human-readable description of the first violated field.
pub fn lane_tolerance_check(
    reference: &EpisodeResult,
    batched: &EpisodeResult,
) -> Result<(), String> {
    let time_of = |o: &Outcome| match o {
        Outcome::Collision { time } | Outcome::Reached { time } => Some(*time),
        Outcome::Timeout => None,
    };
    let kind = |o: &Outcome| match o {
        Outcome::Collision { .. } => "collision",
        Outcome::Reached { .. } => "reached",
        Outcome::Timeout => "timeout",
    };
    if kind(&reference.outcome) != kind(&batched.outcome) {
        return Err(format!(
            "outcome kind diverged: reference {:?} vs batched {:?}",
            reference.outcome, batched.outcome
        ));
    }
    if let (Some(a), Some(b)) = (time_of(&reference.outcome), time_of(&batched.outcome)) {
        if (a - b).abs() > LANE_TOL_TIME {
            return Err(format!("outcome time diverged: {a} vs {b}"));
        }
    }
    if (reference.eta - batched.eta).abs() > LANE_TOL_ETA {
        return Err(format!(
            "eta diverged: {} vs {}",
            reference.eta, batched.eta
        ));
    }
    if reference.total_steps.abs_diff(batched.total_steps) > LANE_TOL_STEPS {
        return Err(format!(
            "total_steps diverged: {} vs {}",
            reference.total_steps, batched.total_steps
        ));
    }
    if reference.emergency_steps.abs_diff(batched.emergency_steps) > LANE_TOL_STEPS {
        return Err(format!(
            "emergency_steps diverged: {} vs {}",
            reference.emergency_steps, batched.emergency_steps
        ));
    }
    Ok(())
}

/// What [`EpisodeStepper::advance`] came back with.
enum StepAdvance {
    /// The episode reached its ground-truth outcome.
    Finished(EpisodeResult),
    /// The stepper is parked mid-step: the NN must be evaluated on `obs`
    /// and the lane resumed with the mapped acceleration.
    NeedsNn { obs: Observation },
    /// The interrupt flag was observed set at a step boundary.
    Interrupted,
}

/// Mutable per-episode state of a parked [`EpisodeStepper`].
struct RunState {
    cfg: EpisodeConfig,
    slot: usize,
    ego: VehicleState,
    ego_limits: VehicleLimits,
    other_limits: VehicleLimits,
    /// Broadcast cadence, in countdown form (broadcast when due).
    msg: Cadence,
    /// Sensing cadence, in countdown form (sense when due).
    sense: Cadence,
    steps: u64,
    step: u64,
    emergency_steps: u64,
    total_steps: u64,
    /// Step time of the outstanding NN evaluation, when parked.
    pending_time: Option<f64>,
}

impl RunState {
    /// Advances the step counter and the cadence countdowns together; the
    /// two actuation sites (the inline `Ready` path and
    /// [`EpisodeStepper::resume`]) must stay in lockstep on all three.
    fn advance_step(&mut self) {
        self.step += 1;
        self.msg.advance();
        self.sense.advance();
    }
}

/// A resumable episode: the exact event loop of
/// [`EpisodeWorkspace::run_interruptible`] (communication, sensing,
/// ground-truth checks, planning, dynamics — in that order, same RNG
/// streams), restructured as a state machine that parks whenever the stack
/// defers an NN evaluation ([`StepAdvance::NeedsNn`]). Lane mode never
/// records traces.
struct EpisodeStepper {
    ws: EpisodeWorkspace,
    run: Option<RunState>,
}

impl EpisodeStepper {
    fn new(spec: StackSpec) -> Self {
        Self {
            ws: EpisodeWorkspace::new(spec),
            run: None,
        }
    }

    /// Arms the stepper for one episode (scenario lookup, vehicle/channel
    /// re-arm, executor reinit) without running any step.
    ///
    /// # Errors
    ///
    /// [`SimError::Scenario`] for an invalid geometry, exactly as
    /// [`EpisodeWorkspace::run`] would.
    fn start(&mut self, cfg: &EpisodeConfig) -> Result<(), SimError> {
        #[cfg(feature = "fault-injection")]
        if let StackSpec::PanicInjection { panic_seeds, .. } = self.ws.spec() {
            assert!(
                !panic_seeds.contains(&cfg.seed),
                "injected planner fault for seed {}",
                cfg.seed
            );
        }
        let slot = self.ws.scenario_slot(cfg)?;
        let ego_limits = self.ws.cached_scenarios(slot)[0].ego_limits();
        let other_limits = self.ws.cached_scenarios(slot)[0].other_limits();
        self.ws.arm_vehicles(cfg, other_limits);

        let EpisodeWorkspace {
            spec,
            exec,
            scenario_cache,
            others,
            ..
        } = &mut self.ws;
        let scenarios = scenario_cache[slot].1.as_slice();
        match exec {
            Some(e) => spec.reinit(e, cfg, scenarios, others),
            None => *exec = Some(spec.build(cfg, scenarios)),
        }

        self.run = Some(RunState {
            ego: cfg.ego_init,
            msg: Cadence::new(cfg.dt_m, cfg.dt_c),
            sense: Cadence::new(cfg.dt_s, cfg.dt_c),
            steps: (cfg.horizon / cfg.dt_c).ceil() as u64,
            step: 0,
            emergency_steps: 0,
            total_steps: 0,
            pending_time: None,
            cfg: cfg.clone(),
            slot,
            ego_limits,
            other_limits,
        });
        Ok(())
    }

    /// Runs the episode forward until it finishes, defers an NN step, or
    /// observes the interrupt flag at a step boundary.
    ///
    /// When the stepper is parked on a deferred evaluation, `resume` must
    /// carry the mapped acceleration: the call first completes the parked
    /// step (decision source [`PlannerSource::NeuralNetwork`], the exact
    /// actuation tail of the per-episode loop) and then keeps stepping.
    /// Folding the resume into the advance this way costs one prologue
    /// (workspace destructure, scenario lookup) per lane per round instead
    /// of two.
    ///
    /// # Panics
    ///
    /// Panics if called without a successful [`EpisodeStepper::start`], if
    /// an evaluation is outstanding and `resume` is `None`, or if `resume`
    /// is `Some` with no evaluation outstanding.
    fn advance(&mut self, resume: Option<f64>, interrupt: Option<&AtomicBool>) -> StepAdvance {
        let EpisodeStepper { ws, run } = self;
        let state = run.as_mut().expect("advance() before start()");
        let EpisodeWorkspace {
            exec,
            scenario_cache,
            channels,
            sensors,
            drivers,
            others,
            inbox,
            ..
        } = ws;
        let exec = exec.as_mut().expect("executor armed by start()");
        let scenarios = scenario_cache[state.slot].1.as_slice();
        // Copied out so `state` stays free for whole-struct method calls
        // (`advance_step`) inside the loop.
        let dt_c = state.cfg.dt_c;
        let sensor_dropout = state.cfg.sensor_dropout;

        match (state.pending_time.take(), resume) {
            (Some(t), Some(accel)) => {
                state.ego = state.ego_limits.step(&state.ego, accel, dt_c);
                crate::driver::actuate_others(&state.cfg, state.other_limits, drivers, others, t);
                state.advance_step();
            }
            (None, None) => {}
            (Some(_), None) => panic!("advance() with an NN evaluation outstanding"),
            (None, Some(_)) => panic!("resume without an outstanding NN evaluation"),
        }

        let (outcome, collided_pair) = loop {
            if state.step > state.steps {
                break (Outcome::Timeout, None);
            }
            if let Some(flag) = interrupt {
                if flag.load(Ordering::Relaxed) {
                    return StepAdvance::Interrupted;
                }
            }
            let t = state.step as f64 * dt_c;
            let msg_now = state.msg.due();
            let sense_now = state.sense.due();

            // V2V broadcast and delivery, then sensing — per vehicle.
            for (i, other) in others.iter().enumerate() {
                if msg_now {
                    channels[i]
                        .chan
                        .send(Message::from_state(1 + i, t, other), t);
                }
                inbox.clear();
                channels[i].chan.receive_into(t, inbox);
                for msg in inbox.iter() {
                    exec.estimator_mut(i).on_message(msg);
                }
                if sense_now {
                    // Dropout-free sensors keep the historical RNG stream.
                    let maybe = if sensor_dropout > 0.0 {
                        sensors[i].try_measure(1 + i, t, other)
                    } else {
                        Some(sensors[i].measure(1 + i, t, other))
                    };
                    if let Some(m) = maybe {
                        exec.estimator_mut(i).on_measurement(&m);
                    }
                }
            }

            // Ground-truth evaluation, attributed to the colliding pair.
            if let Some(hit) = scenarios
                .iter()
                .zip(others.iter())
                .position(|(s, other)| s.collision(&state.ego, other))
            {
                break (Outcome::Collision { time: t }, Some(hit));
            }
            if scenarios[0].target_reached(t, &state.ego) {
                break (Outcome::Reached { time: t }, None);
            }

            // Plan; either complete the step inline or park for the group.
            match exec.plan_prepare(t, &state.ego) {
                StepPlan::Ready(decision) => {
                    state.total_steps += 1;
                    if decision.source == PlannerSource::Emergency {
                        state.emergency_steps += 1;
                    }
                    state.ego = state.ego_limits.step(&state.ego, decision.accel, dt_c);
                    crate::driver::actuate_others(
                        &state.cfg,
                        state.other_limits,
                        drivers,
                        others,
                        t,
                    );
                    state.advance_step();
                }
                StepPlan::Nn { obs } => {
                    state.total_steps += 1;
                    state.pending_time = Some(t);
                    return StepAdvance::NeedsNn { obs };
                }
            }
        };

        let result = EpisodeResult {
            eta: outcome.eta(),
            outcome,
            emergency_steps: state.emergency_steps,
            total_steps: state.total_steps,
            collided_pair,
            traces: None,
        };
        *run = None;
        StepAdvance::Finished(result)
    }

    /// Discards the (possibly torn) workspace after a contained panic and
    /// rebuilds it from the spec — the same recovery as
    /// [`EpisodeWorkspace::run_supervised`].
    fn rebuild(&mut self) {
        let spec = self.ws.spec().clone();
        self.ws = EpisodeWorkspace::new(spec);
        self.run = None;
    }
}

/// The group's shared batched NN evaluator: the lane plan (pre-transposed
/// weights), the SoA activation slabs, and the gather/scatter buffers.
struct GroupNn {
    plan: LanePlan,
    scratch: BatchScratch,
    /// `FEATURES × LANE_WIDTH` input slab; dead columns are zeroed.
    input: Matrix,
    /// `1 × LANE_WIDTH` output slab.
    out: Matrix,
    scaling: cv_planner::FeatureScaling,
    limits: VehicleLimits,
    net: Mlp,
    /// Per-sample scratch for the `Lanes(1)` exact path.
    solo: MlpScratch,
}

impl GroupNn {
    fn new(planner: &NnPlanner) -> Self {
        let net = planner.network().clone();
        Self {
            plan: net.lane_plan(),
            scratch: BatchScratch::for_net(&net),
            input: Matrix::zeros(Observation::FEATURES, LANE_WIDTH),
            out: Matrix::zeros(net.output_dim(), LANE_WIDTH),
            scaling: planner.scaling(),
            limits: planner.limits(),
            solo: MlpScratch::for_net(&net),
            net,
        }
    }

    /// Writes lane `slot`'s scaled features into its input column.
    fn gather(&mut self, slot: usize, obs: &Observation) {
        let features = NnPlanner::scaled_features(&self.scaling, obs);
        // Strided column write through the flat slab: the input is
        // FEATURES × LANE_WIDTH row-major, so lane `slot` lives at
        // `row * LANE_WIDTH + slot`. One bounds check per element on a
        // pre-sliced buffer beats the 2-D checked `set` on the per-step
        // hot path.
        let data = self.input.as_mut_slice();
        for (row, f) in features.iter().enumerate() {
            data[row * LANE_WIDTH + slot] = *f;
        }
    }

    /// Zeroes a dead lane's input column.
    fn clear_lane(&mut self, slot: usize) {
        let data = self.input.as_mut_slice();
        for row in 0..Observation::FEATURES {
            data[row * LANE_WIDTH + slot] = 0.0;
        }
    }

    /// One batched forward pass over the gathered columns.
    fn forward(&mut self) {
        self.net
            .forward_batch_into(&self.plan, &self.input, &mut self.scratch, &mut self.out)
            .expect("slab shapes fixed at construction");
    }

    /// Lane `slot`'s mapped acceleration after [`GroupNn::forward`].
    fn accel(&self, slot: usize) -> f64 {
        NnPlanner::map_output(&self.limits, self.out.get(0, slot))
    }

    /// The `Lanes(1)` exact path: per-sample `predict_into`, bit-identical
    /// to [`NnPlanner`]'s own `plan`.
    fn solo_accel(&mut self, obs: &Observation) -> f64 {
        let features = NnPlanner::scaled_features(&self.scaling, obs);
        let mut out = [0.0f64];
        self.net
            .predict_into(&features, &mut self.solo, &mut out)
            .expect("network arity checked at planner construction");
        NnPlanner::map_output(&self.limits, out[0])
    }
}

/// One lane slot of a [`LaneGroup`].
struct Lane {
    stepper: EpisodeStepper,
    /// Episode index this lane is running; meaningless when inactive.
    index: usize,
    /// Seed of that episode (kept so fault reporting never rebuilds the
    /// episode config mid-round).
    seed: u64,
    active: bool,
    /// Gathered an NN evaluation this round; resumed after the forward.
    waiting: bool,
}

/// K episode lanes driven in lockstep by one worker (module docs).
struct LaneGroup {
    lanes: Vec<Lane>,
    nn: GroupNn,
    k: usize,
}

impl LaneGroup {
    fn new(spec: &StackSpec, planner: &NnPlanner, k: usize) -> Self {
        Self {
            lanes: (0..k)
                .map(|_| Lane {
                    stepper: EpisodeStepper::new(spec.clone()),
                    index: usize::MAX,
                    seed: 0,
                    active: false,
                    waiting: false,
                })
                .collect(),
            nn: GroupNn::new(planner),
            k,
        }
    }

    /// Claims episodes for every inactive lane; episodes that are skipped,
    /// invalid, or panic during arming are emitted without occupying a
    /// lane. Returns whether any lane is active afterwards.
    fn refill(
        &mut self,
        claim: &mut dyn FnMut() -> Option<usize>,
        batch: &BatchConfig,
        quarantine: Option<&Quarantine>,
        interrupt: Option<&AtomicBool>,
        emit: &mut dyn FnMut(usize, EpisodeOutcome),
    ) -> bool {
        for lane in self.lanes.iter_mut() {
            if lane.active {
                continue;
            }
            while let Some(i) = claim() {
                let cfg = batch.episode(i);
                if interrupt.is_some_and(|f| f.load(Ordering::Relaxed)) {
                    emit(
                        i,
                        EpisodeOutcome::Skipped {
                            seed: cfg.seed,
                            reason: SkipReason::Interrupted,
                        },
                    );
                    continue;
                }
                if let Some(panics) = quarantine.and_then(|q| q.is_quarantined(cfg.seed)) {
                    emit(
                        i,
                        EpisodeOutcome::Skipped {
                            seed: cfg.seed,
                            reason: SkipReason::Quarantined { panics },
                        },
                    );
                    continue;
                }
                // AssertUnwindSafe: the stepper is rebuilt wholesale on the
                // panic path, so no torn state survives the catch.
                match catch_unwind(AssertUnwindSafe(|| lane.stepper.start(&cfg))) {
                    Ok(Ok(())) => {
                        lane.index = i;
                        lane.seed = cfg.seed;
                        lane.active = true;
                        lane.waiting = false;
                        break;
                    }
                    Ok(Err(error)) => {
                        emit(
                            i,
                            EpisodeOutcome::Failed {
                                seed: cfg.seed,
                                error,
                            },
                        );
                    }
                    Err(payload) => {
                        if let Some(q) = quarantine {
                            q.record_panic(cfg.seed);
                        }
                        emit(
                            i,
                            EpisodeOutcome::Panicked {
                                seed: cfg.seed,
                                payload: payload_string(payload.as_ref()),
                            },
                        );
                        lane.stepper.rebuild();
                    }
                }
            }
        }
        self.lanes.iter().any(|l| l.active)
    }

    /// One lockstep round: resume every lane parked on the previous
    /// round's forward results, advance each active lane to its next
    /// deferred NN step (or to completion), then answer the newly deferred
    /// evaluations with one batched forward — consumed at the start of the
    /// next round.
    ///
    /// Panic isolation is per *sweep*, not per lane-advance: one
    /// `catch_unwind` wraps the whole advance loop, with the lane currently
    /// in flight tracked so a caught panic retires exactly that lane and
    /// the sweep resumes at the next slot. Unwind-catch setup per lane-step
    /// was a measurable slice of the non-NN budget, and panics are
    /// exceptional — the slow path can afford the re-entry.
    fn round(
        &mut self,
        quarantine: Option<&Quarantine>,
        interrupt: Option<&AtomicBool>,
        emit: &mut dyn FnMut(usize, EpisodeOutcome),
    ) {
        let mut start = 0;
        while start < self.lanes.len() {
            let in_flight = Cell::new(start);
            let lanes = &mut self.lanes;
            let nn = &mut self.nn;
            let k = self.k;
            // AssertUnwindSafe: the panicking lane's stepper is rebuilt
            // wholesale below; no other lane is mid-mutation when one
            // lane's advance unwinds.
            let caught = catch_unwind(AssertUnwindSafe(|| {
                for (slot, lane) in lanes.iter_mut().enumerate().skip(start) {
                    if !lane.active {
                        continue;
                    }
                    in_flight.set(slot);
                    if k == 1 {
                        // Exact path: answer each deferred step inline
                        // through the per-sample kernel; a Lanes(1) batch
                        // is bit-identical to the per-episode path by
                        // construction.
                        let mut resume = None;
                        loop {
                            match lane.stepper.advance(resume, interrupt) {
                                StepAdvance::NeedsNn { obs } => {
                                    resume = Some(nn.solo_accel(&obs));
                                }
                                StepAdvance::Finished(result) => {
                                    lane.active = false;
                                    emit(lane.index, EpisodeOutcome::Completed(result));
                                    break;
                                }
                                StepAdvance::Interrupted => {
                                    lane.active = false;
                                    emit(
                                        lane.index,
                                        EpisodeOutcome::Skipped {
                                            seed: lane.seed,
                                            reason: SkipReason::Interrupted,
                                        },
                                    );
                                    break;
                                }
                            }
                        }
                        continue;
                    }
                    // A lane parked last round consumes its column of the
                    // forward results computed at the end of that round.
                    let resume = if lane.waiting {
                        lane.waiting = false;
                        Some(nn.accel(slot))
                    } else {
                        None
                    };
                    match lane.stepper.advance(resume, interrupt) {
                        StepAdvance::NeedsNn { obs } => {
                            nn.gather(slot, &obs);
                            lane.waiting = true;
                        }
                        StepAdvance::Finished(result) => {
                            lane.active = false;
                            emit(lane.index, EpisodeOutcome::Completed(result));
                        }
                        StepAdvance::Interrupted => {
                            lane.active = false;
                            emit(
                                lane.index,
                                EpisodeOutcome::Skipped {
                                    seed: lane.seed,
                                    reason: SkipReason::Interrupted,
                                },
                            );
                        }
                    }
                }
            }));
            match caught {
                Ok(()) => break,
                Err(payload) => {
                    let slot = in_flight.get();
                    let lane = &mut self.lanes[slot];
                    lane.active = false;
                    lane.waiting = false;
                    if let Some(q) = quarantine {
                        q.record_panic(lane.seed);
                    }
                    emit(
                        lane.index,
                        EpisodeOutcome::Panicked {
                            seed: lane.seed,
                            payload: payload_string(payload.as_ref()),
                        },
                    );
                    lane.stepper.rebuild();
                    start = slot + 1;
                }
            }
        }
        if !self.lanes.iter().any(|l| l.waiting) {
            return;
        }
        // Dead lanes carry zeros so the slab contents — and hence any
        // diagnostic dump of it — are a pure function of the waiting set.
        // Columns `k..LANE_WIDTH` are never gathered into, so they hold
        // their construction-time zeros for the life of the group.
        for slot in 0..self.k {
            if !self.lanes[slot].waiting {
                self.nn.clear_lane(slot);
            }
        }
        debug_assert!(
            (self.k..LANE_WIDTH).all(|s| (0..Observation::FEATURES).all(|r| self
                .nn
                .input
                .get(r, s)
                == 0.0))
        );
        // The results stay in the output slab; each waiting lane consumes
        // its column at the start of the next round's sweep, folding the
        // resume into that round's advance call.
        self.nn.forward();
    }
}

/// Drives one worker's [`LaneGroup`] until `claim` runs dry and every lane
/// retires. `emit` receives exactly one outcome per claimed index.
///
/// This is the building block [`run_batch_lanes`] fans out across workers;
/// it is public so external schedulers (e.g. the server's sharded worker
/// pool) can feed a lane group from their own claim queue while keeping
/// the same numeric contract. `claim` yields episode indices into `batch`;
/// `interrupt` is honoured at step granularity.
#[allow(clippy::too_many_arguments)] // the full fault-semantics surface of one worker
pub fn drive_lanes(
    claim: &mut dyn FnMut() -> Option<usize>,
    batch: &BatchConfig,
    spec: &StackSpec,
    planner: &NnPlanner,
    k: usize,
    quarantine: Option<&Quarantine>,
    interrupt: Option<&AtomicBool>,
    emit: &mut dyn FnMut(usize, EpisodeOutcome),
) {
    let mut group = LaneGroup::new(spec, planner, k);
    while group.refill(claim, batch, quarantine, interrupt, emit) {
        group.round(quarantine, interrupt, emit);
    }
}

/// Runs every episode of `batch` under supervision with lane batching:
/// each worker steps [`BatchMode::lanes`] episodes in lockstep and answers
/// their NN evaluations with one batched forward pass per round.
///
/// Fault semantics are identical to [`crate::run_batch_supervised`]
/// (typed per-episode outcomes, panic isolation, quarantine, step-granular
/// interruption). [`BatchMode::PerEpisode`] — and any stack without an
/// embedded NN planner, where lockstep has nothing to batch — delegates to
/// the per-episode path outright. Numerics follow the module-level
/// determinism/tolerance contract.
///
/// # Errors
///
/// [`SimError::InvalidBatch`] for an unrunnable batch configuration or a
/// lane count outside `1..=`[`LANE_WIDTH`].
pub fn run_batch_lanes(
    batch: &BatchConfig,
    spec: &StackSpec,
    mode: BatchMode,
    quarantine: Option<&Quarantine>,
    interrupt: Option<&AtomicBool>,
) -> Result<BatchReport, SimError> {
    batch.validate()?;
    mode.validate()?;
    let k = match mode {
        BatchMode::PerEpisode => return run_batch_supervised(batch, spec, quarantine, interrupt),
        BatchMode::EventDriven => {
            return run_batch_event_driven(batch, spec, quarantine, interrupt)
        }
        BatchMode::Lanes(k) => k,
    };
    let Some(planner) = spec.nn_planner() else {
        return run_batch_supervised(batch, spec, quarantine, interrupt);
    };

    let workers = batch.worker_count().max(1).min(batch.episodes);
    let mut slots: Vec<Option<EpisodeOutcome>> = Vec::new();
    slots.resize_with(batch.episodes, || None);

    if workers == 1 {
        let queue = WorkQueue::new(batch.episodes);
        drive_lanes(
            &mut || queue.claim(),
            batch,
            spec,
            planner,
            k,
            quarantine,
            interrupt,
            &mut |i, outcome| slots[i] = Some(outcome),
        );
    } else {
        let queue = WorkQueue::new(batch.episodes);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let queue = &queue;
                    scope.spawn(move || {
                        let mut local: Vec<(usize, EpisodeOutcome)> = Vec::new();
                        drive_lanes(
                            &mut || queue.claim(),
                            batch,
                            spec,
                            planner,
                            k,
                            quarantine,
                            interrupt,
                            &mut |i, outcome| local.push((i, outcome)),
                        );
                        local
                    })
                })
                .collect();
            for handle in handles {
                // As in the scheduler: a worker that dies between claiming
                // and reporting loses its buffer; the rescue below re-runs
                // those indices.
                if let Ok(local) = handle.join() {
                    for (i, outcome) in local {
                        slots[i] = Some(outcome);
                    }
                }
            }
        });
    }

    // Rescue pass: any index a dead worker never reported is re-run inline
    // through a fresh single-lane-at-a-time group of the same width, so
    // rescued episodes obey the same numeric contract as the rest.
    for i in 0..slots.len() {
        if slots[i].is_some() {
            continue;
        }
        let mut once = Some(i);
        drive_lanes(
            &mut || once.take(),
            batch,
            spec,
            planner,
            k,
            quarantine,
            interrupt,
            &mut |j, outcome| slots[j] = Some(outcome),
        );
    }

    Ok(BatchReport {
        outcomes: slots
            .into_iter()
            .map(|s| s.expect("every episode emitted exactly once"))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_nn::Activation;
    use cv_planner::FeatureScaling;

    fn nn_planner(seed: u64) -> NnPlanner {
        let net = Mlp::new(&[5, 16, 1], Activation::Tanh, Activation::Tanh, seed).unwrap();
        let limits = VehicleLimits::new(0.0, 12.0, -6.0, 3.0).unwrap();
        NnPlanner::new(net, limits, FeatureScaling::left_turn(), "lane-test")
    }

    fn nn_batch(episodes: usize, threads: usize) -> (BatchConfig, StackSpec) {
        let template = EpisodeConfig::paper_default(11);
        let spec = StackSpec::basic(nn_planner(3));
        let mut batch = BatchConfig::new(template, episodes);
        batch.threads = threads;
        (batch, spec)
    }

    #[test]
    fn mode_validation_rejects_bad_lane_counts() {
        assert!(BatchMode::Lanes(0).validate().is_err());
        assert!(BatchMode::Lanes(LANE_WIDTH + 1).validate().is_err());
        for k in 1..=LANE_WIDTH {
            assert!(BatchMode::Lanes(k).validate().is_ok());
        }
        assert_eq!(BatchMode::PerEpisode.lanes(), 1);
        assert_eq!(BatchMode::Lanes(4).lanes(), 4);
    }

    #[test]
    fn lanes_of_one_is_bit_identical_to_per_episode() {
        let (batch, spec) = nn_batch(10, 1);
        let reference = run_batch_supervised(&batch, &spec, None, None).unwrap();
        let lanes = run_batch_lanes(&batch, &spec, BatchMode::Lanes(1), None, None).unwrap();
        assert_eq!(reference, lanes, "Lanes(1) must be bit-identical");
        for (a, b) in reference.outcomes.iter().zip(&lanes.outcomes) {
            let (a, b) = (a.completed().unwrap(), b.completed().unwrap());
            assert_eq!(a.eta.to_bits(), b.eta.to_bits());
        }
    }

    #[test]
    fn lane_results_are_worker_and_group_invariant() {
        // The same batch over different worker counts (hence different racy
        // lane assignments) must produce identical outcomes.
        let (batch, spec) = nn_batch(12, 1);
        let serial = run_batch_lanes(&batch, &spec, BatchMode::Lanes(4), None, None).unwrap();
        for threads in [2, 3] {
            let mut b = batch.clone();
            b.threads = threads;
            let parallel = run_batch_lanes(&b, &spec, BatchMode::Lanes(4), None, None).unwrap();
            assert_eq!(serial, parallel, "{threads} workers diverged");
        }
    }

    #[test]
    fn batched_lanes_pass_the_tolerance_gate() {
        let (batch, spec) = nn_batch(10, 2);
        let reference = run_batch_supervised(&batch, &spec, None, None).unwrap();
        for k in [2, 4, 8] {
            let lanes = run_batch_lanes(&batch, &spec, BatchMode::Lanes(k), None, None).unwrap();
            for (i, (a, b)) in reference.outcomes.iter().zip(&lanes.outcomes).enumerate() {
                let (a, b) = (a.completed().unwrap(), b.completed().unwrap());
                lane_tolerance_check(a, b).unwrap_or_else(|e| panic!("K={k} episode {i}: {e}"));
            }
        }
    }

    #[test]
    fn teacher_specs_fall_back_to_the_per_episode_path() {
        let template = EpisodeConfig::paper_default(5);
        let spec = StackSpec::pure_teacher_conservative(&template).unwrap();
        let batch = BatchConfig::new(template, 6);
        let reference = run_batch_supervised(&batch, &spec, None, None).unwrap();
        let lanes = run_batch_lanes(&batch, &spec, BatchMode::Lanes(8), None, None).unwrap();
        assert_eq!(reference, lanes);
    }

    #[test]
    fn invalid_episode_is_contained_and_lanes_refill_past_it() {
        // One unreachable start position fails its episodes; surviving
        // episodes still complete and match the per-episode reference gate.
        let (mut batch, spec) = nn_batch(8, 1);
        batch.starts = vec![batch.starts[0], 10.0];
        let reference = run_batch_supervised(&batch, &spec, None, None).unwrap();
        let lanes = run_batch_lanes(&batch, &spec, BatchMode::Lanes(4), None, None).unwrap();
        let summary = lanes.summary();
        assert_eq!((summary.requested, summary.failed), (8, 4));
        for (i, (a, b)) in reference.outcomes.iter().zip(&lanes.outcomes).enumerate() {
            match (a, b) {
                (EpisodeOutcome::Completed(a), EpisodeOutcome::Completed(b)) => {
                    lane_tolerance_check(a, b).unwrap_or_else(|e| panic!("episode {i}: {e}"));
                }
                (
                    EpisodeOutcome::Failed { seed: sa, .. },
                    EpisodeOutcome::Failed { seed: sb, .. },
                ) => {
                    assert_eq!(sa, sb);
                }
                other => panic!("episode {i} outcome shape diverged: {other:?}"),
            }
        }
    }

    #[test]
    fn interrupt_set_up_front_skips_everything() {
        let (batch, spec) = nn_batch(6, 1);
        let stop = AtomicBool::new(true);
        let report =
            run_batch_lanes(&batch, &spec, BatchMode::Lanes(4), None, Some(&stop)).unwrap();
        assert_eq!(report.completed(), 0);
        assert!(report.outcomes.iter().all(|o| matches!(
            o,
            EpisodeOutcome::Skipped {
                reason: SkipReason::Interrupted,
                ..
            }
        )));
    }

    #[test]
    fn tolerance_gate_rejects_real_divergence() {
        let good = EpisodeResult {
            outcome: Outcome::Reached { time: 8.0 },
            eta: 0.125,
            emergency_steps: 3,
            total_steps: 160,
            collided_pair: None,
            traces: None,
        };
        assert!(lane_tolerance_check(&good, &good).is_ok());
        let mut shifted = good.clone();
        shifted.outcome = Outcome::Reached { time: 8.05 };
        shifted.total_steps = 161;
        assert!(lane_tolerance_check(&good, &shifted).is_ok());
        let mut wrong_kind = good.clone();
        wrong_kind.outcome = Outcome::Collision { time: 8.0 };
        assert!(lane_tolerance_check(&good, &wrong_kind).is_err());
        let mut late = good.clone();
        late.outcome = Outcome::Reached { time: 9.0 };
        assert!(lane_tolerance_check(&good, &late).is_err());
        let mut drifted = good.clone();
        drifted.eta = 0.2;
        assert!(lane_tolerance_check(&good, &drifted).is_err());
        let mut steps = good.clone();
        steps.total_steps = 170;
        assert!(lane_tolerance_check(&good, &steps).is_err());
    }
}
