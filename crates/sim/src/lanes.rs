//! Batch modes and the worker driver: every batch path runs its episodes
//! through `drive_worker`, which steps them on the episode stepper
//! ([`crate::stepper`]) — the event wheel in every mode — with the NN
//! answer its [`BatchMode`] selects. Each worker of the fan-out behind
//! [`crate::run_batch_with`] is one `drive_worker` call.
//!
//! A worker owns a `LaneGroup` of `K` episode *lanes* (`K =`
//! [`BatchMode::lanes`] for a stack with an NN planner, else 1). With one
//! lane, the stepper answers NN steps inline and runs each episode to its
//! outcome in one call. With `K > 1` (`Lanes(k)` on a stack with an
//! embedded NN planner — the only kind with anything to batch), every lane
//! runs its own episode but **defers** NN evaluations: the group gathers
//! the parked observations into the columns of a structure-of-arrays input
//! slab and answers all of them with one `(out×in)·(in×8)` matmul chain
//! ([`cv_nn::Mlp::forward_batch_into`]).
//!
//! **Refill policy:** lanes are independent. When an episode finishes
//! early (collision / reached target), its lane immediately claims the
//! next unclaimed episode index — an early-exit episode never stalls the
//! rest of the group. A lane whose episode is between NN steps (emergency
//! planner in control) simply skips rounds of the batched forward.
//!
//! **Determinism and tolerance contract (DESIGN.md §15):** which lane —
//! and which group — an episode lands in is racy by design, so per-episode
//! numerics are *lane-invariant*: the batched kernels compute each output
//! column from its own input column with an identical operation order, and
//! dead lanes carry zeros. Results therefore depend only on the episode
//! configuration and the configured [`BatchMode`]:
//!
//! * `EventDriven` and `Lanes(1)` answer every NN step inline with the
//!   executor's own planner and are **bit-identical** to each other and to
//!   [`crate::run_episode`] (`tests/engine_golden.rs` pins them across
//!   commits);
//! * `Lanes(k)` for `k > 1` uses the padded 8-wide kernel. Both kernels
//!   share cv-nn's one vectorised `tanh`; the lane kernel's FMA
//!   contraction and missing zero-skip differ from the per-episode path
//!   at the last few ulps, so trajectories can diverge at decision
//!   boundaries, bounded by the per-field gate in [`lane_tolerance_check`].

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

use cv_dynamics::VehicleLimits;
use cv_nn::{BatchScratch, LanePlan, Matrix, Mlp, LANE_WIDTH};
use cv_planner::NnPlanner;
use safe_shield::{Observation, Outcome};

use crate::stepper::{NnAnswer, StepAdvance};
use crate::supervise::payload_string;
use crate::{
    BatchConfig, BatchControl, BatchReport, EpisodeConfig, EpisodeOutcome, EpisodeResult,
    EpisodeWorkspace, Quarantine, SimError, SkipReason, StackSpec,
};

/// How a batch distributes episodes over each worker. Every mode steps
/// its episodes on the event wheel ([`crate::events`], DESIGN.md §18).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BatchMode {
    /// The reference path: one episode at a time per worker, the NN
    /// answered inline.
    #[default]
    EventDriven,
    /// K episodes stepped in lockstep per worker (`1 ≤ K ≤` [`LANE_WIDTH`]).
    /// `Lanes(1)` is bit-identical to [`BatchMode::EventDriven`]; larger K
    /// is covered by the tolerance contract (module docs).
    Lanes(usize),
}

impl BatchMode {
    /// The lane count this mode runs (`1` for [`BatchMode::EventDriven`]).
    pub fn lanes(&self) -> usize {
        match self {
            BatchMode::EventDriven => 1,
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
            BatchMode::EventDriven => Ok(()),
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
}

/// One lane slot of a [`LaneGroup`].
struct Lane {
    ws: EpisodeWorkspace,
    /// Index and configuration of the episode this lane runs; `None` when
    /// idle.
    episode: Option<(usize, EpisodeConfig)>,
    /// Parked on an NN evaluation gathered this round; resumed after the
    /// forward.
    waiting: bool,
}

impl Lane {
    /// Discards the (possibly torn) workspace after a contained panic and
    /// rebuilds it from the spec.
    fn rebuild(&mut self) {
        self.ws = EpisodeWorkspace::new(self.ws.spec().clone());
        self.episode = None;
        self.waiting = false;
    }
}

/// Records a contained panic of episode `seed` and types it.
fn panicked(
    quarantine: Option<&Quarantine>,
    seed: u64,
    payload: &(dyn std::any::Any + Send),
) -> EpisodeOutcome {
    if let Some(q) = quarantine {
        q.record_panic(seed);
    }
    EpisodeOutcome::Panicked {
        seed,
        payload: payload_string(payload),
    }
}

/// The episode lanes of one worker (module docs).
struct LaneGroup {
    lanes: Vec<Lane>,
    /// The batched evaluator answering deferred NN steps; `None` when the
    /// stepper answers inline (one lane).
    nn: Option<GroupNn>,
}

impl LaneGroup {
    fn new(spec: &StackSpec, mode: BatchMode) -> Self {
        // Lockstep has nothing to batch without an NN planner.
        let k = spec.nn_planner().map_or(1, |_| mode.lanes());
        Self {
            lanes: (0..k)
                .map(|_| Lane {
                    ws: EpisodeWorkspace::new(spec.clone()),
                    episode: None,
                    waiting: false,
                })
                .collect(),
            nn: spec.nn_planner().filter(|_| k > 1).map(GroupNn::new),
        }
    }

    /// Claims episodes for every idle lane; episodes that are skipped,
    /// invalid, or panic while arming are emitted without occupying a
    /// lane. Returns whether any lane is busy afterwards.
    fn refill(
        &mut self,
        claim: &mut dyn FnMut() -> Option<usize>,
        batch: &BatchConfig,
        quarantine: Option<&Quarantine>,
        interrupt: Option<&AtomicBool>,
        emit: &mut dyn FnMut(usize, EpisodeOutcome),
    ) -> bool {
        let answer = if self.nn.is_some() {
            NnAnswer::Deferred
        } else {
            NnAnswer::Inline
        };
        for lane in self.lanes.iter_mut().filter(|l| l.episode.is_none()) {
            while let Some(i) = claim() {
                let cfg = batch.episode(i);
                let seed = cfg.seed;
                if interrupt.is_some_and(|f| f.load(Ordering::Relaxed)) {
                    let reason = SkipReason::Interrupted;
                    emit(i, EpisodeOutcome::Skipped { seed, reason });
                    continue;
                }
                if let Some(panics) = quarantine.and_then(|q| q.is_quarantined(seed)) {
                    let reason = SkipReason::Quarantined { panics };
                    emit(i, EpisodeOutcome::Skipped { seed, reason });
                    continue;
                }
                // AssertUnwindSafe: the lane is rebuilt wholesale on the
                // panic path, so no torn state survives the catch.
                match catch_unwind(AssertUnwindSafe(|| lane.ws.start(&cfg, answer, false))) {
                    Ok(Ok(())) => {
                        lane.episode = Some((i, cfg));
                        break;
                    }
                    Ok(Err(error)) => emit(i, EpisodeOutcome::Failed { seed, error }),
                    Err(payload) => {
                        emit(i, panicked(quarantine, seed, payload.as_ref()));
                        lane.rebuild();
                    }
                }
            }
        }
        self.lanes.iter().any(|l| l.episode.is_some())
    }

    /// One lockstep round: resume every lane parked on the previous
    /// round's forward results, advance each busy lane to its next deferred
    /// NN step (or, answering inline, to its outcome), then answer the newly
    /// deferred evaluations with one batched forward — consumed at the
    /// start of the next round.
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
            // AssertUnwindSafe: the panicking lane is rebuilt wholesale
            // below; no other lane is mid-mutation when one lane's advance
            // unwinds.
            let caught = catch_unwind(AssertUnwindSafe(|| {
                for (slot, lane) in lanes.iter_mut().enumerate().skip(start) {
                    let Some((index, cfg)) = &lane.episode else {
                        continue;
                    };
                    let (index, seed) = (*index, cfg.seed);
                    in_flight.set(slot);
                    // A lane parked last round consumes its column of the
                    // forward results computed at the end of that round.
                    let resume = std::mem::take(&mut lane.waiting)
                        .then(|| nn.as_ref().expect("parked lanes are deferred").accel(slot));
                    let outcome = match lane.ws.advance(cfg, resume, interrupt) {
                        StepAdvance::NeedsNn { obs } => {
                            nn.as_mut()
                                .expect("parked lanes are deferred")
                                .gather(slot, &obs);
                            lane.waiting = true;
                            continue;
                        }
                        StepAdvance::Finished(result) => EpisodeOutcome::Completed(result),
                        StepAdvance::Interrupted => EpisodeOutcome::Skipped {
                            seed,
                            reason: SkipReason::Interrupted,
                        },
                    };
                    lane.episode = None;
                    emit(index, outcome);
                }
            }));
            match caught {
                Ok(()) => break,
                Err(payload) => {
                    let slot = in_flight.get();
                    let lane = &mut self.lanes[slot];
                    let (index, cfg) = lane.episode.take().expect("in-flight lane is busy");
                    emit(index, panicked(quarantine, cfg.seed, payload.as_ref()));
                    lane.rebuild();
                    start = slot + 1;
                }
            }
        }
        let Some(nn) = self.nn.as_mut() else {
            return;
        };
        if !self.lanes.iter().any(|l| l.waiting) {
            return;
        }
        // Dead lanes carry zeros so the slab contents — and hence any
        // diagnostic dump of it — are a pure function of the waiting set.
        // Columns `k..LANE_WIDTH` are never gathered into, so they hold
        // their construction-time zeros for the life of the group.
        for (slot, lane) in self.lanes.iter().enumerate() {
            if !lane.waiting {
                nn.clear_lane(slot);
            }
        }
        debug_assert!((self.lanes.len()..LANE_WIDTH)
            .all(|s| (0..Observation::FEATURES).all(|r| nn.input.get(r, s) == 0.0)));
        nn.forward();
    }
}

/// The worker driver: runs episodes claimed from `claim` on one worker's
/// [`LaneGroup`] until `claim` runs dry and every lane retires, emitting
/// exactly one typed outcome per claimed index. `mode` selects the lane
/// count and so who answers NN steps (module docs); `interrupt` is honoured before each
/// episode and at step granularity; `quarantine` is consulted before each
/// episode and updated on each contained panic. The fan-out of
/// [`crate::run_batch_with`] calls it once per worker and once per rescued
/// index.
pub(crate) fn drive_worker(
    claim: &mut dyn FnMut() -> Option<usize>,
    batch: &BatchConfig,
    spec: &StackSpec,
    mode: BatchMode,
    quarantine: Option<&Quarantine>,
    interrupt: Option<&AtomicBool>,
    emit: &mut dyn FnMut(usize, EpisodeOutcome),
) {
    let mut group = LaneGroup::new(spec, mode);
    while group.refill(claim, batch, quarantine, interrupt, emit) {
        group.round(quarantine, interrupt, emit);
    }
}

/// [`crate::run_batch_with`] with only a quarantine and an interrupt
/// attached: no deadline, cache or observer.
///
/// # Errors
///
/// [`SimError::InvalidBatch`] for an unrunnable batch configuration or a
/// lane count outside `1..=`[`LANE_WIDTH`]; per-episode faults are reported
/// in the [`BatchReport`], never as an error.
pub fn run_batch_lanes(
    batch: &BatchConfig,
    spec: &StackSpec,
    mode: BatchMode,
    quarantine: Option<&Quarantine>,
    interrupt: Option<&AtomicBool>,
) -> Result<BatchReport, SimError> {
    let control = BatchControl {
        quarantine,
        interrupt,
        ..BatchControl::default()
    };
    crate::run_batch_with(batch, spec, mode, control)
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
        assert_eq!(BatchMode::EventDriven.lanes(), 1);
        assert_eq!(BatchMode::Lanes(4).lanes(), 4);
    }

    #[test]
    fn lanes_of_one_is_bit_identical_to_per_episode() {
        let (batch, spec) = nn_batch(10, 1);
        let reference = run_batch_lanes(&batch, &spec, BatchMode::EventDriven, None, None).unwrap();
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
        let reference = run_batch_lanes(&batch, &spec, BatchMode::EventDriven, None, None).unwrap();
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
        let reference = run_batch_lanes(&batch, &spec, BatchMode::EventDriven, None, None).unwrap();
        let lanes = run_batch_lanes(&batch, &spec, BatchMode::Lanes(8), None, None).unwrap();
        assert_eq!(reference, lanes);
    }

    #[test]
    fn invalid_episode_is_contained_and_lanes_refill_past_it() {
        // One unreachable start position fails its episodes; surviving
        // episodes still complete and match the per-episode reference gate.
        let (mut batch, spec) = nn_batch(8, 1);
        batch.starts = vec![batch.starts[0], 10.0];
        let reference = run_batch_lanes(&batch, &spec, BatchMode::EventDriven, None, None).unwrap();
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
