//! The event wheel: the stepper's *wheel* pair schedule
//! ([`crate::BatchMode::EventDriven`]).
//!
//! Under the *poll* schedule the stepper ([`crate::stepper`]) pays for
//! every vehicle pair on every control tick — broadcast, channel poll,
//! sensor read, estimator query — even after a conflicting vehicle has
//! permanently cleared the conflict zone and can no longer influence a
//! single planner decision. On long-horizon platoon workloads most pairs
//! are quiescent most of the time, so that cost dominates.
//!
//! The wheel keeps the same outer tick clock (the ego must plan every
//! `Δt_c`; the paper's teacher policies pace on the per-tick window
//! estimates) but schedules the *per-pair* work:
//!
//! * **Message arrivals** are resolved at *send* time via
//!   [`cv_comm::Channel::send_scheduled`] and pushed onto a binary heap
//!   keyed by integer arrival tick — channels are never polled. A channel
//!   that cannot resolve its schedule ([`cv_comm::Arrival::Unknown`])
//!   demotes its pair to per-tick polling, preserving correctness for
//!   custom channel implementations. The poll schedule is exactly this
//!   wheel with every pair demoted from the start and retirement off.
//! * **Retirement**: once a pair provably can no longer produce a non-empty
//!   turning window — its true position is past the scenario exit by a
//!   margin covering all sensor noise, no message is in flight, and its
//!   *current estimate* already places it past the exit in both the
//!   interval and nominal forms — the pair's estimate is frozen
//!   ([`crate::stack`]'s frozen pins) and every future event for it is
//!   cancelled. Quiescent spans for that pair then cost O(1) total instead
//!   of O(span/Δt_c).
//!
//! # Tie-break ordering contract
//!
//! Simultaneous events resolve in a documented, seed-independent order,
//! identical across thread counts and re-runs (`tests/event_core.rs`
//! property-checks this):
//!
//! 1. within one control tick, per pair: `MessageArrival` (all due
//!    arrivals) before `SensorRead` before the tick-wide
//!    `ControlDecision`/actuation;
//! 2. pairs are visited in index order (pair 0 = the primary `C_1`);
//! 3. within one pair and tick, message arrivals apply in send order
//!    (monotone `seq`, which equals stamp order for the constant-delay
//!    channels — exactly the per-drain stamp sort of a polled channel).
//!
//! This is the order the poll schedule produces implicitly, which is what
//! makes bit-identity possible at all.
//!
//! # Bit-identity with the poll schedule
//!
//! Whenever every cadence divides the integration step (the repo default:
//! `Δt_m = Δt_s = 2·Δt_c`), the wheel must reproduce the poll schedule's
//! [`crate::EpisodeResult`]s bit for bit — same outcome, same `η` bits,
//! same emergency counts. `tests/event_core.rs` enforces the matrix across
//! seeds, thread counts, and stacks, and `tests/engine_golden.rs` pins both
//! schedules' fingerprints across commits. Traces are the one deliberate
//! non-goal: the wheel never records them (retired pairs have no per-tick
//! estimates to trace), so trace-consuming experiments (Fig. 6) run on the
//! poll schedule.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cv_comm::Message;

/// One message scheduled on the wheel, ordered by `(tick, pair, seq)` —
/// the tie-break contract in the module docs. The payload does not
/// participate in the ordering (its floats are not `Ord`).
struct ScheduledArrival {
    /// Control tick at which the message becomes deliverable — the first
    /// tick whose poll the poll schedule would have drained it on.
    tick: u64,
    /// Receiving pair index.
    pair: usize,
    /// Monotone send counter; equals stamp order for constant-delay
    /// channels.
    seq: u64,
    /// The message itself.
    msg: Message,
}

impl ScheduledArrival {
    fn key(&self) -> (u64, usize, u64) {
        (self.tick, self.pair, self.seq)
    }
}

impl PartialEq for ScheduledArrival {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for ScheduledArrival {}

impl PartialOrd for ScheduledArrival {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScheduledArrival {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Reusable wheel state held by [`crate::EpisodeWorkspace`], so the
/// per-step loop stays allocation-free in the steady state (the heap and
/// flag vectors keep their capacity across episodes).
#[derive(Default)]
pub(crate) struct EventScratch {
    /// Min-heap of scheduled arrivals (time wheel).
    heap: BinaryHeap<Reverse<ScheduledArrival>>,
    /// Monotone send counter feeding [`ScheduledArrival::seq`].
    seq: u64,
    /// Pairs permanently retired from event processing.
    pub(crate) retired: Vec<bool>,
    /// Scheduled arrivals currently on the wheel, per pair — a pair with
    /// messages in flight must not retire (the arrival could still move
    /// its estimate).
    pub(crate) inflight: Vec<u32>,
    /// Pairs polled every tick: all of them under the poll schedule, and
    /// under the wheel those demoted by [`cv_comm::Arrival::Unknown`].
    pub(crate) polled: Vec<bool>,
}

impl EventScratch {
    /// Re-arms the wheel for `n` pairs, all of them polled when `poll`.
    pub(crate) fn reset(&mut self, n: usize, poll: bool) {
        self.heap.clear();
        self.seq = 0;
        self.retired.clear();
        self.retired.resize(n, false);
        self.inflight.clear();
        self.inflight.resize(n, 0);
        self.polled.clear();
        self.polled.resize(n, poll);
    }

    /// Schedules `msg` for `pair` at control tick `tick`.
    pub(crate) fn schedule(&mut self, pair: usize, msg: Message, tick: u64) {
        self.seq += 1;
        self.inflight[pair] += 1;
        self.heap.push(Reverse(ScheduledArrival {
            tick,
            pair,
            seq: self.seq,
            msg,
        }));
    }

    /// Pops the next arrival due for `pair` at `tick`. Pairs are visited in
    /// index order, so everything at the top of the heap with
    /// `(tick, pair)` is due now.
    pub(crate) fn pop_due(&mut self, tick: u64, pair: usize) -> Option<Message> {
        let Reverse(top) = self.heap.peek()?;
        if top.tick != tick || top.pair != pair {
            return None;
        }
        let Reverse(due) = self.heap.pop()?;
        self.inflight[pair] -= 1;
        Some(due.msg)
    }
}

/// The first control tick at or after `send_tick` whose poll would drain a
/// message delivered at `deliver_at` — the exact integerisation of the
/// polling predicate `deliver_at <= tick·Δt_c + 1e-12`
/// (`cv_comm`'s `drain_due_into`). A closed-form `ceil` gives the guess;
/// the two correction loops absorb any one-ULP rounding slack so the two
/// schedules can never disagree on a delivery tick.
pub(crate) fn arrival_tick(deliver_at: f64, send_tick: u64, dt_c: f64) -> u64 {
    let guess = ((deliver_at - 1e-12) / dt_c).ceil();
    let mut k = if guess > send_tick as f64 {
        guess as u64
    } else {
        send_tick
    };
    while (k as f64) * dt_c + 1e-12 < deliver_at {
        k += 1;
    }
    while k > send_tick && ((k - 1) as f64) * dt_c + 1e-12 >= deliver_at {
        k -= 1;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stepper::{NnAnswer, Pairs, StepAdvance};
    use crate::{
        run_batch_lanes, run_episode, BatchConfig, BatchMode, EpisodeConfig, EpisodeResult,
        EpisodeWorkspace, StackSpec,
    };

    /// `cfg` as a one-episode batch on the event wheel.
    fn run_event(cfg: &EpisodeConfig, spec: &StackSpec) -> EpisodeResult {
        let mut batch = BatchConfig::new(cfg.clone(), 1);
        batch.starts = vec![cfg.other_start_shared];
        let report = run_batch_lanes(&batch, spec, BatchMode::EventDriven, None, None).unwrap();
        report.into_results().unwrap().remove(0)
    }

    /// `cfg` on the event wheel of the caller's (reused) workspace.
    fn run_event_on(ws: &mut EpisodeWorkspace, cfg: &EpisodeConfig) -> EpisodeResult {
        ws.start(cfg, Pairs::Wheel, NnAnswer::Inline, false)
            .unwrap();
        match ws.advance(cfg, None, None) {
            StepAdvance::Finished(result) => result,
            _ => unreachable!("an inline episode without an interrupt finishes"),
        }
    }

    fn bits(r: &EpisodeResult) -> (u64, String, u64, u64, Option<usize>) {
        (
            r.eta.to_bits(),
            format!("{:?}", r.outcome),
            r.emergency_steps,
            r.total_steps,
            r.collided_pair,
        )
    }

    #[test]
    fn arrival_tick_matches_the_polling_predicate() {
        let dt_c = 0.05;
        for send_tick in [0u64, 3, 17, 400] {
            for delay in [0.0, 0.05, 0.1, 0.25, 0.24999999, 0.0333] {
                let sent_at = send_tick as f64 * dt_c;
                let deliver_at = sent_at + delay;
                let k = arrival_tick(deliver_at, send_tick, dt_c);
                // First tick whose poll drains it…
                assert!(
                    (k as f64) * dt_c + 1e-12 >= deliver_at,
                    "tick {k} too early for {deliver_at}"
                );
                // …and no earlier poll (at or after the send) would have.
                assert!(
                    k == send_tick || ((k - 1) as f64) * dt_c + 1e-12 < deliver_at,
                    "tick {k} not minimal for {deliver_at}"
                );
            }
        }
    }

    #[test]
    fn event_engine_matches_fixed_step_on_the_paper_default() {
        for seed in 0..8 {
            let cfg = EpisodeConfig::paper_default(seed);
            let spec = StackSpec::pure_teacher_conservative(&cfg).unwrap();
            let fixed = run_episode(&cfg, &spec, false).unwrap();
            let event = run_event(&cfg, &spec);
            assert_eq!(bits(&fixed), bits(&event), "seed {seed}");
        }
    }

    #[test]
    fn workspace_reuse_is_bit_invisible_to_the_event_engine() {
        let cfg = EpisodeConfig::paper_default(11);
        let spec = StackSpec::pure_teacher_conservative(&cfg).unwrap();
        let mut ws = EpisodeWorkspace::new(spec);
        let first = run_event_on(&mut ws, &cfg);
        let again = run_event_on(&mut ws, &cfg);
        assert_eq!(bits(&first), bits(&again));
        // Interleaving a poll-schedule run must not perturb a later wheel
        // run.
        let _ = ws.run(&cfg, false).unwrap();
        let third = run_event_on(&mut ws, &cfg);
        assert_eq!(bits(&first), bits(&third));
    }

    #[test]
    fn delayed_comm_matches_fixed_step() {
        for seed in 0..6 {
            let mut cfg = EpisodeConfig::paper_default(seed);
            cfg.comm = cv_comm::CommSetting::Delayed {
                delay: 0.25,
                drop_prob: 0.5,
            };
            let spec = StackSpec::pure_teacher_conservative(&cfg).unwrap();
            let fixed = run_episode(&cfg, &spec, false).unwrap();
            let event = run_event(&cfg, &spec);
            assert_eq!(bits(&fixed), bits(&event), "seed {seed}");
        }
    }
}
