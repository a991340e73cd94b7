//! The event wheel: the episode stepper's one pair schedule
//! ([`crate::stepper`]), under every [`crate::BatchMode`].
//!
//! The stepper keeps the outer tick clock (the ego must plan every `Δt_c`;
//! the paper's teacher policies pace on the per-tick window estimates) but
//! schedules the *per-pair* work:
//!
//! * **Message arrivals** are known when the message is sent: every
//!   channel of a [`cv_comm::CommSetting`] delivers after a constant delay
//!   or not at all (paper §V). [`cv_comm::Channel::send_scheduled`]
//!   resolves the delivery time, `arrival_tick` turns it into a control
//!   tick, and the message waits on its pair's FIFO until that tick.
//!   No channel is asked each tick what is due.
//! * **Retirement**: once a pair provably can no longer produce a non-empty
//!   turning window — its true position is past the scenario exit by a
//!   margin covering all sensor noise, no message is in flight, and its
//!   *current estimate* already places it past the exit in both the
//!   interval and nominal forms — the estimate is pinned (the pair's
//!   `pin`, [`crate::workspace`]) and the pair does no further work: a pair
//!   is retired exactly when it holds a pin. Quiescent spans for that pair
//!   then cost O(1) total instead of O(span/Δt_c). A retired pair stops
//!   producing measurements and estimates, so retirement is off whenever
//!   traces are recorded; it is also off for `v_min = 0`, where a vehicle
//!   could stop short of leaving.
//!
//! # Tie-break ordering contract
//!
//! Simultaneous events resolve in a documented, seed-independent order,
//! identical across worker counts and re-runs:
//!
//! 1. within one control tick, per pair: every due message arrival before
//!    the sensor read before the tick-wide control decision and actuation;
//! 2. pairs are visited in index order (pair 0 = the primary `C_1`);
//! 3. within one pair, arrivals apply in send order. A channel's delay is
//!    constant and float addition is monotone, so arrival ticks never
//!    decrease in send order and each pair's FIFO is already sorted by
//!    tick (a debug assertion checks it).
//!
//! This is the order in which polling the channels every tick (`send`,
//! then `receive_into` draining in stamp order) delivers the same
//! messages; the `fifo_delivers_what_polling_delivers` test holds the two
//! to the same messages on the same ticks, and `tests/engine_golden.rs`
//! pins fingerprints computed while the polling schedule still ran beside
//! the wheel and matched it bit for bit.

use std::collections::VecDeque;

use cv_comm::Message;

/// One pair's scheduled arrivals `(tick, message)`, in send order. The
/// queue keeps its capacity across episodes, so the per-step loop stays
/// allocation-free in the steady state.
#[derive(Default)]
pub(crate) struct Arrivals {
    queue: VecDeque<(u64, Message)>,
    /// Arrivals scheduled since the last [`Arrivals::clear`].
    pub(crate) scheduled: u64,
}

impl Arrivals {
    /// Empties the queue for a fresh episode.
    pub(crate) fn clear(&mut self) {
        self.queue.clear();
        self.scheduled = 0;
    }

    /// Schedules `msg` for control tick `tick`.
    pub(crate) fn schedule(&mut self, msg: Message, tick: u64) {
        debug_assert!(
            self.queue.back().is_none_or(|&(last, _)| last <= tick),
            "arrival tick {tick} scheduled after a later one"
        );
        self.queue.push_back((tick, msg));
        self.scheduled += 1;
    }

    /// Pops the next arrival due at or before `tick`.
    pub(crate) fn pop_due(&mut self, tick: u64) -> Option<Message> {
        self.queue.front().filter(|&&(due, _)| due <= tick)?;
        self.queue.pop_front().map(|(_, msg)| msg)
    }

    /// Whether messages are in flight. A pair with messages in flight must
    /// not retire: an arrival could still move its estimate.
    pub(crate) fn in_flight(&self) -> bool {
        !self.queue.is_empty()
    }
}

/// The first control tick at or after `send_tick` whose poll would drain a
/// message delivered at `deliver_at` — the exact integerisation of the
/// polling predicate `deliver_at <= tick·Δt_c + 1e-12`
/// (`cv_comm`'s `drain_due_into`). A closed-form `ceil` gives the guess;
/// the two correction loops absorb any one-ULP rounding slack so the wheel
/// and a channel drained every tick can never disagree on a delivery tick.
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
    use crate::cadence::Cadence;
    use crate::stepper::{NnAnswer, StepAdvance};
    use crate::{
        BatchConfig, EpisodeConfig, EpisodeResult, EpisodeWorkspace, PlatoonFollower, PlatoonSpec,
        StackSpec,
    };
    use cv_comm::{Channel, CommSetting};

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
    fn fifo_delivers_what_polling_delivers() {
        // cv-comm's poll API is the reference: a channel sent to on its
        // cadence and drained every tick. The wheel's send_scheduled +
        // arrival_tick + FIFO must hand over the same messages, in the same
        // order, on the same ticks — at cadences and delays that divide
        // `Δt_c` and at ones that do not.
        let dt_c = 0.05;
        let steps = 400;
        let mut settings = vec![CommSetting::NoDisturbance, CommSetting::Lost];
        for delay in [0.0, 0.0333, 0.1, 0.2, 0.25, 0.37] {
            for drop_prob in [0.0, 0.5] {
                settings.push(CommSetting::Delayed { delay, drop_prob });
            }
        }
        for comm in settings {
            for dt_m in [0.1, 0.07, 0.05] {
                let seed = 17;
                let (mut drained, mut sent) = (comm.channel(seed), comm.channel(seed));
                let mut wheel = Arrivals::default();
                let (mut due, mut by_poll, mut by_wheel) = (Vec::new(), Vec::new(), Vec::new());
                let mut cadence = Cadence::new(dt_m, dt_c);
                for step in 0..=steps {
                    let t = step as f64 * dt_c;
                    if cadence.due() {
                        let m = Message::new(1, t, 3.0 * t, 10.0, 0.0);
                        drained.send(m, t);
                        if let Some(at) = sent.send_scheduled(m, t) {
                            let tick = arrival_tick(at, step, dt_c);
                            if tick <= steps {
                                wheel.schedule(m, tick);
                            }
                        }
                    }
                    due.clear();
                    drained.receive_into(t, &mut due);
                    by_poll.extend(due.iter().map(|m| (step, m.stamp.to_bits())));
                    while let Some(m) = wheel.pop_due(step) {
                        by_wheel.push((step, m.stamp.to_bits()));
                    }
                    cadence.advance();
                }
                assert_eq!(by_poll, by_wheel, "{comm} at Δt_m = {dt_m}");
                if comm.is_connected() {
                    assert!(!by_wheel.is_empty(), "{comm}: nothing delivered");
                }
            }
        }
    }

    /// Episodes `0..n` of `batch` on one reused workspace — a one-worker
    /// batch — returning the results, the arrivals scheduled and the pairs
    /// retired over all of them.
    fn wheel_counts(
        batch: &BatchConfig,
        spec: &StackSpec,
        n: usize,
        traced: bool,
    ) -> (Vec<EpisodeResult>, u64, usize) {
        let mut ws = EpisodeWorkspace::new(spec.clone());
        let (mut results, mut scheduled, mut retired) = (Vec::new(), 0, 0);
        for i in 0..n {
            let cfg = batch.episode(i);
            ws.start(&cfg, NnAnswer::Inline, traced).unwrap();
            let StepAdvance::Finished(result) = ws.advance(&cfg, None, None) else {
                unreachable!("an inline episode without an interrupt finishes");
            };
            results.push(result);
            scheduled += ws.pairs.iter().map(|p| p.arrivals.scheduled).sum::<u64>();
            retired += ws.pairs.iter().filter(|p| p.pin.is_some()).count();
        }
        (results, scheduled, retired)
    }

    /// The sparse n = 8 platoon: ego far upstream, leader at the zone's
    /// edge, 6 m gaps, V2V lost — pairs clear the zone early.
    fn sparse_platoon() -> BatchConfig {
        let mut platoon = PlatoonSpec::paper_default(8, 9).unwrap();
        platoon.leader_start_shared = 16.0;
        platoon.comm = CommSetting::Lost;
        for f in &mut platoon.followers {
            *f = PlatoonFollower {
                gap: 6.0,
                ..PlatoonFollower::paper_default()
            };
        }
        let mut cfg = platoon.episode();
        cfg.ego_init.position = -150.0;
        let mut batch = BatchConfig::new(cfg, 20);
        batch.starts = (0..20).map(|j| 16.0 + 0.25 * f64::from(j)).collect();
        batch
    }

    #[test]
    fn the_wheel_schedules_arrivals_and_retires_pairs() {
        // The counts pin that the wheel does its work: a pair that falls
        // back to per-tick work would schedule nothing and never retire,
        // and no result comparison would notice. Tracing turns retirement
        // off, so the traced run is also the reference that retiring is
        // invisible in the results.
        let sparse = sparse_platoon();
        let spec = StackSpec::pure_teacher_conservative(&sparse.template).unwrap();
        let (results, scheduled, retired) = wheel_counts(&sparse, &spec, 20, false);
        assert_eq!((scheduled, retired), (0, 140), "sparse n = 8 lost platoon");
        let (traced, _, none) = wheel_counts(&sparse, &spec, 20, true);
        assert_eq!(none, 0, "tracing keeps every pair live");
        let bits_of = |rs: &[EpisodeResult]| rs.iter().map(bits).collect::<Vec<_>>();
        assert_eq!(bits_of(&results), bits_of(&traced));

        let mut template = EpisodeConfig::paper_default(0);
        template.comm = CommSetting::delayed_with_drop(0.25);
        let delayed = BatchConfig::new(template, 20);
        let spec = StackSpec::pure_teacher_conservative(&delayed.template).unwrap();
        let (results, scheduled, retired) = wheel_counts(&delayed, &spec, 20, false);
        assert_eq!((scheduled, retired), (973, 13), "paper default, delayed");
        let (traced, ..) = wheel_counts(&delayed, &spec, 20, true);
        assert_eq!(bits_of(&results), bits_of(&traced));
    }

    #[test]
    fn workspace_reuse_is_bit_invisible_to_the_event_engine() {
        let cfg = EpisodeConfig::paper_default(11);
        let spec = StackSpec::pure_teacher_conservative(&cfg).unwrap();
        let mut ws = EpisodeWorkspace::new(spec);
        let first = ws.run(&cfg, false).unwrap();
        let again = ws.run(&cfg, false).unwrap();
        assert_eq!(bits(&first), bits(&again));
        // Interleaving a traced run (retirement off) must not perturb a
        // later retiring run.
        let _ = ws.run(&cfg, true).unwrap();
        let third = ws.run(&cfg, false).unwrap();
        assert_eq!(bits(&first), bits(&third));
    }
}
