use cv_rng::{Rng, SplitMix64};

use crate::Message;

/// A one-way message channel from other vehicles to the ego vehicle.
///
/// Implementations decide when (and whether) a sent message is delivered.
/// [`Channel::receive`] returns every message whose delivery time has come,
/// ordered by sample stamp, each at most once.
pub trait Channel {
    /// Submits `msg` for transmission at time `now`.
    fn send(&mut self, msg: Message, now: f64);

    /// Resolves the fate of `msg` at send time instead of enqueuing it:
    /// the absolute delivery time, or `None` if the message never arrives.
    /// Callers that schedule deliveries themselves never poll the channel.
    /// The message is NOT also enqueued. This is the channel's one delivery
    /// rule: [`Channel::send`] is this plus enqueuing the survivor, so a
    /// channel driven through either entry point replays the identical
    /// drop-decision stream.
    fn send_scheduled(&mut self, msg: Message, now: f64) -> Option<f64>;

    /// Appends all messages deliverable at or before `now` to `out`, in
    /// stamp order. The allocation-free form of [`Channel::receive`] for
    /// hot loops: callers keep one scratch buffer alive across steps.
    fn receive_into(&mut self, now: f64, out: &mut Vec<Message>);

    /// Drains all messages deliverable at or before `now`, in stamp order.
    fn receive(&mut self, now: f64) -> Vec<Message> {
        let mut due = Vec::new();
        self.receive_into(now, &mut due);
        due
    }

    /// Restores the channel to its freshly-constructed state with a new
    /// drop-decision seed: in-flight messages are discarded and any RNG is
    /// reseeded, so a reused channel is bit-identical to a new one.
    fn reset(&mut self, seed: u64);
}

/// In-flight message with its scheduled delivery time.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    deliver_at: f64,
    msg: Message,
}

fn drain_due_into(queue: &mut Vec<InFlight>, now: f64, due: &mut Vec<Message>) {
    let start = due.len();
    queue.retain(|entry| {
        if entry.deliver_at <= now + 1e-12 {
            due.push(entry.msg);
            false
        } else {
            true
        }
    });
    due[start..].sort_by(|a, b| a.stamp.partial_cmp(&b.stamp).expect("non-NaN stamps"));
}

/// Ideal channel: every message arrives instantly ("no disturbance").
///
/// # Example
///
/// ```
/// use cv_comm::{Channel, Message, PerfectChannel};
///
/// let mut ch = PerfectChannel::new();
/// ch.send(Message::new(1, 0.0, 0.0, 1.0, 0.0), 0.0);
/// assert_eq!(ch.receive(0.0).len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PerfectChannel {
    queue: Vec<InFlight>,
}

impl PerfectChannel {
    /// Creates an empty perfect channel.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Channel for PerfectChannel {
    fn send(&mut self, msg: Message, now: f64) {
        if let Some(deliver_at) = self.send_scheduled(msg, now) {
            self.queue.push(InFlight { deliver_at, msg });
        }
    }

    fn send_scheduled(&mut self, _msg: Message, now: f64) -> Option<f64> {
        Some(now)
    }

    fn receive_into(&mut self, now: f64, out: &mut Vec<Message>) {
        drain_due_into(&mut self.queue, now, out);
    }

    fn reset(&mut self, _seed: u64) {
        self.queue.clear();
    }
}

/// Channel with fixed delivery delay `Δt_d` and i.i.d. drop probability `p_d`
/// ("messages delayed" setting of paper Section V).
///
/// Dropped messages vanish; surviving ones arrive exactly `delay` seconds
/// after they were sent. The drop decisions come from a seeded [`SplitMix64`] so
/// paired experiments can reproduce identical channel realisations.
///
/// # Example
///
/// ```
/// use cv_comm::{Channel, DelayDropChannel, Message};
///
/// let mut ch = DelayDropChannel::new(0.25, 0.0, 7);
/// ch.send(Message::new(1, 1.0, 0.0, 5.0, 0.0), 1.0);
/// assert!(ch.receive(1.2).is_empty());
/// assert_eq!(ch.receive(1.25).len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DelayDropChannel {
    delay: f64,
    drop_prob: f64,
    rng: SplitMix64,
    queue: Vec<InFlight>,
}

impl DelayDropChannel {
    /// Creates a channel with delivery delay `delay` (s) and drop probability
    /// `drop_prob ∈ [0, 1]`, seeded for reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if `delay < 0` or `drop_prob ∉ [0, 1]`.
    pub fn new(delay: f64, drop_prob: f64, seed: u64) -> Self {
        assert!(delay >= 0.0, "delay must be nonnegative, got {delay}");
        assert!(
            (0.0..=1.0).contains(&drop_prob),
            "drop probability must be in [0, 1], got {drop_prob}"
        );
        Self {
            delay,
            drop_prob,
            rng: SplitMix64::seed_from_u64(seed),
            queue: Vec::new(),
        }
    }

    /// The fixed delivery delay `Δt_d` in seconds.
    pub fn delay(&self) -> f64 {
        self.delay
    }

    /// The drop probability `p_d`.
    pub fn drop_prob(&self) -> f64 {
        self.drop_prob
    }
}

impl Channel for DelayDropChannel {
    fn send(&mut self, msg: Message, now: f64) {
        if let Some(deliver_at) = self.send_scheduled(msg, now) {
            self.queue.push(InFlight { deliver_at, msg });
        }
    }

    fn send_scheduled(&mut self, _msg: Message, now: f64) -> Option<f64> {
        // Draw the drop decision even for p_d = 0 so that sweeping p_d keeps
        // the same per-message random stream alignment.
        let dropped = self.rng.random_f64() < self.drop_prob;
        (!dropped).then_some(now + self.delay)
    }

    fn receive_into(&mut self, now: f64, out: &mut Vec<Message>) {
        drain_due_into(&mut self.queue, now, out);
    }

    fn reset(&mut self, seed: u64) {
        self.queue.clear();
        self.rng = SplitMix64::seed_from_u64(seed);
    }
}

/// Channel that drops everything ("messages lost" setting: `Δt_d → ∞`).
///
/// With this channel the ego vehicle must rely purely on its onboard sensors,
/// which also models non-connected traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct LostChannel;

impl LostChannel {
    /// Creates the always-dropping channel.
    pub fn new() -> Self {
        Self
    }
}

impl Channel for LostChannel {
    fn send(&mut self, _msg: Message, _now: f64) {}

    fn send_scheduled(&mut self, _msg: Message, _now: f64) -> Option<f64> {
        None
    }

    fn receive_into(&mut self, _now: f64, _out: &mut Vec<Message>) {}

    fn reset(&mut self, _seed: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(stamp: f64) -> Message {
        Message::new(1, stamp, stamp * 10.0, 5.0, 0.0)
    }

    #[test]
    fn perfect_channel_delivers_immediately_in_stamp_order() {
        let mut ch = PerfectChannel::new();
        ch.send(msg(0.2), 0.2);
        ch.send(msg(0.1), 0.2);
        let out = ch.receive(0.2);
        assert_eq!(out.len(), 2);
        assert!(out[0].stamp < out[1].stamp);
        assert!(ch.receive(0.2).is_empty(), "messages delivered once");
    }

    #[test]
    fn delay_channel_holds_messages_until_due() {
        let mut ch = DelayDropChannel::new(0.25, 0.0, 1);
        ch.send(msg(0.0), 0.0);
        ch.send(msg(0.1), 0.1);
        assert!(ch.receive(0.24).is_empty());
        assert_eq!(ch.receive(0.25).len(), 1);
        assert_eq!(ch.receive(0.35).len(), 1);
    }

    #[test]
    fn drop_probability_one_drops_everything() {
        let mut ch = DelayDropChannel::new(0.0, 1.0, 1);
        for i in 0..100 {
            ch.send(msg(i as f64 * 0.1), i as f64 * 0.1);
        }
        assert!(ch.receive(1e9).is_empty());
    }

    #[test]
    fn drop_probability_is_roughly_respected() {
        let mut ch = DelayDropChannel::new(0.0, 0.3, 12345);
        let n = 10_000;
        for i in 0..n {
            ch.send(msg(i as f64), i as f64);
        }
        let delivered = ch.receive(f64::MAX).len();
        let rate = delivered as f64 / n as f64;
        assert!((rate - 0.7).abs() < 0.03, "delivery rate {rate}");
    }

    #[test]
    fn same_seed_gives_same_drops() {
        let run = |seed: u64| {
            let mut ch = DelayDropChannel::new(0.0, 0.5, seed);
            (0..50).for_each(|i| ch.send(msg(i as f64), i as f64));
            ch.receive(f64::MAX)
                .iter()
                .map(|m| m.stamp as u64)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn reset_is_bit_identical_to_a_fresh_channel() {
        let deliveries = |ch: &mut DelayDropChannel| {
            (0..50).for_each(|i| ch.send(msg(i as f64), i as f64));
            ch.receive(f64::MAX)
                .iter()
                .map(|m| m.stamp.to_bits())
                .collect::<Vec<_>>()
        };
        let mut fresh = DelayDropChannel::new(0.25, 0.5, 42);
        let expected = deliveries(&mut fresh);
        // A dirty channel (different seed, message still in flight) reset to
        // seed 42 must replay the exact same drop decisions.
        let mut reused = DelayDropChannel::new(0.25, 0.5, 7);
        reused.send(msg(0.0), 0.0);
        reused.reset(42);
        assert!(reused.receive(f64::MAX).is_empty(), "in-flight not cleared");
        assert_eq!(deliveries(&mut reused), expected);
    }

    #[test]
    fn receive_into_appends_in_stamp_order() {
        let mut ch = PerfectChannel::new();
        ch.send(msg(0.2), 0.2);
        ch.send(msg(0.1), 0.2);
        let mut out = vec![msg(0.0)];
        ch.receive_into(0.2, &mut out);
        assert_eq!(out.len(), 3);
        assert!(out[1].stamp < out[2].stamp);
        assert_eq!(out[0].stamp, 0.0, "existing entries untouched");
    }

    #[test]
    fn lost_channel_never_delivers() {
        let mut ch = LostChannel::new();
        ch.send(msg(0.0), 0.0);
        assert!(ch.receive(f64::MAX).is_empty());
    }

    #[test]
    #[should_panic]
    fn invalid_drop_prob_panics() {
        let _ = DelayDropChannel::new(0.0, 1.5, 0);
    }

    #[test]
    fn scheduled_send_resolves_without_enqueuing() {
        let mut perfect = PerfectChannel::new();
        assert_eq!(perfect.send_scheduled(msg(0.3), 0.3), Some(0.3));
        assert!(
            perfect.receive(f64::MAX).is_empty(),
            "must not also enqueue"
        );

        let mut delay = DelayDropChannel::new(0.25, 0.0, 1);
        assert_eq!(delay.send_scheduled(msg(0.1), 0.1), Some(0.35));
        assert!(delay.receive(f64::MAX).is_empty(), "must not also enqueue");

        let mut lost = LostChannel::new();
        assert_eq!(lost.send_scheduled(msg(0.0), 0.0), None);
    }

    #[test]
    fn scheduled_send_replays_the_queued_drop_stream() {
        // Decisions from repeated send_scheduled calls must equal the set of
        // survivors a queueing channel with the same seed would deliver.
        let mut queued = DelayDropChannel::new(0.0, 0.5, 42);
        (0..50).for_each(|i| queued.send(msg(i as f64), i as f64));
        let survivors: Vec<u64> = queued
            .receive(f64::MAX)
            .iter()
            .map(|m| m.stamp as u64)
            .collect();

        let mut scheduled = DelayDropChannel::new(0.0, 0.5, 42);
        let resolved: Vec<u64> = (0..50)
            .filter(|&i| scheduled.send_scheduled(msg(i as f64), i as f64).is_some())
            .collect();
        assert_eq!(resolved, survivors);
    }
}
