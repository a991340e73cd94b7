use crate::{Channel, DelayDropChannel, LostChannel, Message, PerfectChannel};

/// The three communication settings evaluated in paper Section V.
///
/// Use [`CommSetting::channel`] to instantiate the corresponding channel with
/// a reproducible seed.
///
/// # Example
///
/// ```
/// use cv_comm::{Channel, CommSetting, Message};
///
/// let mut ch = CommSetting::Lost.channel(0);
/// ch.send(Message::new(1, 0.0, 0.0, 0.0, 0.0), 0.0);
/// assert!(ch.receive(10.0).is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CommSetting {
    /// Messages always arrive instantly.
    NoDisturbance,
    /// Messages arrive `delay` seconds late and are dropped with probability
    /// `drop_prob` (paper: `Δt_d = 0.25 s`, `p_d ∈ {0, 0.05, …, 0.95}`).
    Delayed {
        /// Fixed delivery delay `Δt_d`, in seconds.
        delay: f64,
        /// Per-message drop probability `p_d`.
        drop_prob: f64,
    },
    /// All messages are lost; only sensor information is available.
    Lost,
}

impl CommSetting {
    /// The paper's default "messages delayed" configuration
    /// (`Δt_d = 0.25 s`) with the given drop probability.
    pub fn delayed_with_drop(drop_prob: f64) -> Self {
        CommSetting::Delayed {
            delay: 0.25,
            drop_prob,
        }
    }

    /// Builds a boxed channel implementing this setting.
    ///
    /// The `seed` drives the drop decisions of [`CommSetting::Delayed`]; it is
    /// ignored by the deterministic settings.
    pub fn channel(&self, seed: u64) -> Box<dyn Channel + Send> {
        match *self {
            CommSetting::NoDisturbance => Box::new(PerfectChannel::new()),
            CommSetting::Delayed { delay, drop_prob } => {
                Box::new(DelayDropChannel::new(delay, drop_prob, seed))
            }
            CommSetting::Lost => Box::new(LostChannel::new()),
        }
    }

    /// Returns `true` if any message can ever be delivered.
    pub fn is_connected(&self) -> bool {
        !matches!(self, CommSetting::Lost)
    }
}

impl std::fmt::Display for CommSetting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommSetting::NoDisturbance => write!(f, "no disturbance"),
            CommSetting::Delayed { delay, drop_prob } => {
                write!(f, "messages delayed (Δt_d={delay}s, p_d={drop_prob})")
            }
            CommSetting::Lost => write!(f, "messages lost"),
        }
    }
}

// The blanket impl lets `Box<dyn Channel + Send>` be used directly where a
// `Channel` is expected.
impl Channel for Box<dyn Channel + Send> {
    fn send(&mut self, msg: Message, now: f64) {
        (**self).send(msg, now);
    }

    fn send_scheduled(&mut self, msg: Message, now: f64) -> Option<f64> {
        (**self).send_scheduled(msg, now)
    }

    fn receive_into(&mut self, now: f64, out: &mut Vec<Message>) {
        (**self).receive_into(now, out);
    }

    fn receive(&mut self, now: f64) -> Vec<Message> {
        (**self).receive(now)
    }

    fn reset(&mut self, seed: u64) {
        (**self).reset(seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_produce_expected_channels() {
        let mut perfect = CommSetting::NoDisturbance.channel(0);
        perfect.send(Message::new(1, 0.0, 0.0, 0.0, 0.0), 0.0);
        assert_eq!(perfect.receive(0.0).len(), 1);

        let mut delayed = CommSetting::delayed_with_drop(0.0).channel(0);
        delayed.send(Message::new(1, 0.0, 0.0, 0.0, 0.0), 0.0);
        assert!(delayed.receive(0.1).is_empty());
        assert_eq!(delayed.receive(0.25).len(), 1);

        let mut lost = CommSetting::Lost.channel(0);
        lost.send(Message::new(1, 0.0, 0.0, 0.0, 0.0), 0.0);
        assert!(lost.receive(100.0).is_empty());
    }

    #[test]
    fn boxed_channels_forward_the_scheduled_send() {
        // With `Channel` in scope, method calls on the box resolve to the
        // `Box` impl above, not to the trait object behind it.
        let m = Message::new(1, 0.0, 0.0, 0.0, 0.0);
        let mut perfect = CommSetting::NoDisturbance.channel(0);
        assert_eq!(perfect.send_scheduled(m, 0.0), Some(0.0));
        let mut delayed = CommSetting::delayed_with_drop(0.0).channel(0);
        assert_eq!(delayed.send_scheduled(m, 0.0), Some(0.25));
        let mut lost = CommSetting::Lost.channel(0);
        assert_eq!(lost.send_scheduled(m, 0.0), None);
        // Nothing was enqueued behind the box either.
        assert!(perfect.receive(f64::MAX).is_empty());
        assert!(delayed.receive(f64::MAX).is_empty());
    }

    #[test]
    fn connectivity_flag() {
        assert!(CommSetting::NoDisturbance.is_connected());
        assert!(CommSetting::delayed_with_drop(0.9).is_connected());
        assert!(!CommSetting::Lost.is_connected());
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(CommSetting::NoDisturbance.to_string(), "no disturbance");
        assert!(CommSetting::Lost.to_string().contains("lost"));
        assert!(CommSetting::delayed_with_drop(0.25)
            .to_string()
            .contains("delayed"));
    }
}
