use cv_estimation::Interval;

/// Outcome of one simulated episode, evaluated on ground truth.
///
/// Implements the evaluation function `η` of paper Section II-A:
///
/// ```text
/// η = −1    if the unsafe set was entered before reaching the target,
/// η = 1/t_r if the target set was reached at time t_r,
/// η = 0     otherwise (timeout).
/// ```
///
/// # Example
///
/// ```
/// use safe_shield::Outcome;
///
/// assert_eq!(Outcome::Collision { time: 3.2 }.eta(), -1.0);
/// assert_eq!(Outcome::Reached { time: 8.0 }.eta(), 0.125);
/// assert_eq!(Outcome::Timeout.eta(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Safety was violated at `time` before the target was reached.
    Collision {
        /// Time of the first violation (s).
        time: f64,
    },
    /// The target set was reached safely at `time` (the reaching time `t_r`).
    Reached {
        /// Reaching time `t_r` (s).
        time: f64,
    },
    /// Neither happened within the horizon.
    Timeout,
}

impl Outcome {
    /// The evaluation value `η`.
    ///
    /// # Panics
    ///
    /// Panics if a [`Outcome::Reached`] time is not strictly positive.
    pub fn eta(&self) -> f64 {
        match *self {
            Outcome::Collision { .. } => -1.0,
            Outcome::Reached { time } => {
                assert!(time > 0.0, "reaching time must be positive, got {time}");
                1.0 / time
            }
            Outcome::Timeout => 0.0,
        }
    }

    /// `true` if no safety violation occurred.
    pub fn is_safe(&self) -> bool {
        !matches!(self, Outcome::Collision { .. })
    }

    /// The reaching time, if the target was reached.
    pub fn reaching_time(&self) -> Option<f64> {
        match *self {
            Outcome::Reached { time } => Some(time),
            _ => None,
        }
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Outcome::Collision { time } => write!(f, "collision at {time:.2}s"),
            Outcome::Reached { time } => write!(f, "reached target at {time:.2}s"),
            Outcome::Timeout => write!(f, "timeout"),
        }
    }
}

/// Temporal slack of one ego/vehicle pair: how far the ego's projected
/// zone-crossing interval stays clear of that vehicle's passing window, in
/// seconds.
///
/// Positive when the two intervals are disjoint (the separation between
/// them), negative when they overlap (minus the overlap duration — the
/// amount of crossing time in conflict), and `+∞` when either interval is
/// absent (no projected crossing, or the vehicle never occupies the zone):
/// a pair that cannot meet has unbounded slack.
pub fn pair_time_slack(ego_crossing: Option<Interval>, window: Option<Interval>) -> f64 {
    match (ego_crossing, window) {
        (Some(ego), Some(win)) => {
            if ego.hi() < win.lo() {
                win.lo() - ego.hi()
            } else if win.hi() < ego.lo() {
                ego.lo() - win.hi()
            } else {
                -(ego.hi().min(win.hi()) - ego.lo().max(win.lo()))
            }
        }
        _ => f64::INFINITY,
    }
}

/// Platoon-level temporal slack: the minimum [`pair_time_slack`] over every
/// ego/vehicle pair, i.e. the slack of the *tightest* pair. `+∞` over an
/// empty platoon.
///
/// Because this is a plain `min` fold over independently computed per-pair
/// slacks, removing any vehicle can only keep the result or raise it —
/// never lower it — which is the monotonicity property the platoon tests
/// pin down.
pub fn platoon_slack(pair_slacks: impl IntoIterator<Item = f64>) -> f64 {
    pair_slacks.into_iter().fold(f64::INFINITY, f64::min)
}

/// Platoon-level safety score: the minimum per-pair `η` — a collision with
/// *any* vehicle scores the episode as a collision, exactly as the paper's
/// single-pair `η` does for its one conflicting vehicle.
pub fn platoon_eta(pair_etas: impl IntoIterator<Item = f64>) -> f64 {
    pair_etas.into_iter().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eta_ordering_prefers_safety_then_speed() {
        let crash = Outcome::Collision { time: 1.0 };
        let slow = Outcome::Reached { time: 20.0 };
        let fast = Outcome::Reached { time: 5.0 };
        let stuck = Outcome::Timeout;
        assert!(crash.eta() < stuck.eta());
        assert!(stuck.eta() < slow.eta());
        assert!(slow.eta() < fast.eta());
    }

    #[test]
    fn accessors() {
        assert!(Outcome::Timeout.is_safe());
        assert!(!Outcome::Collision { time: 1.0 }.is_safe());
        assert_eq!(Outcome::Reached { time: 4.0 }.reaching_time(), Some(4.0));
        assert_eq!(Outcome::Timeout.reaching_time(), None);
    }

    #[test]
    #[should_panic]
    fn zero_reaching_time_panics() {
        let _ = Outcome::Reached { time: 0.0 }.eta();
    }

    #[test]
    fn pair_slack_measures_separation_and_overlap() {
        let ego = Some(Interval::new(4.0, 6.0));
        // Ego crosses before the window opens: separation 2 s.
        assert_eq!(pair_time_slack(ego, Some(Interval::new(8.0, 10.0))), 2.0);
        // Window closes before the ego arrives: separation 1 s.
        assert_eq!(pair_time_slack(ego, Some(Interval::new(1.0, 3.0))), 1.0);
        // Overlap of 1 s → slack −1.
        assert_eq!(pair_time_slack(ego, Some(Interval::new(5.0, 9.0))), -1.0);
        // Window swallowed by the crossing: overlap is the window length.
        assert_eq!(pair_time_slack(ego, Some(Interval::new(4.5, 5.5))), -1.0);
        // A pair that cannot meet has unbounded slack.
        assert_eq!(
            pair_time_slack(None, Some(Interval::new(1.0, 2.0))),
            f64::INFINITY
        );
        assert_eq!(pair_time_slack(ego, None), f64::INFINITY);
    }

    #[test]
    fn platoon_slack_is_the_tightest_pair_and_is_drop_monotone() {
        let slacks = [3.0, -0.5, f64::INFINITY, 1.25];
        assert_eq!(platoon_slack(slacks), -0.5);
        assert_eq!(platoon_slack([]), f64::INFINITY);
        // Dropping any one pair never lowers the remaining minimum.
        let full = platoon_slack(slacks);
        for drop in 0..slacks.len() {
            let subset = slacks
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != drop)
                .map(|(_, s)| *s);
            assert!(platoon_slack(subset) >= full, "dropping pair {drop}");
        }
    }

    #[test]
    fn platoon_eta_is_the_worst_pair() {
        assert_eq!(platoon_eta([0.0, -1.0, 0.125]), -1.0);
        assert_eq!(platoon_eta([0.125, 0.125]), 0.125);
    }
}
