use cv_estimation::Interval;

/// Default window clustering gap (s): roughly the ego's zone-crossing time.
pub const DEFAULT_MERGE_GAP: f64 = 2.0;

/// Merges per-vehicle passing windows into the single window the (one-window)
/// NN planner consumes: the hull of the *earliest cluster* of the windows in
/// `active` (any order) whose gaps are smaller than `merge_gap` seconds.
///
/// Gaps shorter than the ego's crossing time are not usable, so clustering
/// with a `merge_gap` of roughly the crossing time ([`DEFAULT_MERGE_GAP`])
/// presents dense traffic as one blocked interval while still exposing
/// genuinely usable gaps behind it. Soundness is unaffected — the runtime
/// monitor always checks every window individually.
///
/// The buffer is sorted in place; hot loops keep it alive across calls
/// (`clear()` + `extend(…)`) so the per-step merge performs no heap
/// allocation in the steady state.
///
/// # Example
///
/// ```
/// use cv_estimation::Interval;
/// use safe_shield::merge_windows_in_place;
///
/// let mut windows = vec![
///     Interval::new(12.0, 13.0), // 5.5 s gap: usable, kept separate
///     Interval::new(4.0, 5.0),
///     Interval::new(5.5, 6.5), // 0.5 s gap: unusable, merged
/// ];
/// let merged = merge_windows_in_place(&mut windows, 2.0).expect("has windows");
/// assert_eq!(merged, Interval::new(4.0, 6.5));
/// ```
pub fn merge_windows_in_place(active: &mut [Interval], merge_gap: f64) -> Option<Interval> {
    if active.is_empty() {
        return None;
    }
    active.sort_by(|a, b| a.lo().partial_cmp(&b.lo()).expect("finite bounds"));
    let mut merged = active[0];
    for w in &active[1..] {
        if w.lo() <= merged.hi() + merge_gap {
            merged = merged.hull(w);
        } else {
            break; // the earliest cluster is complete
        }
    }
    Some(merged)
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

    /// Allocating oracle for [`merge_windows_in_place`]: collects the present
    /// windows into a fresh buffer and merges them.
    fn merge_windows(
        windows: impl IntoIterator<Item = Option<Interval>>,
        merge_gap: f64,
    ) -> Option<Interval> {
        let mut active: Vec<Interval> = windows.into_iter().flatten().collect();
        merge_windows_in_place(&mut active, merge_gap)
    }

    #[test]
    fn merge_keeps_disjoint_clusters_apart() {
        let merged = merge_windows(
            [
                Some(Interval::new(10.0, 11.0)),
                Some(Interval::new(2.0, 3.0)),
            ],
            2.0,
        )
        .unwrap();
        assert_eq!(merged, Interval::new(2.0, 3.0));
    }

    #[test]
    fn merge_fuses_chained_windows() {
        let merged = merge_windows(
            [
                Some(Interval::new(2.0, 3.0)),
                Some(Interval::new(4.0, 5.0)),
                Some(Interval::new(6.5, 7.0)),
            ],
            2.0,
        )
        .unwrap();
        // 2-3, 4-5 and 6.5-7 chain up (gaps 1.0 and 1.5 < 2.0).
        assert_eq!(merged, Interval::new(2.0, 7.0));
    }

    #[test]
    fn in_place_merge_matches_allocating_merge() {
        let cases: [&[Option<Interval>]; 4] = [
            &[],
            &[None, None],
            &[Some(Interval::new(4.0, 5.0)), Some(Interval::new(5.5, 6.5))],
            &[
                Some(Interval::new(10.0, 11.0)),
                None,
                Some(Interval::new(2.0, 3.0)),
                Some(Interval::new(4.5, 5.0)),
            ],
        ];
        let mut buf = Vec::new();
        for windows in cases {
            buf.clear();
            buf.extend(windows.iter().copied().flatten());
            assert_eq!(
                merge_windows_in_place(&mut buf, 2.0),
                merge_windows(windows.iter().copied(), 2.0),
            );
        }
    }

    #[test]
    fn merge_handles_empty_and_none() {
        assert_eq!(merge_windows([], 2.0), None);
        assert_eq!(merge_windows([None, None], 2.0), None);
        assert_eq!(
            merge_windows([None, Some(Interval::new(1.0, 2.0))], 2.0),
            Some(Interval::new(1.0, 2.0))
        );
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
