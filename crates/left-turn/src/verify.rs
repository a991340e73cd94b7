//! Offline verification of the shield's two inductive properties.
//!
//! The paper's safety argument (§III-E) rests on two facts about the
//! scenario implementation:
//!
//! 1. **Boundary coverage** (Eq. 3): from any state that is neither unsafe
//!    nor flagged by the monitor, no admissible one-step control reaches the
//!    unsafe set.
//! 2. **Emergency invariance** (Eq. 4): from any state the monitor flags
//!    (while stopping is still possible), the emergency planner keeps the
//!    ego out of the conflict zone forever.
//!
//! The paper argues these on paper; [`check_invariants`] checks them
//! *computationally* over a dense grid of ego states and window
//! configurations — the offline counterpart of the paper's claim that *"it
//! does not require extra resources for safety verification during
//! runtime"*. Run it once per scenario parameterisation (the `verify_shield`
//! binary does; it is also wired into the test suite).

use cv_dynamics::VehicleState;
use cv_estimation::Interval;
use safe_shield::Scenario;

use crate::LeftTurnScenario;

/// Grid resolution for [`check_invariants`].
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyGrid {
    /// Ego positions checked, from `p_min` to the back line.
    pub p_min: f64,
    /// Position step (m).
    pub p_step: f64,
    /// Velocity step (m/s).
    pub v_step: f64,
    /// Acceleration samples per one-step successor check.
    pub accel_samples: usize,
    /// Window start offsets (s, relative to now) checked.
    pub window_offsets: Vec<f64>,
    /// Window lengths (s) checked.
    pub window_lengths: Vec<f64>,
}

impl Default for VerifyGrid {
    fn default() -> Self {
        Self {
            p_min: -25.0,
            p_step: 0.25,
            v_step: 0.25,
            accel_samples: 12,
            window_offsets: vec![0.0, 0.5, 1.0, 2.0, 4.0, 8.0],
            window_lengths: vec![0.5, 1.5, 3.0, 8.0, 1e5],
        }
    }
}

impl VerifyGrid {
    /// A coarse grid for quick smoke checks (tests).
    pub fn coarse() -> Self {
        Self {
            p_step: 1.0,
            v_step: 1.0,
            accel_samples: 6,
            window_offsets: vec![0.0, 1.0, 4.0],
            window_lengths: vec![1.0, 1e5],
            ..Self::default()
        }
    }
}

/// One counterexample found by the verifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Violation {
    /// Which property failed.
    pub kind: ViolationKind,
    /// Ego state at the violation.
    pub ego: VehicleState,
    /// The window configuration.
    pub window: Interval,
    /// The control input that broke boundary coverage (`None` for
    /// emergency-invariance violations).
    pub accel: Option<f64>,
}

/// The two checkable properties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A nominal (NN-controlled) state reached the unsafe set in one step.
    BoundaryCoverage,
    /// The emergency planner let a flagged state cross the front line while
    /// a stop was still owed.
    EmergencyInvariance,
}

/// Verification report: states checked and any counterexamples (capped).
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// Number of `(state, window)` pairs examined.
    pub states_checked: u64,
    /// Committed `(state, window)` pairs pruned as unreachable (the shield
    /// only creates *certified* commitments; see
    /// [`LeftTurnScenario::commitment_is_certified`]).
    pub unreachable_pruned: u64,
    /// Counterexamples found (at most [`VerifyReport::MAX_VIOLATIONS`]).
    pub violations: Vec<Violation>,
}

impl VerifyReport {
    /// The report stops collecting after this many counterexamples.
    pub const MAX_VIOLATIONS: usize = 32;

    /// `true` when no property was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            write!(
                f,
                "verified: {} state/window pairs, no violations",
                self.states_checked
            )
        } else {
            write!(
                f,
                "FAILED: {} violations in {} state/window pairs (first: {:?})",
                self.violations.len(),
                self.states_checked,
                self.violations[0]
            )
        }
    }
}

/// Checks boundary coverage and emergency invariance over a state grid.
///
/// For every grid state and window:
///
/// * if the monitor would let the NN drive, every sampled one-step control
///   must stay out of the estimated unsafe set **or** end in a state the
///   monitor itself protects (the inductive step) — covering both the paper
///   Eq. 3 obligation and the dive/creep exceptions;
/// * if the monitor flags the state while a stop is still physically owed,
///   rolling `κ_e` forward must never cross the real front line before the
///   window is re-evaluated (we roll with the window frozen, the worst
///   case).
///
/// # Example
///
/// ```
/// use left_turn::{LeftTurnScenario, verify};
///
/// let scenario = LeftTurnScenario::paper_default(52.0)?;
/// let report = verify::check_invariants(&scenario, &verify::VerifyGrid::coarse());
/// assert!(report.is_clean(), "{report}");
/// # Ok::<(), left_turn::ScenarioError>(())
/// ```
pub fn check_invariants(scenario: &LeftTurnScenario, grid: &VerifyGrid) -> VerifyReport {
    let lims = scenario.ego_limits();
    let mut report = VerifyReport {
        states_checked: 0,
        unreachable_pruned: 0,
        violations: Vec::new(),
    };

    let p_max = scenario.geometry().p_b;
    let mut windows = Vec::new();
    for &off in &grid.window_offsets {
        for &len in &grid.window_lengths {
            windows.push(Interval::new(off, (off + len).min(1e6)));
        }
    }

    let mut p = grid.p_min;
    while p <= p_max {
        let mut v = lims.v_min();
        while v <= lims.v_max() {
            let ego = VehicleState::new(p, v, 0.0);
            for w in &windows {
                if report.violations.len() >= VerifyReport::MAX_VIOLATIONS {
                    return report;
                }
                report.states_checked += 1;
                let window = Some(*w);
                if scenario.in_unsafe_set(0.0, &ego, window) {
                    continue; // already lost: not reachable under the shield
                }
                if scenario.is_committed(&ego) && !scenario.commitment_is_certified(0.0, &ego, w) {
                    // The shield never creates uncertified commitments.
                    report.unreachable_pruned += 1;
                    continue;
                }
                if scenario.requires_emergency(0.0, &ego, window) {
                    check_emergency(scenario, ego, *w, &mut report);
                } else {
                    check_coverage(scenario, ego, *w, grid.accel_samples, &mut report);
                }
            }
            v += grid.v_step;
        }
        p += grid.p_step;
    }
    report
}

/// Rolls the emergency planner forward from `start` with the window frozen
/// at its pessimal interpretation, and reports whether the ego ever occupies
/// the conflict zone while the window is open. A vehicle that stops before
/// the front line, or that clears the back line outside the window, is safe.
fn emergency_rolls_clear(scenario: &LeftTurnScenario, start: VehicleState, w: Interval) -> bool {
    let lims = scenario.ego_limits();
    let dt = scenario.dt_c();
    let geometry = scenario.geometry();
    let mut cur = start;
    for step in 0..8000 {
        let t = step as f64 * dt;
        if geometry.contains_ego(cur.position) && w.overlaps(&Interval::new(t, t)) {
            return false; // in the zone while the window is open
        }
        if cur.position > geometry.p_b {
            return true; // cleared the zone
        }
        if cur.velocity <= 1e-3 && !geometry.contains_ego(cur.position) && t > w.hi() {
            return true; // parked at/before the line past the window
        }
        let a = scenario.emergency_accel(t, &cur, Some(w));
        cur = lims.step(&cur, a, dt);
        if cur.velocity <= 1e-3 && !geometry.contains_ego(cur.position) {
            // Stopped at/before the stop line (up to the entry tolerance):
            // it stays there until the window clears; never inside the zone.
            return true;
        }
    }
    false // did not conclusively clear within the horizon
}

/// Inductive step for NN-controlled states: every one-step successor must
/// either stay out of the (estimated) unsafe set, or be a monitor-protected
/// state from which the emergency planner physically avoids co-occupying
/// the zone with the window. (The latter covers the dive exception, whose
/// successors enter the paper's over-approximate `X_u` while provably
/// clearing before the window's earliest arrival.)
fn check_coverage(
    scenario: &LeftTurnScenario,
    ego: VehicleState,
    w: Interval,
    accel_samples: usize,
    report: &mut VerifyReport,
) {
    let lims = scenario.ego_limits();
    let dt = scenario.dt_c();
    for i in 0..=accel_samples {
        let a = lims.a_min() + (lims.a_max() - lims.a_min()) * i as f64 / accel_samples as f64;
        let next = lims.step(&ego, a, dt);
        let window = Some(w);
        if !scenario.in_unsafe_set(dt, &next, window) {
            continue;
        }
        let protected = scenario.requires_emergency(dt, &next, window)
            && emergency_rolls_clear(scenario, next, w);
        if !protected {
            report.violations.push(Violation {
                kind: ViolationKind::BoundaryCoverage,
                ego,
                window: w,
                accel: Some(a),
            });
            return;
        }
    }
}

/// Every monitor-flagged state must be physically recoverable by `κ_e`.
fn check_emergency(
    scenario: &LeftTurnScenario,
    ego: VehicleState,
    w: Interval,
    report: &mut VerifyReport,
) {
    if !emergency_rolls_clear(scenario, ego, w) {
        report.violations.push(Violation {
            kind: ViolationKind::EmergencyInvariance,
            ego,
            window: w,
            accel: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_scenario_verifies_cleanly() {
        let scenario = LeftTurnScenario::paper_default(52.0).unwrap();
        let report = check_invariants(&scenario, &VerifyGrid::coarse());
        assert!(report.is_clean(), "{report}");
        assert!(report.states_checked > 1_000);
    }

    #[test]
    fn several_start_positions_verify_cleanly() {
        for start in [50.5, 55.0, 60.0] {
            let scenario = LeftTurnScenario::paper_default(start).unwrap();
            let report = check_invariants(&scenario, &VerifyGrid::coarse());
            assert!(report.is_clean(), "start {start}: {report}");
        }
    }

    #[test]
    fn report_display_is_informative() {
        let clean = VerifyReport {
            states_checked: 10,
            unreachable_pruned: 0,
            violations: vec![],
        };
        assert!(clean.to_string().contains("verified"));
        let dirty = VerifyReport {
            states_checked: 10,
            unreachable_pruned: 0,
            violations: vec![Violation {
                kind: ViolationKind::BoundaryCoverage,
                ego: VehicleState::at_rest(),
                window: Interval::new(0.0, 1.0),
                accel: Some(1.0),
            }],
        };
        assert!(dirty.to_string().contains("FAILED"));
        assert!(!dirty.is_clean());
    }

    /// A denser grid over the critical approach band (slow, so bounded).
    #[test]
    fn dense_grid_near_the_line_verifies_cleanly() {
        let scenario = LeftTurnScenario::paper_default(52.0).unwrap();
        let grid = VerifyGrid {
            p_min: -8.0,
            p_step: 0.1,
            v_step: 0.5,
            accel_samples: 8,
            window_offsets: vec![0.0, 0.3, 1.0, 3.0],
            window_lengths: vec![0.5, 2.0, 1e5],
        };
        let report = check_invariants(&scenario, &grid);
        assert!(report.is_clean(), "{report}");
    }
}
