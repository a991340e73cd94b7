/// Location of the conflict zone on the shared (ego) axis.
///
/// `p_f` is the *front line* (the ego enters the zone crossing it) and `p_b`
/// the *back line* (the ego leaves the zone crossing it). The paper's
/// experiments place the zone at `[5, 15]` metres.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometry {
    /// Front line `p_f` (m) — where the ego enters the conflict zone.
    pub p_f: f64,
    /// Back line `p_b` (m) — where the ego exits the conflict zone.
    pub p_b: f64,
}

impl Geometry {
    /// The paper's conflict zone `[5, 15]`.
    pub fn paper() -> Self {
        Self {
            p_f: 5.0,
            p_b: 15.0,
        }
    }

    /// Zone length `p_b − p_f`.
    pub fn length(&self) -> f64 {
        self.p_b - self.p_f
    }

    /// Sub-millimetre tolerance on the entry side: penetrations below this
    /// are floating-point artifacts of the exact-stop trajectory, not
    /// physical occupancy.
    pub const ENTRY_EPS: f64 = 1e-9;

    /// Returns `true` if an ego-axis position is inside the zone.
    ///
    /// Half-open on the entry side: the front line *is* the stop line, so a
    /// vehicle whose nose rests exactly on it (up to [`Self::ENTRY_EPS`])
    /// has not entered the zone. This removes a measure-zero boundary
    /// artifact from evaluation and the offline verifier: a vehicle stopped
    /// on the line is not "occupying" the conflict area.
    pub fn contains_ego(&self, position: f64) -> bool {
        position > self.p_f + Self::ENTRY_EPS && position <= self.p_b
    }
}

impl Default for Geometry {
    fn default() -> Self {
        Self::paper()
    }
}

/// Errors constructing a [`crate::LeftTurnScenario`].
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// `p_f >= p_b`: the conflict zone is empty or inverted.
    EmptyConflictZone,
    /// `C_1` must start beyond the back line of the zone.
    OtherStartsInsideZone,
    /// There is no oncoming vehicle to build a scenario for.
    NoOncomingVehicle,
    /// The control period must be positive and finite.
    InvalidControlPeriod,
    /// Vehicle limits were rejected.
    Limits(cv_dynamics::LimitsError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::EmptyConflictZone => write!(f, "conflict zone is empty (p_f >= p_b)"),
            ScenarioError::OtherStartsInsideZone => {
                write!(f, "oncoming vehicle must start beyond the conflict zone")
            }
            ScenarioError::NoOncomingVehicle => write!(f, "there is no oncoming vehicle"),
            ScenarioError::InvalidControlPeriod => {
                write!(f, "control period must be positive and finite")
            }
            ScenarioError::Limits(e) => write!(f, "invalid vehicle limits: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Limits(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cv_dynamics::LimitsError> for ScenarioError {
    fn from(e: cv_dynamics::LimitsError) -> Self {
        ScenarioError::Limits(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry() {
        let g = Geometry::paper();
        assert_eq!(g.length(), 10.0);
        assert!(!g.contains_ego(5.0)); // the stop line itself is outside
        assert!(g.contains_ego(5.01));
        assert!(g.contains_ego(15.0));
        assert!(!g.contains_ego(4.99));
        assert!(!g.contains_ego(15.01));
    }

    #[test]
    fn errors_display() {
        assert!(!ScenarioError::EmptyConflictZone.to_string().is_empty());
        let e: ScenarioError = cv_dynamics::LimitsError::NonFinite.into();
        assert!(e.to_string().contains("limits"));
    }
}
