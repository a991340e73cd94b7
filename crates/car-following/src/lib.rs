//! Car-following case study: the *distance-gap* unsafe set of the paper's
//! own system model (Section II-A):
//!
//! > *"if the ego vehicle `C_0` and another vehicle `C_i` are on the same
//! > lane, `C_0` must keep a distance gap with `C_i` to avoid collision.
//! > Therefore, the unsafe set could be defined as
//! > `X_u = {x(t) | |p_0(t) − p_i(t)| < p_gap}`."*
//!
//! The left-turn crate reproduces the paper's *evaluated* case study; this
//! crate implements the paper's *other* example to demonstrate that the
//! `safe-shield` framework ([`safe_shield::Scenario`],
//! [`safe_shield::CompoundPlanner`]) is genuinely scenario-agnostic: wrap any
//! cruise controller — however reckless — and the runtime monitor plus the
//! RSS-style emergency braking law guarantee the gap.
//!
//! Here the scenario's *conflict descriptor* interval carries the lead
//! vehicle's **position bound** (both vehicles share one forward frame), not
//! a passing-time window.
//!
//! # Example
//!
//! ```
//! use car_following::{CarFollowingScenario, CruisePlanner};
//! use cv_dynamics::{VehicleLimits, VehicleState};
//! use safe_shield::{CompoundPlanner, Scenario};
//! use cv_estimation::VehicleEstimate;
//!
//! let scenario = CarFollowingScenario::highway_default()?;
//! // A reckless cruise controller shielded by the framework:
//! let mut shielded = CompoundPlanner::basic(vec![scenario], CruisePlanner::reckless(&scenario));
//! let ego = VehicleState::new(0.0, 20.0, 0.0);
//! let lead = VehicleEstimate::exact(0.0, VehicleState::new(60.0, 15.0, 0.0));
//! let decision = shielded.plan(0.0, &ego, &[lead]);
//! assert!(decision.accel.is_finite());
//! # Ok::<(), car_following::CarFollowingError>(())
//! ```

mod cruise;
mod scenario;

pub use cruise::CruisePlanner;
pub use scenario::{CarFollowingError, CarFollowingScenario};
