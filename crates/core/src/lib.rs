//! Safety-guaranteed compound planner framework (the paper's contribution).
//!
//! Given **any** neural-network-based planner `κ_n` with no safety guarantee,
//! this crate builds the *compound planner* `κ_c` (paper Section III),
//! [`CompoundPlanner`], over one or more conflicting vehicles. Every control
//! step it:
//!
//! 1. runs the [`RuntimeMonitor`] on each ego/vehicle pair; it estimates the
//!    unsafe set `X_u` from filtered information and computes the *boundary
//!    safe set* `X_b` — the states one control step away from `X_u` (Eq. 3);
//! 2. hands control to an *emergency planner* `κ_e` **iff** the current state
//!    is in some pair's `X_b` (the `κ_e` contract is Eq. 4: from `X_b`, stay
//!    in the safe set), and to `κ_n` otherwise;
//! 3. optionally feeds `κ_n` an *aggressive* (underestimated) unsafe set
//!    (paper Eq. 8, [`AggressiveConfig`]) — safe because the monitor keeps
//!    using the sound conservative set.
//!
//! Scenario-specific geometry (slack, passing-time windows, `κ_e` closed
//! form) lives behind the [`Scenario`] trait; the `left-turn` crate provides
//! the paper's unprotected-left-turn case study.
//!
//! The evaluation function `η` (Section II-A) is [`Outcome::eta`]:
//! `−1` on a safety violation, `1/t_r` on reaching the target at `t_r`, `0`
//! otherwise.
//!
//! # Example
//!
//! A minimal planner the framework can wrap (the `custom_planner` example
//! wraps a hostile one around the `left-turn` crate's scenario):
//!
//! ```
//! use safe_shield::{Observation, Planner};
//!
//! struct CruisePlanner;
//! impl Planner for CruisePlanner {
//!     fn plan(&mut self, _obs: &Observation) -> f64 { 0.0 }
//!     fn name(&self) -> &str { "cruise" }
//! }
//! ```

mod aggressive;
mod compound;
mod eval;
mod monitor;
mod observation;
mod planner;
mod scenario;

pub use aggressive::AggressiveConfig;
pub use compound::{
    merge_windows_in_place, CompoundPlanner, PlanDecision, PlannerSource, PreparedPlan,
    WindowSource, DEFAULT_MERGE_GAP,
};
pub use eval::{pair_time_slack, platoon_eta, platoon_slack, Outcome};
pub use monitor::{MonitorVerdict, RuntimeMonitor};
pub use observation::Observation;
pub use planner::Planner;
pub use scenario::Scenario;
