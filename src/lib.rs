//! # safe-cv — a safety-guaranteed framework for NN-based planners in
//! connected vehicles under communication disturbance
//!
//! Rust reproduction of Chang et al., *"A Safety-Guaranteed Framework for
//! Neural-Network-Based Planners in Connected Vehicles under Communication
//! Disturbance"* (DATE 2023).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`dynamics`] | `cv-dynamics` | 1-D vehicle model, limits, trajectories |
//! | [`comm`] | `cv-comm` | V2V messages, delay/drop channels |
//! | [`sensing`] | `cv-sensing` | bounded-uniform-noise sensors |
//! | [`estimation`] | `cv-estimation` | intervals, reachability, Kalman + rollback, information filter |
//! | [`nn`] | `cv-nn` | from-scratch MLP library (training + inference) |
//! | [`shield`] | `safe-shield` | **the paper's contribution**: runtime monitor, emergency planner, compound planner, `η` |
//! | [`planner`] | `cv-planner` | teacher policies, NN planners, behaviour cloning |
//! | [`left_turn`] | `left-turn` | unprotected-left-turn case study (Eqs. 5–8) |
//! | [`sim`] | `cv-sim` | episode simulator, Monte-Carlo batches, training harness |
//!
//! # Quickstart
//!
//! Wrap a (quickly trained) NN planner into the paper's ultimate compound
//! planner and simulate one episode:
//!
//! ```
//! use safe_cv::prelude::*;
//!
//! // Train a small conservative planner (full training is cached by the
//! // experiment binaries; the smoke setup keeps doctests fast).
//! let planner = safe_cv::sim::training::train_planner(
//!     &TrainSetup::smoke(),
//!     safe_cv::sim::training::Personality::Conservative,
//! )?;
//!
//! let cfg = EpisodeConfig::paper_default(42);
//! let shielded = StackSpec::ultimate(planner, AggressiveConfig::default());
//! let result = run_episode(&cfg, &shielded, false)?;
//! assert!(result.outcome.is_safe()); // the shield guarantees this
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench/src/bin/` for
//! the binaries regenerating every table and figure of the paper.

pub use car_following;
pub use cv_comm as comm;
pub use cv_dynamics as dynamics;
pub use cv_estimation as estimation;
pub use cv_nn as nn;
pub use cv_planner as planner;
pub use cv_sensing as sensing;
pub use cv_sim as sim;
pub use left_turn;
pub use safe_shield as shield;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use cv_comm::{Channel, CommSetting, Message};
    pub use cv_dynamics::{VehicleLimits, VehicleState};
    pub use cv_estimation::{
        Estimator, FilterMode, InformationFilter, Interval, NaiveEstimator, Prior, VehicleEstimate,
    };
    pub use cv_planner::{NnPlanner, TeacherPolicy};
    pub use cv_sensing::{Measurement, SensorNoise, UniformNoiseSensor};
    pub use cv_sim::training::TrainSetup;
    pub use cv_sim::{
        run_batch, run_episode, BatchConfig, BatchSummary, EpisodeConfig, StackSpec, WindowKind,
    };
    pub use left_turn::LeftTurnScenario;
    pub use safe_shield::{
        AggressiveConfig, CompoundPlanner, Observation, Outcome, PlanDecision, Planner,
        PlannerSource, RuntimeMonitor, Scenario, WindowSource,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let limits = VehicleLimits::new(0.0, 12.0, -6.0, 3.0).unwrap();
        assert_eq!(limits.clamp_accel(10.0), 3.0);
        let cfg = EpisodeConfig::paper_default(0);
        assert_eq!(cfg.ego_init.position, -30.0);
    }
}
