#![allow(dead_code)] // each test binary uses a subset of these fixtures
//! Shared fixtures for the integration tests: smoke-trained NN planners,
//! cached per test binary, and the golden-fingerprint helpers.

pub mod golden;

use std::sync::OnceLock;

use safe_cv::planner::NnPlanner;
use safe_cv::sim::training::{train_planner, Personality, TrainSetup};

/// A medium training budget: enough fidelity for the qualitative table
/// orderings, still far cheaper than the full experiment setup.
pub fn medium_setup() -> TrainSetup {
    TrainSetup {
        rollout_episodes: 72,
        ..TrainSetup::default()
    }
}

/// A quickly trained conservative planner (cached per process).
pub fn conservative_nn() -> NnPlanner {
    static CELL: OnceLock<NnPlanner> = OnceLock::new();
    CELL.get_or_init(|| {
        train_planner(&medium_setup(), Personality::Conservative).expect("training must succeed")
    })
    .clone()
}

/// A quickly trained aggressive planner (cached per process).
pub fn aggressive_nn() -> NnPlanner {
    static CELL: OnceLock<NnPlanner> = OnceLock::new();
    CELL.get_or_init(|| {
        train_planner(&medium_setup(), Personality::Aggressive).expect("training must succeed")
    })
    .clone()
}
