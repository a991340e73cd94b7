//! Discrete-time connected-vehicle simulator and experiment engine.
//!
//! Reproduces the experimental setup of paper Section V: the ego vehicle
//! `C_0` performs an unprotected left turn across a randomly driven oncoming
//! vehicle `C_1`, receiving V2V messages every `Δt_m` (subject to delay and
//! drops) and sensor measurements every `Δt_s` (subject to bounded noise).
//!
//! * [`EpisodeConfig`] — one episode's physical/communication parameters
//!   (defaults follow the paper: `p_0(0) = −30 m`, zone `[5, 15]`,
//!   `p_1(0) ∈ {50.5 + 0.5j}`, `Δt_c = 0.05 s`, `Δt_d = 0.25 s`).
//! * [`StackSpec`] — which planner runs: a pure NN planner (naive
//!   estimation, no shield), the basic compound planner `κ_cb`, or the
//!   ultimate compound planner `κ_cu` (information filter + aggressive
//!   unsafe set).
//! * [`run_episode`] — simulates one episode and scores it with the paper's
//!   `η` ([`safe_shield::Outcome`]).
//! * [`run_batch_with`] — the one supervised batch entry point: episodes
//!   are distributed over workers by one claim-by-index fan-out (the only
//!   code that spawns, stops and rescues batch workers), and each worker
//!   runs them on the [`stepper`], the simulator's one per-step loop, with
//!   its one pair schedule, the event wheel (see [`events`]), in the
//!   [`BatchMode`] the caller picks (one lane, or lane-batched NN
//!   inference — see [`lanes`]).
//!   Every episode is wrapped in `catch_unwind` and mapped to a typed
//!   [`EpisodeOutcome`] (completed / failed / panicked / skipped). A
//!   [`BatchControl`] attaches a seed [`Quarantine`], an interrupt and a
//!   deadline (both step-granular), an [`EpisodeCache`] and a per-episode
//!   observer; the cv-server daemon runs its jobs through it. Every worker
//!   reuses an [`EpisodeWorkspace`], so the per-step loop allocates nothing
//!   in the steady state, and results stay bit-identical to a serial run.
//!   [`run_batch_lanes`] is its wrapper with a quarantine and an interrupt.
//! * [`run_batch`] — its strict per-episode wrapper: the paper's
//!   Monte-Carlo over seeds and initial positions, summarised as the
//!   columns of Tables I/II ([`BatchSummary`]): reaching time, safe rate,
//!   mean `η`, emergency frequency — plus paired per-episode `η`s for
//!   winning percentages.
//! * [`training`] — closed-loop teacher rollouts + behaviour cloning to
//!   produce the conservative/aggressive NN planners (`κ_n,cons`,
//!   `κ_n,aggr`).
//!
//! # Example
//!
//! ```
//! use cv_sim::{run_episode, EpisodeConfig, StackSpec, WindowKind};
//!
//! // A single conservative-teacher episode under perfect communication.
//! let cfg = EpisodeConfig::paper_default(42);
//! let result = run_episode(&cfg, &StackSpec::pure_teacher_conservative(&cfg)?, false)?;
//! assert!(result.outcome.is_safe());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod batch;
pub mod cache;
mod cadence;
mod config;
mod driver;
mod episode;
pub mod events;
pub mod lanes;
mod metrics;
mod scheduler;
mod stack;
pub mod stepper;
pub mod supervise;
pub mod training;
pub mod workspace;

pub use batch::{run_batch, BatchConfig};
pub use cache::{
    episode_key, episode_weight, stack_digest, store_salt, EpisodeCache, DEFAULT_CACHE_BYTES,
};
pub use config::{EpisodeConfig, OtherVehicle, PlatoonFollower, PlatoonSpec};
pub use cv_cache::{CacheKey, CacheStats, Hashable, KeyError, KeyHasher, RecoveryReport};
pub use driver::{Driver, DriverModel, LeadInfo};
pub use episode::{
    run_episode, DecisionTrace, EpisodeResult, EpisodeTraces, SimError, WindowTrace,
};
pub use lanes::{lane_tolerance_check, run_batch_lanes, BatchMode};
pub use metrics::{rmse, winning_percentage, BatchSummary};
pub use stack::{StackSpec, WindowKind};
pub use supervise::{
    run_batch_with, BatchControl, BatchReport, EpisodeOutcome, Quarantine, SkipReason,
};
pub use workspace::EpisodeWorkspace;
