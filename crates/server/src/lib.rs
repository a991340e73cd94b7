//! Networked batch-simulation service for the connected-vehicle simulator.
//!
//! `cv-server` exposes [`cv_sim::run_batch`]-equivalent Monte-Carlo batches
//! over a TCP JSON-lines protocol, so experiment sweeps (the paper's
//! Tables I/II grids) can run on a long-lived daemon instead of a fresh
//! process per batch:
//!
//! * one request or response frame per line, hand-rolled JSON ([`wire`]) —
//!   the build environment has no crates.io access, so no serde/tokio;
//! * a bounded FIFO job queue plus an episode-count admission budget, both
//!   surfaced as typed backpressure ([`queue`]): a saturated server answers
//!   a submission with a terminal `overloaded` frame carrying a
//!   `retry_after_ms` hint instead of queueing or resetting;
//! * a job runner ([`server`]) on cv-sim's own supervised entry point,
//!   [`cv_sim::run_batch_with`]: episodes run under `catch_unwind` with
//!   per-seed panic quarantine, jobs carry optional deadlines and honour
//!   cancellation at episode-step granularity, and a job that stops early
//!   still flushes a typed partial [`cv_sim::BatchSummary`] over exactly
//!   the episodes that finished — results stay **bit-identical** to an
//!   in-process `run_batch` of the same [`cv_sim::BatchConfig`];
//! * streamed progress (`episode_done` frames with the episode's `η` and a
//!   remaining-time estimate, `episode_fault` frames for contained
//!   failures) followed by one terminal frame: `batch_done`, `cancelled`,
//!   `deadline_exceeded`, or a typed error;
//! * graceful shutdown: the accept loop stops, the queue drains, and every
//!   accepted job still reaches its terminal frame.
//!
//! Binaries: `cv-serve` (the daemon) and `cv-submit` (submit a batch and
//! print streamed progress), both on the strict flag parser of [`cli`].
//! In-process use:
//!
//! ```
//! use cv_server::{Client, Server, StackSpecWire};
//! use cv_sim::{BatchConfig, EpisodeConfig};
//!
//! let server = Server::spawn_ephemeral()?;
//! let mut client = Client::connect(server.local_addr())?;
//! let batch = BatchConfig::new(EpisodeConfig::paper_default(1), 4);
//! let summary = client.submit_batch(&batch, StackSpecWire::TeacherConservative, |_| {})?;
//! assert_eq!(summary.episodes, 4);
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cli;
pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod wire;

pub use client::{Client, ClientConfig, ClientError, RetryPolicy};
pub use protocol::{Event, JobStatus, Request, StackSpecWire};
pub use queue::{JobQueue, PushError};
pub use server::{RunnerHold, Server, ServerConfig};
pub use wire::{FrameError, FrameReader, MAX_FRAME_BYTES};
