//! The daemon's job runner: an adapter from one batch job to
//! [`cv_sim::run_batch_with`], the same supervised entry point (and the
//! same fan-out) behind the in-process [`cv_sim::run_batch`].
//!
//! [`run_sharded`] builds the job's [`BatchControl`] — the cancel flag,
//! the deadline, the shared [`Quarantine`], the daemon's [`EpisodeCache`]
//! and an observer — maps each episode's outcome to a streamed
//! [`Progress`] event as it resolves, and maps the report to a
//! [`JobOutcome`]. Everything else lives in cv-sim: the claim-by-index
//! workers (so the per-episode results, and the final [`BatchSummary`],
//! are bit-identical to an in-process `run_batch` of the same
//! [`BatchConfig`] regardless of worker count), panic containment and
//! quarantine, step-granular stopping on cancel or deadline, the
//! dead-worker rescue, and the cache lookup before any worker claims and
//! the insert of every completed miss. [`JobLimits::mode`] selects the
//! [`BatchMode`] every worker runs.

use std::sync::atomic::AtomicBool;
use std::time::Instant;

use cv_sim::{
    run_batch_with, BatchConfig, BatchControl, BatchMode, BatchSummary, EpisodeCache,
    EpisodeOutcome, Quarantine, SimError, SkipReason, StackSpec,
};

/// Per-job execution limits.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobLimits {
    /// Worker threads (`0` is treated as 1; always clamped to the episode
    /// count).
    pub workers: usize,
    /// Absolute deadline; when it passes, the job stops at episode-step
    /// granularity and reports [`JobOutcome::DeadlineExceeded`].
    pub deadline: Option<Instant>,
    /// How each worker runs its episodes (`cv_sim::BatchMode`): one at a
    /// time, `Lanes(k)` in lockstep with batched NN forwards (stacks with
    /// an embedded NN planner only), or on the event wheel. An invalid lane
    /// count fails the job as [`SimError::InvalidBatch`].
    pub mode: BatchMode,
    /// Test hook: worker `w` dies right after its next claim, leaving a
    /// claimed-but-unreported episode for the rescue pass.
    /// Feature-gated so it cannot ship in a default build.
    #[cfg(feature = "fault-injection")]
    pub kill_worker: Option<usize>,
}

impl JobLimits {
    /// Limits with the given worker count and no deadline.
    pub fn new(workers: usize) -> Self {
        JobLimits {
            workers,
            deadline: None,
            mode: BatchMode::PerEpisode,
            #[cfg(feature = "fault-injection")]
            kill_worker: None,
        }
    }

    /// Attaches an absolute deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the batch mode every shard runs (see [`JobLimits::mode`]).
    #[must_use]
    pub fn with_mode(mut self, mode: BatchMode) -> Self {
        self.mode = mode;
        self
    }

    /// Arms the kill-a-shard test hook for worker `w`.
    #[cfg(feature = "fault-injection")]
    #[must_use]
    pub fn with_kill_worker(mut self, w: usize) -> Self {
        self.kill_worker = Some(w);
        self
    }
}

/// One completed episode, as handed to the progress callback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeProgress {
    /// Episode index within the batch (seed order).
    pub index: usize,
    /// The episode's `η` score.
    pub eta: f64,
    /// Episodes completed so far (including this one).
    pub done: usize,
    /// Total episodes in the batch.
    pub total: usize,
    /// Estimated wall-clock seconds remaining, extrapolated from the mean
    /// episode time so far.
    pub eta_secs: f64,
}

/// Why an episode resolved without a result (the batch keeps going).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A typed simulation error.
    Failed,
    /// A contained planner panic.
    Panicked,
    /// The seed was quarantined after repeated panics and skipped.
    Quarantined,
}

impl FaultKind {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Failed => "failed",
            FaultKind::Panicked => "panicked",
            FaultKind::Quarantined => "quarantined",
        }
    }
}

/// What a running job streams to its progress callback.
#[derive(Debug, Clone, PartialEq)]
pub enum Progress {
    /// An episode completed.
    Episode(EpisodeProgress),
    /// An episode resolved without a result; the batch continues.
    Fault {
        /// Episode index within the batch.
        index: usize,
        /// The episode seed.
        seed: u64,
        /// What happened to it.
        kind: FaultKind,
        /// Human-readable detail (error display or panic payload).
        detail: String,
    },
}

/// Terminal state of a sharded job.
///
/// Partial summaries always carry the completed episodes' statistics (the
/// summary is empty-safe), with unresolved episodes counted as `skipped`.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The whole index space was resolved. The summary's fault counts say
    /// how many episodes completed versus failed / panicked / were
    /// quarantined; completed episodes are bit-identical to a clean run.
    Completed(BatchSummary),
    /// The cancel flag was observed before the batch resolved.
    Cancelled {
        /// Episodes that completed before the workers stopped.
        done: usize,
        /// Statistics over exactly those episodes.
        partial: BatchSummary,
    },
    /// The job deadline passed before the batch resolved.
    DeadlineExceeded {
        /// Episodes that completed before the workers stopped.
        done: usize,
        /// Statistics over exactly those episodes.
        partial: BatchSummary,
    },
    /// The batch configuration itself is unrunnable. Per-episode faults do
    /// *not* end up here — they are contained and counted in a
    /// [`JobOutcome::Completed`] summary.
    Failed(SimError),
}

/// Runs `batch` with `spec` on `limits.workers` workers under
/// supervision, invoking `on_progress` for every resolved episode: cache
/// hits first, then each computed episode where it resolves. Calls never
/// overlap, and `done` counts up by one per completed episode.
///
/// `cancel` stops the job cooperatively at episode-step granularity, as
/// does `limits.deadline` expiring; `quarantine` (when given) is shared
/// across jobs to skip seeds that keep panicking. With a `cache`, hits
/// resolve without a worker and survive a cancellation, and completed
/// misses are stored. The summary's `cache_hits` / `cache_misses` count
/// this job's lookups (both zero without a cache); `cache_evictions` is
/// the cache-wide eviction delta observed while the job ran.
pub fn run_sharded<F>(
    batch: &BatchConfig,
    spec: &StackSpec,
    limits: JobLimits,
    cancel: &AtomicBool,
    quarantine: Option<&Quarantine>,
    cache: Option<&EpisodeCache>,
    mut on_progress: F,
) -> JobOutcome
where
    F: FnMut(Progress) + Send,
{
    let t0 = Instant::now();
    let total = batch.episodes;
    let mut done = 0usize;
    let mut observer = |index: usize, outcome: &EpisodeOutcome| {
        let (seed, kind, detail) = match outcome {
            EpisodeOutcome::Completed(r) => {
                done += 1;
                let elapsed = t0.elapsed().as_secs_f64();
                return on_progress(Progress::Episode(EpisodeProgress {
                    index,
                    eta: r.eta,
                    done,
                    total,
                    eta_secs: elapsed / done as f64 * (total - done) as f64,
                }));
            }
            EpisodeOutcome::Failed { seed, error } => (seed, FaultKind::Failed, error.to_string()),
            EpisodeOutcome::Panicked { seed, payload } => {
                (seed, FaultKind::Panicked, payload.clone())
            }
            EpisodeOutcome::Skipped {
                seed,
                reason: SkipReason::Quarantined { panics },
            } => (
                seed,
                FaultKind::Quarantined,
                format!("{panics} prior panics"),
            ),
            // An episode abandoned by a stop is not a fault — it is
            // accounted for in the partial summary's skipped count.
            EpisodeOutcome::Skipped {
                reason: SkipReason::Interrupted,
                ..
            } => return,
        };
        on_progress(Progress::Fault {
            index,
            seed: *seed,
            kind,
            detail,
        });
    };
    let control = BatchControl {
        quarantine,
        interrupt: Some(cancel),
        deadline: limits.deadline,
        cache,
        observer: Some(&mut observer),
        #[cfg(feature = "fault-injection")]
        kill_worker: limits.kill_worker,
    };
    let batch = BatchConfig {
        threads: limits.workers.max(1),
        ..batch.clone()
    };
    let report = match run_batch_with(&batch, spec, limits.mode, control) {
        Ok(report) => report,
        Err(e) => return JobOutcome::Failed(e),
    };
    // A stop that landed after the last episode resolved still yields the
    // complete (deterministic) summary.
    let stopped = report.outcomes.iter().any(|o| {
        matches!(
            o,
            EpisodeOutcome::Skipped {
                reason: SkipReason::Interrupted,
                ..
            }
        )
    });
    let mut partial = report.summary().with_timing(t0.elapsed());
    partial.lanes = limits.mode.lanes_for(spec);
    let done = partial.episodes;
    match (stopped, report.deadline_hit) {
        (false, _) => JobOutcome::Completed(partial),
        (true, true) => JobOutcome::DeadlineExceeded { done, partial },
        (true, false) => JobOutcome::Cancelled { done, partial },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_dynamics::VehicleLimits;
    use cv_nn::{Activation, Mlp, LANE_WIDTH};
    use cv_planner::{FeatureScaling, NnPlanner};
    use cv_sim::{run_batch, run_batch_lanes, EpisodeConfig};
    use std::sync::atomic::Ordering;

    fn paper_batch(episodes: usize) -> (BatchConfig, StackSpec) {
        let template = EpisodeConfig::paper_default(11);
        let spec = StackSpec::pure_teacher_conservative(&template).unwrap();
        (BatchConfig::new(template, episodes), spec)
    }

    fn nn_batch(episodes: usize) -> (BatchConfig, StackSpec) {
        let net = Mlp::new(&[5, 16, 1], Activation::Tanh, Activation::Tanh, 3).unwrap();
        let limits = VehicleLimits::new(0.0, 12.0, -6.0, 3.0).unwrap();
        let planner = NnPlanner::new(net, limits, FeatureScaling::left_turn(), "lane-shard-test");
        let template = EpisodeConfig::paper_default(11);
        (
            BatchConfig::new(template, episodes),
            StackSpec::basic(planner),
        )
    }

    #[test]
    fn sharded_matches_run_batch_bit_identically() {
        let (batch, spec) = paper_batch(10);
        let reference = BatchSummary::from_results(&run_batch(&batch, &spec).unwrap());
        for workers in [1, 3, 10] {
            let cancel = AtomicBool::new(false);
            let mut seen = Vec::new();
            let outcome = run_sharded(
                &batch,
                &spec,
                JobLimits::new(workers),
                &cancel,
                None,
                None,
                |p| {
                    if let Progress::Episode(p) = p {
                        seen.push(p.index)
                    }
                },
            );
            let JobOutcome::Completed(summary) = outcome else {
                panic!("expected completion with {workers} workers");
            };
            assert!(summary.stats_eq(&reference), "{workers} workers diverged");
            assert_eq!((summary.requested, summary.episodes), (10, 10));
            assert!(summary.wall_time_secs > 0.0);
            seen.sort_unstable();
            assert_eq!(seen, (0..10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn lane_sharding_matches_run_batch_lanes_bit_identically() {
        // The server's lane shards claim from a different queue (the cache
        // miss list) than the in-process scheduler, so this pins the lane
        // contract's claim-order invariance at the server layer: same K ⇒
        // bit-identical per-episode results, any worker count.
        let (batch, spec) = nn_batch(12);
        let reference = run_batch_lanes(&batch, &spec, cv_sim::BatchMode::Lanes(4), None, None)
            .unwrap()
            .summary();
        for workers in [1, 3] {
            let cancel = AtomicBool::new(false);
            let limits = JobLimits::new(workers).with_mode(BatchMode::Lanes(4));
            let mut seen = Vec::new();
            let outcome = run_sharded(&batch, &spec, limits, &cancel, None, None, |p| {
                if let Progress::Episode(p) = p {
                    seen.push(p.index)
                }
            });
            let JobOutcome::Completed(summary) = outcome else {
                panic!("expected completion with {workers} lane workers");
            };
            assert_eq!(summary.lanes, 4, "summary records the lane width");
            assert!(summary.stats_eq(&reference), "{workers} workers diverged");
            assert_eq!(
                summary.etas.iter().map(|e| e.to_bits()).collect::<Vec<_>>(),
                reference
                    .etas
                    .iter()
                    .map(|e| e.to_bits())
                    .collect::<Vec<_>>(),
            );
            seen.sort_unstable();
            assert_eq!(seen, (0..12).collect::<Vec<_>>());
        }
    }

    #[test]
    fn lane_knob_is_inert_for_teacher_stacks() {
        // No embedded NN planner means nothing to batch: the job takes the
        // per-episode reference path bit-identically and the summary says
        // so (lanes = 1, not the configured width).
        let (batch, spec) = paper_batch(6);
        let reference = BatchSummary::from_results(&run_batch(&batch, &spec).unwrap());
        let cancel = AtomicBool::new(false);
        let limits = JobLimits::new(2).with_mode(BatchMode::Lanes(LANE_WIDTH));
        let outcome = run_sharded(&batch, &spec, limits, &cancel, None, None, |_| {});
        let JobOutcome::Completed(summary) = outcome else {
            panic!("expected completion, got {outcome:?}");
        };
        assert_eq!(summary.lanes, 1);
        assert!(summary.stats_eq(&reference));
    }

    #[test]
    fn out_of_range_lane_count_fails_typed() {
        let (batch, spec) = nn_batch(4);
        let cancel = AtomicBool::new(false);
        let limits = JobLimits::new(2).with_mode(BatchMode::Lanes(LANE_WIDTH + 1));
        let outcome = run_sharded(&batch, &spec, limits, &cancel, None, None, |_| {});
        assert!(matches!(
            outcome,
            JobOutcome::Failed(SimError::InvalidBatch { .. })
        ));
    }

    #[test]
    fn warm_cache_serves_lane_batched_episodes() {
        // Cache hits bypass lane compute entirely: the second run resolves
        // every episode at prefill and still reports the configured width.
        let (batch, spec) = nn_batch(8);
        let cache = EpisodeCache::new(1 << 20);
        let run = || {
            let cancel = AtomicBool::new(false);
            let limits = JobLimits::new(2).with_mode(BatchMode::Lanes(4));
            let outcome = run_sharded(&batch, &spec, limits, &cancel, None, Some(&cache), |_| {});
            let JobOutcome::Completed(summary) = outcome else {
                panic!("expected completion, got {outcome:?}");
            };
            summary
        };
        let cold = run();
        assert_eq!((cold.cache_hits, cold.cache_misses), (0, 8));
        let warm = run();
        assert_eq!((warm.cache_hits, warm.cache_misses), (8, 0));
        assert_eq!((cold.lanes, warm.lanes), (4, 4));
        assert!(cold.stats_eq(&warm));
        assert_eq!(
            cold.etas.iter().map(|e| e.to_bits()).collect::<Vec<_>>(),
            warm.etas.iter().map(|e| e.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn warm_cache_serves_every_episode_bit_identically() {
        let (batch, spec) = paper_batch(8);
        let cache = EpisodeCache::new(1 << 20);
        let run = |progress: &mut Vec<usize>| {
            let cancel = AtomicBool::new(false);
            let outcome = run_sharded(
                &batch,
                &spec,
                JobLimits::new(3),
                &cancel,
                None,
                Some(&cache),
                |p| {
                    if let Progress::Episode(p) = p {
                        progress.push(p.index)
                    }
                },
            );
            let JobOutcome::Completed(summary) = outcome else {
                panic!("expected completion, got {outcome:?}");
            };
            summary
        };
        let mut cold_seen = Vec::new();
        let cold = run(&mut cold_seen);
        assert_eq!((cold.cache_hits, cold.cache_misses), (0, 8));
        let mut warm_seen = Vec::new();
        let warm = run(&mut warm_seen);
        assert_eq!((warm.cache_hits, warm.cache_misses), (8, 0));
        assert_eq!(warm.cache_evictions, 0);
        assert!(cold.stats_eq(&warm));
        assert_eq!(
            cold.etas.iter().map(|e| e.to_bits()).collect::<Vec<_>>(),
            warm.etas.iter().map(|e| e.to_bits()).collect::<Vec<_>>(),
        );
        warm_seen.sort_unstable();
        assert_eq!(
            warm_seen,
            (0..8).collect::<Vec<_>>(),
            "hits stream progress"
        );
    }

    #[test]
    fn uncached_run_reports_zero_cache_counters() {
        let (batch, spec) = paper_batch(4);
        let cancel = AtomicBool::new(false);
        let outcome = run_sharded(
            &batch,
            &spec,
            JobLimits::new(2),
            &cancel,
            None,
            None,
            |_| {},
        );
        let JobOutcome::Completed(summary) = outcome else {
            panic!("expected completion, got {outcome:?}");
        };
        assert_eq!(
            (
                summary.cache_hits,
                summary.cache_misses,
                summary.cache_evictions
            ),
            (0, 0, 0),
            "no cache means no lookups, not 'all misses'"
        );
    }

    #[test]
    fn nan_config_bypasses_the_cache_but_still_runs() {
        let (mut batch, spec) = paper_batch(3);
        batch.template.sensor_dropout = f64::NAN;
        let cache = EpisodeCache::new(1 << 20);
        let cancel = AtomicBool::new(false);
        let outcome = run_sharded(
            &batch,
            &spec,
            JobLimits::new(2),
            &cancel,
            None,
            Some(&cache),
            |_| {},
        );
        let JobOutcome::Completed(summary) = outcome else {
            panic!("expected completion, got {outcome:?}");
        };
        assert_eq!((summary.cache_hits, summary.cache_misses), (0, 0));
        assert!(cache.is_empty(), "a NaN config must never be stored");
    }

    #[test]
    fn progress_counts_monotonically() {
        let (batch, spec) = paper_batch(6);
        let cancel = AtomicBool::new(false);
        let mut last_done = 0;
        let outcome = run_sharded(&batch, &spec, JobLimits::new(2), &cancel, None, None, |p| {
            let Progress::Episode(p) = p else {
                panic!("unexpected fault: {p:?}");
            };
            assert_eq!(p.done, last_done + 1);
            assert_eq!(p.total, 6);
            assert!(p.eta_secs >= 0.0);
            last_done = p.done;
        });
        assert!(matches!(outcome, JobOutcome::Completed(_)));
        assert_eq!(last_done, 6);
    }

    #[test]
    fn pre_set_cancel_flag_stops_immediately() {
        let (batch, spec) = paper_batch(8);
        let cancel = AtomicBool::new(true);
        let outcome = run_sharded(
            &batch,
            &spec,
            JobLimits::new(2),
            &cancel,
            None,
            None,
            |_| {},
        );
        let JobOutcome::Cancelled { done, partial } = outcome else {
            panic!("expected cancellation, got {outcome:?}");
        };
        assert_eq!(done, 0);
        assert_eq!((partial.requested, partial.episodes), (8, 0));
        assert_eq!(partial.skipped, 8, "unrun episodes count as skipped");
    }

    #[test]
    fn cancel_mid_batch_flushes_a_partial_summary() {
        let (batch, spec) = paper_batch(12);
        let cancel = AtomicBool::new(false);
        let outcome = run_sharded(&batch, &spec, JobLimits::new(1), &cancel, None, None, |p| {
            if let Progress::Episode(p) = p {
                if p.done == 2 {
                    cancel.store(true, Ordering::Relaxed);
                }
            }
        });
        match outcome {
            JobOutcome::Cancelled { done, partial } => {
                assert!((2..12).contains(&done));
                assert_eq!(partial.episodes, done, "partial stats cover done episodes");
                assert_eq!(partial.requested, 12);
                assert_eq!(partial.skipped, 12 - done);
                assert_eq!(partial.etas.len(), done);
            }
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_stops_the_job_with_a_typed_outcome() {
        let (batch, spec) = paper_batch(20);
        let cancel = AtomicBool::new(false);
        let limits = JobLimits::new(2).with_deadline(Instant::now());
        let outcome = run_sharded(&batch, &spec, limits, &cancel, None, None, |_| {});
        let JobOutcome::DeadlineExceeded { done, partial } = outcome else {
            panic!("expected deadline expiry, got {outcome:?}");
        };
        assert!(done < 20, "an expired deadline cannot run the whole batch");
        assert_eq!(partial.requested, 20);
        assert_eq!(partial.episodes + partial.skipped, 20);
    }

    #[test]
    fn invalid_batch_fails_typed() {
        let (mut batch, spec) = paper_batch(4);
        batch.starts.clear();
        let cancel = AtomicBool::new(false);
        let outcome = run_sharded(
            &batch,
            &spec,
            JobLimits::new(2),
            &cancel,
            None,
            None,
            |_| {},
        );
        assert!(matches!(
            outcome,
            JobOutcome::Failed(SimError::InvalidBatch { .. })
        ));
    }

    #[test]
    fn scenario_errors_are_contained_per_episode() {
        let (mut batch, spec) = paper_batch(4);
        // C1 starting inside the conflict zone is geometrically invalid —
        // every episode fails, but the job completes with typed fault
        // events instead of dying.
        batch.starts = vec![10.0];
        let cancel = AtomicBool::new(false);
        let mut faults = Vec::new();
        let outcome = run_sharded(&batch, &spec, JobLimits::new(2), &cancel, None, None, |p| {
            if let Progress::Fault { index, kind, .. } = p {
                faults.push((index, kind));
            }
        });
        let JobOutcome::Completed(summary) = outcome else {
            panic!("expected completion, got {outcome:?}");
        };
        assert_eq!((summary.episodes, summary.failed), (0, 4));
        faults.sort_unstable_by_key(|(i, _)| *i);
        assert_eq!(
            faults,
            (0..4).map(|i| (i, FaultKind::Failed)).collect::<Vec<_>>()
        );
    }

    #[cfg(feature = "fault-injection")]
    mod fault_injection {
        use super::*;

        #[test]
        fn dead_shard_episodes_are_rescued_bit_identically() {
            let (batch, spec) = paper_batch(16);
            let reference = BatchSummary::from_results(&run_batch(&batch, &spec).unwrap());
            for killed in [0, 2] {
                let cancel = AtomicBool::new(false);
                let limits = JobLimits::new(4).with_kill_worker(killed);
                let mut seen = Vec::new();
                let outcome = run_sharded(&batch, &spec, limits, &cancel, None, None, |p| {
                    if let Progress::Episode(p) = p {
                        seen.push(p.index)
                    }
                });
                let JobOutcome::Completed(summary) = outcome else {
                    panic!("expected completion after killing shard {killed}");
                };
                assert!(summary.stats_eq(&reference), "shard {killed} diverged");
                seen.sort_unstable();
                assert_eq!(seen, (0..16).collect::<Vec<_>>(), "episodes lost");
            }
        }

        #[test]
        fn panicking_seed_is_contained_and_job_completes() {
            let (batch, spec) = paper_batch(6);
            let clean = BatchSummary::from_results(&run_batch(&batch, &spec).unwrap());
            let faulty =
                StackSpec::panic_injection(&batch.template, vec![batch.base_seed + 1]).unwrap();
            let cancel = AtomicBool::new(false);
            let mut faults = Vec::new();
            let outcome = run_sharded(
                &batch,
                &faulty,
                JobLimits::new(3),
                &cancel,
                None,
                None,
                |p| {
                    if let Progress::Fault { index, kind, .. } = p {
                        faults.push((index, kind));
                    }
                },
            );
            let JobOutcome::Completed(summary) = outcome else {
                panic!("expected completion, got {outcome:?}");
            };
            assert_eq!(faults, vec![(1, FaultKind::Panicked)]);
            assert_eq!((summary.episodes, summary.panicked), (5, 1));
            // Survivors are bit-identical to the clean run (index 1 absent).
            let expected: Vec<f64> = clean
                .etas
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != 1)
                .map(|(_, e)| *e)
                .collect();
            assert_eq!(
                summary.etas.iter().map(|e| e.to_bits()).collect::<Vec<_>>(),
                expected.iter().map(|e| e.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}
