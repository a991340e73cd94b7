//! Sharded, supervised execution of one batch job with streamed progress.
//!
//! The scheduling mirrors [`cv_sim::run_batch`]: every worker claims the
//! next unclaimed episode index from a shared [`cv_sim::scheduler::WorkQueue`]
//! (dynamic load balancing — early-exiting episodes don't leave tail workers
//! idle) and runs it on a per-worker [`cv_sim::EpisodeWorkspace`], each
//! episode on its own derived seed — so the per-episode results (and
//! therefore the final [`BatchSummary`]) are bit-identical to an in-process
//! `run_batch` of the same [`BatchConfig`], regardless of worker count,
//! claim interleaving, or completion order.
//!
//! Each shard is one call of the worker driver ([`cv_sim::drive_worker`]),
//! the same one behind [`cv_sim::run_batch_lanes`]: a panicking planner
//! yields a typed [`EpisodeOutcome::Panicked`] for that episode only, a
//! per-episode simulation error yields [`EpisodeOutcome::Failed`], and
//! quarantined seeds are skipped — the batch keeps going and completes
//! with fault counts in its summary instead of dying.
//!
//! Workers report each resolved episode over an [`mpsc`] rendezvous channel
//! to the coordinating thread (the job runner), which owns the progress
//! callback and result assembly — callbacks never run concurrently. The
//! coordinator polls the cancel flag and the job deadline between
//! rendezvous; when either fires it flips a stop flag that the episode loop
//! checks *every control step*, so a job stops at episode-step granularity
//! and flushes a partial [`BatchSummary`]. If a shard thread dies outright,
//! the coordinator's rescue pass re-runs its claimed-but-unreported
//! episodes inline, preserving bit-identical results.
//!
//! [`JobLimits::mode`] selects the driver's [`BatchMode`]: with
//! `Lanes(k > 1)` each shard steps K claimed episodes in lockstep and
//! answers their NN evaluations with one batched forward pass per round
//! (only stacks with an embedded NN planner; teacher stacks run one lane),
//! and `EventDriven` runs them on the event wheel (`cv_sim::events`). Cache
//! hits bypass compute entirely in every mode, since shards claim from the
//! post-prefill miss list. The rescue pass re-runs orphaned episodes
//! through a driver of the same mode, so rescued results obey the same
//! numeric contract.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use cv_sim::scheduler::WorkQueue;
use cv_sim::{
    drive_worker, episode_key, episode_weight, stack_digest, BatchConfig, BatchMode, BatchReport,
    BatchSummary, CacheKey, EpisodeCache, EpisodeOutcome, Quarantine, SimError, SkipReason,
    StackSpec,
};

/// How often the coordinator wakes to poll cancel/deadline while no episode
/// is being handed over.
const COORDINATOR_POLL: Duration = Duration::from_millis(50);

/// Per-job execution limits.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobLimits {
    /// Worker shards (`0` is treated as 1; always clamped to the episode
    /// count).
    pub workers: usize,
    /// Absolute deadline; when it passes, the job stops at episode-step
    /// granularity and reports [`JobOutcome::DeadlineExceeded`].
    pub deadline: Option<Instant>,
    /// How each shard runs its episodes (`cv_sim::BatchMode`): one at a
    /// time, `Lanes(k)` in lockstep with batched NN forwards (stacks with
    /// an embedded NN planner only), or on the event wheel. An invalid lane
    /// count fails the job as [`SimError::InvalidBatch`].
    pub mode: BatchMode,
    /// Test hook: worker `w` dies right after its next claim, leaving a
    /// claimed-but-unreported episode for the supervisor's rescue pass.
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

/// Runs `batch` with `spec` across `limits.workers` shards under
/// supervision, invoking `on_progress` for every resolved episode.
///
/// `cancel` stops the job cooperatively at episode-step granularity, as
/// does `limits.deadline` expiring; `quarantine` (when given) is shared
/// across jobs to skip seeds that keep panicking.
pub fn run_sharded<F>(
    batch: &BatchConfig,
    spec: &StackSpec,
    limits: JobLimits,
    cancel: &AtomicBool,
    quarantine: Option<&Quarantine>,
    on_progress: F,
) -> JobOutcome
where
    F: FnMut(Progress),
{
    run_sharded_cached(batch, spec, limits, cancel, quarantine, None, on_progress)
}

/// [`run_sharded`] with an optional content-addressed episode cache in
/// front of the shard scheduler.
///
/// Before any worker spawns, every episode's [`CacheKey`] (stack digest ×
/// episode config, see `cv_sim::cache`) is looked up; hits fill their
/// result slots and stream progress immediately — without claiming a
/// worker, and before the cancel flag or deadline is ever consulted, so
/// cached episodes survive a cancellation that stops the rest of the
/// batch. Only the misses go through the work queue. A miss that resolves
/// as [`EpisodeOutcome::Completed`] is inserted on the coordinator thread;
/// failed, panicked, quarantined, and interrupted episodes are never
/// cached. If any key derivation fails (a NaN in the config — a typed
/// `KeyError`), the whole batch bypasses the cache instead of computing a
/// poisoned key.
///
/// The summary's `cache_hits` / `cache_misses` count this job's lookups
/// (both zero when `cache` is `None`); `cache_evictions` is the cache-wide
/// eviction delta observed while the job ran.
pub fn run_sharded_cached<F>(
    batch: &BatchConfig,
    spec: &StackSpec,
    limits: JobLimits,
    cancel: &AtomicBool,
    quarantine: Option<&Quarantine>,
    cache: Option<&EpisodeCache>,
    mut on_progress: F,
) -> JobOutcome
where
    F: FnMut(Progress),
{
    if let Err(e) = batch.validate() {
        return JobOutcome::Failed(e);
    }
    if let Err(e) = limits.mode.validate() {
        return JobOutcome::Failed(e);
    }
    let total = batch.episodes;
    // Flipped by the coordinator on cancel or deadline expiry; checked by
    // the claim loop *and* inside every episode's step loop.
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();

    let mut slots: Vec<Option<EpisodeOutcome>> = Vec::new();
    slots.resize_with(total, || None);
    let done = Cell::new(0usize);
    let mut interrupted = false;
    let mut deadline_hit = false;

    // Content keys, derived once up front. A NaN anywhere in the stack or
    // an episode config is a typed `KeyError`; it disables caching for the
    // whole batch rather than storing under a poisoned key.
    let mut cache = cache;
    let mut keys: Vec<Option<CacheKey>> = vec![None; total];
    if cache.is_some() {
        match stack_digest(spec) {
            Ok(digest) => {
                for (i, key) in keys.iter_mut().enumerate() {
                    match episode_key(digest, &batch.episode(i)) {
                        Ok(k) => *key = Some(k),
                        Err(_) => {
                            cache = None;
                            break;
                        }
                    }
                }
            }
            Err(_) => cache = None,
        }
    }
    let evictions_before = cache.map_or(0, EpisodeCache::evictions);

    // Progress reporting shared by the live path and the rescue pass.
    let mut report = |index: usize, outcome: &EpisodeOutcome| match outcome {
        EpisodeOutcome::Completed(r) => {
            done.set(done.get() + 1);
            let d = done.get();
            let elapsed = t0.elapsed().as_secs_f64();
            on_progress(Progress::Episode(EpisodeProgress {
                index,
                eta: r.eta,
                done: d,
                total,
                eta_secs: elapsed / d as f64 * (total - d) as f64,
            }));
        }
        EpisodeOutcome::Failed { seed, error } => on_progress(Progress::Fault {
            index,
            seed: *seed,
            kind: FaultKind::Failed,
            detail: error.to_string(),
        }),
        EpisodeOutcome::Panicked { seed, payload } => on_progress(Progress::Fault {
            index,
            seed: *seed,
            kind: FaultKind::Panicked,
            detail: payload.clone(),
        }),
        EpisodeOutcome::Skipped {
            seed,
            reason: SkipReason::Quarantined { panics },
        } => on_progress(Progress::Fault {
            index,
            seed: *seed,
            kind: FaultKind::Quarantined,
            detail: format!("{panics} prior panics"),
        }),
        // An episode abandoned by the stop flag is not a fault — it is
        // accounted for in the partial summary's skipped count.
        EpisodeOutcome::Skipped {
            reason: SkipReason::Interrupted,
            ..
        } => {}
    };

    // Cache prefill: hits fill their slots and stream progress before any
    // worker spawns — and before cancel/deadline are consulted, so cached
    // episodes survive a cancellation that stops the rest of the batch.
    let mut persisted_hits = 0usize;
    if let Some(c) = cache {
        for (i, slot) in slots.iter_mut().enumerate() {
            let Some(key) = keys[i] else { continue };
            if let Some((result, persisted)) = c.get_entry(&key) {
                if persisted {
                    persisted_hits += 1;
                }
                let outcome = EpisodeOutcome::Completed(result);
                report(i, &outcome);
                *slot = Some(outcome);
            }
        }
    }
    // Only the misses go through the work queue; workers claim positions in
    // this list, not raw episode indices.
    let pending: Vec<usize> = (0..total).filter(|&i| slots[i].is_none()).collect();
    let cache_hits = total - pending.len();
    let cache_misses = if cache.is_some() { pending.len() } else { 0 };
    let workers = limits.workers.clamp(1, total).min(pending.len().max(1));
    let queue = WorkQueue::new(pending.len());

    // A fully-warm batch needs no workers at all: skipping the thread scope
    // keeps an all-hits run at hash-lookup cost (microseconds, not
    // thread-spawn milliseconds).
    if !pending.is_empty() {
        run_shards(RunShards {
            batch,
            spec,
            limits,
            cancel,
            quarantine,
            cache,
            keys: &keys,
            pending: &pending,
            workers,
            queue: &queue,
            stop: &stop,
            slots: &mut slots,
            interrupted: &mut interrupted,
            deadline_hit: &mut deadline_hit,
            report: &mut report,
        });
    }

    // Shard supervisor: an unfilled slot means a shard died between
    // claiming the index and reporting it. Re-run those inline — the index
    // alone determines the episode, so rescued results are identical to
    // what the dead shard would have produced. The rescue drives each
    // orphan through a one-shot driver of the job's mode, so rescued
    // episodes obey the same numeric contract as the live pass.
    // Cancel/deadline are polled per rescued slot: a rescue can be most of
    // the batch, and it must stay as interruptible as the live pass was.
    if !interrupted {
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            // Breaking with slots still unfilled leaves them counted as
            // skipped, which forces the partial (non-Completed) outcome.
            if cancel.load(Ordering::Relaxed) {
                break;
            }
            if limits.deadline.is_some_and(|d| Instant::now() >= d) {
                deadline_hit = true;
                break;
            }
            let mut got: Option<EpisodeOutcome> = None;
            let mut once = Some(i);
            let mut emit = |_, o| got = Some(o);
            drive_worker(
                &mut || once.take(),
                batch,
                spec,
                limits.mode,
                quarantine,
                None,
                &mut emit,
            );
            let outcome = got.expect("the driver emits one outcome per claimed index");
            if let (Some(c), EpisodeOutcome::Completed(r), Some(key)) = (cache, &outcome, keys[i]) {
                c.insert(key, r.clone(), episode_weight(r));
            }
            report(i, &outcome);
            *slot = Some(outcome);
        }
    }

    // A stop that landed after the last episode resolved still yields the
    // complete (deterministic) summary.
    let fully_resolved = slots.iter().all(|s| {
        s.as_ref().is_some_and(|o| {
            !matches!(
                o,
                EpisodeOutcome::Skipped {
                    reason: SkipReason::Interrupted,
                    ..
                }
            )
        })
    });
    let outcomes: Vec<EpisodeOutcome> = slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            s.unwrap_or(EpisodeOutcome::Skipped {
                seed: batch.base_seed.wrapping_add(i as u64),
                reason: SkipReason::Interrupted,
            })
        })
        .collect();
    let mut summary = BatchReport { outcomes }.summary().with_timing(t0.elapsed());
    summary.lanes = limits.mode.lanes_for(spec);
    if let Some(c) = cache {
        summary.cache_hits = cache_hits;
        summary.cache_misses = cache_misses;
        summary.cache_evictions = usize::try_from(c.evictions() - evictions_before).unwrap_or(0);
        summary.cache_persisted_hits = persisted_hits;
    }
    let done = done.get();

    if fully_resolved {
        JobOutcome::Completed(summary)
    } else if deadline_hit {
        JobOutcome::DeadlineExceeded {
            done,
            partial: summary,
        }
    } else {
        JobOutcome::Cancelled {
            done,
            partial: summary,
        }
    }
}

/// Borrowed state for the live shard pass, bundled so [`run_sharded_cached`]
/// can hand the whole thing to [`run_shards`] in one move.
struct RunShards<'a, 'f> {
    batch: &'a BatchConfig,
    spec: &'a StackSpec,
    limits: JobLimits,
    cancel: &'a AtomicBool,
    quarantine: Option<&'a Quarantine>,
    cache: Option<&'a EpisodeCache>,
    keys: &'a [Option<CacheKey>],
    pending: &'a [usize],
    workers: usize,
    queue: &'a WorkQueue,
    stop: &'a AtomicBool,
    slots: &'a mut Vec<Option<EpisodeOutcome>>,
    interrupted: &'a mut bool,
    deadline_hit: &'a mut bool,
    report: &'a mut (dyn FnMut(usize, &EpisodeOutcome) + 'f),
}

/// The live pass: spawn the shard workers, pump the rendezvous channel,
/// poll cancel/deadline, insert completed misses into the cache.
fn run_shards(ctx: RunShards<'_, '_>) {
    let RunShards {
        batch,
        spec,
        limits,
        cancel,
        quarantine,
        cache,
        keys,
        pending,
        workers,
        queue,
        stop,
        slots,
        interrupted,
        deadline_hit,
        report,
    } = ctx;
    std::thread::scope(|scope| {
        // Rendezvous handoff: a worker's send completes only when the
        // coordinator receives, so workers observe a stop flag flipped by
        // the coordinator within one episode, instead of racing an
        // arbitrarily deep buffer ahead of it.
        let (tx, rx) = mpsc::sync_channel::<(usize, EpisodeOutcome)>(0);
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let tx = tx.clone();
                let spec = spec.clone();
                let stop = &stop;
                let queue = &queue;
                let pending = &pending;
                scope.spawn(move || {
                    // Silence the unused-binding warning in default builds,
                    // where the kill hook below is compiled out.
                    let _ = w;
                    // The claim closure observes cancel/stop, so a stopping
                    // job drains its lanes instead of refilling them, and a
                    // dead coordinator (send error) stops claims too. A
                    // shard can observe `cancel` before the coordinator's
                    // own poll does; the rescue pass re-polls `cancel`
                    // before touching any unfilled slot, so that ordering
                    // cannot resurrect the job.
                    let dead = Cell::new(false);
                    let mut claim = || {
                        if dead.get()
                            || cancel.load(Ordering::Relaxed)
                            || stop.load(Ordering::Relaxed)
                        {
                            return None;
                        }
                        let i = pending[queue.claim()?];
                        #[cfg(feature = "fault-injection")]
                        if limits.kill_worker == Some(w) {
                            // Die holding claimed-but-unreported index `i`:
                            // the rescue pass must pick it up.
                            dead.set(true);
                            return None;
                        }
                        Some(i)
                    };
                    let mut emit = |i: usize, outcome: EpisodeOutcome| {
                        if tx.send((i, outcome)).is_err() {
                            dead.set(true);
                        }
                    };
                    drive_worker(
                        &mut claim,
                        batch,
                        &spec,
                        limits.mode,
                        quarantine,
                        Some(stop),
                        &mut emit,
                    );
                })
            })
            .collect();
        drop(tx);

        loop {
            // Poll interrupts first so a pre-set cancel flag or an
            // already-expired deadline stops the job before more work is
            // accepted.
            if !*interrupted {
                if cancel.load(Ordering::Relaxed) {
                    *interrupted = true;
                    stop.store(true, Ordering::Relaxed);
                } else if limits.deadline.is_some_and(|d| Instant::now() >= d) {
                    *interrupted = true;
                    *deadline_hit = true;
                    stop.store(true, Ordering::Relaxed);
                }
            }
            let poll = match limits.deadline {
                Some(d) => d
                    .saturating_duration_since(Instant::now())
                    .clamp(Duration::from_millis(1), COORDINATOR_POLL),
                None => COORDINATOR_POLL,
            };
            match rx.recv_timeout(poll) {
                Ok((index, outcome)) => {
                    // Inserts happen only here and in the rescue pass —
                    // both on this coordinator thread — and only for
                    // episodes that actually completed.
                    if let (Some(c), EpisodeOutcome::Completed(r), Some(key)) =
                        (cache, &outcome, keys[index])
                    {
                        c.insert(key, r.clone(), episode_weight(r));
                    }
                    report(index, &outcome);
                    slots[index] = Some(outcome);
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }

        // Join explicitly and swallow shard panics: one dead shard must not
        // poison the scope — its unreported episodes are rescued by the
        // caller's supervisor pass.
        for handle in handles {
            let _ = handle.join();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_dynamics::VehicleLimits;
    use cv_nn::{Activation, Mlp, LANE_WIDTH};
    use cv_planner::{FeatureScaling, NnPlanner};
    use cv_sim::{run_batch, run_batch_lanes, EpisodeConfig};

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
            let outcome = run_sharded(&batch, &spec, JobLimits::new(workers), &cancel, None, |p| {
                if let Progress::Episode(p) = p {
                    seen.push(p.index)
                }
            });
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
            let outcome = run_sharded(&batch, &spec, limits, &cancel, None, |p| {
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
        let outcome = run_sharded(&batch, &spec, limits, &cancel, None, |_| {});
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
        let outcome = run_sharded(&batch, &spec, limits, &cancel, None, |_| {});
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
            let outcome =
                run_sharded_cached(&batch, &spec, limits, &cancel, None, Some(&cache), |_| {});
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
            let outcome = run_sharded_cached(
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
        let outcome = run_sharded(&batch, &spec, JobLimits::new(2), &cancel, None, |_| {});
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
        let outcome = run_sharded_cached(
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
        let outcome = run_sharded(&batch, &spec, JobLimits::new(2), &cancel, None, |p| {
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
        let outcome = run_sharded(&batch, &spec, JobLimits::new(2), &cancel, None, |_| {});
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
        let outcome = run_sharded(&batch, &spec, JobLimits::new(1), &cancel, None, |p| {
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
        let outcome = run_sharded(&batch, &spec, limits, &cancel, None, |_| {});
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
        let outcome = run_sharded(&batch, &spec, JobLimits::new(2), &cancel, None, |_| {});
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
        let outcome = run_sharded(&batch, &spec, JobLimits::new(2), &cancel, None, |p| {
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
                let outcome = run_sharded(&batch, &spec, limits, &cancel, None, |p| {
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
            let outcome = run_sharded(&batch, &faulty, JobLimits::new(3), &cancel, None, |p| {
                if let Progress::Fault { index, kind, .. } = p {
                    faults.push((index, kind));
                }
            });
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
