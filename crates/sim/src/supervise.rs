//! Supervised (fault-isolated) batch execution: the one supervised entry
//! point [`run_batch_with`], its [`BatchControl`], and the typed outcomes.
//!
//! The strict batch path ([`crate::run_batch`]) is all-or-nothing: one
//! panicking planner or one invalid episode poisons the whole batch. The
//! worker driver behind [`run_batch_with`] (and so behind
//! [`crate::run_batch_lanes`] and the cv-server job runner) instead wraps
//! every episode in [`std::panic::catch_unwind`] and maps each one to a
//! typed [`EpisodeOutcome`], so a batch degrades the way the paper's
//! planner does under disturbance — bounded, typed, partial:
//!
//! * a panic is contained to its episode ([`EpisodeOutcome::Panicked`]); the
//!   worker rebuilds that episode's [`crate::EpisodeWorkspace`] from the
//!   spec and continues,
//! * a typed simulation error is contained to its episode
//!   ([`EpisodeOutcome::Failed`]),
//! * seeds that keep panicking are quarantined after a configurable budget
//!   ([`Quarantine`]) instead of being retried forever,
//! * an interrupt flag (cancellation) or a deadline stops the batch at
//!   episode-*step* granularity; episodes not yet resolved come back as
//!   [`EpisodeOutcome::Skipped`],
//! * an optional [`EpisodeCache`] answers hits before any worker spawns
//!   and stores every completed miss.
//!
//! The invariant that makes partial results trustworthy: **episodes that
//! complete under supervision are bit-identical to a clean run** of the same
//! seeds. Supervision never changes what an episode computes — only what
//! happens to the batch around it when an episode dies.

use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;
use std::time::Instant;

use crate::lanes::drive_worker;
use crate::metrics::summarise;
use crate::scheduler::fan_out;
use crate::{
    episode_key, episode_weight, stack_digest, BatchConfig, BatchMode, BatchSummary, EpisodeCache,
    EpisodeResult, SimError, StackSpec,
};

/// Why an episode was skipped without producing a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SkipReason {
    /// The seed exhausted its [`Quarantine`] panic budget before this run.
    Quarantined {
        /// Panics recorded against the seed when it was skipped.
        panics: u32,
    },
    /// The batch was interrupted (cancellation or deadline expiry) before
    /// this episode resolved.
    Interrupted,
}

/// Terminal state of one episode under supervision.
#[derive(Debug, Clone, PartialEq)]
pub enum EpisodeOutcome {
    /// The episode ran to its ground-truth outcome; bit-identical to a
    /// clean (unsupervised) run of the same seed.
    Completed(EpisodeResult),
    /// The episode returned a typed simulation error.
    Failed {
        /// The episode seed.
        seed: u64,
        /// The error it returned.
        error: SimError,
    },
    /// The episode's planner panicked; the panic was contained to this
    /// episode and the worker's workspace was rebuilt.
    Panicked {
        /// The episode seed.
        seed: u64,
        /// The panic payload, stringified.
        payload: String,
    },
    /// The episode never ran (or was abandoned mid-flight by an interrupt).
    Skipped {
        /// The episode seed.
        seed: u64,
        /// Why it was skipped.
        reason: SkipReason,
    },
}

impl EpisodeOutcome {
    /// The episode's result, when it completed.
    pub fn completed(&self) -> Option<&EpisodeResult> {
        match self {
            EpisodeOutcome::Completed(r) => Some(r),
            _ => None,
        }
    }
}

/// Repeat-offender tracker: a seed that panics [`Quarantine::budget`] times
/// is skipped (with [`SkipReason::Quarantined`]) instead of being run again.
///
/// Shared across jobs by reference; all methods take `&self`.
#[derive(Debug)]
pub struct Quarantine {
    budget: u32,
    counts: Mutex<HashMap<u64, u32>>,
}

impl Quarantine {
    /// A quarantine allowing `budget` panics per seed (minimum 1) before
    /// skipping it.
    pub fn new(budget: u32) -> Self {
        Quarantine {
            budget: budget.max(1),
            counts: Mutex::new(HashMap::new()),
        }
    }

    /// The configured per-seed panic budget.
    pub fn budget(&self) -> u32 {
        self.budget
    }

    /// Records one panic against `seed`, returning the updated count.
    pub fn record_panic(&self, seed: u64) -> u32 {
        let mut counts = self.counts.lock().expect("quarantine poisoned");
        let n = counts.entry(seed).or_insert(0);
        *n += 1;
        *n
    }

    /// Panics recorded against `seed` so far.
    pub fn panics(&self, seed: u64) -> u32 {
        self.counts
            .lock()
            .expect("quarantine poisoned")
            .get(&seed)
            .copied()
            .unwrap_or(0)
    }

    /// `Some(count)` when `seed` has exhausted its budget and must be
    /// skipped.
    pub fn is_quarantined(&self, seed: u64) -> Option<u32> {
        let n = self.panics(seed);
        (n >= self.budget).then_some(n)
    }
}

/// A per-index callback that may be called from any worker thread, one call
/// at a time.
pub type Observer<'a, T> = &'a mut (dyn FnMut(usize, &T) + Send);

/// Everything a caller attaches to a supervised batch besides the batch
/// itself ([`run_batch_with`]). The default is the empty control of
/// [`crate::run_batch`].
#[derive(Default)]
pub struct BatchControl<'a> {
    /// Skips seeds that keep panicking; updated on each contained panic.
    pub quarantine: Option<&'a Quarantine>,
    /// Stops the batch at episode-step granularity when set.
    pub interrupt: Option<&'a AtomicBool>,
    /// Stops the batch at episode-step granularity when it passes.
    pub deadline: Option<Instant>,
    /// Looked up for every episode before any worker claims one; every
    /// completed miss is inserted once the workers have joined.
    pub cache: Option<&'a EpisodeCache>,
    /// Hears every episode's outcome where it resolves (cache hits first),
    /// one call at a time.
    pub observer: Option<Observer<'a, EpisodeOutcome>>,
    /// Test hook: worker `w` stops right after its next claim, leaving a
    /// claimed-but-unreported episode for the rescue pass.
    #[cfg(feature = "fault-injection")]
    pub kill_worker: Option<usize>,
}

/// Everything a supervised batch run observed, in episode-index order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchReport {
    /// One outcome per requested episode, index-aligned with the batch.
    pub outcomes: Vec<EpisodeOutcome>,
    /// Whether the deadline stopped the batch before it resolved.
    pub deadline_hit: bool,
    /// Episodes answered from the cache.
    pub cache_hits: usize,
    /// Episodes looked up in the cache and missed (`0` when uncached).
    pub cache_misses: usize,
    /// Of `cache_hits`, those served by entries reloaded from disk.
    pub cache_persisted_hits: usize,
    /// Entries the cache evicted while the batch ran.
    pub cache_evictions: usize,
}

impl BatchReport {
    /// Episodes that completed.
    pub fn completed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.completed().is_some())
            .count()
    }

    /// Aggregate statistics over the *completed* episodes, with the fault
    /// counts filled in. Empty-safe: a report with zero completed episodes
    /// yields `NaN` means, never a panic.
    pub fn summary(&self) -> BatchSummary {
        let mut summary = summarise(self.outcomes.iter().filter_map(|o| o.completed()));
        summary.requested = self.outcomes.len();
        summary.cache_hits = self.cache_hits;
        summary.cache_misses = self.cache_misses;
        summary.cache_persisted_hits = self.cache_persisted_hits;
        summary.cache_evictions = self.cache_evictions;
        for outcome in &self.outcomes {
            match outcome {
                EpisodeOutcome::Completed(_) => {}
                EpisodeOutcome::Failed { .. } => summary.failed += 1,
                EpisodeOutcome::Panicked { .. } => summary.panicked += 1,
                EpisodeOutcome::Skipped { .. } => summary.skipped += 1,
            }
        }
        summary
    }

    /// Collapses the report back to the strict all-or-nothing contract of
    /// [`crate::run_batch`]: the completed results in index order, the
    /// first per-episode error, or — for a panicked episode — the original
    /// panic re-raised.
    ///
    /// # Errors
    ///
    /// The first [`EpisodeOutcome::Failed`] error, in index order.
    ///
    /// # Panics
    ///
    /// Re-raises the first contained panic, and panics on a skipped episode
    /// (a report produced without quarantine or interrupts never has one).
    pub fn into_results(self) -> Result<Vec<EpisodeResult>, SimError> {
        let mut results = Vec::with_capacity(self.outcomes.len());
        for outcome in self.outcomes {
            match outcome {
                EpisodeOutcome::Completed(r) => results.push(r),
                EpisodeOutcome::Failed { error, .. } => return Err(error),
                EpisodeOutcome::Panicked { seed, payload } => {
                    panic!("episode seed {seed} panicked: {payload}")
                }
                EpisodeOutcome::Skipped { seed, reason } => {
                    panic!("episode seed {seed} skipped in a strict batch: {reason:?}")
                }
            }
        }
        Ok(results)
    }
}

/// Runs every episode of `batch` under supervision in `mode`: the one
/// supervised batch entry point, with `control` attaching the quarantine,
/// the interrupt, the deadline, the cache and the observer. Every episode
/// yields a typed [`EpisodeOutcome`], and episodes rescued from a dead
/// worker obey the same numeric contract as the rest. If any cache key
/// cannot be derived (a NaN in the stack or a config, a typed `KeyError`),
/// the whole batch bypasses the cache instead of storing under a poisoned
/// key; only completed episodes are inserted.
///
/// # Errors
///
/// [`SimError::InvalidBatch`] for an unrunnable batch configuration or a
/// lane count outside `1..=`[`cv_nn::LANE_WIDTH`]; per-episode faults are
/// reported in the [`BatchReport`], never as an error.
pub fn run_batch_with(
    batch: &BatchConfig,
    spec: &StackSpec,
    mode: BatchMode,
    mut control: BatchControl<'_>,
) -> Result<BatchReport, SimError> {
    batch.validate()?;
    mode.validate()?;
    let mut observer = control.observer.take();
    let mut report = BatchReport::default();
    let mut slots: Vec<Option<EpisodeOutcome>> = vec![None; batch.episodes];

    let cache = control.cache.and_then(|c| {
        let digest = stack_digest(spec).ok()?;
        let keys = (0..batch.episodes)
            .map(|i| episode_key(digest, &batch.episode(i)))
            .collect::<Result<Vec<_>, _>>()
            .ok()?;
        Some((c, keys))
    });
    let evictions_before = cache.as_ref().map_or(0, |(c, _)| c.evictions());
    // Hits stream before any worker spawns, and before the interrupt or the
    // deadline is consulted, so they survive a cancel.
    let mut misses = Vec::new();
    if let Some((c, keys)) = &cache {
        for (i, slot) in slots.iter_mut().enumerate() {
            let Some((result, persisted)) = c.get_entry(&keys[i]) else {
                misses.push(i);
                continue;
            };
            report.cache_hits += 1;
            report.cache_persisted_hits += usize::from(persisted);
            let outcome = EpisodeOutcome::Completed(result);
            if let Some(f) = observer.as_mut() {
                f(i, &outcome);
            }
            *slot = Some(outcome);
        }
        report.cache_misses = misses.len();
    }

    let workers = batch.worker_count();
    report.deadline_hit = fan_out(
        &mut slots,
        workers,
        &control,
        observer,
        |claim, emit, stop| {
            drive_worker(claim, batch, spec, mode, control.quarantine, stop, emit);
        },
    );
    // Completed misses are inserted once the workers have joined: workers
    // never contend on the cache, and one thread allocates its entries.
    if let Some((c, keys)) = &cache {
        for &i in &misses {
            if let Some(EpisodeOutcome::Completed(r)) = &slots[i] {
                c.insert(keys[i], r.clone(), episode_weight(r));
            }
        }
        report.cache_evictions = usize::try_from(c.evictions() - evictions_before).unwrap_or(0);
    }
    report.outcomes = slots
        .into_iter()
        .map(|s| s.expect("the fan-out fills every slot"))
        .collect();
    Ok(report)
}

pub(crate) fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_batch_lanes, BatchConfig, BatchMode, EpisodeConfig, StackSpec};
    use std::sync::atomic::AtomicBool;

    fn small_batch(seed: u64, episodes: usize) -> BatchConfig {
        BatchConfig::new(EpisodeConfig::paper_default(seed), episodes)
    }

    #[test]
    fn clean_supervised_run_matches_strict_run_batch() {
        let batch = small_batch(5, 6);
        let spec = StackSpec::pure_teacher_conservative(&batch.template).unwrap();
        let strict = crate::run_batch(&batch, &spec).unwrap();
        let report = run_batch_lanes(&batch, &spec, BatchMode::PerEpisode, None, None).unwrap();
        assert_eq!(report.completed(), 6);
        let supervised = report.into_results().unwrap();
        assert_eq!(strict, supervised, "supervision changed episode results");
    }

    #[test]
    fn summary_counts_and_is_empty_safe() {
        let report = BatchReport {
            outcomes: vec![
                EpisodeOutcome::Skipped {
                    seed: 1,
                    reason: SkipReason::Interrupted,
                },
                EpisodeOutcome::Failed {
                    seed: 2,
                    error: SimError::InvalidBatch {
                        reason: "synthetic".into(),
                    },
                },
                EpisodeOutcome::Panicked {
                    seed: 3,
                    payload: "boom".into(),
                },
            ],
            ..BatchReport::default()
        };
        let s = report.summary();
        assert_eq!(
            (s.requested, s.episodes, s.failed, s.panicked, s.skipped),
            (3, 0, 1, 1, 1)
        );
        assert!(s.eta_mean.is_nan(), "no completed episodes → NaN mean");
        assert!(s.etas.is_empty());
    }

    #[test]
    fn per_episode_scenario_error_is_contained() {
        // One unreachable start position fails its episodes; supervision
        // reports them per-episode instead of aborting the batch.
        let mut batch = small_batch(3, 4);
        batch.starts = vec![batch.starts[0], 10.0];
        let spec = StackSpec::pure_teacher_conservative(&batch.template).unwrap();
        let report = run_batch_lanes(&batch, &spec, BatchMode::PerEpisode, None, None).unwrap();
        let s = report.summary();
        assert_eq!((s.requested, s.episodes, s.failed), (4, 2, 2));
        assert!(matches!(
            &report.outcomes[1],
            EpisodeOutcome::Failed {
                error: SimError::Scenario(_),
                ..
            }
        ));
    }

    #[test]
    fn quarantine_counts_and_trips_at_budget() {
        let q = Quarantine::new(2);
        assert_eq!(q.budget(), 2);
        assert_eq!(q.is_quarantined(7), None);
        assert_eq!(q.record_panic(7), 1);
        assert_eq!(q.is_quarantined(7), None, "one panic is under budget");
        assert_eq!(q.record_panic(7), 2);
        assert_eq!(q.is_quarantined(7), Some(2));
        assert_eq!(q.is_quarantined(8), None, "other seeds unaffected");
        assert_eq!(Quarantine::new(0).budget(), 1, "budget floor is one");
    }

    #[test]
    fn interrupt_set_up_front_skips_every_episode() {
        let batch = small_batch(1, 4);
        let spec = StackSpec::pure_teacher_conservative(&batch.template).unwrap();
        let stop = AtomicBool::new(true);
        let report =
            run_batch_lanes(&batch, &spec, BatchMode::PerEpisode, None, Some(&stop)).unwrap();
        assert_eq!(report.completed(), 0);
        assert!(report.outcomes.iter().all(|o| matches!(
            o,
            EpisodeOutcome::Skipped {
                reason: SkipReason::Interrupted,
                ..
            }
        )));
        let s = report.summary();
        assert_eq!((s.requested, s.skipped), (4, 4));
    }

    #[cfg(feature = "fault-injection")]
    mod fault_injection {
        use super::*;

        #[test]
        fn panicking_seed_is_isolated_and_survivors_are_bit_identical() {
            let batch = small_batch(40, 8);
            let spec = StackSpec::pure_teacher_conservative(&batch.template).unwrap();
            let clean = crate::run_batch(&batch, &spec).unwrap();

            // Panic on episodes 2 and 5 (seed = base_seed + index).
            let seeds = vec![batch.base_seed + 2, batch.base_seed + 5];
            let faulty = StackSpec::panic_injection(&batch.template, seeds).unwrap();
            let report =
                run_batch_lanes(&batch, &faulty, BatchMode::PerEpisode, None, None).unwrap();
            let s = report.summary();
            assert_eq!((s.requested, s.episodes, s.panicked), (8, 6, 2));
            for (i, outcome) in report.outcomes.iter().enumerate() {
                match outcome {
                    EpisodeOutcome::Panicked { seed, payload } => {
                        assert!(i == 2 || i == 5, "unexpected panic at index {i}");
                        assert_eq!(*seed, batch.base_seed + i as u64);
                        assert!(payload.contains("injected planner fault"));
                    }
                    EpisodeOutcome::Completed(r) => {
                        // The survivor is bit-identical to the clean run —
                        // the workspace rebuild after a panic is invisible.
                        assert_eq!(r, &clean[i], "index {i} diverged");
                        assert_eq!(r.eta.to_bits(), clean[i].eta.to_bits());
                    }
                    other => panic!("unexpected outcome at index {i}: {other:?}"),
                }
            }

            // Same-seed rerun is byte-identical, including the faults.
            let rerun =
                run_batch_lanes(&batch, &faulty, BatchMode::PerEpisode, None, None).unwrap();
            assert_eq!(report, rerun);
        }

        #[test]
        fn quarantine_skips_repeat_offenders_across_runs() {
            let batch = small_batch(60, 4);
            let seeds = vec![batch.base_seed];
            let faulty = StackSpec::panic_injection(&batch.template, seeds).unwrap();
            let q = Quarantine::new(2);
            for run in 0..2 {
                let report =
                    run_batch_lanes(&batch, &faulty, BatchMode::PerEpisode, Some(&q), None)
                        .unwrap();
                let s = report.summary();
                assert_eq!((s.panicked, s.skipped), (1, 0), "run {run}");
            }
            // Budget exhausted: the seed is now skipped, not retried.
            let report =
                run_batch_lanes(&batch, &faulty, BatchMode::PerEpisode, Some(&q), None).unwrap();
            assert!(matches!(
                &report.outcomes[0],
                EpisodeOutcome::Skipped {
                    reason: SkipReason::Quarantined { panics: 2 },
                    ..
                }
            ));
            let s = report.summary();
            assert_eq!((s.episodes, s.panicked, s.skipped), (3, 0, 1));
        }
    }
}
