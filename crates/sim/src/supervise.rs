//! Supervised (fault-isolated) batch execution: the typed outcomes.
//!
//! The strict batch path ([`crate::run_batch`]) is all-or-nothing: one
//! panicking planner or one invalid episode poisons the whole batch. The
//! worker driver ([`crate::drive_worker`], behind [`crate::run_batch_lanes`]
//! and the cv-server shards) instead wraps every episode in
//! [`std::panic::catch_unwind`] and maps each one to a typed
//! [`EpisodeOutcome`], so a batch degrades the way the paper's planner does
//! under disturbance — bounded, typed, partial:
//!
//! * a panic is contained to its episode ([`EpisodeOutcome::Panicked`]); the
//!   worker rebuilds that episode's [`crate::EpisodeWorkspace`] from the
//!   spec and continues,
//! * a typed simulation error is contained to its episode
//!   ([`EpisodeOutcome::Failed`]),
//! * seeds that keep panicking are quarantined after a configurable budget
//!   ([`Quarantine`]) instead of being retried forever,
//! * an interrupt flag (cancellation, deadline expiry) stops the batch at
//!   episode-*step* granularity; episodes not yet resolved come back as
//!   [`EpisodeOutcome::Skipped`].
//!
//! The invariant that makes partial results trustworthy: **episodes that
//! complete under supervision are bit-identical to a clean run** of the same
//! seeds. Supervision never changes what an episode computes — only what
//! happens to the batch around it when an episode dies.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::metrics::summarise;
use crate::{BatchSummary, EpisodeResult, SimError};

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

    /// The seed of the episode this outcome describes (the completed
    /// variant carries the result, not the seed, so it is not recoverable
    /// here).
    pub fn seed(&self) -> Option<u64> {
        match self {
            EpisodeOutcome::Completed(_) => None,
            EpisodeOutcome::Failed { seed, .. }
            | EpisodeOutcome::Panicked { seed, .. }
            | EpisodeOutcome::Skipped { seed, .. } => Some(*seed),
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

/// Everything a supervised batch run observed, in episode-index order.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// One outcome per requested episode, index-aligned with the batch.
    pub outcomes: Vec<EpisodeOutcome>,
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
