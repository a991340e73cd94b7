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

    /// Whether a cancel or the deadline left an episode unresolved. A stop
    /// that landed after the last episode resolved interrupted nothing: the
    /// batch is complete.
    pub fn interrupted(&self) -> bool {
        self.outcomes.iter().any(|o| {
            matches!(
                o,
                EpisodeOutcome::Skipped {
                    reason: SkipReason::Interrupted,
                    ..
                }
            )
        })
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
    use crate::{
        run_batch, run_batch_lanes, BatchConfig, BatchMode, EpisodeConfig, PlatoonSpec, StackSpec,
    };
    use cv_comm::CommSetting;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    fn small_batch(seed: u64, episodes: usize) -> BatchConfig {
        BatchConfig::new(EpisodeConfig::paper_default(seed), episodes)
    }

    fn teacher_batch(seed: u64, episodes: usize) -> (BatchConfig, StackSpec) {
        let batch = small_batch(seed, episodes);
        let spec = StackSpec::pure_teacher_conservative(&batch.template).unwrap();
        (batch, spec)
    }

    fn nn_batch(episodes: usize) -> (BatchConfig, StackSpec) {
        use cv_nn::{Activation, Mlp};
        use cv_planner::{FeatureScaling, NnPlanner};
        let net = Mlp::new(&[5, 16, 1], Activation::Tanh, Activation::Tanh, 3).unwrap();
        let limits = cv_dynamics::VehicleLimits::new(0.0, 12.0, -6.0, 3.0).unwrap();
        let planner = NnPlanner::new(net, limits, FeatureScaling::left_turn(), "supervise-test");
        (small_batch(11, episodes), StackSpec::basic(planner))
    }

    /// `batch` on `workers` workers in `mode` under `control`.
    fn run_on(
        batch: &BatchConfig,
        spec: &StackSpec,
        workers: usize,
        mode: BatchMode,
        control: BatchControl<'_>,
    ) -> BatchReport {
        let batch = BatchConfig {
            threads: workers,
            ..batch.clone()
        };
        run_batch_with(&batch, spec, mode, control).unwrap()
    }

    /// The summary of an uninterrupted per-episode run through `cache`.
    fn cached(
        batch: &BatchConfig,
        spec: &StackSpec,
        workers: usize,
        cache: &EpisodeCache,
    ) -> BatchSummary {
        let control = BatchControl {
            cache: Some(cache),
            ..BatchControl::default()
        };
        let report = run_on(batch, spec, workers, BatchMode::EventDriven, control);
        assert!(!report.interrupted(), "nothing stops an uncontrolled run");
        report.summary()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Every floating-point field compared by `to_bits`: `assert_eq!` on
    /// the f64s would let `-0.0 == 0.0` and NaN mismatches slip through.
    fn assert_bit_identical(cold: &BatchSummary, warm: &BatchSummary, context: &str) {
        let counts = |s: &BatchSummary| (s.episodes, s.requested, s.failed, s.panicked, s.skipped);
        assert_eq!(counts(cold), counts(warm), "{context}: episode counts");
        for (name, a, b) in [
            ("reaching_time", cold.reaching_time, warm.reaching_time),
            ("safe_rate", cold.safe_rate, warm.safe_rate),
            ("eta_mean", cold.eta_mean, warm.eta_mean),
            (
                "emergency_frequency",
                cold.emergency_frequency,
                warm.emergency_frequency,
            ),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "{context}: {name} diverged");
        }
        assert_eq!(bits(&cold.etas), bits(&warm.etas), "{context}: etas");
        assert_eq!(
            bits(&cold.reaching_times),
            bits(&warm.reaching_times),
            "{context}: reaching times"
        );
    }

    #[test]
    fn clean_supervised_run_matches_strict_run_batch() {
        let batch = small_batch(5, 6);
        let spec = StackSpec::pure_teacher_conservative(&batch.template).unwrap();
        let strict = crate::run_batch(&batch, &spec).unwrap();
        let report = run_batch_lanes(&batch, &spec, BatchMode::EventDriven, None, None).unwrap();
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
        let report = run_batch_lanes(&batch, &spec, BatchMode::EventDriven, None, None).unwrap();
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
    fn out_of_range_templates_are_refused_before_they_can_poison_the_quarantine() {
        // Each of these used to panic every worker in a channel, sensor or
        // noise constructor, and the panics were charged to the episodes'
        // seeds: with a budget of 1, a later valid batch on the same seeds
        // came back all `Skipped { Quarantined }`.
        fn delayed(delay: f64, drop_prob: f64) -> cv_comm::CommSetting {
            cv_comm::CommSetting::Delayed { delay, drop_prob }
        }
        let q = Quarantine::new(1);
        let control = || BatchControl {
            quarantine: Some(&q),
            ..BatchControl::default()
        };
        let (valid, spec) = teacher_batch(0, 4);
        type Poison = fn(&mut EpisodeConfig);
        let poisons: [(&str, Poison); 14] = [
            ("comm.delay", |c| c.comm = delayed(-1.0, 0.0)),
            ("comm.delay", |c| c.comm = delayed(f64::INFINITY, 0.0)),
            ("comm.drop_prob", |c| c.comm = delayed(0.25, 1.5)),
            ("others[1].comm.drop_prob", |c| {
                let extra = crate::OtherVehicle::new(62.0, 10.0, crate::DriverModel::ConstantSpeed);
                c.others.push(extra.with_comm(delayed(0.25, f64::NAN)));
            }),
            ("noise.delta_v", |c| c.noise.delta_v = -0.5),
            ("noise.delta_p", |c| c.noise.delta_p = f64::INFINITY),
            ("sensor_dropout", |c| c.sensor_dropout = f64::NAN),
            ("sensor_dropout", |c| c.sensor_dropout = 1.5),
            ("dt_m", |c| c.dt_m = -1.0),
            ("dt_m", |c| c.dt_m = f64::NAN),
            ("dt_s", |c| c.dt_s = 0.0),
            ("dt_s", |c| c.dt_s = f64::INFINITY),
            ("horizon", |c| c.horizon = -5.0),
            ("horizon", |c| c.horizon = f64::INFINITY),
        ];
        for (field, poison) in poisons {
            let mut bad = valid.clone();
            poison(&mut bad.template);
            match run_batch_with(&bad, &spec, BatchMode::EventDriven, control()) {
                Err(SimError::InvalidBatch { reason }) => {
                    assert!(reason.starts_with(field), "{field}: {reason}")
                }
                Err(other) => panic!("{field}: wrong error {other}"),
                Ok(report) => panic!("{field} was admitted: {:?}", report.outcomes),
            }
        }
        let report = run_batch_with(&valid, &spec, BatchMode::EventDriven, control()).unwrap();
        assert_eq!(report.completed(), 4, "{:?}", report.outcomes);
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
            run_batch_lanes(&batch, &spec, BatchMode::EventDriven, None, Some(&stop)).unwrap();
        assert_eq!(report.completed(), 0);
        assert!(report.interrupted() && !report.deadline_hit);
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

    #[test]
    fn any_worker_count_matches_run_batch() {
        let mut template = EpisodeConfig::paper_default(19);
        template.comm = CommSetting::Delayed {
            delay: 0.25,
            drop_prob: 0.5,
        };
        let spec = StackSpec::pure_teacher_aggressive(&template).unwrap();
        let platoon = PlatoonSpec::paper_default(4, 19).unwrap().episode();
        let platoon_spec = StackSpec::pure_teacher_conservative(&platoon).unwrap();
        for (template, spec) in [(template, spec), (platoon, platoon_spec)] {
            let batch = BatchConfig::new(template, 10);
            let reference = BatchSummary::from_results(&run_batch(&batch, &spec).unwrap());
            for workers in [1, 3, 10] {
                let mut seen = Vec::new();
                let mut observer = |i: usize, o: &EpisodeOutcome| {
                    assert!(o.completed().is_some(), "{o:?}");
                    seen.push(i);
                };
                let control = BatchControl {
                    observer: Some(&mut observer),
                    ..BatchControl::default()
                };
                let report = run_on(&batch, &spec, workers, BatchMode::EventDriven, control);
                assert!(!report.interrupted());
                let summary = report.summary();
                assert!(summary.stats_eq(&reference), "{workers} workers");
                assert_eq!((summary.requested, summary.episodes), (10, 10));
                seen.sort_unstable();
                assert_eq!(seen, (0..10).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn lane_batches_are_bit_identical_at_any_worker_count() {
        // Lanes claim from the cache-miss list, not the batch index order;
        // same K must still mean bit-identical results on any worker count.
        let (batch, spec) = nn_batch(12);
        let reference = run_batch_lanes(&batch, &spec, BatchMode::Lanes(4), None, None)
            .unwrap()
            .summary();
        for workers in [1, 3] {
            let mut seen = Vec::new();
            let mut observer = |i: usize, _: &EpisodeOutcome| seen.push(i);
            let control = BatchControl {
                observer: Some(&mut observer),
                ..BatchControl::default()
            };
            let summary = run_on(&batch, &spec, workers, BatchMode::Lanes(4), control).summary();
            assert!(summary.stats_eq(&reference), "{workers} workers diverged");
            assert_eq!(bits(&summary.etas), bits(&reference.etas));
            seen.sort_unstable();
            assert_eq!(seen, (0..12).collect::<Vec<_>>());
        }
    }

    #[test]
    fn invalid_batches_and_lane_counts_fail_typed() {
        let (batch, spec) = nn_batch(4);
        let lanes = BatchMode::Lanes(cv_nn::LANE_WIDTH + 1);
        let err = run_batch_with(&batch, &spec, lanes, BatchControl::default());
        assert!(matches!(err, Err(SimError::InvalidBatch { .. })));
        let (mut batch, spec) = teacher_batch(11, 4);
        batch.starts.clear();
        let err = run_batch_with(
            &batch,
            &spec,
            BatchMode::EventDriven,
            BatchControl::default(),
        );
        assert!(matches!(err, Err(SimError::InvalidBatch { .. })));
    }

    #[test]
    fn warm_cache_serves_lane_batched_episodes() {
        // Hits bypass lane compute entirely: the second run resolves every
        // episode before any worker spawns.
        let (batch, spec) = nn_batch(8);
        let cache = EpisodeCache::new(1 << 20);
        let run = || {
            let control = BatchControl {
                cache: Some(&cache),
                ..BatchControl::default()
            };
            run_on(&batch, &spec, 2, BatchMode::Lanes(4), control).summary()
        };
        let cold = run();
        assert_eq!((cold.cache_hits, cold.cache_misses), (0, 8));
        let warm = run();
        assert_eq!((warm.cache_hits, warm.cache_misses), (8, 0));
        assert!(cold.stats_eq(&warm));
        assert_eq!(bits(&cold.etas), bits(&warm.etas));
    }

    #[test]
    fn warm_cache_serves_every_episode_bit_identically() {
        let (batch, spec) = teacher_batch(11, 8);
        let cache = EpisodeCache::new(1 << 20);
        let cold = cached(&batch, &spec, 3, &cache);
        assert_eq!((cold.cache_hits, cold.cache_misses), (0, 8));
        let mut warm_seen = Vec::new();
        let mut observer = |i: usize, o: &EpisodeOutcome| {
            assert!(o.completed().is_some(), "{o:?}");
            warm_seen.push(i);
        };
        let control = BatchControl {
            cache: Some(&cache),
            observer: Some(&mut observer),
            ..BatchControl::default()
        };
        let warm = run_on(&batch, &spec, 3, BatchMode::EventDriven, control).summary();
        assert_eq!((warm.cache_hits, warm.cache_misses), (8, 0));
        assert_eq!(warm.cache_evictions, 0);
        assert!(cold.stats_eq(&warm));
        assert_eq!(bits(&cold.etas), bits(&warm.etas));
        warm_seen.sort_unstable();
        assert_eq!(warm_seen, (0..8).collect::<Vec<_>>(), "hits are observed");
    }

    #[test]
    fn uncached_run_reports_zero_cache_counters() {
        let (batch, spec) = teacher_batch(11, 4);
        let s = run_on(
            &batch,
            &spec,
            2,
            BatchMode::EventDriven,
            BatchControl::default(),
        )
        .summary();
        assert_eq!(
            (s.cache_hits, s.cache_misses, s.cache_evictions),
            (0, 0, 0),
            "no cache means no lookups, not 'all misses'"
        );
    }

    #[test]
    fn unkeyable_stack_bypasses_the_cache_and_its_episodes_complete() {
        // A NaN aggressive buffer makes the stack digest a `KeyError` while
        // the stack still runs (a NaN buffer yields no aggressive window):
        // the batch runs uncached, with no lookup and nothing stored.
        let (batch, basic) = nn_batch(3);
        let StackSpec::Compound { planner, .. } = basic else {
            unreachable!("nn_batch runs the basic compound stack")
        };
        let nan = safe_shield::AggressiveConfig {
            a_buf: f64::NAN,
            ..Default::default()
        };
        let spec = StackSpec::ultimate(planner, nan);
        assert!(crate::stack_digest(&spec).is_err());
        let cache = EpisodeCache::new(1 << 20);
        let summary = cached(&batch, &spec, 2, &cache);
        assert_eq!((summary.cache_hits, summary.cache_misses), (0, 0));
        assert_eq!((summary.episodes, summary.panicked), (3, 0));
        assert!(cache.is_empty(), "an unkeyable stack must never be stored");
    }

    #[test]
    fn cached_equals_recomputed_across_seeds_and_worker_counts() {
        for seed in [1, 7, 23, 101] {
            for workers in [1, 3] {
                let context = format!("seed {seed}, {workers} workers");
                let (batch, spec) = teacher_batch(seed, 10);
                let cache = EpisodeCache::new(1 << 20);
                let cold = cached(&batch, &spec, workers, &cache);
                assert_eq!((cold.cache_hits, cold.cache_misses), (0, 10), "{context}");
                let warm = cached(&batch, &spec, workers, &cache);
                assert_eq!((warm.cache_hits, warm.cache_misses), (10, 0), "{context}");
                assert_bit_identical(&cold, &warm, &context);
            }
        }
    }

    #[test]
    fn warm_run_is_bit_identical_regardless_of_who_warmed_it() {
        // Warmed single-threaded, read by 3 workers (and vice versa): the
        // key is content-addressed, not execution-shaped.
        let (batch, spec) = teacher_batch(5, 8);
        for (warm_workers, read_workers) in [(1, 3), (3, 1)] {
            let cache = EpisodeCache::new(1 << 20);
            let cold = cached(&batch, &spec, warm_workers, &cache);
            let warm = cached(&batch, &spec, read_workers, &cache);
            assert_eq!(warm.cache_hits, 8);
            assert_bit_identical(&cold, &warm, "cross-worker-count warm read");
        }
    }

    #[test]
    fn mixed_hit_miss_batch_is_bit_identical_to_a_cold_superset() {
        // `BatchConfig::episode(i)` derives episode i from (base_seed + i,
        // starts[i % n]) alone, so a 12-episode batch shares its first 6
        // episodes with the 6-episode prefix batch: warming the prefix
        // makes the superset run exactly 6 hits + 6 misses.
        let (small, spec) = teacher_batch(9, 6);
        let (big, _) = teacher_batch(9, 12);
        let reference = cached(&big, &spec, 2, &EpisodeCache::new(1 << 20));
        let cache = EpisodeCache::new(1 << 20);
        assert_eq!(cached(&small, &spec, 2, &cache).cache_misses, 6);
        let mixed = cached(&big, &spec, 2, &cache);
        assert_eq!(
            (mixed.cache_hits, mixed.cache_misses),
            (6, 6),
            "superset must hit exactly the warmed prefix"
        );
        assert_bit_identical(&reference, &mixed, "mixed hit/miss batch");
    }

    #[test]
    fn cache_hits_survive_cancellation_and_resubmission_completes() {
        let (small, spec) = teacher_batch(31, 6);
        let (big, _) = teacher_batch(31, 12);
        let cache = EpisodeCache::new(1 << 20);
        let warmed = cached(&small, &spec, 2, &cache);

        // Cancel is set before the run: no worker may run, but the 6 cached
        // episodes are served anyway and land in the partial summary.
        let cancel = AtomicBool::new(true);
        let stopped = |cancel| BatchControl {
            interrupt: Some(cancel),
            cache: Some(&cache),
            ..BatchControl::default()
        };
        let report = run_on(&big, &spec, 2, BatchMode::EventDriven, stopped(&cancel));
        assert!(report.interrupted() && !report.deadline_hit);
        let partial = report.summary();
        assert_eq!(partial.episodes, 6, "exactly the cached episodes resolve");
        assert_eq!(partial.skipped, 6);
        assert_eq!((partial.cache_hits, partial.cache_misses), (6, 6));
        assert_eq!(
            bits(&partial.etas),
            bits(&warmed.etas),
            "partial summary must carry the cached episodes bit-identically"
        );

        // Run again without the cancel: the 6 hits return at once, the 6
        // cancelled episodes are computed, and the batch completes.
        let resumed = cached(&big, &spec, 2, &cache);
        assert_eq!((resumed.cache_hits, resumed.cache_misses), (6, 6));
        let full = cached(&big, &spec, 2, &cache);
        assert_eq!((full.cache_hits, full.cache_misses), (12, 0));
        assert_bit_identical(&resumed, &full, "resubmitted batch");

        // A fully warm batch computes nothing: with cancel still set, no
        // worker may run, yet every episode is served and the batch is
        // complete.
        let report = run_on(&big, &spec, 2, BatchMode::EventDriven, stopped(&cancel));
        assert!(!report.interrupted());
        let warm = report.summary();
        assert_eq!((warm.episodes, warm.skipped), (12, 0));
        assert_eq!((warm.cache_hits, warm.cache_misses), (12, 0));
        assert_eq!(bits(&warm.etas), bits(&full.etas));
    }

    #[test]
    fn cancel_mid_batch_leaves_a_partial_summary() {
        let (batch, spec) = teacher_batch(11, 12);
        let cancel = AtomicBool::new(false);
        let mut done = 0;
        let mut observer = |_: usize, o: &EpisodeOutcome| {
            done += usize::from(o.completed().is_some());
            if done == 2 {
                cancel.store(true, Ordering::Relaxed);
            }
        };
        let control = BatchControl {
            interrupt: Some(&cancel),
            observer: Some(&mut observer),
            ..BatchControl::default()
        };
        let report = run_on(&batch, &spec, 1, BatchMode::EventDriven, control);
        assert!(report.interrupted() && !report.deadline_hit);
        let partial = report.summary();
        let done = partial.episodes;
        assert!((2..12).contains(&done), "{done} episodes done");
        assert_eq!(partial.requested, 12);
        assert_eq!(partial.skipped, 12 - done);
        assert_eq!(partial.etas.len(), done);
    }

    #[test]
    fn expired_deadline_stops_the_batch_typed() {
        let (batch, spec) = teacher_batch(11, 20);
        let control = BatchControl {
            deadline: Some(Instant::now()),
            ..BatchControl::default()
        };
        let report = run_on(&batch, &spec, 2, BatchMode::EventDriven, control);
        assert!(report.interrupted() && report.deadline_hit);
        let partial = report.summary();
        assert!(
            partial.episodes < 20,
            "an expired deadline cannot run it all"
        );
        assert_eq!(partial.requested, 20);
        assert_eq!(partial.episodes + partial.skipped, 20);
    }

    /// Regression test for a lost-cancel race: a cancel stored from another
    /// thread (as the daemon's cancel handler does) races a worker's own
    /// flag check. A worker that saw the flag first used to exit silently,
    /// and the dead-worker rescue then ran the cancelled batch to
    /// completion; the rescue now re-polls the cancel and the deadline
    /// before touching an unfilled slot. The race was timing-dependent
    /// (roughly 1 in 6), hence the rounds.
    #[test]
    fn externally_stored_cancel_is_never_lost_to_the_rescue_pass() {
        const EPISODES: usize = 50_000;
        for round in 0..10u64 {
            let (batch, spec) = teacher_batch(90 + round, EPISODES);
            let cancel = AtomicBool::new(false);
            let report = std::thread::scope(|scope| {
                scope.spawn(|| {
                    std::thread::sleep(Duration::from_millis(30));
                    cancel.store(true, Ordering::Relaxed);
                });
                let control = BatchControl {
                    interrupt: Some(&cancel),
                    ..BatchControl::default()
                };
                run_on(&batch, &spec, 1, BatchMode::EventDriven, control)
            });
            assert!(report.interrupted(), "round {round}: cancel was lost");
            let partial = report.summary();
            assert!(partial.episodes < EPISODES, "round {round}");
            assert_eq!(partial.episodes + partial.skipped, EPISODES);
        }
    }

    /// Cancellation determinism: cancel a batch mid-run, then rerun exactly
    /// the unfinished episodes as single-episode batches; partial and
    /// resumed results together are bit-identical to the uncancelled run.
    #[test]
    fn cancelled_then_resubmitted_episodes_are_bit_identical_to_a_clean_run() {
        const EPISODES: usize = 12;
        for seed in [41u64, 42, 43, 44] {
            let (batch, spec) = teacher_batch(seed, EPISODES);
            let reference = run_batch(&batch, &spec).unwrap();
            for workers in [1usize, 4] {
                // The flag trips after 3 completions: the deterministic
                // equivalent of an operator cancelling mid-batch.
                let cancel = AtomicBool::new(false);
                let mut done = 0;
                let mut observer = |_: usize, o: &EpisodeOutcome| {
                    done += usize::from(o.completed().is_some());
                    if done >= 3 {
                        cancel.store(true, Ordering::Relaxed);
                    }
                };
                let control = BatchControl {
                    interrupt: Some(&cancel),
                    observer: Some(&mut observer),
                    ..BatchControl::default()
                };
                let report = run_on(&batch, &spec, workers, BatchMode::EventDriven, control);
                assert!(
                    report.interrupted(),
                    "seed {seed}/{workers}w: never cancelled"
                );
                let partial = report.summary();
                assert!(
                    partial.episodes >= 3 && partial.episodes < EPISODES,
                    "seed {seed}/{workers}w: partial covered {} episodes",
                    partial.episodes
                );

                // Completed episodes already match the clean run bit for
                // bit; identify them by η (every partial η must appear in
                // the reference).
                let mut matched = [false; EPISODES];
                for eta in &partial.etas {
                    let i = (0..EPISODES)
                        .position(|i| !matched[i] && reference[i].eta.to_bits() == eta.to_bits())
                        .unwrap_or_else(|| {
                            panic!("seed {seed}/{workers}w: partial η {eta} not in the clean run")
                        });
                    matched[i] = true;
                }

                // Rerun exactly the unfinished episodes, one batch each
                // (episode i of the original = a 1-episode batch with
                // base_seed + i and start grid [starts[i % len]]).
                for (i, reference_result) in reference.iter().enumerate() {
                    if matched[i] {
                        continue;
                    }
                    let mut single = batch.clone();
                    single.episodes = 1;
                    single.base_seed = batch.base_seed.wrapping_add(i as u64);
                    single.starts = vec![batch.starts[i % batch.starts.len()]];
                    let resumed = run_batch(&single, &spec).unwrap();
                    assert_eq!(
                        resumed[0], *reference_result,
                        "seed {seed}/{workers}w: resumed episode {i} diverged"
                    );
                }
            }
        }
    }

    #[cfg(feature = "fault-injection")]
    mod fault_injection {
        use super::*;

        /// `batch` on `workers` workers with worker `killed` dying right
        /// after its next claim, and the indices the observer heard.
        fn run_killing(
            batch: &BatchConfig,
            spec: &StackSpec,
            workers: usize,
            killed: usize,
        ) -> (BatchReport, Vec<usize>) {
            let mut seen = Vec::new();
            let mut observer = |i: usize, _: &EpisodeOutcome| seen.push(i);
            let control = BatchControl {
                observer: Some(&mut observer),
                kill_worker: Some(killed),
                ..BatchControl::default()
            };
            let report = run_on(batch, spec, workers, BatchMode::EventDriven, control);
            seen.sort_unstable();
            (report, seen)
        }

        #[test]
        fn dead_worker_episodes_are_rescued_bit_identically() {
            let (batch, spec) = teacher_batch(11, 16);
            let reference = BatchSummary::from_results(&run_batch(&batch, &spec).unwrap());
            for killed in [0, 2] {
                let (report, seen) = run_killing(&batch, &spec, 4, killed);
                assert!(!report.interrupted(), "worker {killed}: rescue stopped");
                let summary = report.summary();
                assert!(summary.stats_eq(&reference), "worker {killed} diverged");
                assert_eq!(seen, (0..16).collect::<Vec<_>>(), "episodes lost");
            }
        }

        /// Soak cycle (`scripts/soak.sh`): kill a different worker every
        /// round; the rescue pass must keep the summary bit-identical to
        /// the clean run, round after round. `CV_SOAK_ROUNDS` scales the
        /// cycle (default 6).
        #[test]
        #[ignore = "soak cycle; run via scripts/soak.sh"]
        fn killing_a_worker_every_round_never_changes_the_summary() {
            let rounds: u64 = std::env::var("CV_SOAK_ROUNDS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(6);
            const WORKERS: usize = 4;
            let (batch, spec) = teacher_batch(81, 64);
            let reference = BatchSummary::from_results(&run_batch(&batch, &spec).unwrap());
            for round in 0..rounds {
                let killed = (round as usize) % WORKERS;
                let (report, _) = run_killing(&batch, &spec, WORKERS, killed);
                assert!(
                    !report.interrupted(),
                    "round {round}: rescue did not complete"
                );
                let summary = report.summary();
                assert!(
                    summary.stats_eq(&reference),
                    "round {round}: worker {killed}"
                );
                assert_eq!(summary.etas, reference.etas, "round {round}: η bits");
                println!("round {round}: worker {killed} killed, summary bit-identical");
            }
        }

        #[test]
        fn panicking_seed_is_isolated_and_survivors_are_bit_identical() {
            let batch = small_batch(40, 8);
            let spec = StackSpec::pure_teacher_conservative(&batch.template).unwrap();
            let clean = crate::run_batch(&batch, &spec).unwrap();

            // Panic on episodes 2 and 5 (seed = base_seed + index).
            let seeds = vec![batch.base_seed + 2, batch.base_seed + 5];
            let faulty = StackSpec::panic_injection(&batch.template, seeds).unwrap();
            let report =
                run_batch_lanes(&batch, &faulty, BatchMode::EventDriven, None, None).unwrap();
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
                run_batch_lanes(&batch, &faulty, BatchMode::EventDriven, None, None).unwrap();
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
                    run_batch_lanes(&batch, &faulty, BatchMode::EventDriven, Some(&q), None)
                        .unwrap();
                let s = report.summary();
                assert_eq!((s.panicked, s.skipped), (1, 0), "run {run}");
            }
            // Budget exhausted: the seed is now skipped, not retried.
            let report =
                run_batch_lanes(&batch, &faulty, BatchMode::EventDriven, Some(&q), None).unwrap();
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
