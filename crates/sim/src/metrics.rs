use crate::EpisodeResult;

/// Aggregate statistics over a batch of episodes — the columns of the
/// paper's Tables I and II.
///
/// Reaching time follows the paper's convention: *"only reaching time of
/// safe cases is counted"* (the `*` footnote of Table II), and episodes that
/// time out contribute to neither the reaching time nor the collision count.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSummary {
    /// Number of episodes that completed and contribute to the statistics.
    pub episodes: usize,
    /// Episodes the batch was asked to run. Equal to `episodes` for a clean
    /// run; under supervision ([`crate::run_batch_with`]) it also
    /// covers the failed / panicked / skipped episodes below.
    pub requested: usize,
    /// Episodes that ended in a typed simulation error.
    pub failed: usize,
    /// Episodes whose planner panicked (isolated, not poisoning the batch).
    pub panicked: usize,
    /// Episodes skipped without running (quarantined seed, or interrupted
    /// by cancellation / deadline expiry).
    pub skipped: usize,
    /// Mean reaching time over safe episodes that reached the target (s).
    pub reaching_time: f64,
    /// Fraction of episodes without a safety violation.
    pub safe_rate: f64,
    /// Mean `η` over all episodes.
    pub eta_mean: f64,
    /// Mean emergency frequency (fraction of steps decided by `κ_e`).
    pub emergency_frequency: f64,
    /// Per-episode `η` values, aligned with the episode seed order, for
    /// paired comparisons ([`winning_percentage`]).
    pub etas: Vec<f64>,
    /// Reaching times of the episodes that reached the target (s).
    pub reaching_times: Vec<f64>,
    /// Wall-clock duration of the batch run (s); `0.0` when the summary was
    /// built from results alone and never timed ([`BatchSummary::with_timing`]).
    pub wall_time_secs: f64,
    /// Throughput of the batch run (episodes/s); `0.0` when untimed.
    pub episodes_per_sec: f64,
    /// Episodes answered from the content-addressed result cache without
    /// touching a worker. `0` when the batch ran uncached.
    pub cache_hits: usize,
    /// Episodes that missed the cache and were simulated. `0` when uncached
    /// (an uncached run is *not* a run of misses — no lookup happened).
    pub cache_misses: usize,
    /// Entries the cache evicted while this batch inserted its results.
    pub cache_evictions: usize,
    /// Of `cache_hits`, how many were served by entries reloaded from the
    /// persistent tier at daemon startup (warm-restart hits). `0` for
    /// memory-only caches and for peers that predate the persistent tier.
    pub cache_persisted_hits: usize,
    /// Segments the persistent tier quarantined to `.bad` at startup (a
    /// daemon-lifetime count stamped onto every summary it serves). `0`
    /// when clean, memory-only, or decoded from an older peer.
    pub cache_quarantined: usize,
}

impl BatchSummary {
    /// Summarises a slice of episode results.
    ///
    /// # Panics
    ///
    /// Panics if `results` is empty.
    pub fn from_results(results: &[EpisodeResult]) -> Self {
        assert!(!results.is_empty(), "cannot summarise an empty batch");
        summarise(results.iter())
    }

    /// Attaches the measured wall-clock duration of the run, deriving the
    /// episodes/s throughput.
    ///
    /// Both timing fields are `0.0` — meaning "untimed or unmeasurably
    /// fast", never `inf`/`NaN` — when `wall` is zero or so short that its
    /// seconds representation is subnormal (a denormal divisor would
    /// otherwise overflow the throughput to `inf`).
    #[must_use]
    pub fn with_timing(mut self, wall: std::time::Duration) -> Self {
        let secs = wall.as_secs_f64();
        if !secs.is_normal() || secs <= 0.0 {
            self.wall_time_secs = 0.0;
            self.episodes_per_sec = 0.0;
            return self;
        }
        self.wall_time_secs = secs;
        self.episodes_per_sec = self.episodes as f64 / secs;
        self
    }

    /// Whether two summaries agree on every *deterministic* statistic —
    /// everything except the timing fields and the cache counters, which
    /// are operational metadata that varies run to run (a warm-cache replay
    /// of a batch must compare equal to its cold run). `NaN` compares equal
    /// to `NaN` here (an all-timeout batch has a `NaN` reaching time on
    /// both sides).
    pub fn stats_eq(&self, other: &Self) -> bool {
        fn feq(a: f64, b: f64) -> bool {
            a == b || (a.is_nan() && b.is_nan())
        }
        self.episodes == other.episodes
            && self.requested == other.requested
            && self.failed == other.failed
            && self.panicked == other.panicked
            && self.skipped == other.skipped
            && feq(self.reaching_time, other.reaching_time)
            && feq(self.safe_rate, other.safe_rate)
            && feq(self.eta_mean, other.eta_mean)
            && feq(self.emergency_frequency, other.emergency_frequency)
            && self.etas.len() == other.etas.len()
            && self.etas.iter().zip(&other.etas).all(|(a, b)| feq(*a, *b))
            && self.reaching_times.len() == other.reaching_times.len()
            && self
                .reaching_times
                .iter()
                .zip(&other.reaching_times)
                .all(|(a, b)| feq(*a, *b))
    }

    /// 95% normal-approximation confidence half-width of the mean `η`.
    pub fn eta_ci95(&self) -> f64 {
        ci95_half_width(&self.etas)
    }

    /// 95% confidence half-width of the mean reaching time (over episodes
    /// that reached; `NaN` when fewer than two did).
    pub fn reaching_time_ci95(&self) -> f64 {
        ci95_half_width(&self.reaching_times)
    }
}

/// Empty-safe summary over any subset of a batch's episodes. With zero
/// episodes the means are `NaN` — never a panic — so supervised partial
/// results can always carry a summary. The fault counts (`requested`,
/// `failed`, `panicked`, `skipped`) are initialised to the clean-run values
/// (`requested == episodes`, zero faults); supervised callers overwrite
/// them with what they observed.
pub(crate) fn summarise<'a, I>(results: I) -> BatchSummary
where
    I: Iterator<Item = &'a EpisodeResult>,
{
    let mut episodes = 0usize;
    let mut reach_sum = 0.0;
    let mut reach_n = 0usize;
    let mut safe_n = 0usize;
    let mut eta_sum = 0.0;
    let mut emer_sum = 0.0;
    let mut etas = Vec::new();
    let mut reaching_times = Vec::new();
    for r in results {
        episodes += 1;
        if r.outcome.is_safe() {
            safe_n += 1;
        }
        if let Some(t) = r.outcome.reaching_time() {
            reach_sum += t;
            reach_n += 1;
            reaching_times.push(t);
        }
        eta_sum += r.eta;
        emer_sum += r.emergency_frequency();
        etas.push(r.eta);
    }
    BatchSummary {
        episodes,
        requested: episodes,
        failed: 0,
        panicked: 0,
        skipped: 0,
        reaching_time: if reach_n > 0 {
            reach_sum / reach_n as f64
        } else {
            f64::NAN
        },
        safe_rate: safe_n as f64 / episodes as f64,
        eta_mean: eta_sum / episodes as f64,
        emergency_frequency: emer_sum / episodes as f64,
        etas,
        reaching_times,
        wall_time_secs: 0.0,
        episodes_per_sec: 0.0,
        cache_hits: 0,
        cache_misses: 0,
        cache_evictions: 0,
        cache_persisted_hits: 0,
        cache_quarantined: 0,
    }
}

/// 95% normal-approximation confidence half-width of a sample mean
/// (`1.96·s/√n`); `NaN` for fewer than two samples.
pub fn ci95_half_width(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n < 2 {
        return f64::NAN;
    }
    let mean = samples.iter().sum::<f64>() / n as f64;
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
    1.96 * (var / n as f64).sqrt()
}

/// Winning percentage (paper Tables I/II): the fraction of paired episodes
/// in which `ours` achieves a strictly higher `η` than `baseline`.
///
/// Both slices must be aligned on the same episode seeds.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn winning_percentage(ours: &[f64], baseline: &[f64]) -> f64 {
    assert_eq!(ours.len(), baseline.len(), "unpaired η slices");
    assert!(!ours.is_empty(), "empty η slices");
    let wins = ours.iter().zip(baseline).filter(|(a, b)| *a > *b).count();
    wins as f64 / ours.len() as f64
}

/// Root-mean-square error between two aligned signals (used by the Fig. 6a
/// filter-quality experiment).
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn rmse(estimate: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(estimate.len(), truth.len(), "unaligned signals");
    assert!(!estimate.is_empty(), "empty signals");
    let sq_sum: f64 = estimate
        .iter()
        .zip(truth)
        .map(|(a, b)| (a - b) * (a - b))
        .sum();
    (sq_sum / estimate.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use safe_shield::Outcome;

    fn result(outcome: Outcome, emergency: u64, total: u64) -> EpisodeResult {
        EpisodeResult {
            eta: outcome.eta(),
            outcome,
            emergency_steps: emergency,
            total_steps: total,
            collided_pair: None,
            traces: None,
        }
    }

    #[test]
    fn summary_counts_only_safe_reaches() {
        let results = vec![
            result(Outcome::Reached { time: 8.0 }, 0, 100),
            result(Outcome::Collision { time: 3.0 }, 0, 60),
            result(Outcome::Timeout, 50, 100),
        ];
        let s = BatchSummary::from_results(&results);
        assert_eq!(s.episodes, 3);
        assert!((s.reaching_time - 8.0).abs() < 1e-12);
        assert!((s.safe_rate - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.eta_mean - (0.125 - 1.0 + 0.0) / 3.0).abs() < 1e-12);
        assert!((s.emergency_frequency - 0.5 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn timing_attaches_and_stats_eq_ignores_it() {
        let results = vec![result(Outcome::Reached { time: 8.0 }, 0, 100)];
        let plain = BatchSummary::from_results(&results);
        let timed = plain
            .clone()
            .with_timing(std::time::Duration::from_millis(250));
        assert_eq!(plain.wall_time_secs, 0.0);
        assert!((timed.wall_time_secs - 0.25).abs() < 1e-12);
        assert!((timed.episodes_per_sec - 4.0).abs() < 1e-9);
        assert!(plain.stats_eq(&timed));
        assert_ne!(plain, timed);
    }

    #[test]
    fn stats_eq_ignores_cache_counters() {
        let results = vec![result(Outcome::Reached { time: 8.0 }, 0, 100)];
        let cold = BatchSummary::from_results(&results);
        let mut warm = cold.clone();
        warm.cache_hits = 1;
        warm.cache_misses = 0;
        warm.cache_evictions = 3;
        warm.cache_persisted_hits = 1;
        warm.cache_quarantined = 2;
        assert!(cold.stats_eq(&warm), "cache counters are operational");
        assert_ne!(cold, warm);
    }

    #[test]
    fn stats_eq_treats_nan_reaching_time_as_equal() {
        let a = BatchSummary::from_results(&[result(Outcome::Timeout, 0, 10)]);
        let b = BatchSummary::from_results(&[result(Outcome::Timeout, 0, 10)]);
        assert!(a.stats_eq(&b));
        let c = BatchSummary::from_results(&[result(Outcome::Reached { time: 5.0 }, 0, 10)]);
        assert!(!a.stats_eq(&c));
    }

    #[test]
    fn reaching_time_nan_when_nothing_reached() {
        let s = BatchSummary::from_results(&[result(Outcome::Timeout, 0, 10)]);
        assert!(s.reaching_time.is_nan());
    }

    #[test]
    fn confidence_intervals_shrink_with_more_data() {
        let few: Vec<EpisodeResult> = (0..4)
            .map(|i| {
                result(
                    Outcome::Reached {
                        time: 6.0 + 0.1 * i as f64,
                    },
                    0,
                    100,
                )
            })
            .collect();
        let many: Vec<EpisodeResult> = (0..64)
            .map(|i| {
                result(
                    Outcome::Reached {
                        time: 6.0 + 0.1 * (i % 4) as f64,
                    },
                    0,
                    100,
                )
            })
            .collect();
        let s_few = BatchSummary::from_results(&few);
        let s_many = BatchSummary::from_results(&many);
        assert!(s_many.reaching_time_ci95() < s_few.reaching_time_ci95());
        assert!(s_many.eta_ci95() < s_few.eta_ci95());
    }

    #[test]
    fn ci_is_nan_for_tiny_samples() {
        let s = BatchSummary::from_results(&[result(Outcome::Timeout, 0, 10)]);
        assert!(s.reaching_time_ci95().is_nan());
        assert!(ci95_half_width(&[1.0]).is_nan());
        assert_eq!(ci95_half_width(&[1.0, 1.0]), 0.0);
    }

    #[test]
    fn winning_percentage_counts_strict_wins() {
        let ours = [0.2, 0.1, 0.3, 0.1];
        let base = [0.1, 0.1, 0.1, 0.2];
        assert!((winning_percentage(&ours, &base) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rmse_known_value() {
        assert!((rmse(&[1.0, 2.0], &[0.0, 0.0]) - (2.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(rmse(&[3.0], &[3.0]), 0.0);
    }

    #[test]
    #[should_panic]
    fn rmse_rejects_unaligned() {
        let _ = rmse(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn zero_or_denormal_wall_time_yields_zero_throughput() {
        let base = BatchSummary {
            episodes: 4,
            requested: 4,
            failed: 0,
            panicked: 0,
            skipped: 0,
            reaching_time: f64::NAN,
            safe_rate: 1.0,
            eta_mean: 0.0,
            emergency_frequency: 0.0,
            etas: vec![0.0; 4],
            reaching_times: Vec::new(),
            wall_time_secs: 0.0,
            episodes_per_sec: 0.0,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            cache_persisted_hits: 0,
            cache_quarantined: 0,
        };
        let zero = base.clone().with_timing(std::time::Duration::ZERO);
        assert_eq!(zero.wall_time_secs, 0.0);
        assert_eq!(zero.episodes_per_sec, 0.0);
        // 1 ns is representable but denormal arithmetic never appears: the
        // seconds value is normal, so throughput is finite and positive.
        let tiny = base.clone().with_timing(std::time::Duration::from_nanos(1));
        assert!(tiny.episodes_per_sec.is_finite());
        assert!(tiny.episodes_per_sec > 0.0);
    }
}
