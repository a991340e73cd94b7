use cv_comm::CommSetting;

use crate::{BatchMode, EpisodeConfig, EpisodeResult, SimError, StackSpec};

/// Configuration for a Monte-Carlo batch.
///
/// Episode `i` uses seed `base_seed + i` and the `i % starts.len()`-th entry
/// of the initial-position grid, so two batches with the same `BatchConfig`
/// but different [`StackSpec`]s replay *identical* episodes — which is what
/// makes the paired winning-percentage columns of the paper's tables
/// meaningful.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchConfig {
    /// Episode template (comm setting, noise, periods…). Its `seed` and
    /// `C_1`'s `others[0].start_shared` are overwritten per episode.
    pub template: EpisodeConfig,
    /// Number of episodes.
    pub episodes: usize,
    /// Base seed.
    pub base_seed: u64,
    /// Grid of `C_1` initial positions cycled through
    /// (default: the paper's `{50.5 + 0.5j}`).
    ///
    /// Only `C_1` moves: every other vehicle keeps its template start. A
    /// lowered [`crate::PlatoonSpec`] therefore loses its formation across
    /// the grid. For `PlatoonSpec::paper_default(8, _)` the followers stay
    /// at 61, 70, … m, so the paper grid of 50.5–60 m starts the leader
    /// 10.5–1 m ahead of its first follower instead of at the spec's 9 m
    /// headway.
    pub starts: Vec<f64>,
    /// Worker threads (`0` = all available parallelism).
    pub threads: usize,
}

impl BatchConfig {
    /// A batch over the paper's start grid with the given template.
    pub fn new(template: EpisodeConfig, episodes: usize) -> Self {
        let base_seed = template.seed;
        Self {
            template,
            episodes,
            base_seed,
            starts: EpisodeConfig::paper_start_grid(),
            threads: 0,
        }
    }

    /// Checks that the batch can actually be run: the daemon's admission
    /// check and the first step of [`crate::run_batch_with`], so a value
    /// that would panic a worker is refused before any episode starts.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidBatch`], naming the field, when `episodes == 0`,
    /// `starts` is empty (the latter used to surface as a modulo-by-zero
    /// panic inside [`BatchConfig::episode`]), the message or sensing
    /// period (`dt_m`, `dt_s`) or the `horizon` is not finite and > 0
    /// (quantised onto ticks, such a period would fire every tick, and such
    /// a horizon would time every episode out at t = 0), the template has
    /// no conflicting vehicle, a channel's delay is negative or not finite
    /// or its `drop_prob` lies outside `[0, 1]` (the template's and every
    /// vehicle's override), a sensor noise bound is negative or not finite,
    /// or `sensor_dropout` lies outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), SimError> {
        let invalid = |reason: String| Err(SimError::InvalidBatch { reason });
        if self.episodes == 0 {
            return invalid("batch must contain at least one episode".into());
        }
        if self.starts.is_empty() {
            return invalid("initial-position grid `starts` must not be empty".into());
        }
        let t = &self.template;
        for (field, time) in [("dt_m", t.dt_m), ("dt_s", t.dt_s), ("horizon", t.horizon)] {
            if !(time > 0.0 && time.is_finite()) {
                return invalid(format!("{field} must be finite and > 0, got {time}"));
            }
        }
        if t.others.is_empty() {
            return invalid("others must list at least one conflicting vehicle".into());
        }
        let overrides = (t.others.iter().enumerate())
            .filter_map(|(i, v)| Some((format!("others[{i}].comm"), v.comm?)));
        for (field, comm) in std::iter::once(("comm".to_string(), t.comm)).chain(overrides) {
            if let CommSetting::Delayed { delay, drop_prob } = comm {
                if !(delay >= 0.0 && delay.is_finite()) {
                    return invalid(format!(
                        "{field}.delay must be finite and >= 0, got {delay}"
                    ));
                }
                if !(0.0..=1.0).contains(&drop_prob) {
                    return invalid(format!(
                        "{field}.drop_prob must be in [0, 1], got {drop_prob}"
                    ));
                }
            }
        }
        let n = t.noise;
        for (field, bound) in [
            ("delta_p", n.delta_p),
            ("delta_v", n.delta_v),
            ("delta_a", n.delta_a),
        ] {
            if !(bound >= 0.0 && bound.is_finite()) {
                return invalid(format!(
                    "noise.{field} must be finite and >= 0, got {bound}"
                ));
            }
        }
        if !(0.0..=1.0).contains(&t.sensor_dropout) {
            return invalid(format!(
                "sensor_dropout must be in [0, 1], got {}",
                t.sensor_dropout
            ));
        }
        Ok(())
    }

    /// The concrete configuration of episode `index`.
    ///
    /// # Panics
    ///
    /// Panics if `starts` is empty; run the batch through [`run_batch`] (or
    /// call [`BatchConfig::validate`] first) to get a typed error instead.
    pub fn episode(&self, index: usize) -> EpisodeConfig {
        assert!(
            !self.starts.is_empty(),
            "BatchConfig::starts is empty; BatchConfig::validate would have rejected this"
        );
        let mut cfg = self.template.clone();
        cfg.seed = self.base_seed.wrapping_add(index as u64);
        if let Some(c1) = cfg.others.first_mut() {
            c1.start_shared = self.starts[index % self.starts.len()];
        }
        cfg
    }

    pub(crate) fn worker_count(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Runs `batch.episodes` simulations of `spec` in parallel and returns the
/// per-episode results in seed order.
///
/// Episodes are distributed dynamically: every worker claims the next
/// unclaimed index from one shared work queue, which keeps
/// all workers busy when episode costs vary (early exits from collisions or
/// reached targets), and runs it on a per-worker [`crate::EpisodeWorkspace`] so
/// setup allocations are paid once per worker instead of once per episode.
/// Results are written back by index and are bit-identical to a serial run
/// for any thread count.
///
/// This is the strict all-or-nothing wrapper of the supervised entry point
/// [`crate::run_batch_with`] in [`BatchMode::EventDriven`] with an empty
/// control: it collapses
/// the report — the first per-episode error fails the batch, and a
/// contained panic is re-raised. Callers that want partial results, panic
/// isolation, or quarantine use the supervised entry point directly.
///
/// # Errors
///
/// Returns [`SimError::InvalidBatch`] for an unrunnable configuration (zero
/// episodes, empty start grid), otherwise the first [`SimError`] encountered
/// (episodes are configuration-deterministic, so an invalid geometry fails
/// the whole batch).
///
/// # Example
///
/// ```
/// use cv_sim::{run_batch, BatchConfig, BatchSummary, EpisodeConfig, StackSpec};
///
/// let template = EpisodeConfig::paper_default(0);
/// let spec = StackSpec::pure_teacher_conservative(&template)?;
/// let batch = BatchConfig::new(template, 8);
/// let results = run_batch(&batch, &spec)?;
/// let summary = BatchSummary::from_results(&results);
/// assert_eq!(summary.episodes, 8);
/// assert_eq!(summary.safe_rate, 1.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_batch(batch: &BatchConfig, spec: &StackSpec) -> Result<Vec<EpisodeResult>, SimError> {
    let control = crate::BatchControl::default();
    crate::run_batch_with(batch, spec, BatchMode::EventDriven, control)?.into_results()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_episode;

    #[test]
    fn batch_is_deterministic_and_parallel_matches_serial() {
        let template = EpisodeConfig::paper_default(100);
        let spec = StackSpec::pure_teacher_conservative(&template).unwrap();
        let mut serial_cfg = BatchConfig::new(template, 12);
        serial_cfg.threads = 1;
        let mut parallel_cfg = serial_cfg.clone();
        parallel_cfg.threads = 4;
        let a = run_batch(&serial_cfg, &spec).unwrap();
        let b = run_batch(&parallel_cfg, &spec).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.emergency_steps, y.emergency_steps);
        }
    }

    #[test]
    fn dynamic_scheduler_matches_static_chunking() {
        let template = EpisodeConfig::paper_default(40);
        let spec = StackSpec::pure_teacher_conservative(&template).unwrap();
        let mut batch = BatchConfig::new(template, 10);
        batch.threads = 3;
        let dynamic = run_batch(&batch, &spec).unwrap();
        let static_: Vec<_> = (0..batch.episodes)
            .map(|i| run_episode(&batch.episode(i), &spec, false).unwrap())
            .collect();
        assert_eq!(dynamic, static_);
    }

    #[test]
    fn empty_start_grid_is_a_typed_error_not_a_panic() {
        let template = EpisodeConfig::paper_default(0);
        let spec = StackSpec::pure_teacher_conservative(&template).unwrap();
        let mut batch = BatchConfig::new(template, 4);
        batch.starts.clear();
        match run_batch(&batch, &spec) {
            Err(SimError::InvalidBatch { reason }) => assert!(reason.contains("starts")),
            other => panic!("expected InvalidBatch, got {other:?}"),
        }
    }

    #[test]
    fn a_template_without_conflicting_vehicles_is_a_typed_error() {
        let mut template = EpisodeConfig::paper_default(0);
        let spec = StackSpec::pure_teacher_conservative(&template).unwrap();
        template.others.clear();
        match run_batch(&BatchConfig::new(template, 4), &spec) {
            Err(SimError::InvalidBatch { reason }) => assert!(reason.starts_with("others")),
            other => panic!("expected InvalidBatch, got {other:?}"),
        }
    }

    #[test]
    fn zero_episodes_is_a_typed_error() {
        let template = EpisodeConfig::paper_default(0);
        let spec = StackSpec::pure_teacher_conservative(&template).unwrap();
        let batch = BatchConfig::new(template, 0);
        assert!(matches!(
            run_batch(&batch, &spec),
            Err(SimError::InvalidBatch { .. })
        ));
    }

    #[test]
    fn episodes_cycle_the_start_grid() {
        let batch = BatchConfig::new(EpisodeConfig::paper_default(0), 25);
        assert_eq!(batch.episode(0).others[0].start_shared, 50.5);
        assert_eq!(batch.episode(19).others[0].start_shared, 60.0);
        assert_eq!(batch.episode(20).others[0].start_shared, 50.5);
        assert_eq!(batch.episode(3).seed, 3);
    }
}
