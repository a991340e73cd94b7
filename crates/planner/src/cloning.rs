use cv_dynamics::VehicleLimits;
use cv_nn::{Activation, Matrix, Mlp, NnError, Optimizer, TrainConfig, Trainer};
use safe_shield::Observation;

use crate::{FeatureScaling, NnPlanner};

/// A behaviour-cloning dataset: observations paired with the teacher's
/// acceleration commands.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    samples: Vec<(Observation, f64)>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one `(observation, teacher acceleration)` pair.
    pub fn push(&mut self, obs: Observation, accel: f64) {
        self.samples.push((obs, accel));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples have been collected.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterates over the samples.
    pub fn iter(&self) -> std::slice::Iter<'_, (Observation, f64)> {
        self.samples.iter()
    }

    /// Converts into `(inputs, targets)` matrices with the given scaling and
    /// output convention of [`NnPlanner`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidTrainingData`] if the dataset is empty.
    pub fn to_matrices(
        &self,
        scaling: &FeatureScaling,
        limits: &VehicleLimits,
    ) -> Result<(Matrix, Matrix), NnError> {
        if self.samples.is_empty() {
            return Err(NnError::InvalidTrainingData {
                context: "empty behaviour-cloning dataset".into(),
            });
        }
        let n = self.samples.len();
        let mut x = Vec::with_capacity(n * Observation::FEATURES);
        let mut y = Vec::with_capacity(n);
        for (obs, accel) in &self.samples {
            x.extend_from_slice(&NnPlanner::scaled_features(scaling, obs));
            y.push(NnPlanner::accel_to_output(limits, *accel));
        }
        Ok((
            Matrix::from_vec(n, Observation::FEATURES, x)?,
            Matrix::from_vec(n, 1, y)?,
        ))
    }
}

impl Extend<(Observation, f64)> for Dataset {
    fn extend<I: IntoIterator<Item = (Observation, f64)>>(&mut self, iter: I) {
        self.samples.extend(iter);
    }
}

impl FromIterator<(Observation, f64)> for Dataset {
    fn from_iter<I: IntoIterator<Item = (Observation, f64)>>(iter: I) -> Self {
        Self {
            samples: iter.into_iter().collect(),
        }
    }
}

/// Hyperparameters for behaviour cloning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloneConfig {
    /// Hidden layer sizes (the input/output sizes are fixed at 5/1).
    pub hidden: [usize; 2],
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Weight-init and shuffling seed.
    pub seed: u64,
}

impl Default for CloneConfig {
    fn default() -> Self {
        Self {
            hidden: [32, 32],
            epochs: 60,
            batch_size: 128,
            learning_rate: 5e-3,
            seed: 0,
        }
    }
}

/// Fits an [`NnPlanner`] to a teacher [`Dataset`] by supervised regression
/// (behaviour cloning). Returns the planner and the final training loss.
///
/// # Errors
///
/// Returns an [`NnError`] if the dataset is empty or training fails.
///
/// # Example
///
/// ```
/// use cv_planner::{clone_behaviour, CloneConfig, Dataset, FeatureScaling};
/// use cv_dynamics::{VehicleLimits, VehicleState};
/// use safe_shield::Observation;
///
/// let limits = VehicleLimits::new(0.0, 12.0, -6.0, 3.0)?;
/// let mut data = Dataset::new();
/// // A toy rule: always brake gently.
/// for i in 0..200 {
///     let obs = Observation::new(i as f64 * 0.05, VehicleState::new(-30.0, 8.0, 0.0), None);
///     data.push(obs, -1.0);
/// }
/// let cfg = CloneConfig { epochs: 30, ..CloneConfig::default() };
/// let (planner, loss) = clone_behaviour(&data, limits, FeatureScaling::left_turn(), cfg, "demo")?;
/// assert!(loss < 0.05);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn clone_behaviour(
    data: &Dataset,
    limits: VehicleLimits,
    scaling: FeatureScaling,
    config: CloneConfig,
    name: impl Into<String>,
) -> Result<(NnPlanner, f64), NnError> {
    let (x, y) = data.to_matrices(&scaling, &limits)?;
    let mut net = Mlp::new(
        &[Observation::FEATURES, config.hidden[0], config.hidden[1], 1],
        Activation::Tanh,
        Activation::Tanh,
        config.seed,
    )?;
    let train_cfg = TrainConfig {
        epochs: config.epochs,
        batch_size: config.batch_size,
        seed: config.seed ^ 0x5EED,
    };
    let history =
        Trainer::new(Optimizer::adam(config.learning_rate), train_cfg).fit(&mut net, &x, &y)?;
    let final_loss = *history.last().expect("at least one epoch");
    Ok((NnPlanner::new(net, limits, scaling, name), final_loss))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_dynamics::VehicleState;
    use cv_estimation::Interval;
    use safe_shield::Planner;

    fn limits() -> VehicleLimits {
        VehicleLimits::new(0.0, 12.0, -6.0, 3.0).unwrap()
    }

    /// A synthetic teacher: accelerate when the window is far, brake when it
    /// is close. The clone must reproduce the rule on held-out points.
    #[test]
    fn clone_learns_a_threshold_rule() {
        let mut data = Dataset::new();
        for i in 0..40 {
            for j in 0..40 {
                let p = -40.0 + i as f64;
                let w_start = 0.5 + j as f64 * 0.25;
                let obs = Observation::new(
                    0.0,
                    VehicleState::new(p, 8.0, 0.0),
                    Some(Interval::new(w_start, w_start + 2.0)),
                );
                let accel = if w_start > 6.0 { 2.0 } else { -3.0 };
                data.push(obs, accel);
            }
        }
        let cfg = CloneConfig {
            epochs: 80,
            seed: 3,
            ..CloneConfig::default()
        };
        let (mut planner, loss) =
            clone_behaviour(&data, limits(), FeatureScaling::left_turn(), cfg, "rule").unwrap();
        assert!(loss < 0.05, "training loss {loss}");
        // Held-out checks away from the threshold.
        let far = Observation::new(
            0.0,
            VehicleState::new(-20.5, 8.0, 0.0),
            Some(Interval::new(9.1, 11.1)),
        );
        let near = Observation::new(
            0.0,
            VehicleState::new(-20.5, 8.0, 0.0),
            Some(Interval::new(1.1, 3.1)),
        );
        assert!(planner.plan(&far) > 0.5, "far window -> accelerate");
        assert!(planner.plan(&near) < -1.0, "near window -> brake");
    }

    /// Golden digest of a fixed behaviour-cloning run: FNV-1a over the bits
    /// of every weight and bias of the cloned network, then of the final
    /// training loss. Computed at commit `60bfaca`, where this run was
    /// still checked bit for bit against an allocating reference trainer,
    /// so it pins the planners' training across commits; tier-1 runs it in
    /// release too.
    #[test]
    fn cloning_run_reproduces_its_golden_digest() {
        let mut data = Dataset::new();
        for i in 0..30 {
            for j in 0..10 {
                let obs = Observation::new(
                    i as f64 * 0.1,
                    VehicleState::new(-40.0 + i as f64, 8.0, 0.0),
                    Some(Interval::new(0.5 + j as f64 * 0.4, 2.5 + j as f64 * 0.4)),
                );
                data.push(obs, if j > 5 { 1.5 } else { -2.0 });
            }
        }
        let cfg = CloneConfig {
            epochs: 12,
            seed: 9,
            ..CloneConfig::default()
        };
        let (planner, loss) =
            clone_behaviour(&data, limits(), FeatureScaling::left_turn(), cfg, "golden").unwrap();
        let mut h = cv_rng::Fnv1a::new();
        for layer in planner.network().layers() {
            for w in layer.weights().as_slice() {
                h.write_u64(w.to_bits());
            }
            for b in layer.bias() {
                h.write_u64(b.to_bits());
            }
        }
        h.write_u64(loss.to_bits());
        let got = h.finish();
        assert_eq!(got, 0xb1cd_7deb_3dc1_e503, "digest {got:#018x}");
    }

    #[test]
    fn empty_dataset_errors() {
        let res = clone_behaviour(
            &Dataset::new(),
            limits(),
            FeatureScaling::left_turn(),
            CloneConfig::default(),
            "x",
        );
        assert!(matches!(res, Err(NnError::InvalidTrainingData { .. })));
    }

    #[test]
    fn dataset_collects_and_converts() {
        let data: Dataset = (0..10)
            .map(|i| {
                (
                    Observation::new(i as f64, VehicleState::at_rest(), None),
                    1.0,
                )
            })
            .collect();
        assert_eq!(data.len(), 10);
        let (x, y) = data
            .to_matrices(&FeatureScaling::left_turn(), &limits())
            .unwrap();
        assert_eq!(x.rows(), 10);
        assert_eq!(x.cols(), Observation::FEATURES);
        assert_eq!(y.rows(), 10);
        // accel 1.0 in [-6, 3] maps to (1+6)/9*2-1 = 0.555...
        assert!((y.get(0, 0) - (2.0 * 7.0 / 9.0 - 1.0)).abs() < 1e-12);
    }
}
