use cv_rng::{Rng, SplitMix64};

use crate::optimizer::LayerOptState;
use crate::{Loss, Matrix, Mlp, NnError, Optimizer};

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of full passes over the data (an upper bound when early
    /// stopping is enabled).
    pub epochs: usize,
    /// Mini-batch size (clamped to the dataset size).
    pub batch_size: usize,
    /// Shuffling seed.
    pub seed: u64,
    /// Loss function.
    pub loss: Loss,
    /// Fraction of the data held out for validation (0 disables).
    pub validation_fraction: f64,
    /// Early stopping: abort after this many epochs without validation
    /// improvement and restore the best weights. Requires
    /// `validation_fraction > 0`.
    pub patience: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 100,
            batch_size: 64,
            seed: 0,
            loss: Loss::MeanSquaredError,
            validation_fraction: 0.0,
            patience: None,
        }
    }
}

/// Mini-batch gradient-descent trainer for [`Mlp`]s.
///
/// # Example
///
/// ```
/// use cv_nn::{Activation, Matrix, Mlp, Optimizer, TrainConfig, Trainer};
///
/// // Fit XOR.
/// let x = Matrix::from_rows(&[&[0., 0.], &[0., 1.], &[1., 0.], &[1., 1.]])?;
/// let y = Matrix::from_rows(&[&[0.], &[1.], &[1.], &[0.]])?;
/// let mut net = Mlp::new(&[2, 8, 1], Activation::Tanh, Activation::Identity, 1)?;
/// let cfg = TrainConfig { epochs: 500, batch_size: 4, ..TrainConfig::default() };
/// let history = Trainer::new(Optimizer::adam(0.05), cfg).fit(&mut net, &x, &y)?;
/// assert!(history.last().unwrap() < &0.05);
/// # Ok::<(), cv_nn::NnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Trainer {
    optimizer: Optimizer,
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(optimizer: Optimizer, config: TrainConfig) -> Self {
        Self { optimizer, config }
    }

    /// The configured optimizer.
    pub fn optimizer(&self) -> Optimizer {
        self.optimizer
    }

    /// The configured hyperparameters.
    pub fn config(&self) -> TrainConfig {
        self.config
    }

    /// Trains `net` on inputs `x` (N×in) and targets `y` (N×out), returning
    /// the per-epoch mean training loss.
    ///
    /// In-place hot loop: forward caches, gradients, and optimizer updates
    /// all run through preallocated [`FitScratch`] buffers, so after the
    /// first batch an epoch performs no per-mini-batch heap allocation. The
    /// weight trajectory is bit-identical to the allocating reference
    /// [`Trainer::fit_alloc`] (every kernel preserves per-element op order —
    /// see DESIGN.md §13).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidTrainingData`] if `x`/`y` row counts differ
    /// or the dataset is empty, and [`NnError::ShapeMismatch`] if the column
    /// counts do not match the network.
    pub fn fit(&self, net: &mut Mlp, x: &Matrix, y: &Matrix) -> Result<Vec<f64>, NnError> {
        self.fit_impl(net, x, y, true)
    }

    /// Allocating reference trainer: identical schedule and arithmetic to
    /// [`Trainer::fit`], but every mini-batch allocates its caches and
    /// deltas afresh. A test reference: the equivalence tests here and in
    /// `cv-planner`'s cloning tests check [`Trainer::fit`] against it bit
    /// for bit.
    ///
    /// # Errors
    ///
    /// Same contract as [`Trainer::fit`].
    pub fn fit_alloc(&self, net: &mut Mlp, x: &Matrix, y: &Matrix) -> Result<Vec<f64>, NnError> {
        self.fit_impl(net, x, y, false)
    }

    fn fit_impl(
        &self,
        net: &mut Mlp,
        x: &Matrix,
        y: &Matrix,
        in_place: bool,
    ) -> Result<Vec<f64>, NnError> {
        if x.rows() == 0 {
            return Err(NnError::InvalidTrainingData {
                context: "empty dataset".into(),
            });
        }
        if x.rows() != y.rows() {
            return Err(NnError::InvalidTrainingData {
                context: format!("{} inputs vs {} targets", x.rows(), y.rows()),
            });
        }
        if !(0.0..1.0).contains(&self.config.validation_fraction) {
            return Err(NnError::InvalidTrainingData {
                context: format!(
                    "validation fraction {} not in [0, 1)",
                    self.config.validation_fraction
                ),
            });
        }
        let mut rng = SplitMix64::seed_from_u64(self.config.seed);

        // Optional validation hold-out (deterministic shuffle, tail split).
        let early_stopping =
            self.config.patience.is_some() && self.config.validation_fraction > 0.0;
        let mut all: Vec<usize> = (0..x.rows()).collect();
        let (train_idx, val_idx): (Vec<usize>, Vec<usize>) = if early_stopping {
            rng.shuffle(&mut all);
            let val_n = ((x.rows() as f64 * self.config.validation_fraction) as usize)
                .clamp(1, x.rows() - 1);
            let split = x.rows() - val_n;
            (all[..split].to_vec(), all[split..].to_vec())
        } else {
            (all, Vec::new())
        };
        let (x_val, y_val) = if early_stopping {
            (x.select_rows(&val_idx), y.select_rows(&val_idx))
        } else {
            (Matrix::zeros(0, 0), Matrix::zeros(0, 0))
        };

        let batch = self.config.batch_size.clamp(1, train_idx.len().max(1));
        let mut states: Vec<LayerOptState> = net
            .layers()
            .iter()
            .map(|l| LayerOptState::new(l.in_dim(), l.out_dim()))
            .collect();
        let mut order = train_idx;
        let mut history = Vec::with_capacity(self.config.epochs);
        let mut best: Option<(f64, Mlp)> = None;
        let mut stale_epochs = 0usize;

        // Mini-batch buffers reused across every batch of every epoch.
        let mut xb = Matrix::zeros(0, 0);
        let mut yb = Matrix::zeros(0, 0);
        let mut scratch = FitScratch::for_net(net);
        for _ in 0..self.config.epochs {
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(batch) {
                x.select_rows_into(chunk, &mut xb);
                y.select_rows_into(chunk, &mut yb);
                epoch_loss += if in_place {
                    self.step_in_place(net, &xb, &yb, &mut states, &mut scratch)?
                } else {
                    self.step_alloc(net, &xb, &yb, &mut states)?
                };
                batches += 1;
            }
            history.push(epoch_loss / batches.max(1) as f64);

            if early_stopping {
                let val_loss = self.config.loss.value(&net.forward(&x_val)?, &y_val)?;
                let improved = best.as_ref().is_none_or(|(b, _)| val_loss < *b);
                if improved {
                    best = Some((val_loss, net.clone()));
                    stale_epochs = 0;
                } else {
                    stale_epochs += 1;
                    if stale_epochs >= self.config.patience.expect("early stopping") {
                        break;
                    }
                }
            }
        }
        if let Some((_, best_net)) = best {
            *net = best_net; // restore the best validation weights
        }
        Ok(history)
    }

    /// One mini-batch step through the allocating reference path.
    fn step_alloc(
        &self,
        net: &mut Mlp,
        xb: &Matrix,
        yb: &Matrix,
        states: &mut [LayerOptState],
    ) -> Result<f64, NnError> {
        let (pred, caches) = net.forward_cached(xb)?;
        let loss = self.config.loss.value(&pred, yb)?;
        let mut grad = self.config.loss.gradient(&pred, yb)?;
        // Backward through the stack, updating as we go.
        for (idx, cache) in caches.iter().enumerate().rev() {
            let layer = &net.layers()[idx];
            let (d_input, grads) = layer.backward(cache, &grad)?;
            let (dw, db) = states[idx].update(&self.optimizer, &grads.d_weights, &grads.d_bias)?;
            net.layers_mut()[idx].apply_update(&dw, &db)?;
            grad = d_input;
        }
        Ok(loss)
    }

    /// One mini-batch step through the scratch-backed in-place path.
    fn step_in_place(
        &self,
        net: &mut Mlp,
        xb: &Matrix,
        yb: &Matrix,
        states: &mut [LayerOptState],
        s: &mut FitScratch,
    ) -> Result<f64, NnError> {
        let n_layers = net.layers().len();
        // Forward, caching pre-activations and activations per layer.
        for idx in 0..n_layers {
            let (done, rest) = s.acts.split_at_mut(idx);
            let input: &Matrix = if idx == 0 { xb } else { &done[idx - 1] };
            net.layers()[idx].forward_cached_into(input, &mut s.pres[idx], &mut rest[0])?;
        }
        let loss = self.config.loss.value(&s.acts[n_layers - 1], yb)?;
        self.config
            .loss
            .gradient_into(&s.acts[n_layers - 1], yb, &mut s.grad)?;
        // Backward through the stack, updating as we go.
        for idx in (0..n_layers).rev() {
            {
                let input: &Matrix = if idx == 0 { xb } else { &s.acts[idx - 1] };
                net.layers()[idx].backward_in_place(
                    input,
                    &s.pres[idx],
                    &s.acts[idx],
                    &s.grad,
                    &mut s.d_pre,
                    &mut s.d_w,
                    &mut s.d_b,
                    &mut s.w_t,
                    &mut s.d_inp,
                )?;
            }
            let (w, b) = net.layers_mut()[idx].params_mut();
            states[idx].update_in_place(&self.optimizer, &s.d_w, &s.d_b, w, b)?;
            std::mem::swap(&mut s.grad, &mut s.d_inp);
        }
        Ok(loss)
    }
}

/// Reusable buffers for the in-place training step: per-layer forward
/// caches plus the backward-pass intermediates. Everything regrows on
/// demand (`reset_zeroed`), so after the first full-size mini-batch no
/// buffer reallocates.
#[derive(Debug, Clone, Default)]
struct FitScratch {
    /// Per-layer activations (`acts[l]` is the output of layer `l`).
    acts: Vec<Matrix>,
    /// Per-layer pre-activations `z = x·W + b`.
    pres: Vec<Matrix>,
    /// Gradient flowing backward (`∂L/∂y` of the current layer).
    grad: Matrix,
    /// `∂L/∂z` of the current layer.
    d_pre: Matrix,
    /// `∂L/∂x` of the current layer (swapped into `grad`).
    d_inp: Matrix,
    /// Weight gradient.
    d_w: Matrix,
    /// Bias gradient.
    d_b: Vec<f64>,
    /// Staging buffer for the weight transpose in `δ·Wᵀ`.
    w_t: Matrix,
}

impl FitScratch {
    fn for_net(net: &Mlp) -> Self {
        let mut s = Self::default();
        s.acts.resize_with(net.layers().len(), Matrix::default);
        s.pres.resize_with(net.layers().len(), Matrix::default);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Activation;

    fn toy_regression() -> (Matrix, Matrix) {
        // y = sin(2x) on [-1, 1].
        let n = 64;
        let xs: Vec<f64> = (0..n)
            .map(|i| -1.0 + 2.0 * i as f64 / (n - 1) as f64)
            .collect();
        let x = Matrix::from_vec(n, 1, xs.clone()).unwrap();
        let y = Matrix::from_vec(n, 1, xs.iter().map(|v| (2.0 * v).sin()).collect()).unwrap();
        (x, y)
    }

    #[test]
    fn loss_decreases_on_regression_task() {
        let (x, y) = toy_regression();
        let mut net = Mlp::new(&[1, 16, 16, 1], Activation::Tanh, Activation::Identity, 2).unwrap();
        let cfg = TrainConfig {
            epochs: 150,
            batch_size: 16,
            ..TrainConfig::default()
        };
        let hist = Trainer::new(Optimizer::adam(0.01), cfg)
            .fit(&mut net, &x, &y)
            .unwrap();
        assert!(hist[0] > *hist.last().unwrap());
        assert!(
            *hist.last().unwrap() < 0.01,
            "final loss {}",
            hist.last().unwrap()
        );
    }

    #[test]
    fn sgd_also_learns() {
        let (x, y) = toy_regression();
        let mut net = Mlp::new(&[1, 16, 1], Activation::Tanh, Activation::Identity, 4).unwrap();
        let cfg = TrainConfig {
            epochs: 300,
            batch_size: 16,
            ..TrainConfig::default()
        };
        let hist = Trainer::new(Optimizer::sgd(0.05), cfg)
            .fit(&mut net, &x, &y)
            .unwrap();
        assert!(*hist.last().unwrap() < hist[0]);
    }

    #[test]
    fn training_is_deterministic_given_seeds() {
        let (x, y) = toy_regression();
        let run = || {
            let mut net = Mlp::new(&[1, 8, 1], Activation::Tanh, Activation::Identity, 3).unwrap();
            let cfg = TrainConfig {
                epochs: 20,
                batch_size: 8,
                seed: 11,
                ..TrainConfig::default()
            };
            Trainer::new(Optimizer::adam(0.01), cfg)
                .fit(&mut net, &x, &y)
                .unwrap();
            net
        };
        assert_eq!(run(), run());
    }

    /// The in-place trainer must walk the exact same weight trajectory as
    /// the allocating reference — identical per-epoch losses and
    /// bit-identical final parameters, for both optimizers and with early
    /// stopping in play.
    #[test]
    fn fit_is_bit_identical_to_fit_alloc() {
        let (x, y) = toy_regression();
        for (opt, patience, val_frac) in [
            (Optimizer::adam(0.01), None, 0.0),
            (Optimizer::sgd(0.05), None, 0.0),
            (Optimizer::adam(0.01), Some(5), 0.25),
        ] {
            let cfg = TrainConfig {
                epochs: 30,
                batch_size: 8,
                seed: 11,
                validation_fraction: val_frac,
                patience,
                ..TrainConfig::default()
            };
            let mut net_a =
                Mlp::new(&[1, 8, 8, 1], Activation::Tanh, Activation::Identity, 3).unwrap();
            let mut net_b = net_a.clone();
            let hist_a = Trainer::new(opt, cfg).fit(&mut net_a, &x, &y).unwrap();
            let hist_b = Trainer::new(opt, cfg)
                .fit_alloc(&mut net_b, &x, &y)
                .unwrap();
            assert_eq!(hist_a.len(), hist_b.len(), "{opt:?}");
            for (a, b) in hist_a.iter().zip(&hist_b) {
                assert_eq!(a.to_bits(), b.to_bits(), "{opt:?}");
            }
            for (la, lb) in net_a.layers().iter().zip(net_b.layers()) {
                for (a, b) in la.weights().as_slice().iter().zip(lb.weights().as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{opt:?}");
                }
                for (a, b) in la.bias().iter().zip(lb.bias()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{opt:?}");
                }
            }
        }
    }

    #[test]
    fn early_stopping_halts_before_the_epoch_budget() {
        let (x, y) = toy_regression();
        let mut net = Mlp::new(&[1, 16, 1], Activation::Tanh, Activation::Identity, 6).unwrap();
        let cfg = TrainConfig {
            epochs: 2000,
            batch_size: 16,
            validation_fraction: 0.25,
            patience: Some(8),
            ..TrainConfig::default()
        };
        let hist = Trainer::new(Optimizer::adam(0.01), cfg)
            .fit(&mut net, &x, &y)
            .unwrap();
        assert!(
            hist.len() < 2000,
            "early stopping never fired ({} epochs)",
            hist.len()
        );
        assert!(*hist.last().unwrap() < hist[0]);
    }

    #[test]
    fn invalid_validation_fraction_errors() {
        let (x, y) = toy_regression();
        let mut net = Mlp::new(&[1, 8, 1], Activation::Tanh, Activation::Identity, 0).unwrap();
        let cfg = TrainConfig {
            validation_fraction: 1.5,
            patience: Some(3),
            ..TrainConfig::default()
        };
        let res = Trainer::new(Optimizer::adam(0.01), cfg).fit(&mut net, &x, &y);
        assert!(matches!(res, Err(NnError::InvalidTrainingData { .. })));
    }

    #[test]
    fn mismatched_data_errors() {
        let x = Matrix::zeros(4, 2);
        let y = Matrix::zeros(3, 1);
        let mut net = Mlp::new(&[2, 4, 1], Activation::Tanh, Activation::Identity, 0).unwrap();
        let res = Trainer::new(Optimizer::adam(0.01), TrainConfig::default()).fit(&mut net, &x, &y);
        assert!(matches!(res, Err(NnError::InvalidTrainingData { .. })));
    }

    #[test]
    fn empty_data_errors() {
        let x = Matrix::zeros(0, 2);
        let y = Matrix::zeros(0, 1);
        let mut net = Mlp::new(&[2, 4, 1], Activation::Tanh, Activation::Identity, 0).unwrap();
        let res = Trainer::new(Optimizer::adam(0.01), TrainConfig::default()).fit(&mut net, &x, &y);
        assert!(matches!(res, Err(NnError::InvalidTrainingData { .. })));
    }
}
