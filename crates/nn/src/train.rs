use cv_rng::{Rng, SplitMix64};

use crate::optimizer::LayerOptState;
use crate::{Matrix, Mlp, NnError, Optimizer};

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of full passes over the data.
    pub epochs: usize,
    /// Mini-batch size (clamped to the dataset size).
    pub batch_size: usize,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 100,
            batch_size: 64,
            seed: 0,
        }
    }
}

/// Mini-batch gradient-descent trainer for [`Mlp`]s: mean-squared-error
/// loss, Adam updates, a fresh shuffle every epoch.
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

    /// Trains `net` on inputs `x` (N×in) and targets `y` (N×out), returning
    /// the per-epoch mean training loss.
    ///
    /// Forward caches, gradients and optimizer updates all run through
    /// preallocated `FitScratch` buffers, so after the first mini-batches
    /// have grown them an epoch performs no heap allocation (DESIGN.md
    /// §13).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidTrainingData`] if `x`/`y` row counts differ
    /// or the dataset is empty, and [`NnError::ShapeMismatch`] if the column
    /// counts do not match the network.
    pub fn fit(&self, net: &mut Mlp, x: &Matrix, y: &Matrix) -> Result<Vec<f64>, NnError> {
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
        let mut rng = SplitMix64::seed_from_u64(self.config.seed);
        let batch = self.config.batch_size.clamp(1, x.rows());
        let mut states: Vec<LayerOptState> = net
            .layers()
            .iter()
            .map(|l| LayerOptState::new(l.in_dim(), l.out_dim()))
            .collect();
        let mut order: Vec<usize> = (0..x.rows()).collect();
        let mut history = Vec::with_capacity(self.config.epochs);

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
                epoch_loss += self.step(net, &xb, &yb, &mut states, &mut scratch)?;
                batches += 1;
            }
            history.push(epoch_loss / batches as f64);
        }
        Ok(history)
    }

    /// One mini-batch step: forward with caches, MSE loss, then backward
    /// through the stack, updating each layer as its gradients are ready.
    fn step(
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
        let loss = mse(&s.acts[n_layers - 1], yb)?;
        mse_gradient_into(&s.acts[n_layers - 1], yb, &mut s.grad);
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

/// Mean squared error of predictions `y_hat` against targets `y`, summed
/// in one ascending pass over `(ŷ−y)²`.
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] if the shapes differ.
pub(crate) fn mse(y_hat: &Matrix, y: &Matrix) -> Result<f64, NnError> {
    if y_hat.rows() != y.rows() || y_hat.cols() != y.cols() {
        return Err(NnError::ShapeMismatch {
            context: format!(
                "mse: {}x{} vs {}x{}",
                y_hat.rows(),
                y_hat.cols(),
                y.rows(),
                y.cols()
            ),
        });
    }
    let n = y_hat.as_slice().len();
    if n == 0 {
        return Ok(0.0);
    }
    let sum: f64 = y_hat
        .as_slice()
        .iter()
        .zip(y.as_slice())
        .map(|(a, b)| {
            let d = a - b;
            d * d
        })
        .sum();
    Ok(sum / n as f64)
}

/// Gradient `∂MSE/∂ŷ = (ŷ−y) · (2/N)` into a reusable buffer. The shapes
/// must agree (as [`mse`] has checked).
fn mse_gradient_into(y_hat: &Matrix, y: &Matrix, out: &mut Matrix) {
    let k = 2.0 / (y.rows() * y.cols()) as f64;
    out.reset_zeroed(y_hat.rows(), y_hat.cols());
    for ((o, &a), &b) in out
        .as_mut_slice()
        .iter_mut()
        .zip(y_hat.as_slice())
        .zip(y.as_slice())
    {
        *o = (a - b) * k;
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
    fn training_is_deterministic_given_seeds() {
        let (x, y) = toy_regression();
        let run = || {
            let mut net = Mlp::new(&[1, 8, 1], Activation::Tanh, Activation::Identity, 3).unwrap();
            let cfg = TrainConfig {
                epochs: 20,
                batch_size: 8,
                seed: 11,
            };
            Trainer::new(Optimizer::adam(0.01), cfg)
                .fit(&mut net, &x, &y)
                .unwrap();
            net
        };
        assert_eq!(run(), run());
    }

    /// FNV-1a over the bits of every weight and bias, layer by layer, then
    /// of every per-epoch loss.
    fn trajectory_digest(net: &Mlp, history: &[f64]) -> u64 {
        let mut h = cv_rng::Fnv1a::new();
        for layer in net.layers() {
            for w in layer.weights().as_slice() {
                h.write_u64(w.to_bits());
            }
            for b in layer.bias() {
                h.write_u64(b.to_bits());
            }
        }
        h.write_u64(history.len() as u64);
        for loss in history {
            h.write_u64(loss.to_bits());
        }
        h.finish()
    }

    /// Golden digests of two fixed Adam runs on [`toy_regression`]: full
    /// mini-batches (8 of 64) and a ragged last batch (12 of 64). Computed
    /// at commit `60bfaca`, where `fit` was still checked bit for bit
    /// against an allocating reference trainer, so they pin that trajectory
    /// across commits: any change that moves one bit of a weight, a bias
    /// or an epoch loss fails here.
    #[test]
    fn fit_reproduces_its_golden_trajectory() {
        let (x, y) = toy_regression();
        for (batch_size, golden) in [(8, 0xfa62_b94d_8be5_512c), (12, 0xdb35_98e0_f90b_5807)] {
            let cfg = TrainConfig {
                epochs: 30,
                batch_size,
                seed: 11,
            };
            let mut net =
                Mlp::new(&[1, 8, 8, 1], Activation::Tanh, Activation::Identity, 3).unwrap();
            let history = Trainer::new(Optimizer::adam(0.01), cfg)
                .fit(&mut net, &x, &y)
                .unwrap();
            let got = trajectory_digest(&net, &history);
            assert_eq!(got, golden, "batch {batch_size}: digest {got:#018x}");
        }
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
    fn mismatched_target_columns_error() {
        let (x, _) = toy_regression();
        let y = Matrix::zeros(x.rows(), 2);
        let mut net = Mlp::new(&[1, 4, 1], Activation::Tanh, Activation::Identity, 0).unwrap();
        let res = Trainer::new(Optimizer::adam(0.01), TrainConfig::default()).fit(&mut net, &x, &y);
        assert!(matches!(res, Err(NnError::ShapeMismatch { .. })));
    }

    #[test]
    fn empty_data_errors() {
        let x = Matrix::zeros(0, 2);
        let y = Matrix::zeros(0, 1);
        let mut net = Mlp::new(&[2, 4, 1], Activation::Tanh, Activation::Identity, 0).unwrap();
        let res = Trainer::new(Optimizer::adam(0.01), TrainConfig::default()).fit(&mut net, &x, &y);
        assert!(matches!(res, Err(NnError::InvalidTrainingData { .. })));
    }

    #[test]
    fn mse_of_equal_is_zero() {
        let y = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        assert_eq!(mse(&y, &y).unwrap(), 0.0);
    }

    #[test]
    fn mse_known_value() {
        let y_hat = Matrix::from_rows(&[&[1.0], &[3.0]]).unwrap();
        let y = Matrix::from_rows(&[&[0.0], &[0.0]]).unwrap();
        assert_eq!(mse(&y_hat, &y).unwrap(), 5.0);
    }

    #[test]
    fn mse_rejects_shape_mismatch() {
        assert!(mse(&Matrix::zeros(2, 2), &Matrix::zeros(2, 1)).is_err());
    }

    #[test]
    fn mse_gradient_matches_finite_difference() {
        let y_hat = Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.0]]).unwrap();
        let y = Matrix::from_rows(&[&[0.0, 1.0], &[1.5, -0.5]]).unwrap();
        let mut g = Matrix::zeros(0, 0);
        mse_gradient_into(&y_hat, &y, &mut g);
        let h = 1e-6;
        for r in 0..2 {
            for c in 0..2 {
                let mut p = y_hat.clone();
                p.set(r, c, y_hat.get(r, c) + h);
                let mut m = y_hat.clone();
                m.set(r, c, y_hat.get(r, c) - h);
                let fd = (mse(&p, &y).unwrap() - mse(&m, &y).unwrap()) / (2.0 * h);
                assert!((g.get(r, c) - fd).abs() < 1e-6);
            }
        }
    }
}
