use cv_rng::SplitMix64;

use crate::{simd, Activation, Matrix, NnError};

/// A fully connected layer `y = σ(x·W + b)`.
///
/// `W` is `in_dim × out_dim`; inputs are batches with samples as rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    weights: Matrix,
    bias: Vec<f64>,
    activation: Activation,
}

impl Dense {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        rng: &mut SplitMix64,
    ) -> Self {
        Self {
            weights: Matrix::xavier_uniform(in_dim, out_dim, rng),
            bias: vec![0.0; out_dim],
            activation,
        }
    }

    /// Creates a layer from explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `bias.len() != weights.cols()`.
    pub fn from_parts(
        weights: Matrix,
        bias: Vec<f64>,
        activation: Activation,
    ) -> Result<Self, NnError> {
        if bias.len() != weights.cols() {
            return Err(NnError::ShapeMismatch {
                context: format!("dense bias {} vs out_dim {}", bias.len(), weights.cols()),
            });
        }
        Ok(Self {
            weights,
            bias,
            activation,
        })
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weights.cols()
    }

    /// The activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// The weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The bias vector.
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Forward pass on a batch: the test suite's allocating oracle. Per
    /// output element, an ascending-`k` accumulation with zero-skip, then
    /// `+ b`, then `σ` — the chain the single-row kernel behind
    /// [`crate::Mlp::predict_into`] reproduces to the bit.
    #[cfg(test)]
    pub(crate) fn forward(&self, x: &Matrix) -> Result<Matrix, NnError> {
        let z = x.matmul(&self.weights)?.add_row_broadcast(&self.bias)?;
        Ok(z.map(|v| self.activation.apply(v)))
    }

    /// Training's fused forward pass: the pre-activations into `pre` (kept
    /// for the backward pass, [`Dense::backward_in_place`]), then one
    /// activation sweep into `out`. Per element it runs the chain of the
    /// inference kernels (ascending-`k` product, `+ b`, `σ`).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `x.cols() != in_dim`.
    pub(crate) fn forward_cached_into(
        &self,
        x: &Matrix,
        pre: &mut Matrix,
        out: &mut Matrix,
    ) -> Result<(), NnError> {
        x.matmul_into(&self.weights, pre)?;
        for row in pre.as_mut_slice().chunks_exact_mut(self.bias.len().max(1)) {
            for (v, b) in row.iter_mut().zip(&self.bias) {
                *v += b;
            }
        }
        out.reset_zeroed(pre.rows(), pre.cols());
        out.as_mut_slice().copy_from_slice(pre.as_slice());
        simd::activate(self.activation, out.as_mut_slice());
        Ok(())
    }

    /// Backward pass: given `d_out = ∂L/∂y`, writes `∂L/∂z` into `d_pre`,
    /// the parameter gradients into `d_weights`/`d_bias` and `∂L/∂x` into
    /// `d_input`, all caller-owned buffers. `input`/`pre`/`out` are the
    /// forward cache (as produced by [`Dense::forward_cached_into`]), so
    /// `σ′` comes from the cached activation instead of a second `σ`.
    /// `xᵀ·δ` runs transpose-free ([`Matrix::tr_matmul_into`] streams the
    /// batch×in input in place, the largest matrix in the pass); `δ·Wᵀ`
    /// stages the small weight transpose in `w_t`, which measures faster
    /// (see [`Matrix::matmul_tr_into`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn backward_in_place(
        &self,
        input: &Matrix,
        pre: &Matrix,
        out: &Matrix,
        d_out: &Matrix,
        d_pre: &mut Matrix,
        d_weights: &mut Matrix,
        d_bias: &mut Vec<f64>,
        w_t: &mut Matrix,
        d_input: &mut Matrix,
    ) -> Result<(), NnError> {
        if d_out.rows() != pre.rows() || d_out.cols() != pre.cols() {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "backward: d_out {}x{} vs pre {}x{}",
                    d_out.rows(),
                    d_out.cols(),
                    pre.rows(),
                    pre.cols()
                ),
            });
        }
        d_pre.reset_zeroed(pre.rows(), pre.cols());
        for (((dp, &g), &z), &y) in d_pre
            .as_mut_slice()
            .iter_mut()
            .zip(d_out.as_slice())
            .zip(pre.as_slice())
            .zip(out.as_slice())
        {
            *dp = g * self.activation.derivative_from(z, y);
        }
        input.tr_matmul_into(d_pre, d_weights)?;
        d_pre.column_sums_into(d_bias);
        d_pre.matmul_tr_into(&self.weights, w_t, d_input)?;
        Ok(())
    }

    /// Mutable access to the parameters for in-place optimizer updates.
    pub(crate) fn params_mut(&mut self) -> (&mut Matrix, &mut [f64]) {
        (&mut self.weights, &mut self.bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> Dense {
        let mut rng = SplitMix64::seed_from_u64(1);
        Dense::new(3, 2, Activation::Tanh, &mut rng)
    }

    #[test]
    fn forward_shapes() {
        let l = layer();
        let x = Matrix::zeros(5, 3);
        let y = l.forward(&x).unwrap();
        assert_eq!((y.rows(), y.cols()), (5, 2));
        assert!(l.forward(&Matrix::zeros(5, 4)).is_err());
    }

    #[test]
    fn zero_weights_give_bias_through_activation() {
        let l = Dense::from_parts(Matrix::zeros(2, 1), vec![0.7], Activation::Identity).unwrap();
        let y = l
            .forward(&Matrix::from_rows(&[&[3.0, -1.0]]).unwrap())
            .unwrap();
        assert!((y.get(0, 0) - 0.7).abs() < 1e-12);
    }

    /// Finite-difference gradient check of the backward pass on a single
    /// layer.
    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = SplitMix64::seed_from_u64(7);
        let l = Dense::new(3, 2, Activation::Tanh, &mut rng);
        let x = Matrix::from_rows(&[&[0.3, -0.5, 0.9], &[-0.1, 0.8, 0.2]]).unwrap();
        // The loss is the mean of squares of outputs; dL/dy = 2y/N.
        let n = 4.0; // 2 rows * 2 cols
        let (mut pre, mut y) = (Matrix::default(), Matrix::default());
        l.forward_cached_into(&x, &mut pre, &mut y).unwrap();
        let mut d_out = y.clone();
        for v in d_out.as_mut_slice() {
            *v *= 2.0 / n;
        }
        let (mut d_pre, mut d_w, mut w_t, mut d_x) = Default::default();
        let mut d_b = Vec::new();
        l.backward_in_place(
            &x, &pre, &y, &d_out, &mut d_pre, &mut d_w, &mut d_b, &mut w_t, &mut d_x,
        )
        .unwrap();

        let h = 1e-6;
        let zeros = Matrix::zeros(2, 2);
        let loss = |layer: &Dense, input: &Matrix| {
            crate::train::mse(&layer.forward(input).unwrap(), &zeros).unwrap()
        };

        // Weight gradients.
        for r in 0..3 {
            for c in 0..2 {
                let mut lp = l.clone();
                let mut w = lp.weights.clone();
                w.set(r, c, w.get(r, c) + h);
                lp.weights = w;
                let mut lm = l.clone();
                let mut w = lm.weights.clone();
                w.set(r, c, w.get(r, c) - h);
                lm.weights = w;
                let fd = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
                assert!(
                    (d_w.get(r, c) - fd).abs() < 1e-5,
                    "dW[{r}][{c}]: {} vs {fd}",
                    d_w.get(r, c)
                );
            }
        }
        // Bias gradients.
        assert_eq!(d_b.len(), 2);
        for (c, db) in d_b.iter().enumerate() {
            let mut lp = l.clone();
            lp.bias[c] += h;
            let mut lm = l.clone();
            lm.bias[c] -= h;
            let fd = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
            assert!((db - fd).abs() < 1e-5);
        }
        // Input gradients.
        for r in 0..2 {
            for c in 0..3 {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + h);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - h);
                let fd = (loss(&l, &xp) - loss(&l, &xm)) / (2.0 * h);
                assert!((d_x.get(r, c) - fd).abs() < 1e-5);
            }
        }
    }
}
