use crate::{Matrix, NnError};

/// Adam's first-moment decay.
const BETA1: f64 = 0.9;
/// Adam's second-moment decay.
const BETA2: f64 = 0.999;
/// Adam's numerical floor under `√v̂`.
const EPS: f64 = 1e-8;

/// The trainer's optimizer: Adam (Kingma & Ba) with bias-corrected
/// moments, `β₁ = 0.9`, `β₂ = 0.999` and `ε = 1e-8`; the learning rate is
/// the one setting. The [`crate::Trainer`] owns the per-parameter state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Optimizer {
    lr: f64,
}

impl Optimizer {
    /// Adam with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn adam(lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive, got {lr}");
        Optimizer { lr }
    }
}

/// Per-layer Adam moments.
#[derive(Debug, Clone)]
pub(crate) struct LayerOptState {
    mw: Matrix,
    vw: Matrix,
    mb: Vec<f64>,
    vb: Vec<f64>,
    step: u64,
}

impl LayerOptState {
    pub(crate) fn new(in_dim: usize, out_dim: usize) -> Self {
        Self {
            mw: Matrix::zeros(in_dim, out_dim),
            vw: Matrix::zeros(in_dim, out_dim),
            mb: vec![0.0; out_dim],
            vb: vec![0.0; out_dim],
            step: 0,
        }
    }

    /// One Adam step applied directly to `weights`/`bias`: per element
    /// `w += -lr·m̂/(√v̂+ε)`, with no intermediate delta allocated.
    pub(crate) fn update_in_place(
        &mut self,
        opt: &Optimizer,
        d_weights: &Matrix,
        d_bias: &[f64],
        weights: &mut Matrix,
        bias: &mut [f64],
    ) -> Result<(), NnError> {
        if d_weights.rows() != weights.rows()
            || d_weights.cols() != weights.cols()
            || d_bias.len() != bias.len()
        {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "in-place update: grads {}x{}/{} vs params {}x{}/{}",
                    d_weights.rows(),
                    d_weights.cols(),
                    d_bias.len(),
                    weights.rows(),
                    weights.cols(),
                    bias.len()
                ),
            });
        }
        let lr = opt.lr;
        self.step += 1;
        let t = self.step as f64;
        let bc1 = 1.0 - BETA1.powf(t);
        let bc2 = 1.0 - BETA2.powf(t);

        for (((w, &g), m), v) in weights
            .as_mut_slice()
            .iter_mut()
            .zip(d_weights.as_slice())
            .zip(self.mw.as_mut_slice())
            .zip(self.vw.as_mut_slice())
        {
            *m = *m * BETA1 + g * (1.0 - BETA1);
            *v = *v * BETA2 + (g * g) * (1.0 - BETA2);
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *w += -lr * m_hat / (v_hat.sqrt() + EPS);
        }
        for (i, (b, g)) in bias.iter_mut().zip(d_bias).enumerate() {
            self.mb[i] = BETA1 * self.mb[i] + (1.0 - BETA1) * g;
            self.vb[i] = BETA2 * self.vb[i] + (1.0 - BETA2) * g * g;
            let m_hat = self.mb[i] / bc1;
            let v_hat = self.vb[i] / bc2;
            *b += -lr * m_hat / (v_hat.sqrt() + EPS);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The weight and bias deltas of one update from zero parameters.
    fn step(st: &mut LayerOptState, opt: &Optimizer, g: f64, gb: f64) -> (f64, f64) {
        let mut w = Matrix::zeros(1, 1);
        let mut b = [0.0];
        st.update_in_place(
            opt,
            &Matrix::from_rows(&[&[g]]).unwrap(),
            &[gb],
            &mut w,
            &mut b,
        )
        .unwrap();
        (w.get(0, 0), b[0])
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the very first Adam step is ≈ lr * sign(g),
        // for the weights and the bias alike.
        let mut st = LayerOptState::new(1, 1);
        let (dw, db) = step(&mut st, &Optimizer::adam(0.01), 0.3, -2.0);
        assert!((dw + 0.01).abs() < 1e-6, "{dw}");
        assert!((db - 0.01).abs() < 1e-6, "{db}");
    }

    #[test]
    fn adam_steps_shrink_with_consistent_gradient() {
        let mut st = LayerOptState::new(1, 1);
        let opt = Optimizer::adam(0.01);
        let mut last = f64::MAX;
        for _ in 0..5 {
            let (dw, _) = step(&mut st, &opt, 1.0, 0.0);
            let mag = dw.abs();
            assert!(mag <= last + 1e-12);
            last = mag;
        }
    }

    #[test]
    #[should_panic]
    fn nonpositive_lr_panics() {
        let _ = Optimizer::adam(0.0);
    }

    #[test]
    fn update_in_place_rejects_shape_mismatch() {
        let mut st = LayerOptState::new(2, 2);
        let g = Matrix::zeros(2, 2);
        let mut w = Matrix::zeros(2, 1);
        let mut b = vec![0.0, 0.0];
        assert!(st
            .update_in_place(&Optimizer::adam(0.1), &g, &[0.0, 0.0], &mut w, &mut b)
            .is_err());
    }
}
