use cv_rng::SplitMix64;

use crate::scratch::BatchScratch;
use crate::{simd, Activation, Dense, Matrix, MlpScratch, NnError, LANE_WIDTH};

/// Precomputed lane-batched execution plan for an [`Mlp`].
///
/// Holds each layer's weights **transposed** (`out_dim × in_dim`, one
/// contiguous row per output feature) — the layout the broadcast-FMA lane
/// kernels stream — plus bias and activation. Built once per network by
/// [`Mlp::lane_plan`] and reused across every batched step; see
/// [`Mlp::forward_batch_into`].
#[derive(Debug, Clone)]
pub struct LanePlan {
    layers: Vec<LaneLayer>,
    input_dim: usize,
    output_dim: usize,
}

#[derive(Debug, Clone)]
struct LaneLayer {
    /// Transposed weights, `out_dim × in_dim`.
    wt: Matrix,
    bias: Vec<f64>,
    activation: Activation,
}

impl LanePlan {
    /// Input dimension of the planned network.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output dimension of the planned network.
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// Lane-batched forward pass over an SoA input slab.
    ///
    /// `x` is `input_dim × `[`LANE_WIDTH`] (column `l` = episode lane `l`);
    /// `out` is resized to `output_dim × LANE_WIDTH`. Activations ping-pong
    /// through `scratch`; the final layer writes `out` directly. Zero heap
    /// allocation once the buffers have grown to shape.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `x` is not
    /// `input_dim × LANE_WIDTH`.
    pub fn forward_lanes_into(
        &self,
        x: &Matrix,
        scratch: &mut BatchScratch,
        out: &mut Matrix,
    ) -> Result<(), NnError> {
        if x.rows() != self.input_dim || x.cols() != LANE_WIDTH {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "forward_lanes: input {}x{} vs {}x{}",
                    x.rows(),
                    x.cols(),
                    self.input_dim,
                    LANE_WIDTH
                ),
            });
        }
        let BatchScratch { ping, pong } = scratch;
        let n = self.layers.len();
        for (i, layer) in self.layers.iter().enumerate() {
            let last = i + 1 == n;
            // Ping-pong with the final layer redirected to `out`: layer 0
            // reads `x`, odd layers read `ping`, even layers read `pong`.
            let dst = if i == 0 {
                let dst = if last { &mut *out } else { &mut *ping };
                layer.wt.matmul_lanes_into(x, &layer.bias, dst)?;
                dst
            } else if i % 2 == 1 {
                let dst = if last { &mut *out } else { &mut *pong };
                layer.wt.matmul_lanes_into(ping, &layer.bias, dst)?;
                dst
            } else {
                let dst = if last { &mut *out } else { &mut *ping };
                layer.wt.matmul_lanes_into(pong, &layer.bias, dst)?;
                dst
            };
            simd::activate(layer.activation, dst.as_mut_slice());
        }
        Ok(())
    }
}

/// A multilayer perceptron: a stack of [`Dense`] layers.
///
/// The planners in the paper's case study are small MLPs over the five
/// scenario inputs `(t, p_0, v_0, τ_1,min, τ_1,max)` producing one
/// acceleration output.
///
/// # Example
///
/// ```
/// use cv_nn::{Activation, Mlp};
///
/// let net = Mlp::new(&[5, 16, 16, 1], Activation::Tanh, Activation::Identity, 7)?;
/// assert_eq!(net.input_dim(), 5);
/// assert_eq!(net.output_dim(), 1);
/// let y = net.predict(&[0.0; 5])?;
/// assert_eq!(y.len(), 1);
/// # Ok::<(), cv_nn::NnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Creates an MLP with layer sizes `sizes` (at least `[in, out]`),
    /// `hidden` activation on all but the last layer, and `output`
    /// activation on the last layer. Weights are Xavier-initialised from
    /// `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidArchitecture`] if `sizes.len() < 2` or any
    /// size is zero.
    pub fn new(
        sizes: &[usize],
        hidden: Activation,
        output: Activation,
        seed: u64,
    ) -> Result<Self, NnError> {
        if sizes.len() < 2 || sizes.contains(&0) {
            return Err(NnError::InvalidArchitecture);
        }
        let mut rng = SplitMix64::seed_from_u64(seed);
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i + 2 == sizes.len() { output } else { hidden };
                Dense::new(w[0], w[1], act, &mut rng)
            })
            .collect();
        Ok(Self { layers })
    }

    /// Builds an MLP from explicit layers.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidArchitecture`] if empty, or
    /// [`NnError::ShapeMismatch`] if consecutive layer dims disagree.
    pub(crate) fn from_layers(layers: Vec<Dense>) -> Result<Self, NnError> {
        if layers.is_empty() {
            return Err(NnError::InvalidArchitecture);
        }
        for pair in layers.windows(2) {
            if pair[0].out_dim() != pair[1].in_dim() {
                return Err(NnError::ShapeMismatch {
                    context: format!(
                        "layer boundary {} -> {}",
                        pair[0].out_dim(),
                        pair[1].in_dim()
                    ),
                });
            }
        }
        Ok(Self { layers })
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("nonempty").out_dim()
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable access for the trainer.
    pub(crate) fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Batch forward pass: the test suite's allocating oracle (one matrix
    /// per layer per call); [`Mlp::predict_into`] is bit-identical to it on
    /// every row.
    #[cfg(test)]
    pub(crate) fn forward(&self, x: &Matrix) -> Result<Matrix, NnError> {
        let mut cur = x.clone();
        for layer in &self.layers {
            cur = layer.forward(&cur)?;
        }
        Ok(cur)
    }

    /// Single-sample inference into a caller-owned output slice — the
    /// allocation-free hot path behind the planner's per-step call. One
    /// single-row kernel runs the whole network: each layer's row stays in
    /// registers through `+ b` and `tanh` and is stored once into
    /// `scratch`. Bit-identical, row by row, to the allocating
    /// matmul-then-bias-then-`σ` chain the test suite keeps as its oracle.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `input.len() != input_dim` or
    /// `out.len() != output_dim`.
    pub fn predict_into(
        &self,
        input: &[f64],
        scratch: &mut MlpScratch,
        out: &mut [f64],
    ) -> Result<(), NnError> {
        if input.len() != self.input_dim() || out.len() != self.output_dim() {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "predict {} -> {} vs {} -> {}",
                    input.len(),
                    out.len(),
                    self.input_dim(),
                    self.output_dim()
                ),
            });
        }
        scratch.fit(self);
        let MlpScratch { ping, pong } = scratch;
        simd::row_forward(simd::isa(), &self.layers, input, ping, pong, out);
        Ok(())
    }

    /// Convenience single-sample inference.
    ///
    /// Thin wrapper over [`Mlp::predict_into`] with a throwaway scratch;
    /// hot paths should hold an [`MlpScratch`] and call `predict_into`
    /// directly.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `input.len() != input_dim`.
    pub fn predict(&self, input: &[f64]) -> Result<Vec<f64>, NnError> {
        let mut scratch = MlpScratch::new();
        let mut out = vec![0.0; self.output_dim()];
        self.predict_into(input, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Builds the lane-batched execution plan for this network (transposed
    /// weight copies); pair with [`Mlp::forward_batch_into`].
    pub fn lane_plan(&self) -> LanePlan {
        LanePlan {
            layers: self
                .layers
                .iter()
                .map(|l| LaneLayer {
                    wt: l.weights().transpose(),
                    bias: l.bias().to_vec(),
                    activation: l.activation(),
                })
                .collect(),
            input_dim: self.input_dim(),
            output_dim: self.output_dim(),
        }
    }

    /// Lane-batched forward pass: runs [`LANE_WIDTH`] = 8 samples in
    /// lockstep over an SoA slab, turning each layer into one
    /// `(out×in)·(in×8)` broadcast-FMA matmul plus a vectorised activation
    /// sweep (see [`Matrix::matmul_lanes_into`] and the `simd` module).
    ///
    /// Results are deterministic (independent of host ISA and of which
    /// lanes are live) but **not** bit-identical to the per-sample
    /// reference path: the activations are the same function, but the
    /// lane kernel's FMA accumulation contracts rounding steps the
    /// reference performs, and it has no zero-skip. Callers that need
    /// bit-identity (lanes-of-1) must use [`Mlp::predict_into`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `plan` was built for a
    /// differently shaped network or `x` is not `input_dim × LANE_WIDTH`.
    pub fn forward_batch_into(
        &self,
        plan: &LanePlan,
        x: &Matrix,
        scratch: &mut BatchScratch,
        out: &mut Matrix,
    ) -> Result<(), NnError> {
        if plan.input_dim() != self.input_dim()
            || plan.output_dim() != self.output_dim()
            || plan.layers.len() != self.layers.len()
        {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "forward_batch: plan {}->{} ({} layers) vs net {}->{} ({} layers)",
                    plan.input_dim(),
                    plan.output_dim(),
                    plan.layers.len(),
                    self.input_dim(),
                    self.output_dim(),
                    self.layers.len()
                ),
            });
        }
        plan.forward_lanes_into(x, scratch, out)
    }

    /// Serializes architecture + weights to a plain-text format.
    ///
    /// Format: one header line `mlp <n_layers>`, then per layer a line
    /// `layer <in> <out> <activation>` followed by `in` lines of `out`
    /// weights and one line of `out` biases.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "mlp {}", self.layers.len());
        for l in &self.layers {
            let _ = writeln!(s, "layer {} {} {}", l.in_dim(), l.out_dim(), l.activation());
            for r in 0..l.in_dim() {
                let row: Vec<String> = (0..l.out_dim())
                    .map(|c| format!("{:e}", l.weights().get(r, c)))
                    .collect();
                let _ = writeln!(s, "{}", row.join(" "));
            }
            let bias: Vec<String> = l.bias().iter().map(|b| format!("{b:e}")).collect();
            let _ = writeln!(s, "{}", bias.join(" "));
        }
        s
    }

    /// Parses the format produced by [`Mlp::to_text`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParseWeights`] on any malformed input.
    pub fn from_text(text: &str) -> Result<Self, NnError> {
        let err = |context: &str| NnError::ParseWeights {
            context: context.to_string(),
        };
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or_else(|| err("empty input"))?;
        let n_layers: usize = header
            .strip_prefix("mlp ")
            .and_then(|n| n.trim().parse().ok())
            .ok_or_else(|| err("bad header"))?;
        let mut layers = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            let decl = lines.next().ok_or_else(|| err("missing layer header"))?;
            let mut parts = decl.split_whitespace();
            if parts.next() != Some("layer") {
                return Err(err("expected 'layer'"));
            }
            let in_dim: usize = parts
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| err("bad in_dim"))?;
            let out_dim: usize = parts
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| err("bad out_dim"))?;
            let act = parts
                .next()
                .and_then(Activation::from_name)
                .ok_or_else(|| err("bad activation"))?;
            let mut weights = Matrix::zeros(in_dim, out_dim);
            for r in 0..in_dim {
                let row = lines.next().ok_or_else(|| err("missing weight row"))?;
                let vals: Vec<f64> = row
                    .split_whitespace()
                    .map(|v| v.parse::<f64>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| err("bad weight value"))?;
                if vals.len() != out_dim {
                    return Err(err("weight row length"));
                }
                for (c, v) in vals.iter().enumerate() {
                    weights.set(r, c, *v);
                }
            }
            let brow = lines.next().ok_or_else(|| err("missing bias row"))?;
            let bias: Vec<f64> = brow
                .split_whitespace()
                .map(|v| v.parse::<f64>())
                .collect::<Result<_, _>>()
                .map_err(|_| err("bad bias value"))?;
            if bias.len() != out_dim {
                return Err(err("bias row length"));
            }
            layers.push(Dense::from_parts(weights, bias, act).map_err(|e| {
                NnError::ParseWeights {
                    context: e.to_string(),
                }
            })?);
        }
        Self::from_layers(layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn architecture_validation() {
        assert!(Mlp::new(&[5], Activation::Tanh, Activation::Identity, 0).is_err());
        assert!(Mlp::new(&[5, 0, 1], Activation::Tanh, Activation::Identity, 0).is_err());
        assert!(Mlp::new(&[5, 1], Activation::Tanh, Activation::Identity, 0).is_ok());
    }

    #[test]
    fn output_layer_uses_output_activation() {
        let net = Mlp::new(&[2, 4, 1], Activation::Relu, Activation::Identity, 0).unwrap();
        assert_eq!(net.layers()[0].activation(), Activation::Relu);
        assert_eq!(net.layers()[1].activation(), Activation::Identity);
    }

    #[test]
    fn predict_matches_forward() {
        let net = Mlp::new(&[3, 8, 2], Activation::Tanh, Activation::Identity, 9).unwrap();
        let input = [0.1, -0.2, 0.3];
        let y1 = net.predict(&input).unwrap();
        let y2 = net.forward(&Matrix::from_rows(&[&input]).unwrap()).unwrap();
        assert_eq!(y1, y2.as_slice());
    }

    #[test]
    fn same_seed_same_network() {
        let a = Mlp::new(&[4, 8, 1], Activation::Tanh, Activation::Identity, 5).unwrap();
        let b = Mlp::new(&[4, 8, 1], Activation::Tanh, Activation::Identity, 5).unwrap();
        assert_eq!(a, b);
        let c = Mlp::new(&[4, 8, 1], Activation::Tanh, Activation::Identity, 6).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let net = Mlp::new(&[5, 16, 8, 1], Activation::Tanh, Activation::Identity, 3).unwrap();
        let text = net.to_text();
        let back = Mlp::from_text(&text).unwrap();
        assert_eq!(net, back);
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(Mlp::from_text("").is_err());
        assert!(Mlp::from_text("mlp x").is_err());
        assert!(Mlp::from_text("mlp 1\nlayer 2 1 bogus\n0 0\n0\n").is_err());
        assert!(Mlp::from_text("mlp 1\nlayer 2 1 tanh\n0\n0\n").is_err());
    }

    #[test]
    fn from_layers_checks_boundaries() {
        let mut rng = SplitMix64::seed_from_u64(0);
        let l1 = Dense::new(2, 3, Activation::Tanh, &mut rng);
        let l2 = Dense::new(4, 1, Activation::Identity, &mut rng);
        assert!(Mlp::from_layers(vec![l1, l2]).is_err());
        assert!(Mlp::from_layers(vec![]).is_err());
    }

    #[test]
    fn predict_into_matches_predict_bitwise() {
        let net = Mlp::new(&[5, 32, 32, 1], Activation::Tanh, Activation::Tanh, 7).unwrap();
        let mut scratch = MlpScratch::for_net(&net);
        let input = [0.3, -0.8, 0.15, 0.9, -0.2];
        let mut out = [0.0];
        net.predict_into(&input, &mut scratch, &mut out).unwrap();
        let reference = net.predict(&input).unwrap();
        assert_eq!(out[0].to_bits(), reference[0].to_bits());
        // Batch reference too: predict must still agree with forward.
        let row = net.forward(&Matrix::from_rows(&[&input]).unwrap()).unwrap();
        assert_eq!(out[0].to_bits(), row.get(0, 0).to_bits());
    }

    #[test]
    fn predict_into_validates_output_arity() {
        let net = Mlp::new(&[2, 4, 2], Activation::Tanh, Activation::Identity, 0).unwrap();
        let mut scratch = MlpScratch::for_net(&net);
        let mut short = [0.0];
        assert!(net
            .predict_into(&[0.1, 0.2], &mut scratch, &mut short)
            .is_err());
        assert!(net.predict(&[0.1]).is_err());
    }

    /// The batched lane pass against per-lane `predict`: every lane's
    /// column must match the per-sample path within the documented
    /// tolerance (FMA contraction, no zero-skip), across layer
    /// counts and every activation on the hidden layers.
    #[test]
    fn forward_batch_matches_predict_within_tolerance() {
        for (sizes, hidden) in [
            (vec![5, 32, 32, 1], Activation::Tanh),
            (vec![5, 1], Activation::Tanh),
            (vec![3, 7, 11, 2], Activation::Relu),
            (vec![4, 16, 3], Activation::Sigmoid),
        ] {
            let net = Mlp::new(&sizes, hidden, Activation::Tanh, 21).unwrap();
            let plan = net.lane_plan();
            let mut scratch = BatchScratch::for_net(&net);
            let x = Matrix::from_fn(sizes[0], LANE_WIDTH, |r, c| {
                ((r * 13 + c * 29) as f64).sin() * 0.8
            });
            let mut out = Matrix::zeros(0, 0);
            net.forward_batch_into(&plan, &x, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(
                (out.rows(), out.cols()),
                (*sizes.last().unwrap(), LANE_WIDTH)
            );
            for lane in 0..LANE_WIDTH {
                let input: Vec<f64> = (0..sizes[0]).map(|r| x.get(r, lane)).collect();
                let reference = net.predict(&input).unwrap();
                for (o, &want) in reference.iter().enumerate() {
                    let got = out.get(o, lane);
                    assert!(
                        (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                        "sizes {sizes:?} {hidden} lane {lane} out {o}: {got} vs {want}"
                    );
                }
            }
        }
    }

    /// Dead lanes (zero-filled columns) must not disturb live lanes, and
    /// the batched pass must be invariant to what dead lanes contain.
    #[test]
    fn forward_batch_is_lane_independent() {
        let net = Mlp::new(&[5, 32, 32, 1], Activation::Tanh, Activation::Tanh, 7).unwrap();
        let plan = net.lane_plan();
        let mut scratch = BatchScratch::for_net(&net);
        let mut x = Matrix::from_fn(5, LANE_WIDTH, |r, c| ((r + c * 3) as f64).cos() * 0.5);
        let mut a = Matrix::zeros(0, 0);
        net.forward_batch_into(&plan, &x, &mut scratch, &mut a)
            .unwrap();
        // Rewrite lanes 5..8 with junk; lanes 0..5 must be bit-unchanged.
        for r in 0..5 {
            for lane in 5..LANE_WIDTH {
                x.set(r, lane, 1e9);
            }
        }
        let mut b = Matrix::zeros(0, 0);
        net.forward_batch_into(&plan, &x, &mut scratch, &mut b)
            .unwrap();
        for lane in 0..5 {
            assert_eq!(a.get(0, lane).to_bits(), b.get(0, lane).to_bits());
        }
    }

    #[test]
    fn forward_batch_validates_plan_and_input() {
        let net = Mlp::new(&[5, 8, 1], Activation::Tanh, Activation::Tanh, 1).unwrap();
        let other = Mlp::new(&[4, 8, 1], Activation::Tanh, Activation::Tanh, 1).unwrap();
        let plan = net.lane_plan();
        let mut scratch = BatchScratch::for_net(&net);
        let mut out = Matrix::zeros(0, 0);
        // Mismatched plan.
        assert!(other
            .forward_batch_into(&plan, &Matrix::zeros(4, LANE_WIDTH), &mut scratch, &mut out)
            .is_err());
        // Wrong input shape.
        assert!(net
            .forward_batch_into(&plan, &Matrix::zeros(5, 4), &mut scratch, &mut out)
            .is_err());
        assert!(net
            .forward_batch_into(&plan, &Matrix::zeros(4, LANE_WIDTH), &mut scratch, &mut out)
            .is_err());
    }
}
