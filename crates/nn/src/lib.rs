//! From-scratch feedforward neural network library.
//!
//! The paper wraps *"any NN-based planner"*; its evaluation trains planners
//! with the learning method of its ref. \[6\]. Since no external ML framework
//! is available (nor desirable for a self-contained reproduction), this crate
//! provides everything needed to train and run the small MLPs used as
//! planners:
//!
//! * [`Matrix`] — dense row-major matrix with the handful of buffer-reusing
//!   kernels inference and backprop need.
//! * [`Activation`], [`Dense`], [`Mlp`] — layers and the network, with
//!   forward inference and reverse-mode gradients.
//! * [`Optimizer`], [`Trainer`] — mean-squared-error training with Adam,
//!   shuffled mini-batches, and no per-batch heap allocation.
//! * [`MlpScratch`] — two flat hidden-row buffers behind the
//!   zero-allocation [`Mlp::predict_into`] used on the episode hot path: one
//!   single-row kernel runs the whole network, each layer's row held in
//!   registers through `+ b` and `tanh`; bit-identical to the allocating
//!   matmul-then-bias-then-`σ` oracle the test suite keeps.
//! * [`LanePlan`], [`BatchScratch`] — lane-batched inference
//!   ([`Mlp::forward_batch_into`]): [`LANE_WIDTH`] = 8 samples stepped in
//!   lockstep through structure-of-arrays slabs and runtime-dispatched
//!   SIMD kernels (AVX-512VL / AVX2+FMA / scalar, all bit-identical to
//!   each other); deterministic, with a documented tolerance to the
//!   per-sample path (FMA contraction, no zero-skip — both paths share the
//!   one vectorised `tanh`).
//! * Plain-text weight serialization ([`Mlp::to_text`], [`Mlp::from_text`])
//!   so trained planners can be embedded or cached without extra formats.
//!
//! Gradients are verified against finite differences in the test suite.
//!
//! # Example
//!
//! ```
//! use cv_nn::{Activation, Mlp, Trainer, TrainConfig, Matrix, Optimizer};
//!
//! // Learn y = 2x on a few points.
//! let x = Matrix::from_rows(&[&[0.0], &[0.5], &[1.0], &[1.5]])?;
//! let y = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]])?;
//! let mut net = Mlp::new(&[1, 8, 1], Activation::Tanh, Activation::Identity, 42)?;
//! let cfg = TrainConfig { epochs: 200, batch_size: 4, seed: 1, ..TrainConfig::default() };
//! let history = Trainer::new(Optimizer::adam(0.01), cfg).fit(&mut net, &x, &y)?;
//! assert!(history.last().unwrap() < &0.05);
//! # Ok::<(), cv_nn::NnError>(())
//! ```

mod activation;
mod error;
mod layer;
mod matrix;
mod mlp;
mod optimizer;
mod scratch;
mod simd;
mod train;

pub use activation::Activation;
pub use error::NnError;
pub use layer::Dense;
pub use matrix::Matrix;
pub use mlp::{LanePlan, Mlp};
pub use optimizer::Optimizer;
pub use scratch::{BatchScratch, MlpScratch};
pub use simd::LANE_WIDTH;
pub use train::{TrainConfig, Trainer};

/// Tag of this crate's numerics (the `tanh` kernel, the dense kernels' op
/// order); changed whenever any output may move by an ulp, so caches keyed
/// by it are never served across such a change.
pub const NUMERICS: &str = "tanh-lane-1";
