use crate::{Matrix, Mlp};

/// Reusable workspace for allocation-free single-row [`Mlp`] inference.
///
/// A batch forward that allocates one matrix per layer per call would
/// dominate small-network inference cost on the episode hot path, where
/// the planner invokes the network every control step. An `MlpScratch`
/// holds two flat hidden-row buffers that [`Mlp::predict_into`] ping-pongs
/// between: each layer's row is stored once into one and the next layer
/// broadcasts from it. Once they have grown to the widest hidden layer
/// (done eagerly by [`MlpScratch::for_net`]), `predict_into` performs no
/// heap allocation at all.
///
/// A scratch is not tied to one network: buffers regrow on demand, so the
/// same scratch can serve differently shaped [`Mlp`]s (at the cost of a
/// one-time regrowth). Its contents carry no meaning between calls.
///
/// # Example
///
/// ```
/// use cv_nn::{Activation, Mlp, MlpScratch};
///
/// let net = Mlp::new(&[5, 16, 16, 1], Activation::Tanh, Activation::Tanh, 7)?;
/// let mut scratch = MlpScratch::for_net(&net);
/// let mut out = [0.0];
/// net.predict_into(&[0.1, 0.2, 0.3, 0.4, 0.5], &mut scratch, &mut out)?;
/// assert_eq!(vec![out[0]], net.predict(&[0.1, 0.2, 0.3, 0.4, 0.5])?);
/// # Ok::<(), cv_nn::NnError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct MlpScratch {
    /// Hidden-row buffers; layer `l` reads one and writes the other.
    pub(crate) ping: Vec<f64>,
    pub(crate) pong: Vec<f64>,
}

impl MlpScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-grown for single-sample inference through `net`, so
    /// even the first [`Mlp::predict_into`] call allocates nothing.
    pub fn for_net(net: &Mlp) -> Self {
        let mut s = Self::new();
        s.fit(net);
        s
    }

    /// Grows both buffers to `net`'s widest layer; a no-op once they fit.
    pub(crate) fn fit(&mut self, net: &Mlp) {
        let widest = net.layers().iter().map(|l| l.out_dim()).max().unwrap_or(0);
        if self.ping.len() < widest {
            self.ping.resize(widest, 0.0);
            self.pong.resize(widest, 0.0);
        }
    }
}

/// Reusable activation slabs for the lane-batched forward pass
/// ([`Mlp::forward_batch_into`]).
///
/// The lane path runs [`crate::LANE_WIDTH`] = 8 episodes in lockstep, so
/// its ping-pong buffers are structure-of-arrays slabs `width × 8` instead
/// of single rows. Like [`MlpScratch`], buffers regrow on demand and carry
/// no meaning between calls; [`BatchScratch::for_net`] pre-grows them so
/// even the first batched forward allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    /// Ping-pong SoA activation slabs; layer `l` reads one and writes the
    /// other (the final layer writes the caller's output slab instead).
    pub(crate) ping: Matrix,
    pub(crate) pong: Matrix,
}

impl BatchScratch {
    /// An empty scratch; slabs grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-grown for lane-batched inference through `net`.
    pub fn for_net(net: &Mlp) -> Self {
        let widest = net.layers().iter().map(|l| l.out_dim()).max().unwrap_or(0);
        let mut s = Self::new();
        s.ping.reset_zeroed(widest, crate::LANE_WIDTH);
        s.pong.reset_zeroed(widest, crate::LANE_WIDTH);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Activation;

    #[test]
    fn for_net_sizes_buffers_for_one_row() {
        let net = Mlp::new(&[3, 8, 2], Activation::Tanh, Activation::Identity, 1).unwrap();
        let s = MlpScratch::for_net(&net);
        assert_eq!((s.ping.len(), s.pong.len()), (8, 8));
    }

    #[test]
    fn batch_scratch_sizes_slabs_lane_wide() {
        let net = Mlp::new(&[3, 8, 2], Activation::Tanh, Activation::Identity, 1).unwrap();
        let s = BatchScratch::for_net(&net);
        assert_eq!((s.ping.rows(), s.ping.cols()), (8, crate::LANE_WIDTH));
        assert_eq!((s.pong.rows(), s.pong.cols()), (8, crate::LANE_WIDTH));
    }
}
