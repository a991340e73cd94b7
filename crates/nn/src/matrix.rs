use cv_rng::Rng;
use cv_rng::SplitMix64;

use crate::NnError;

/// Dense row-major matrix of `f64`.
///
/// Rows are samples, columns are features throughout this crate. Only the
/// operations backprop needs are provided; everything validates shapes and
/// returns [`NnError::ShapeMismatch`] on misuse.
///
/// # Example
///
/// ```
/// use cv_nn::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::from_rows(&[&[1.0], &[1.0]])?;
/// let mut c = Matrix::zeros(0, 0);
/// a.matmul_into(&b, &mut c)?;
/// assert_eq!(c.get(0, 0), 3.0);
/// assert_eq!(c.get(1, 0), 7.0);
/// # Ok::<(), cv_nn::NnError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Output-tile height of the blocked `tr_matmul_into` kernel. Sized so a tile of
/// the right-hand operand (`TILE_ROWS` reuses × `TILE_COLS` doubles) stays
/// cache-resident across the rows of a block; the paper's planner shapes fit
/// a single tile, where the blocked loop degenerates to the naive traversal.
const TILE_ROWS: usize = 16;
/// Output-tile width of the blocked `tr_matmul_into` kernel (in `f64` lanes).
const TILE_COLS: usize = 64;

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the rows have differing lengths
    /// or the input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, NnError> {
        let Some(first) = rows.first() else {
            return Err(NnError::ShapeMismatch {
                context: "from_rows: empty input".into(),
            });
        };
        let cols = first.len();
        if cols == 0 || rows.iter().any(|r| r.len() != cols) {
            return Err(NnError::ShapeMismatch {
                context: "from_rows: ragged or empty rows".into(),
            });
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data: rows.iter().flat_map(|r| r.iter().copied()).collect(),
        })
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, NnError> {
        if data.len() != rows * cols {
            return Err(NnError::ShapeMismatch {
                context: format!("from_vec: {} values for {rows}x{cols}", data.len()),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Xavier/Glorot-uniform initialisation for a `fan_in × fan_out` weight
    /// matrix, seeded for reproducibility.
    pub(crate) fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut SplitMix64) -> Self {
        let bound = (6.0 / (fan_in + fan_out) as f64).sqrt();
        Self::from_fn(fan_in, fan_out, |_, _| rng.random_range(-bound..=bound))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the flat row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Reshapes to `rows × cols` filled with zeros, reusing the existing
    /// storage. In the steady state (capacity already large enough) this
    /// performs no heap allocation — the buffer-reuse primitive behind
    /// every `*_into` kernel and the [`crate::MlpScratch`] lifecycle.
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes to `rows × cols` **without** zeroing retained storage; only
    /// storage grown beyond the previous length is zero-filled. Valid only
    /// when the caller overwrites every element before reading any (the
    /// dense-lane kernels do: each output row is seeded from the bias and
    /// stored unconditionally), which makes this the allocation- and
    /// memset-free variant of [`Matrix::reset_zeroed`] for the lane-batched
    /// hot path.
    fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Allocating `self · other` through [`Matrix::matmul_into`]: the test
    /// suite's forward oracle builds on it.
    #[cfg(test)]
    pub(crate) fn matmul(&self, other: &Matrix) -> Result<Matrix, NnError> {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// Reference kernel for `self · other` (i-k-j loop order, exact-zero
    /// skip): the oracle the row kernel is `to_bits`-tested against here
    /// and in `simd`'s tests.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `self.cols != other.rows`.
    #[cfg(test)]
    pub(crate) fn matmul_naive(&self, other: &Matrix) -> Result<Matrix, NnError> {
        if self.cols != other.rows {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "matmul: {}x{} * {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.data[i * self.cols + k];
                if aik == 0.0 {
                    continue;
                }
                let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                let crow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (c, o) in crow.iter_mut().zip(orow) {
                    *c += aik * o;
                }
            }
        }
        Ok(out)
    }

    /// Matrix product `self · other` into `out`, reusing its storage.
    ///
    /// Every output row is one call of the single-row kernel
    /// (`simd::row_matmul`): each element is accumulated along one
    /// ascending-`k` chain from `+0.0` with the exact-zero skip, `mul` and
    /// `add` kept separate, so results are bit-identical to the naive
    /// i-k-j kernel (the test suite's `matmul_naive` oracle).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `self.cols != other.rows`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        if self.cols != other.rows {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "matmul: {}x{} * {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let n = other.cols;
        out.reset_zeroed(self.rows, n);
        if self.cols > 0 && n > 0 {
            let rows = self.data.chunks_exact(self.cols);
            for (arow, crow) in rows.zip(out.data.chunks_exact_mut(n)) {
                crate::simd::row_matmul(arow, &other.data, crow);
            }
        }
        Ok(())
    }

    /// Lane-batched dense product `out = self·act + bias` over
    /// structure-of-arrays activation slabs, into `out`.
    ///
    /// `self` is a **transposed** weight matrix (`out_dim × in_dim` — one
    /// contiguous row per output feature, the layout the broadcast-FMA
    /// kernels want), `act` is an `in_dim × `[`crate::LANE_WIDTH`] slab
    /// (column `l` = episode lane `l`), and `out` is resized to
    /// `out_dim × LANE_WIDTH`. Each output element is accumulated in one
    /// ascending-`k` FMA chain seeded with the bias; there is **no**
    /// zero-skip (lane slabs are dense, and a skip would break the
    /// fixed-chain guarantee that makes every ISA tier bit-identical — see
    /// the `simd` module). Dispatches to the fastest detected kernel tier.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `act` is not
    /// `self.cols × LANE_WIDTH` or `bias.len() != self.rows`.
    pub fn matmul_lanes_into(
        &self,
        act: &Matrix,
        bias: &[f64],
        out: &mut Matrix,
    ) -> Result<(), NnError> {
        if act.rows != self.cols || act.cols != crate::LANE_WIDTH || bias.len() != self.rows {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "matmul_lanes: {}x{} * {}x{} + bias {}",
                    self.rows,
                    self.cols,
                    act.rows,
                    act.cols,
                    bias.len()
                ),
            });
        }
        // No pre-zeroing: every kernel tier seeds each output row with the
        // bias and stores all LANE_WIDTH entries, so zeroing first would be
        // a dead memset on the per-step hot path.
        out.reshape_for_overwrite(self.rows, crate::LANE_WIDTH);
        crate::simd::dense_lanes(&self.data, bias, &act.data, &mut out.data);
        Ok(())
    }

    /// Matrix product `selfᵀ · other` into `out`, reusing its storage,
    /// without materialising the transpose.
    ///
    /// Blocks over rows/columns of the output, i → k → j within a tile,
    /// one ascending-`k` accumulation chain with zero-skip per output
    /// element — bit-identical to the untiled k-outer kernel (kept as the
    /// test suite's `tr_matmul_naive` oracle) and to
    /// `self.transpose()` followed by [`Matrix::matmul_into`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `self.rows != other.rows`.
    pub(crate) fn tr_matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        if self.rows != other.rows {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "tr_matmul: ({}x{})^T * {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let n = other.cols;
        out.reset_zeroed(self.cols, n);
        for i0 in (0..self.cols).step_by(TILE_ROWS) {
            let i1 = (i0 + TILE_ROWS).min(self.cols);
            for j0 in (0..n).step_by(TILE_COLS) {
                let j1 = (j0 + TILE_COLS).min(n);
                for i in i0..i1 {
                    let crow = &mut out.data[i * n + j0..i * n + j1];
                    for k in 0..self.rows {
                        let aki = self.data[k * self.cols + i];
                        if aki == 0.0 {
                            continue;
                        }
                        let orow = &other.data[k * n + j0..k * n + j1];
                        for (c, o) in crow.iter_mut().zip(orow) {
                            *c += aki * o;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Matrix product `self · otherᵀ` into `out` — the `δ·Wᵀ` input-gradient
    /// product on backprop's hot path — staging the transpose of `other` in
    /// `t_scratch`; both buffers are reused across calls.
    ///
    /// Transpose-then-[`Matrix::matmul_into`], *on measurement*: the
    /// "transpose-free" alternatives (row-dot-row, or i-k-j with a strided
    /// gather of `other`) must accumulate each output element in a single
    /// ascending-`k` chain to stay bit-identical, which defeats
    /// vectorisation — both measured 1.4–4× *slower* than one small
    /// transpose and the vectorisable i-k-j kernel. Contrast
    /// [`Matrix::tr_matmul_into`], where the transpose-free form wins.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `self.cols != other.cols`.
    pub(crate) fn matmul_tr_into(
        &self,
        other: &Matrix,
        t_scratch: &mut Matrix,
        out: &mut Matrix,
    ) -> Result<(), NnError> {
        if self.cols != other.cols {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "matmul_tr: {}x{} * ({}x{})^T",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        other.transpose_into(t_scratch);
        self.matmul_into(t_scratch, out)
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Transpose into `out`, reusing its storage.
    pub(crate) fn transpose_into(&self, out: &mut Matrix) {
        out.reset_zeroed(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Applies `f` to every entry (the test suite's forward oracle).
    #[cfg(test)]
    pub(crate) fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| f(*x)).collect(),
        }
    }

    /// Adds the row vector `bias` (length `cols`) to every row (the test
    /// suite's forward oracle).
    #[cfg(test)]
    pub(crate) fn add_row_broadcast(&self, bias: &[f64]) -> Result<Matrix, NnError> {
        if bias.len() != self.cols {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "add_row_broadcast: bias {} vs cols {}",
                    bias.len(),
                    self.cols
                ),
            });
        }
        let mut out = self.clone();
        if self.cols > 0 {
            for row in out.data.chunks_exact_mut(self.cols) {
                for (v, b) in row.iter_mut().zip(bias) {
                    *v += b;
                }
            }
        }
        Ok(out)
    }

    /// Sums each column into `out` (length `cols`), reusing its storage.
    pub(crate) fn column_sums_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.cols, 0.0);
        if self.cols > 0 {
            for row in self.data.chunks_exact(self.cols) {
                for (s, v) in out.iter_mut().zip(row) {
                    *s += v;
                }
            }
        }
    }

    /// Selects the given rows into `out`, reusing its storage — the
    /// trainer's mini-batch gather (one retained buffer instead of one
    /// fresh matrix per mini-batch).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub(crate) fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.rows = indices.len();
        out.cols = self.cols;
        out.data.clear();
        for &i in indices {
            out.data.extend_from_slice(self.row(i));
        }
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{}:", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, " {:9.4}", self.get(r, c))?;
            }
            writeln!(f, " ]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.get(0, 0), 58.0);
        assert_eq!(c.get(0, 1), 64.0);
        assert_eq!(c.get(1, 0), 139.0);
        assert_eq!(c.get(1, 1), 154.0);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(NnError::ShapeMismatch { .. })));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[&[1.0, 2.0], &[3.0][..]]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn broadcast_and_column_sums() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = m.add_row_broadcast(&[10.0, 20.0]).unwrap();
        assert_eq!(b.get(0, 0), 11.0);
        assert_eq!(b.get(1, 1), 24.0);
        let mut sums = vec![9.0; 5];
        m.column_sums_into(&mut sums);
        assert_eq!(sums, vec![4.0, 6.0]);
    }

    #[test]
    fn select_rows_picks_batch() {
        let m = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]).unwrap();
        let mut batch = Matrix::zeros(0, 0);
        m.select_rows_into(&[2, 0], &mut batch);
        assert_eq!(batch, Matrix::from_rows(&[&[3.0], &[1.0]]).unwrap());
    }

    #[test]
    fn xavier_bound_is_respected() {
        let mut rng = SplitMix64::seed_from_u64(0);
        let m = Matrix::xavier_uniform(10, 10, &mut rng);
        let bound = (6.0 / 20.0f64).sqrt();
        assert!(m.as_slice().iter().all(|x| x.abs() <= bound));
        // Not all zeros.
        assert!(m.as_slice().iter().any(|x| x.abs() > 1e-6));
    }

    cv_rng::props! {        fn transpose_is_involution(rows in 1usize..6, cols in 1usize..6, seed in 0u64..100) {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let m = Matrix::from_fn(rows, cols, |_, _| rng.random_range(-1.0..1.0));
            assert_eq!(m.transpose().transpose(), m);
        }
        fn matmul_associative(seed in 0u64..50) {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let a = Matrix::from_fn(3, 4, |_, _| rng.random_range(-1.0..1.0));
            let b = Matrix::from_fn(4, 2, |_, _| rng.random_range(-1.0..1.0));
            let c = Matrix::from_fn(2, 5, |_, _| rng.random_range(-1.0..1.0));
            let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
            let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
            for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
                assert!((x - y).abs() < 1e-10);
            }
        }
        fn tr_matmul_is_bit_identical_to_transpose_matmul(
            m in 1usize..7, n in 1usize..7, p in 1usize..7, seed in 0u64..60
        ) {
            let mut rng = SplitMix64::seed_from_u64(seed);
            // Sprinkle exact zeros (including a ReLU-style dead column) so
            // the zero-skip path is exercised, not just dense values.
            let a = Matrix::from_fn(m, n, |_, c| {
                if c == 0 || rng.random_range(0.0..1.0) < 0.2 { 0.0 }
                else { rng.random_range(-1.0..1.0) }
            });
            let b = Matrix::from_fn(m, p, |_, _| rng.random_range(-1.0..1.0));
            let mut fast = Matrix::zeros(0, 0);
            a.tr_matmul_into(&b, &mut fast).unwrap();
            let reference = a.transpose().matmul(&b).unwrap();
            assert_eq!(fast.rows(), reference.rows());
            assert_eq!(fast.cols(), reference.cols());
            for (x, y) in fast.as_slice().iter().zip(reference.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        fn matmul_tr_is_bit_identical_to_matmul_transpose(
            m in 1usize..7, n in 1usize..7, q in 1usize..7, seed in 0u64..60
        ) {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let a = Matrix::from_fn(m, n, |_, _| {
                if rng.random_range(0.0..1.0) < 0.2 { 0.0 }
                else { rng.random_range(-1.0..1.0) }
            });
            let b = Matrix::from_fn(q, n, |_, _| rng.random_range(-1.0..1.0));
            let (mut t_scratch, mut fast) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
            a.matmul_tr_into(&b, &mut t_scratch, &mut fast).unwrap();
            let reference = a.matmul(&b.transpose()).unwrap();
            assert_eq!(fast.rows(), reference.rows());
            assert_eq!(fast.cols(), reference.cols());
            for (x, y) in fast.as_slice().iter().zip(reference.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        fn select_rows_into_reuses_buffer(seed in 0u64..20) {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let m = Matrix::from_fn(5, 3, |_, _| rng.random_range(-1.0..1.0));
            let mut buf = Matrix::zeros(0, 0);
            m.select_rows_into(&[4, 0, 2], &mut buf);
            assert_eq!(buf, Matrix::from_rows(&[m.row(4), m.row(0), m.row(2)]).unwrap());
            m.select_rows_into(&[1], &mut buf);
            assert_eq!(buf, Matrix::from_rows(&[m.row(1)]).unwrap());
        }
    }

    /// Random matrix with exact zeros sprinkled in, so the zero-skip path
    /// of every kernel is exercised.
    fn sparse_random(rows: usize, cols: usize, rng: &mut SplitMix64) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| {
            if rng.random_range(0.0..1.0) < 0.2 {
                0.0
            } else {
                rng.random_range(-1.0..1.0)
            }
        })
    }

    fn assert_bits_eq(a: &Matrix, b: &Matrix, context: &str) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{context}");
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{context}");
        }
    }

    /// Pre-tiling reference kernel for `aᵀ · b` (k-outer over `a`'s rows,
    /// zero-skip): the oracle of the tiled `tr_matmul`.
    fn tr_matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols, b.cols);
        for i in 0..a.cols {
            for k in 0..a.rows {
                let aki = a.data[k * a.cols + i];
                if aki == 0.0 {
                    continue;
                }
                let brow = &b.data[k * b.cols..(k + 1) * b.cols];
                let crow = &mut out.data[i * b.cols..(i + 1) * b.cols];
                for (c, o) in crow.iter_mut().zip(brow) {
                    *c += aki * o;
                }
            }
        }
        out
    }

    /// The blocked kernels against their retained naive baselines across
    /// odd, prime, and block-straddling shapes (`tr_matmul` tiles are
    /// 16×64, so 15–17 straddles the row tile and 63–65 the column tile;
    /// the row kernel's 32- and 4-column blocks are straddled too).
    #[test]
    fn tiled_kernels_are_bit_identical_to_naive_across_tile_boundaries() {
        let dims = [1usize, 2, 3, 5, 7, 15, 16, 17, 31, 63, 64, 65];
        let mut rng = SplitMix64::seed_from_u64(0xD1CE);
        for &m in &dims {
            for &k in &[1usize, 5, 17, 64, 65] {
                for &n in &dims {
                    let a = sparse_random(m, k, &mut rng);
                    let b = sparse_random(k, n, &mut rng);
                    let ctx = format!("matmul {m}x{k} * {k}x{n}");
                    assert_bits_eq(&a.matmul(&b).unwrap(), &a.matmul_naive(&b).unwrap(), &ctx);

                    let at = sparse_random(k, m, &mut rng);
                    let ctx = format!("tr_matmul ({k}x{m})^T * {k}x{n}");
                    let mut fast = Matrix::zeros(0, 0);
                    at.tr_matmul_into(&b, &mut fast).unwrap();
                    assert_bits_eq(&fast, &tr_matmul_naive(&at, &b), &ctx);
                }
            }
        }
    }

    #[test]
    fn into_variants_reuse_buffers_and_match() {
        let mut rng = SplitMix64::seed_from_u64(9);
        let a = sparse_random(17, 33, &mut rng);
        let b = sparse_random(33, 65, &mut rng);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut out).unwrap();
        assert_bits_eq(&out, &a.matmul_naive(&b).unwrap(), "matmul_into");
        // Second call with a smaller product reuses the same storage.
        let c = sparse_random(3, 33, &mut rng);
        c.matmul_into(&b, &mut out).unwrap();
        assert_bits_eq(&out, &c.matmul_naive(&b).unwrap(), "matmul_into reuse");

        let bt = sparse_random(65, 33, &mut rng);
        let mut t_scratch = Matrix::zeros(0, 0);
        a.matmul_tr_into(&bt, &mut t_scratch, &mut out).unwrap();
        let reference = a.matmul_naive(&bt.transpose()).unwrap();
        assert_bits_eq(&out, &reference, "matmul_tr_into");

        let mut tr = Matrix::zeros(0, 0);
        a.transpose_into(&mut tr);
        assert_eq!(tr, a.transpose());
    }

    #[test]
    fn reset_zeroed_reshapes_in_place() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        m.reset_zeroed(1, 3);
        assert_eq!((m.rows(), m.cols()), (1, 3));
        assert_eq!(m.as_slice(), &[0.0, 0.0, 0.0]);
    }

    /// The lane kernel against a directly written per-lane `mul_add`
    /// chain — the accumulation-order contract every ISA tier shares.
    #[test]
    fn matmul_lanes_matches_per_lane_mul_add_chain() {
        let mut rng = SplitMix64::seed_from_u64(0xA11E);
        for (in_dim, out_dim) in [(5usize, 32usize), (32, 32), (32, 1), (2, 3)] {
            let wt = Matrix::from_fn(out_dim, in_dim, |_, _| rng.random_range(-1.0..1.0));
            let bias: Vec<f64> = (0..out_dim).map(|_| rng.random_range(-0.5..0.5)).collect();
            let act = Matrix::from_fn(in_dim, crate::LANE_WIDTH, |_, _| {
                rng.random_range(-2.0..2.0)
            });
            let mut out = Matrix::zeros(0, 0);
            wt.matmul_lanes_into(&act, &bias, &mut out).unwrap();
            assert_eq!((out.rows(), out.cols()), (out_dim, crate::LANE_WIDTH));
            for (o, &b) in bias.iter().enumerate() {
                for lane in 0..crate::LANE_WIDTH {
                    let mut acc = b;
                    for k in 0..in_dim {
                        acc = wt.get(o, k).mul_add(act.get(k, lane), acc);
                    }
                    assert_eq!(
                        out.get(o, lane).to_bits(),
                        acc.to_bits(),
                        "{in_dim}x{out_dim} o={o} lane={lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_lanes_rejects_bad_shapes() {
        let wt = Matrix::zeros(4, 3);
        let mut out = Matrix::zeros(0, 0);
        // act rows mismatch.
        assert!(wt
            .matmul_lanes_into(&Matrix::zeros(2, crate::LANE_WIDTH), &[0.0; 4], &mut out)
            .is_err());
        // act not LANE_WIDTH wide.
        assert!(wt
            .matmul_lanes_into(&Matrix::zeros(3, 4), &[0.0; 4], &mut out)
            .is_err());
        // bias length mismatch.
        assert!(wt
            .matmul_lanes_into(&Matrix::zeros(3, crate::LANE_WIDTH), &[0.0; 3], &mut out)
            .is_err());
    }

    #[test]
    fn tr_matmul_and_matmul_tr_reject_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 2);
        let (mut t_scratch, mut out) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        assert!(matches!(
            a.tr_matmul_into(&b, &mut out),
            Err(NnError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            a.matmul_tr_into(&a.transpose(), &mut t_scratch, &mut out),
            Err(NnError::ShapeMismatch { .. })
        ));
    }
}
