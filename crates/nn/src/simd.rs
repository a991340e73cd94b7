//! SIMD kernels of the forward pass: the crate's one `tanh`, the
//! activation sweep, the single-row matmul and the lane-batched dense
//! product.
//!
//! The lane layout is fixed at [`LANE_WIDTH`] = 8 episodes wide: an
//! activation block for a layer of width `d` is a flat `d × 8` row-major
//! slab where element `k * 8 + lane` is feature `k` of episode `lane`.
//! Each element's value depends only on its own lane's column, so dead
//! (unoccupied) lanes simply carry zeros and never perturb live lanes.
//!
//! Three kernel tiers are provided — AVX-512VL (256-bit ops, the fastest
//! on current hardware with a single 512-bit FMA port), AVX2+FMA, and a
//! scalar fallback — selected once per process by runtime feature
//! detection. All three compute **bit-identical** results: the scalar tier
//! mirrors the vector tiers' exact per-element op sequence (`mul_add` ≡
//! FMA, exponent-field construction of `2^n` ≡ `vscalefpd`), so results
//! never depend on the host's ISA, only on the math itself.
//!
//! There is one `tanh`: the branchless `expm1`-based [`tanh_lane`] (max
//! relative error ≈ 1e-15 ≈ a few ulp against libm). The scalar
//! [`crate::Activation::apply`], the activation sweep behind every
//! single-row and batched forward, training, and the lane plan all
//! evaluate it, so the per-episode and lane paths differ only by the lane
//! kernel's FMA contraction and its missing zero-skip.

#[cfg(target_arch = "x86_64")]
use std::sync::OnceLock;

use crate::{Activation, Dense};

/// Number of episodes stepped in lockstep by the lane-batched kernels.
///
/// Activation slabs are always this many lanes wide regardless of how many
/// lanes are live; callers zero-fill dead lanes.
pub const LANE_WIDTH: usize = 8;

// Taylor coefficients of expm1 about 0 (degree 12), evaluated by Horner
// with FMA. |t| ≤ ln(2)/2 after range reduction, where degree 12 reaches
// ~1 ulp.
const C12: f64 = 1.0 / 479_001_600.0;
const C11: f64 = 1.0 / 39_916_800.0;
const C10: f64 = 1.0 / 3_628_800.0;
const C9: f64 = 1.0 / 362_880.0;
const C8: f64 = 1.0 / 40_320.0;
const C7: f64 = 1.0 / 5_040.0;
const C6: f64 = 1.0 / 720.0;
const C5: f64 = 1.0 / 120.0;
const C4: f64 = 1.0 / 24.0;
const C3: f64 = 1.0 / 6.0;
const LOG2E_2: f64 = 2.0 * std::f64::consts::LOG2_E;
const LN2: f64 = std::f64::consts::LN_2;

/// Scalar lane `tanh`: the reference the vector tiers are bit-tested
/// against, and the kernel itself on non-x86 hosts.
///
/// Computes `tanh(|x|) = (e^{2|x|} − 1)/(e^{2|x|} + 1)` with
/// `e^{2|x|} = 2^n · e^t` (range reduction `2|x| = n·ln2 + t`,
/// `|t| ≤ ln2/2`) in the cancellation-free `expm1` form
/// `N = 2^n·q + (2^n − 1)`, `D = 2^n·q + (2^n + 1)`, `q = e^t − 1`,
/// then restores the sign. `|x|` is capped at 20 (tanh saturates to 1.0
/// exactly well before that), which also bounds `n` for the exact
/// exponent-field construction of `2^n`. The cap is `minpd(20, |x|)`'s
/// select, not `f64::min`, so a NaN input fails the compare and comes out
/// NaN instead of saturating to ±1.
#[inline(always)]
pub(crate) fn tanh_lane(x: f64) -> f64 {
    let ax = x.abs();
    let ax = if 20.0 < ax { 20.0 } else { ax };
    let y = ax * LOG2E_2;
    let n = (y + 0.5).floor();
    let t = (y - n) * LN2;
    let mut q: f64 = C12;
    q = q.mul_add(t, C11);
    q = q.mul_add(t, C10);
    q = q.mul_add(t, C9);
    q = q.mul_add(t, C8);
    q = q.mul_add(t, C7);
    q = q.mul_add(t, C6);
    q = q.mul_add(t, C5);
    q = q.mul_add(t, C4);
    q = q.mul_add(t, C3);
    q = q.mul_add(t, 0.5);
    q = q.mul_add(t, 1.0);
    let q = q * t;
    // n is a small non-negative integer (≤ 58 given the cap), so 2^n is
    // exactly representable via the exponent field — the scalar twin of
    // `vscalefpd`.
    let p2n = f64::from_bits((1023u64 + n as u64) << 52);
    let num = p2n.mul_add(q, p2n - 1.0);
    let den = p2n.mul_add(q, p2n + 1.0);
    (num / den).copysign(x)
}

/// Scalar dense-lane kernel: `out[o·8+l] = bias[o] + Σ_k wt[o·in+k] ·
/// act[k·8+l]`, accumulated ascending-`k` with `mul_add` — the exact
/// float-op chain of the vector tiers (no zero-skip: lane slabs are dense
/// by construction and a skip would break the FMA chain equivalence).
fn dense_lanes_scalar(wt: &[f64], bias: &[f64], act: &[f64], out: &mut [f64]) {
    let in_dim = act.len() / LANE_WIDTH;
    for (o, &b) in bias.iter().enumerate() {
        let wrow = &wt[o * in_dim..(o + 1) * in_dim];
        let orow = &mut out[o * LANE_WIDTH..(o + 1) * LANE_WIDTH];
        orow.fill(b);
        for (k, &w) in wrow.iter().enumerate() {
            let arow = &act[k * LANE_WIDTH..(k + 1) * LANE_WIDTH];
            for (acc, &a) in orow.iter_mut().zip(arow) {
                *acc = w.mul_add(a, *acc);
            }
        }
    }
}

/// Scalar single-row dense kernel, `out[j] = σ(Σ_k a[k]·b[k·stride + j] +
/// bias[j])`: accumulated ascending-`k` from `+0.0` as separate `mul` and
/// `add`, skipping exact-zero `a[k]`, then `+ bias[j]` when a bias is
/// given, then `σ` — the per-element chain of the test suite's
/// `Dense::forward` oracle.
/// One column at a time, so each sum stays in a register.
fn row_dense_scalar(
    a: &[f64],
    b: &[f64],
    stride: usize,
    bias: Option<&[f64]>,
    act: Activation,
    out: &mut [f64],
) {
    for (j, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (&ak, &bk) in a.iter().zip(b.iter().skip(j).step_by(stride)) {
            if ak != 0.0 {
                acc += ak * bk;
            }
        }
        if let Some(bias) = bias {
            acc += bias[j];
        }
        *o = act.apply(acc);
    }
}

/// The vector tiers. Safety: every `unsafe fn` here needs the CPU features
/// its `target_feature` names, and the slice lengths its dispatcher below
/// asserts.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Activation, C10, C11, C12, C3, C4, C5, C6, C7, C8, C9, LANE_WIDTH, LN2, LOG2E_2};
    use std::arch::x86_64::*;

    /// One 4-lane tanh in ymm registers; shared op sequence for the AVX2
    /// and AVX-512VL tiers (only `2^n` construction differs, and both
    /// constructions are exact).
    macro_rules! tanh_vec4_body {
        ($x:expr, $p2n_of:expr) => {{
            let sign_mask = _mm256_set1_pd(-0.0);
            let one = _mm256_set1_pd(1.0);
            let half = _mm256_set1_pd(0.5);
            let x = $x;
            // `minpd` returns its second operand on NaN: a NaN lane stays NaN.
            let ax = _mm256_min_pd(_mm256_set1_pd(20.0), _mm256_andnot_pd(sign_mask, x));
            let y = _mm256_mul_pd(ax, _mm256_set1_pd(LOG2E_2));
            let n = _mm256_floor_pd(_mm256_add_pd(y, half));
            let t = _mm256_mul_pd(_mm256_sub_pd(y, n), _mm256_set1_pd(LN2));
            let mut q = _mm256_set1_pd(C12);
            q = _mm256_fmadd_pd(q, t, _mm256_set1_pd(C11));
            q = _mm256_fmadd_pd(q, t, _mm256_set1_pd(C10));
            q = _mm256_fmadd_pd(q, t, _mm256_set1_pd(C9));
            q = _mm256_fmadd_pd(q, t, _mm256_set1_pd(C8));
            q = _mm256_fmadd_pd(q, t, _mm256_set1_pd(C7));
            q = _mm256_fmadd_pd(q, t, _mm256_set1_pd(C6));
            q = _mm256_fmadd_pd(q, t, _mm256_set1_pd(C5));
            q = _mm256_fmadd_pd(q, t, _mm256_set1_pd(C4));
            q = _mm256_fmadd_pd(q, t, _mm256_set1_pd(C3));
            q = _mm256_fmadd_pd(q, t, half);
            q = _mm256_fmadd_pd(q, t, one);
            let q = _mm256_mul_pd(q, t);
            let p2n = $p2n_of(one, n);
            let num = _mm256_fmadd_pd(p2n, q, _mm256_sub_pd(p2n, one));
            let den = _mm256_fmadd_pd(p2n, q, _mm256_add_pd(p2n, one));
            let r = _mm256_div_pd(num, den);
            _mm256_or_pd(r, _mm256_and_pd(sign_mask, x))
        }};
    }

    /// In-place tanh over a slice of any length: 4-wide vector body, the
    /// tail padded through the same body, so every element takes the one
    /// op sequence.
    macro_rules! tanh_sweep {
        ($xs:expr, $p2n_of:expr) => {{
            let mut chunks = $xs.chunks_exact_mut(4);
            for c in &mut chunks {
                let r = tanh_vec4_body!(_mm256_loadu_pd(c.as_ptr()), $p2n_of);
                _mm256_storeu_pd(c.as_mut_ptr(), r);
            }
            let tail = chunks.into_remainder();
            if !tail.is_empty() {
                let mut pad = [0.0; 4];
                pad[..tail.len()].copy_from_slice(tail);
                let r = tanh_vec4_body!(_mm256_loadu_pd(pad.as_ptr()), $p2n_of);
                _mm256_storeu_pd(pad.as_mut_ptr(), r);
                tail.copy_from_slice(&pad[..tail.len()]);
            }
        }};
    }

    #[target_feature(enable = "avx512vl,avx512f")]
    pub unsafe fn tanh_avx512vl(xs: &mut [f64]) {
        tanh_sweep!(xs, |one, n| _mm256_scalef_pd(one, n));
    }

    /// `2^n` without `vscalefpd`: `n ≥ 0` is integer-valued, so adding
    /// `n << 52` to the bits of 1.0 sets the exponent exactly.
    #[inline(always)]
    unsafe fn p2n_avx2(one: __m256d, n: __m256d) -> __m256d {
        let ni64 = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(n));
        _mm256_castsi256_pd(_mm256_add_epi64(
            _mm256_castpd_si256(one),
            _mm256_slli_epi64(ni64, 52),
        ))
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn tanh_avx2(xs: &mut [f64]) {
        tanh_sweep!(xs, p2n_avx2);
    }

    /// Scalar [`super::tanh_lane`] compiled with `fma`, so each `mul_add`
    /// is one `vfmadd` instead of a call into libm's `fma`. Same bits.
    #[target_feature(enable = "fma")]
    pub unsafe fn tanh_fma(x: f64) -> f64 {
        super::tanh_lane(x)
    }

    /// Output columns `j..j + 4·V` of [`row_dense_avx2`], `V` ymm
    /// accumulators held across the whole `k` sweep (the scalar tier's
    /// ascending-`k` chain and zero-skip, `mul` and `add` kept separate),
    /// then `+ bias` and, for `tanh`, the vector tanh body applied in
    /// registers before the one store. Never inlined, so the epilogue's
    /// constants are not hoisted into registers the `k` sweep needs.
    #[inline(never)]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn row_block<const V: usize>(
        a: &[f64],
        b: &[f64],
        bias: Option<&[f64]>,
        tanh: bool,
        j: usize,
        out: &mut [f64],
    ) {
        let n = out.len();
        let mut acc = [_mm256_setzero_pd(); V];
        for (k, &ak) in a.iter().enumerate() {
            if ak == 0.0 {
                continue;
            }
            let av = _mm256_set1_pd(ak);
            let row = b.as_ptr().add(k * n + j);
            for (v, acc) in acc.iter_mut().enumerate() {
                *acc = _mm256_add_pd(*acc, _mm256_mul_pd(av, _mm256_loadu_pd(row.add(4 * v))));
            }
        }
        if let Some(bias) = bias {
            for (v, acc) in acc.iter_mut().enumerate() {
                *acc = _mm256_add_pd(*acc, _mm256_loadu_pd(bias.as_ptr().add(j + 4 * v)));
            }
        }
        if tanh {
            for acc in acc.iter_mut() {
                *acc = tanh_vec4_body!(*acc, p2n_avx2);
            }
        }
        for (v, acc) in acc.iter().enumerate() {
            _mm256_storeu_pd(out.as_mut_ptr().add(j + 4 * v), *acc);
        }
    }

    /// AVX2 single-row dense kernel: 32 output columns per block, then 4,
    /// then the scalar chain, activation included, for the last `n mod 4`.
    /// `tanh` runs in the blocks' epilogue; any other activation runs on
    /// the stored row.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn row_dense_avx2(
        a: &[f64],
        b: &[f64],
        bias: Option<&[f64]>,
        act: Activation,
        out: &mut [f64],
    ) {
        let (n, tanh) = (out.len(), act == Activation::Tanh);
        let mut j = 0;
        while j + 32 <= n {
            row_block::<8>(a, b, bias, tanh, j, out);
            j += 32;
        }
        while j + 4 <= n {
            row_block::<1>(a, b, bias, tanh, j, out);
            j += 4;
        }
        let (tail, bias) = (b.get(j..).unwrap_or_default(), bias.map(|b| &b[j..]));
        super::row_dense_scalar(a, tail, n, bias, act, &mut out[j..]);
        if !tanh && act != Activation::Identity {
            out[..j].iter_mut().for_each(|x| *x = act.apply(*x));
        }
    }

    /// Dense-lane kernel over blocks of `B` output features, so each
    /// activation row is loaded once per block: per feature, two
    /// accumulators (lanes 0–3 and 4–7) seeded with its bias and one
    /// ascending-`k` FMA chain against the broadcast weight. Leftover
    /// features run one at a time.
    #[inline(always)]
    unsafe fn dense_blocks<const B: usize>(wt: &[f64], bias: &[f64], act: &[f64], out: &mut [f64]) {
        let in_dim = act.len() / LANE_WIDTH;
        let full = bias.len() / B * B;
        for o in (0..full).step_by(B) {
            let mut lo = [_mm256_setzero_pd(); B];
            for (i, acc) in lo.iter_mut().enumerate() {
                *acc = _mm256_set1_pd(bias[o + i]);
            }
            let mut hi = lo;
            for k in 0..in_dim {
                let avl = _mm256_loadu_pd(act.as_ptr().add(k * LANE_WIDTH));
                let avh = _mm256_loadu_pd(act.as_ptr().add(k * LANE_WIDTH + 4));
                for i in 0..B {
                    let w = _mm256_set1_pd(wt[(o + i) * in_dim + k]);
                    lo[i] = _mm256_fmadd_pd(w, avl, lo[i]);
                    hi[i] = _mm256_fmadd_pd(w, avh, hi[i]);
                }
            }
            for i in 0..B {
                _mm256_storeu_pd(out.as_mut_ptr().add((o + i) * LANE_WIDTH), lo[i]);
                _mm256_storeu_pd(out.as_mut_ptr().add((o + i) * LANE_WIDTH + 4), hi[i]);
            }
        }
        if B > 1 && full < bias.len() {
            let (wt, out) = (&wt[full * in_dim..], &mut out[full * LANE_WIDTH..]);
            dense_blocks::<1>(wt, &bias[full..], act, out);
        }
    }

    /// AVX-512VL dense-lane kernel: four output features per block (16
    /// ymm accumulators — the VL tier's registers 16–31 keep the block
    /// resident).
    #[target_feature(enable = "avx512vl,avx512f")]
    pub unsafe fn dense_lanes_avx512vl(wt: &[f64], bias: &[f64], act: &[f64], out: &mut [f64]) {
        dense_blocks::<4>(wt, bias, act, out);
    }

    /// AVX2+FMA dense-lane kernel: two output features per block (AVX2
    /// has only ymm0–15).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dense_lanes_avx2(wt: &[f64], bias: &[f64], act: &[f64], out: &mut [f64]) {
        dense_blocks::<2>(wt, bias, act, out);
    }
}

/// Kernel tier selected at runtime, once per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// AVX-512VL 256-bit kernels (fastest measured: wide register file
    /// without the 512-bit port bottleneck).
    #[cfg(target_arch = "x86_64")]
    Avx512Vl,
    /// AVX2 + FMA kernels.
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    /// Portable `mul_add` kernels; also the bit-identity reference.
    Scalar,
}

#[cfg(target_arch = "x86_64")]
static ISA: OnceLock<Isa> = OnceLock::new();

/// The kernel tier in use on this host.
pub(crate) fn isa() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        *ISA.get_or_init(|| {
            // Both vector tiers also run the AVX2 row kernel and the
            // FMA-compiled scalar tanh.
            if !(is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")) {
                Isa::Scalar
            } else if is_x86_feature_detected!("avx512vl") && is_x86_feature_detected!("avx512f") {
                Isa::Avx512Vl
            } else {
                Isa::Avx2Fma
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Isa::Scalar
    }
}

/// Dense-lane kernel entry: `out = Wᵀ·act + b` over 8-lane SoA slabs.
///
/// `wt` is the **transposed** weight matrix (`out_dim × in_dim` row-major),
/// `act` is `in_dim × 8`, `out` is `out_dim × 8`. Callers (the shape-checked
/// [`crate::Matrix::matmul_lanes_into`]) guarantee the slice lengths.
pub(crate) fn dense_lanes(wt: &[f64], bias: &[f64], act: &[f64], out: &mut [f64]) {
    debug_assert_eq!(act.len() % LANE_WIDTH, 0);
    debug_assert_eq!(wt.len() * LANE_WIDTH, bias.len() * act.len());
    assert_eq!(out.len(), bias.len() * LANE_WIDTH, "out is out_dim × 8");
    match isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: tier selected only when the features are detected; the
        // vector tiers index `act` within `act.len()` and `wt` with bounds
        // checks, and store into `out` only within the length asserted above.
        Isa::Avx512Vl => unsafe { x86::dense_lanes_avx512vl(wt, bias, act, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Isa::Avx2Fma => unsafe { x86::dense_lanes_avx2(wt, bias, act, out) },
        Isa::Scalar => dense_lanes_scalar(wt, bias, act, out),
    }
}

/// The crate's `tanh` on one value ([`crate::Activation::apply`]).
pub(crate) fn tanh(x: f64) -> f64 {
    match isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: both vector tiers are selected only when `fma` is detected.
        Isa::Avx512Vl | Isa::Avx2Fma => unsafe { x86::tanh_fma(x) },
        Isa::Scalar => tanh_lane(x),
    }
}

/// Applies `act` element-wise, in place, to a slice of any length: one
/// row of a layer's output or an 8-wide SoA slab. `Tanh` runs the vector
/// tier of this host; every result equals [`crate::Activation::apply`]
/// to the bit.
pub(crate) fn activate(act: Activation, xs: &mut [f64]) {
    match (act, isa()) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: tier selected only when the features are detected.
        (Activation::Tanh, Isa::Avx512Vl) => unsafe { x86::tanh_avx512vl(xs) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        (Activation::Tanh, Isa::Avx2Fma) => unsafe { x86::tanh_avx2(xs) },
        _ => xs.iter_mut().for_each(|x| *x = act.apply(*x)),
    }
}

/// One dense layer on one row, `out = σ(a·B + bias)` for a row-major `B`
/// of `a.len() × out.len()` and an optional `out.len()`-long `bias`, on
/// tier `isa` ([`isa()`] or [`Isa::Scalar`]). Every tier runs the chain of
/// [`row_dense_scalar`], so the result is the same to the bit.
fn row_dense(
    isa: Isa,
    a: &[f64],
    b: &[f64],
    bias: Option<&[f64]>,
    act: Activation,
    out: &mut [f64],
) {
    assert!(
        isa == Isa::Scalar || isa == self::isa(),
        "{isa:?} not detected"
    );
    assert_eq!(b.len(), a.len() * out.len(), "b is a.len() × out.len()");
    assert!(bias.is_none_or(|b| b.len() == out.len()), "bias length");
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the first assert admits a vector tier only as `isa()`,
        // which selects one only when `avx2` and `fma` are detected; the
        // kernel loads `b` and `bias` within the lengths asserted above.
        Isa::Avx512Vl | Isa::Avx2Fma => unsafe { x86::row_dense_avx2(a, b, bias, act, out) },
        Isa::Scalar => row_dense_scalar(a, b, out.len(), bias, act, out),
    }
}

/// Single-row product `out = a · B`: [`row_dense`] without its epilogue.
pub(crate) fn row_matmul(a: &[f64], b: &[f64], out: &mut [f64]) {
    row_dense(isa(), a, b, None, Activation::Identity, out);
}

/// Single-row forward pass through `layers` on tier `isa` ([`isa()`] or
/// [`Isa::Scalar`]). Each layer is one [`row_dense`] with `+ b` and `σ` in
/// its epilogue; its row is stored once, into `ping` or `pong` (each as
/// wide as the widest hidden layer), for the next layer to broadcast from,
/// and the last layer writes `out`. Bit-identical to the test suite's
/// `Mlp::forward` oracle.
pub(crate) fn row_forward(
    isa: Isa,
    layers: &[Dense],
    input: &[f64],
    ping: &mut [f64],
    pong: &mut [f64],
    out: &mut [f64],
) {
    let (mut src, mut dst) = (ping, pong);
    for (i, layer) in layers.iter().enumerate() {
        let a = if i == 0 {
            input
        } else {
            &src[..layer.in_dim()]
        };
        let o = if i + 1 == layers.len() {
            &mut *out
        } else {
            &mut dst[..layer.out_dim()]
        };
        let (w, b, act) = (layer.weights().as_slice(), layer.bias(), layer.activation());
        row_dense(isa, a, w, Some(b), act, o);
        std::mem::swap(&mut src, &mut dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_rng::{Rng, SplitMix64};

    #[test]
    fn tanh_lane_is_accurate_to_a_few_ulp() {
        let mut max_rel = 0.0f64;
        for i in 0..40_000 {
            let x = (i as f64 - 20_000.0) * 0.00125; // [-25, 25]
            let got = tanh_lane(x);
            let want = x.tanh();
            let rel = if want != 0.0 {
                ((want - got) / want).abs()
            } else {
                (want - got).abs()
            };
            max_rel = max_rel.max(rel);
            assert!(
                (-1.0..=1.0).contains(&got),
                "tanh({x}) = {got} out of range"
            );
        }
        assert!(max_rel < 5e-15, "max rel err {max_rel:e}");
    }

    #[test]
    fn tanh_lane_edge_cases() {
        assert_eq!(tanh_lane(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(tanh_lane(-0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(tanh_lane(50.0), 1.0);
        assert_eq!(tanh_lane(-50.0), -1.0);
        assert_eq!(tanh_lane(1e300), 1.0);
        assert_eq!(tanh_lane(20.0), 1.0);
        assert_eq!(tanh_lane(-20.0), -1.0);
        assert_eq!(tanh_lane(f64::INFINITY), 1.0);
        assert_eq!(tanh_lane(f64::NEG_INFINITY), -1.0);
        assert!(tanh_lane(f64::NAN).is_nan());
        assert!(tanh_lane(-f64::NAN).is_nan());
        // Odd symmetry is exact (copysign of an |x| computation).
        for x in [1e-8, 0.3, 1.0, 5.0, 19.9] {
            assert_eq!(tanh_lane(-x).to_bits(), (-tanh_lane(x)).to_bits());
        }
    }

    /// Inputs every tanh tier must agree on: signed zeros, subnormals,
    /// the cap, infinities and NaN, beside ordinary values.
    const TANH_EDGES: [f64; 13] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 4.0,
        -f64::MIN_POSITIVE / 4.0,
        20.0,
        -20.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        1e-8,
        0.75,
        -3.5,
    ];

    /// A vector tanh tier by name.
    #[cfg(target_arch = "x86_64")]
    type TanhTier = (&'static str, unsafe fn(&mut [f64]));

    /// The vector tiers detected on this host.
    #[cfg(target_arch = "x86_64")]
    fn tanh_tiers() -> Vec<TanhTier> {
        let mut tiers: Vec<TanhTier> = Vec::new();
        if is_x86_feature_detected!("avx512vl")
            && is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("fma")
        {
            tiers.push(("avx512vl", x86::tanh_avx512vl));
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            tiers.push(("avx2", x86::tanh_avx2));
        }
        tiers
    }

    /// Bit equality that also accepts NaN against NaN (payloads and signs
    /// of NaN are not part of the contract).
    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Every detected vector tier must reproduce the scalar kernels to the
    /// bit — the property the cross-ISA determinism contract rests on.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_tiers_are_bit_identical_to_scalar() {
        let mut rng = SplitMix64::seed_from_u64(0xBEEF);
        for (in_dim, out_dim) in [(5, 32), (32, 32), (32, 1), (3, 7), (1, 1), (7, 5)] {
            let wt: Vec<f64> = (0..out_dim * in_dim)
                .map(|_| rng.random_range(-2.0..2.0))
                .collect();
            let bias: Vec<f64> = (0..out_dim).map(|_| rng.random_range(-1.0..1.0)).collect();
            let act: Vec<f64> = (0..in_dim * LANE_WIDTH)
                .map(|_| rng.random_range(-3.0..3.0))
                .collect();
            let mut reference = vec![0.0; out_dim * LANE_WIDTH];
            dense_lanes_scalar(&wt, &bias, &act, &mut reference);
            // The edge inputs ride along in the tanh half of the check.
            let mut tanh_in = reference.clone();
            tanh_in.extend(TANH_EDGES);
            let tanh_ref: Vec<f64> = tanh_in.iter().map(|&x| tanh_lane(x)).collect();

            if is_x86_feature_detected!("avx512vl") && is_x86_feature_detected!("avx512f") {
                let mut got = vec![0.0; out_dim * LANE_WIDTH];
                // SAFETY: feature checked above.
                unsafe { x86::dense_lanes_avx512vl(&wt, &bias, &act, &mut got) };
                for (g, r) in got.iter().zip(&reference) {
                    assert_eq!(
                        g.to_bits(),
                        r.to_bits(),
                        "avx512vl dense {in_dim}x{out_dim}"
                    );
                }
            }
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                let mut got = vec![0.0; out_dim * LANE_WIDTH];
                // SAFETY: feature checked above.
                unsafe { x86::dense_lanes_avx2(&wt, &bias, &act, &mut got) };
                for (g, r) in got.iter().zip(&reference) {
                    assert_eq!(g.to_bits(), r.to_bits(), "avx2 dense {in_dim}x{out_dim}");
                }
            }
            for (tier, sweep) in tanh_tiers() {
                let mut got = tanh_in.clone();
                // SAFETY: `tanh_tiers` lists only detected tiers.
                unsafe { sweep(&mut got) };
                for (g, r) in got.iter().zip(&tanh_ref) {
                    assert!(
                        same_bits(*g, *r),
                        "{tier} tanh {in_dim}x{out_dim}: {g} vs {r}"
                    );
                }
            }
        }
    }

    /// The sweep pads its tail through the vector body: every length from
    /// empty to 40 (every tail length, several full blocks) must match the
    /// scalar `tanh_lane` per element, on every tier, with the edge inputs
    /// placed at every position modulo the block width.
    #[test]
    fn sweep_matches_scalar_tanh_at_every_length() {
        let mut rng = SplitMix64::seed_from_u64(0x7A4);
        for len in 0..=40usize {
            for shift in 0..4 {
                let xs: Vec<f64> = (0..len)
                    .map(|i| match (i + shift) % 3 {
                        0 => TANH_EDGES[(i + shift) % TANH_EDGES.len()],
                        _ => rng.random_range(-25.0..25.0),
                    })
                    .collect();
                let want: Vec<f64> = xs.iter().map(|&x| tanh_lane(x)).collect();
                let mut got = xs.clone();
                activate(crate::Activation::Tanh, &mut got);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert!(same_bits(*g, *w), "dispatched len {len} [{i}] {}", xs[i]);
                }
                #[cfg(target_arch = "x86_64")]
                for (tier, sweep) in tanh_tiers() {
                    let mut got = xs.clone();
                    // SAFETY: `tanh_tiers` lists only detected tiers.
                    unsafe { sweep(&mut got) };
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert!(same_bits(*g, *w), "{tier} len {len} [{i}] {}", xs[i]);
                    }
                }
            }
        }
    }

    /// The dispatched single-row matmul against the scalar chain, across
    /// widths around the 4- and 32-column blocks, with `0.0` and `-0.0`
    /// in the row so the zero-skip decides some sums.
    #[test]
    fn row_matmul_is_bit_identical_to_scalar_chain() {
        let mut rng = SplitMix64::seed_from_u64(0x5EED);
        for in_dim in [0usize, 1, 5, 32] {
            for n in [1usize, 3, 4, 5, 31, 32, 33] {
                let a: Vec<f64> = (0..in_dim)
                    .map(|k| match k % 4 {
                        1 => 0.0,
                        3 => -0.0,
                        _ => rng.random_range(-2.0..2.0),
                    })
                    .collect();
                let b: Vec<f64> = (0..in_dim * n)
                    .map(|i| {
                        if i % 7 == 0 {
                            -0.0
                        } else {
                            rng.random_range(-2.0..2.0)
                        }
                    })
                    .collect();
                let mut want = vec![f64::NAN; n];
                row_dense_scalar(&a, &b, n, None, Activation::Identity, &mut want);
                let mut got = vec![f64::NAN; n];
                row_matmul(&a, &b, &mut got);
                for (j, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "{in_dim}x{n} col {j}");
                }
                #[cfg(target_arch = "x86_64")]
                if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                    let mut got = vec![f64::NAN; n];
                    // SAFETY: feature checked above; `b` is `a.len() × n`.
                    unsafe { x86::row_dense_avx2(&a, &b, None, Activation::Identity, &mut got) };
                    for (j, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(g.to_bits(), w.to_bits(), "avx2 {in_dim}x{n} col {j}");
                    }
                }
            }
        }
    }

    /// A copy of `layer` with its weights and biases rewritten to carry
    /// exact zeros of both signs and subnormals. Output 1 is a dead neuron
    /// (zero column, zero bias), and past the first layer `w[1][0]` is
    /// infinite: output 0 stays finite only while the zero-skip passes
    /// over the dead neuron's exact zero.
    fn with_edge_weights(layer: &Dense, first: bool, rng: &mut SplitMix64) -> Dense {
        let (rows, cols) = (layer.in_dim(), layer.out_dim());
        let mut pick = |dead: bool| match rng.random_range(0..9u32) {
            _ if dead => 0.0,
            0 => 0.0,
            1 => -0.0,
            2 => f64::MIN_POSITIVE / 8.0,
            _ => rng.random_range(-1.5..1.5),
        };
        let w = crate::Matrix::from_fn(rows, cols, |r, c| match (r, c) {
            (1, 0) if !first => f64::INFINITY,
            _ => pick(c == 1),
        });
        let bias = (0..cols).map(|c| pick(c == 1)).collect();
        Dense::from_parts(w, bias, layer.activation()).unwrap()
    }

    /// The fused row forward, on the scalar tier and on the tier this host
    /// dispatches to (both vector tiers run the one AVX2 row kernel), and
    /// `predict_into` itself, against `Mlp::forward`
    /// and a layer-by-layer `matmul_naive` oracle: every layer width around
    /// the 4- and 32-column blocks, every activation pairing, and inputs
    /// carrying signed zeros, subnormals, infinities and NaN.
    #[test]
    fn row_forward_is_bit_identical_to_forward_on_every_tier() {
        use crate::{Matrix, Mlp, MlpScratch};
        const ACTS: [Activation; 4] = [
            Activation::Tanh,
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Identity,
        ];
        let widths = [1usize, 3, 4, 5, 31, 32, 33, 40, 64];
        let tiers = [Isa::Scalar, isa()];
        let mut rng = SplitMix64::seed_from_u64(0xF05E);
        for (case, in_dim) in [1usize, 5, 32].into_iter().enumerate() {
            for (i, &w) in widths.iter().enumerate() {
                let sizes = [in_dim, w, widths[(i + 3) % 9], widths[(i + 5 + case) % 9]];
                let (hidden, output) = (ACTS[(i + case) % 4], ACTS[(i / 4 + case + 1) % 4]);
                let seeded = Mlp::new(&sizes, hidden, output, i as u64).unwrap();
                let layers = seeded.layers().iter().enumerate();
                let layers = layers.map(|(l, d)| with_edge_weights(d, l == 0, &mut rng));
                let net = Mlp::from_layers(layers.collect()).unwrap();
                let mut rows = vec![0.0; in_dim];
                rows.extend(vec![-0.0; in_dim]);
                for r in 0..12 {
                    rows.extend((0..in_dim).map(|k| match (r + k) % 3 {
                        0 => TANH_EDGES[(r * 7 + k) % TANH_EDGES.len()],
                        _ => rng.random_range(-3.0..3.0),
                    }));
                }
                let x = Matrix::from_vec(rows.len() / in_dim, in_dim, rows).unwrap();
                let want = net.forward(&x).unwrap();
                let naive = net.layers().iter().fold(x.clone(), |h, l| {
                    let z = h.matmul_naive(l.weights()).unwrap();
                    let z = z.add_row_broadcast(l.bias()).unwrap();
                    z.map(|v| l.activation().apply(v))
                });
                for (g, w) in want.as_slice().iter().zip(naive.as_slice()) {
                    assert!(same_bits(*g, *w), "forward {sizes:?}: {g} vs {w}");
                }
                let (mut ping, mut pong) = (vec![f64::NAN; 64], vec![f64::NAN; 64]);
                let mut scratch = MlpScratch::new();
                let mut got = vec![f64::NAN; net.output_dim()];
                for r in 0..x.rows() {
                    let ctx = format!("{sizes:?} {hidden}/{output} row {r}");
                    for tier in tiers {
                        row_forward(tier, net.layers(), x.row(r), &mut ping, &mut pong, &mut got);
                        for (g, w) in got.iter().zip(want.row(r)) {
                            assert!(same_bits(*g, *w), "{tier:?} {ctx}: {g} vs {w}");
                        }
                    }
                    net.predict_into(x.row(r), &mut scratch, &mut got).unwrap();
                    for (g, w) in got.iter().zip(want.row(r)) {
                        assert!(same_bits(*g, *w), "predict_into {ctx}: {g} vs {w}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "b is a.len()")]
    fn row_matmul_rejects_a_short_operand() {
        row_matmul(&[1.0, 2.0], &[0.0; 7], &mut [0.0; 4]);
    }

    #[test]
    fn dead_lanes_stay_independent() {
        // Zeros in dead lanes must not perturb live lanes: recompute with
        // garbage in lanes 4..8 and check lanes 0..4 are unchanged.
        let mut rng = SplitMix64::seed_from_u64(7);
        let (in_dim, out_dim) = (5, 8);
        let wt: Vec<f64> = (0..out_dim * in_dim)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        let bias: Vec<f64> = (0..out_dim).map(|_| rng.random_range(-1.0..1.0)).collect();
        let mut act: Vec<f64> = (0..in_dim * LANE_WIDTH)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        let mut out_a = vec![0.0; out_dim * LANE_WIDTH];
        dense_lanes(&wt, &bias, &act, &mut out_a);
        activate(crate::Activation::Tanh, &mut out_a);
        for k in 0..in_dim {
            for lane in 4..LANE_WIDTH {
                act[k * LANE_WIDTH + lane] = 1e6 * (lane as f64);
            }
        }
        let mut out_b = vec![0.0; out_dim * LANE_WIDTH];
        dense_lanes(&wt, &bias, &act, &mut out_b);
        activate(crate::Activation::Tanh, &mut out_b);
        for o in 0..out_dim {
            for lane in 0..4 {
                let i = o * LANE_WIDTH + lane;
                assert_eq!(out_a[i].to_bits(), out_b[i].to_bits());
            }
        }
    }

    #[test]
    fn activate_matches_apply_for_every_activation() {
        use crate::Activation;
        let xs: Vec<f64> = (0..19).map(|i| (i as f64 - 8.0) * 0.4).collect();
        for act in [
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Identity,
            Activation::Tanh,
        ] {
            let mut got = xs.clone();
            activate(act, &mut got);
            for (&g, &x) in got.iter().zip(&xs) {
                assert_eq!(g.to_bits(), act.apply(x).to_bits(), "{act}");
            }
        }
    }
}
