//! Order statistics for latency samples.

/// Percentiles the tail search tries, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a percentile before it is
/// reported as the tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples, computed in
/// integer per-mille so that e.g. p99.9 of 10,000 samples is exactly rank
/// 9,990.
fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    let per_mille = (p * 10.0).round().clamp(0.0, 1000.0) as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// The highest percentile with at least [`MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (e.g. `99.0`).
    pub pct: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples strictly above its rank.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

/// Finds the highest of the usual reporting percentiles that still has
/// [`MIN_BEYOND`] samples beyond it; `None` when even the median lacks them.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_CANDIDATES.iter().find_map(|&pct| {
        if n == 0 {
            return None;
        }
        let beyond = n - rank(n, pct);
        (beyond >= MIN_BEYOND).then(|| Tail {
            pct,
            value: percentile(sorted, pct),
            beyond,
            n,
        })
    })
}

/// Median of an unsorted sample (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond, t.n), (99.0, 990.0, 10, 1000));

        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.9, 9990.0, 10));

        // 999 samples: p99 has only 9 beyond, so the tail drops to p95.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.pct, t.beyond, t.n), (95.0, 49, 999));

        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
    }

    #[test]
    fn tail_is_absent_below_twenty_samples() {
        assert!(tail(&ramp(19)).is_none());
        assert_eq!(tail(&ramp(20)).unwrap().pct, 50.0);
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn nearest_rank_percentiles_and_median() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
