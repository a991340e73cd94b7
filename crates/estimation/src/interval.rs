/// A closed real interval `[lo, hi]`.
///
/// Intervals are the currency of the information filter: hard bounds from
/// sensor noise (`±δ`), reachable sets from stale messages (paper Eq. 2) and
/// `k·σ` confidence bands from the Kalman filter are all intervals, joined by
/// intersection ("the joined estimation is
/// `[max(p₁, p₃), min(p₂, p₄)]`", paper §III-B).
///
/// Invariant: `lo ≤ hi`, both finite. Constructors enforce it.
///
/// # Example
///
/// ```
/// use cv_estimation::Interval;
///
/// let reach = Interval::new(18.0, 26.0);
/// let sensed = Interval::new(22.0, 30.0);
/// let joined = reach.intersect(&sensed).expect("both contain the truth");
/// assert_eq!(joined, Interval::new(22.0, 26.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// Creates `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        Self::try_new(lo, hi).unwrap_or_else(|| panic!("invalid interval [{lo}, {hi}]"))
    }

    /// Creates `[lo, hi]`, returning `None` if the bounds are invalid.
    pub fn try_new(lo: f64, hi: f64) -> Option<Self> {
        if lo.is_finite() && hi.is_finite() && lo <= hi {
            Some(Self { lo, hi })
        } else {
            None
        }
    }

    /// The degenerate interval `[x, x]`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    pub fn point(x: f64) -> Self {
        Self::new(x, x)
    }

    /// `[x − r, x + r]`.
    ///
    /// # Panics
    ///
    /// Panics if `r < 0` or the bounds are not finite.
    pub fn centered(x: f64, r: f64) -> Self {
        assert!(r >= 0.0, "radius must be nonnegative, got {r}");
        Self::new(x - r, x + r)
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Width `hi − lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Midpoint `(lo + hi) / 2`.
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Returns `true` if `x ∈ [lo, hi]`.
    pub fn contains(&self, x: f64) -> bool {
        (self.lo..=self.hi).contains(&x)
    }

    /// Returns `true` if `other ⊆ self`.
    pub fn contains_interval(&self, other: &Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Returns `true` if the two intervals share at least one point.
    ///
    /// This is the window-overlap test of the unsafe set (paper Eq. 6):
    /// `[τ_0,min, τ_0,max] ∩ [τ_1,min, τ_1,max] ≠ ∅`.
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Intersection, or `None` when disjoint.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        Interval::try_new(self.lo.max(other.lo), self.hi.min(other.hi))
    }

    /// Smallest interval containing both (the interval hull).
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Widens both ends by `margin ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics if `margin < 0`.
    pub fn expand(&self, margin: f64) -> Interval {
        assert!(margin >= 0.0, "margin must be nonnegative, got {margin}");
        Interval {
            lo: self.lo - margin,
            hi: self.hi + margin,
        }
    }

    /// Clamps `x` into the interval.
    pub fn clamp(&self, x: f64) -> f64 {
        x.clamp(self.lo, self.hi)
    }

    /// Minkowski sum `[a+c, b+d]`.
    pub fn add(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo + other.lo,
            hi: self.hi + other.hi,
        }
    }

    /// Scales by `k` (flipping bounds when `k < 0`).
    pub fn scale(&self, k: f64) -> Interval {
        if k >= 0.0 {
            Interval {
                lo: self.lo * k,
                hi: self.hi * k,
            }
        } else {
            Interval {
                lo: self.hi * k,
                hi: self.lo * k,
            }
        }
    }
}

impl std::ops::Add for Interval {
    type Output = Interval;

    fn add(self, rhs: Interval) -> Interval {
        Interval::add(&self, &rhs)
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:.4}, {:.4}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_enforces_invariant() {
        assert!(Interval::try_new(1.0, 0.0).is_none());
        assert!(Interval::try_new(f64::NAN, 0.0).is_none());
        assert!(Interval::try_new(0.0, f64::INFINITY).is_none());
        assert!(Interval::try_new(0.0, 0.0).is_some());
    }

    #[test]
    #[should_panic]
    fn new_panics_on_inverted_bounds() {
        let _ = Interval::new(2.0, 1.0);
    }

    #[test]
    fn basic_queries() {
        let i = Interval::new(-1.0, 3.0);
        assert_eq!(i.width(), 4.0);
        assert_eq!(i.midpoint(), 1.0);
        assert!(i.contains(-1.0));
        assert!(i.contains(3.0));
        assert!(!i.contains(3.1));
        assert_eq!(i.clamp(10.0), 3.0);
        assert_eq!(i.clamp(-10.0), -1.0);
    }

    #[test]
    fn intersection_and_overlap() {
        let a = Interval::new(0.0, 2.0);
        let b = Interval::new(1.0, 3.0);
        let c = Interval::new(2.5, 4.0);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert_eq!(a.intersect(&b), Some(Interval::new(1.0, 2.0)));
        assert_eq!(a.intersect(&c), None);
        // Touching at a point counts as overlap (closed intervals).
        assert!(a.overlaps(&Interval::new(2.0, 5.0)));
    }

    #[test]
    fn scale_flips_on_negative() {
        let i = Interval::new(1.0, 2.0);
        assert_eq!(i.scale(-1.0), Interval::new(-2.0, -1.0));
        assert_eq!(i.scale(2.0), Interval::new(2.0, 4.0));
    }

    cv_rng::props! {        fn intersect_is_subset_of_both(
            a in -100.0..100.0f64, w1 in 0.0..50.0f64,
            b in -100.0..100.0f64, w2 in 0.0..50.0f64,
        ) {
            let x = Interval::new(a, a + w1);
            let y = Interval::new(b, b + w2);
            if let Some(i) = x.intersect(&y) {
                assert!(x.contains_interval(&i));
                assert!(y.contains_interval(&i));
            } else {
                assert!(!x.overlaps(&y));
            }
        }
        fn hull_contains_both(
            a in -100.0..100.0f64, w1 in 0.0..50.0f64,
            b in -100.0..100.0f64, w2 in 0.0..50.0f64,
        ) {
            let x = Interval::new(a, a + w1);
            let y = Interval::new(b, b + w2);
            let h = x.hull(&y);
            assert!(h.contains_interval(&x));
            assert!(h.contains_interval(&y));
        }
        fn overlap_iff_intersection_exists(
            a in -100.0..100.0f64, w1 in 0.0..50.0f64,
            b in -100.0..100.0f64, w2 in 0.0..50.0f64,
        ) {
            let x = Interval::new(a, a + w1);
            let y = Interval::new(b, b + w2);
            assert_eq!(x.overlaps(&y), x.intersect(&y).is_some());
        }
        fn minkowski_sum_contains_pointwise_sums(
            a in -100.0..100.0f64, w1 in 0.0..50.0f64,
            b in -100.0..100.0f64, w2 in 0.0..50.0f64,
            t1 in 0.0..1.0f64, t2 in 0.0..1.0f64,
        ) {
            let x = Interval::new(a, a + w1);
            let y = Interval::new(b, b + w2);
            let px = x.lo() + t1 * x.width();
            let py = y.lo() + t2 * y.width();
            assert!((x + y).contains(px + py));
        }
        fn expand_then_contains(
            a in -100.0..100.0f64, w in 0.0..50.0f64, m in 0.0..10.0f64,
        ) {
            let x = Interval::new(a, a + w);
            assert!(x.expand(m).contains_interval(&x));
        }
    }
}
