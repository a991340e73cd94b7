/// Element-wise activation function of a [`crate::Dense`] layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// `max(0, x)`.
    Relu,
    /// Hyperbolic tangent, evaluated by the crate's one vectorisable
    /// kernel (within a few ulp of libm's `tanh`; NaN in, NaN out).
    #[default]
    Tanh,
    /// Logistic sigmoid `1 / (1 + e^{−x})`.
    Sigmoid,
    /// Identity (no nonlinearity), typical for output layers in regression.
    Identity,
}

impl Activation {
    /// Applies the activation to a scalar.
    pub fn apply(&self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => crate::simd::tanh(x),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Identity => x,
        }
    }

    /// Derivative at pre-activation `x`.
    pub fn derivative(&self, x: f64) -> f64 {
        self.derivative_from(x, self.apply(x))
    }

    /// Derivative at pre-activation `x` whose activation `y = apply(x)` is
    /// already known, as in training's forward cache: `tanh′ = 1 − y²` and
    /// `σ′ = y(1 − y)` need no second evaluation.
    pub(crate) fn derivative_from(&self, x: f64, y: f64) -> f64 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Identity => 1.0,
        }
    }

    /// Stable identifier used in the text weight format.
    pub fn name(&self) -> &'static str {
        match self {
            Activation::Relu => "relu",
            Activation::Tanh => "tanh",
            Activation::Sigmoid => "sigmoid",
            Activation::Identity => "identity",
        }
    }

    /// Parses the identifier produced by [`Activation::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "relu" => Some(Activation::Relu),
            "tanh" => Some(Activation::Tanh),
            "sigmoid" => Some(Activation::Sigmoid),
            "identity" => Some(Activation::Identity),
            _ => None,
        }
    }
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values() {
        assert_eq!(Activation::Relu.apply(-2.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
        assert_eq!(Activation::Identity.apply(1.5), 1.5);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert!(Activation::Tanh.apply(0.0).abs() < 1e-12);
    }

    #[test]
    fn tanh_is_within_a_few_ulp_of_libm() {
        for i in 0..=40_000 {
            let x = (i as f64 - 20_000.0) * 0.00125; // [-25, 25]
            let (got, want) = (Activation::Tanh.apply(x), x.tanh());
            let ulp = (got.to_bits() as i64 - want.to_bits() as i64).abs();
            assert!(ulp <= 8, "tanh({x}) = {got} vs {want}: {ulp} ulp");
        }
        assert!(Activation::Tanh.apply(f64::NAN).is_nan());
    }

    #[test]
    fn name_roundtrip() {
        for a in [
            Activation::Relu,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Identity,
        ] {
            assert_eq!(Activation::from_name(a.name()), Some(a));
        }
        assert_eq!(Activation::from_name("bogus"), None);
    }

    cv_rng::props! {
        /// Finite-difference check of every activation derivative.
        fn derivative_matches_finite_difference(x in -3.0..3.0f64) {
            let h = 1e-6;
            for a in [Activation::Tanh, Activation::Sigmoid, Activation::Identity] {
                let fd = (a.apply(x + h) - a.apply(x - h)) / (2.0 * h);
                assert!((a.derivative(x) - fd).abs() < 1e-6, "{a}: {x}");
            }
            // ReLU away from the kink.
            if x.abs() > 1e-3 {
                let a = Activation::Relu;
                let fd = (a.apply(x + h) - a.apply(x - h)) / (2.0 * h);
                assert!((a.derivative(x) - fd).abs() < 1e-6);
            }
        }
        fn outputs_are_bounded_where_expected(x in -50.0..50.0f64) {
            assert!((-1.0..=1.0).contains(&Activation::Tanh.apply(x)));
            assert!((0.0..=1.0).contains(&Activation::Sigmoid.apply(x)));
            assert!(Activation::Relu.apply(x) >= 0.0);
        }
    }
}
