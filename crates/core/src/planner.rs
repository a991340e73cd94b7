use crate::Observation;

/// A longitudinal planner: maps an observation to an acceleration command
/// `a_0(t)` for the ego vehicle (paper Section II-A, "Planner").
///
/// Implementations include the NN-based planners and the analytic teacher
/// policies in `cv-planner`; a [`crate::CompoundPlanner`] wraps any of them.
/// Implementors should be deterministic given the observation; stochastic
/// exploration belongs in training, not deployment.
pub trait Planner {
    /// Returns the acceleration command for the current step. The caller
    /// clamps it to the ego's actuation limits.
    fn plan(&mut self, obs: &Observation) -> f64;

    /// A short human-readable name, used in experiment tables.
    fn name(&self) -> &str {
        "planner"
    }

    /// Resets any per-episode internal state. The default is a no-op.
    fn reset(&mut self) {}
}

impl<P: Planner + ?Sized> Planner for Box<P> {
    fn plan(&mut self, obs: &Observation) -> f64 {
        (**self).plan(obs)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn reset(&mut self) {
        (**self).reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_dynamics::VehicleState;

    struct Constant(f64);

    impl Planner for Constant {
        fn plan(&mut self, _obs: &Observation) -> f64 {
            self.0
        }

        fn name(&self) -> &str {
            "constant"
        }
    }

    #[test]
    fn boxed_planner_delegates() {
        let mut p: Box<dyn Planner> = Box::new(Constant(1.5));
        let obs = Observation::new(0.0, VehicleState::at_rest(), None);
        assert_eq!(p.plan(&obs), 1.5);
        assert_eq!(p.name(), "constant");
        p.reset();
    }
}
