//! Broadcast/sensing cadence semantics.
//!
//! The episode stepper ([`crate::stepper`]) quantizes the message period
//! `Δt_m` and the sensing period `Δt_s` onto the control tick one way:
//! `every = round(period / Δt_c)`, clamped to at least one tick, firing on
//! step 0 and every `every` steps after. This type is the single source of
//! truth for that rule.

/// A periodic cadence quantized to control ticks, as a countdown the
/// stepper advances once per step: it fires on step 0 and every
/// `every` steps after, with no per-step hardware division.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cadence {
    /// Firing period in control ticks (≥ 1).
    every: u64,
    /// `step % every`, maintained by [`Cadence::advance`] (fires when 0).
    tick: u64,
}

impl Cadence {
    /// Quantizes `period` (s) onto control ticks of `dt_c` (s), rounding to
    /// the nearest tick and clamping to at least one.
    pub fn new(period: f64, dt_c: f64) -> Self {
        Self {
            every: (period / dt_c).round().max(1.0) as u64,
            tick: 0,
        }
    }

    /// Firing period in control ticks.
    #[cfg(test)]
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Whether the cadence fires at the current step.
    pub fn due(&self) -> bool {
        self.tick == 0
    }

    /// Moves the countdown to the next step.
    pub fn advance(&mut self) {
        self.tick += 1;
        if self.tick == self.every {
            self.tick = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn countdown_fires_on_step_zero_and_every_period() {
        let mut c = Cadence::new(0.25, 0.05); // every 5 ticks
        let fired: Vec<u64> = (0..12)
            .filter(|_| {
                let due = c.due();
                c.advance();
                due
            })
            .collect();
        assert_eq!(fired, vec![0, 5, 10]);
    }

    #[test]
    fn quantization_rounds_and_clamps() {
        assert_eq!(Cadence::new(0.1, 0.05).every(), 2);
        assert_eq!(Cadence::new(0.25, 0.05).every(), 5);
        // Rounding, not truncation: 0.24 / 0.05 = 4.8 → 5.
        assert_eq!(Cadence::new(0.24, 0.05).every(), 5);
        // A period below one tick clamps to every tick.
        assert_eq!(Cadence::new(0.01, 0.05).every(), 1);
        assert_eq!(Cadence::new(0.0, 0.05).every(), 1);
    }
}
