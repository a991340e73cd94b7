/// One sensor measurement of another vehicle, taken at `stamp`.
///
/// Unlike a V2V `cv_comm::Message` the values here are *inaccurate*
/// (bounded uniform noise) but never delayed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Index of the measured vehicle.
    pub target: usize,
    /// Time of the measurement, in seconds (no delay).
    pub stamp: f64,
    /// Measured position `p_s` (target's forward frame), in metres.
    pub position: f64,
    /// Measured velocity `v_s`, in m/s.
    pub velocity: f64,
    /// Measured acceleration `a_s`, in m/s².
    pub acceleration: f64,
}

impl Measurement {
    /// Creates a measurement record.
    pub fn new(target: usize, stamp: f64, position: f64, velocity: f64, acceleration: f64) -> Self {
        Self {
            target,
            stamp,
            position,
            velocity,
            acceleration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_roundtrip() {
        let m = Measurement::new(2, 1.5, 40.0, 9.0, -0.5);
        assert_eq!(m.target, 2);
        assert_eq!(m.stamp, 1.5);
        assert_eq!(m.position, 40.0);
    }
}
