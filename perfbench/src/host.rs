//! Host speed. The benchmark shares its host with other tenants, whose load
//! makes the same code run up to 70% slower on a vCPU, in CPU time as much
//! as in wall time, for stretches of seconds to minutes and on each vCPU
//! apart. No share of a run is sure to escape such a stretch. A fixed
//! arithmetic kernel of the benchmark's own, timed on both worker threads
//! right after each block of work, measures how fast the host ran then;
//! the block's times are scaled to [`REFERENCE_NS`], the kernel's time on
//! the quiet host the benchmark was built on.

use std::time::Instant;

use crate::gen::THREADS;
use crate::stats::median;

/// The kernel's time on a quiet vCPU of the Xeon host the benchmark was
/// built on (the fastest twentieth of 928 probes), in ns.
pub const REFERENCE_NS: f64 = 86_000.0;

/// Repetitions of the kernel per thread and probe; the fastest counts, so
/// an interrupt in one repetition does not move the probe.
const REPS: usize = 5;

/// The kernel: a dependent floating-point chain over a 64-element array
/// that stays in L1, then a 32×32 matrix-vector product with `tanh` fed
/// back into itself — the arithmetic a simulation step and a planner's
/// network run.
fn kernel() -> f64 {
    let mut a = [0.5f64; 64];
    let mut acc = 0.0f64;
    for r in 0..200 {
        for i in 0..64 {
            a[i] = (a[i] * 0.999 + 0.001 * (i + r) as f64).mul_add(0.5, acc * 1e-9);
            acc += a[i] * a[(i * 7) % 64];
        }
    }
    let w: [[f64; 32]; 32] = std::array::from_fn(|i| {
        std::array::from_fn(|j| ((i * 31 + j * 17) % 13) as f64 / 13.0 - 0.45)
    });
    let mut x = [0.1f64; 32];
    for _ in 0..12 {
        let y: [f64; 32] = std::array::from_fn(|i| {
            w[i].iter()
                .zip(&x)
                .map(|(wi, xi)| wi * xi)
                .sum::<f64>()
                .tanh()
        });
        x = y;
    }
    acc + x.iter().sum::<f64>()
}

/// Times the kernel on [`THREADS`] threads at once, [`REPS`] times each;
/// returns the slowest thread's fastest repetition, in ns.
pub fn probe_ns() -> f64 {
    let fastest = || {
        (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(kernel());
                t0.elapsed().as_secs_f64() * 1e9
            })
            .fold(f64::INFINITY, f64::min)
    };
    std::thread::scope(|s| {
        let others: Vec<_> = (1..THREADS).map(|_| s.spawn(fastest)).collect();
        let mine = fastest();
        others
            .into_iter()
            .map(|h| h.join().expect("host probe panicked"))
            .fold(mine, f64::max)
    })
}

/// The factor that scales a time measured just before the call to the
/// reference host speed.
pub fn scale() -> f64 {
    REFERENCE_NS / probe_ns()
}

/// The median probe, in ns, behind the scales of a pass's blocks.
pub fn median_probe_ns(scales: impl Iterator<Item = f64>) -> f64 {
    REFERENCE_NS / median(&scales.collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_positive_and_finite() {
        let ns = probe_ns();
        assert!(ns.is_finite() && ns > 0.0, "{ns}");
        assert!(scale() > 0.0);
    }
}
