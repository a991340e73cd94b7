//! Minimal `std::time`-based micro-benchmark harness.
//!
//! The offline build cannot depend on criterion, so the five bench targets
//! run on this shim instead. It keeps the slice of criterion's API the
//! benches use — [`Criterion::bench_function`], [`Criterion::benchmark_group`],
//! [`Bencher::iter`], [`Bencher::iter_batched`], plus the
//! `criterion_group!`/`criterion_main!` macros re-exported from the crate
//! root — and reports mean ± standard deviation over a fixed number of
//! timed samples, each auto-sized to run long enough for the clock to
//! resolve.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target wall time per measured sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(25);
/// Default number of measured samples per benchmark.
const DEFAULT_SAMPLES: usize = 20;

/// Entry point object handed to every bench function.
#[derive(Debug, Default)]
pub struct Criterion {
    sample_size: Option<usize>,
}

/// Setup-size hint (API compatibility; the shim ignores it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Setup output is small; per-iteration setup is fine.
    SmallInput,
    /// Setup output is large.
    LargeInput,
}

impl Criterion {
    /// Times `f` and prints one report line for `name`.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            samples: self.sample_size.unwrap_or(DEFAULT_SAMPLES),
            stats: None,
        };
        f(&mut b);
        match b.stats {
            Some(s) => println!(
                "bench: {name:<44} {:>12.1} ns/iter (± {:.1}, {} samples × {} iters)",
                s.mean_ns, s.std_ns, s.samples, s.iters_per_sample
            ),
            None => println!("bench: {name:<44} (no measurement)"),
        }
        self
    }

    /// Starts a named group (the shim just prefixes benchmark names).
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            prefix: name.to_string(),
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    prefix: String,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of measured samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.criterion.sample_size = Some(n.max(2));
        self
    }

    /// Times `f` under `prefix/name`.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = if name.starts_with(&self.prefix) {
            name.to_string()
        } else {
            format!("{}/{name}", self.prefix)
        };
        self.criterion.bench_function(&full, f);
        self
    }

    /// Ends the group, restoring the default sample size.
    pub fn finish(&mut self) {
        self.criterion.sample_size = None;
    }
}

#[derive(Debug, Clone, Copy)]
struct Stats {
    mean_ns: f64,
    std_ns: f64,
    samples: usize,
    iters_per_sample: u64,
}

/// Passed to the closure given to [`Criterion::bench_function`]; runs and
/// times the routine.
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    stats: Option<Stats>,
}

impl Bencher {
    /// Times `routine`, including nothing but the calls themselves.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Warm up and size one sample so it exceeds the clock resolution.
        let mut iters = 1u64;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            if t0.elapsed() >= SAMPLE_TARGET || iters >= (1 << 24) {
                break;
            }
            iters *= 2;
        }
        let mut per_iter = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            per_iter.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        self.stats = Some(summarise(&per_iter, iters));
    }

    /// Times `routine` on fresh values from `setup`, excluding the setup
    /// cost from the measurement.
    pub fn iter_batched<I, R, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> R,
    {
        let mut measure = |iters: u64| -> Duration {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let input = setup();
                let t0 = Instant::now();
                black_box(routine(input));
                total += t0.elapsed();
            }
            total
        };
        let mut iters = 1u64;
        while measure(iters) < SAMPLE_TARGET && iters < (1 << 20) {
            iters *= 2;
        }
        let mut per_iter = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            per_iter.push(measure(iters).as_nanos() as f64 / iters as f64);
        }
        self.stats = Some(summarise(&per_iter, iters));
    }
}

fn summarise(per_iter_ns: &[f64], iters: u64) -> Stats {
    let n = per_iter_ns.len() as f64;
    let mean = per_iter_ns.iter().sum::<f64>() / n;
    let var = per_iter_ns
        .iter()
        .map(|x| (x - mean) * (x - mean))
        .sum::<f64>()
        / (n - 1.0).max(1.0);
    Stats {
        mean_ns: mean,
        std_ns: var.sqrt(),
        samples: per_iter_ns.len(),
        iters_per_sample: iters,
    }
}

/// Declares a bench group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group(c: &mut $crate::timing::Criterion) {
            $($target(c);)+
        }
    };
}

/// Declares the bench `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::timing::Criterion::default();
            $($group(&mut c);)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something_positive() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        group.bench_function("spin", |b| {
            b.iter(|| (0..100u64).map(black_box).sum::<u64>())
        });
        group.finish();
        c.bench_function("batched", |b| {
            b.iter_batched(
                || vec![1u64; 64],
                |v| v.iter().sum::<u64>(),
                BatchSize::SmallInput,
            )
        });
    }
}
