//! The result line and the process-level measurements behind it.

use std::fmt::Write as _;

use crate::stats::{median, percentile, tail};

/// Work done in one block of a timed pass (whole rounds of jobs, or a
/// closed-loop stretch of the service clients).
#[derive(Debug, Clone, Default)]
pub struct Block {
    pub wall_s: f64,
    pub episodes: u64,
    pub steps: u64,
    /// Latency of every job that ended in the block.
    pub latencies_ms: Vec<f64>,
    /// [`host::scale`](crate::host::scale) measured right after the block.
    pub scale: f64,
}

/// One run's result: correctness verdict, operation counts and metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Correctness-check failures; the run is correct iff this is empty.
    pub problems: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Records a failed check, keeping the first few descriptions.
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 20 {
            self.problems.push(what);
        } else if self.problems.len() == 20 {
            self.problems.push("… further problems elided".into());
        }
    }

    /// The single-line JSON object the benchmark prints last.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Rates and latency percentiles over a pass's blocks, at the reference
/// host speed.
struct Summary {
    step_ns: f64,
    episodes_per_s: f64,
    jobs_per_s: f64,
    /// Every job's latency, ascending.
    latencies: Vec<f64>,
}

fn summarise(blocks: &[Block]) -> Summary {
    let wall: f64 = blocks.iter().map(|b| b.wall_s * b.scale).sum();
    let steps: u64 = blocks.iter().map(|b| b.steps).sum();
    let episodes: u64 = blocks.iter().map(|b| b.episodes).sum();
    let mut latencies: Vec<f64> = blocks
        .iter()
        .flat_map(|b| b.latencies_ms.iter().map(|l| l * b.scale))
        .collect();
    latencies.sort_by(f64::total_cmp);
    Summary {
        step_ns: wall * 1e9 / steps as f64,
        episodes_per_s: episodes as f64 / wall,
        jobs_per_s: latencies.len() as f64 / wall,
        latencies,
    }
}

/// Wall ns per control step over a pass's blocks, at the reference host
/// speed.
pub fn step_ns(blocks: &[Block]) -> f64 {
    summarise(blocks).step_ns
}

/// Pushes the end-to-end metrics of a timed pass, at the reference host
/// speed; `setups` are the scaled set-up times.
pub fn push_end_to_end(report: &mut Report, setups: &[f64], blocks: &[Block]) {
    let s = summarise(blocks);
    let wall: f64 = blocks.iter().map(|b| b.wall_s).sum();
    let steps: u64 = blocks.iter().map(|b| b.steps).sum();
    eprintln!(
        "perfbench: {} blocks; step ns {:.1} scaled, {:.1} as timed",
        blocks.len(),
        s.step_ns,
        wall * 1e9 / steps as f64
    );
    let pct = |p| {
        if s.latencies.is_empty() {
            f64::NAN
        } else {
            percentile(&s.latencies, p)
        }
    };
    if let Some(t) = tail(&s.latencies) {
        eprintln!(
            "perfbench: job latency p{} = {:.3} ms ({} samples beyond, n = {})",
            t.pct, t.value, t.beyond, t.n
        );
    }
    report.push("setup_s", median(setups), "s");
    report.push("episodes_per_s", s.episodes_per_s, "episodes/s");
    report.push("step_ns", s.step_ns, "ns");
    report.push("jobs_per_s", s.jobs_per_s, "jobs/s");
    report.push("job_ms_p50", pct(50.0), "ms");
    report.push("job_ms_p90", pct(90.0), "ms");
    report.push("peak_rss_mb", peak_rss_mb(), "MiB");
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// CPU time (user + system, all threads) this process has used, in ns.
/// `/proc/self/stat` counts it in clock ticks of 10 ms (`USER_HZ` = 100
/// on Linux).
pub fn cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) * 10_000_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            attempted: 10,
            failed: 1,
            ..Report::default()
        };
        r.push("latency_ms", 1.25, "ms");
        r.push("setup_s", 0.5, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        r.problem("mismatch".into());
        assert!(r.json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn blocks_are_scaled_to_the_reference_host_speed() {
        // The second block ran on a host twice as slow as the reference.
        let blocks = [
            Block {
                wall_s: 1e-3,
                episodes: 10,
                steps: 1000,
                latencies_ms: vec![0.5, 0.5],
                scale: 1.0,
            },
            Block {
                wall_s: 2e-3,
                episodes: 10,
                steps: 1000,
                latencies_ms: vec![1.0, 2.0],
                scale: 0.5,
            },
        ];
        let s = summarise(&blocks);
        assert_eq!(s.latencies, vec![0.5, 0.5, 0.5, 1.0]);
        assert!((s.step_ns - 1000.0).abs() < 1e-9);
        assert!((s.episodes_per_s - 10_000.0).abs() < 1e-6);
        assert!((s.jobs_per_s - 2_000.0).abs() < 1e-6);
    }

    #[test]
    fn process_counters_read_proc() {
        assert!(peak_rss_mb() > 0.0);
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 50 {
            std::hint::black_box(0u64);
        }
        assert!(cpu_ns() > 0);
    }
}
