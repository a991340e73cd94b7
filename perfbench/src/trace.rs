//! In-memory span recorder for the traced runs.
//!
//! A span is `(name, start, end, parent, episode)`; spans nest through an
//! explicit stack, are kept in memory while the run measures, and are
//! written out as TSV at the end. A layer's self time is its span's
//! duration minus its children's, less the recorder's own cost, which
//! [`Overhead::calibrate`] measures on empty spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// No parent.
const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub episode: u32,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    episode: u32,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            episode: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags the spans opened from now on with `episode`.
    pub fn set_episode(&mut self, episode: u32) {
        self.episode = episode;
    }

    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let episode = self.episode;
        self.spans.push(Span {
            name,
            start: 0,
            end: 0,
            parent,
            episode,
        });
        self.open.push(id);
        self.spans[id as usize].start = self.now();
        id
    }

    pub fn exit(&mut self, id: u32) {
        let end = self.now();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in stack order");
        self.spans[id as usize].end = end;
    }

    /// Runs `f` inside a span named `name`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = std::hint::black_box(f());
        self.exit(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (same origin), re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Writes `id name start_ns end_ns parent episode` rows.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tepisode")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.episode
            )?;
        }
        out.flush()
    }
}

/// The recorder's own cost, measured on empty spans.
#[derive(Debug, Clone, Copy)]
pub struct Overhead {
    /// Time an empty span reports as its own duration.
    pub inner: f64,
    /// Full cost of one span as seen by its parent.
    pub full: f64,
}

impl Overhead {
    pub fn calibrate() -> Self {
        const N: usize = 200_000;
        let mut t = Tracer::new(Instant::now());
        t.spans.reserve(N + 1);
        let outer = t.enter("calibrate");
        for _ in 0..N {
            t.span("empty", || ());
        }
        t.exit(outer);
        let spans = t.spans();
        let inner = spans[1..].iter().map(|s| s.dur() as f64).sum::<f64>() / N as f64;
        let full = spans[0].dur() as f64 / N as f64;
        Self { inner, full }
    }
}

/// Per-name aggregate of self times.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    pub self_ns: f64,
}

impl Agg {
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            f64::NAN
        } else {
            self.self_ns / self.calls as f64
        }
    }
}

/// Self-time aggregates per span name, plus per-name call counts directly
/// under spans named `parent_name`.
pub fn aggregate(
    spans: &[Span],
    overhead: Overhead,
    parent_name: &str,
) -> (BTreeMap<&'static str, Agg>, BTreeMap<&'static str, u64>) {
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_n = vec![0u32; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.dur();
            child_n[s.parent as usize] += 1;
        }
    }
    let mut aggs: BTreeMap<&'static str, Agg> = BTreeMap::new();
    let mut direct: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let self_ns = s.dur() as f64
            - child_ns[i] as f64
            - f64::from(child_n[i]) * (overhead.full - overhead.inner)
            - overhead.inner;
        let a = aggs.entry(s.name).or_default();
        a.calls += 1;
        a.self_ns += self_ns;
        if s.parent != ROOT && spans[s.parent as usize].name == parent_name {
            *direct.entry(s.name).or_default() += 1;
        }
    }
    (aggs, direct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now());
        t.set_episode(7);
        let outer = t.enter("step");
        t.span("leaf", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("leaf", || ());
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, 0);
        assert!(spans.iter().all(|s| s.episode == 7 && s.end >= s.start));
        let zero = Overhead {
            inner: 0.0,
            full: 0.0,
        };
        let (aggs, direct) = aggregate(spans, zero, "step");
        assert_eq!(aggs["leaf"].calls, 2);
        assert_eq!(direct["leaf"], 2);
        assert!(aggs["leaf"].self_ns >= 2e6);
        // The parent's self time is what the children leave over.
        assert!(aggs["step"].self_ns < aggs["leaf"].self_ns);
    }
}
