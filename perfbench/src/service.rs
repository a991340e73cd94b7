//! The `service` workload: an in-process `cv_server::Server` (16 MiB memory
//! cache, two workers) driven in a closed loop by two `Client` connections,
//! each submitting its next job only after the previous terminal frame.

use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use cv_server::{Client, Event, Server, ServerConfig, StackSpecWire};
use cv_sim::{run_batch, BatchConfig, BatchSummary};

use crate::gen::{ServiceJob, ServiceStream, THREADS, WARMUP_SEED};
use crate::host;
use crate::profile::{self, StepTiming};
use crate::report::{self, cpu_ns, Block, Report};
use crate::stats::median;
use crate::trace::{Overhead, Tracer};
use crate::Args;

pub const CLIENTS: usize = 2;
/// Warm-up submissions per client during set-up.
const WARMUP_JOBS: usize = 60;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: u32 = 15;
/// Turns of untraced and traced work in a traced run.
pub const TRACE_TURNS: u32 = 5;

/// One submission as the client saw it.
#[derive(Debug)]
pub struct Record {
    /// Index of the batch among the client's fresh batches.
    pub fresh_idx: usize,
    pub repeat: bool,
    pub episodes: usize,
    pub latency_ms: f64,
    /// Submit → `accepted`.
    pub admit_ms: f64,
    /// Submit → first `episode_done` (`NaN` if none streamed).
    pub first_episode_ms: f64,
    pub frames: u64,
    pub summary: Result<Served, String>,
    /// Index of the block the submission ran in.
    pub block: usize,
}

/// What the client keeps of a served summary: the counters the metrics
/// need and a digest of the statistics, so memory stays flat however many
/// jobs a run completes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Served {
    pub episodes: usize,
    pub requested: usize,
    pub wall_ms: f64,
    pub cache_hits: usize,
    pub cache_misses: usize,
    pub digest: u64,
}

impl Served {
    fn of(s: &BatchSummary) -> Self {
        Self {
            episodes: s.episodes,
            requested: s.requested,
            wall_ms: s.wall_time_secs * 1e3,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            digest: stats_digest(s),
        }
    }
}

/// A digest of exactly the fields `BatchSummary::stats_eq` compares, with
/// its float equality (`NaN` equals `NaN`, `-0.0` equals `0.0`): equal
/// digests stand for `stats_eq` summaries.
pub fn stats_digest(s: &BatchSummary) -> u64 {
    let canon = |x: f64| {
        if x.is_nan() {
            u64::MAX
        } else if x == 0.0 {
            0
        } else {
            x.to_bits()
        }
    };
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (s.episodes, s.requested, s.failed, s.panicked, s.skipped).hash(&mut h);
    for x in [
        s.reaching_time,
        s.safe_rate,
        s.eta_mean,
        s.emergency_frequency,
    ] {
        canon(x).hash(&mut h);
    }
    s.etas.len().hash(&mut h);
    s.etas.iter().for_each(|x| canon(*x).hash(&mut h));
    s.reaching_times.len().hash(&mut h);
    s.reaching_times.iter().for_each(|x| canon(*x).hash(&mut h));
    h.finish()
}

/// Submits one job and records its timeline.
pub fn submit(client: &mut Client, job: &ServiceJob, fresh_idx: usize) -> Record {
    let t0 = Instant::now();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let (mut admit, mut first, mut frames) = (f64::NAN, f64::NAN, 0u64);
    let summary = client
        .submit_batch(&job.batch, job.stack, |ev| {
            frames += 1;
            match ev {
                Event::Accepted { .. } => admit = ms(t0.elapsed()),
                Event::EpisodeDone { .. } if first.is_nan() => first = ms(t0.elapsed()),
                _ => {}
            }
        })
        .map(|s| Served::of(&s))
        .map_err(|e| e.to_string());
    Record {
        fresh_idx,
        repeat: job.repeat_of.is_some(),
        episodes: job.batch.episodes,
        latency_ms: ms(t0.elapsed()),
        admit_ms: admit,
        first_episode_ms: first,
        frames,
        summary,
        block: 0,
    }
}

/// The daemon's result-cache budget: small enough that the run fills it
/// within its first seconds, so memory does not grow with run length, and
/// large enough to hold every batch a client may re-send.
const CACHE_BYTES: usize = 16 << 20;

pub fn start_server() -> Result<Server, String> {
    Server::start(ServerConfig {
        workers: THREADS,
        cache_bytes: CACHE_BYTES,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("cannot start the daemon: {e}"))
}

/// One closed-loop client: its connection, its job stream and what it
/// submitted and saw.
pub struct ClientRun {
    /// `None` once disconnected, before the daemon shuts down.
    client: Option<Client>,
    stream: ServiceStream,
    pub records: Vec<Record>,
    pub tracer: Tracer,
}

impl ClientRun {
    /// Connects [`CLIENTS`] clients for the workload seed.
    fn connect_all(addr: SocketAddr, seed: u64, origin: Instant) -> Result<Vec<Self>, String> {
        (0..CLIENTS)
            .map(|c| {
                Ok(Self {
                    client: Some(Client::connect(addr).map_err(|e| e.to_string())?),
                    stream: ServiceStream::new(seed, c as u64),
                    records: Vec::new(),
                    tracer: Tracer::new(origin),
                })
            })
            .collect()
    }

    fn disconnect_all(runs: &mut [Self]) {
        runs.iter_mut().for_each(|r| r.client = None);
    }

    /// The fresh batches this client has issued, in issue order.
    pub fn fresh(&self) -> &[(BatchConfig, StackSpecWire)] {
        self.stream.fresh()
    }

    /// Submits `jobs` jobs one after another.
    fn drive(&mut self, jobs: usize, block: usize, traced: bool) {
        for _ in 0..jobs {
            let job = self.stream.next_job();
            let fresh_idx = job.repeat_of.unwrap_or(self.stream.fresh().len() - 1);
            let client = self.client.as_mut().expect("client is connected");
            let mut record = if traced {
                self.tracer.set_episode(self.records.len() as u32);
                self.tracer
                    .span("server.job", || submit(client, &job, fresh_idx))
            } else {
                submit(client, &job, fresh_idx)
            };
            record.block = block;
            self.records.push(record);
        }
    }
}

/// Drives the daemon with every client of `runs` in a closed loop of
/// `jobs` submissions each, one thread per client; returns the wall time
/// until the last terminal frame.
fn closed_loop(runs: &mut [ClientRun], jobs: usize, block: usize, traced: bool) -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        for run in runs.iter_mut() {
            s.spawn(move || run.drive(jobs, block, traced));
        }
    });
    start.elapsed().as_secs_f64()
}

/// Jobs per block of the service loop, across the clients (about a
/// seventh of a second of work): enough that a block's share of re-sent
/// batches, which the cache answers, varies little.
const JOBS_PER_BLOCK: usize = 100;

/// Drives the clients in blocks of [`JOBS_PER_BLOCK`] jobs until `dur` has
/// passed, probing the host after each; appends each block's wall time and
/// host scale to `blocks`.
fn drive_blocks(runs: &mut [ClientRun], dur: Duration, traced: bool, blocks: &mut Vec<(f64, f64)>) {
    let start = Instant::now();
    while start.elapsed() < dur {
        let wall = closed_loop(runs, JOBS_PER_BLOCK / CLIENTS, blocks.len(), traced);
        blocks.push((wall, host::scale()));
    }
}

/// Starts the daemon and warms it with a short closed loop on the fixed
/// warm-up seed.
fn setup() -> Result<Server, String> {
    let server = start_server()?;
    let mut warm = ClientRun::connect_all(server.local_addr(), WARMUP_SEED, Instant::now())?;
    closed_loop(&mut warm, WARMUP_JOBS, 0, false);
    Ok(server)
}

/// Sets up and returns the daemon with the set-up time, scaled to the
/// reference host speed.
fn timed_setup() -> Result<(Server, f64), String> {
    let t0 = Instant::now();
    let server = setup()?;
    let wall = t0.elapsed().as_secs_f64();
    Ok((server, wall * host::scale()))
}

/// A timed run: the clients drive the daemon in [`SETUPS`] segments, each
/// after a timed set-up, so that the set-ups sample the host across the
/// run as the blocks do. The first set-up's daemon serves every segment,
/// so its cache persists; the later set-ups start a daemon of their own
/// and shut it down once timed.
struct TimedRun {
    runs: Vec<ClientRun>,
    setups: Vec<f64>,
    /// Wall time and host scale of each block.
    blocks: Vec<(f64, f64)>,
}

fn timed_run(args: &Args) -> Result<TimedRun, String> {
    let segment = args.duration() / SETUPS;
    let (server, first) = timed_setup()?;
    let mut setups = vec![first];
    let mut runs = ClientRun::connect_all(server.local_addr(), args.seed, Instant::now())?;
    let mut blocks = Vec::new();
    for i in 0..SETUPS {
        if i > 0 {
            let (spare, setup_s) = timed_setup()?;
            setups.push(setup_s);
            Server::shutdown(spare);
        }
        drive_blocks(&mut runs, segment, false, &mut blocks);
    }
    ClientRun::disconnect_all(&mut runs);
    Server::shutdown(server);
    Ok(TimedRun {
        runs,
        setups,
        blocks,
    })
}

/// Checks every distinct batch against an in-process `run_batch` and every
/// re-sent batch against its first answer; returns, per client and
/// submission, the control steps the answered episodes took.
fn verify(runs: &[ClientRun], report: &mut Report) -> Vec<Vec<u64>> {
    let mut steps = Vec::with_capacity(runs.len());
    for run in runs {
        let mut fresh_steps = vec![0u64; run.fresh().len()];
        let mut first_answer: Vec<Option<&Served>> = vec![None; run.fresh().len()];
        for r in run.records.iter().filter(|r| !r.repeat) {
            first_answer[r.fresh_idx] = r.summary.as_ref().ok();
        }
        for (i, (batch, stack)) in run.fresh().iter().enumerate() {
            let results = stack
                .resolve(&batch.template)
                .map_err(|e| e.to_string())
                .and_then(|spec| run_batch(batch, &spec).map_err(|e| e.to_string()));
            match (results, first_answer[i]) {
                (Ok(results), Some(served)) => {
                    fresh_steps[i] = results.iter().map(|r| r.total_steps).sum();
                    if stats_digest(&BatchSummary::from_results(&results)) != served.digest {
                        report.problem(format!(
                            "service summary of batch seed {} differs from run_batch",
                            batch.base_seed
                        ));
                    }
                }
                (Err(e), _) => report.problem(format!("in-process reference failed: {e}")),
                (Ok(_), None) => {}
            }
        }
        let mut run_steps = vec![0; run.records.len()];
        for (r, out) in run.records.iter().zip(&mut run_steps) {
            let Ok(summary) = &r.summary else { continue };
            *out = fresh_steps[r.fresh_idx];
            if r.repeat {
                if let Some(first) = first_answer[r.fresh_idx] {
                    if summary.digest != first.digest {
                        report.problem("a re-sent batch got a different summary".into());
                    }
                }
            }
        }
        steps.push(run_steps);
    }
    steps
}

/// The blocks of a pass, from each block's wall time and host scale and
/// the submissions that ran in it.
fn blocks(runs: &[ClientRun], steps: &[Vec<u64>], timing: &[(f64, f64)]) -> Vec<Block> {
    let mut blocks: Vec<Block> = timing
        .iter()
        .map(|&(wall_s, scale)| Block {
            wall_s,
            scale,
            ..Block::default()
        })
        .collect();
    for (run, run_steps) in runs.iter().zip(steps) {
        for (r, s) in run.records.iter().zip(run_steps) {
            let Ok(summary) = &r.summary else { continue };
            let b = &mut blocks[r.block];
            b.episodes += summary.episodes as u64;
            b.steps += s;
            b.latencies_ms.push(r.latency_ms);
        }
    }
    blocks
}

fn count_ops(runs: &[ClientRun], report: &mut Report) {
    for r in runs.iter().flat_map(|run| &run.records) {
        report.attempted += 1 + r.episodes as u64;
        report.failed += match &r.summary {
            Ok(s) => (s.requested - s.episodes) as u64,
            Err(_) => 1 + r.episodes as u64,
        };
    }
}

fn records(runs: &[ClientRun]) -> impl Iterator<Item = &Record> {
    runs.iter().flat_map(|run| &run.records)
}

fn episodes_served(runs: &[ClientRun]) -> u64 {
    records(runs)
        .filter_map(|r| r.summary.as_ref().ok())
        .map(|s| s.episodes as u64)
        .sum()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    if !args.trace {
        let run = timed_run(args)?;
        let steps = verify(&run.runs, &mut report);
        count_ops(&run.runs, &mut report);
        let blocks = blocks(&run.runs, &steps, &run.blocks);
        report::push_end_to_end(&mut report, &run.setups, &blocks);
        return Ok(report);
    }

    // Traced run: untraced and traced stretches, in turn, so that both meet
    // the same host; then the layer replay on the traced batches.
    let server = setup()?;
    let addr = server.local_addr();
    let turn = args.duration() / (2 * TRACE_TURNS);
    let origin = Instant::now();
    let mut plain = ClientRun::connect_all(addr, args.seed, origin)?;
    let mut traced = ClientRun::connect_all(addr, args.seed ^ 1, origin)?;
    let (mut plain_blocks, mut traced_blocks) = (Vec::new(), Vec::new());
    let mut cpu = 0;
    for _ in 0..TRACE_TURNS {
        drive_blocks(&mut plain, turn, false, &mut plain_blocks);
        let cpu0 = cpu_ns();
        drive_blocks(&mut traced, turn, true, &mut traced_blocks);
        cpu += cpu_ns() - cpu0;
    }
    let cpu = cpu as f64;
    ClientRun::disconnect_all(&mut plain);
    ClientRun::disconnect_all(&mut traced);
    Server::shutdown(server);
    let plain_steps = verify(&plain, &mut report);
    let traced_steps = verify(&traced, &mut report);
    count_ops(&plain, &mut report);
    count_ops(&traced, &mut report);
    let traced_total = traced_steps.iter().flatten().sum::<u64>().max(1) as f64;

    let (cons, _) = crate::planners()?;
    let overhead = Overhead::calibrate();
    let mut tracer = Tracer::new(origin);
    let fresh = traced[0].fresh();
    let mut samples = Vec::new();
    let mut probe_jobs = Vec::new();
    for (batch, stack) in fresh.iter().take(12) {
        let spec = stack.resolve(&batch.template)?;
        samples.extend((0..2).map(|i| (batch.episode(i), spec.clone())));
        if probe_jobs.len() < 6 {
            let results = run_batch(batch, &spec).map_err(|e| e.to_string())?;
            probe_jobs.push((batch.clone(), spec, results));
        }
    }
    let replay = profile::replay(&mut tracer, &samples, &cons, &mut report);
    profile::cache_and_wire(&mut tracer, &probe_jobs, &mut report);
    let summaries: Vec<&Served> = records(&traced)
        .filter_map(|r| r.summary.as_ref().ok())
        .collect();
    let hits: usize = summaries.iter().map(|s| s.cache_hits).sum();
    let lookups: usize = summaries
        .iter()
        .map(|s| s.cache_hits + s.cache_misses)
        .sum();
    let timing = StepTiming {
        untraced_ns: report::step_ns(&blocks(&plain, &plain_steps, &plain_blocks)),
        traced_ns: report::step_ns(&blocks(&traced, &traced_steps, &traced_blocks)),
        cpu_ns: cpu / traced_total,
        steps_per_episode: traced_total / episodes_served(&traced).max(1) as f64,
        probe_ns: host::median_probe_ns(traced_blocks.iter().map(|b| b.1)),
    };
    profile::push_layer_metrics(
        &mut report,
        &tracer,
        overhead,
        &replay,
        &timing,
        hits as f64 / lookups.max(1) as f64,
    );
    let all: Vec<&Record> = records(&traced).collect();
    push_server_metrics(&mut report, &all);
    for run in traced {
        tracer.absorb(run.tracer);
    }
    write_trace(&tracer, args);
    Ok(report)
}

/// The daemon round-trip metrics of a set of submissions.
pub fn push_server_metrics(report: &mut Report, recs: &[&Record]) {
    let med = |f: &dyn Fn(&Record) -> f64| {
        median(
            &recs
                .iter()
                .map(|r| f(r))
                .filter(|v| v.is_finite())
                .collect::<Vec<_>>(),
        )
    };
    let compute = |r: &Record| r.summary.as_ref().map_or(f64::NAN, |s| s.wall_ms);
    report.push("server.admit_ms_p50", med(&|r| r.admit_ms), "ms");
    report.push("server.compute_ms_p50", med(&compute), "ms");
    report.push(
        "server.overhead_ms_p50",
        med(&|r| r.latency_ms - compute(r)),
        "ms",
    );
    report.push(
        "server.first_episode_ms_p50",
        med(&|r| r.first_episode_ms),
        "ms",
    );
    let frames: u64 = recs.iter().map(|r| r.frames).sum();
    report.push(
        "server.frames_per_job",
        frames as f64 / recs.len().max(1) as f64,
        "frames/job",
    );
}

/// Serves `jobs` one after another from a fresh daemon with one client —
/// the round-trip probe the in-process workloads' traced runs use.
pub fn probe(jobs: &[ServiceJob]) -> Result<Vec<Record>, String> {
    let server = start_server()?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let records = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| submit(&mut client, job, i))
        .collect();
    drop(client);
    Server::shutdown(server);
    Ok(records)
}

/// Writes the run's spans next to the build output.
pub fn write_trace(tracer: &Tracer, args: &Args) {
    let path = crate::work_dir().join("perfbench-trace").join(format!(
        "{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    match tracer.write_tsv(&path) {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}
