//! The in-process workloads: `tables` (Tables I/II through `run_batch`),
//! `tables-lanes` (the same cells under `BatchMode::Lanes(8)`) and
//! `platoon` (n=8 `κ_cu` platoons on `BatchMode::EventDriven`).

use std::time::{Duration, Instant};

use bench::stacks_for;
use cv_planner::NnPlanner;
use cv_rng::split_stream;
use cv_server::StackSpecWire;
use cv_sim::{
    lane_tolerance_check, run_batch, run_batch_lanes, run_episode, BatchMode, EpisodeResult,
    StackSpec,
};
use safe_shield::{AggressiveConfig, Outcome};

use crate::gen::{platoon_round, tables_round, Job, ServiceJob, FAMILIES, WARMUP_SEED};
use crate::host;
use crate::profile::{self, StepTiming};
use crate::report::{self, cpu_ns, Block, Report};
use crate::service::{self, SETUPS, TRACE_TURNS};
use crate::trace::{Overhead, Tracer};
use crate::{Args, Workload};

/// Episodes per table job: small enough that a run holds well over a
/// thousand jobs, so the logged p99 job latency has ten samples beyond it.
const TABLES_EPISODES: usize = 50;
/// Episodes per platoon job, sized the same way.
const PLATOON_EPISODES: usize = 15;
/// Rounds whose sampled episodes are kept for the checks. The number is
/// fixed so that memory does not grow with how many rounds a run fits.
const CHECKED_ROUNDS: u64 = 64;

struct Bench {
    workload: Workload,
    specs: Vec<StackSpec>,
    cons: NnPlanner,
}

/// The episodes of one job kept for the post-run checks.
struct Kept {
    job: Job,
    episodes: Vec<(usize, EpisodeResult)>,
}

/// Fewest episodes in a block of the timed pass: one round of the tables,
/// four of `platoon`, 0.04–0.1 s of work. The host is probed after every
/// block, so a block is as long as one probe can stand for.
const BLOCK_EPISODES: u64 = 240;

/// One timed pass over whole rounds of the workload.
#[derive(Default)]
struct Pass {
    rounds: u64,
    jobs: u64,
    episodes: u64,
    steps: u64,
    kept: Vec<Kept>,
    /// Blocks of whole rounds of at least [`BLOCK_EPISODES`]; the rounds
    /// after a segment's last full block count for everything else.
    blocks: Vec<Block>,
}

impl Bench {
    /// Loads the planners, builds the stacks and warms up on rounds of the
    /// workload drawn from the fixed warm-up seed (about 0.1 s of work on
    /// each workload).
    fn setup(workload: Workload) -> Result<Self, String> {
        let (cons, aggr) = crate::planners()?;
        let specs = match workload {
            Workload::Platoon => vec![StackSpec::ultimate(
                cons.clone(),
                AggressiveConfig::default(),
            )],
            _ => FAMILIES
                .iter()
                .zip([&cons, &aggr])
                .flat_map(|(family, planner)| stacks_for(planner, *family).map(|(_, s)| s))
                .collect(),
        };
        let bench = Self {
            workload,
            specs,
            cons,
        };
        let warmup_rounds = match workload {
            Workload::Tables => 1,
            Workload::TablesLanes => 3,
            _ => 4,
        };
        for round in 0..warmup_rounds {
            for job in bench.round(WARMUP_SEED, round) {
                bench.run_job(&job)?;
            }
        }
        Ok(bench)
    }

    fn round(&self, seed: u64, round: u64) -> Vec<Job> {
        match self.workload {
            Workload::Platoon => platoon_round(seed, round, PLATOON_EPISODES),
            _ => tables_round(seed, round, TABLES_EPISODES),
        }
    }

    /// Runs one job through the workload's entry point; `None` marks an
    /// episode that did not complete.
    fn run_job(&self, job: &Job) -> Result<Vec<Option<EpisodeResult>>, String> {
        let spec = &self.specs[job.stack];
        let mode = match self.workload {
            Workload::Tables => {
                return Ok(match run_batch(&job.batch, spec) {
                    Ok(results) => results.into_iter().map(Some).collect(),
                    Err(_) => vec![None; job.batch.episodes],
                })
            }
            Workload::TablesLanes => BatchMode::Lanes(8),
            _ => BatchMode::EventDriven,
        };
        let report =
            run_batch_lanes(&job.batch, spec, mode, None, None).map_err(|e| e.to_string())?;
        Ok(report
            .outcomes
            .into_iter()
            .map(|o| o.completed().cloned())
            .collect())
    }

    /// Runs whole rounds for `dur`, continuing `pass` from its next round.
    /// Round 0 keeps every result for the checks, the next rounds one
    /// seeded episode per job.
    fn pass(
        &self,
        seed: u64,
        dur: Duration,
        mut tracer: Option<&mut Tracer>,
        report: &mut Report,
        pass: &mut Pass,
    ) -> Result<(), String> {
        let start = Instant::now();
        let (mut block, mut t_block) = (Block::default(), start);
        while start.elapsed() < dur {
            let round = pass.rounds;
            for (j, job) in self.round(seed, round).into_iter().enumerate() {
                let t0 = Instant::now();
                let outcomes = match tracer.as_deref_mut() {
                    Some(tr) => {
                        tr.set_episode(pass.jobs as u32);
                        tr.span("sim.job", || self.run_job(&job))
                    }
                    None => self.run_job(&job),
                }?;
                block.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                pass.jobs += 1;
                report.attempted += 1 + outcomes.len() as u64;
                let shielded = matches!(self.specs[job.stack], StackSpec::Compound { .. });
                let sample =
                    (split_stream(seed ^ round, j as u64) % outcomes.len() as u64) as usize;
                let mut keep = Vec::new();
                for (i, outcome) in outcomes.into_iter().enumerate() {
                    let Some(r) = outcome else {
                        report.failed += 1;
                        continue;
                    };
                    block.episodes += 1;
                    block.steps += r.total_steps;
                    pass.episodes += 1;
                    pass.steps += r.total_steps;
                    if shielded && matches!(r.outcome, Outcome::Collision { .. }) {
                        report.problem(format!(
                            "shielded stack collided: seed {} ({})",
                            job.batch.base_seed + i as u64,
                            self.specs[job.stack].label()
                        ));
                    }
                    if round == 0 || (round < CHECKED_ROUNDS && i == sample) {
                        keep.push((i, r));
                    }
                }
                if !keep.is_empty() {
                    pass.kept.push(Kept {
                        job,
                        episodes: keep,
                    });
                }
            }
            pass.rounds += 1;
            if block.episodes >= BLOCK_EPISODES {
                block.wall_s = t_block.elapsed().as_secs_f64();
                block.scale = host::scale();
                pass.blocks.push(std::mem::take(&mut block));
                t_block = Instant::now();
            }
        }
        Ok(())
    }

    /// Re-runs every kept episode on the per-episode fixed-step reference
    /// (`run_episode`): `tables` and `platoon` must match bit for bit,
    /// `tables-lanes` within the lane tolerance gate.
    fn verify(&self, kept: &[Kept], report: &mut Report) {
        let tasks: Vec<(&Job, usize, &EpisodeResult)> = kept
            .iter()
            .flat_map(|k| k.episodes.iter().map(move |(i, r)| (&k.job, *i, r)))
            .collect();
        let check = |chunk: &[(&Job, usize, &EpisodeResult)]| -> Vec<String> {
            let mut problems = Vec::new();
            for (job, i, got) in chunk {
                let cfg = job.batch.episode(*i);
                let spec = &self.specs[job.stack];
                let reference = match run_episode(&cfg, spec, false) {
                    Ok(r) => r,
                    Err(e) => {
                        problems.push(format!("reference episode failed: {e}"));
                        continue;
                    }
                };
                let verdict = match self.workload {
                    Workload::TablesLanes => lane_tolerance_check(&reference, got),
                    _ if reference == **got => Ok(()),
                    _ => Err(format!(
                        "{:?} vs reference {:?}",
                        got.outcome, reference.outcome
                    )),
                };
                if let Err(e) = verdict {
                    problems.push(format!("seed {} ({}): {e}", cfg.seed, spec.label()));
                }
            }
            problems
        };
        let mid = tasks.len() / 2;
        let problems: Vec<String> = std::thread::scope(|s| {
            let left = s.spawn(|| check(&tasks[..mid]));
            let mut right = check(&tasks[mid..]);
            let mut all = left.join().expect("reference checker panicked");
            all.append(&mut right);
            all
        });
        for p in problems {
            report.problem(p);
        }
    }
}

/// The timed run: [`SETUPS`] segments of the pass, each after a timed
/// set-up, so that the set-ups sample the host across the run as the
/// pass's blocks do. Returns the pass and the set-up times, scaled to the
/// reference host speed.
fn timed_run(args: &Args, report: &mut Report) -> Result<(Bench, Pass, Vec<f64>), String> {
    let segment = args.duration() / SETUPS;
    let mut pass = Pass::default();
    let mut setups = Vec::new();
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        let t0 = Instant::now();
        let b = Bench::setup(args.workload)?;
        let wall = t0.elapsed().as_secs_f64();
        setups.push(wall * host::scale());
        b.pass(args.seed, segment, None, report, &mut pass)?;
        bench = Some(b);
    }
    Ok((bench.expect("SETUPS > 0"), pass, setups))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    if !args.trace {
        let (bench, pass, setups) = timed_run(args, &mut report)?;
        report::push_end_to_end(&mut report, &setups, &pass.blocks);
        bench.verify(&pass.kept, &mut report);
        return Ok(report);
    }

    let bench = Bench::setup(args.workload)?;
    // Traced run: untraced and traced stretches of the same rounds, in
    // turn, so that both meet the same host; then the layer replay on the
    // traced stretches' own episodes.
    let turn = args.duration() / (2 * TRACE_TURNS);
    let (mut plain, mut traced) = (Pass::default(), Pass::default());
    let origin = Instant::now();
    let mut job_tracer = Tracer::new(origin);
    let mut cpu = 0;
    for _ in 0..TRACE_TURNS {
        bench.pass(args.seed, turn, None, &mut report, &mut plain)?;
        let cpu0 = cpu_ns();
        let tracer = Some(&mut job_tracer);
        bench.pass(args.seed, turn, tracer, &mut report, &mut traced)?;
        cpu += cpu_ns() - cpu0;
    }
    let cpu = cpu as f64;
    bench.verify(&traced.kept, &mut report);

    let round0: Vec<&Kept> = traced
        .kept
        .iter()
        .filter(|k| k.episodes.len() == k.job.batch.episodes)
        .collect();
    let per_job = if bench.workload == Workload::Platoon {
        8
    } else {
        2
    };
    let samples: Vec<_> = round0
        .iter()
        .flat_map(|k| {
            (0..per_job).map(|i| (k.job.batch.episode(i), bench.specs[k.job.stack].clone()))
        })
        .collect();
    let probe_jobs: Vec<_> = round0
        .iter()
        .take(6)
        .map(|k| {
            let results = k.episodes.iter().map(|(_, r)| r.clone()).collect();
            (
                k.job.batch.clone(),
                bench.specs[k.job.stack].clone(),
                results,
            )
        })
        .collect();
    // The daemon serves only teacher stacks: its round trip is probed with
    // the conservative teacher on this workload's own batches.
    let mut served: Vec<ServiceJob> = Vec::new();
    for k in &traced.kept {
        if served.len() >= 24 {
            break;
        }
        if served.last().is_some_and(|s| s.batch == k.job.batch) {
            continue;
        }
        served.push(ServiceJob {
            batch: k.job.batch.clone(),
            stack: StackSpecWire::TeacherConservative,
            repeat_of: None,
        });
    }

    let overhead = Overhead::calibrate();
    let mut tracer = Tracer::new(origin);
    let replay = profile::replay(&mut tracer, &samples, &bench.cons, &mut report);
    profile::cache_and_wire(&mut tracer, &probe_jobs, &mut report);
    let records = service::probe(&served)?;
    let (hits, lookups) = records
        .iter()
        .filter_map(|r| r.summary.as_ref().ok())
        .fold((0, 0), |(h, l), s| {
            (h + s.cache_hits, l + s.cache_hits + s.cache_misses)
        });
    let steps = traced.steps.max(1) as f64;
    let timing = StepTiming {
        untraced_ns: report::step_ns(&plain.blocks),
        traced_ns: report::step_ns(&traced.blocks),
        cpu_ns: cpu / steps,
        steps_per_episode: steps / traced.episodes.max(1) as f64,
        probe_ns: host::median_probe_ns(traced.blocks.iter().map(|b| b.scale)),
    };
    profile::push_layer_metrics(
        &mut report,
        &tracer,
        overhead,
        &replay,
        &timing,
        hits as f64 / lookups.max(1) as f64,
    );
    let recs: Vec<&service::Record> = records.iter().collect();
    service::push_server_metrics(&mut report, &recs);
    tracer.absorb(job_tracer);
    service::write_trace(&tracer, args);
    Ok(report)
}
