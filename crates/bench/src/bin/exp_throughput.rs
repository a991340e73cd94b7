//! Machine-readable throughput benchmark for the episode-engine overhaul.
//!
//! Runs a batch matrix (planner stack × thread count), timing the
//! pre-overhaul path (`run_batch_static`: contiguous chunks, fresh episode
//! build per run) against the current one (`run_batch`: dynamic
//! claim-by-index scheduler + per-worker reused [`cv_sim::EpisodeWorkspace`])
//! over the full paper start grid, and cross-checks that both produce
//! bit-identical results. The batch matrix includes the NN planner stack
//! (pure and basic-compound) so the zero-allocation NN compute layer shows
//! up in episode throughput, and N-vehicle platoon cells (n ∈ {2, 4, 8},
//! `PlatoonSpec::paper_default`) so the multi-vehicle shield's per-vehicle
//! cost is a tracked number under the same bit-identity cross-check, an `nn` section times the case-study forward
//! pass (pre-PR allocating path vs scratch-backed fused path) and the
//! behaviour-cloning trainer (allocating vs in-place), and a kernel section
//! micro-benchmarks `cv-nn`'s matmul family on the in-tree timing shim.
//! A `cache` section times a repeated batch against the content-addressed
//! episode-result cache (cold vs warm) and asserts the cache contract
//! inline: 100% hits, bit-identical summary, ≥10× under the cold wall time.
//! A `lanes` section times the lane-batched execution mode
//! (`cv_sim::run_batch_lanes`) on the pure-NN stack at a single worker
//! thread for K ∈ {1, 2, 4, 8}, asserting the numeric contract inline:
//! K = 1 bit-identical to the per-episode path, K > 1 within the
//! per-field tolerance gate (`cv_sim::lane_tolerance_check`). An `events`
//! section times `BatchMode::EventDriven` (the time-wheel engine,
//! DESIGN.md §18) against the fixed-step dynamic path on the n = 8 platoon
//! cells — the dense paper default and a sparse-disturbance variant
//! (`platoon-n8-sparse/comm-lost`: ego 150 m upstream, leader at the zone's
//! edge, 6 m gaps, all V2V channels lost) where pairs retire early in a
//! long approach episode and the event engine's
//! quiescent-span skipping pays — asserting bit-identity with the
//! fixed-step oracle inline and recording `event_speedup` per cell.
//!
//! Output: `results/BENCH_throughput.json` (schema `bench.throughput/v5`)
//! plus a human-readable table on stdout.
//!
//! Usage:
//! `cargo run --release -p bench --bin exp_throughput -- [--sims N] [--reps R] [--threads 1,2,4,8] [--out PATH] [--baseline PATH] [--nn-baseline PATH]`
//!
//! `--baseline` points at a baseline file of episodes/sec from an earlier
//! engine (the committed `results/BENCH_throughput_seed.json` was measured
//! at the growth-seed commit, before the engine overhaul); matching cells
//! gain a `speedup_vs_baseline` field, and the run **exits non-zero** if
//! any matching cell regresses more than 10% below its baseline.
//!
//! `--nn-baseline` does the same for the NN and platoon cells, which the
//! growth-seed baseline predates (their `speedup_vs_baseline` was always
//! null): on the first run the file is *written* from this run's NN, lane,
//! and platoon cells, and every later run compares against it under the
//! same 10% regression gate. The committed
//! `results/BENCH_throughput_nn_baseline.json` was first recorded by the
//! lane-batching PR and re-recorded when the platoon cells landed (the
//! original capture predated them, and the raw single-run numbers carry no
//! headroom for box-speed drift — delete the file to re-record on the
//! current machine). When the loaded file predates a cell family this run
//! produced (a new platoon size, the event-engine cells), the run does not
//! silently skip the gate: it warns naming exactly which cells were newly
//! seeded, records them at this run's rate (1.00x), and rewrites the file
//! so the next run gates them.
//!
//! Each cell is timed `--reps` times per path (interleaved) and the best
//! wall time kept, so one noisy sample on a shared box cannot flip a
//! comparison; `--sims 8 --threads 2 --reps 2` is the CI smoke
//! configuration.

use std::sync::atomic::AtomicBool;
use std::time::Instant;

use bench::timing::measure_ns;
use cv_comm::CommSetting;
use cv_nn::{Activation, Matrix, Mlp, MlpScratch, Optimizer, TrainConfig, Trainer};
use cv_planner::{FeatureScaling, NnPlanner};
use cv_rng::{Rng, SplitMix64};
use cv_server::wire::Json;
use cv_server::{run_sharded, JobLimits, JobOutcome};
use cv_sim::{
    lane_tolerance_check, run_batch, run_batch_lanes, run_batch_static, BatchConfig, BatchMode,
    BatchSummary, EpisodeCache, EpisodeConfig, EpisodeResult, PlatoonFollower, PlatoonSpec,
    StackSpec, WindowKind, DEFAULT_CACHE_BYTES,
};

/// One cell of the batch matrix.
struct Cell {
    stack: &'static str,
    threads: usize,
    episodes: usize,
    static_secs: f64,
    dynamic_secs: f64,
    static_eps: f64,
    dynamic_eps: f64,
    ns_per_step: f64,
    total_steps: u64,
    speedup: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The case-study MLP: 5 scenario features → [32, 32] → 1, as trained by
/// behaviour cloning. Untrained weights (deterministic from `seed`) — for
/// throughput only the shape matters.
fn case_study_net(seed: u64) -> Mlp {
    Mlp::new(&[5, 32, 32, 1], Activation::Tanh, Activation::Tanh, seed).expect("case-study shape")
}

/// The batch matrix: the two teacher stacks of the engine-overhaul
/// comparison — a no-disturbance conservative baseline (long, uniform
/// episodes) and the aggressive teacher under heavy disturbance
/// (early-exit-heavy: the static scheduler's worst case) — plus the NN
/// planner stack, unshielded and wrapped in the basic compound planner, so
/// the scratch-backed inference path is measured on the episode hot path,
/// plus the N-vehicle platoon workload (n ∈ {2, 4, 8}: leader + gap-tracking
/// followers, one V2V channel per pair) so per-vehicle cost at scale is a
/// tracked number.
/// `(name, template, stack, starts)`: `starts` overrides the batch's
/// `C_1` start grid (`None` = the paper grid). The sparse event cell needs
/// it — the paper grid would put the leader back at 50.5–60 m and undo the
/// early-retirement geometry.
type MatrixEntry = (&'static str, EpisodeConfig, StackSpec, Option<Vec<f64>>);

fn stack_matrix(seed: u64) -> Vec<MatrixEntry> {
    let cons_template = EpisodeConfig::paper_default(seed);
    let cons = StackSpec::pure_teacher_conservative(&cons_template).expect("paper geometry");
    let mut aggr_template = EpisodeConfig::paper_default(seed);
    aggr_template.comm = CommSetting::Delayed {
        delay: 0.25,
        drop_prob: 0.5,
    };
    let aggr = StackSpec::pure_teacher_aggressive(&aggr_template).expect("paper geometry");
    let nn_template = EpisodeConfig::paper_default(seed);
    let ego_limits = nn_template.scenario().expect("paper geometry").ego_limits();
    let planner = NnPlanner::new(
        case_study_net(seed),
        ego_limits,
        FeatureScaling::left_turn(),
        "bench-nn",
    );
    let nn_pure = StackSpec::PureNn {
        planner: planner.clone(),
        window: WindowKind::Conservative,
    };
    let nn_basic = StackSpec::basic(planner);
    let mut matrix = vec![
        ("teacher-cons/no-disturbance", cons_template, cons, None),
        ("teacher-aggr/delayed-0.25-0.5", aggr_template, aggr, None),
        ("nn-pure/no-disturbance", nn_template.clone(), nn_pure, None),
        ("nn-basic/no-disturbance", nn_template, nn_basic, None),
    ];
    for (name, n) in [
        ("platoon-n2/teacher-cons", 2usize),
        ("platoon-n4/teacher-cons", 4),
        ("platoon-n8/teacher-cons", 8),
    ] {
        let template = PlatoonSpec::paper_default(n, seed)
            .expect("n >= 2")
            .episode();
        let spec = StackSpec::pure_teacher_conservative(&template).expect("paper geometry");
        matrix.push((name, template, spec, None));
    }
    {
        let template = sparse_platoon(seed);
        let spec = StackSpec::pure_teacher_conservative(&template).expect("paper geometry");
        // Leader start grid hugging the zone exit (p_b = 15): every
        // episode keeps the early-retirement geometry while still varying
        // per index like the other cells.
        let starts = (0..20).map(|j| 16.0 + 0.25 * j as f64).collect();
        matrix.push(("platoon-n8-sparse/comm-lost", template, spec, Some(starts)));
    }
    matrix
}

/// The sparse-disturbance n=8 platoon: the ego far upstream of a platoon
/// already at the zone's edge with close followers, all V2V channels lost.
/// Every pair clears the conflict zone (and permanently retires under the
/// event engine) in the first quarter of a long approach episode, so most
/// of its wall time is quiescent per-pair work — the regime the
/// event-driven engine exists for.
fn sparse_platoon(seed: u64) -> EpisodeConfig {
    let mut platoon = PlatoonSpec::paper_default(8, seed).expect("n >= 2");
    platoon.leader_start_shared = 16.0;
    platoon.comm = CommSetting::Lost;
    for f in &mut platoon.followers {
        *f = PlatoonFollower {
            gap: 6.0,
            ..PlatoonFollower::paper_default()
        };
    }
    let mut cfg = platoon.episode();
    cfg.ego_init.position = -150.0;
    cfg
}

fn run_cell(
    stack: &'static str,
    template: &EpisodeConfig,
    spec: &StackSpec,
    starts: Option<&[f64]>,
    episodes: usize,
    threads: usize,
    reps: usize,
) -> Cell {
    let mut batch = BatchConfig::new(template.clone(), episodes);
    batch.threads = threads;
    if let Some(s) = starts {
        batch.starts = s.to_vec();
    }

    // Warm the scenario/planner caches and page in the code before timing.
    let _ = run_batch(&batch, spec).expect("valid batch");

    // Interleave the two paths and keep each one's best wall time: on a
    // shared box a single 4–40 ms sample is dominated by scheduler noise
    // and thread-spawn jitter, and the minimum is the standard
    // least-noise throughput estimator.
    let mut static_secs = f64::INFINITY;
    let mut dynamic_secs = f64::INFINITY;
    let mut static_results = Vec::new();
    let mut dynamic_results = Vec::new();
    for _ in 0..reps.max(1) {
        let (s, s_secs) = timed(|| run_batch_static(&batch, spec));
        static_results = s.expect("valid batch");
        static_secs = static_secs.min(s_secs);
        let (d, d_secs) = timed(|| run_batch(&batch, spec));
        dynamic_results = d.expect("valid batch");
        dynamic_secs = dynamic_secs.min(d_secs);
    }

    assert_eq!(
        static_results, dynamic_results,
        "{stack} @ {threads} threads: dynamic scheduler diverged from static baseline"
    );
    let sa = BatchSummary::from_results(&static_results);
    let sb = BatchSummary::from_results(&dynamic_results);
    assert!(sa.stats_eq(&sb), "summary stats diverged");

    let total_steps: u64 = dynamic_results
        .iter()
        .map(|r: &EpisodeResult| r.total_steps)
        .sum();
    Cell {
        stack,
        threads,
        episodes,
        static_secs,
        dynamic_secs,
        static_eps: episodes as f64 / static_secs,
        dynamic_eps: episodes as f64 / dynamic_secs,
        ns_per_step: dynamic_secs * 1e9 / total_steps.max(1) as f64,
        total_steps,
        speedup: static_secs / dynamic_secs,
    }
}

/// One cell of the event-engine comparison: the fixed-step dynamic path
/// vs [`BatchMode::EventDriven`] on the same batch.
struct EventCell {
    stack: &'static str,
    threads: usize,
    episodes: usize,
    fixed_secs: f64,
    event_secs: f64,
    fixed_eps: f64,
    event_eps: f64,
    event_speedup: f64,
}

/// Times the fixed-step dynamic path against the event-driven engine
/// (interleaved best-of-reps, like [`run_cell`]) and asserts the
/// bit-identity contract inline: the event engine is an execution
/// strategy, not an approximation, so every [`EpisodeResult`] must match
/// the fixed-step oracle exactly (DESIGN.md §18).
fn event_cell(
    stack: &'static str,
    template: &EpisodeConfig,
    spec: &StackSpec,
    starts: Option<&[f64]>,
    episodes: usize,
    threads: usize,
    reps: usize,
) -> EventCell {
    let mut batch = BatchConfig::new(template.clone(), episodes);
    batch.threads = threads;
    if let Some(s) = starts {
        batch.starts = s.to_vec();
    }

    let _ = run_batch_lanes(&batch, spec, BatchMode::EventDriven, None, None).expect("valid batch");

    let mut fixed_secs = f64::INFINITY;
    let mut event_secs = f64::INFINITY;
    let mut fixed_results = Vec::new();
    let mut event_results = Vec::new();
    for _ in 0..reps.max(1) {
        let (f, f_secs) = timed(|| run_batch(&batch, spec));
        fixed_results = f.expect("valid batch");
        fixed_secs = fixed_secs.min(f_secs);
        let (e, e_secs) =
            timed(|| run_batch_lanes(&batch, spec, BatchMode::EventDriven, None, None));
        event_results = e
            .expect("valid batch")
            .into_results()
            .expect("no quarantine, no interrupt");
        event_secs = event_secs.min(e_secs);
    }

    assert_eq!(
        fixed_results, event_results,
        "{stack} @ {threads} threads: event-driven engine diverged from the fixed-step oracle"
    );

    EventCell {
        stack,
        threads,
        episodes,
        fixed_secs,
        event_secs,
        fixed_eps: episodes as f64 / fixed_secs,
        event_eps: episodes as f64 / event_secs,
        event_speedup: fixed_secs / event_secs,
    }
}

/// Writes a `bench.throughput.baseline/v1` file from
/// `(stack, threads, episodes/sec)` points — the first `--nn-baseline`
/// recording, and the warn-and-record rewrite when a loaded baseline
/// predates a cell family this run produced.
fn write_nn_baseline(path: &str, sims: usize, seed: u64, points: &[(String, usize, f64)]) {
    let json = Json::obj(vec![
        ("schema", Json::str("bench.throughput.baseline/v1")),
        ("sims_per_cell", Json::Int(sims as i128)),
        ("base_seed", Json::Int(seed as i128)),
        (
            "cells",
            Json::Arr(
                points
                    .iter()
                    .map(|(s, t, e)| {
                        Json::obj(vec![
                            ("stack", Json::str(s.as_str())),
                            ("threads", Json::Int(*t as i128)),
                            ("episodes_per_sec", Json::num_or_null(*e)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create nn-baseline directory");
        }
    }
    std::fs::write(path, json.encode()).expect("write nn baseline");
}

/// Loads a `bench.throughput.baseline/v1` file (episodes/sec measured on a
/// previous engine — see `results/BENCH_throughput_seed.json` for the
/// pre-overhaul engine at the growth-seed commit) and returns
/// `(stack, threads) → episodes_per_sec`.
///
/// Older artifacts predate some comparison sections; a baseline missing its
/// `cells` array, or containing cells without the compared fields, loses
/// only those comparisons (logged to stderr) — an old-but-valid artifact
/// must never panic the benchmark that consumes it.
fn load_baseline(path: &str) -> Vec<(String, usize, f64)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--baseline {path}: {e}"));
    let json = Json::parse(&text).unwrap_or_else(|e| panic!("--baseline {path}: {e:?}"));
    let Some(cells) = json.get("cells").and_then(Json::as_arr) else {
        eprintln!(
            "warning: --baseline {path}: no `cells` array (older artifact schema); \
             skipping the throughput comparison"
        );
        return Vec::new();
    };
    cells
        .iter()
        .enumerate()
        .filter_map(|(i, c)| {
            let stack = c.get("stack").and_then(Json::as_str);
            let threads = c.get("threads").and_then(Json::as_usize);
            let eps = c.get("episodes_per_sec").and_then(Json::as_f64_lossy);
            match (stack, threads, eps) {
                (Some(s), Some(t), Some(e)) => Some((s.to_string(), t, e)),
                _ => {
                    eprintln!(
                        "warning: --baseline {path}: cell {i} lacks \
                         stack/threads/episodes_per_sec; skipping its comparison"
                    );
                    None
                }
            }
        })
        .collect()
}

/// The warm-cache cell: the same batch submitted twice against one
/// content-addressed episode cache.
struct CacheSection {
    episodes: usize,
    threads: usize,
    cold_wall_secs: f64,
    warm_wall_secs: f64,
    warm_speedup: f64,
    warm_hits: usize,
    bit_identical: bool,
}

/// Times a cold batch (every episode simulated, results inserted) against
/// an immediately repeated warm batch (every episode answered from the
/// cache without touching a worker), asserting the cache contract inline:
/// the warm run must hit on 100% of its episodes, return a bit-identical
/// summary, and land at least 10× under the cold wall time.
fn cache_rates(seed: u64, episodes: usize, threads: usize) -> CacheSection {
    let template = EpisodeConfig::paper_default(seed);
    let spec = StackSpec::pure_teacher_conservative(&template).expect("paper geometry");
    let mut batch = BatchConfig::new(template, episodes);
    batch.threads = threads;
    let cache = EpisodeCache::new(DEFAULT_CACHE_BYTES);
    let cancel = AtomicBool::new(false);
    let run = || {
        let t0 = Instant::now();
        let outcome = run_sharded(
            &batch,
            &spec,
            JobLimits::new(threads),
            &cancel,
            None,
            Some(&cache),
            |_| {},
        );
        let secs = t0.elapsed().as_secs_f64();
        match outcome {
            JobOutcome::Completed(summary) => (summary, secs),
            other => panic!("cache cell: expected completion, got {other:?}"),
        }
    };
    let (cold, cold_wall_secs) = run();
    let (warm, warm_wall_secs) = run();

    assert_eq!(
        (cold.cache_hits, cold.cache_misses),
        (0, episodes),
        "cold run must miss on every episode"
    );
    assert_eq!(
        (warm.cache_hits, warm.cache_misses),
        (episodes, 0),
        "warm run must hit on 100% of its episodes"
    );
    let bit_identical = cold.stats_eq(&warm)
        && cold
            .etas
            .iter()
            .zip(&warm.etas)
            .all(|(a, b)| a.to_bits() == b.to_bits())
        && cold
            .reaching_times
            .iter()
            .zip(&warm.reaching_times)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(bit_identical, "warm summary diverged from the cold run");
    // An unmeasurably fast warm run (wall time rounds to zero) is an
    // infinite speedup, not a division hazard.
    let warm_speedup = if warm_wall_secs > 0.0 {
        cold_wall_secs / warm_wall_secs
    } else {
        f64::INFINITY
    };
    assert!(
        warm_speedup >= 10.0,
        "warm cache must be >=10x faster than cold: {cold_wall_secs:.6}s cold \
         vs {warm_wall_secs:.6}s warm ({warm_speedup:.1}x)"
    );
    CacheSection {
        episodes,
        threads,
        cold_wall_secs,
        warm_wall_secs,
        warm_speedup,
        warm_hits: warm.cache_hits,
        bit_identical,
    }
}

/// One lane width's timing against the per-episode reference.
struct LaneCell {
    k: usize,
    wall_secs: f64,
    eps: f64,
    speedup_vs_per_episode: f64,
    within_tolerance: bool,
}

/// The lane-batched execution mode on the pure-NN stack, single worker.
struct LaneSection {
    stack: &'static str,
    episodes: usize,
    per_episode_secs: f64,
    per_episode_eps: f64,
    cells: Vec<LaneCell>,
}

/// Times `run_batch_lanes` on the pure-NN stack for K ∈ {1, 2, 4, 8} at a
/// single worker thread (so the per-K speedup comes from lane batching
/// alone, not parallelism) against the per-episode supervised path, and
/// asserts the numeric contract inline: `Lanes(1)` bit-identical to the
/// reference, K > 1 within the per-field tolerance gate on every episode.
fn lane_rates(seed: u64, episodes: usize, reps: usize) -> LaneSection {
    const KS: [usize; 4] = [1, 2, 4, 8];
    let template = EpisodeConfig::paper_default(seed);
    let ego_limits = template.scenario().expect("paper geometry").ego_limits();
    let planner = NnPlanner::new(
        case_study_net(seed),
        ego_limits,
        FeatureScaling::left_turn(),
        "bench-nn",
    );
    let spec = StackSpec::PureNn {
        planner,
        window: WindowKind::Conservative,
    };
    let mut batch = BatchConfig::new(template, episodes);
    batch.threads = 1;

    // Warm the scenario/planner caches and page in the code before timing.
    let _ = run_batch_lanes(&batch, &spec, BatchMode::PerEpisode, None, None).expect("valid batch");

    // Interleave the reference and every K per rep, keeping each one's
    // best wall time (same least-noise estimator as the batch matrix).
    let mut per_episode_secs = f64::INFINITY;
    let mut reference: Vec<EpisodeResult> = Vec::new();
    let mut lane_secs = [f64::INFINITY; KS.len()];
    let mut lane_results: Vec<Vec<EpisodeResult>> = vec![Vec::new(); KS.len()];
    for _ in 0..reps.max(1) {
        let (r, s) = timed(|| run_batch_lanes(&batch, &spec, BatchMode::PerEpisode, None, None));
        reference = r.expect("valid batch").into_results().expect("clean batch");
        per_episode_secs = per_episode_secs.min(s);
        for (j, &k) in KS.iter().enumerate() {
            let (r, s) = timed(|| run_batch_lanes(&batch, &spec, BatchMode::Lanes(k), None, None));
            lane_results[j] = r.expect("valid batch").into_results().expect("clean batch");
            lane_secs[j] = lane_secs[j].min(s);
        }
    }

    let cells = KS
        .iter()
        .zip(lane_secs)
        .zip(&lane_results)
        .map(|((&k, wall_secs), results)| {
            assert_eq!(results.len(), reference.len(), "lane K={k} lost episodes");
            if k == 1 {
                assert_eq!(
                    results, &reference,
                    "Lanes(1) must be bit-identical to the per-episode path"
                );
            }
            let mut within_tolerance = true;
            for (r, b) in reference.iter().zip(results) {
                if let Err(e) = lane_tolerance_check(r, b) {
                    within_tolerance = false;
                    eprintln!("lane K={k}: tolerance violation: {e}");
                }
            }
            assert!(
                within_tolerance,
                "lane K={k} violated the tolerance contract"
            );
            LaneCell {
                k,
                wall_secs,
                eps: episodes as f64 / wall_secs,
                speedup_vs_per_episode: per_episode_secs / wall_secs,
                within_tolerance,
            }
        })
        .collect();

    LaneSection {
        stack: "nn-pure/no-disturbance",
        episodes,
        per_episode_secs,
        per_episode_eps: episodes as f64 / per_episode_secs,
        cells,
    }
}

/// Measured rates of the NN compute layer (forward pass + training loop).
struct NnSection {
    ns_per_forward_alloc: f64,
    ns_per_forward_scratch: f64,
    forward_speedup: f64,
    forward_bit_identical: bool,
    clone_epochs: usize,
    clone_epochs_per_sec_alloc: f64,
    clone_epochs_per_sec_in_place: f64,
    training_speedup: f64,
    training_bit_identical: bool,
}

/// Times the case-study forward pass — the pre-PR allocating path
/// (`from_vec` → per-layer `forward` → `to_vec`, exactly the old
/// `Mlp::predict`) against the scratch-backed fused `predict_into` — and a
/// behaviour-cloning-shaped training run through the allocating reference
/// trainer (`fit_alloc`) vs the in-place trainer (`fit`). Both comparisons
/// also verify bit-identity, which lands in the JSON artifact.
fn nn_rates(seed: u64) -> NnSection {
    let net = case_study_net(seed);
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x00D1_5EA5);
    let inputs: Vec<[f64; 5]> = (0..256)
        .map(|_| std::array::from_fn(|_| rng.random_range(-1.0..1.0)))
        .collect();

    // Bit identity on every probe input before timing anything.
    let mut scratch = MlpScratch::for_net(&net);
    let mut out = [0.0];
    let mut forward_bit_identical = true;
    for input in &inputs {
        // Reference = the pre-PR `Mlp::predict`: naive kernel, separate
        // bias/activation passes (also what the alloc timing below runs).
        let x = Matrix::from_vec(1, 5, input.to_vec()).expect("probe shape");
        let mut reference = x.clone();
        for layer in net.layers() {
            reference = reference
                .matmul_naive(layer.weights())
                .expect("probe matmul")
                .add_row_broadcast(layer.bias())
                .expect("probe bias");
            let act = layer.activation();
            reference = reference.map(|v| act.apply(v));
        }
        net.predict_into(input, &mut scratch, &mut out)
            .expect("probe predict");
        forward_bit_identical &= reference.as_slice()[0].to_bits() == out[0].to_bits();
    }

    // ns per forward, amortised over the probe set inside the timed routine
    // so input staging varies realistically. The two paths are interleaved
    // so clock-frequency drift biases neither; the minimum over rounds is
    // the least-disturbed run of each.
    let (mut alloc_batch_ns, mut scratch_batch_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..4 {
        alloc_batch_ns = alloc_batch_ns.min(measure_ns(3, || {
            let mut acc = 0.0;
            for input in &inputs {
                // The pre-PR `Mlp::predict`, reconstructed from the
                // retained naive kernel: staging copy, input clone, three
                // allocating layer ops, output copy.
                let x = Matrix::from_vec(1, 5, input.to_vec()).expect("probe shape");
                let mut cur = x.clone();
                for layer in net.layers() {
                    cur = cur
                        .matmul_naive(layer.weights())
                        .expect("probe matmul")
                        .add_row_broadcast(layer.bias())
                        .expect("probe bias");
                    let act = layer.activation();
                    cur = cur.map(|v| act.apply(v));
                }
                acc += cur.as_slice().to_vec()[0];
            }
            acc
        }));
        scratch_batch_ns = scratch_batch_ns.min(measure_ns(3, || {
            let mut acc = 0.0;
            for input in &inputs {
                net.predict_into(input, &mut scratch, &mut out)
                    .expect("probe predict");
                acc += out[0];
            }
            acc
        }));
    }
    let ns_per_forward_alloc = alloc_batch_ns / inputs.len() as f64;
    let ns_per_forward_scratch = scratch_batch_ns / inputs.len() as f64;

    // Behaviour-cloning-shaped workload: 512 samples over the 5 scenario
    // features, mini-batch 128, Adam — the `clone_behaviour` defaults.
    let x = Matrix::from_fn(512, 5, |_, _| rng.random_range(-1.0..1.0));
    let y = Matrix::from_fn(512, 1, |_, _| rng.random_range(-1.0..1.0));
    let cfg = TrainConfig {
        epochs: 12,
        batch_size: 128,
        seed: seed ^ 0x5EED,
        ..TrainConfig::default()
    };
    let trainer = Trainer::new(Optimizer::adam(5e-3), cfg);

    let mut net_a = net.clone();
    trainer.fit(&mut net_a, &x, &y).expect("in-place fit");
    let mut net_b = net.clone();
    trainer
        .fit_alloc(&mut net_b, &x, &y)
        .expect("allocating fit");
    let training_bit_identical = net_a.layers().iter().zip(net_b.layers()).all(|(a, b)| {
        a.weights()
            .as_slice()
            .iter()
            .zip(b.weights().as_slice())
            .all(|(p, q)| p.to_bits() == q.to_bits())
            && a.bias()
                .iter()
                .zip(b.bias())
                .all(|(p, q)| p.to_bits() == q.to_bits())
    });

    // Interleave the two timings so clock-frequency drift biases neither
    // side; the minimum over rounds is the least-disturbed run of each.
    let (mut alloc_run_ns, mut in_place_run_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..4 {
        alloc_run_ns = alloc_run_ns.min(measure_ns(3, || {
            let mut n = net.clone();
            trainer.fit_alloc(&mut n, &x, &y).expect("allocating fit");
        }));
        in_place_run_ns = in_place_run_ns.min(measure_ns(3, || {
            let mut n = net.clone();
            trainer.fit(&mut n, &x, &y).expect("in-place fit");
        }));
    }

    NnSection {
        ns_per_forward_alloc,
        ns_per_forward_scratch,
        forward_speedup: ns_per_forward_alloc / ns_per_forward_scratch,
        forward_bit_identical,
        clone_epochs: cfg.epochs,
        clone_epochs_per_sec_alloc: cfg.epochs as f64 / (alloc_run_ns * 1e-9),
        clone_epochs_per_sec_in_place: cfg.epochs as f64 / (in_place_run_ns * 1e-9),
        training_speedup: alloc_run_ns / in_place_run_ns,
        training_bit_identical,
    }
}

/// Micro-benchmarks the matmul kernel family; returns
/// `(matmul_gflops, tr_matmul_speedup_64, tr_matmul_speedup_training)`.
///
/// `tr_matmul` is the transpose-free `xᵀ·δ` weight-gradient kernel; it is
/// compared against materialise-the-transpose-then-`matmul` both on a
/// square 64×64 case and on the behaviour-cloning mini-batch shape
/// (64-row batch, 16-wide hidden layer).
fn kernel_rates() -> (f64, f64, f64) {
    // Best of three shim runs per routine: a single mean is still at the
    // mercy of a noisy neighbour on a shared box.
    fn best_ns<R>(mut routine: impl FnMut() -> R) -> f64 {
        (0..3)
            .map(|_| measure_ns(5, &mut routine))
            .fold(f64::INFINITY, f64::min)
    }

    let n = 64usize;
    let mut rng = SplitMix64::seed_from_u64(7);
    let a = Matrix::from_fn(n, n, |_, _| rng.random_range(-1.0..1.0));
    let b = Matrix::from_fn(n, n, |_, _| rng.random_range(-1.0..1.0));

    let matmul_ns = best_ns(|| a.matmul(&b).unwrap());
    let flops = 2.0 * (n * n * n) as f64;
    let gflops = flops / matmul_ns;

    let sq_fast_ns = best_ns(|| a.tr_matmul(&b).unwrap());
    let sq_ref_ns = best_ns(|| a.transpose().matmul(&b).unwrap());

    let x = Matrix::from_fn(64, 16, |_, _| rng.random_range(-1.0..1.0));
    let d = Matrix::from_fn(64, 16, |_, _| rng.random_range(-1.0..1.0));
    let tr_fast_ns = best_ns(|| x.tr_matmul(&d).unwrap());
    let tr_ref_ns = best_ns(|| x.transpose().matmul(&d).unwrap());
    (gflops, sq_ref_ns / sq_fast_ns, tr_ref_ns / tr_fast_ns)
}

fn main() {
    let sims = bench::arg_usize("--sims", 2000);
    let reps = bench::arg_usize("--reps", 7);
    let seed = bench::arg_usize("--seed", 1) as u64;
    let threads: Vec<usize> = bench::arg_string("--threads", "1,2,4,8")
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .collect();
    let out_path = bench::arg_string("--out", "results/BENCH_throughput.json");
    let baseline_path = bench::arg_string("--baseline", "");
    let nn_baseline_path = bench::arg_string("--nn-baseline", "");
    let baseline = if baseline_path.is_empty() {
        Vec::new()
    } else {
        load_baseline(&baseline_path)
    };
    assert!(
        !threads.is_empty(),
        "--threads must name at least one count"
    );

    println!("episode throughput: {sims} episodes/cell, threads {threads:?}");
    println!(
        "{:<30} {:>7} {:>12} {:>12} {:>9} {:>10} {:>9}",
        "stack", "threads", "static ep/s", "dynamic ep/s", "speedup", "ns/step", "vs seed"
    );

    let mut cells: Vec<Cell> = Vec::new();
    let matrix = stack_matrix(seed);
    for &(stack, ref template, ref spec, ref starts) in &matrix {
        for &t in &threads {
            let cell = run_cell(stack, template, spec, starts.as_deref(), sims, t, reps);
            let vs_baseline = baseline
                .iter()
                .find(|(s, bt, _)| s == cell.stack && *bt == cell.threads)
                .map_or("-".to_string(), |(_, _, eps)| {
                    format!("{:.2}x", cell.dynamic_eps / eps)
                });
            println!(
                "{:<30} {:>7} {:>12.1} {:>12.1} {:>8.2}x {:>10.0} {:>9}",
                cell.stack,
                cell.threads,
                cell.static_eps,
                cell.dynamic_eps,
                cell.speedup,
                cell.ns_per_step,
                vs_baseline
            );
            cells.push(cell);
        }
    }

    // WAIVER(nn-basic-dynamic-parity): the nn-basic cells have measured as
    // low as 0.995x vs the static scheduler at 2 threads — run-to-run
    // scheduler jitter on short shielded episodes, not a real regression
    // (measured cause in DESIGN.md §15). The gate therefore asserts the
    // waiver floor of 0.95x rather than strict parity, and only on
    // measurement-quality runs (≥200 episodes/cell) where the best-of-reps
    // estimator is stable; smoke runs stay shape checks.
    if sims >= 200 {
        for c in cells.iter().filter(|c| c.stack.starts_with("nn-basic")) {
            assert!(
                c.speedup >= 0.95,
                "{} @ {} threads: dynamic scheduler at {:.3}x vs static fell \
                 below the 0.95x waiver floor (DESIGN.md §15)",
                c.stack,
                c.threads,
                c.speedup
            );
        }
    }

    let lanes = lane_rates(seed, sims, reps);
    println!(
        "lane batching ({} episodes, 1 worker, {}): per-episode {:.1} ep/s",
        lanes.episodes, lanes.stack, lanes.per_episode_eps
    );
    for lc in &lanes.cells {
        println!(
            "  K={}: {:>10.1} ep/s ({:.2}x per-episode, within tolerance: {})",
            lc.k, lc.eps, lc.speedup_vs_per_episode, lc.within_tolerance
        );
    }

    // Event-driven engine: fixed-step dynamic path vs
    // `BatchMode::EventDriven` on the n = 8 platoon cells — the dense
    // paper-default platoon (late retirements: the engine's worst platoon
    // case) and the sparse-disturbance cell it is built for (early
    // retirements, lost channels: DESIGN.md §18).
    let event_stacks = ["platoon-n8/teacher-cons", "platoon-n8-sparse/comm-lost"];
    println!("event-driven engine (bit-identity vs fixed-step asserted per cell):");
    let mut event_cells: Vec<EventCell> = Vec::new();
    for &(stack, ref template, ref spec, ref starts) in matrix
        .iter()
        .filter(|(s, _, _, _)| event_stacks.contains(s))
    {
        for &t in &threads {
            let ec = event_cell(stack, template, spec, starts.as_deref(), sims, t, reps);
            println!(
                "  {:<30} @ {} threads: fixed {:>8.1} ep/s -> event {:>8.1} ep/s ({:.2}x)",
                ec.stack, ec.threads, ec.fixed_eps, ec.event_eps, ec.event_speedup
            );
            event_cells.push(ec);
        }
    }

    // NN baseline: the growth-seed baseline predates the NN and platoon
    // stacks, so their `speedup_vs_baseline` was always null. The first run
    // with --nn-baseline records this run's NN, lane, and platoon cells;
    // later runs compare against the recorded file under the same 10%
    // regression gate as the seed baseline.
    let lane_cell_name = |k: usize| format!("nn-lanes-k{k}/no-disturbance");
    let event_cell_name = |stack: &str| format!("event-{stack}");
    let nn_points: Vec<(String, usize, f64)> = cells
        .iter()
        .filter(|c| c.stack.starts_with("nn-") || c.stack.starts_with("platoon-"))
        .map(|c| (c.stack.to_string(), c.threads, c.dynamic_eps))
        .chain(
            lanes
                .cells
                .iter()
                .map(|lc| (lane_cell_name(lc.k), 1, lc.eps)),
        )
        .chain(
            event_cells
                .iter()
                .map(|ec| (event_cell_name(ec.stack), ec.threads, ec.event_eps)),
        )
        .collect();
    let nn_baseline: Vec<(String, usize, f64)> = if nn_baseline_path.is_empty() {
        Vec::new()
    } else if std::path::Path::new(&nn_baseline_path).exists() {
        let mut loaded = load_baseline(&nn_baseline_path);
        // A baseline recorded before a new cell family landed (a new
        // platoon size, the lane cells, the event-engine cells) has no
        // entry for it, and silently skipping the comparison would leave
        // that family ungated forever. Seed every missing cell from this
        // run — it lands at exactly 1.00x now — name each one, and rewrite
        // the file so the next run gates them against today's numbers.
        let newly_seeded: Vec<(String, usize, f64)> = nn_points
            .iter()
            .filter(|(s, t, _)| !loaded.iter().any(|(bs, bt, _)| bs == s && bt == t))
            .cloned()
            .collect();
        if !newly_seeded.is_empty() {
            for (s, t, e) in &newly_seeded {
                println!(
                    "warning: nn baseline {nn_baseline_path} predates cell \
                     {s} @ {t} threads; seeding it at {e:.1} ep/s from this run"
                );
            }
            loaded.extend(newly_seeded.iter().cloned());
            write_nn_baseline(&nn_baseline_path, sims, seed, &loaded);
            println!(
                "re-recorded nn baseline {nn_baseline_path} with {} newly seeded cell(s)",
                newly_seeded.len()
            );
        }
        loaded
    } else {
        write_nn_baseline(&nn_baseline_path, sims, seed, &nn_points);
        println!("recorded nn baseline {nn_baseline_path}");
        // Compare this run against what it just wrote: every NN cell lands
        // at exactly 1.00x and the field stops being null from run one.
        nn_points.clone()
    };
    let baseline: Vec<(String, usize, f64)> = baseline.into_iter().chain(nn_baseline).collect();

    let cache = cache_rates(seed, sims, *threads.last().expect("non-empty threads"));
    println!(
        "warm cache ({} episodes): {:.4}s cold -> {:.6}s warm ({:.0}x, {} hits, bit-identical: {})",
        cache.episodes,
        cache.cold_wall_secs,
        cache.warm_wall_secs,
        cache.warm_speedup,
        cache.warm_hits,
        cache.bit_identical
    );

    let nn = nn_rates(seed);
    println!(
        "nn forward (5x32x32x1): {:.0} ns alloc -> {:.0} ns scratch ({:.2}x, bit-identical: {})",
        nn.ns_per_forward_alloc,
        nn.ns_per_forward_scratch,
        nn.forward_speedup,
        nn.forward_bit_identical
    );
    println!(
        "nn cloning ({} epochs): {:.1} ep/s alloc -> {:.1} ep/s in-place ({:.2}x, bit-identical: {})",
        nn.clone_epochs,
        nn.clone_epochs_per_sec_alloc,
        nn.clone_epochs_per_sec_in_place,
        nn.training_speedup,
        nn.training_bit_identical
    );

    let (gflops, tr_speedup_sq, tr_speedup_train) = kernel_rates();
    println!(
        "kernels: matmul {gflops:.2} GFLOP/s, tr_matmul vs transpose+matmul \
         {tr_speedup_sq:.2}x (64x64) / {tr_speedup_train:.2}x (training shape)"
    );

    let json = Json::obj(vec![
        ("schema", Json::str("bench.throughput/v5")),
        ("sims_per_cell", Json::Int(sims as i128)),
        ("reps_per_cell", Json::Int(reps as i128)),
        ("base_seed", Json::Int(seed as i128)),
        (
            "baseline_file",
            if baseline_path.is_empty() {
                Json::Null
            } else {
                Json::str(&baseline_path)
            },
        ),
        (
            "nn_baseline_file",
            if nn_baseline_path.is_empty() {
                Json::Null
            } else {
                Json::str(&nn_baseline_path)
            },
        ),
        (
            "threads",
            Json::Arr(threads.iter().map(|&t| Json::Int(t as i128)).collect()),
        ),
        (
            "cells",
            Json::Arr(
                cells
                    .iter()
                    .map(|c| {
                        let vs_baseline = baseline
                            .iter()
                            .find(|(s, t, _)| s == c.stack && *t == c.threads)
                            .map(|(_, _, eps)| c.dynamic_eps / eps);
                        Json::obj(vec![
                            ("stack", Json::str(c.stack)),
                            ("threads", Json::Int(c.threads as i128)),
                            ("episodes", Json::Int(c.episodes as i128)),
                            ("total_steps", Json::Int(c.total_steps as i128)),
                            ("static_wall_secs", Json::num_or_null(c.static_secs)),
                            ("dynamic_wall_secs", Json::num_or_null(c.dynamic_secs)),
                            ("static_episodes_per_sec", Json::num_or_null(c.static_eps)),
                            ("dynamic_episodes_per_sec", Json::num_or_null(c.dynamic_eps)),
                            ("dynamic_ns_per_step", Json::num_or_null(c.ns_per_step)),
                            ("speedup_vs_static", Json::num_or_null(c.speedup)),
                            (
                                "speedup_vs_baseline",
                                Json::num_or_null(vs_baseline.unwrap_or(f64::NAN)),
                            ),
                            ("bit_identical", Json::Bool(true)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "lanes",
            Json::obj(vec![
                ("stack", Json::str(lanes.stack)),
                ("episodes", Json::Int(lanes.episodes as i128)),
                ("threads", Json::Int(1)),
                (
                    "per_episode_wall_secs",
                    Json::num_or_null(lanes.per_episode_secs),
                ),
                ("per_episode_eps", Json::num_or_null(lanes.per_episode_eps)),
                (
                    "cells",
                    Json::Arr(
                        lanes
                            .cells
                            .iter()
                            .map(|lc| {
                                let vs_baseline = baseline
                                    .iter()
                                    .find(|(s, t, _)| *s == lane_cell_name(lc.k) && *t == 1)
                                    .map(|(_, _, eps)| lc.eps / eps);
                                Json::obj(vec![
                                    ("k", Json::Int(lc.k as i128)),
                                    ("wall_secs", Json::num_or_null(lc.wall_secs)),
                                    ("episodes_per_sec", Json::num_or_null(lc.eps)),
                                    (
                                        "speedup_vs_per_episode",
                                        Json::num_or_null(lc.speedup_vs_per_episode),
                                    ),
                                    (
                                        "speedup_vs_baseline",
                                        Json::num_or_null(vs_baseline.unwrap_or(f64::NAN)),
                                    ),
                                    ("within_tolerance", Json::Bool(lc.within_tolerance)),
                                    ("bit_identical", Json::Bool(lc.k == 1)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "events",
            Json::obj(vec![(
                "cells",
                Json::Arr(
                    event_cells
                        .iter()
                        .map(|ec| {
                            let vs_baseline = baseline
                                .iter()
                                .find(|(s, t, _)| {
                                    *s == event_cell_name(ec.stack) && *t == ec.threads
                                })
                                .map(|(_, _, eps)| ec.event_eps / eps);
                            Json::obj(vec![
                                ("stack", Json::str(ec.stack)),
                                ("threads", Json::Int(ec.threads as i128)),
                                ("episodes", Json::Int(ec.episodes as i128)),
                                ("fixed_wall_secs", Json::num_or_null(ec.fixed_secs)),
                                ("event_wall_secs", Json::num_or_null(ec.event_secs)),
                                ("fixed_episodes_per_sec", Json::num_or_null(ec.fixed_eps)),
                                ("event_episodes_per_sec", Json::num_or_null(ec.event_eps)),
                                ("event_speedup", Json::num_or_null(ec.event_speedup)),
                                (
                                    "speedup_vs_baseline",
                                    Json::num_or_null(vs_baseline.unwrap_or(f64::NAN)),
                                ),
                                ("bit_identical", Json::Bool(true)),
                            ])
                        })
                        .collect(),
                ),
            )]),
        ),
        (
            "cache",
            Json::obj(vec![
                ("episodes", Json::Int(cache.episodes as i128)),
                ("threads", Json::Int(cache.threads as i128)),
                ("cold_wall_secs", Json::num_or_null(cache.cold_wall_secs)),
                ("warm_wall_secs", Json::num_or_null(cache.warm_wall_secs)),
                ("warm_speedup", Json::num_or_null(cache.warm_speedup)),
                ("warm_hits", Json::Int(cache.warm_hits as i128)),
                ("bit_identical", Json::Bool(cache.bit_identical)),
            ]),
        ),
        (
            "nn",
            Json::obj(vec![
                ("shape", Json::str("5x32x32x1")),
                (
                    "ns_per_forward_alloc",
                    Json::num_or_null(nn.ns_per_forward_alloc),
                ),
                (
                    "ns_per_forward_scratch",
                    Json::num_or_null(nn.ns_per_forward_scratch),
                ),
                ("forward_speedup", Json::num_or_null(nn.forward_speedup)),
                ("bit_identical", Json::Bool(nn.forward_bit_identical)),
                ("clone_epochs", Json::Int(nn.clone_epochs as i128)),
                (
                    "clone_epochs_per_sec_alloc",
                    Json::num_or_null(nn.clone_epochs_per_sec_alloc),
                ),
                (
                    "clone_epochs_per_sec_in_place",
                    Json::num_or_null(nn.clone_epochs_per_sec_in_place),
                ),
                ("training_speedup", Json::num_or_null(nn.training_speedup)),
                (
                    "training_bit_identical",
                    Json::Bool(nn.training_bit_identical),
                ),
            ]),
        ),
        (
            "kernels",
            Json::obj(vec![
                ("matmul_gflops_64", Json::num_or_null(gflops)),
                (
                    "tr_matmul_speedup_vs_transpose_matmul_64",
                    Json::num_or_null(tr_speedup_sq),
                ),
                (
                    "tr_matmul_speedup_vs_transpose_matmul_training_shape",
                    Json::num_or_null(tr_speedup_train),
                ),
            ]),
        ),
    ]);

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, json.encode()).expect("write benchmark JSON");
    println!("wrote {out_path}");

    // Regression gate: any matrix or lane cell more than 10% below its
    // recorded baseline fails the run (after the artifact is written, so
    // the numbers that triggered the failure are on disk for inspection).
    let mut regressions: Vec<String> = cells
        .iter()
        .filter_map(|c| {
            let (_, _, base_eps) = baseline
                .iter()
                .find(|(s, t, _)| *s == c.stack && *t == c.threads)?;
            (c.dynamic_eps < 0.9 * base_eps).then(|| {
                format!(
                    "{} @ {} threads: {:.1} ep/s vs baseline {:.1} ep/s ({:.0}%)",
                    c.stack,
                    c.threads,
                    c.dynamic_eps,
                    base_eps,
                    100.0 * c.dynamic_eps / base_eps
                )
            })
        })
        .collect();
    for lc in &lanes.cells {
        let Some((_, _, base_eps)) = baseline
            .iter()
            .find(|(s, t, _)| *s == lane_cell_name(lc.k) && *t == 1)
        else {
            continue;
        };
        if lc.eps < 0.9 * base_eps {
            regressions.push(format!(
                "{} @ 1 thread: {:.1} ep/s vs baseline {:.1} ep/s ({:.0}%)",
                lane_cell_name(lc.k),
                lc.eps,
                base_eps,
                100.0 * lc.eps / base_eps
            ));
        }
    }
    for ec in &event_cells {
        let Some((_, _, base_eps)) = baseline
            .iter()
            .find(|(s, t, _)| *s == event_cell_name(ec.stack) && *t == ec.threads)
        else {
            continue;
        };
        if ec.event_eps < 0.9 * base_eps {
            regressions.push(format!(
                "{} @ {} threads: {:.1} ep/s vs baseline {:.1} ep/s ({:.0}%)",
                event_cell_name(ec.stack),
                ec.threads,
                ec.event_eps,
                base_eps,
                100.0 * ec.event_eps / base_eps
            ));
        }
    }
    if !regressions.is_empty() {
        eprintln!("THROUGHPUT REGRESSION (>10% below baseline):");
        for r in &regressions {
            eprintln!("  {r}");
        }
        std::process::exit(1);
    }
}
