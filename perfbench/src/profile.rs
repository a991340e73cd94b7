//! Per-layer metrics of a traced run: the layer replay, the cache and wire
//! probes, and the reconciliation of layer costs with the step cost.

use cv_planner::NnPlanner;
use cv_server::wire::Json;
use cv_server::Event;
use cv_sim::{
    episode_key, episode_weight, run_episode, stack_digest, BatchConfig, BatchSummary,
    EpisodeCache, EpisodeConfig, EpisodeResult, StackSpec, DEFAULT_CACHE_BYTES,
};

use crate::layers::{self, Counts};
use crate::report::Report;
use crate::trace::{aggregate, Overhead, Tracer};

const CACHE_KEY: &str = "cache.key";
const CACHE_GET: &str = "cache.get";
const CACHE_INSERT: &str = "cache.insert";
const WIRE_ENCODE: &str = "server.wire_encode";
const WIRE_DECODE: &str = "server.wire_decode";
/// An untraced `run_episode` of a sample: the fixed-step engine whose
/// calls the replay re-drives.
const FIXED: &str = "sim.fixed_step";
/// Timed `run_episode` calls per sample.
const FIXED_REPS: u64 = 3;

/// What the replay measured besides the layer spans.
pub struct Replay {
    pub counts: Counts,
    /// Control steps of the samples' `run_episode` results.
    pub fixed_steps: u64,
}

/// Times every sample episode on the fixed-step engine, then replays it
/// through the layers.
pub fn replay(
    tr: &mut Tracer,
    samples: &[(EpisodeConfig, StackSpec)],
    probe_nn: &NnPlanner,
    report: &mut Report,
) -> Replay {
    let mut out = Replay {
        counts: Counts::default(),
        fixed_steps: 0,
    };
    for (i, (cfg, spec)) in samples.iter().enumerate() {
        tr.set_episode(i as u32);
        for _ in 0..FIXED_REPS {
            match tr.span(FIXED, || run_episode(cfg, spec, false)) {
                Ok(r) => out.fixed_steps += r.total_steps,
                Err(e) => report.problem(format!("sample episode failed: {e}")),
            }
        }
        if let Err(e) = layers::replay_episode(tr, i as u32, cfg, spec, probe_nn, &mut out.counts) {
            report.problem(format!("layer replay diverged from the engine: {e}"));
        }
    }
    out
}

/// Times the cache (key, insert, get) and the wire codec (encode, decode
/// of the frames a job streams) on a workload's own batches and results.
pub fn cache_and_wire(
    tr: &mut Tracer,
    jobs: &[(BatchConfig, StackSpec, Vec<EpisodeResult>)],
    report: &mut Report,
) {
    let cache = EpisodeCache::new(DEFAULT_CACHE_BYTES);
    for (job, (batch, spec, results)) in jobs.iter().enumerate() {
        let Ok(digest) = stack_digest(spec) else {
            report.problem("stack digest rejected a workload stack".into());
            continue;
        };
        let mut keys = Vec::with_capacity(results.len());
        for i in 0..results.len() {
            let cfg = batch.episode(i);
            match tr.span(CACHE_KEY, || episode_key(digest, &cfg)) {
                Ok(key) => keys.push(key),
                Err(e) => report.problem(format!("episode key rejected: {e}")),
            }
        }
        for (key, result) in keys.iter().zip(results) {
            let (value, weight) = (result.clone(), episode_weight(result));
            tr.span(CACHE_INSERT, || cache.insert(*key, value, weight));
        }
        for (key, result) in keys.iter().zip(results) {
            if tr.span(CACHE_GET, || cache.get(key)).as_ref() != Some(result) {
                report.problem("cache returned a different result than it stored".into());
            }
        }

        let job = job as u64;
        let total = results.len();
        let mut frames = vec![Event::Accepted {
            job,
            queued_ahead: 0,
        }];
        frames.extend(
            results
                .iter()
                .enumerate()
                .map(|(index, r)| Event::EpisodeDone {
                    job,
                    index,
                    eta: r.eta,
                    done: index + 1,
                    total,
                    eta_secs: 0.0,
                }),
        );
        frames.push(Event::BatchDone {
            job,
            summary: BatchSummary::from_results(results),
        });
        for frame in &frames {
            let line = tr.span(WIRE_ENCODE, || frame.to_json().encode());
            let decoded = tr.span(WIRE_DECODE, || {
                Json::parse(&line)
                    .map_err(|e| e.to_string())
                    .and_then(|j| Event::from_json(&j).map_err(|e| e.to_string()))
            });
            let same = match (&decoded, frame) {
                (Ok(Event::BatchDone { summary: a, .. }), Event::BatchDone { summary: b, .. }) => {
                    a.stats_eq(b)
                }
                (Ok(d), f) => d == f,
                (Err(_), _) => false,
            };
            if !same {
                report.problem(format!("wire round trip changed a frame: {decoded:?}"));
            }
        }
    }
}

/// Step costs of the workload measured around the traced run's calls.
pub struct StepTiming {
    /// Wall ns per control step, untraced pass.
    pub untraced_ns: f64,
    /// Wall ns per control step, traced pass.
    pub traced_ns: f64,
    /// Process CPU ns per control step, traced pass.
    pub cpu_ns: f64,
    pub steps_per_episode: f64,
    /// Median host probe of the traced pass's blocks.
    pub probe_ns: f64,
}

/// Pushes every per-layer metric except the `server.*` round-trip ones.
///
/// Reconciliation, in CPU ns per control step: the samples' fixed-step
/// cost is the layer calls it makes plus `sim.residual_ns`, both measured
/// on the same episodes and engine; the workload's traced step cost is
/// that fixed-step cost plus `sim.engine_ns`, the difference its own
/// engine (threads, lanes, event wheel, daemon) makes.
pub fn push_layer_metrics(
    report: &mut Report,
    tr: &Tracer,
    overhead: Overhead,
    replay: &Replay,
    timing: &StepTiming,
    cache_hit_share: f64,
) {
    let counts = &replay.counts;
    let (aggs, direct) = aggregate(tr.spans(), overhead, layers::STEP);
    let steps = counts.steps.max(1) as f64;
    let ns = |name: &str| aggs.get(name).map_or(0.0, |a| a.mean_ns());
    let total_ns = |name: &str| aggs.get(name).map_or(0.0, |a| a.self_ns);
    let per_step = |name: &str| direct.get(name).copied().unwrap_or(0) as f64 / steps;
    let forwards = aggs.get(layers::FORWARD).map_or(1, |a| a.calls.max(1)) as f64;
    let lane_row_ns = total_ns(layers::LANES8) / counts.lane_rows.max(1) as f64;
    let fixed_ns = total_ns(FIXED) / replay.fixed_steps.max(1) as f64;
    let explained: f64 = layers::LOOP_LAYERS
        .iter()
        .map(|&name| ns(name) * per_step(name))
        .sum();

    let r = report;
    r.push("nn.forward_ns", ns(layers::FORWARD), "ns");
    r.push(
        "nn.forward_per_step",
        counts.nn_steps as f64 / steps,
        "calls/step",
    );
    r.push("nn.matmul_ns", total_ns(layers::MATMUL) / forwards, "ns");
    r.push("nn.tanh_ns", total_ns(layers::TANH) / forwards, "ns");
    r.push("nn.lanes8_row_ns", lane_row_ns, "ns");
    r.push("planner.plan_ns", ns(layers::PLAN), "ns");
    r.push("planner.teacher_ns", ns(layers::TEACHER), "ns");
    r.push("shield.monitor_ns", ns(layers::MONITOR), "ns");
    r.push("shield.merge_ns", ns(layers::MERGE), "ns");
    r.push("shield.emergency_ns", ns(layers::EMERGENCY), "ns");
    r.push(
        "shield.emergency_share",
        counts.emergency_steps as f64 / steps,
        "share",
    );
    r.push("left_turn.window_cons_ns", ns(layers::WINDOW_CONS), "ns");
    r.push("left_turn.window_aggr_ns", ns(layers::WINDOW_AGGR), "ns");
    r.push(
        "left_turn.window_nominal_ns",
        ns(layers::WINDOW_NOMINAL),
        "ns",
    );
    r.push("left_turn.collision_ns", ns(layers::COLLISION), "ns");
    r.push(
        "left_turn.windows_per_step",
        counts.windows as f64 / steps,
        "calls/step",
    );
    r.push("estimation.measurement_ns", ns(layers::MEASUREMENT), "ns");
    r.push("estimation.message_ns", ns(layers::MESSAGE), "ns");
    r.push("estimation.estimate_ns", ns(layers::ESTIMATE), "ns");
    r.push("estimation.kf_ns", ns(layers::KF), "ns");
    r.push("estimation.reach_ns", ns(layers::REACH), "ns");
    r.push(
        "estimation.messages_per_step",
        counts.delivered as f64 / steps,
        "calls/step",
    );
    r.push("comm.send_ns", ns(layers::SEND), "ns");
    r.push("comm.receive_ns", ns(layers::RECEIVE), "ns");
    r.push(
        "comm.delivered_share",
        counts.delivered as f64 / counts.sent.max(1) as f64,
        "share",
    );
    r.push("sensing.measure_ns", ns(layers::MEASURE), "ns");
    r.push("dynamics.step_ns", ns(layers::DYNAMICS), "ns");
    r.push("host.probe_ns", timing.probe_ns, "ns");
    r.push("sim.steps_per_episode", timing.steps_per_episode, "steps");
    r.push("sim.step_ns_traced", timing.traced_ns, "ns");
    r.push(
        "sim.trace_overhead",
        timing.traced_ns / timing.untraced_ns - 1.0,
        "share",
    );
    r.push("sim.step_cpu_ns", timing.cpu_ns, "ns");
    r.push("sim.fixed_step_ns", fixed_ns, "ns");
    r.push("sim.residual_ns", fixed_ns - explained, "ns");
    r.push("sim.engine_ns", timing.cpu_ns - fixed_ns, "ns");
    r.push("cache.hit_share", cache_hit_share, "share");
    r.push("cache.key_ns", ns(CACHE_KEY), "ns");
    r.push("cache.get_ns", ns(CACHE_GET), "ns");
    r.push("cache.insert_ns", ns(CACHE_INSERT), "ns");
    r.push("server.wire_encode_ns", ns(WIRE_ENCODE), "ns");
    r.push("server.wire_decode_ns", ns(WIRE_DECODE), "ns");
    eprintln!(
        "perfbench: step {:.1} cpu-ns = fixed-step {fixed_ns:.1} ({explained:.1} in layers \
         + {:.1} residual) + {:.1} engine",
        timing.cpu_ns,
        fixed_ns - explained,
        timing.cpu_ns - fixed_ns
    );
}
