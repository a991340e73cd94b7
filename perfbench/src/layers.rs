//! Per-layer measurement: replays captured episodes through each layer's
//! public functions with a span around every call.
//!
//! An episode is first run through `cv_sim::run_episode` with traces on,
//! which captures the ego and conflicting-vehicle trajectories. The replay
//! then re-drives the fixed-step event order of one control step — V2V
//! send/receive, sensing, estimator updates, collision scan, estimates,
//! monitor, windows, fusion, planner, dynamics — on those trajectories, with
//! the channels, sensors and estimators the engine would build, and checks
//! that every decision and primary estimate it reproduces is bit-identical
//! to the captured one. A probe phase after each episode times the layers
//! the stack does not call in its loop (the NN on teacher workloads, the
//! other window kinds, the matmul/activation split, the 8-wide lane
//! kernel, the Kalman core and the reachability bound) on the same inputs.

use cv_comm::{Channel, Message};
use cv_dynamics::VehicleState;
use cv_estimation::{
    reachability, Estimator, InformationFilter, KalmanFilter, Mat2, NaiveEstimator, Prior, Vec2,
    VehicleEstimate,
};
use cv_nn::{BatchScratch, Matrix, MlpScratch, LANE_WIDTH};
use cv_planner::{NnPlanner, TeacherPolicy};
use cv_sensing::{Measurement, SensorNoise, UniformNoiseSensor};
use cv_sim::{run_episode, EpisodeConfig, StackSpec, WindowKind};
use left_turn::LeftTurnScenario;
use safe_shield::{
    merge_windows_in_place, AggressiveConfig, Observation, Planner, PlannerSource, RuntimeMonitor,
    Scenario, WindowSource, DEFAULT_MERGE_GAP,
};

use crate::trace::Tracer;

pub const STEP: &str = "sim.step";
const CAPTURE: &str = "sim.capture";
const PROBE: &str = "probe";
pub const SEND: &str = "comm.send";
pub const RECEIVE: &str = "comm.receive";
pub const MESSAGE: &str = "estimation.message";
pub const MEASURE: &str = "sensing.measure";
pub const MEASUREMENT: &str = "estimation.measurement";
pub const COLLISION: &str = "left_turn.collision";
pub const ESTIMATE: &str = "estimation.estimate";
pub const MONITOR: &str = "shield.monitor";
pub const EMERGENCY: &str = "shield.emergency";
pub const WINDOW_CONS: &str = "left_turn.window_cons";
pub const WINDOW_AGGR: &str = "left_turn.window_aggr";
pub const WINDOW_NOMINAL: &str = "left_turn.window_nominal";
pub const MERGE: &str = "shield.merge";
pub const PLAN: &str = "planner.plan";
pub const TEACHER: &str = "planner.teacher";
pub const DYNAMICS: &str = "dynamics.step";
pub const FORWARD: &str = "nn.forward";
const MANUAL: &str = "nn.manual";
pub const MATMUL: &str = "nn.matmul";
pub const TANH: &str = "nn.tanh";
pub const LANES8: &str = "nn.lanes8";
pub const KF: &str = "estimation.kf";
pub const REACH: &str = "estimation.reach";

/// The layers called inside a control step, whose cost times calls per
/// step adds up to the step (the rest is `sim.residual_ns`).
pub const LOOP_LAYERS: [&str; 16] = [
    SEND,
    RECEIVE,
    MESSAGE,
    MEASURE,
    MEASUREMENT,
    COLLISION,
    ESTIMATE,
    MONITOR,
    EMERGENCY,
    WINDOW_CONS,
    WINDOW_AGGR,
    WINDOW_NOMINAL,
    MERGE,
    PLAN,
    TEACHER,
    DYNAMICS,
];

/// Counts the replay makes at the layer boundaries.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub steps: u64,
    pub nn_steps: u64,
    pub emergency_steps: u64,
    /// Window computations, the monitor's included.
    pub windows: u64,
    pub sent: u64,
    pub delivered: u64,
    pub lane_rows: u64,
}

/// The stack's planner, as the replay drives it.
enum Exec {
    Pure {
        planner: Box<dyn Planner>,
        span: &'static str,
        window: WindowKind,
    },
    Compound {
        planner: Box<NnPlanner>,
        source: WindowSource,
    },
}

/// Replays one captured episode; returns a description of the first
/// divergence from the engine, if any.
pub fn replay_episode(
    tr: &mut Tracer,
    episode: u32,
    cfg: &EpisodeConfig,
    spec: &StackSpec,
    probe_nn: &NnPlanner,
    counts: &mut Counts,
) -> Result<(), String> {
    tr.set_episode(episode);
    let captured = tr
        .span(CAPTURE, || run_episode(cfg, spec, true))
        .map_err(|e| format!("capture failed: {e}"))?;
    let traces = captured.traces.as_ref().expect("traces requested");
    let scenarios = cfg.scenarios().map_err(|e| e.to_string())?;
    let n = scenarios.len();
    let ego_limits = scenarios[0].ego_limits();
    let other_limits = scenarios[0].other_limits();
    let ego_traj: Vec<VehicleState> = traces.ego.iter().map(|s| s.state).collect();
    let other_traj: Vec<Vec<VehicleState>> = traces
        .others
        .iter()
        .map(|t| t.iter().map(|s| s.state).collect())
        .collect();

    let mut channels: Vec<Box<dyn Channel + Send>> = (0..n)
        .map(|i| cfg.effective_comm(i).channel(cfg.seed_channel_for(i)))
        .collect();
    let mut sensors: Vec<UniformNoiseSensor> = (0..n)
        .map(|i| UniformNoiseSensor::new(cfg.noise, cfg.seed_sensor_for(i)))
        .collect();
    let inits: Vec<VehicleState> = cfg
        .vehicles()
        .iter()
        .map(|(_, speed, _)| VehicleState::new(0.0, *speed, 0.0))
        .collect();
    let (mut exec, mut estimators): (Exec, Vec<Box<dyn Estimator>>) = match spec {
        StackSpec::PureNn { planner, window } => (
            Exec::Pure {
                planner: Box::new(planner.clone()),
                span: PLAN,
                window: *window,
            },
            naive(&inits, other_limits),
        ),
        StackSpec::PureTeacher { policy, window } => (
            Exec::Pure {
                planner: Box::new(*policy),
                span: TEACHER,
                window: *window,
            },
            naive(&inits, other_limits),
        ),
        StackSpec::Compound {
            planner,
            filter_mode,
            window_source,
        } => (
            Exec::Compound {
                planner: Box::new(planner.clone()),
                source: *window_source,
            },
            inits
                .iter()
                .map(|init| {
                    Box::new(InformationFilter::new(
                        other_limits,
                        cfg.noise,
                        *filter_mode,
                        Prior::exact(0.0, init.position, init.velocity),
                    )) as Box<dyn Estimator>
                })
                .collect(),
        ),
    };
    let cadence = |period: f64| (period / cfg.dt_c).round().max(1.0) as u64;
    let (msg_every, sense_every) = (cadence(cfg.dt_m), cadence(cfg.dt_s));
    let monitor = RuntimeMonitor::new();

    let mut inbox: Vec<Message> = Vec::new();
    let mut ests: Vec<VehicleEstimate> = Vec::with_capacity(n);
    let mut wins = Vec::with_capacity(n);
    let mut probe_steps: Vec<(f64, VehicleState, VehicleEstimate)> = Vec::new();
    let mut probe_obs: Vec<Observation> = Vec::new();
    let mut probe_meas: Vec<Measurement> = Vec::new();
    let mut divergence: Option<String> = None;

    for k in 0..captured.total_steps as usize {
        let t = k as f64 * cfg.dt_c;
        let ego = ego_traj[k];
        let step_span = tr.enter(STEP);
        for i in 0..n {
            let other = other_traj[i][k];
            if (k as u64).is_multiple_of(msg_every) {
                tr.span(SEND, || {
                    channels[i].send(Message::from_state(1 + i, t, &other), t)
                });
                counts.sent += 1;
            }
            inbox.clear();
            tr.span(RECEIVE, || channels[i].receive_into(t, &mut inbox));
            counts.delivered += inbox.len() as u64;
            for msg in &inbox {
                tr.span(MESSAGE, || estimators[i].on_message(msg));
            }
            if (k as u64).is_multiple_of(sense_every) {
                let m = tr.span(MEASURE, || sensors[i].measure(1 + i, t, &other));
                tr.span(MEASUREMENT, || estimators[i].on_measurement(&m));
                if i == 0 {
                    probe_meas.push(m);
                }
            }
        }
        for (i, scenario) in scenarios.iter().enumerate() {
            let other = other_traj[i][k];
            if tr.span(COLLISION, || scenario.collision(&ego, &other)) {
                divergence.get_or_insert(format!("collision on planned step {k}"));
            }
        }
        ests.clear();
        for est in &estimators {
            ests.push(tr.span(ESTIMATE, || est.estimate(t)));
        }
        let (accel, source) = match &mut exec {
            Exec::Pure {
                planner,
                span,
                window,
            } => {
                wins.clear();
                for (scenario, est) in scenarios.iter().zip(&ests) {
                    let w = match window {
                        WindowKind::Conservative => {
                            tr.span(WINDOW_CONS, || scenario.conservative_window(t, est))
                        }
                        WindowKind::Nominal => {
                            tr.span(WINDOW_NOMINAL, || scenario.nominal_window(t, est))
                        }
                    };
                    wins.extend(w);
                }
                counts.windows += n as u64;
                let fused = tr.span(MERGE, || {
                    merge_windows_in_place(&mut wins, DEFAULT_MERGE_GAP)
                });
                let obs = Observation::new(t, ego, fused);
                probe_obs.push(obs);
                if *span == PLAN {
                    counts.nn_steps += 1;
                }
                (
                    tr.span(span, || planner.plan(&obs)),
                    PlannerSource::NeuralNetwork,
                )
            }
            Exec::Compound { planner, source } => {
                let verdicts: Vec<_> = scenarios
                    .iter()
                    .zip(&ests)
                    .map(|(scenario, est)| {
                        tr.span(MONITOR, || monitor.check(scenario, t, &ego, est))
                    })
                    .collect();
                counts.windows += n as u64;
                match verdicts.iter().position(|v| v.is_emergency()) {
                    Some(i) => {
                        counts.emergency_steps += 1;
                        let window = match verdicts[i] {
                            safe_shield::MonitorVerdict::Emergency { window }
                            | safe_shield::MonitorVerdict::Nominal { window } => window,
                        };
                        (
                            tr.span(EMERGENCY, || scenarios[i].emergency_accel(t, &ego, window)),
                            PlannerSource::Emergency,
                        )
                    }
                    None => {
                        wins.clear();
                        for (scenario, est) in scenarios.iter().zip(&ests) {
                            let w = match source {
                                WindowSource::Conservative => {
                                    tr.span(WINDOW_CONS, || scenario.conservative_window(t, est))
                                }
                                WindowSource::Aggressive(a) => {
                                    tr.span(WINDOW_AGGR, || scenario.aggressive_window(t, est, a))
                                }
                            };
                            wins.extend(w);
                        }
                        counts.windows += n as u64;
                        let fused = tr.span(MERGE, || {
                            merge_windows_in_place(&mut wins, DEFAULT_MERGE_GAP)
                        });
                        let obs = Observation::new(t, ego, fused);
                        probe_obs.push(obs);
                        counts.nn_steps += 1;
                        (
                            tr.span(PLAN, || planner.plan(&obs)),
                            PlannerSource::NeuralNetwork,
                        )
                    }
                }
            }
        };
        let next = tr.span(DYNAMICS, || ego_limits.step(&ego, accel, cfg.dt_c));
        for traj in &other_traj {
            let a = traj.get(k + 1).map_or(0.0, |s| s.acceleration);
            tr.span(DYNAMICS, || other_limits.step(&traj[k], a, cfg.dt_c));
        }
        tr.exit(step_span);
        counts.steps += 1;
        probe_steps.push((t, ego, ests[0]));

        if divergence.is_none() {
            let d = traces.decisions[k];
            if d.accel.to_bits() != accel.to_bits() || d.source != source {
                divergence = Some(format!(
                    "step {k}: replayed decision {accel} ({source:?}) vs engine {} ({:?})",
                    d.accel, d.source
                ));
            } else if traces.estimates[k].1 != ests[0] {
                divergence = Some(format!("step {k}: primary estimate diverged"));
            } else if ego_traj.get(k + 1).is_some_and(|e| *e != next) {
                divergence = Some(format!("step {k}: ego dynamics diverged"));
            }
        }
    }

    let planner = match spec {
        StackSpec::PureNn { planner, .. } | StackSpec::Compound { planner, .. } => planner,
        StackSpec::PureTeacher { .. } => probe_nn,
    };
    let probe = tr.enter(PROBE);
    probe_layers(tr, cfg, &scenarios[0], &probe_steps);
    probe_planners(tr, planner, &scenarios[0], &probe_obs, counts)?;
    probe_kalman(tr, cfg.noise, &probe_meas);
    tr.exit(probe);

    match divergence {
        Some(d) => Err(format!("seed {}: {d}", cfg.seed)),
        None => Ok(()),
    }
}

fn naive(inits: &[VehicleState], limits: cv_dynamics::VehicleLimits) -> Vec<Box<dyn Estimator>> {
    inits
        .iter()
        .map(|init| Box::new(NaiveEstimator::new(limits, 0.0, *init)) as Box<dyn Estimator>)
        .collect()
}

/// Monitor, all three window kinds, the emergency law and the reachability
/// bound on the primary pair's captured step inputs.
fn probe_layers(
    tr: &mut Tracer,
    cfg: &EpisodeConfig,
    scenario: &LeftTurnScenario,
    steps: &[(f64, VehicleState, VehicleEstimate)],
) {
    let monitor = RuntimeMonitor::new();
    let aggressive = AggressiveConfig::default();
    let other_limits = scenario.other_limits();
    for (t, ego, est) in steps {
        tr.span(MONITOR, || monitor.check(scenario, *t, ego, est));
        let window = tr.span(WINDOW_CONS, || scenario.conservative_window(*t, est));
        tr.span(WINDOW_AGGR, || {
            scenario.aggressive_window(*t, est, &aggressive)
        });
        tr.span(WINDOW_NOMINAL, || scenario.nominal_window(*t, est));
        tr.span(EMERGENCY, || scenario.emergency_accel(*t, ego, window));
        tr.span(REACH, || {
            reachability::reach(est.position, est.velocity, cfg.dt_c, &other_limits)
        });
    }
}

/// The NN planner, the conservative teacher, the NN forward pass split
/// into matmul and activation, and the 8-wide lane kernel, on the
/// observations the planner saw.
fn probe_planners(
    tr: &mut Tracer,
    planner: &NnPlanner,
    scenario: &LeftTurnScenario,
    observations: &[Observation],
    counts: &mut Counts,
) -> Result<(), String> {
    let mut nn = planner.clone();
    let mut teacher = TeacherPolicy::conservative(scenario);
    let net = planner.network();
    let mut scratch = MlpScratch::for_net(net);
    let mut bufs: Vec<Matrix> = net
        .layers()
        .iter()
        .map(|l| Matrix::zeros(1, l.out_dim()))
        .collect();
    let mut input = Matrix::zeros(1, net.input_dim());
    let plan = net.lane_plan();
    let mut slab = Matrix::zeros(net.input_dim(), LANE_WIDTH);
    let mut lane_scratch = BatchScratch::for_net(net);
    let mut lane_out = Matrix::zeros(net.output_dim(), LANE_WIDTH);

    for obs in observations {
        tr.span(PLAN, || nn.plan(obs));
        tr.span(TEACHER, || teacher.plan(obs));
        let features = NnPlanner::scaled_features(&planner.scaling(), obs);
        let mut out = [0.0];
        tr.span(FORWARD, || {
            net.predict_into(&features, &mut scratch, &mut out)
        })
        .map_err(|e| e.to_string())?;
        input.as_mut_slice().copy_from_slice(&features);
        let manual = tr.enter(MANUAL);
        for (l, layer) in net.layers().iter().enumerate() {
            let (done, rest) = bufs.split_at_mut(l);
            let x = if l == 0 { &input } else { &done[l - 1] };
            let z = &mut rest[0];
            tr.span(MATMUL, || x.matmul_into(layer.weights(), z))
                .map_err(|e| e.to_string())?;
            tr.span(TANH, || {
                for (v, b) in z.as_mut_slice().iter_mut().zip(layer.bias()) {
                    *v = layer.activation().apply(*v + b);
                }
            });
        }
        tr.exit(manual);
        let last = bufs.last().expect("nonempty net").as_slice()[0];
        if last.to_bits() != out[0].to_bits() {
            return Err(format!("manual forward {last} != predict_into {}", out[0]));
        }
    }
    for chunk in observations.chunks_exact(LANE_WIDTH) {
        for (lane, obs) in chunk.iter().enumerate() {
            let features = NnPlanner::scaled_features(&planner.scaling(), obs);
            for (f, v) in features.iter().enumerate() {
                slab.set(f, lane, *v);
            }
        }
        tr.span(LANES8, || {
            net.forward_batch_into(&plan, &slab, &mut lane_scratch, &mut lane_out)
        })
        .map_err(|e| e.to_string())?;
        counts.lane_rows += LANE_WIDTH as u64;
    }
    Ok(())
}

/// The Kalman predict + update core on the primary pair's measurements.
fn probe_kalman(tr: &mut Tracer, noise: SensorNoise, measurements: &[Measurement]) {
    let Some(first) = measurements.first() else {
        return;
    };
    let mut kf = KalmanFilter::new(
        noise,
        Vec2::new(first.position, first.velocity),
        Mat2::diag(
            SensorNoise::variance(noise.delta_p),
            SensorNoise::variance(noise.delta_v),
        ),
    );
    for pair in measurements.windows(2) {
        let (prev, m) = (pair[0], pair[1]);
        tr.span(KF, || {
            kf.predict(prev.acceleration, m.stamp - prev.stamp);
            kf.update(Vec2::new(m.position, m.velocity));
        });
    }
}
