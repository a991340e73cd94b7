//! Typed protocol frames and their JSON (de)serialisation.
//!
//! Every frame is one [`crate::wire::Json`] object on one line. Requests
//! carry an `"op"` discriminator, responses an `"event"` discriminator. The
//! episode payload mirrors [`cv_sim::EpisodeConfig`] field for field, so a
//! submitted batch replays bit-identically to an in-process
//! [`cv_sim::run_batch`].
//!
//! Planner stacks travel by *name* ([`StackSpecWire`]): the NN planners'
//! weight matrices are too heavy for a control protocol, so the wire names
//! the analytic teacher stacks and the server instantiates them against the
//! submitted template ([`StackSpecWire::resolve`]).

use cv_comm::CommSetting;
use cv_dynamics::VehicleState;
use cv_sensing::SensorNoise;
use cv_sim::{BatchConfig, BatchSummary, DriverModel, EpisodeConfig, OtherVehicle, StackSpec};

use crate::wire::Json;

/// A decode failure: the frame was valid JSON but not a valid frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad frame: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn bad(msg: impl Into<String>) -> DecodeError {
    DecodeError(msg.into())
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, DecodeError> {
    v.get(key)
        .ok_or_else(|| bad(format!("missing field '{key}'")))
}

/// A float field that may legitimately be NaN (encoded as `null`).
fn nan_field(v: &Json, key: &str) -> Result<f64, DecodeError> {
    field(v, key)?
        .as_f64_lossy()
        .ok_or_else(|| bad(format!("field '{key}' must be a number or null")))
}

fn f64_field(v: &Json, key: &str) -> Result<f64, DecodeError> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| bad(format!("field '{key}' must be a number")))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, DecodeError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| bad(format!("field '{key}' must be a non-negative integer")))
}

fn usize_field(v: &Json, key: &str) -> Result<usize, DecodeError> {
    field(v, key)?
        .as_usize()
        .ok_or_else(|| bad(format!("field '{key}' must be a non-negative integer")))
}

fn str_field<'a>(v: &'a Json, key: &str) -> Result<&'a str, DecodeError> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| bad(format!("field '{key}' must be a string")))
}

/// A planner stack nameable on the wire.
///
/// Only the analytic teacher stacks are remotely constructible — they are
/// derived from the episode geometry alone, which keeps the protocol free of
/// multi-kilobyte NN weight payloads while still exercising the full
/// simulator (and the bit-identical acceptance test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackSpecWire {
    /// `StackSpec::pure_teacher_conservative` over the submitted template.
    TeacherConservative,
    /// `StackSpec::pure_teacher_aggressive` over the submitted template.
    TeacherAggressive,
    /// `StackSpec::panic_injection` over the submitted template, panicking
    /// on the template's own seed (episode 0 of a default batch). Only
    /// nameable when the server was built with the `fault-injection`
    /// feature — production builds reject the name at decode time.
    #[cfg(feature = "fault-injection")]
    PanicInjection,
}

impl StackSpecWire {
    /// Wire name of the stack.
    pub fn name(self) -> &'static str {
        match self {
            StackSpecWire::TeacherConservative => "teacher_conservative",
            StackSpecWire::TeacherAggressive => "teacher_aggressive",
            #[cfg(feature = "fault-injection")]
            StackSpecWire::PanicInjection => "panic_injection",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] for unknown stack names.
    pub fn from_name(name: &str) -> Result<Self, DecodeError> {
        match name {
            "teacher_conservative" => Ok(StackSpecWire::TeacherConservative),
            "teacher_aggressive" => Ok(StackSpecWire::TeacherAggressive),
            #[cfg(feature = "fault-injection")]
            "panic_injection" => Ok(StackSpecWire::PanicInjection),
            other => Err(bad(format!(
                "unknown stack '{other}' (expected teacher_conservative or teacher_aggressive)"
            ))),
        }
    }

    /// Instantiates the stack against the batch's template episode.
    ///
    /// # Errors
    ///
    /// A human-readable message if the template geometry is invalid.
    pub fn resolve(self, template: &EpisodeConfig) -> Result<StackSpec, String> {
        match self {
            StackSpecWire::TeacherConservative => {
                StackSpec::pure_teacher_conservative(template).map_err(|e| e.to_string())
            }
            StackSpecWire::TeacherAggressive => {
                StackSpec::pure_teacher_aggressive(template).map_err(|e| e.to_string())
            }
            #[cfg(feature = "fault-injection")]
            StackSpecWire::PanicInjection => {
                StackSpec::panic_injection(template, vec![template.seed]).map_err(|e| e.to_string())
            }
        }
    }
}

fn comm_to_json(comm: &CommSetting) -> Json {
    match comm {
        CommSetting::NoDisturbance => Json::obj(vec![("kind", Json::str("no_disturbance"))]),
        CommSetting::Delayed { delay, drop_prob } => Json::obj(vec![
            ("kind", Json::str("delayed")),
            ("delay", Json::Num(*delay)),
            ("drop_prob", Json::Num(*drop_prob)),
        ]),
        CommSetting::Lost => Json::obj(vec![("kind", Json::str("lost"))]),
    }
}

fn comm_from_json(v: &Json) -> Result<CommSetting, DecodeError> {
    match str_field(v, "kind")? {
        "no_disturbance" => Ok(CommSetting::NoDisturbance),
        "delayed" => Ok(CommSetting::Delayed {
            delay: f64_field(v, "delay")?,
            drop_prob: f64_field(v, "drop_prob")?,
        }),
        "lost" => Ok(CommSetting::Lost),
        other => Err(bad(format!("unknown comm kind '{other}'"))),
    }
}

fn driver_to_json(driver: &DriverModel) -> Json {
    match driver {
        DriverModel::UniformRandom => Json::obj(vec![("kind", Json::str("uniform_random"))]),
        DriverModel::OrnsteinUhlenbeck { theta, sigma } => Json::obj(vec![
            ("kind", Json::str("ornstein_uhlenbeck")),
            ("theta", Json::Num(*theta)),
            ("sigma", Json::Num(*sigma)),
        ]),
        DriverModel::ConstantSpeed => Json::obj(vec![("kind", Json::str("constant_speed"))]),
        DriverModel::Ambush { brake_at } => Json::obj(vec![
            ("kind", Json::str("ambush")),
            ("brake_at", Json::Num(*brake_at)),
        ]),
        DriverModel::GapTracking { target_gap, gain } => Json::obj(vec![
            ("kind", Json::str("gap_tracking")),
            ("target_gap", Json::Num(*target_gap)),
            ("gain", Json::Num(*gain)),
        ]),
    }
}

fn driver_from_json(v: &Json) -> Result<DriverModel, DecodeError> {
    match str_field(v, "kind")? {
        "uniform_random" => Ok(DriverModel::UniformRandom),
        "ornstein_uhlenbeck" => Ok(DriverModel::OrnsteinUhlenbeck {
            theta: f64_field(v, "theta")?,
            sigma: f64_field(v, "sigma")?,
        }),
        "constant_speed" => Ok(DriverModel::ConstantSpeed),
        "ambush" => Ok(DriverModel::Ambush {
            brake_at: f64_field(v, "brake_at")?,
        }),
        "gap_tracking" => Ok(DriverModel::GapTracking {
            target_gap: f64_field(v, "target_gap")?,
            gain: f64_field(v, "gain")?,
        }),
        other => Err(bad(format!("unknown driver kind '{other}'"))),
    }
}

fn state_to_json(s: &VehicleState) -> Json {
    Json::obj(vec![
        ("position", Json::Num(s.position)),
        ("velocity", Json::Num(s.velocity)),
        ("acceleration", Json::Num(s.acceleration)),
    ])
}

fn state_from_json(v: &Json) -> Result<VehicleState, DecodeError> {
    Ok(VehicleState::new(
        f64_field(v, "position")?,
        f64_field(v, "velocity")?,
        f64_field(v, "acceleration")?,
    ))
}

/// Encodes an [`EpisodeConfig`] as a JSON object.
pub fn episode_to_json(cfg: &EpisodeConfig) -> Json {
    let other_to_json = |v: &OtherVehicle| {
        let mut pairs = vec![
            ("start_shared", Json::Num(v.start_shared)),
            ("init_speed", Json::Num(v.init_speed)),
            ("driver", driver_to_json(&v.driver)),
        ];
        // An inherited channel (`None`) is the absent key.
        if let Some(comm) = &v.comm {
            pairs.push(("comm", comm_to_json(comm)));
        }
        Json::obj(pairs)
    };
    Json::obj(vec![
        ("ego_init", state_to_json(&cfg.ego_init)),
        ("dt_c", Json::Num(cfg.dt_c)),
        ("dt_m", Json::Num(cfg.dt_m)),
        ("dt_s", Json::Num(cfg.dt_s)),
        ("horizon", Json::Num(cfg.horizon)),
        ("comm", comm_to_json(&cfg.comm)),
        (
            "noise",
            Json::obj(vec![
                ("delta_p", Json::Num(cfg.noise.delta_p)),
                ("delta_v", Json::Num(cfg.noise.delta_v)),
                ("delta_a", Json::Num(cfg.noise.delta_a)),
            ]),
        ),
        ("seed", Json::Int(cfg.seed as i128)),
        ("sensor_dropout", Json::Num(cfg.sensor_dropout)),
        (
            "others",
            Json::Arr(cfg.others.iter().map(other_to_json).collect()),
        ),
    ])
}

/// Decodes an [`EpisodeConfig`] from a JSON object.
///
/// # Errors
///
/// [`DecodeError`] for missing or mistyped fields.
pub fn episode_from_json(v: &Json) -> Result<EpisodeConfig, DecodeError> {
    let noise = field(v, "noise")?;
    let others = field(v, "others")?
        .as_arr()
        .ok_or_else(|| bad("field 'others' must be an array"))?
        .iter()
        .map(|o| {
            Ok(OtherVehicle {
                start_shared: f64_field(o, "start_shared")?,
                init_speed: f64_field(o, "init_speed")?,
                driver: driver_from_json(field(o, "driver")?)?,
                comm: match o.get("comm") {
                    None | Some(Json::Null) => None,
                    Some(c) => Some(comm_from_json(c)?),
                },
            })
        })
        .collect::<Result<Vec<_>, DecodeError>>()?;
    Ok(EpisodeConfig {
        ego_init: state_from_json(field(v, "ego_init")?)?,
        dt_c: f64_field(v, "dt_c")?,
        dt_m: f64_field(v, "dt_m")?,
        dt_s: f64_field(v, "dt_s")?,
        horizon: f64_field(v, "horizon")?,
        comm: comm_from_json(field(v, "comm")?)?,
        noise: SensorNoise {
            delta_p: f64_field(noise, "delta_p")?,
            delta_v: f64_field(noise, "delta_v")?,
            delta_a: f64_field(noise, "delta_a")?,
        },
        seed: u64_field(v, "seed")?,
        sensor_dropout: f64_field(v, "sensor_dropout")?,
        others,
    })
}

/// Encodes a [`BatchConfig`] as a JSON object.
pub fn batch_to_json(batch: &BatchConfig) -> Json {
    Json::obj(vec![
        ("template", episode_to_json(&batch.template)),
        ("episodes", Json::Int(batch.episodes as i128)),
        ("base_seed", Json::Int(batch.base_seed as i128)),
        (
            "starts",
            Json::Arr(batch.starts.iter().map(|s| Json::Num(*s)).collect()),
        ),
        ("threads", Json::Int(batch.threads as i128)),
    ])
}

/// Decodes a [`BatchConfig`] from a JSON object.
///
/// # Errors
///
/// [`DecodeError`] for missing or mistyped fields.
pub fn batch_from_json(v: &Json) -> Result<BatchConfig, DecodeError> {
    let starts = field(v, "starts")?
        .as_arr()
        .ok_or_else(|| bad("field 'starts' must be an array"))?
        .iter()
        .map(|s| {
            s.as_f64()
                .ok_or_else(|| bad("starts entries must be numbers"))
        })
        .collect::<Result<Vec<_>, DecodeError>>()?;
    Ok(BatchConfig {
        template: episode_from_json(field(v, "template")?)?,
        episodes: usize_field(v, "episodes")?,
        base_seed: u64_field(v, "base_seed")?,
        starts,
        threads: usize_field(v, "threads")?,
    })
}

/// Encodes a [`BatchSummary`] as a JSON object.
///
/// `reaching_time` (and its per-episode entries) may be NaN, as may the
/// mean statistics of a partial summary that completed zero episodes
/// (cancelled or expired before the first result); NaN encodes as `null`
/// and the decoder maps `null` back to NaN, so a summary round-trips
/// through the wire with [`BatchSummary::stats_eq`] holding.
pub fn summary_to_json(s: &BatchSummary) -> Json {
    Json::obj(vec![
        ("episodes", Json::Int(s.episodes as i128)),
        ("requested", Json::Int(s.requested as i128)),
        ("failed", Json::Int(s.failed as i128)),
        ("panicked", Json::Int(s.panicked as i128)),
        ("skipped", Json::Int(s.skipped as i128)),
        ("reaching_time", Json::num_or_null(s.reaching_time)),
        ("safe_rate", Json::num_or_null(s.safe_rate)),
        ("eta_mean", Json::num_or_null(s.eta_mean)),
        (
            "emergency_frequency",
            Json::num_or_null(s.emergency_frequency),
        ),
        (
            "etas",
            Json::Arr(s.etas.iter().map(|x| Json::num_or_null(*x)).collect()),
        ),
        (
            "reaching_times",
            Json::Arr(
                s.reaching_times
                    .iter()
                    .map(|x| Json::num_or_null(*x))
                    .collect(),
            ),
        ),
        ("wall_time_secs", Json::Num(s.wall_time_secs)),
        ("episodes_per_sec", Json::Num(s.episodes_per_sec)),
        ("cache_hits", Json::Int(s.cache_hits as i128)),
        ("cache_misses", Json::Int(s.cache_misses as i128)),
        ("cache_evictions", Json::Int(s.cache_evictions as i128)),
        (
            "cache_persisted_hits",
            Json::Int(s.cache_persisted_hits as i128),
        ),
        ("cache_quarantined", Json::Int(s.cache_quarantined as i128)),
    ])
}

/// Decodes a [`BatchSummary`] from a JSON object.
///
/// # Errors
///
/// [`DecodeError`] for missing or mistyped fields.
pub fn summary_from_json(v: &Json) -> Result<BatchSummary, DecodeError> {
    fn lossy_vec(v: &Json, key: &str) -> Result<Vec<f64>, DecodeError> {
        field(v, key)?
            .as_arr()
            .ok_or_else(|| bad(format!("field '{key}' must be an array")))?
            .iter()
            .map(|x| {
                x.as_f64_lossy()
                    .ok_or_else(|| bad(format!("'{key}' entries must be numbers or null")))
            })
            .collect()
    }
    Ok(BatchSummary {
        episodes: usize_field(v, "episodes")?,
        requested: usize_field(v, "requested")?,
        failed: usize_field(v, "failed")?,
        panicked: usize_field(v, "panicked")?,
        skipped: usize_field(v, "skipped")?,
        reaching_time: nan_field(v, "reaching_time")?,
        safe_rate: nan_field(v, "safe_rate")?,
        eta_mean: nan_field(v, "eta_mean")?,
        emergency_frequency: nan_field(v, "emergency_frequency")?,
        etas: lossy_vec(v, "etas")?,
        reaching_times: lossy_vec(v, "reaching_times")?,
        wall_time_secs: f64_field(v, "wall_time_secs")?,
        episodes_per_sec: f64_field(v, "episodes_per_sec")?,
        cache_hits: usize_field(v, "cache_hits")?,
        cache_misses: usize_field(v, "cache_misses")?,
        cache_evictions: usize_field(v, "cache_evictions")?,
        cache_persisted_hits: usize_field(v, "cache_persisted_hits")?,
        cache_quarantined: usize_field(v, "cache_quarantined")?,
    })
}

/// A client → server request frame.
///
/// `SubmitBatch` dominates the enum size, but requests are decoded one at a
/// time and handed off immediately — never stored in bulk — so the
/// indirection a `Box` would add buys nothing here.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue a batch; the connection then streams progress events.
    SubmitBatch {
        /// The batch to run.
        batch: BatchConfig,
        /// Which planner stack to run it with.
        stack: StackSpecWire,
        /// Optional job deadline, milliseconds from admission. Queue wait
        /// counts against it; expiry stops the job at episode-step
        /// granularity with a typed `deadline_exceeded` event.
        deadline_ms: Option<u64>,
    },
    /// Report queue/job state — all jobs, or one if `job` is given.
    Status {
        /// Restrict the report to this job id.
        job: Option<u64>,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// The job to cancel.
        job: u64,
    },
    /// Liveness probe.
    Ping,
    /// Stop accepting work, drain in-flight jobs, exit.
    Shutdown,
}

impl Request {
    /// Encodes the request as one JSON frame.
    pub fn to_json(&self) -> Json {
        match self {
            Request::SubmitBatch {
                batch,
                stack,
                deadline_ms,
            } => {
                let mut pairs = vec![
                    ("op", Json::str("submit_batch")),
                    ("batch", batch_to_json(batch)),
                    ("stack", Json::str(stack.name())),
                ];
                if let Some(ms) = deadline_ms {
                    pairs.push(("deadline_ms", Json::Int(*ms as i128)));
                }
                Json::obj(pairs)
            }
            Request::Status { job } => {
                let mut pairs = vec![("op", Json::str("status"))];
                if let Some(id) = job {
                    pairs.push(("job", Json::Int(*id as i128)));
                }
                Json::obj(pairs)
            }
            Request::Cancel { job } => Json::obj(vec![
                ("op", Json::str("cancel")),
                ("job", Json::Int(*job as i128)),
            ]),
            Request::Ping => Json::obj(vec![("op", Json::str("ping"))]),
            Request::Shutdown => Json::obj(vec![("op", Json::str("shutdown"))]),
        }
    }

    /// Decodes a request frame.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] for unknown ops or malformed payloads.
    pub fn from_json(v: &Json) -> Result<Request, DecodeError> {
        match str_field(v, "op")? {
            "submit_batch" => Ok(Request::SubmitBatch {
                batch: batch_from_json(field(v, "batch")?)?,
                stack: StackSpecWire::from_name(str_field(v, "stack")?)?,
                deadline_ms: match v.get("deadline_ms") {
                    None | Some(Json::Null) => None,
                    Some(ms) => Some(ms.as_u64().ok_or_else(|| {
                        bad("field 'deadline_ms' must be a non-negative integer")
                    })?),
                },
            }),
            "status" => Ok(Request::Status {
                job: match v.get("job") {
                    None | Some(Json::Null) => None,
                    Some(j) => Some(
                        j.as_u64()
                            .ok_or_else(|| bad("field 'job' must be a non-negative integer"))?,
                    ),
                },
            }),
            "cancel" => Ok(Request::Cancel {
                job: u64_field(v, "job")?,
            }),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(bad(format!("unknown op '{other}'"))),
        }
    }
}

/// A server → client response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The batch was accepted under `job` (with its queue position).
    Accepted {
        /// Assigned job id.
        job: u64,
        /// Jobs ahead of it in the queue.
        queued_ahead: usize,
    },
    /// One episode finished.
    EpisodeDone {
        /// Job id.
        job: u64,
        /// Episode index within the batch (seed order).
        index: usize,
        /// The episode's `η` score.
        eta: f64,
        /// Episodes finished so far.
        done: usize,
        /// Total episodes in the batch.
        total: usize,
        /// Estimated wall-clock seconds remaining (extrapolated).
        eta_secs: f64,
    },
    /// The batch finished; terminal frame for a submission.
    BatchDone {
        /// Job id.
        job: u64,
        /// Aggregate statistics (timing fields measured server-side).
        summary: BatchSummary,
    },
    /// The job was cancelled; terminal frame for a submission.
    Cancelled {
        /// Job id.
        job: u64,
        /// Episodes that had finished before cancellation.
        done: usize,
        /// Partial statistics over exactly those episodes (absent when the
        /// job was cancelled while still queued).
        partial: Option<BatchSummary>,
    },
    /// The job's deadline passed; terminal frame for a submission.
    DeadlineExceeded {
        /// Job id.
        job: u64,
        /// Episodes that had finished before expiry.
        done: usize,
        /// Partial statistics over exactly those episodes.
        partial: Option<BatchSummary>,
    },
    /// One episode resolved without a result (typed error, contained
    /// panic, or quarantined seed); the batch keeps running. Non-terminal.
    EpisodeFault {
        /// Job id.
        job: u64,
        /// Episode index within the batch.
        index: usize,
        /// The episode seed.
        seed: u64,
        /// `failed`, `panicked`, or `quarantined`.
        kind: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Admission control refused the submission: the queue or the in-flight
    /// episode budget is saturated. Terminal for a submission; the hint is
    /// honoured by `submit_with_retry` as a backoff floor.
    Overloaded {
        /// Suggested minimum wait before retrying, milliseconds.
        retry_after_ms: u64,
    },
    /// Something went wrong; terminal when it answers a submission.
    Error {
        /// Machine-readable code (`invalid_batch`, `bad_request`, `shutting_down`, …).
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// Answer to `status`.
    Status {
        /// One entry per known job.
        jobs: Vec<JobStatus>,
        /// Queue capacity.
        queue_capacity: usize,
        /// Jobs currently queued (not yet running).
        queue_len: usize,
    },
    /// Answer to `ping`.
    Pong,
    /// Answer to `shutdown`: the server will drain and exit.
    ShutdownAck {
        /// Jobs still queued or running at the time of the request.
        draining: usize,
    },
}

/// One job's state in a [`Event::Status`] report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// Job id.
    pub job: u64,
    /// `queued`, `running`, `done`, `cancelled`, or `failed`.
    pub state: String,
    /// Episodes finished.
    pub done: usize,
    /// Episodes total.
    pub total: usize,
}

impl Event {
    /// Encodes the event as one JSON frame.
    pub fn to_json(&self) -> Json {
        match self {
            Event::Accepted { job, queued_ahead } => Json::obj(vec![
                ("event", Json::str("accepted")),
                ("job", Json::Int(*job as i128)),
                ("queued_ahead", Json::Int(*queued_ahead as i128)),
            ]),
            Event::EpisodeDone {
                job,
                index,
                eta,
                done,
                total,
                eta_secs,
            } => Json::obj(vec![
                ("event", Json::str("episode_done")),
                ("job", Json::Int(*job as i128)),
                ("index", Json::Int(*index as i128)),
                ("eta", Json::num_or_null(*eta)),
                ("done", Json::Int(*done as i128)),
                ("total", Json::Int(*total as i128)),
                ("eta_secs", Json::num_or_null(*eta_secs)),
            ]),
            Event::BatchDone { job, summary } => Json::obj(vec![
                ("event", Json::str("batch_done")),
                ("job", Json::Int(*job as i128)),
                ("summary", summary_to_json(summary)),
            ]),
            Event::Cancelled { job, done, partial } => {
                let mut pairs = vec![
                    ("event", Json::str("cancelled")),
                    ("job", Json::Int(*job as i128)),
                    ("done", Json::Int(*done as i128)),
                ];
                if let Some(p) = partial {
                    pairs.push(("partial", summary_to_json(p)));
                }
                Json::obj(pairs)
            }
            Event::DeadlineExceeded { job, done, partial } => {
                let mut pairs = vec![
                    ("event", Json::str("deadline_exceeded")),
                    ("job", Json::Int(*job as i128)),
                    ("done", Json::Int(*done as i128)),
                ];
                if let Some(p) = partial {
                    pairs.push(("partial", summary_to_json(p)));
                }
                Json::obj(pairs)
            }
            Event::EpisodeFault {
                job,
                index,
                seed,
                kind,
                detail,
            } => Json::obj(vec![
                ("event", Json::str("episode_fault")),
                ("job", Json::Int(*job as i128)),
                ("index", Json::Int(*index as i128)),
                ("seed", Json::Int(*seed as i128)),
                ("kind", Json::str(kind.clone())),
                ("detail", Json::str(detail.clone())),
            ]),
            Event::Overloaded { retry_after_ms } => Json::obj(vec![
                ("event", Json::str("overloaded")),
                ("retry_after_ms", Json::Int(*retry_after_ms as i128)),
            ]),
            Event::Error { code, message } => Json::obj(vec![
                ("event", Json::str("error")),
                ("code", Json::str(code.clone())),
                ("message", Json::str(message.clone())),
            ]),
            Event::Status {
                jobs,
                queue_capacity,
                queue_len,
            } => Json::obj(vec![
                ("event", Json::str("status")),
                (
                    "jobs",
                    Json::Arr(
                        jobs.iter()
                            .map(|j| {
                                Json::obj(vec![
                                    ("job", Json::Int(j.job as i128)),
                                    ("state", Json::str(j.state.clone())),
                                    ("done", Json::Int(j.done as i128)),
                                    ("total", Json::Int(j.total as i128)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("queue_capacity", Json::Int(*queue_capacity as i128)),
                ("queue_len", Json::Int(*queue_len as i128)),
            ]),
            Event::Pong => Json::obj(vec![("event", Json::str("pong"))]),
            Event::ShutdownAck { draining } => Json::obj(vec![
                ("event", Json::str("shutdown_ack")),
                ("draining", Json::Int(*draining as i128)),
            ]),
        }
    }

    /// Decodes an event frame.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] for unknown events or malformed payloads.
    pub fn from_json(v: &Json) -> Result<Event, DecodeError> {
        match str_field(v, "event")? {
            "accepted" => Ok(Event::Accepted {
                job: u64_field(v, "job")?,
                queued_ahead: usize_field(v, "queued_ahead")?,
            }),
            "episode_done" => Ok(Event::EpisodeDone {
                job: u64_field(v, "job")?,
                index: usize_field(v, "index")?,
                eta: field(v, "eta")?
                    .as_f64_lossy()
                    .ok_or_else(|| bad("field 'eta' must be a number or null"))?,
                done: usize_field(v, "done")?,
                total: usize_field(v, "total")?,
                eta_secs: field(v, "eta_secs")?
                    .as_f64_lossy()
                    .ok_or_else(|| bad("field 'eta_secs' must be a number or null"))?,
            }),
            "batch_done" => Ok(Event::BatchDone {
                job: u64_field(v, "job")?,
                summary: summary_from_json(field(v, "summary")?)?,
            }),
            "cancelled" => Ok(Event::Cancelled {
                job: u64_field(v, "job")?,
                done: usize_field(v, "done")?,
                partial: match v.get("partial") {
                    None | Some(Json::Null) => None,
                    Some(p) => Some(summary_from_json(p)?),
                },
            }),
            "deadline_exceeded" => Ok(Event::DeadlineExceeded {
                job: u64_field(v, "job")?,
                done: usize_field(v, "done")?,
                partial: match v.get("partial") {
                    None | Some(Json::Null) => None,
                    Some(p) => Some(summary_from_json(p)?),
                },
            }),
            "episode_fault" => Ok(Event::EpisodeFault {
                job: u64_field(v, "job")?,
                index: usize_field(v, "index")?,
                seed: u64_field(v, "seed")?,
                kind: str_field(v, "kind")?.to_string(),
                detail: str_field(v, "detail")?.to_string(),
            }),
            "overloaded" => Ok(Event::Overloaded {
                retry_after_ms: u64_field(v, "retry_after_ms")?,
            }),
            "error" => Ok(Event::Error {
                code: str_field(v, "code")?.to_string(),
                message: str_field(v, "message")?.to_string(),
            }),
            "status" => Ok(Event::Status {
                jobs: field(v, "jobs")?
                    .as_arr()
                    .ok_or_else(|| bad("field 'jobs' must be an array"))?
                    .iter()
                    .map(|j| {
                        Ok(JobStatus {
                            job: u64_field(j, "job")?,
                            state: str_field(j, "state")?.to_string(),
                            done: usize_field(j, "done")?,
                            total: usize_field(j, "total")?,
                        })
                    })
                    .collect::<Result<Vec<_>, DecodeError>>()?,
                queue_capacity: usize_field(v, "queue_capacity")?,
                queue_len: usize_field(v, "queue_len")?,
            }),
            "pong" => Ok(Event::Pong),
            "shutdown_ack" => Ok(Event::ShutdownAck {
                draining: usize_field(v, "draining")?,
            }),
            other => Err(bad(format!("unknown event '{other}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch() -> BatchConfig {
        let mut template = EpisodeConfig::paper_default(42);
        template.comm = CommSetting::Delayed {
            delay: 0.25,
            drop_prob: 0.35,
        };
        template.others[0].driver = DriverModel::OrnsteinUhlenbeck {
            theta: 0.5,
            sigma: 1.25,
        };
        template.others[0].comm = Some(CommSetting::NoDisturbance);
        template.others.push(OtherVehicle::new(
            80.0,
            9.0,
            DriverModel::Ambush { brake_at: 2.0 },
        ));
        template.others.push(
            OtherVehicle::new(
                89.0,
                10.0,
                DriverModel::GapTracking {
                    target_gap: 9.0,
                    gain: 0.6,
                },
            )
            .with_comm(CommSetting::Lost),
        );
        let mut batch = BatchConfig::new(template, 16);
        batch.base_seed = u64::MAX - 7;
        batch.threads = 3;
        batch
    }

    #[test]
    fn batch_roundtrips_exactly() {
        let batch = sample_batch();
        let json = batch_to_json(&batch);
        let reparsed = Json::parse(&json.encode()).unwrap();
        assert_eq!(batch_from_json(&reparsed).unwrap(), batch);
    }

    #[test]
    fn an_old_shape_template_is_refused_naming_others() {
        // A template from before the `others` list: C_1 in top-level fields,
        // every further vehicle in `extra_others`.
        let old = r#"{"op":"submit_batch","stack":"teacher_conservative","batch":{
            "template":{"other_start_shared":52.0,
                "ego_init":{"position":-30.0,"velocity":8.0,"acceleration":0.0},
                "other_init_speed":10.0,"dt_c":0.05,"dt_m":0.1,"dt_s":0.1,"horizon":30.0,
                "comm":{"kind":"no_disturbance"},
                "noise":{"delta_p":1.0,"delta_v":1.0,"delta_a":1.0},
                "seed":0,"sensor_dropout":0.0,"driver":{"kind":"uniform_random"},
                "extra_others":[]},
            "episodes":8,"base_seed":0,"starts":[52.0],"threads":0}}"#;
        let err = Request::from_json(&Json::parse(old).unwrap()).unwrap_err();
        assert!(err.0.contains("'others'"), "{err}");
    }

    #[test]
    fn requests_roundtrip() {
        for req in [
            Request::SubmitBatch {
                batch: sample_batch(),
                stack: StackSpecWire::TeacherAggressive,
                deadline_ms: None,
            },
            Request::SubmitBatch {
                batch: sample_batch(),
                stack: StackSpecWire::TeacherConservative,
                deadline_ms: Some(2_500),
            },
            Request::Status { job: None },
            Request::Status { job: Some(3) },
            Request::Cancel { job: 9 },
            Request::Ping,
            Request::Shutdown,
        ] {
            let reparsed = Json::parse(&req.to_json().encode()).unwrap();
            assert_eq!(Request::from_json(&reparsed).unwrap(), req);
        }
    }

    /// A summary with a NaN reaching time and every counter set.
    fn sample_summary() -> BatchSummary {
        BatchSummary {
            episodes: 2,
            requested: 4,
            failed: 1,
            panicked: 1,
            skipped: 0,
            reaching_time: f64::NAN,
            safe_rate: 0.5,
            eta_mean: -0.25,
            emergency_frequency: 0.125,
            etas: vec![0.5, -1.0],
            reaching_times: vec![],
            wall_time_secs: 1.5,
            episodes_per_sec: 4.0 / 3.0,
            cache_hits: 1,
            cache_misses: 3,
            cache_evictions: 2,
            cache_persisted_hits: 1,
            cache_quarantined: 2,
        }
    }

    #[test]
    fn summary_with_nan_reaching_time_roundtrips_stats_eq() {
        let summary = sample_summary();
        let reparsed = Json::parse(&summary_to_json(&summary).encode()).unwrap();
        let back = summary_from_json(&reparsed).unwrap();
        assert!(back.stats_eq(&summary));
        assert_eq!(back.wall_time_secs, summary.wall_time_secs);
        assert_eq!(
            (back.cache_hits, back.cache_misses, back.cache_evictions),
            (1, 3, 2)
        );
        assert_eq!(
            (back.cache_persisted_hits, back.cache_quarantined),
            (1, 2),
            "persistent-tier counters ride the wire"
        );
    }

    #[test]
    fn summary_missing_a_cache_counter_is_a_decode_error_naming_it() {
        // The encoder always writes every cache counter, so a summary
        // without one is malformed, never a silent zero.
        let Json::Obj(pairs) = summary_to_json(&sample_summary()) else {
            panic!("summary must encode as an object");
        };
        let counters = [
            "cache_hits",
            "cache_misses",
            "cache_evictions",
            "cache_persisted_hits",
            "cache_quarantined",
        ];
        for key in counters {
            assert!(pairs.iter().any(|(k, _)| k == key), "{key} is encoded");
            let without = Json::Obj(pairs.iter().filter(|(k, _)| k != key).cloned().collect());
            let err = summary_from_json(&Json::parse(&without.encode()).unwrap()).unwrap_err();
            assert!(
                err.0.contains(&format!("'{key}'")),
                "error for a missing {key} names it: {err}"
            );
        }
    }

    #[test]
    fn summary_from_a_peer_that_sends_lanes_still_decodes() {
        // Daemons before the lane key was dropped sent `"lanes":1` in
        // every summary; the extra key is ignored, not a frame error.
        let summary = sample_summary();
        let Json::Obj(mut pairs) = summary_to_json(&summary) else {
            panic!("summary must encode as an object");
        };
        pairs.push(("lanes".to_string(), Json::Int(1)));
        let back = summary_from_json(&Json::parse(&Json::Obj(pairs).encode()).unwrap()).unwrap();
        assert!(back.stats_eq(&summary));
    }

    #[test]
    fn events_roundtrip() {
        for ev in [
            Event::Accepted {
                job: 1,
                queued_ahead: 2,
            },
            Event::EpisodeDone {
                job: 1,
                index: 5,
                eta: 0.25,
                done: 6,
                total: 16,
                eta_secs: 1.5,
            },
            Event::Cancelled {
                job: 1,
                done: 3,
                partial: None,
            },
            Event::EpisodeFault {
                job: 1,
                index: 7,
                seed: 42,
                kind: "panicked".into(),
                detail: "injected planner fault".into(),
            },
            Event::Overloaded {
                retry_after_ms: 250,
            },
            Event::Error {
                code: "invalid_batch".into(),
                message: "batch must contain at least one episode".into(),
            },
            Event::Status {
                jobs: vec![JobStatus {
                    job: 1,
                    state: "running".into(),
                    done: 4,
                    total: 16,
                }],
                queue_capacity: 4,
                queue_len: 1,
            },
            Event::Pong,
            Event::ShutdownAck { draining: 2 },
        ] {
            let reparsed = Json::parse(&ev.to_json().encode()).unwrap();
            assert_eq!(Event::from_json(&reparsed).unwrap(), ev);
        }
    }

    /// Nesting depth of a value: 0 for a scalar, 1 for a flat container.
    fn depth(v: &Json) -> usize {
        match v {
            Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
            Json::Obj(pairs) => 1 + pairs.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
            _ => 0,
        }
    }

    #[test]
    fn the_deepest_protocol_frame_stays_far_below_the_parser_cap() {
        let submit = Request::SubmitBatch {
            batch: sample_batch(),
            stack: StackSpecWire::TeacherConservative,
            deadline_ms: None,
        };
        let status = Event::Status {
            jobs: vec![JobStatus {
                job: 1,
                state: "running".into(),
                done: 4,
                total: 16,
            }],
            queue_capacity: 4,
            queue_len: 1,
        };
        let done = Event::BatchDone {
            job: 1,
            summary: sample_summary(),
        };
        let depths = [
            depth(&submit.to_json()),
            depth(&status.to_json()),
            depth(&done.to_json()),
        ];
        // A platoon submission is the deepest frame: request, batch,
        // template, the extra-vehicle list, one vehicle, its driver model.
        assert_eq!(depths, [6, 3, 3]);
        assert!(depths.iter().all(|&d| d * 10 < crate::wire::MAX_DEPTH));
    }

    #[test]
    fn unknown_stack_is_a_decode_error() {
        assert!(StackSpecWire::from_name("ultimate").is_err());
        let req = Json::parse(r#"{"op":"warp_drive"}"#).unwrap();
        assert!(Request::from_json(&req).is_err());
    }
}
