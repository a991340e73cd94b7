//! The TCP service: accept loop, per-connection handlers, job runner.
//!
//! Threading model, one line each:
//!
//! * **accept loop** — blocks in `accept`, spawns one handler thread per
//!   connection, exits when shutdown begins (woken by a self-connect);
//! * **connection handlers** — parse newline-delimited request frames,
//!   answer control requests inline, and for `submit_batch` stay on the
//!   connection streaming the job's progress events until a terminal frame;
//! * **job runner** — single consumer of the bounded [`JobQueue`], runs one
//!   job at a time through [`run_batch_with`] (cv-sim's batch fan-out),
//!   pushing events into the submitting connection's channel.
//!
//! A malformed line gets an `error` frame and the connection keeps reading;
//! a client that disconnects mid-batch flips its job's cancel flag and the
//! runner moves on — neither path panics or wedges the service. Graceful
//! shutdown stops the accept loop and closes the queue, which the runner
//! then drains: every accepted job still reaches a terminal frame.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cv_sim::{
    run_batch_with, store_salt, BatchConfig, BatchControl, BatchMode, EpisodeCache, EpisodeOutcome,
    Quarantine, RecoveryReport, SimError, SkipReason, StackSpec, DEFAULT_CACHE_BYTES,
};

use crate::protocol::{Event, JobStatus, Request};
use crate::queue::{JobQueue, PushError};
use crate::wire::{FrameError, FrameReader, Json, MAX_FRAME_BYTES};

/// How often an idle connection rechecks the shutdown flag and its idle
/// deadline.
const READ_POLL: Duration = Duration::from_millis(200);

/// Bytes of queued frames after which a burst is written without waiting
/// for the queue to empty: a long burst (a fully cached batch streams every
/// hit at once) is split rather than buffered whole. Splitting only ever
/// sends frames earlier.
const MAX_WRITE_BYTES: usize = 64 * 1024;

/// How many finished jobs `status` and `cancel` still answer for. Older
/// ones are forgotten, oldest first, and from then on answer like an id
/// the server never issued, so the job table stays bounded however long
/// the daemon runs.
const JOB_HISTORY: usize = 1024;

/// The most episodes one submission may ask for (`invalid_batch` above).
/// A job holds one outcome slot (about 200 bytes) per episode, so this
/// bounds a job's slots at about 200 MiB.
const MAX_JOB_EPISODES: usize = 1 << 20;

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` for an OS-assigned ephemeral port).
    pub addr: String,
    /// Maximum queued (not yet running) jobs before submissions are
    /// refused with a terminal `overloaded` event carrying a retry hint.
    pub queue_capacity: usize,
    /// Worker threads per job (`0` = all available parallelism); also the
    /// most a submission's `threads` may ask for (`invalid_batch` above).
    pub workers: usize,
    /// Per-connection idle deadline: a connection that produces no
    /// complete frame for this long — including one stalled mid-frame
    /// (half-open peer) — is closed, so a bad peer cannot pin a handler
    /// thread forever.
    pub idle_timeout: Duration,
    /// Deadline for one streamed frame write to drain; a peer that stops
    /// reading while its job streams gets disconnected (and its job
    /// cancelled) once the socket buffer stays full this long.
    pub write_timeout: Duration,
    /// Malformed-frame quarantine threshold: after this many undecodable
    /// frames the connection gets a final `quarantined` error frame and is
    /// closed. Each malformed frame before that is answered with
    /// `bad_request` and the connection keeps reading.
    pub max_bad_frames: u32,
    /// Admission-control ceiling on episodes admitted but not yet resolved
    /// (queued + running), across all jobs. A submission that would exceed
    /// it gets a terminal `overloaded` event with a retry hint instead of
    /// being queued. `0` disables the episode budget (the bounded job
    /// queue still applies).
    pub max_pending_episodes: usize,
    /// How many contained panics a single episode seed may cause before the
    /// server quarantines it: further episodes with that seed are skipped
    /// (typed, counted in summaries) rather than re-run. Floor 1.
    pub panic_budget: u32,
    /// Byte budget for the content-addressed episode-result cache that
    /// fronts the batch fan-out: a resubmitted episode whose config,
    /// stack, and code version all match a previous run is answered from
    /// the cache without touching a worker. The budget is one LRU over all
    /// entries, each weighing [`cv_sim::episode_weight`]. `0` disables
    /// caching.
    pub cache_bytes: usize,
    /// Directory for the persistent cache tier (DESIGN.md §17). `None`
    /// keeps the cache memory-only; `Some(dir)` makes the cache survive
    /// daemon restarts: results are appended to checksummed segment files
    /// in the background and reloaded (after checksum verification, torn-
    /// tail truncation, and quarantine of corrupt segments) at startup.
    /// Requires `cache_bytes > 0`. Disk faults degrade the cache to
    /// memory-only; they never fail the server.
    pub cache_dir: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: 8,
            workers: 0,
            idle_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(10),
            max_bad_frames: 8,
            max_pending_episodes: 0,
            panic_budget: 3,
            cache_bytes: DEFAULT_CACHE_BYTES,
            cache_dir: None,
        }
    }
}

/// Lifecycle phase of a job, for `status` reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Queued,
    Running,
    Done,
    Cancelled,
    DeadlineExceeded,
    Failed,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done => "done",
            Phase::Cancelled => "cancelled",
            Phase::DeadlineExceeded => "deadline_exceeded",
            Phase::Failed => "failed",
        }
    }
}

/// Shared per-job state: progress counters and the cancel flag.
struct JobState {
    id: u64,
    total: usize,
    done: AtomicUsize,
    phase: Mutex<Phase>,
    cancel: AtomicBool,
}

impl JobState {
    fn status(&self) -> JobStatus {
        JobStatus {
            job: self.id,
            state: self
                .phase
                .lock()
                .expect("phase poisoned")
                .name()
                .to_string(),
            done: self.done.load(Ordering::Relaxed),
            total: self.total,
        }
    }

    fn set_phase(&self, phase: Phase) {
        *self.phase.lock().expect("phase poisoned") = phase;
    }
}

/// Every queued or running job, plus the last [`JOB_HISTORY`] finished
/// ones.
#[derive(Default)]
struct JobTable {
    jobs: HashMap<u64, Arc<JobState>>,
    /// Ids of the finished jobs still in `jobs`, oldest first.
    finished: VecDeque<u64>,
}

impl JobTable {
    /// Jobs queued or running.
    fn live(&self) -> usize {
        self.jobs.len() - self.finished.len()
    }

    /// Moves a job to its terminal phase and into the finished history,
    /// forgetting the oldest finished job once the history is full.
    fn finish(&mut self, state: &JobState, phase: Phase) {
        state.set_phase(phase);
        self.finished.push_back(state.id);
        if self.finished.len() > JOB_HISTORY {
            if let Some(oldest) = self.finished.pop_front() {
                self.jobs.remove(&oldest);
            }
        }
    }
}

/// A queued unit of work.
struct Job {
    state: Arc<JobState>,
    batch: BatchConfig,
    spec: StackSpec,
    /// Absolute deadline, fixed at admission so queue wait counts too.
    deadline: Option<Instant>,
    events: std::sync::mpsc::Sender<Event>,
}

struct Shared {
    queue: JobQueue<Job>,
    jobs: Mutex<JobTable>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    config: ServerConfig,
    addr: SocketAddr,
    conns: Mutex<Vec<JoinHandle<()>>>,
    /// Episodes admitted but not yet resolved, across all jobs; the unit
    /// the admission budget and the `retry_after_ms` hint are computed in.
    pending_episodes: AtomicUsize,
    /// EWMA of observed per-episode wall time, nanoseconds; seeds the
    /// overload retry hint before any job has completed.
    ewma_episode_nanos: AtomicU64,
    /// Panic-budget bookkeeping for repeat-offender seeds, shared across
    /// every job this server runs.
    quarantine: Quarantine,
    /// Content-addressed episode-result cache shared across every job this
    /// server runs; `None` when `cache_bytes` is 0.
    cache: Option<EpisodeCache>,
    /// What the persistent tier's startup scan found; `None` for
    /// memory-only caches. The quarantined-segment count is stamped onto
    /// every summary this server serves.
    recovery: Option<RecoveryReport>,
    /// Live [`RunnerHold`]s; the runner starts no job while any exists.
    holds: Mutex<usize>,
    /// Signalled when the last hold drops or shutdown begins.
    unheld: Condvar,
}

impl Shared {
    /// Begins graceful shutdown (idempotent): stop accepting, close the
    /// queue so the runner drains, wake the blocked accept call.
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        // Release a held runner so it drains; notifying under the lock
        // means a runner about to wait cannot miss the flag. This runs on
        // `Server`'s drop, so a poisoned lock (a bare counter, valid after
        // any update) is reused rather than panicked on.
        let _holds = self.holds.lock().unwrap_or_else(PoisonError::into_inner);
        self.unheld.notify_all();
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
    }

    /// Blocks while a [`RunnerHold`] is live, unless shutting down.
    fn wait_unheld(&self) {
        let mut holds = self.holds.lock().expect("holds poisoned");
        while *holds > 0 && !self.shutdown.load(Ordering::SeqCst) {
            holds = self.unheld.wait(holds).expect("holds poisoned");
        }
    }

    fn job_statuses(&self, filter: Option<u64>) -> Vec<JobStatus> {
        let table = self.jobs.lock().expect("jobs poisoned");
        let mut out: Vec<JobStatus> = table
            .jobs
            .values()
            .filter(|j| filter.is_none_or(|id| j.id == id))
            .map(|j| j.status())
            .collect();
        out.sort_by_key(|j| j.job);
        out
    }

    /// Suggested client backoff before resubmitting, derived from how much
    /// admitted work is in front of a new job: pending episodes times the
    /// smoothed per-episode wall time, divided across the worker threads
    /// that will chew through it. Clamped so the hint is never a busy-loop
    /// nor an unbounded stall.
    fn retry_after_ms(&self) -> u64 {
        let pending = self.pending_episodes.load(Ordering::Relaxed) as u64;
        let ewma_nanos = self.ewma_episode_nanos.load(Ordering::Relaxed);
        let workers = effective_workers(self.config.workers, 0) as u64;
        let est_ms = pending.saturating_mul(ewma_nanos) / workers.max(1) / 1_000_000;
        est_ms.clamp(50, 10_000)
    }

    /// Folds one completed job's measured per-episode time into the EWMA.
    fn observe_episode_time(&self, wall: Duration, episodes: usize) {
        if episodes == 0 {
            return;
        }
        let sample = (wall.as_nanos() as u64) / episodes as u64;
        let old = self.ewma_episode_nanos.load(Ordering::Relaxed);
        let next = old / 5 * 4 + sample / 5;
        self.ewma_episode_nanos
            .store(next.max(1), Ordering::Relaxed);
    }

    fn draining(&self) -> usize {
        self.jobs.lock().expect("jobs poisoned").live()
    }

    /// Ends a job in its terminal `phase` (see [`JobTable::finish`]).
    fn finish(&self, state: &JobState, phase: Phase) {
        self.jobs
            .lock()
            .expect("jobs poisoned")
            .finish(state, phase);
    }
}

/// A hold on a server's job runner, from [`Server::hold_runner`]; the
/// runner resumes once every hold has dropped.
#[must_use = "the runner resumes as soon as the hold drops"]
pub struct RunnerHold {
    shared: Arc<Shared>,
}

impl Drop for RunnerHold {
    fn drop(&mut self) {
        // A bare counter is valid after any update, so a poisoned lock is
        // safe to reuse, and a drop must not panic.
        *self
            .shared
            .holds
            .lock()
            .unwrap_or_else(PoisonError::into_inner) -= 1;
        self.shared.unheld.notify_all();
    }
}

/// A running batch-simulation service.
///
/// Dropping (or calling [`Server::shutdown`]) drains in-flight jobs and
/// joins every service thread.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    runner: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the service threads.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // Disk-backed when a cache dir is configured: recover whatever a
        // previous daemon persisted (I/O errors here degrade the cache to
        // memory-only rather than failing startup — the cache is an
        // accelerator, never a dependency).
        let (cache, recovery) = match (&config.cache_dir, config.cache_bytes) {
            (_, 0) => (None, None),
            (None, bytes) => (Some(EpisodeCache::new(bytes)), None),
            (Some(dir), bytes) => match EpisodeCache::open(dir, bytes, store_salt()) {
                Ok((cache, report)) => (Some(cache), Some(report)),
                Err(_) => {
                    let report = RecoveryReport {
                        degraded: true,
                        ..RecoveryReport::default()
                    };
                    (Some(EpisodeCache::new(bytes)), Some(report))
                }
            },
        };
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue_capacity),
            jobs: Mutex::new(JobTable::default()),
            next_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            quarantine: Quarantine::new(config.panic_budget),
            cache,
            recovery,
            config,
            addr,
            conns: Mutex::new(Vec::new()),
            pending_episodes: AtomicUsize::new(0),
            // Seed the hint with ~2 ms/episode, the observed order of
            // magnitude for a paper-default episode; replaced by real
            // measurements as soon as one job completes.
            ewma_episode_nanos: AtomicU64::new(2_000_000),
            holds: Mutex::new(0),
            unheld: Condvar::new(),
        });

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        let runner = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || runner_loop(&shared))
        };
        Ok(Server {
            shared,
            accept: Some(accept),
            runner: Some(runner),
        })
    }

    /// Starts a server on an OS-assigned loopback port with default
    /// settings — the entry point for integration tests.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener.
    pub fn spawn_ephemeral() -> std::io::Result<Server> {
        Server::start(ServerConfig::default())
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// What the persistent cache tier's startup scan found — entries
    /// reloaded, torn bytes truncated, segments quarantined or refused as
    /// stale. `None` when the cache is memory-only (no `cache_dir`).
    pub fn cache_recovery(&self) -> Option<&RecoveryReport> {
        self.shared.recovery.as_ref()
    }

    /// Holds the job runner until the returned guard drops: the next job
    /// it takes off the queue waits, still reported `queued`, instead of
    /// starting. Admission and the queue keep working, so a caller can
    /// pin the running slot and fill the queue without racing the work
    /// (the supervision tests saturate the server this way). Shutdown
    /// overrides a hold so the queue still drains.
    pub fn hold_runner(&self) -> RunnerHold {
        *self.shared.holds.lock().expect("holds poisoned") += 1;
        RunnerHold {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Blocks until the service exits — i.e. until some client sends a
    /// `shutdown` request (or [`Server::shutdown`] runs on another thread)
    /// and the queue drains.
    pub fn wait(mut self) {
        self.finish();
    }

    /// Initiates graceful shutdown and joins all service threads: no new
    /// work is accepted, already-accepted jobs run to their terminal frame.
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        self.finish();
    }

    fn finish(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.runner.take() {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *self.shared.conns.lock().expect("conns poisoned"));
        for h in conns {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
        self.finish();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let Ok((stream, _peer)) = listener.accept() else {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let handle = {
            let shared = Arc::clone(shared);
            std::thread::spawn(move || handle_connection(stream, &shared))
        };
        let mut conns = shared.conns.lock().expect("conns poisoned");
        // Join the connections that have ended, so the list holds about the
        // live ones rather than every connection ever accepted.
        for ended in conns.extract_if(.., |h| h.is_finished()) {
            let _ = ended.join();
        }
        conns.push(handle);
    }
}

/// The write half of a connection and the buffer its frames are encoded
/// into, reused for the connection's lifetime.
struct FrameWriter {
    stream: TcpStream,
    buf: String,
}

impl FrameWriter {
    /// Appends one frame (`json` + `\n`) to the buffer.
    fn push(&mut self, event: &Event) {
        event.to_json().encode_into(&mut self.buf);
        self.buf.push('\n');
    }

    /// Sends every buffered frame in one write; an error means the client
    /// went away.
    fn flush(&mut self) -> std::io::Result<()> {
        let sent = self.stream.write_all(self.buf.as_bytes());
        self.buf.clear();
        // A rare huge frame (a large batch's summary) is not kept for the
        // connection's lifetime.
        self.buf.shrink_to(MAX_WRITE_BYTES);
        sent
    }

    /// Writes one frame.
    fn write_frame(&mut self, event: &Event) -> std::io::Result<()> {
        self.push(event);
        self.flush()
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = FrameReader::new(BufReader::new(read_half), MAX_FRAME_BYTES);
    let mut writer = FrameWriter {
        stream,
        buf: String::new(),
    };
    let mut bad_frames = 0u32;
    let mut last_frame = Instant::now();

    'conn: loop {
        // Read one frame, polling so idle or half-open connections notice
        // shutdown and their idle deadline. A stalled mid-frame peer is
        // indistinguishable from an idle one here: both stop producing
        // complete frames, both get reaped by the same deadline.
        let line = loop {
            match reader.read_frame() {
                Ok(line) => {
                    last_frame = Instant::now();
                    break Ok(line);
                }
                // The line was consumed whole, so the stream is still
                // frame-aligned: answer it like any other bad frame.
                Err(e @ FrameError::InvalidUtf8 { .. }) => {
                    last_frame = Instant::now();
                    break Err(e.to_string());
                }
                Err(e) if e.is_timeout() => {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    if last_frame.elapsed() >= shared.config.idle_timeout {
                        let err = Event::Error {
                            code: "idle_timeout".into(),
                            message: format!(
                                "no complete frame in {:?}; closing",
                                shared.config.idle_timeout
                            ),
                        };
                        let _ = writer.write_frame(&err);
                        return;
                    }
                }
                Err(FrameError::TooLong { limit }) => {
                    // The stream is no longer frame-aligned; tell the peer
                    // why and drop the connection.
                    let err = Event::Error {
                        code: "frame_too_long".into(),
                        message: format!("request frame exceeds the {limit}-byte limit"),
                    };
                    let _ = writer.write_frame(&err);
                    return;
                }
                // Clean EOF, EOF mid-frame, or a hard socket error.
                Err(_) => return,
            }
        };
        let request = match line {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => Json::parse(line.trim())
                .map_err(|e| format!("not JSON: {e}"))
                .and_then(|frame| Request::from_json(&frame).map_err(|e| e.to_string())),
            Err(message) => Err(message),
        };
        let request = match request {
            Ok(r) => r,
            Err(message) => {
                bad_frames += 1;
                if bad_frames >= shared.config.max_bad_frames {
                    // Quarantine: this peer is speaking garbage; one final
                    // typed frame, then the connection is gone.
                    let err = Event::Error {
                        code: "quarantined".into(),
                        message: format!(
                            "{bad_frames} malformed frames on one connection; closing"
                        ),
                    };
                    let _ = writer.write_frame(&err);
                    return;
                }
                let err = Event::Error {
                    code: "bad_request".into(),
                    message,
                };
                if writer.write_frame(&err).is_err() {
                    return;
                }
                continue;
            }
        };

        let reply = match request {
            Request::Ping => Event::Pong,
            Request::Status { job } => Event::Status {
                jobs: shared.job_statuses(job),
                queue_capacity: shared.queue.capacity(),
                queue_len: shared.queue.len(),
            },
            Request::Cancel { job } => {
                let found = shared
                    .jobs
                    .lock()
                    .expect("jobs poisoned")
                    .jobs
                    .get(&job)
                    .cloned();
                match found {
                    Some(state) => {
                        state.cancel.store(true, Ordering::Relaxed);
                        Event::Status {
                            jobs: vec![state.status()],
                            queue_capacity: shared.queue.capacity(),
                            queue_len: shared.queue.len(),
                        }
                    }
                    None => Event::Error {
                        code: "unknown_job".into(),
                        message: format!("no job with id {job}"),
                    },
                }
            }
            Request::Shutdown => {
                let draining = shared.draining();
                shared.begin_shutdown();
                Event::ShutdownAck { draining }
            }
            Request::SubmitBatch {
                batch,
                stack,
                deadline_ms,
            } => {
                match handle_submit(&mut writer, shared, batch, stack, deadline_ms) {
                    Ok(()) => continue,
                    Err(()) => return, // client went away mid-stream
                }
            }
        };
        if writer.write_frame(&reply).is_err() {
            return;
        }
        if matches!(reply, Event::ShutdownAck { .. }) {
            break 'conn;
        }
    }
}

/// Validates, enqueues, and streams one batch submission. `Err(())` means
/// the client disconnected and the connection should be dropped.
fn handle_submit(
    writer: &mut FrameWriter,
    shared: &Arc<Shared>,
    batch: BatchConfig,
    stack: crate::protocol::StackSpecWire,
    deadline_ms: Option<u64>,
) -> Result<(), ()> {
    let reject = |writer: &mut FrameWriter, code: &str, message: String| {
        let err = Event::Error {
            code: code.into(),
            message,
        };
        writer.write_frame(&err).map_err(|_| ())
    };

    if shared.shutdown.load(Ordering::SeqCst) {
        return reject(
            writer,
            "shutting_down",
            "server is draining; not accepting work".into(),
        );
    }
    if let Err(e) = batch.validate() {
        return reject(writer, "invalid_batch", e.to_string());
    }
    // A job runs on at most the daemon's per-job worker count: a client
    // cannot make the runner spawn more threads than the operator allowed.
    let cap = effective_workers(shared.config.workers, 0);
    if batch.threads > cap {
        let message = format!(
            "threads {} exceeds the {cap} workers per job",
            batch.threads
        );
        return reject(writer, "invalid_batch", message);
    }
    if batch.episodes > MAX_JOB_EPISODES {
        let message = format!(
            "episodes {} exceeds the {MAX_JOB_EPISODES} episodes per job",
            batch.episodes
        );
        return reject(writer, "invalid_batch", message);
    }
    let spec = match stack.resolve(&batch.template) {
        Ok(spec) => spec,
        Err(message) => return reject(writer, "invalid_batch", message),
    };

    // Admission control: refuse (typed, with a hint) rather than queue work
    // the episode budget says the server cannot absorb. The budget is
    // checked optimistically and claimed below only after the queue push
    // succeeds, so a refused job never leaks pending count.
    if shared.config.max_pending_episodes > 0 {
        let pending = shared.pending_episodes.load(Ordering::Relaxed);
        if pending.saturating_add(batch.episodes) > shared.config.max_pending_episodes {
            let overloaded = Event::Overloaded {
                retry_after_ms: shared.retry_after_ms(),
            };
            return writer.write_frame(&overloaded).map_err(|_| ());
        }
    }

    let id = shared.next_id.fetch_add(1, Ordering::Relaxed) + 1;
    let state = Arc::new(JobState {
        id,
        total: batch.episodes,
        done: AtomicUsize::new(0),
        phase: Mutex::new(Phase::Queued),
        cancel: AtomicBool::new(false),
    });
    let (tx, rx) = std::sync::mpsc::channel();
    let episodes = batch.episodes;
    let job = Job {
        state: Arc::clone(&state),
        batch,
        spec,
        deadline: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
        events: tx,
    };
    // Listed before the push: once queued, the runner may finish the job
    // (and move it into the finished history) before this thread resumes.
    shared
        .jobs
        .lock()
        .expect("jobs poisoned")
        .jobs
        .insert(id, Arc::clone(&state));
    let queued_ahead = shared.queue.len();
    let pushed = shared.queue.try_push(job);
    if pushed.is_err() {
        shared.jobs.lock().expect("jobs poisoned").jobs.remove(&id);
    }
    match pushed {
        Ok(()) => {
            shared
                .pending_episodes
                .fetch_add(episodes, Ordering::Relaxed);
        }
        Err(PushError::Full { .. }) => {
            let overloaded = Event::Overloaded {
                retry_after_ms: shared.retry_after_ms(),
            };
            return writer.write_frame(&overloaded).map_err(|_| ());
        }
        Err(PushError::Closed) => {
            return reject(
                writer,
                "shutting_down",
                "server is draining; not accepting work".into(),
            );
        }
    }

    let accepted = Event::Accepted {
        job: id,
        queued_ahead,
    };
    if writer.write_frame(&accepted).is_err() {
        state.cancel.store(true, Ordering::Relaxed);
        return Err(());
    }

    // Stream the job's events; a write failure = client disconnect, which
    // cancels the job so the runner stops burning CPU on it. Events already
    // queued behind the one just encoded ride in the same write; nothing
    // ever waits for more, so a frame never leaves later than it would on
    // its own.
    let mut next = rx.recv().ok();
    while let Some(event) = next {
        writer.push(&event);
        let terminal = matches!(
            event,
            Event::BatchDone { .. }
                | Event::Cancelled { .. }
                | Event::DeadlineExceeded { .. }
                | Event::Error { .. }
        );
        next = if terminal { None } else { rx.try_recv().ok() };
        if (next.is_none() || writer.buf.len() >= MAX_WRITE_BYTES) && writer.flush().is_err() {
            state.cancel.store(true, Ordering::Relaxed);
            return Err(());
        }
        if terminal {
            break;
        }
        if next.is_none() {
            next = rx.recv().ok();
        }
    }
    Ok(())
}

fn runner_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        shared.wait_unheld();
        let state = job.state;
        let id = state.id;
        let total = job.batch.episodes;
        if state.cancel.load(Ordering::Relaxed) {
            shared.finish(&state, Phase::Cancelled);
            shared.pending_episodes.fetch_sub(total, Ordering::Relaxed);
            let _ = job.events.send(Event::Cancelled {
                job: id,
                done: 0,
                partial: None,
            });
            continue;
        }
        state.set_phase(Phase::Running);
        let t0 = Instant::now();
        // Episodes this job resolved (completed or faulted); whatever it
        // never resolved is released from the pending budget at the end.
        let mut resolved = 0usize;
        let mut done = 0usize;
        let mut observer = |index: usize, outcome: &EpisodeOutcome| {
            let fault = |seed: u64, kind: &str, detail: String| Event::EpisodeFault {
                job: id,
                index,
                seed,
                kind: kind.to_string(),
                detail,
            };
            let event = match outcome {
                EpisodeOutcome::Completed(r) => {
                    done += 1;
                    state.done.store(done, Ordering::Relaxed);
                    let elapsed = t0.elapsed().as_secs_f64();
                    Event::EpisodeDone {
                        job: id,
                        index,
                        eta: r.eta,
                        done,
                        total,
                        eta_secs: elapsed / done as f64 * (total - done) as f64,
                    }
                }
                EpisodeOutcome::Failed { seed, error } => fault(*seed, "failed", error.to_string()),
                EpisodeOutcome::Panicked { seed, payload } => {
                    fault(*seed, "panicked", payload.clone())
                }
                EpisodeOutcome::Skipped {
                    seed,
                    reason: SkipReason::Quarantined { panics },
                } => fault(*seed, "quarantined", format!("{panics} prior panics")),
                // An episode abandoned by a stop is not a fault: the partial
                // summary counts it as skipped.
                EpisodeOutcome::Skipped {
                    reason: SkipReason::Interrupted,
                    ..
                } => return,
            };
            resolved += 1;
            shared.pending_episodes.fetch_sub(1, Ordering::Relaxed);
            let _ = job.events.send(event);
        };
        // The update fills fields that exist only under cv-sim's features
        // (the fault-injection kill switch), which Cargo may turn on
        // without cv-server's own feature; in a default build it is empty.
        #[allow(clippy::needless_update)]
        let control = BatchControl {
            quarantine: Some(&shared.quarantine),
            interrupt: Some(&state.cancel),
            deadline: job.deadline,
            cache: shared.cache.as_ref(),
            observer: Some(&mut observer),
            ..BatchControl::default()
        };
        let batch = BatchConfig {
            threads: effective_workers(shared.config.workers, job.batch.threads),
            ..job.batch
        };
        let report = run_batch_with(&batch, &job.spec, BatchMode::default(), control);
        shared
            .pending_episodes
            .fetch_sub(total - resolved.min(total), Ordering::Relaxed);
        let (phase, terminal) = match report {
            Ok(report) => {
                let wall = t0.elapsed();
                let mut summary = report.summary().with_timing(wall);
                // Quarantined-segment count from the persistent tier's
                // startup scan: operational metadata (excluded from
                // stats_eq) stamped onto every summary so clients can alert
                // on a daemon that lost segments to corruption.
                summary.cache_quarantined =
                    shared.recovery.as_ref().map_or(0, |r| r.quarantined.len());
                let done = summary.episodes;
                match (report.interrupted(), report.deadline_hit) {
                    (false, _) => {
                        shared.observe_episode_time(wall, done);
                        (Phase::Done, Event::BatchDone { job: id, summary })
                    }
                    (true, true) => (
                        Phase::DeadlineExceeded,
                        Event::DeadlineExceeded {
                            job: id,
                            done,
                            partial: Some(summary),
                        },
                    ),
                    (true, false) => (
                        Phase::Cancelled,
                        Event::Cancelled {
                            job: id,
                            done,
                            partial: Some(summary),
                        },
                    ),
                }
            }
            Err(error) => (
                Phase::Failed,
                Event::Error {
                    code: match error {
                        SimError::InvalidBatch { .. } => "invalid_batch".into(),
                        SimError::Scenario(_) => "episode_failed".into(),
                    },
                    message: error.to_string(),
                },
            ),
        };
        shared.finish(&state, phase);
        let _ = job.events.send(terminal);
    }
}

/// Server-side worker count: the batch's own `threads` wins if set,
/// otherwise the server default (`0` = all available parallelism).
fn effective_workers(server_default: usize, batch_threads: usize) -> usize {
    let chosen = if batch_threads > 0 {
        batch_threads
    } else {
        server_default
    };
    if chosen > 0 {
        chosen
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::StackSpecWire;
    use cv_sim::EpisodeConfig;

    fn status(client: &mut Client, job: Option<u64>) -> Vec<JobStatus> {
        match client.round_trip(&Request::Status { job }).unwrap() {
            Event::Status { jobs, .. } => jobs,
            other => panic!("expected status, got {other:?}"),
        }
    }

    #[test]
    fn ended_connections_are_forgotten_as_new_ones_arrive() {
        let server = Server::spawn_ephemeral().unwrap();
        for _ in 0..200 {
            let mut client = Client::connect(server.local_addr()).unwrap();
            assert!(matches!(client.round_trip(&Request::Ping), Ok(Event::Pong)));
        }
        let kept = server.shared.conns.lock().unwrap().len();
        assert!(
            kept < 50,
            "{kept} connection handles kept after 200 connections"
        );
        server.shutdown();
    }

    #[test]
    fn finished_jobs_are_forgotten_oldest_first_past_the_history_bound() {
        let server = Server::spawn_ephemeral().unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        // One episode, served from the cache after the first job.
        let batch = BatchConfig::new(EpisodeConfig::paper_default(3), 1);
        let served = JOB_HISTORY as u64 + 20;
        for _ in 0..served {
            client
                .submit_batch(&batch, StackSpecWire::TeacherConservative, |_| {})
                .unwrap();
        }
        let kept = server.shared.jobs.lock().unwrap().jobs.len();
        assert_eq!(kept, JOB_HISTORY, "the table is bounded");
        assert_eq!(server.shared.draining(), 0);

        // The newest finished job is still reported, and still answers
        // `cancel` with its status.
        let newest = status(&mut client, Some(served));
        assert_eq!(newest.len(), 1);
        assert_eq!((newest[0].state.as_str(), newest[0].done), ("done", 1));
        match client.round_trip(&Request::Cancel { job: served }).unwrap() {
            Event::Status { jobs, .. } => assert_eq!(jobs[0].state, "done"),
            other => panic!("expected status, got {other:?}"),
        }

        // The unfiltered reply lists exactly the newest JOB_HISTORY jobs;
        // an evicted one answers like an id never issued.
        let all = status(&mut client, None);
        let first_kept = served - JOB_HISTORY as u64 + 1;
        let ids: Vec<u64> = all.iter().map(|j| j.job).collect();
        assert_eq!(ids, (first_kept..=served).collect::<Vec<_>>());
        assert!(status(&mut client, Some(first_kept - 1)).is_empty());
        match client.round_trip(&Request::Cancel { job: 1 }).unwrap() {
            Event::Error { code, .. } => assert_eq!(code, "unknown_job"),
            other => panic!("expected unknown_job, got {other:?}"),
        }
        server.shutdown();
    }
}
