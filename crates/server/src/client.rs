//! Blocking client helpers shared by `cv-submit`, the integration tests,
//! and the chaos suite.
//!
//! The client is hardened against a misbehaving network path (see the
//! `cv-chaos` proxy): every socket operation carries a deadline
//! ([`ClientConfig`]), failures are classified as retryable or terminal
//! ([`ClientError::is_retryable`]), and idempotent batch submissions can be
//! retried transparently with bounded, seeded-jitter exponential backoff
//! ([`Client::submit_with_retry`]). Batch submissions are safe to retry
//! because episode results are configuration-deterministic: a resubmitted
//! batch replays bit-identically, and a server that loses the connection
//! mid-stream cancels the orphaned job.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use cv_rng::{derive_seed, Rng, SplitMix64};
use cv_sim::{BatchConfig, BatchSummary};

use crate::protocol::{Event, Request, StackSpecWire};
use crate::wire::{FrameError, FrameReader, Json, MAX_FRAME_BYTES};

/// Deadlines and retry policy for a [`Client`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Deadline for establishing the TCP connection.
    pub connect_timeout: Duration,
    /// Deadline for one `recv` to produce a frame. Must comfortably exceed
    /// the server's inter-frame gap (episodes stream continuously, so the
    /// gap is one episode's wall time plus network latency).
    pub read_timeout: Duration,
    /// Deadline for one frame write to drain into the socket.
    pub write_timeout: Duration,
    /// Retry policy for idempotent requests ([`Client::submit_with_retry`]).
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            retry: RetryPolicy::default(),
        }
    }
}

/// Bounded exponential backoff with deterministic (seeded) full jitter.
///
/// Attempt `k` (0-based) sleeps for a uniform draw from
/// `[0, min(base · 2^k, max)]`; the draw comes from a [`SplitMix64`] stream
/// derived from `jitter_seed`, so a retry schedule is reproducible from its
/// seed — which is what lets the chaos suite assert identical outcomes on
/// identical seeds.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (`1` = no retry).
    pub max_attempts: u32,
    /// Backoff base (cap for the first retry's jitter draw).
    pub base_delay: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_delay: Duration,
    /// Seed for the jitter stream.
    pub jitter_seed: u64,
    /// Optional bound on the *total* time spent across attempts and
    /// backoff sleeps: once the next sleep would cross it, the last error
    /// is returned instead of retrying. `None` bounds retries only by
    /// `max_attempts`.
    pub retry_deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            jitter_seed: 0,
            retry_deadline: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The backoff sleep before retry number `attempt` (0-based: the sleep
    /// between the first failure and the second attempt is `attempt = 0`).
    /// Deterministic in `(jitter_seed, attempt)`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let ceiling = self
            .base_delay
            .saturating_mul(1u32 << attempt.min(20))
            .min(self.max_delay);
        let mut rng =
            SplitMix64::seed_from_u64(derive_seed(self.jitter_seed, "cv-server.retry-jitter"));
        // Advance to this attempt's draw so schedules stay aligned even if
        // a caller queries attempts out of order.
        let mut draw = 0.0;
        for _ in 0..=attempt {
            draw = rng.random_f64();
        }
        ceiling.mul_f64(draw)
    }
}

/// A client-side failure, classified for retry.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (reset, refused, EOF, disconnect mid-frame).
    /// Retryable: the transport died, the request's effect is deterministic.
    Io(std::io::Error),
    /// A deadline expired (`connect`, `read`, or `write`). Retryable.
    Timeout {
        /// Which operation timed out.
        op: &'static str,
        /// The deadline that expired.
        after: Duration,
    },
    /// The server sent a complete frame that is not a valid event, or a
    /// frame over the size cap. Terminal: a protocol violation will not be
    /// fixed by resubmitting.
    Protocol(String),
    /// The server answered with an `error` frame. Terminal: every code
    /// (`invalid_batch`, `bad_request`, `shutting_down`, `quarantined`, …)
    /// is a rejection; a full server answers [`ClientError::Overloaded`].
    Server {
        /// Machine-readable code (`invalid_batch`, `bad_request`, …).
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// The job was cancelled before completing. Terminal: cancellation is
    /// an explicit operator action, not a fault.
    Cancelled {
        /// Episodes finished before cancellation.
        done: usize,
    },
    /// The server refused admission: queue or episode budget saturated.
    /// Retryable — and the server's hint is honoured by
    /// [`Client::submit_with_retry`] as a floor on the next backoff sleep.
    Overloaded {
        /// Server-suggested minimum wait before retrying, milliseconds.
        retry_after_ms: u64,
    },
    /// The job's deadline expired server-side. Terminal: resubmitting the
    /// same deadline would expire the same way; the caller must decide
    /// what to do with the partial results it streamed.
    DeadlineExceeded {
        /// Episodes finished before expiry.
        done: usize,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "I/O error: {e}"),
            ClientError::Timeout { op, after } => {
                write!(f, "{op} timed out after {after:?}")
            }
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
            ClientError::Cancelled { done } => {
                write!(f, "job cancelled after {done} episodes")
            }
            ClientError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded; retry after {retry_after_ms} ms")
            }
            ClientError::DeadlineExceeded { done } => {
                write!(f, "job deadline exceeded after {done} episodes")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// Whether retrying the same idempotent request on a fresh connection
    /// can plausibly succeed.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Io(_) | ClientError::Timeout { .. } | ClientError::Overloaded { .. } => {
                true
            }
            ClientError::Server { .. }
            | ClientError::Protocol(_)
            | ClientError::Cancelled { .. }
            | ClientError::DeadlineExceeded { .. } => false,
        }
    }

    /// Process exit code for CLI front-ends (`cv-submit`): a typed,
    /// scriptable mapping so tier1/soak scripts can assert on *which*
    /// failure occurred instead of parsing stderr. `0` is success and never
    /// returned here; every error is non-zero.
    ///
    /// * `1` — transport/protocol trouble (I/O, timeout, malformed frames)
    /// * `2` — the server rejected the request with a typed `error` frame
    ///   (`invalid_batch`, `quarantined`, `shutting_down`, …)
    /// * `3` — admission refused: the server is overloaded, retry later
    /// * `4` — the job was cancelled before completing
    /// * `5` — the job's server-side deadline expired
    pub fn exit_code(&self) -> i32 {
        match self {
            ClientError::Io(_) | ClientError::Timeout { .. } | ClientError::Protocol(_) => 1,
            ClientError::Server { .. } => 2,
            ClientError::Overloaded { .. } => 3,
            ClientError::Cancelled { .. } => 4,
            ClientError::DeadlineExceeded { .. } => 5,
        }
    }
}

/// A connection to a `cv-serve` instance.
pub struct Client {
    reader: FrameReader<BufReader<TcpStream>>,
    writer: TcpStream,
    /// Encode buffer for outgoing frames, reused across sends.
    out: String,
    config: ClientConfig,
}

impl Client {
    /// Connects with default deadlines ([`ClientConfig::default`]): the
    /// client never blocks forever on a dead or half-open peer.
    ///
    /// # Errors
    ///
    /// Socket errors from resolution or connection, or
    /// [`ClientError::Timeout`] if the connect deadline expires.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit deadlines and retry policy.
    ///
    /// # Errors
    ///
    /// Socket errors from resolution or connection, or
    /// [`ClientError::Timeout`] if the connect deadline expires.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Client, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let mut last: Option<std::io::Error> = None;
        let mut stream = None;
        for a in &addrs {
            match TcpStream::connect_timeout(a, config.connect_timeout) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last = Some(e),
            }
        }
        let stream = match stream {
            Some(s) => s,
            None => {
                return Err(match last {
                    Some(e) if matches!(e.kind(), std::io::ErrorKind::TimedOut) => {
                        ClientError::Timeout {
                            op: "connect",
                            after: config.connect_timeout,
                        }
                    }
                    Some(e) => ClientError::Io(e),
                    None => ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        "address resolved to nothing",
                    )),
                })
            }
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(config.read_timeout))?;
        stream.set_write_timeout(Some(config.write_timeout))?;
        let reader = FrameReader::new(BufReader::new(stream.try_clone()?), MAX_FRAME_BYTES);
        Ok(Client {
            reader,
            writer: stream,
            out: String::new(),
            config,
        })
    }

    /// Sends one request frame.
    ///
    /// # Errors
    ///
    /// Socket errors; [`ClientError::Timeout`] if the write deadline
    /// expires.
    pub fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        self.out.clear();
        request.to_json().encode_into(&mut self.out);
        self.out.push('\n');
        self.writer
            .write_all(self.out.as_bytes())
            .map_err(|e| self.classify_io("write", e))
    }

    /// Reads the next event frame.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] if no frame arrives within the read
    /// deadline, [`ClientError::Io`] on EOF/reset/disconnect-mid-frame,
    /// [`ClientError::Protocol`] on undecodable (including non-UTF-8) or
    /// oversize frames.
    pub fn recv(&mut self) -> Result<Event, ClientError> {
        let line = match self.reader.read_frame() {
            Ok(line) => line,
            Err(FrameError::Closed) => {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )))
            }
            Err(FrameError::Truncated { partial }) => {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!("connection closed mid-frame ({partial} bytes buffered)"),
                )))
            }
            Err(FrameError::TooLong { limit }) => {
                return Err(ClientError::Protocol(format!(
                    "server frame exceeds the {limit}-byte limit"
                )))
            }
            Err(e @ FrameError::InvalidUtf8 { .. }) => {
                return Err(ClientError::Protocol(format!("server {e}")))
            }
            Err(e @ FrameError::Io(_)) if e.is_timeout() => {
                return Err(ClientError::Timeout {
                    op: "read",
                    after: self.config.read_timeout,
                })
            }
            Err(FrameError::Io(e)) => return Err(ClientError::Io(e)),
        };
        let frame = Json::parse(line.trim()).map_err(|e| ClientError::Protocol(e.to_string()))?;
        Event::from_json(&frame).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    fn classify_io(&self, op: &'static str, e: std::io::Error) -> ClientError {
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            ClientError::Timeout {
                op,
                after: match op {
                    "write" => self.config.write_timeout,
                    _ => self.config.read_timeout,
                },
            }
        } else {
            ClientError::Io(e)
        }
    }

    /// Sends a request and reads a single reply frame.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::send`] / [`Client::recv`] errors.
    pub fn round_trip(&mut self, request: &Request) -> Result<Event, ClientError> {
        self.send(request)?;
        self.recv()
    }

    /// Submits a batch and blocks until the terminal frame, invoking
    /// `on_event` for every streamed frame (including the terminal one).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the submission is rejected or the batch
    /// fails, [`ClientError::Cancelled`] when it is cancelled, plus the
    /// usual I/O, timeout and protocol errors.
    pub fn submit_batch<F>(
        &mut self,
        batch: &BatchConfig,
        stack: StackSpecWire,
        on_event: F,
    ) -> Result<BatchSummary, ClientError>
    where
        F: FnMut(&Event),
    {
        self.submit_batch_deadline(batch, stack, None, on_event)
    }

    /// [`Client::submit_batch`] with an optional per-job deadline
    /// (milliseconds from server-side admission; queue wait counts).
    ///
    /// # Errors
    ///
    /// As [`Client::submit_batch`], plus [`ClientError::DeadlineExceeded`]
    /// when the deadline expires server-side (partial progress streamed via
    /// `on_event` up to that point) and [`ClientError::Overloaded`] when
    /// admission is refused.
    pub fn submit_batch_deadline<F>(
        &mut self,
        batch: &BatchConfig,
        stack: StackSpecWire,
        deadline_ms: Option<u64>,
        mut on_event: F,
    ) -> Result<BatchSummary, ClientError>
    where
        F: FnMut(&Event),
    {
        self.send(&Request::SubmitBatch {
            batch: batch.clone(),
            stack,
            deadline_ms,
        })?;
        loop {
            let event = self.recv()?;
            on_event(&event);
            match event {
                Event::BatchDone { summary, .. } => return Ok(summary),
                Event::Cancelled { done, .. } => return Err(ClientError::Cancelled { done }),
                Event::DeadlineExceeded { done, .. } => {
                    return Err(ClientError::DeadlineExceeded { done })
                }
                Event::Overloaded { retry_after_ms } => {
                    return Err(ClientError::Overloaded { retry_after_ms })
                }
                Event::Error { code, message } => {
                    return Err(ClientError::Server { code, message })
                }
                Event::Accepted { .. } | Event::EpisodeDone { .. } | Event::EpisodeFault { .. } => {
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected frame during submission: {other:?}"
                    )))
                }
            }
        }
    }

    /// Submits a batch with transparent retry: on a retryable failure
    /// ([`ClientError::is_retryable`]) the whole submission is re-driven on
    /// a *fresh* connection after a seeded-jitter backoff, up to the
    /// policy's attempt budget. Safe because batch results are
    /// configuration-deterministic (a resubmission replays bit-identically)
    /// and the server cancels jobs whose connection died mid-stream.
    ///
    /// `deadline_ms` is the optional per-job deadline each attempt asks
    /// the server for. A server [`ClientError::Overloaded`] hint becomes a
    /// *floor* on the next backoff sleep (the server knows its queue depth
    /// better than the client's blind exponential), and the policy's
    /// `retry_deadline` bounds the total time spent — once the next sleep
    /// would cross it, the last error is returned instead of sleeping.
    ///
    /// `on_event` observes the frames of every attempt, so progress events
    /// may repeat across retries; `on_retry` is told about each abandoned
    /// attempt (its 0-based index and the error that ended it).
    ///
    /// # Errors
    ///
    /// The last error once the attempt budget is exhausted, or the first
    /// terminal (non-retryable) error.
    #[allow(clippy::too_many_arguments)]
    pub fn submit_with_retry<F, R>(
        addr: impl ToSocketAddrs,
        config: &ClientConfig,
        batch: &BatchConfig,
        stack: StackSpecWire,
        deadline_ms: Option<u64>,
        mut on_event: F,
        mut on_retry: R,
    ) -> Result<BatchSummary, ClientError>
    where
        F: FnMut(&Event),
        R: FnMut(u32, &ClientError),
    {
        let attempts = config.retry.max_attempts.max(1);
        let t0 = Instant::now();
        let mut last = None;
        for attempt in 0..attempts {
            let result = Client::connect_with(&addr, config.clone()).and_then(|mut client| {
                client.submit_batch_deadline(batch, stack, deadline_ms, &mut on_event)
            });
            match result {
                Ok(summary) => return Ok(summary),
                Err(e) if e.is_retryable() && attempt + 1 < attempts => {
                    let mut sleep = config.retry.backoff(attempt);
                    if let ClientError::Overloaded { retry_after_ms } = &e {
                        sleep = sleep.max(Duration::from_millis(*retry_after_ms));
                    }
                    if let Some(budget) = config.retry.retry_deadline {
                        if t0.elapsed() + sleep >= budget {
                            return Err(e);
                        }
                    }
                    on_retry(attempt, &e);
                    std::thread::sleep(sleep);
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.expect("attempt budget >= 1"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_bounded_deterministic_and_grows() {
        let policy = RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(1),
            jitter_seed: 42,
            retry_deadline: None,
        };
        for attempt in 0..6 {
            let a = policy.backoff(attempt);
            let b = policy.backoff(attempt);
            assert_eq!(a, b, "jitter must be deterministic per attempt");
            let ceiling = Duration::from_millis(100 * (1 << attempt)).min(Duration::from_secs(1));
            assert!(a <= ceiling, "attempt {attempt}: {a:?} > {ceiling:?}");
        }
        // Different seeds give different schedules.
        let other = RetryPolicy {
            jitter_seed: 43,
            ..policy.clone()
        };
        assert!((0..6).any(|k| policy.backoff(k) != other.backoff(k)));
        // The ceiling saturates at max_delay (never overflows).
        assert!(policy.backoff(31) <= Duration::from_secs(1));
    }

    #[test]
    fn error_classification_retryable_vs_terminal() {
        let retryable: Vec<ClientError> = vec![
            ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "reset",
            )),
            ClientError::Timeout {
                op: "read",
                after: Duration::from_secs(1),
            },
            ClientError::Overloaded { retry_after_ms: 75 },
        ];
        let terminal: Vec<ClientError> = vec![
            ClientError::Protocol("garbage".into()),
            ClientError::Server {
                code: "queue_full".into(),
                message: "at capacity".into(),
            },
            ClientError::Cancelled { done: 3 },
            ClientError::Server {
                code: "invalid_batch".into(),
                message: "zero episodes".into(),
            },
            ClientError::Server {
                code: "shutting_down".into(),
                message: "draining".into(),
            },
            ClientError::Server {
                code: "quarantined".into(),
                message: "too many malformed frames".into(),
            },
            ClientError::DeadlineExceeded { done: 9 },
        ];
        for e in &retryable {
            assert!(e.is_retryable(), "{e} should be retryable");
        }
        for e in &terminal {
            assert!(!e.is_retryable(), "{e} should be terminal");
        }
    }

    #[test]
    fn retry_policy_none_gives_single_attempt() {
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }

    #[test]
    fn exit_codes_are_typed_and_nonzero() {
        let cases: Vec<(ClientError, i32)> = vec![
            (
                ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "reset",
                )),
                1,
            ),
            (
                ClientError::Timeout {
                    op: "read",
                    after: Duration::from_secs(1),
                },
                1,
            ),
            (ClientError::Protocol("garbage".into()), 1),
            (
                ClientError::Server {
                    code: "quarantined".into(),
                    message: "too many malformed frames".into(),
                },
                2,
            ),
            (
                ClientError::Server {
                    code: "invalid_batch".into(),
                    message: "zero episodes".into(),
                },
                2,
            ),
            (ClientError::Overloaded { retry_after_ms: 75 }, 3),
            (ClientError::Cancelled { done: 3 }, 4),
            (ClientError::DeadlineExceeded { done: 9 }, 5),
        ];
        for (e, want) in &cases {
            assert_eq!(e.exit_code(), *want, "{e}");
            assert_ne!(e.exit_code(), 0, "errors must never exit 0");
        }
    }
}
