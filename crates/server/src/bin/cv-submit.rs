//! Submits a Monte-Carlo batch to a running `cv-serve` and streams progress.
//!
//! Usage:
//!
//! ```text
//! cv-submit [--addr 127.0.0.1:7878] [--episodes 16] [--seed 1]
//!           [--stack teacher_conservative|teacher_aggressive]
//!           [--comm none|delayed|lost] [--drop-prob 0.0]
//!           [--platoon N] [--deadline-ms N] [--quiet]
//! cv-submit status   [--addr …]
//! cv-submit cancel JOB [--addr …]
//! cv-submit shutdown [--addr …]
//! ```
//!
//! `--deadline-ms` asks the server to stop the job (at episode-step
//! granularity) once that many milliseconds have passed since admission;
//! the partial summary streamed back covers exactly the episodes that
//! finished.
//!
//! The batch uses the paper's defaults: template `EpisodeConfig::paper_default`,
//! the 20-point `p_1(0)` start grid, per-episode seeds `base_seed + i`.
//!
//! Flags are parsed strictly (`cv_server::cli`): an unknown flag, a value
//! that does not parse, or `--drop-prob` without `--comm delayed` prints
//! the usage and exits with code 64 before any connection is made.
//!
//! `--platoon N` swaps the template for an `N`-vehicle platoon
//! (`PlatoonSpec::paper_default`): the template's `others` list holds the
//! leader (the paper's `C_1`, `others[0]`) and the `N − 2` followers that
//! hold 9 m gap-tracking formation behind it, and the comm flags still
//! apply to every V2V channel. `N ≥ 2`; `--platoon 2` is the paper
//! scenario itself. The start grid moves only the leader, so the leader's
//! first headway varies across the grid (see `BatchConfig::starts`).

use cv_server::cli::{Args, UsageError, EXIT_USAGE};
use cv_server::{Client, ClientError, Event, Request, StackSpecWire};
use cv_sim::{BatchConfig, EpisodeConfig, PlatoonSpec};

const USAGE: &str = "usage: cv-submit [--addr 127.0.0.1:7878] [--episodes 16] [--seed 1]
                 [--stack teacher_conservative|teacher_aggressive]
                 [--comm none|delayed|lost] [--drop-prob 0.0]
                 [--platoon N] [--deadline-ms N] [--quiet]
       cv-submit status   [--addr ...]
       cv-submit cancel JOB [--addr ...]
       cv-submit shutdown [--addr ...]";

/// What the command line asks for.
enum Command {
    Submit(Box<Submission>),
    Status,
    Cancel(u64),
    Shutdown,
}

/// A batch submission, fully validated before any connection is made.
struct Submission {
    batch: BatchConfig,
    stack: StackSpecWire,
    deadline_ms: Option<u64>,
    quiet: bool,
}

fn command(args: &Args) -> Result<Command, UsageError> {
    let job = |raw: &str| {
        raw.parse()
            .map_err(|_| UsageError(format!("cancel: invalid job id '{raw}'")))
    };
    match args.positionals() {
        [] => submission(args).map(|s| Command::Submit(Box::new(s))),
        [cmd] if cmd == "status" => Ok(Command::Status),
        [cmd] if cmd == "shutdown" => Ok(Command::Shutdown),
        [cmd, raw] if cmd == "cancel" => job(raw).map(Command::Cancel),
        [cmd] if cmd == "cancel" => Err(UsageError("cancel needs a JOB".into())),
        [.., last] => Err(UsageError(format!("unexpected argument '{last}'"))),
    }
}

fn submission(args: &Args) -> Result<Submission, UsageError> {
    let seed = args.value("--seed", 1u64)?;
    let stack = StackSpecWire::from_name(args.get("--stack").unwrap_or("teacher_conservative"))
        .map_err(|e| UsageError(format!("--stack: {e}")))?;
    let comm = match args.get("--comm").unwrap_or("none") {
        "delayed" => cv_comm::CommSetting::delayed_with_drop(args.value("--drop-prob", 0.0)?),
        _ if args.has("--drop-prob") => {
            return Err(UsageError("--drop-prob needs --comm delayed".into()))
        }
        "none" => cv_comm::CommSetting::NoDisturbance,
        "lost" => cv_comm::CommSetting::Lost,
        other => {
            return Err(UsageError(format!(
                "--comm: invalid value '{other}' (none|delayed|lost)"
            )))
        }
    };
    let mut template = match args.get("--platoon") {
        Some(_) => {
            let n = args.value("--platoon", 2usize)?;
            PlatoonSpec::paper_default(n, seed)
                .map_err(|e| UsageError(format!("--platoon {n}: {e}")))?
                .episode()
        }
        None => EpisodeConfig::paper_default(seed),
    };
    template.comm = comm;
    let deadline_ms = match args.get("--deadline-ms") {
        Some(_) => Some(args.value("--deadline-ms", 0u64)?),
        None => None,
    };
    Ok(Submission {
        batch: BatchConfig::new(template, args.value("--episodes", 16usize)?),
        stack,
        deadline_ms,
        quiet: args.has("--quiet"),
    })
}

fn die(msg: String) -> ! {
    eprintln!("cv-submit: {msg}");
    std::process::exit(1);
}

/// Typed-error exit: the process code is [`ClientError::exit_code`]'s
/// mapping (2 = server error frame, 3 = overloaded, 4 = cancelled, 5 =
/// deadline exceeded, 1 = transport), so scripts can branch on *which*
/// failure occurred instead of parsing stderr.
fn die_err(e: ClientError) -> ! {
    eprintln!("cv-submit: {e}");
    std::process::exit(e.exit_code());
}

fn main() {
    let valued = [
        "--addr",
        "--episodes",
        "--seed",
        "--stack",
        "--comm",
        "--drop-prob",
        "--platoon",
        "--deadline-ms",
    ];
    let parsed = Args::parse(std::env::args().skip(1), &valued, &["--quiet"])
        .and_then(|args| command(&args).map(|command| (args, command)));
    let (args, command) = parsed.unwrap_or_else(|e| {
        eprintln!("cv-submit: {e}\n{USAGE}");
        std::process::exit(EXIT_USAGE);
    });
    let addr = args.get("--addr").unwrap_or("127.0.0.1:7878");
    let mut client = Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("cv-submit: connect {addr}: {e}");
        std::process::exit(e.exit_code());
    });

    match command {
        Command::Status => {
            let reply = client
                .round_trip(&Request::Status { job: None })
                .unwrap_or_else(|e| die_err(e));
            print_status(&reply);
        }
        Command::Cancel(job) => {
            let reply = client
                .round_trip(&Request::Cancel { job })
                .unwrap_or_else(|e| die_err(e));
            print_status(&reply);
        }
        Command::Shutdown => {
            match client
                .round_trip(&Request::Shutdown)
                .unwrap_or_else(|e| die_err(e))
            {
                Event::ShutdownAck { draining } => {
                    println!("server shutting down ({draining} jobs draining)");
                }
                other => die(format!("unexpected reply: {other:?}")),
            }
        }
        Command::Submit(submission) => submit(&mut client, *submission),
    }
}

fn submit(client: &mut Client, submission: Submission) {
    let Submission {
        batch,
        stack,
        deadline_ms,
        quiet,
    } = submission;
    let summary = client
        .submit_batch_deadline(&batch, stack, deadline_ms, |event| match event {
            Event::Accepted { job, queued_ahead } => {
                eprintln!("job {job} accepted ({queued_ahead} ahead in queue)");
            }
            Event::EpisodeDone {
                index,
                eta,
                done,
                total,
                eta_secs,
                ..
            } if !quiet => {
                eprintln!(
                    "episode {index:>4}: eta = {eta:+.4}   [{done}/{total}, ~{eta_secs:.1}s left]"
                );
            }
            Event::EpisodeFault {
                index,
                kind,
                detail,
                ..
            } => {
                eprintln!("episode {index:>4}: {kind} — {detail}");
            }
            Event::Overloaded { retry_after_ms } => {
                eprintln!("server overloaded; suggested retry in {retry_after_ms} ms");
            }
            Event::Cancelled { done, partial, .. }
            | Event::DeadlineExceeded { done, partial, .. } => {
                eprintln!("job stopped early after {done} episodes");
                if let Some(p) = partial {
                    eprintln!(
                        "partial: {} completed, {} failed, {} panicked, {} skipped of {}",
                        p.episodes, p.failed, p.panicked, p.skipped, p.requested
                    );
                }
            }
            _ => {}
        })
        .unwrap_or_else(|e| die_err(e));

    println!("episodes            {}", summary.episodes);
    println!("reaching time (s)   {:.3}", summary.reaching_time);
    println!("safe rate           {:.4}", summary.safe_rate);
    println!(
        "mean eta            {:+.4} ± {:.4}",
        summary.eta_mean,
        summary.eta_ci95()
    );
    println!("emergency freq      {:.4}", summary.emergency_frequency);
    println!(
        "wall time           {:.2}s  ({:.1} episodes/s)",
        summary.wall_time_secs, summary.episodes_per_sec
    );
    println!(
        "cache               {} hits, {} misses, {} evictions",
        summary.cache_hits, summary.cache_misses, summary.cache_evictions
    );
    // Persistent-tier counters, printed only when they carry signal (a
    // memory-only daemon stays byte-identical to the pre-persistence
    // output). The "cache" prefix keeps these on the operational side of
    // scripts that diff deterministic summary lines.
    if summary.cache_persisted_hits > 0 || summary.cache_quarantined > 0 {
        println!(
            "cache persisted     {} hits, {} segments quarantined",
            summary.cache_persisted_hits, summary.cache_quarantined
        );
    }
}

fn print_status(reply: &Event) {
    match reply {
        Event::Status {
            jobs,
            queue_capacity,
            queue_len,
        } => {
            println!("queue: {queue_len}/{queue_capacity}");
            if jobs.is_empty() {
                println!("no jobs");
            }
            for j in jobs {
                println!(
                    "job {:>4}  {:<10} {:>5}/{}",
                    j.job, j.state, j.done, j.total
                );
            }
        }
        Event::Error { code, message } => die_err(ClientError::Server {
            code: code.clone(),
            message: message.clone(),
        }),
        other => die(format!("unexpected reply: {other:?}")),
    }
}
