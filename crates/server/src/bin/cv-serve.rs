//! The batch-simulation daemon.
//!
//! Usage: `cargo run --release -p cv-server --bin cv-serve --
//! [--addr 127.0.0.1:7878] [--queue-depth 8] [--workers 0]
//! [--idle-timeout-secs 60] [--max-pending-episodes 0]
//! [--panic-budget 3] [--cache-bytes 67108864] [--cache-dir PATH]`
//!
//! `--max-pending-episodes` caps episodes admitted but not yet resolved
//! across all jobs (0 = unlimited); a submission over the cap gets a
//! terminal `overloaded` frame with a retry hint. `--panic-budget` is how
//! many contained panics one episode seed may cause before it is
//! quarantined (skipped, typed) on later encounters. `--cache-bytes` sets
//! the byte budget of the content-addressed episode-result cache (default
//! 64 MiB); `--cache-bytes 0` disables it. `--cache-dir PATH` makes the
//! cache persistent (DESIGN.md §17): results are appended to checksummed
//! segment files in PATH and recovered — checksum-verified, torn tails
//! truncated, corrupt segments quarantined to `.bad` — when a daemon
//! restarts with the same directory. A cache directory for a disabled
//! cache is a usage error, not a directory silently left unused.
//! Every job runs on cv-sim's event wheel (`cv_sim::events`, DESIGN.md
//! §18).
//!
//! Flags are parsed strictly (`cv_server::cli`): an unknown flag or a value
//! that does not parse prints the usage and exits with code 64 before
//! anything binds.
//!
//! Listens for newline-delimited JSON requests (see `cv_server::protocol`),
//! runs submitted batches on cv-sim's batch fan-out, and streams
//! progress back to each submitter. Runs until a client sends
//! `{"op":"shutdown"}`, then drains in-flight jobs and exits.

use cv_server::cli::{Args, UsageError, EXIT_USAGE};
use cv_server::{Server, ServerConfig};

const USAGE: &str = "usage: cv-serve [--addr 127.0.0.1:7878] [--queue-depth 8] [--workers 0] \
[--idle-timeout-secs 60] [--max-pending-episodes 0] \
[--panic-budget 3] [--cache-bytes 67108864] [--cache-dir PATH]";

/// The daemon's configuration from its command line.
fn config(args: &Args) -> Result<ServerConfig, UsageError> {
    let cache_bytes = args.value("--cache-bytes", cv_sim::DEFAULT_CACHE_BYTES)?;
    let cache_dir = args.get("--cache-dir").map(std::path::PathBuf::from);
    if cache_bytes == 0 && cache_dir.is_some() {
        return Err(UsageError(
            "--cache-dir needs a cache: it cannot be combined with --cache-bytes 0".into(),
        ));
    }
    Ok(ServerConfig {
        addr: args.value("--addr", "127.0.0.1:7878".to_string())?,
        queue_capacity: args.value("--queue-depth", 8)?,
        workers: args.value("--workers", 0)?,
        idle_timeout: std::time::Duration::from_secs(args.value("--idle-timeout-secs", 60)?),
        max_pending_episodes: args.value("--max-pending-episodes", 0)?,
        panic_budget: args.value("--panic-budget", 3)?,
        cache_bytes,
        cache_dir,
        ..ServerConfig::default()
    })
}

fn main() {
    let valued = [
        "--addr",
        "--queue-depth",
        "--workers",
        "--idle-timeout-secs",
        "--max-pending-episodes",
        "--panic-budget",
        "--cache-bytes",
        "--cache-dir",
    ];
    let parsed = Args::parse(std::env::args().skip(1), &valued, &[]).and_then(|args| {
        match args.positionals() {
            [] => config(&args),
            [extra, ..] => Err(UsageError(format!("unexpected argument '{extra}'"))),
        }
    });
    let config = parsed.unwrap_or_else(|e| {
        eprintln!("cv-serve: {e}\n{USAGE}");
        std::process::exit(EXIT_USAGE);
    });
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cv-serve: failed to bind: {e}");
            std::process::exit(1);
        }
    };
    if let Some(r) = server.cache_recovery() {
        println!(
            "cv-serve: cache recovered {} entries from {} segments \
             ({} stale, {} bytes torn tail truncated)",
            r.loaded, r.segments, r.stale, r.truncated_bytes
        );
        for q in &r.quarantined {
            println!(
                "cv-serve: cache quarantined segment {} at offset {}: {}",
                q.segment, q.offset, q.reason
            );
        }
        if r.degraded {
            println!("cv-serve: cache degraded to memory-only (disk unavailable)");
        }
    }
    println!("cv-serve listening on {}", server.local_addr());
    server.wait();
    println!("cv-serve: drained and shut down");
}
