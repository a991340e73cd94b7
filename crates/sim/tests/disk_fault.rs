//! Disk-fault matrix for the persistent cache tier, under cv-sim's batch
//! entry point.
//!
//! Storage faults are treated exactly like the communication faults of
//! cv-server's `chaos_e2e`: injected deterministically (seeded [`FaultIo`]
//! schedules), typed when they surface (degradation counters, quarantine
//! reports, torn tails truncated), and *never* allowed to corrupt a served
//! result. The
//! matrix runs every [`DiskFault`] kind against multiple seeds; every cell
//! must end in typed degradation or clean recovery — no hangs, no panics —
//! with all served episode summaries bit-identical to an uncached run.
//!
//! The kill -9 scenario goes through the real directory-backed store: a
//! partial record appended to a segment file is exactly the on-disk state a
//! SIGKILL mid-append leaves behind, and recovery must truncate it while
//! serving every fully-written record as a persisted hit.

use cv_cache::{DiskFault, FaultIo, MemIo, RecoveryReport};
use cv_sim::{
    run_batch_with, store_salt, BatchConfig, BatchControl, BatchMode, BatchSummary, EpisodeCache,
    EpisodeConfig, StackSpec,
};

const FAULTS: [DiskFault; 5] = [
    DiskFault::ShortWrite,
    DiskFault::Enospc,
    DiskFault::FsyncFail,
    DiskFault::ReadCorrupt,
    DiskFault::TornTail,
];

fn fault_name(fault: DiskFault) -> &'static str {
    match fault {
        DiskFault::ShortWrite => "short-write",
        DiskFault::Enospc => "enospc",
        DiskFault::FsyncFail => "fsync-fail",
        DiskFault::ReadCorrupt => "read-corrupt",
        DiskFault::TornTail => "torn-tail",
    }
}

fn paper_batch(seed: u64, episodes: usize) -> (BatchConfig, StackSpec) {
    let template = EpisodeConfig::paper_default(seed);
    let spec = StackSpec::pure_teacher_conservative(&template).unwrap();
    let mut batch = BatchConfig::new(template, episodes);
    batch.threads = 2;
    (batch, spec)
}

/// The summary of a complete run of `batch`, through `cache` if given.
fn run(batch: &BatchConfig, spec: &StackSpec, cache: Option<&EpisodeCache>) -> BatchSummary {
    let control = BatchControl {
        cache,
        ..BatchControl::default()
    };
    let report = run_batch_with(batch, spec, BatchMode::EventDriven, control).unwrap();
    assert!(!report.interrupted(), "nothing stops an uncontrolled run");
    report.summary()
}

fn assert_bit_identical(reference: &BatchSummary, got: &BatchSummary, context: &str) {
    assert!(
        reference.stats_eq(got),
        "{context}: deterministic statistics diverged from the uncached run"
    );
    assert_eq!(
        reference
            .etas
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>(),
        got.etas.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        "{context}: per-episode etas diverged"
    );
}

/// Whether the cell surfaced its fault through one of the typed channels:
/// the degradation counters, the quarantine report, or a truncated tail.
fn typed_outcome(
    fault: DiskFault,
    cold_degraded: bool,
    cache: &EpisodeCache,
    open_report: &RecoveryReport,
    reopen_report: &RecoveryReport,
) -> bool {
    let degraded = cold_degraded
        || cache.degraded()
        || cache.stats().degraded > 0
        || open_report.degraded
        || reopen_report.degraded;
    match fault {
        // Write-side faults must flip the degradation ladder somewhere.
        DiskFault::ShortWrite | DiskFault::Enospc | DiskFault::FsyncFail => degraded,
        // Read corruption must quarantine (or, if the flipped byte landed
        // in the part of the tail a torn-tail truncate removed, count as
        // truncation) — degradation is also legal if the corrupted read
        // happened while arming the active segment.
        DiskFault::ReadCorrupt => {
            !reopen_report.quarantined.is_empty()
                || reopen_report.truncated_bytes > 0
                || reopen_report.stale > 0
                || degraded
        }
        // A torn tail must be recovered by truncation (or quarantined if
        // the cut landed inside the header).
        DiskFault::TornTail => {
            reopen_report.truncated_bytes > 0 || !reopen_report.quarantined.is_empty() || degraded
        }
    }
}

/// One cell of the matrix: cold run under the fault, flush, "crash"
/// (drop), reopen under the same fault, warm run. The cell passes when both
/// runs complete with summaries bit-identical to the uncached reference and
/// the fault surfaced through a typed channel.
fn run_cell(fault: DiskFault, seed: u64) {
    let context = format!("fault {} seed {seed}", fault_name(fault));
    let (batch, spec) = paper_batch(seed, 8);
    let reference = run(&batch, &spec, None);

    let disk = MemIo::new();
    let salt = store_salt();
    let (cache, open_report) =
        EpisodeCache::open_with_io(FaultIo::new(disk.clone(), fault, seed), 1 << 20, salt)
            .expect("open_with_io fails only when the directory is unlistable");

    let cold = run(&batch, &spec, Some(&cache));
    assert_bit_identical(&reference, &cold, &format!("{context}: cold run"));
    // Flush may legitimately fail under injected faults — it must report
    // that as `false`, not hang or panic. A failed flush (durability lost)
    // counts as the cold side's typed degradation signal.
    let cold_degraded = !cache.flush() || cache.degraded() || cache.stats().degraded > 0;
    drop(cache);

    let (cache, reopen_report) = EpisodeCache::open_with_io(
        FaultIo::new(disk, fault, seed.wrapping_add(1)),
        1 << 20,
        salt,
    )
    .expect("reopen");
    let warm = run(&batch, &spec, Some(&cache));
    assert_bit_identical(&reference, &warm, &format!("{context}: warm run"));
    assert_eq!(
        warm.episodes, 8,
        "{context}: warm run must complete every episode"
    );

    assert!(
        typed_outcome(fault, cold_degraded, &cache, &open_report, &reopen_report),
        "{context}: fault surfaced through no typed channel \
         (open {open_report:?}, reopen {reopen_report:?}, stats {:?})",
        cache.stats()
    );
}

#[test]
fn disk_fault_matrix_every_cell_degrades_typed_and_serves_bit_identical() {
    for fault in FAULTS {
        for seed in [1u64, 17, 83, 301] {
            run_cell(fault, seed);
        }
    }
}

#[test]
fn clean_disk_round_trip_serves_persisted_hits_bit_identical() {
    // The no-fault baseline for the matrix: cold run populates the store,
    // a reopened store serves 100% persisted hits, bit-identical.
    let (batch, spec) = paper_batch(7, 8);
    let reference = run(&batch, &spec, None);
    let disk = MemIo::new();
    let salt = store_salt();

    let (cache, report) = EpisodeCache::open_with_io(disk.clone(), 1 << 20, salt).unwrap();
    assert_eq!(report.loaded, 0);
    let cold = run(&batch, &spec, Some(&cache));
    assert_eq!((cold.cache_hits, cold.cache_misses), (0, 8));
    assert_eq!(cold.cache_persisted_hits, 0);
    assert!(cache.flush(), "clean flush must succeed");
    drop(cache);

    let (cache, report) = EpisodeCache::open_with_io(disk, 1 << 20, salt).unwrap();
    assert_eq!(report.loaded, 8, "every episode result must be recovered");
    assert!(report.quarantined.is_empty());
    assert_eq!(report.truncated_bytes, 0);
    let warm = run(&batch, &spec, Some(&cache));
    assert_eq!((warm.cache_hits, warm.cache_misses), (8, 0));
    assert_eq!(
        warm.cache_persisted_hits, 8,
        "warm-restart hits must be counted as persisted"
    );
    assert_bit_identical(&reference, &warm, "clean disk round trip");
}

#[test]
fn kill_dash_nine_mid_append_truncates_tail_and_serves_the_prefix() {
    // Through the real directory-backed store. The "crash" is simulated at
    // the on-disk level: a partial record appended to the active segment is
    // byte-for-byte the state a SIGKILL mid-`write` leaves behind.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("kill9-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let (batch, spec) = paper_batch(23, 8);
    let reference = run(&batch, &spec, None);
    let salt = store_salt();

    let (cache, _) = EpisodeCache::open(&dir, 1 << 20, salt).unwrap();
    let cold = run(&batch, &spec, Some(&cache));
    assert_eq!(cold.cache_misses, 8);
    assert!(cache.flush());
    drop(cache);

    // Append a torn record to the segment a real kill -9 would tear.
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "seg"))
        .expect("a segment file exists");
    use std::io::Write;
    let intact_len = std::fs::metadata(&seg).unwrap().len();
    let mut f = std::fs::OpenOptions::new().append(true).open(&seg).unwrap();
    f.write_all(&[0x2A, 0x00, 0x00, 0x00, 0xDE, 0xAD, 0xBE])
        .unwrap();
    drop(f);

    let (cache, report) = EpisodeCache::open(&dir, 1 << 20, salt).unwrap();
    assert_eq!(
        report.truncated_bytes, 7,
        "exactly the torn bytes are truncated"
    );
    assert_eq!(report.loaded, 8, "every fully-written record is recovered");
    assert!(
        report.quarantined.is_empty(),
        "a torn tail is not corruption"
    );
    assert_eq!(
        std::fs::metadata(&seg).unwrap().len(),
        intact_len,
        "the segment is repaired in place"
    );

    let warm = run(&batch, &spec, Some(&cache));
    assert_eq!(
        (
            warm.cache_hits,
            warm.cache_misses,
            warm.cache_persisted_hits
        ),
        (8, 0, 8),
        "restart after kill -9 must serve 100% persisted hits"
    );
    assert_bit_identical(&reference, &warm, "post-kill-9 warm run");
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_salt_directory_is_refused_and_recomputed() {
    // A cache dir written under a different salt (stale binary) must be
    // refused wholesale: zero hits served, results recomputed, segments
    // left in place for the binary that owns them.
    let (batch, spec) = paper_batch(41, 6);
    let reference = run(&batch, &spec, None);
    let disk = MemIo::new();

    let old_salt = cv_cache::CacheKey {
        hi: 0xDEAD,
        lo: 0xBEEF,
    };
    let (cache, _) = EpisodeCache::open_with_io(disk.clone(), 1 << 20, old_salt).unwrap();
    let _ = run(&batch, &spec, Some(&cache));
    assert!(cache.flush());
    drop(cache);

    let (cache, report) = EpisodeCache::open_with_io(disk, 1 << 20, store_salt()).unwrap();
    assert_eq!(report.stale, 1, "foreign segment counted as stale");
    assert_eq!(report.loaded, 0, "no foreign record may be served");
    assert!(report.quarantined.is_empty(), "stale is not corruption");
    let recomputed = run(&batch, &spec, Some(&cache));
    assert_eq!(
        (recomputed.cache_hits, recomputed.cache_misses),
        (0, 6),
        "a stale store serves nothing"
    );
    assert_bit_identical(&reference, &recomputed, "stale-salt recompute");
}

/// Wider seed sweep for soak.sh (`--ignored`): same matrix, more seeds,
/// controlled by `CV_SOAK_SEEDS` (default 16).
#[test]
#[ignore]
fn disk_fault_soak() {
    let seeds: u64 = std::env::var("CV_SOAK_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    for fault in FAULTS {
        for s in 0..seeds {
            run_cell(fault, 1000 + s * 7);
        }
    }
}
