//! Bit-identity of cached episode results (ISSUE 6, satellite 1).
//!
//! A cache is only correct here if a hit is *indistinguishable* from a
//! recompute: every f64 in the summary must match to the bit, across
//! seeds, worker counts, mixed hit/miss batches, and a cancelled batch
//! whose hits survive into the partial summary.

use std::sync::atomic::{AtomicBool, Ordering};

use cv_server::{run_sharded, Client, JobLimits, JobOutcome, Server, StackSpecWire};
use cv_sim::{BatchConfig, BatchSummary, EpisodeCache, EpisodeConfig, StackSpec};

fn paper_batch(seed: u64, episodes: usize) -> (BatchConfig, StackSpec) {
    let template = EpisodeConfig::paper_default(seed);
    let spec = StackSpec::pure_teacher_conservative(&template).unwrap();
    (BatchConfig::new(template, episodes), spec)
}

/// Every floating-point field compared by `to_bits` — `assert_eq!` on the
/// f64s would let `-0.0 == 0.0` and NaN mismatches slip through.
fn assert_bit_identical(cold: &BatchSummary, warm: &BatchSummary, context: &str) {
    assert_eq!(
        (
            cold.episodes,
            cold.requested,
            cold.failed,
            cold.panicked,
            cold.skipped
        ),
        (
            warm.episodes,
            warm.requested,
            warm.failed,
            warm.panicked,
            warm.skipped
        ),
        "{context}: episode counts diverged"
    );
    for (name, a, b) in [
        ("reaching_time", cold.reaching_time, warm.reaching_time),
        ("safe_rate", cold.safe_rate, warm.safe_rate),
        ("eta_mean", cold.eta_mean, warm.eta_mean),
        (
            "emergency_frequency",
            cold.emergency_frequency,
            warm.emergency_frequency,
        ),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "{context}: {name} diverged");
    }
    assert_eq!(
        cold.etas.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        warm.etas.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        "{context}: per-episode etas diverged"
    );
    assert_eq!(
        cold.reaching_times
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>(),
        warm.reaching_times
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>(),
        "{context}: per-episode reaching times diverged"
    );
}

fn run_with_cache(
    batch: &BatchConfig,
    spec: &StackSpec,
    workers: usize,
    cache: &EpisodeCache,
) -> JobOutcome {
    let cancel = AtomicBool::new(false);
    run_sharded(
        batch,
        spec,
        JobLimits::new(workers),
        &cancel,
        None,
        Some(cache),
        |_| {},
    )
}

fn completed(outcome: JobOutcome) -> BatchSummary {
    match outcome {
        JobOutcome::Completed(summary) => summary,
        other => panic!("expected completion, got {other:?}"),
    }
}

#[test]
fn cached_equals_recomputed_across_seeds_and_thread_counts() {
    for seed in [1, 7, 23, 101] {
        for workers in [1, 3] {
            let (batch, spec) = paper_batch(seed, 10);
            let cache = EpisodeCache::new(1 << 20);
            let cold = completed(run_with_cache(&batch, &spec, workers, &cache));
            assert_eq!(
                (cold.cache_hits, cold.cache_misses),
                (0, 10),
                "seed {seed}, {workers} workers: cold run"
            );
            let warm = completed(run_with_cache(&batch, &spec, workers, &cache));
            assert_eq!(
                (warm.cache_hits, warm.cache_misses),
                (10, 0),
                "seed {seed}, {workers} workers: warm run"
            );
            assert_bit_identical(&cold, &warm, &format!("seed {seed}, {workers} workers"));
        }
    }
}

#[test]
fn warm_run_is_bit_identical_regardless_of_who_warmed_it() {
    // Warmed single-threaded, served back to a 3-worker run (and vice
    // versa): the key is content-addressed, not execution-shaped.
    let (batch, spec) = paper_batch(5, 8);
    for (warm_workers, read_workers) in [(1, 3), (3, 1)] {
        let cache = EpisodeCache::new(1 << 20);
        let cold = completed(run_with_cache(&batch, &spec, warm_workers, &cache));
        let warm = completed(run_with_cache(&batch, &spec, read_workers, &cache));
        assert_eq!(warm.cache_hits, 8);
        assert_bit_identical(&cold, &warm, "cross-thread-count warm read");
    }
}

#[test]
fn mixed_hit_miss_batch_is_bit_identical_to_a_cold_superset() {
    // `BatchConfig::episode(i)` derives episode i from (base_seed + i,
    // starts[i % n]) alone, so a 12-episode batch shares its first 6
    // episodes with the 6-episode prefix batch: warming the prefix makes
    // the superset run exactly 6 hits + 6 misses.
    let (small, spec) = paper_batch(9, 6);
    let (big, _) = paper_batch(9, 12);

    let reference_cache = EpisodeCache::new(1 << 20);
    let reference = completed(run_with_cache(&big, &spec, 2, &reference_cache));

    let cache = EpisodeCache::new(1 << 20);
    let prefix = completed(run_with_cache(&small, &spec, 2, &cache));
    assert_eq!(prefix.cache_misses, 6);
    let mixed = completed(run_with_cache(&big, &spec, 2, &cache));
    assert_eq!(
        (mixed.cache_hits, mixed.cache_misses),
        (6, 6),
        "superset must hit exactly the warmed prefix"
    );
    assert_bit_identical(&reference, &mixed, "mixed hit/miss batch");
}

#[test]
fn cache_hits_survive_cancellation_and_resubmission_completes() {
    let (small, spec) = paper_batch(31, 6);
    let (big, _) = paper_batch(31, 12);
    let cache = EpisodeCache::new(1 << 20);
    let warmed = completed(run_with_cache(&small, &spec, 2, &cache));

    // Cancel is set before submission: no worker may run, but the 6 cached
    // episodes are served anyway and land in the partial summary.
    let cancel = AtomicBool::new(true);
    let outcome = run_sharded(
        &big,
        &spec,
        JobLimits::new(2),
        &cancel,
        None,
        Some(&cache),
        |_| {},
    );
    let JobOutcome::Cancelled { done, partial } = outcome else {
        panic!("expected cancellation, got {outcome:?}");
    };
    assert_eq!(done, 6, "exactly the cached episodes resolve under cancel");
    assert_eq!((partial.episodes, partial.skipped), (6, 6));
    assert_eq!((partial.cache_hits, partial.cache_misses), (6, 6));
    assert_eq!(
        partial.etas.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        warmed.etas.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        "partial summary must carry the cached episodes bit-identically"
    );

    // Resubmit without the cancel flag: the 6 hits return instantly, the 6
    // cancelled episodes are computed, and the batch completes.
    cancel.store(false, Ordering::Relaxed);
    let resumed = completed(run_with_cache(&big, &spec, 2, &cache));
    assert_eq!((resumed.cache_hits, resumed.cache_misses), (6, 6));
    let full = completed(run_with_cache(&big, &spec, 2, &cache));
    assert_eq!((full.cache_hits, full.cache_misses), (12, 0));
    assert_bit_identical(&resumed, &full, "resubmitted batch");

    // A fully warm batch computes nothing: with cancel already set, no
    // worker may run, yet every episode is served from the cache.
    cancel.store(true, Ordering::Relaxed);
    let warm = completed(run_sharded(
        &big,
        &spec,
        JobLimits::new(2),
        &cancel,
        None,
        Some(&cache),
        |_| {},
    ));
    assert_eq!((warm.episodes, warm.skipped), (12, 0));
    assert_eq!((warm.cache_hits, warm.cache_misses), (12, 0));
    assert_eq!(
        warm.etas.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        full.etas.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        "a fully warm batch must carry the cached etas bit-identically"
    );
}

#[test]
fn server_round_trip_serves_warm_batches_from_cache() {
    // Through the real daemon and wire protocol: same batch twice, second
    // run all hits and bit-identical after a JSON round-trip.
    let server = Server::spawn_ephemeral().expect("spawn server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let batch = BatchConfig::new(EpisodeConfig::paper_default(77), 8);
    let cold = client
        .submit_batch(&batch, StackSpecWire::TeacherConservative, |_| {})
        .expect("cold submit");
    assert_eq!((cold.cache_hits, cold.cache_misses), (0, 8));
    let warm = client
        .submit_batch(&batch, StackSpecWire::TeacherConservative, |_| {})
        .expect("warm submit");
    assert_eq!((warm.cache_hits, warm.cache_misses), (8, 0));
    assert_bit_identical(&cold, &warm, "server round trip");
    server.shutdown();
}

#[test]
fn a_fully_warm_stream_is_exactly_its_frames_in_order() {
    // Every hit of a fully warm batch is resolved before any worker
    // spawns, so its events reach the connection all at once: the
    // burstiest stream the daemon sends. Read raw, the bytes must still
    // split into exactly `accepted`, one `episode_done` per episode with
    // `done` = 1..N, and `batch_done` — each line exactly what its event
    // encodes to, none merged or split.
    use std::io::{Read, Write};

    use cv_server::wire::Json;
    use cv_server::{Event, Request};

    const N: usize = 48;
    let server = Server::spawn_ephemeral().expect("spawn server");
    let batch = BatchConfig::new(EpisodeConfig::paper_default(58), N);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .submit_batch(&batch, StackSpecWire::TeacherConservative, |_| {})
        .expect("cold submit");

    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect raw");
    let submit = Request::SubmitBatch {
        batch,
        stack: StackSpecWire::TeacherConservative,
        deadline_ms: None,
    };
    stream
        .write_all(format!("{}\n", submit.to_json().encode()).as_bytes())
        .unwrap();
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 4096];
    while !bytes.ends_with(b"\n") || !bytes.windows(12).any(|w| w == b"\"batch_done\"") {
        let n = stream.read(&mut chunk).expect("read stream");
        assert!(n > 0, "stream closed before batch_done");
        bytes.extend_from_slice(&chunk[..n]);
    }

    let text = std::str::from_utf8(&bytes).expect("frames are UTF-8");
    let lines: Vec<&str> = text.strip_suffix('\n').unwrap().split('\n').collect();
    assert_eq!(lines.len(), N + 2, "one line per frame");
    let events: Vec<Event> = lines
        .iter()
        .map(|line| {
            let event = Event::from_json(&Json::parse(line).expect("frame parses")).unwrap();
            assert_eq!(event.to_json().encode(), *line, "frame bytes");
            event
        })
        .collect();
    assert!(
        matches!(events[0], Event::Accepted { .. }),
        "{:?}",
        events[0]
    );
    for (k, event) in events[1..=N].iter().enumerate() {
        match event {
            Event::EpisodeDone { done, total, .. } => assert_eq!((*done, *total), (k + 1, N)),
            other => panic!("frame {} is {other:?}", k + 1),
        }
    }
    match &events[N + 1] {
        Event::BatchDone { summary, .. } => {
            assert_eq!((summary.cache_hits, summary.cache_misses), (N, 0));
        }
        other => panic!("last frame is {other:?}"),
    }
    server.shutdown();
}
