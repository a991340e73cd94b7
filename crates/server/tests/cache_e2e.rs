//! Bit-identity of cached episode results through the daemon.
//!
//! A cache is only correct here if a hit is *indistinguishable* from a
//! recompute: every f64 in a served summary must match to the bit after
//! the JSON round trip, and a fully warm batch must stream exactly its
//! frames. The cache's own semantics under cv-sim's batch entry point
//! (seeds, worker counts, mixed hit/miss batches, hits surviving a cancel)
//! are pinned by the tests of `cv_sim::supervise`.

use cv_server::{Client, Server, StackSpecWire};
use cv_sim::{BatchConfig, BatchSummary, EpisodeConfig};

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
