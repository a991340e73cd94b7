//! Property-style tests for the wire codec: seeded random JSON values
//! round-trip bit-identically, every protocol frame's direct encoder writes
//! exactly the bytes of its `to_json` oracle and decodes back bit for bit,
//! protocol payloads survive size and UTF-8 extremes, and malformed input
//! always yields a typed error — never a panic, never an unbounded buffer.

use std::io::BufReader;

use cv_comm::CommSetting;
use cv_dynamics::VehicleState;
use cv_rng::{derive_seed, Rng, SplitMix64, PROP_CASES};
use cv_sensing::SensorNoise;
use cv_server::wire::Json;
use cv_server::{
    protocol::{batch_from_json, batch_to_json},
    Event, FrameError, FrameReader, JobStatus, Request, StackSpecWire, MAX_FRAME_BYTES,
};
use cv_sim::{BatchConfig, BatchSummary, DriverModel, EpisodeConfig, OtherVehicle};

/// Characters chosen to stress the encoder/parser: escapes, multi-byte
/// UTF-8 (2, 3 and 4 bytes — the last needing a surrogate pair in `\u`
/// form), control characters, and JSON-syntax look-alikes.
const TRICKY_CHARS: [char; 16] = [
    '"',
    '\\',
    '\n',
    '\r',
    '\t',
    '\u{08}',
    '\u{0C}',
    '\u{1F}',
    '/',
    '{',
    '}',
    'é',
    'π',
    '→',
    '🚗',
    '\u{10FFFF}',
];

fn random_string(rng: &mut SplitMix64, max_len: usize) -> String {
    let len = rng.random_range(0..=max_len);
    (0..len)
        .map(|_| {
            if rng.random_bool(0.5) {
                TRICKY_CHARS[rng.random_index(TRICKY_CHARS.len())]
            } else {
                // Printable ASCII.
                char::from(rng.random_range(0x20..=0x7Eu32) as u8)
            }
        })
        .collect()
}

/// Length-extreme f64s: subnormals, extremes, negative zero, and values
/// whose shortest decimal form needs all 17 significant digits.
fn random_f64(rng: &mut SplitMix64) -> f64 {
    match rng.random_range(0..6u32) {
        0 => f64::MIN_POSITIVE,
        1 => 5e-324, // smallest subnormal
        2 => f64::MAX,
        3 => -0.0,
        4 => 0.1 + 0.2, // classic shortest-round-trip stressor
        _ => f64::from_bits(rng.next_u64()),
    }
}

fn random_int(rng: &mut SplitMix64) -> i128 {
    match rng.random_range(0..5u32) {
        0 => i128::MAX,
        1 => i128::MIN,
        2 => i64::MAX as i128,
        3 => 0,
        _ => rng.next_u64() as i128 - (u64::MAX / 2) as i128,
    }
}

/// Seeded random JSON value with bounded depth and fan-out.
fn random_json(rng: &mut SplitMix64, depth: usize) -> Json<'static> {
    let leaf_only = depth == 0;
    match rng.random_range(0..if leaf_only { 5 } else { 7u32 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.random_bool(0.5)),
        2 => {
            let x = random_f64(rng);
            // The codec encodes non-finite floats as null by design; keep
            // the generated tree at finite values so equality is exact.
            if x.is_finite() {
                Json::Num(x)
            } else {
                Json::Int(random_int(rng))
            }
        }
        3 => Json::Int(random_int(rng)),
        4 => Json::str(random_string(rng, 24)),
        5 => Json::Arr(
            (0..rng.random_range(0..=4usize))
                .map(|_| random_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.random_range(0..=4usize))
                .map(|i| {
                    (
                        format!("{}{i}", random_string(rng, 8)).into(),
                        random_json(rng, depth - 1),
                    )
                })
                .collect(),
        ),
    }
}

/// Structural equality that treats every NaN as equal to every NaN (the
/// codec's `null`↔NaN mapping never appears here because the generator is
/// finite-only, but random bit patterns in nested floats deserve care).
fn roundtrips(v: &Json) {
    let encoded = v.encode();
    let back = Json::parse(&encoded).unwrap_or_else(|e| panic!("parse failed on {encoded:?}: {e}"));
    assert_eq!(&back, v, "value changed across the wire: {encoded:?}");
    // Second generation is bit-identical: encoding is a fixed point.
    assert_eq!(back.encode(), encoded, "encoding is not a fixed point");
}

#[test]
fn random_values_roundtrip_bit_identically() {
    let mut rng = SplitMix64::seed_from_u64(derive_seed(0, "wire-props.roundtrip"));
    for _ in 0..PROP_CASES {
        roundtrips(&random_json(&mut rng, 3));
    }
}

#[test]
fn utf8_boundary_payloads_roundtrip() {
    // Every tricky char alone, and as a payload crossing typical buffer
    // boundaries (the 4-byte scalar straddling an 8 KiB edge).
    for c in TRICKY_CHARS {
        roundtrips(&Json::str(c.to_string()));
    }
    let mut s = "x".repeat(8191);
    s.push('🚗');
    s.push_str(&"y".repeat(37));
    roundtrips(&Json::str(s));
    // Surrogate-pair escapes decode to the astral char and re-encode raw.
    let parsed = Json::parse("\"\\ud83d\\ude97\"").unwrap();
    assert_eq!(parsed, Json::str("🚗"));
    roundtrips(&parsed);
}

#[test]
fn length_extremes_roundtrip() {
    roundtrips(&Json::str(""));
    roundtrips(&Json::Arr(vec![]));
    roundtrips(&Json::Obj(vec![]));
    // Deep nesting (recursive-descent parser must handle it).
    let mut deep = Json::Int(1);
    for _ in 0..64 {
        deep = Json::Arr(vec![deep]);
    }
    roundtrips(&deep);
    // A wide array of every scalar shape.
    roundtrips(&Json::Arr(
        (0..1000)
            .map(|i| {
                if i % 2 == 0 {
                    Json::Int(i)
                } else {
                    Json::Num(i as f64 * 0.1)
                }
            })
            .collect(),
    ));
}

/// A batch with a start grid large enough to produce a frame within an
/// order of magnitude of the cap must encode, frame, and decode exactly.
#[test]
fn max_size_batches_survive_the_full_framing_path() {
    let mut rng = SplitMix64::seed_from_u64(derive_seed(0, "wire-props.batch"));
    let mut batch = BatchConfig::new(EpisodeConfig::paper_default(9), 50_000);
    batch.starts = (0..50_000)
        .map(|_| rng.random_range(-60.0..-20.0))
        .collect();
    let frame = batch_to_json(&batch).encode();
    assert!(
        frame.len() > 500_000 && frame.len() < MAX_FRAME_BYTES,
        "frame size {} out of the intended test band",
        frame.len()
    );
    // Through the frame reader, as the server would receive it.
    let wire = format!("{frame}\n");
    let mut reader = FrameReader::new(BufReader::new(wire.as_bytes()), MAX_FRAME_BYTES);
    let line = reader.read_frame().unwrap();
    let decoded = batch_from_json(&Json::parse(line).unwrap()).unwrap();
    assert_eq!(
        decoded.starts, batch.starts,
        "float grid must be bit-identical"
    );
    assert_eq!(decoded.episodes, batch.episodes);
    assert_eq!(batch_to_json(&decoded).encode(), frame);
}

/// Negative space: an oversize frame is a typed `TooLong` (the JSON-lines
/// analog of an oversize length prefix) and a mid-frame EOF is a typed
/// `Truncated` — in both cases before buffering anything unbounded.
#[test]
fn oversize_and_truncated_frames_yield_typed_errors() {
    let huge = "x".repeat(4096); // no newline, far over the cap
    let mut reader = FrameReader::new(BufReader::new(huge.as_bytes()), 256);
    match reader.read_frame() {
        Err(FrameError::TooLong { limit }) => assert_eq!(limit, 256),
        other => panic!("expected TooLong, got {other:?}"),
    }

    let cut = "{\"op\":\"submit_batch\",\"batch\":{\"episo";
    let mut reader = FrameReader::new(BufReader::new(cut.as_bytes()), 256);
    match reader.read_frame() {
        Err(FrameError::Truncated { partial }) => assert_eq!(partial, cut.len()),
        other => panic!("expected Truncated, got {other:?}"),
    }
}

/// A line that is not UTF-8 — a stray `0xFF`, or a 3-byte sequence cut
/// after its second byte — is a typed `InvalidUtf8` at the offending
/// offset, never a silently repaired string, and the reader stays
/// frame-aligned: the next frame reads intact.
#[test]
fn invalid_utf8_frames_yield_typed_errors_and_the_next_frame_reads() {
    for (line, at) in [
        (&b"{\"op\":\"ping\",\"x\":\"\xff\"}"[..], 18),
        (&b"{\"op\":\"\xe2\x82\"}"[..], 7),
    ] {
        let mut wire = line.to_vec();
        wire.extend_from_slice(b"\n{\"op\":\"ping\"}\n");
        let mut reader = FrameReader::new(BufReader::new(&wire[..]), 256);
        match reader.read_frame() {
            Err(FrameError::InvalidUtf8 { at: got }) => assert_eq!(got, at),
            other => panic!("expected InvalidUtf8, got {other:?}"),
        }
        assert_eq!(reader.read_frame().unwrap(), "{\"op\":\"ping\"}");
        assert!(matches!(reader.read_frame(), Err(FrameError::Closed)));
    }
}

/// Truncating a valid encoding at every seeded random byte offset must
/// produce a parse error or (for a prefix that happens to be complete —
/// impossible here since the value is an object) a value; never a panic.
#[test]
fn truncated_encodings_never_panic() {
    let mut rng = SplitMix64::seed_from_u64(derive_seed(0, "wire-props.truncate"));
    for _ in 0..PROP_CASES {
        let v = Json::Obj(vec![("k".into(), random_json(&mut rng, 2))]);
        let encoded = v.encode();
        let cut = rng.random_range(0..encoded.len());
        // Cut on a char boundary (the wire is &str; byte-level truncation
        // mid-scalar is FrameReader territory, covered above).
        let mut cut_at = cut;
        while !encoded.is_char_boundary(cut_at) {
            cut_at -= 1;
        }
        match Json::parse(&encoded[..cut_at]) {
            Err(e) => assert!(e.at <= cut_at, "error offset {} past input", e.at),
            Ok(parsed) => panic!("truncated object parsed as {parsed:?}"),
        }
    }
}

/// Seeded random garbage bytes: every outcome is `Ok` or a typed
/// `ParseError` with an in-bounds offset — the parser never panics on
/// arbitrary input.
#[test]
fn random_garbage_never_panics() {
    let mut rng = SplitMix64::seed_from_u64(derive_seed(0, "wire-props.garbage"));
    let palette = b"{}[]\",:0123456789.eE+-truefalsnl\\u \t\x7f";
    for _ in 0..PROP_CASES {
        let len = rng.random_range(0..=64usize);
        let garbage: String = (0..len)
            .map(|_| char::from(palette[rng.random_index(palette.len())]))
            .collect();
        if let Err(e) = Json::parse(&garbage) {
            assert!(e.at <= garbage.len());
            assert!(!e.msg.is_empty());
        }
    }
}

/// A float the protocol must carry through a `null`: NaN and ±∞ as often
/// as length-extreme finite values.
fn random_stat(rng: &mut SplitMix64) -> f64 {
    match rng.random_range(0..5u32) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => random_f64(rng),
    }
}

/// A float field the decoder requires to be a number.
fn random_finite(rng: &mut SplitMix64) -> f64 {
    let x = random_f64(rng);
    if x.is_finite() {
        x
    } else {
        0.5
    }
}

/// An id, seed or count: the extremes as often as a random value.
fn random_u64(rng: &mut SplitMix64) -> u64 {
    match rng.random_range(0..3u32) {
        0 => u64::MAX,
        1 => 0,
        _ => rng.next_u64(),
    }
}

fn random_usize(rng: &mut SplitMix64) -> usize {
    random_u64(rng) as usize
}

fn random_summary(rng: &mut SplitMix64) -> BatchSummary {
    let stats = |rng: &mut SplitMix64| {
        (0..rng.random_range(0..=6usize))
            .map(|_| random_stat(rng))
            .collect()
    };
    BatchSummary {
        episodes: random_usize(rng),
        requested: random_usize(rng),
        failed: random_usize(rng),
        panicked: random_usize(rng),
        skipped: random_usize(rng),
        reaching_time: random_stat(rng),
        safe_rate: random_stat(rng),
        eta_mean: random_stat(rng),
        emergency_frequency: random_stat(rng),
        etas: stats(rng),
        reaching_times: stats(rng),
        wall_time_secs: random_finite(rng),
        episodes_per_sec: random_finite(rng),
        cache_hits: random_usize(rng),
        cache_misses: random_usize(rng),
        cache_evictions: random_usize(rng),
        cache_persisted_hits: random_usize(rng),
        cache_quarantined: random_usize(rng),
    }
}

/// One event of every variant, with random fields.
fn random_events(rng: &mut SplitMix64) -> Vec<Event> {
    let partial = |rng: &mut SplitMix64| rng.random_bool(0.5).then(|| random_summary(rng));
    vec![
        Event::Accepted {
            job: random_u64(rng),
            queued_ahead: random_usize(rng),
        },
        Event::EpisodeDone {
            job: random_u64(rng),
            index: random_usize(rng),
            eta: random_stat(rng),
            done: random_usize(rng),
            total: random_usize(rng),
            eta_secs: random_stat(rng),
        },
        Event::BatchDone {
            job: random_u64(rng),
            summary: random_summary(rng),
        },
        Event::Cancelled {
            job: random_u64(rng),
            done: random_usize(rng),
            partial: partial(rng),
        },
        Event::DeadlineExceeded {
            job: random_u64(rng),
            done: random_usize(rng),
            partial: partial(rng),
        },
        Event::EpisodeFault {
            job: random_u64(rng),
            index: random_usize(rng),
            seed: random_u64(rng),
            kind: random_string(rng, 12),
            detail: random_string(rng, 24),
        },
        Event::Overloaded {
            retry_after_ms: random_u64(rng),
        },
        Event::Error {
            code: random_string(rng, 12),
            message: random_string(rng, 24),
        },
        Event::Status {
            jobs: (0..rng.random_range(0..=3usize))
                .map(|_| JobStatus {
                    job: random_u64(rng),
                    state: random_string(rng, 8),
                    done: random_usize(rng),
                    total: random_usize(rng),
                })
                .collect(),
            queue_capacity: random_usize(rng),
            queue_len: random_usize(rng),
        },
        Event::Pong,
        Event::ShutdownAck {
            draining: random_usize(rng),
        },
    ]
}

fn random_comm(rng: &mut SplitMix64) -> CommSetting {
    match rng.random_range(0..3u32) {
        0 => CommSetting::NoDisturbance,
        1 => CommSetting::Delayed {
            delay: random_finite(rng),
            drop_prob: random_finite(rng),
        },
        _ => CommSetting::Lost,
    }
}

fn random_driver(rng: &mut SplitMix64) -> DriverModel {
    match rng.random_range(0..5u32) {
        0 => DriverModel::UniformRandom,
        1 => DriverModel::OrnsteinUhlenbeck {
            theta: random_finite(rng),
            sigma: random_finite(rng),
        },
        2 => DriverModel::ConstantSpeed,
        3 => DriverModel::Ambush {
            brake_at: random_finite(rng),
        },
        _ => DriverModel::GapTracking {
            target_gap: random_finite(rng),
            gain: random_finite(rng),
        },
    }
}

fn random_batch(rng: &mut SplitMix64) -> BatchConfig {
    let template = EpisodeConfig {
        ego_init: VehicleState::new(random_finite(rng), random_finite(rng), random_finite(rng)),
        dt_c: random_finite(rng),
        dt_m: random_finite(rng),
        dt_s: random_finite(rng),
        horizon: random_finite(rng),
        comm: random_comm(rng),
        noise: SensorNoise {
            delta_p: random_finite(rng),
            delta_v: random_finite(rng),
            delta_a: random_finite(rng),
        },
        seed: random_u64(rng),
        sensor_dropout: random_finite(rng),
        others: (0..rng.random_range(1..=3usize))
            .map(|_| OtherVehicle {
                start_shared: random_finite(rng),
                init_speed: random_finite(rng),
                driver: random_driver(rng),
                comm: rng.random_bool(0.5).then(|| random_comm(rng)),
            })
            .collect(),
    };
    BatchConfig {
        template,
        episodes: random_usize(rng),
        base_seed: random_u64(rng),
        starts: (0..rng.random_range(0..=4usize))
            .map(|_| random_finite(rng))
            .collect(),
        threads: random_usize(rng),
    }
}

/// One request of every variant, with random fields.
fn random_requests(rng: &mut SplitMix64) -> Vec<Request> {
    vec![
        Request::SubmitBatch {
            batch: random_batch(rng),
            stack: if rng.random_bool(0.5) {
                StackSpecWire::TeacherConservative
            } else {
                StackSpecWire::TeacherAggressive
            },
            deadline_ms: rng.random_bool(0.5).then(|| random_u64(rng)),
        },
        Request::Status {
            job: rng.random_bool(0.5).then(|| random_u64(rng)),
        },
        Request::Cancel {
            job: random_u64(rng),
        },
        Request::Ping,
        Request::Shutdown,
    ]
}

/// `x` as it comes back from the wire: every non-finite float is `null`
/// there and decodes as NaN.
fn through_null(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        f64::NAN
    }
}

fn summary_through_null(s: &BatchSummary) -> BatchSummary {
    BatchSummary {
        reaching_time: through_null(s.reaching_time),
        safe_rate: through_null(s.safe_rate),
        eta_mean: through_null(s.eta_mean),
        emergency_frequency: through_null(s.emergency_frequency),
        etas: s.etas.iter().copied().map(through_null).collect(),
        reaching_times: s.reaching_times.iter().copied().map(through_null).collect(),
        ..s.clone()
    }
}

/// The event the decoder must return for `ev`.
fn event_through_null(ev: &Event) -> Event {
    match ev.clone() {
        Event::EpisodeDone {
            job,
            index,
            eta,
            done,
            total,
            eta_secs,
        } => Event::EpisodeDone {
            job,
            index,
            eta: through_null(eta),
            done,
            total,
            eta_secs: through_null(eta_secs),
        },
        Event::BatchDone { job, summary } => Event::BatchDone {
            job,
            summary: summary_through_null(&summary),
        },
        Event::Cancelled { job, done, partial } => Event::Cancelled {
            job,
            done,
            partial: partial.as_ref().map(summary_through_null),
        },
        Event::DeadlineExceeded { job, done, partial } => Event::DeadlineExceeded {
            job,
            done,
            partial: partial.as_ref().map(summary_through_null),
        },
        other => other,
    }
}

/// Bit-for-bit equality of two frames: `Debug` prints every float in its
/// shortest round-trip form and keeps the sign of zero, so equal texts
/// are equal bits (all NaNs the decoder returns are the one `f64::NAN`).
fn assert_same_bits<T: std::fmt::Debug>(decoded: &T, expected: &T) {
    assert_eq!(format!("{decoded:?}"), format!("{expected:?}"));
}

/// A frame already waiting in the connection buffer, which the encoders
/// must append after, never overwrite.
const QUEUED: &str = "{\"event\":\"pong\"}\n";

/// Encodes with `encode_into` after [`QUEUED`], checks the bytes against
/// the oracle's, and returns the new frame.
fn encode_after_queued(encode_into: impl FnOnce(&mut String), oracle: String) -> String {
    let mut buf = QUEUED.to_string();
    encode_into(&mut buf);
    assert_eq!(&buf[..QUEUED.len()], QUEUED, "the queued frame was touched");
    let line = buf.split_off(QUEUED.len());
    assert_eq!(line, oracle, "encode_into differs from to_json().encode()");
    line
}

/// `line` with its first key spelled with a `\u` escape for its middle
/// character (`"event"` as `"ev\u0065nt"`), which must decode like the
/// plain key.
fn with_escaped_key(line: &str, key: &str) -> String {
    let plain = format!("{{\"{key}\":");
    let mid = key.len() / 2;
    let escaped = format!(
        "{{\"{}\\u{:04x}{}\":",
        &key[..mid],
        key.as_bytes()[mid],
        &key[mid + 1..]
    );
    assert!(line.starts_with(&plain), "{line}");
    line.replacen(&plain, &escaped, 1)
}

#[test]
fn every_event_encodes_like_its_oracle_and_decodes_bit_for_bit() {
    let mut rng = SplitMix64::seed_from_u64(derive_seed(0, "wire-props.events"));
    for _ in 0..PROP_CASES {
        for ev in random_events(&mut rng) {
            let line = encode_after_queued(|buf| ev.encode_into(buf), ev.to_json().encode());
            let expected = event_through_null(&ev);
            let decoded = Event::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_same_bits(&decoded, &expected);
            let escaped = with_escaped_key(&line, "event");
            let decoded = Event::from_json(&Json::parse(&escaped).unwrap()).unwrap();
            assert_same_bits(&decoded, &expected);
        }
    }
}

#[test]
fn every_request_encodes_like_its_oracle_and_decodes_bit_for_bit() {
    let mut rng = SplitMix64::seed_from_u64(derive_seed(0, "wire-props.requests"));
    for _ in 0..PROP_CASES {
        for req in random_requests(&mut rng) {
            let line = encode_after_queued(|buf| req.encode_into(buf), req.to_json().encode());
            let decoded = Request::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_same_bits(&decoded, &req);
            let escaped = with_escaped_key(&line, "op");
            let decoded = Request::from_json(&Json::parse(&escaped).unwrap()).unwrap();
            assert_same_bits(&decoded, &req);
        }
    }
}

#[test]
fn the_encoders_cover_the_extremes_named_by_the_protocol() {
    // Non-finite statistics are `null`, u64::MAX ids and seeds are exact
    // integers, and strings needing escapes are escaped.
    let ev = Event::EpisodeDone {
        job: u64::MAX,
        index: 3,
        eta: f64::NAN,
        done: 4,
        total: 9,
        eta_secs: f64::NEG_INFINITY,
    };
    let mut line = String::new();
    ev.encode_into(&mut line);
    assert_eq!(
        line,
        "{\"event\":\"episode_done\",\"job\":18446744073709551615,\"index\":3,\
         \"eta\":null,\"done\":4,\"total\":9,\"eta_secs\":null}"
    );
    let ev = Event::EpisodeFault {
        job: 1,
        index: 0,
        seed: u64::MAX,
        kind: "panicked".into(),
        detail: "a \"quoted\"\\path\n\u{1}".into(),
    };
    line.clear();
    ev.encode_into(&mut line);
    assert!(
        line.ends_with(
            "\"seed\":18446744073709551615,\"kind\":\"panicked\",\
             \"detail\":\"a \\\"quoted\\\"\\\\path\\n\\u0001\"}"
        ),
        "{line}"
    );
    let escaped = with_escaped_key(&line, "event");
    assert!(escaped.starts_with("{\"ev\\u0065nt\":"), "{escaped}");
    assert_eq!(
        Event::from_json(&Json::parse(&escaped).unwrap()).unwrap(),
        ev
    );
}
