//! Property-style tests for the wire codec: seeded random JSON values
//! round-trip bit-identically, protocol payloads survive size and UTF-8
//! extremes, and malformed input always yields a typed error — never a
//! panic, never an unbounded buffer.

use std::io::BufReader;

use cv_rng::{derive_seed, Rng, SplitMix64, PROP_CASES};
use cv_server::wire::Json;
use cv_server::{
    protocol::{batch_from_json, batch_to_json},
    FrameError, FrameReader, MAX_FRAME_BYTES,
};
use cv_sim::{BatchConfig, EpisodeConfig};

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
fn random_json(rng: &mut SplitMix64, depth: usize) -> Json {
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
        4 => Json::Str(random_string(rng, 24)),
        5 => Json::Arr(
            (0..rng.random_range(0..=4usize))
                .map(|_| random_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.random_range(0..=4usize))
                .map(|i| {
                    (
                        format!("{}{i}", random_string(rng, 8)),
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
    let decoded = batch_from_json(&Json::parse(&line).unwrap()).unwrap();
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
        let v = Json::Obj(vec![("k".to_string(), random_json(&mut rng, 2))]);
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
