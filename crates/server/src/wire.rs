//! Hand-rolled JSON encode/parse for the wire protocol.
//!
//! The build environment has no crates.io access, so the service speaks a
//! small, fully self-contained JSON dialect over `std::net` instead of
//! pulling in serde. Two deliberate deviations from RFC 8259, both needed
//! because the simulator's statistics are IEEE floats:
//!
//! * numbers without `.`/`e` parse as [`Json::Int`] (`i128`), so `u64`
//!   seeds round-trip exactly;
//! * [`Json::Num`] encodes via Rust's shortest-roundtrip float formatting,
//!   so every finite `f64` survives encode → parse bit-identically, and the
//!   non-finite values encode as `null` (use [`Json::num_or_null`] /
//!   [`Json::as_f64_lossy`] for fields like a batch's reaching time, which
//!   is NaN when no episode reached the target).
//!
//! Frames are written without a tree: `ObjWriter` appends an object field
//! by field straight into the connection's buffer, through the same
//! helpers (`encode_str`, `encode_f64`, `encode_u64`) that
//! [`Json::encode_into`] uses, so both produce the same bytes. [`Json`]
//! stays as the parsed form and as the encoding oracle: [`Json::parse`]
//! borrows every key and every escape-free string from its input, so
//! decoding a small frame allocates little beyond each object's field
//! list.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::{BufRead, ErrorKind};

/// Upper bound on one newline-delimited frame, in bytes, at both ends of a
/// connection. An oversize line closes the connection: the stream is no
/// longer frame-aligned.
///
/// Generous for the protocol (the largest legitimate frame — a
/// `batch_done` summary with per-episode vectors for an 80k-episode batch —
/// stays under ~2 MiB), while still bounding what a malicious or broken
/// peer can make either end buffer for a single line.
pub const MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// Deepest nesting of arrays and objects [`Json::parse`] accepts.
///
/// The parser recurses once per level, so without a cap one frame of
/// nested `[` could overflow a connection thread's stack and abort the
/// whole daemon. The deepest frame the protocol itself produces nests 6
/// levels (a `submit_batch` with a platoon template: request, batch,
/// template, vehicle list, vehicle, driver model), so the cap leaves ample
/// room while keeping the recursion small.
pub const MAX_DEPTH: usize = 64;

/// A failure while reading one newline-delimited frame.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection at a frame boundary (clean EOF).
    Closed,
    /// The peer closed the connection mid-frame: `partial` bytes of an
    /// unterminated line had arrived. The frame is unusable but the cause
    /// is a transport-level disconnect, not a protocol violation.
    Truncated {
        /// Bytes of the unterminated line that had arrived before EOF.
        partial: usize,
    },
    /// The line exceeded the configured cap before a newline appeared.
    /// The stream is no longer frame-aligned; the connection must be closed.
    TooLong {
        /// The configured limit that was exceeded.
        limit: usize,
    },
    /// The line is not valid UTF-8. The whole line, terminator included,
    /// was consumed, so the stream is still frame-aligned and the next
    /// frame reads normally.
    InvalidUtf8 {
        /// Byte offset of the first invalid sequence within the line.
        at: usize,
    },
    /// An I/O error, including `WouldBlock`/`TimedOut` from read timeouts
    /// (any partial line is retained, so the read can be resumed).
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated { partial } => {
                write!(f, "connection closed mid-frame ({partial} bytes buffered)")
            }
            FrameError::TooLong { limit } => {
                write!(f, "frame exceeds the {limit}-byte limit")
            }
            FrameError::InvalidUtf8 { at } => {
                write!(f, "frame is not valid UTF-8 (invalid byte at offset {at})")
            }
            FrameError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl FrameError {
    /// Whether this error is a read-timeout (`WouldBlock`/`TimedOut`) that
    /// the caller may simply retry (the partial line is retained).
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
        )
    }
}

/// Reads newline-delimited frames with a hard per-frame size cap.
///
/// Both the client and the server read through this: it is what turns a
/// half-delivered line (connection cut mid-frame) into the typed
/// [`FrameError::Truncated`] instead of a silently mis-parsed partial JSON
/// document, a runaway line into [`FrameError::TooLong`] instead of
/// unbounded buffering, and a line that is not UTF-8 into
/// [`FrameError::InvalidUtf8`] instead of a silently repaired string. Read
/// timeouts surface as [`FrameError::Io`] with the partial line retained,
/// so a polling caller resumes where it left off.
pub struct FrameReader<R> {
    inner: R,
    line: Vec<u8>,
    /// `line` holds the frame the last call returned; the next call
    /// clears it first.
    returned: bool,
    max: usize,
}

impl<R: BufRead> FrameReader<R> {
    /// Wraps a buffered reader with the given per-frame byte cap.
    pub fn new(inner: R, max_frame_bytes: usize) -> Self {
        FrameReader {
            inner,
            line: Vec::new(),
            returned: false,
            max: max_frame_bytes.max(1),
        }
    }

    /// Reads the next `\n`-terminated frame (terminator stripped), borrowed
    /// from the reader's line buffer until the next call.
    ///
    /// # Errors
    ///
    /// [`FrameError::Closed`] on clean EOF, [`FrameError::Truncated`] on
    /// EOF mid-line, [`FrameError::TooLong`] when the cap is exceeded,
    /// [`FrameError::InvalidUtf8`] for a complete line that is not UTF-8
    /// (consumed; the next call reads the next frame), and
    /// [`FrameError::Io`] for socket errors (including read timeouts,
    /// which are resumable).
    pub fn read_frame(&mut self) -> Result<&str, FrameError> {
        if std::mem::take(&mut self.returned) {
            self.line.clear();
        }
        loop {
            let buf = match self.inner.fill_buf() {
                Ok(buf) => buf,
                Err(e) => return Err(FrameError::Io(e)),
            };
            if buf.is_empty() {
                return if self.line.is_empty() {
                    Err(FrameError::Closed)
                } else {
                    Err(FrameError::Truncated {
                        partial: self.line.len(),
                    })
                };
            }
            if let Some(nl) = buf.iter().position(|&b| b == b'\n') {
                self.line.extend_from_slice(&buf[..nl]);
                self.inner.consume(nl + 1);
                if self.line.len() > self.max {
                    return Err(FrameError::TooLong { limit: self.max });
                }
                self.returned = true;
                return std::str::from_utf8(&self.line).map_err(|e| FrameError::InvalidUtf8 {
                    at: e.valid_up_to(),
                });
            }
            let n = buf.len();
            self.line.extend_from_slice(buf);
            self.inner.consume(n);
            if self.line.len() > self.max {
                return Err(FrameError::TooLong { limit: self.max });
            }
        }
    }
}

/// A parsed JSON value, borrowing its keys and strings from the parsed
/// text where it can.
///
/// Objects preserve insertion order (encoding is deterministic), and lookup
/// is linear — protocol frames are small.
#[derive(Debug, Clone, PartialEq)]
pub enum Json<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integer literal (no fraction/exponent in the source text).
    Int(i128),
    /// Any other number.
    Num(f64),
    /// String: borrowed from the input unless it held an escape.
    Str(Cow<'a, str>),
    /// Array.
    Arr(Vec<Json<'a>>),
    /// Object, in insertion order.
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
}

/// Error from [`Json::parse`] with the byte offset of the failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub at: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl<'a> Json<'a> {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&'a str, Json<'a>)>) -> Json<'a> {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<Cow<'a, str>>) -> Json<'a> {
        Json::Str(s.into())
    }

    /// Encodes a finite float as a number, or `null` for NaN/±∞.
    pub fn num_or_null(x: f64) -> Json<'a> {
        if x.is_finite() {
            Json::Num(x)
        } else {
            Json::Null
        }
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json<'a>> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen; booleans/strings don't).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Like [`Json::as_f64`] but maps `null` to NaN (inverse of
    /// [`Json::num_or_null`]).
    pub fn as_f64_lossy(&self) -> Option<f64> {
        match self {
            Json::Null => Some(f64::NAN),
            other => other.as_f64(),
        }
    }

    /// The value as a `u64`, if it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json<'a>]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises to compact JSON (no whitespace, one line).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the compact encoding to `out`, so a caller that frames many
    /// values can reuse one buffer instead of allocating per value.
    pub fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => match u64::try_from(*i) {
                Ok(v) => encode_u64(v, out),
                Err(_) => {
                    let _ = write!(out, "{i}");
                }
            },
            Json::Num(x) => encode_f64(*x, out),
            Json::Str(s) => encode_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_str(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value; trailing non-whitespace is an error, and so
    /// is nesting deeper than [`MAX_DEPTH`]. Linear in the input length.
    pub fn parse(input: &'a str) -> Result<Json<'a>, ParseError> {
        let mut p = Parser {
            src: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }
}

/// Appends `s` as a JSON string literal. Each run of bytes between
/// escapes is copied as one slice: the run stops only at `"`, `\` or a
/// control byte, all ASCII, so every run is whole code points.
pub(crate) fn encode_str(s: &str, out: &mut String) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut run = 0;
    while let Some(len) = bytes[run..]
        .iter()
        .position(|&b| matches!(b, b'"' | b'\\' | 0..=0x1F))
    {
        let at = run + len;
        out.push_str(&s[run..at]);
        match bytes[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = at + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends `v` in decimal, without the formatting machinery's overhead.
pub(crate) fn encode_u64(mut v: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Appends `x` by the wire's float rule: Rust's shortest round-trip form,
/// with `.0` added to an integral value so it parses back as a float, and
/// `null` for NaN and ±∞.
pub(crate) fn encode_f64(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{x}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Writes one JSON object straight into a buffer, field by field, without
/// building a [`Json`] tree. The bytes are those [`Json::encode_into`]
/// writes for the object with the same fields in the same order: both go
/// through [`encode_str`], [`encode_u64`] and [`encode_f64`].
pub(crate) struct ObjWriter<'o> {
    out: &'o mut String,
    empty: bool,
}

impl<'o> ObjWriter<'o> {
    /// Opens an object at the end of `out`; [`ObjWriter::end`] closes it.
    pub(crate) fn new(out: &'o mut String) -> Self {
        out.push('{');
        ObjWriter { out, empty: true }
    }

    /// Writes the separator and `key`, returning the buffer for the value.
    /// Keys are protocol identifiers, which [`encode_str`] would copy
    /// unchanged, so they are copied directly.
    fn key(&mut self, key: &str) -> &mut String {
        debug_assert!(
            !key.bytes().any(|b| matches!(b, b'"' | b'\\' | 0..=0x1F)),
            "key {key:?} needs escaping"
        );
        let open = if std::mem::take(&mut self.empty) {
            "\""
        } else {
            ",\""
        };
        self.out.push_str(open);
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    /// A string field.
    pub(crate) fn str(&mut self, key: &str, value: &str) -> &mut Self {
        encode_str(value, self.key(key));
        self
    }

    /// An integer field.
    pub(crate) fn int(&mut self, key: &str, value: u64) -> &mut Self {
        encode_u64(value, self.key(key));
        self
    }

    /// A float field (`null` when not finite).
    pub(crate) fn num(&mut self, key: &str, value: f64) -> &mut Self {
        encode_f64(value, self.key(key));
        self
    }

    /// An array of floats (each `null` when not finite).
    pub(crate) fn nums(&mut self, key: &str, values: &[f64]) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, x) in values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            encode_f64(*x, out);
        }
        out.push(']');
        self
    }

    /// A nested object, written by `fields`.
    pub(crate) fn obj(&mut self, key: &str, fields: impl FnOnce(&mut ObjWriter<'_>)) -> &mut Self {
        let mut inner = ObjWriter::new(self.key(key));
        fields(&mut inner);
        inner.end();
        self
    }

    /// An array of objects, one per item, each written by `fields`.
    pub(crate) fn objs<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut fields: impl FnMut(&mut ObjWriter<'_>, T),
    ) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut inner = ObjWriter::new(out);
            fields(&mut inner, item);
            inner.end();
        }
        out.push(']');
        self
    }

    /// Closes the object.
    pub(crate) fn end(self) {
        self.out.push('}');
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json<'a>) -> Result<Json<'a>, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json<'a>, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`] (the error points at the opening bracket).
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json<'a>, ParseError>,
    ) -> Result<Json<'a>, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json<'a>, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json<'a>, ParseError> {
        self.expect(b'{')?;
        // Room for a typical frame's fields, so an object of up to eight
        // costs one allocation rather than an allocation and a regrowth.
        let mut pairs = Vec::with_capacity(8);
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// Parses a string literal, borrowing it from the input when it holds
    /// no escape. Otherwise each run of bytes between escapes is copied as
    /// one slice: the run stops only at `"`, `\` or a control byte, all
    /// ASCII, so on `&str` input every run is whole code points.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut out = String::new();
        let mut escaped = false;
        loop {
            let run = self.pos;
            let len = self.bytes[run..]
                .iter()
                .position(|&b| matches!(b, b'"' | b'\\' | 0..=0x1F))
                .unwrap_or(self.bytes.len() - run);
            self.pos += len;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    if !escaped {
                        return Ok(Cow::Borrowed(&self.src[start..self.pos - 1]));
                    }
                    out.push_str(&self.src[run..self.pos - 1]);
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    escaped = true;
                    out.push_str(&self.src[run..self.pos]);
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        c => return Err(self.err(format!("bad escape '\\{}'", c as char))),
                    }
                }
                Some(_) => return Err(self.err("unescaped control character")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json<'a>, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // Every byte scanned is ASCII, so both ends are char boundaries.
        let text = &self.src[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| self.err(format!("invalid number '{text}'")))
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| self.err(format!("invalid integer '{text}'")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_rng::{Rng, SplitMix64};

    /// Asserts that `v` survives encode → parse unchanged and that its
    /// encoding is a fixed point.
    fn roundtrip(v: &Json) {
        let text = v.encode();
        let back = Json::parse(&text).expect("roundtrip parse");
        assert_eq!(back, *v, "{text}");
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(-42),
            Json::Int(u64::MAX as i128),
            Json::Num(0.1),
            Json::Num(-1.5e-12),
            Json::Num(3.0),
            Json::str(""),
            Json::str("plain"),
        ] {
            roundtrip(&v);
        }
    }

    #[test]
    fn u64_seeds_roundtrip_exactly() {
        let seed = 0xDEAD_BEEF_F00D_D00Du64;
        let text = Json::Int(seed as i128).encode();
        assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(seed));
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        assert_eq!(Json::num_or_null(f64::NAN).encode(), "null");
        assert_eq!(Json::num_or_null(f64::INFINITY).encode(), "null");
        assert!(Json::parse("null")
            .unwrap()
            .as_f64_lossy()
            .unwrap()
            .is_nan());
    }

    #[test]
    fn escapes_roundtrip() {
        let nasty = "quote\" backslash\\ newline\n tab\t nul-adjacent\u{01} émoji🚗 slash/";
        roundtrip(&Json::str(nasty));
        assert_eq!(
            Json::parse(r#""\u0041\u00e9\ud83d\ude00""#).unwrap(),
            Json::str("Aé😀")
        );
    }

    #[test]
    fn structures_parse_with_whitespace() {
        let v = Json::parse(" { \"a\" : [ 1 , 2.5 , null ] , \"b\" : { } } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b"), Some(&Json::Obj(vec![])));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
    }

    #[test]
    fn malformed_inputs_error_without_panic() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "01x",
            "1.2.3",
            "{\"a\" 1}",
            "[1 2]",
            "\"\\q\"",
            "\"\\ud800\"",
            "nullx",
            "--1",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn multibyte_characters_next_to_escapes_survive_the_run_scan() {
        // 2-, 3- and 4-byte characters directly before and after escapes.
        for c in ['é', '→', '🚗'] {
            let text = format!(r#""{c}\n{c}\"{c}\u00e9{c}\\{c}""#);
            let expected = format!("{c}\n{c}\"{c}é{c}\\{c}");
            assert_eq!(Json::parse(&text).unwrap(), Json::str(expected), "{text}");
        }
        assert_eq!(Json::parse(r#""\t🚗""#).unwrap(), Json::str("\t🚗"));
        assert_eq!(Json::parse(r#""🚗\t""#).unwrap(), Json::str("🚗\t"));
    }

    #[test]
    fn control_characters_are_rejected_at_their_own_offset() {
        // The raw tab sits at byte 1 (quote) + 2 (é) + 2 (the `\n`
        // escape) + 2 (ab) = 7.
        let text = "\"é\\nab\tcd\"";
        let err = Json::parse(text).unwrap_err();
        assert_eq!(err.at, 7, "{err}");
        assert_eq!(&text[err.at..err.at + 1], "\t");
        assert!(err.msg.contains("control"), "{err}");
        let err = Json::parse("[\"ok\",\"x\u{1F}\"]").unwrap_err();
        assert_eq!(err.at, 8, "{err}");
    }

    #[test]
    fn unterminated_strings_are_rejected_at_the_end() {
        for text in ["\"abc", "\"é→🚗", "\"ab\\n", "{\"k\":\"v"] {
            let err = Json::parse(text).unwrap_err();
            assert_eq!(err.at, text.len(), "{text:?}: {err}");
            assert!(err.msg.contains("unterminated"), "{text:?}: {err}");
        }
        // A trailing backslash has no escape to decode.
        assert!(Json::parse("\"ab\\").is_err());
    }

    #[test]
    fn string_parsing_is_linear_in_its_length() {
        // 4 MiB of mixed runs and escapes; a parser that revisits the rest
        // of the input per character would take minutes here.
        let unit = "abcé→🚗\\n\\\"x";
        let body = unit.repeat((4 << 20) / unit.len());
        let text = format!("{{\"k\":\"{body}\"}}");
        let start = std::time::Instant::now();
        let parsed = Json::parse(&text).unwrap();
        let elapsed = start.elapsed();
        let expected = "abcé→🚗\n\"x".repeat((4 << 20) / unit.len());
        assert_eq!(
            parsed.get("k").and_then(Json::as_str),
            Some(expected.as_str())
        );
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "4 MiB string took {elapsed:?}"
        );
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |depth: usize, open: &str, close: &str| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let at_cap = nest(MAX_DEPTH, open, close).replace(":}", ":0}");
            assert!(Json::parse(&at_cap).is_ok(), "depth {MAX_DEPTH} must parse");
            let over = nest(MAX_DEPTH + 1, open, close).replace(":}", ":0}");
            let err = Json::parse(&over).unwrap_err();
            assert_eq!(err.at, MAX_DEPTH * open.len(), "{err}");
            assert!(err.msg.contains("nesting"), "{err}");
        }
        // Far past the cap is the same typed error, not a stack overflow.
        let deep = "[".repeat(100_000);
        assert!(Json::parse(&deep).unwrap_err().msg.contains("nesting"));
    }

    fn random_json(rng: &mut SplitMix64, depth: usize) -> Json<'static> {
        let pick = if depth == 0 {
            rng.random_range(0..5usize)
        } else {
            rng.random_range(0..7usize)
        };
        match pick {
            0 => Json::Null,
            1 => Json::Bool(rng.random_bool(0.5)),
            2 => Json::Int(rng.next_u64() as i128 - (rng.next_u64() as i128)),
            3 => {
                // Random finite double from raw bits.
                let mut x = f64::from_bits(rng.next_u64());
                if !x.is_finite() {
                    x = rng.random_range(-1e9..1e9);
                }
                Json::Num(x)
            }
            4 => {
                let len = rng.random_range(0..12usize);
                Json::str(
                    (0..len)
                        .map(|_| char::from_u32(rng.random_range(1u32..0xD7FF)).unwrap_or('x'))
                        .collect::<String>(),
                )
            }
            5 => {
                let len = rng.random_range(0..4usize);
                Json::Arr((0..len).map(|_| random_json(rng, depth - 1)).collect())
            }
            _ => {
                let len = rng.random_range(0..4usize);
                Json::Obj(
                    (0..len)
                        .map(|i| (format!("k{i}").into(), random_json(rng, depth - 1)))
                        .collect(),
                )
            }
        }
    }

    cv_rng::props! {
        fn random_values_roundtrip_bit_identically(seed in 0u64..1_000_000) {
            let mut rng = SplitMix64::seed_from_u64(seed);
            // Bit-identical floats, not just PartialEq (which this also is).
            roundtrip(&random_json(&mut rng, 3));
        }
    }

    mod frame_reader {
        use super::super::{FrameError, FrameReader};
        use std::io::{BufReader, Read};

        fn reader(bytes: &[u8], max: usize) -> FrameReader<BufReader<&[u8]>> {
            FrameReader::new(BufReader::new(bytes), max)
        }

        #[test]
        fn splits_frames_and_reports_clean_eof() {
            let mut r = reader(b"one\ntwo\n", 64);
            assert_eq!(r.read_frame().unwrap(), "one");
            assert_eq!(r.read_frame().unwrap(), "two");
            assert!(matches!(r.read_frame(), Err(FrameError::Closed)));
        }

        #[test]
        fn eof_mid_line_is_truncated_not_a_frame() {
            let mut r = reader(b"complete\n{\"op\":\"pi", 64);
            assert_eq!(r.read_frame().unwrap(), "complete");
            match r.read_frame() {
                Err(FrameError::Truncated { partial }) => assert_eq!(partial, "{\"op\":\"pi".len()),
                other => panic!("expected Truncated, got {other:?}"),
            }
        }

        #[test]
        fn oversize_line_is_too_long_never_buffered_unboundedly() {
            let big = vec![b'x'; 300];
            let mut r = reader(&big, 64);
            match r.read_frame() {
                Err(FrameError::TooLong { limit }) => assert_eq!(limit, 64),
                other => panic!("expected TooLong, got {other:?}"),
            }
            // A terminated line just over the cap is also rejected.
            let mut line = vec![b'y'; 65];
            line.push(b'\n');
            let mut r = reader(&line, 64);
            assert!(matches!(r.read_frame(), Err(FrameError::TooLong { .. })));
            // At exactly the cap it passes.
            let mut line = vec![b'z'; 64];
            line.push(b'\n');
            let mut r = reader(&line, 64);
            assert_eq!(r.read_frame().unwrap().len(), 64);
        }

        #[test]
        fn invalid_utf8_is_a_typed_error_and_the_next_frame_reads() {
            let mut bytes = b"{\"x\":\"\xff\"}\nok\n".to_vec();
            bytes.extend_from_slice(b"ab\xe2\x82\nnext\n");
            let mut r = reader(&bytes, 64);
            assert!(matches!(
                r.read_frame(),
                Err(FrameError::InvalidUtf8 { at: 6 })
            ));
            assert_eq!(r.read_frame().unwrap(), "ok");
            assert!(matches!(
                r.read_frame(),
                Err(FrameError::InvalidUtf8 { at: 2 })
            ));
            assert_eq!(r.read_frame().unwrap(), "next");
            assert!(matches!(r.read_frame(), Err(FrameError::Closed)));
        }

        /// A reader that yields `WouldBlock` between two halves of a line,
        /// like a socket read timeout mid-frame.
        struct Stutter {
            parts: Vec<Vec<u8>>,
            blocked: bool,
        }

        impl Read for Stutter {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if !self.blocked {
                    self.blocked = true;
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WouldBlock,
                        "stutter",
                    ));
                }
                self.blocked = false;
                match self.parts.first_mut() {
                    None => Ok(0),
                    Some(part) => {
                        let n = part.len().min(buf.len());
                        buf[..n].copy_from_slice(&part[..n]);
                        part.drain(..n);
                        if part.is_empty() {
                            self.parts.remove(0);
                        }
                        Ok(n)
                    }
                }
            }
        }

        #[test]
        fn timeouts_retain_the_partial_line_and_resume() {
            let stutter = Stutter {
                parts: vec![b"hel".to_vec(), b"lo\n".to_vec()],
                blocked: false,
            };
            let mut r = FrameReader::new(BufReader::new(stutter), 64);
            let mut timeouts = 0;
            loop {
                match r.read_frame() {
                    Ok(frame) => {
                        assert_eq!(frame, "hello");
                        break;
                    }
                    Err(e) if e.is_timeout() => timeouts += 1,
                    Err(other) => panic!("unexpected error {other:?}"),
                }
            }
            assert!(timeouts >= 2, "saw {timeouts} timeouts");
        }
    }
}
