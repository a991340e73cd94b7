//! Crash-safe persistent tier for the result cache.
//!
//! Layout: a cache directory holds append-only segment files
//! (`seg-00000000.seg`, `seg-00000001.seg`, …). Each segment starts with a
//! fixed header — magic, format version, and a caller-supplied salt (the
//! stack digest of the binary that wrote it) — followed by length-prefixed,
//! CRC64-checksummed records. Records are `CacheKey` + an opaque value
//! encoding supplied by [`PersistValue`].
//!
//! Recovery invariants (DESIGN.md §17):
//!
//! - A record is served only if its CRC verifies. Torn tails (incomplete
//!   record at the end of the *last* segment — the expected shape after
//!   `kill -9` mid-append) are truncated and the segment reused.
//! - Anything else that fails to parse — bad header CRC, a corrupt record
//!   in the middle, a torn record in a *sealed* segment — quarantines the
//!   whole segment to `<name>.bad`; the records that verified before the
//!   fault stay loaded.
//! - A header that verifies but carries a different format version or salt
//!   is *stale*: skipped and counted, never misread and never renamed.
//!
//! Writes go through a bounded write-behind queue drained by one background
//! thread, so an insert never blocks its caller on disk I/O. Any
//! I/O error flips a sticky `degraded` flag: the cache keeps serving from
//! memory and counts every shed record instead of propagating the failure.

use crate::{CacheKey, CacheStats, Lru};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// CRC-64/XZ (reflected ECMA-182) — the variant used by xz-utils.
/// Check value: `crc64(b"123456789") == 0x995D_C9BB_DF19_39FA`.
const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

const CRC64_TABLE: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ CRC64_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-64/XZ over `bytes`.
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    for &b in bytes {
        crc = CRC64_TABLE[((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Segment file magic: identifies the file as a cv-cache segment.
pub const SEGMENT_MAGIC: [u8; 8] = *b"CVCACHE\0";
/// Bumped whenever the record or header layout changes; headers carrying a
/// different version are refused as stale, never misread.
pub const FORMAT_VERSION: u32 = 1;
/// Header layout: magic (8) | version u32 LE (4) | salt.hi u64 LE (8) |
/// salt.lo u64 LE (8) | crc64 over the preceding 28 bytes (8).
pub const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8;

const LEN_BYTES: usize = 4;
const KEY_BYTES: usize = 16;
const CRC_BYTES: usize = 8;
/// Upper bound on a single record body; anything larger in a length prefix
/// is treated as corruption rather than an allocation request.
pub const MAX_RECORD_BYTES: usize = 1 << 20;

/// Rotate the active segment once it grows past this many bytes.
const SEGMENT_ROTATE_BYTES: u64 = 8 << 20;
/// Bounded depth of the write-behind queue; `insert` sheds (memory-only)
/// rather than block when the writer falls this far behind.
const WRITE_QUEUE_DEPTH: usize = 1024;

/// Encode a segment header for `salt`.
pub fn encode_header(salt: CacheKey) -> [u8; HEADER_LEN] {
    let mut out = [0u8; HEADER_LEN];
    out[..8].copy_from_slice(&SEGMENT_MAGIC);
    out[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    out[12..20].copy_from_slice(&salt.hi.to_le_bytes());
    out[20..28].copy_from_slice(&salt.lo.to_le_bytes());
    let crc = crc64(&out[..28]);
    out[28..36].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Outcome of validating a segment header against the current salt.
#[derive(Debug, PartialEq, Eq)]
pub enum HeaderParse {
    /// Header verifies and matches the current format version + salt.
    Ok,
    /// Header verifies but was written by a different binary (version or
    /// salt mismatch): refuse to read, leave the file alone.
    Stale,
    /// Fewer than `HEADER_LEN` bytes: the file was killed mid-create.
    Torn,
    /// Bad magic or bad CRC: the file is not a trustworthy segment.
    Corrupt { reason: &'static str },
}

/// Validate `data`'s segment header against `salt`.
pub fn parse_header(data: &[u8], salt: CacheKey) -> HeaderParse {
    if data.len() < HEADER_LEN {
        return HeaderParse::Torn;
    }
    let stored = u64::from_le_bytes(data[28..36].try_into().unwrap());
    if crc64(&data[..28]) != stored {
        return HeaderParse::Corrupt {
            reason: "segment header checksum mismatch",
        };
    }
    if data[..8] != SEGMENT_MAGIC {
        return HeaderParse::Corrupt {
            reason: "bad segment magic",
        };
    }
    let version = u32::from_le_bytes(data[8..12].try_into().unwrap());
    let hi = u64::from_le_bytes(data[12..20].try_into().unwrap());
    let lo = u64::from_le_bytes(data[20..28].try_into().unwrap());
    if version != FORMAT_VERSION || hi != salt.hi || lo != salt.lo {
        return HeaderParse::Stale;
    }
    HeaderParse::Ok
}

/// Encode one record: `[body_len u32 LE][key.hi][key.lo][value][crc64 LE]`
/// where `body_len = 16 + value.len()` and the CRC covers everything before
/// it (length prefix included).
pub fn encode_record(key: CacheKey, value: &[u8]) -> Vec<u8> {
    let body_len = (KEY_BYTES + value.len()) as u32;
    let mut out = Vec::with_capacity(LEN_BYTES + KEY_BYTES + value.len() + CRC_BYTES);
    out.extend_from_slice(&body_len.to_le_bytes());
    out.extend_from_slice(&key.hi.to_le_bytes());
    out.extend_from_slice(&key.lo.to_le_bytes());
    out.extend_from_slice(value);
    let crc = crc64(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Outcome of parsing one record at `offset`.
#[derive(Debug, PartialEq, Eq)]
pub enum RecordParse<'a> {
    /// A verified record; `next` is the offset of the following one.
    Ok {
        key: CacheKey,
        value: &'a [u8],
        next: usize,
    },
    /// `offset` is exactly the end of the data: a clean boundary.
    End,
    /// The data ends mid-record: the shape `kill -9` mid-append leaves.
    Torn,
    /// The bytes at `offset` cannot be a record that was ever fully
    /// written: implausible length or checksum mismatch.
    Corrupt { reason: &'static str },
}

/// Parse the record starting at `offset` in `data`.
pub fn parse_record(data: &[u8], offset: usize) -> RecordParse<'_> {
    let rest = &data[offset.min(data.len())..];
    if rest.is_empty() {
        return RecordParse::End;
    }
    if rest.len() < LEN_BYTES {
        return RecordParse::Torn;
    }
    let body_len = u32::from_le_bytes(rest[..LEN_BYTES].try_into().unwrap()) as usize;
    if !(KEY_BYTES..=MAX_RECORD_BYTES).contains(&body_len) {
        return RecordParse::Corrupt {
            reason: "implausible record length",
        };
    }
    let total = LEN_BYTES + body_len + CRC_BYTES;
    if rest.len() < total {
        return RecordParse::Torn;
    }
    let stored = u64::from_le_bytes(rest[LEN_BYTES + body_len..total].try_into().unwrap());
    if crc64(&rest[..LEN_BYTES + body_len]) != stored {
        return RecordParse::Corrupt {
            reason: "record checksum mismatch",
        };
    }
    let hi = u64::from_le_bytes(rest[LEN_BYTES..LEN_BYTES + 8].try_into().unwrap());
    let lo = u64::from_le_bytes(rest[LEN_BYTES + 8..LEN_BYTES + 16].try_into().unwrap());
    RecordParse::Ok {
        key: CacheKey { hi, lo },
        value: &rest[LEN_BYTES + KEY_BYTES..LEN_BYTES + body_len],
        next: offset + total,
    }
}

/// A value the persistent tier knows how to write out and read back.
pub trait PersistValue: Sized {
    /// Append the encoding of `self` to `out`. Return `false` if this
    /// particular value is not persistable (it is then kept memory-only
    /// without counting as degradation).
    fn encode_persist(&self, out: &mut Vec<u8>) -> bool;
    /// Decode a value previously written by `encode_persist`. `None` means
    /// the bytes are not a valid encoding (treated as segment corruption —
    /// the CRC already verified, so this is a logic-level mismatch).
    fn decode_persist(bytes: &[u8]) -> Option<Self>;
    /// Weight to charge the in-memory LRU when reloading this value.
    fn reload_weight(&self) -> usize;
}

/// Storage abstraction under the segment store: the real directory-backed
/// implementation is [`DirIo`]; tests substitute [`MemIo`] and wrap either
/// in [`FaultIo`] for deterministic disk-fault injection.
pub trait SegmentIo {
    /// All file names present (segments, quarantined `.bad`, anything).
    fn list(&self) -> io::Result<Vec<String>>;
    /// Read a whole file.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;
    /// Create `name` with `header` as its initial contents and durably
    /// flush it, so a crash can never leave a headerless segment behind.
    fn create(&self, name: &str, header: &[u8]) -> io::Result<()>;
    /// Append `data`, returning how many bytes actually landed (a short
    /// write is reported, not hidden).
    fn append(&self, name: &str, data: &[u8]) -> io::Result<usize>;
    /// Durably flush `name`.
    fn sync(&self, name: &str) -> io::Result<()>;
    /// Truncate `name` to `len` bytes (torn-tail repair).
    fn truncate(&self, name: &str, len: u64) -> io::Result<()>;
    /// Rename `name` out of the segment namespace to `<name>.bad`.
    fn quarantine(&self, name: &str) -> io::Result<()>;
}

/// Directory-backed [`SegmentIo`].
pub struct DirIo {
    dir: PathBuf,
}

impl DirIo {
    pub fn new(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
        })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl SegmentIo for DirIo {
    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Ok(name) = entry.file_name().into_string() {
                names.push(name);
            }
        }
        Ok(names)
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.path(name))
    }

    fn create(&self, name: &str, header: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::File::create(self.path(name))?;
        f.write_all(header)?;
        f.sync_all()
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<usize> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(self.path(name))?;
        f.write_all(data)?;
        Ok(data.len())
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        std::fs::File::open(self.path(name))?.sync_all()
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.path(name))?;
        f.set_len(len)
    }

    fn quarantine(&self, name: &str) -> io::Result<()> {
        std::fs::rename(self.path(name), self.path(&format!("{name}.bad")))
    }
}

/// In-memory [`SegmentIo`] for tests. `Clone` shares the backing map, so a
/// cloned handle observes writes made through the original — the idiom for
/// "reopen the same directory" in crash-recovery tests.
#[derive(Clone, Default)]
pub struct MemIo {
    files: Arc<Mutex<HashMap<String, Vec<u8>>>>,
}

impl MemIo {
    pub fn new() -> Self {
        Self::default()
    }

    /// Raw bytes of `name`, if present (includes `.bad` files).
    pub fn raw(&self, name: &str) -> Option<Vec<u8>> {
        self.files.lock().unwrap().get(name).cloned()
    }

    /// Overwrite `name` with `bytes` (test-side corruption injection).
    pub fn set_raw(&self, name: &str, bytes: Vec<u8>) {
        self.files.lock().unwrap().insert(name.to_string(), bytes);
    }
}

impl SegmentIo for MemIo {
    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self.files.lock().unwrap().keys().cloned().collect())
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.files
            .lock()
            .unwrap()
            .get(name)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_string()))
    }

    fn create(&self, name: &str, header: &[u8]) -> io::Result<()> {
        self.files
            .lock()
            .unwrap()
            .insert(name.to_string(), header.to_vec());
        Ok(())
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<usize> {
        let mut files = self.files.lock().unwrap();
        let file = files
            .get_mut(name)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_string()))?;
        file.extend_from_slice(data);
        Ok(data.len())
    }

    fn sync(&self, _name: &str) -> io::Result<()> {
        Ok(())
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let mut files = self.files.lock().unwrap();
        let file = files
            .get_mut(name)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_string()))?;
        file.truncate(len as usize);
        Ok(())
    }

    fn quarantine(&self, name: &str) -> io::Result<()> {
        let mut files = self.files.lock().unwrap();
        let bytes = files
            .remove(name)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_string()))?;
        files.insert(format!("{name}.bad"), bytes);
        Ok(())
    }
}

/// One deterministic disk-fault kind, in the spirit of the cv-chaos
/// network-fault matrix: every kind maps to a distinct failure surface of
/// the [`SegmentIo`] contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// Appends land only a seeded prefix of the buffer.
    ShortWrite,
    /// Appends fail with "no space left on device"; creates fail on a
    /// seeded subset so some seeds exercise degraded-from-open.
    Enospc,
    /// `sync` always fails.
    FsyncFail,
    /// Reads flip one seeded byte.
    ReadCorrupt,
    /// Reads lose a seeded number of trailing bytes — the on-disk shape of
    /// a crash mid-append.
    TornTail,
}

// A tiny seeded generator so this crate stays dependency-free (cv-rng would
// be a cycle: rng has no deps, but cache must stay usable from rng tests).
// Same SplitMix64 constants as cv-rng.
struct FaultRng(u64);

impl FaultRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn roll(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Deterministic fault-injecting wrapper around any [`SegmentIo`].
pub struct FaultIo<I> {
    inner: I,
    fault: DiskFault,
    rng: Mutex<FaultRng>,
}

impl<I: SegmentIo> FaultIo<I> {
    /// The seed is salted with a fixed label so the schedule is decoupled
    /// from any episode-level streams derived from the same root seed.
    pub fn new(inner: I, fault: DiskFault, seed: u64) -> Self {
        let salted = seed ^ crc64(b"cv-cache.disk-fault");
        Self {
            inner,
            fault,
            rng: Mutex::new(FaultRng(salted)),
        }
    }

    fn enospc() -> io::Error {
        io::Error::other("no space left on device (injected)")
    }
}

impl<I: SegmentIo> SegmentIo for FaultIo<I> {
    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let mut data = self.inner.read(name)?;
        let mut rng = self.rng.lock().unwrap();
        match self.fault {
            DiskFault::ReadCorrupt if !data.is_empty() => {
                let pos = ((rng.roll() * data.len() as f64) as usize).min(data.len() - 1);
                let mask = (rng.next_u64() & 0xFF) as u8 | 1;
                data[pos] ^= mask;
            }
            DiskFault::TornTail if !data.is_empty() => {
                let cut = (1 + (rng.roll() * 40.0) as usize).min(data.len());
                data.truncate(data.len() - cut);
            }
            _ => {}
        }
        Ok(data)
    }

    fn create(&self, name: &str, header: &[u8]) -> io::Result<()> {
        if self.fault == DiskFault::Enospc && self.rng.lock().unwrap().roll() < 0.25 {
            return Err(Self::enospc());
        }
        self.inner.create(name, header)
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<usize> {
        match self.fault {
            DiskFault::Enospc => Err(Self::enospc()),
            DiskFault::ShortWrite => {
                let k = {
                    let mut rng = self.rng.lock().unwrap();
                    (rng.roll() * data.len() as f64) as usize
                };
                self.inner.append(name, &data[..k])?;
                Ok(k)
            }
            _ => self.inner.append(name, data),
        }
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        if self.fault == DiskFault::FsyncFail {
            return Err(io::Error::other("fsync failed (injected)"));
        }
        self.inner.sync(name)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }

    fn quarantine(&self, name: &str) -> io::Result<()> {
        self.inner.quarantine(name)
    }
}

/// A segment quarantined during recovery: where and why.
#[derive(Debug, Clone)]
pub struct SegmentFault {
    /// Segment file name (before the `.bad` rename).
    pub segment: String,
    /// Byte offset of the first unreadable structure.
    pub offset: u64,
    /// Human-readable reason.
    pub reason: String,
}

/// What the startup scan found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Segments examined (quarantined and stale ones included).
    pub segments: usize,
    /// Records reloaded into the in-memory tier.
    pub loaded: usize,
    /// Bytes cut off torn tails.
    pub truncated_bytes: u64,
    /// Segments refused for version/salt mismatch (left in place).
    pub stale: usize,
    /// Segments renamed to `.bad`, with offset and reason.
    pub quarantined: Vec<SegmentFault>,
    /// True when the store could not arm an active segment and came up
    /// memory-only.
    pub degraded: bool,
}

fn segment_name(index: u64) -> String {
    format!("seg-{index:08}.seg")
}

fn segment_index(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

enum WriteCmd {
    Record(Vec<u8>),
    Flush(SyncSender<bool>),
}

struct PersistHandle<V> {
    tx: Option<SyncSender<WriteCmd>>,
    handle: Option<JoinHandle<()>>,
    degraded: Arc<AtomicBool>,
    shed: Arc<AtomicU64>,
    bytes_persisted: Arc<AtomicU64>,
    /// `V`'s record encoding, taken where [`PersistValue`] is known, so
    /// that inserting needs only `V: Clone`.
    encode: fn(&V, &mut Vec<u8>) -> bool,
}

impl<V> Drop for PersistHandle<V> {
    fn drop(&mut self) {
        self.tx = None; // close the channel so the writer drains and exits
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[derive(Clone)]
struct Stored<V> {
    value: V,
    persisted: bool,
}

/// The persistent cache: one memory-bounded LRU, read-through, behind one
/// mutex, with an optional write-behind segment store underneath. The
/// whole `total_bytes` budget is the LRU's: inserting past it evicts the
/// least-recently-used entries, and an entry heavier than the whole budget
/// is refused. Values are returned by clone, so an entry evicted after a
/// reader fetched it stays valid in the reader's hands. Constructed via
/// [`PersistentCache::new`] (memory-only, zero overhead — the write path
/// does not exist) or [`PersistentCache::open`] /
/// [`PersistentCache::open_with_io`] (disk-backed with crash recovery).
pub struct PersistentCache<V> {
    mem: Mutex<Lru<Stored<V>>>,
    persist: Option<PersistHandle<V>>,
}

impl<V: Clone> PersistentCache<V> {
    /// An upper bound on the resident bytes the memory tier spends on one
    /// entry whose value owns no heap memory: the value, its LRU
    /// bookkeeping, and its shares of the map and of the recency index.
    /// Weighing each entry as this plus the heap its value owns makes the
    /// byte budget a bound on the tier's resident bytes.
    pub const ENTRY_BYTES: usize = Lru::<Stored<V>>::ENTRY_BYTES;

    /// Memory-only cache holding at most `total_bytes` of entry weight.
    pub fn new(total_bytes: usize) -> Self {
        Self {
            mem: Mutex::new(Lru::new(total_bytes)),
            persist: None,
        }
    }

    fn mem(&self) -> MutexGuard<'_, Lru<Stored<V>>> {
        self.mem.lock().expect("cache lock poisoned")
    }

    /// Look up `key`, refreshing its LRU position.
    pub fn get(&self, key: &CacheKey) -> Option<V> {
        self.mem().get(key).map(|s| s.value)
    }

    /// Like [`get`](Self::get), but also reports whether the entry was
    /// reloaded from disk at startup (a *persisted* hit) rather than
    /// inserted this process lifetime.
    pub fn get_entry(&self, key: &CacheKey) -> Option<(V, bool)> {
        self.mem().get(key).map(|s| (s.value, s.persisted))
    }

    /// Insert into the memory tier and enqueue a background append. The
    /// enqueue never blocks: a full queue or a degraded store sheds the
    /// record (memory-only) and counts it.
    pub fn insert(&self, key: CacheKey, value: V, weight: usize) {
        if let Some(p) = self.persist.as_ref() {
            let mut buf = Vec::new();
            if (p.encode)(&value, &mut buf) {
                if p.degraded.load(Ordering::Relaxed) {
                    p.shed.fetch_add(1, Ordering::Relaxed);
                } else if let Some(tx) = p.tx.as_ref() {
                    match tx.try_send(WriteCmd::Record(encode_record(key, &buf))) {
                        Ok(()) => {}
                        Err(TrySendError::Full(_)) => {
                            // Back-pressure shed: not sticky — the writer
                            // may catch up.
                            p.shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(TrySendError::Disconnected(_)) => {
                            p.degraded.store(true, Ordering::Relaxed);
                            p.shed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
        self.mem().insert(
            key,
            Stored {
                value,
                persisted: false,
            },
            weight,
        );
    }

    /// Total evictions since construction.
    pub fn evictions(&self) -> u64 {
        self.mem().stats().evictions
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.mem().stats().entries
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once any disk fault has flipped the store to memory-only.
    pub fn degraded(&self) -> bool {
        self.persist
            .as_ref()
            .is_some_and(|p| p.degraded.load(Ordering::Relaxed))
    }

    /// Counter snapshot; the persistent tier overlays its two counters on
    /// the memory tier's.
    pub fn stats(&self) -> CacheStats {
        let mut stats = self.mem().stats();
        if let Some(p) = self.persist.as_ref() {
            stats.bytes_persisted = p.bytes_persisted.load(Ordering::Relaxed);
            stats.degraded = p.shed.load(Ordering::Relaxed);
        }
        stats
    }

    /// Block until every queued record is on disk and synced. Returns
    /// `false` if the store is (or just became) degraded. Memory-only
    /// stores trivially return `true`.
    pub fn flush(&self) -> bool {
        let Some(p) = self.persist.as_ref() else {
            return true;
        };
        let Some(tx) = p.tx.as_ref() else { return true };
        let (ack_tx, ack_rx) = sync_channel(1);
        if tx.send(WriteCmd::Flush(ack_tx)).is_err() {
            return false;
        }
        ack_rx.recv().unwrap_or(false)
    }
}

impl<V: Clone + PersistValue> PersistentCache<V> {
    /// Open (or create) a directory-backed store at `dir`.
    pub fn open(
        dir: &Path,
        total_bytes: usize,
        salt: CacheKey,
    ) -> io::Result<(Self, RecoveryReport)> {
        Self::open_with_io(DirIo::new(dir)?, total_bytes, salt)
    }

    /// Open a store over any [`SegmentIo`]. Errors only if the directory
    /// itself cannot be listed; every per-segment fault degrades instead.
    pub fn open_with_io<I: SegmentIo + Send + 'static>(
        io: I,
        total_bytes: usize,
        salt: CacheKey,
    ) -> io::Result<(Self, RecoveryReport)> {
        let mut mem = Lru::new(total_bytes);
        let mut report = RecoveryReport::default();

        let mut names: Vec<String> = io
            .list()?
            .into_iter()
            .filter(|n| n.ends_with(".seg"))
            .collect();
        names.sort();
        let mut next_index = names
            .iter()
            .filter_map(|n| segment_index(n))
            .max()
            .map_or(0, |i| i + 1);

        // (name, byte length) of the last segment that survived the scan
        // intact and matches our salt — the candidate to keep appending to.
        let mut reusable: Option<(String, u64)> = None;

        let quarantine =
            |io: &I, report: &mut RecoveryReport, name: &str, offset: u64, reason: String| {
                let reason = match io.quarantine(name) {
                    Ok(()) => reason,
                    Err(e) => format!("{reason} (quarantine rename failed: {e})"),
                };
                report.quarantined.push(SegmentFault {
                    segment: name.to_string(),
                    offset,
                    reason,
                });
            };

        for (i, name) in names.iter().enumerate() {
            let is_last = i + 1 == names.len();
            report.segments += 1;
            let data = match io.read(name) {
                Ok(data) => data,
                Err(e) => {
                    quarantine(&io, &mut report, name, 0, format!("read failed: {e}"));
                    continue;
                }
            };
            match parse_header(&data, salt) {
                HeaderParse::Ok => {}
                HeaderParse::Stale => {
                    report.stale += 1;
                    continue;
                }
                HeaderParse::Torn => {
                    quarantine(&io, &mut report, name, 0, "torn segment header".into());
                    continue;
                }
                HeaderParse::Corrupt { reason } => {
                    quarantine(&io, &mut report, name, 0, reason.into());
                    continue;
                }
            }
            let mut offset = HEADER_LEN;
            let mut clean = true;
            loop {
                match parse_record(&data, offset) {
                    RecordParse::Ok { key, value, next } => {
                        // CRC verified but undecodable = written by logic we
                        // don't have: corruption at the value layer.
                        match V::decode_persist(value) {
                            Some(v) => {
                                let weight = v.reload_weight();
                                mem.insert(
                                    key,
                                    Stored {
                                        value: v,
                                        persisted: true,
                                    },
                                    weight,
                                );
                                report.loaded += 1;
                            }
                            None => {
                                quarantine(
                                    &io,
                                    &mut report,
                                    name,
                                    offset as u64,
                                    "undecodable record payload".into(),
                                );
                                clean = false;
                                break;
                            }
                        }
                        offset = next;
                    }
                    RecordParse::End => break,
                    RecordParse::Torn => {
                        if is_last {
                            // The expected kill -9 shape: cut the tail and
                            // keep the segment.
                            let cut = (data.len() - offset) as u64;
                            match io.truncate(name, offset as u64) {
                                Ok(()) => report.truncated_bytes += cut,
                                Err(e) => {
                                    quarantine(
                                        &io,
                                        &mut report,
                                        name,
                                        offset as u64,
                                        format!("torn tail could not be truncated: {e}"),
                                    );
                                    clean = false;
                                }
                            }
                        } else {
                            quarantine(
                                &io,
                                &mut report,
                                name,
                                offset as u64,
                                "torn record in a sealed segment".into(),
                            );
                            clean = false;
                        }
                        break;
                    }
                    RecordParse::Corrupt { reason } => {
                        quarantine(&io, &mut report, name, offset as u64, reason.into());
                        clean = false;
                        break;
                    }
                }
            }
            if clean && is_last {
                reusable = Some((name.clone(), offset as u64));
            }
        }

        // Arm the active segment: reuse the clean tail segment if it still
        // has room, otherwise start a fresh one.
        let active = match reusable {
            Some((name, len)) if len < SEGMENT_ROTATE_BYTES => Some((name, len)),
            _ => {
                let name = segment_name(next_index);
                next_index += 1;
                match io.create(&name, &encode_header(salt)) {
                    Ok(()) => Some((name, HEADER_LEN as u64)),
                    Err(_) => None,
                }
            }
        };

        let degraded = Arc::new(AtomicBool::new(active.is_none()));
        let shed = Arc::new(AtomicU64::new(0));
        let bytes_persisted = Arc::new(AtomicU64::new(0));
        report.degraded = active.is_none();

        let persist = match active {
            None => PersistHandle {
                tx: None,
                handle: None,
                degraded,
                shed,
                bytes_persisted,
                encode: V::encode_persist,
            },
            Some((active_name, active_len)) => {
                let (tx, rx) = sync_channel(WRITE_QUEUE_DEPTH);
                let writer = Writer {
                    io,
                    salt,
                    active_name,
                    active_len,
                    next_index,
                    degraded: Arc::clone(&degraded),
                    shed: Arc::clone(&shed),
                    bytes_persisted: Arc::clone(&bytes_persisted),
                };
                let handle = std::thread::Builder::new()
                    .name("cv-cache-writer".into())
                    .spawn(move || writer.run(rx))
                    .expect("spawn cache writer thread");
                PersistHandle {
                    tx: Some(tx),
                    handle: Some(handle),
                    degraded,
                    shed,
                    bytes_persisted,
                    encode: V::encode_persist,
                }
            }
        };

        Ok((
            Self {
                mem: Mutex::new(mem),
                persist: Some(persist),
            },
            report,
        ))
    }
}

struct Writer<I> {
    io: I,
    salt: CacheKey,
    active_name: String,
    active_len: u64,
    next_index: u64,
    degraded: Arc<AtomicBool>,
    shed: Arc<AtomicU64>,
    bytes_persisted: Arc<AtomicU64>,
}

impl<I: SegmentIo> Writer<I> {
    fn degrade(&self) {
        self.degraded.store(true, Ordering::Relaxed);
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    fn run(mut self, rx: Receiver<WriteCmd>) {
        while let Ok(cmd) = rx.recv() {
            match cmd {
                WriteCmd::Record(buf) => {
                    if self.degraded.load(Ordering::Relaxed) {
                        self.shed.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    self.write_record(&buf);
                }
                WriteCmd::Flush(ack) => {
                    let ok = if self.degraded.load(Ordering::Relaxed) {
                        false
                    } else {
                        match self.io.sync(&self.active_name) {
                            Ok(()) => true,
                            Err(_) => {
                                self.degraded.store(true, Ordering::Relaxed);
                                false
                            }
                        }
                    };
                    let _ = ack.send(ok);
                }
            }
        }
        // Channel closed: final best-effort durability point.
        if !self.degraded.load(Ordering::Relaxed) {
            let _ = self.io.sync(&self.active_name);
        }
    }

    fn write_record(&mut self, buf: &[u8]) {
        if self.active_len + buf.len() as u64 > SEGMENT_ROTATE_BYTES
            && self.active_len > HEADER_LEN as u64
        {
            if self.io.sync(&self.active_name).is_err() {
                self.degrade();
                return;
            }
            let name = segment_name(self.next_index);
            if self.io.create(&name, &encode_header(self.salt)).is_err() {
                self.degrade();
                return;
            }
            self.next_index += 1;
            self.active_name = name;
            self.active_len = HEADER_LEN as u64;
        }
        match self.io.append(&self.active_name, buf) {
            Ok(n) if n == buf.len() => {
                self.active_len += n as u64;
                self.bytes_persisted.fetch_add(n as u64, Ordering::Relaxed);
            }
            Ok(n) => {
                // Short write: repair the tail so the segment stays clean,
                // then degrade — we can no longer trust the device.
                let _ = self.io.truncate(&self.active_name, self.active_len);
                let _ = n;
                self.degrade();
            }
            Err(_) => {
                // Nothing landed (write_all semantics may still have left a
                // partial tail on a real device; recovery truncates it).
                self.degrade();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc64_check_value() {
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn record_round_trip() {
        let key = CacheKey {
            hi: 0xDEAD_BEEF,
            lo: 0x1234_5678,
        };
        let value = b"hello world".to_vec();
        let rec = encode_record(key, &value);
        match parse_record(&rec, 0) {
            RecordParse::Ok {
                key: k,
                value: v,
                next,
            } => {
                assert_eq!(k, key);
                assert_eq!(v, &value[..]);
                assert_eq!(next, rec.len());
            }
            other => panic!("expected Ok, got {other:?}"),
        }
    }

    #[test]
    fn empty_slice_is_end_and_partial_is_torn() {
        let rec = encode_record(CacheKey { hi: 1, lo: 2 }, b"abc");
        assert_eq!(parse_record(&rec, rec.len()), RecordParse::End);
        for cut in 1..rec.len() {
            let torn = &rec[..rec.len() - cut];
            assert!(
                matches!(parse_record(torn, 0), RecordParse::Torn),
                "cut {cut} should be torn"
            );
        }
    }

    #[test]
    fn corrupt_byte_is_detected() {
        let rec = encode_record(CacheKey { hi: 7, lo: 9 }, b"payload");
        for pos in 0..rec.len() {
            let mut bad = rec.clone();
            bad[pos] ^= 0x40;
            assert!(
                !matches!(parse_record(&bad, 0), RecordParse::Ok { .. }),
                "flip at {pos} went undetected"
            );
        }
    }

    #[test]
    fn header_round_trip_and_stale() {
        let salt = CacheKey { hi: 11, lo: 22 };
        let h = encode_header(salt);
        assert_eq!(parse_header(&h, salt), HeaderParse::Ok);
        assert_eq!(
            parse_header(&h, CacheKey { hi: 11, lo: 23 }),
            HeaderParse::Stale
        );
        assert_eq!(parse_header(&h[..HEADER_LEN - 1], salt), HeaderParse::Torn);
        let mut bad = h;
        bad[3] ^= 0xFF;
        assert!(matches!(
            parse_header(&bad, salt),
            HeaderParse::Corrupt { .. }
        ));
    }

    #[derive(Clone, Debug, PartialEq)]
    struct Blob(Vec<u8>);

    impl PersistValue for Blob {
        fn encode_persist(&self, out: &mut Vec<u8>) -> bool {
            out.extend_from_slice(&self.0);
            true
        }
        fn decode_persist(bytes: &[u8]) -> Option<Self> {
            Some(Self(bytes.to_vec()))
        }
        fn reload_weight(&self) -> usize {
            self.0.len() + 64
        }
    }

    fn salt() -> CacheKey {
        CacheKey { hi: 0xAB, lo: 0xCD }
    }

    fn key(i: u64) -> CacheKey {
        CacheKey {
            hi: i,
            lo: i.wrapping_mul(31) + 1,
        }
    }

    #[test]
    fn reopen_serves_persisted_entries() {
        let io = MemIo::new();
        {
            let (cache, report) =
                PersistentCache::<Blob>::open_with_io(io.clone(), 1 << 20, salt()).unwrap();
            assert_eq!(report.loaded, 0);
            for i in 0..10u64 {
                cache.insert(key(i), Blob(vec![i as u8; 32]), 128);
            }
            assert!(cache.flush());
        }
        let (cache, report) = PersistentCache::<Blob>::open_with_io(io, 1 << 20, salt()).unwrap();
        assert_eq!(report.loaded, 10);
        assert!(report.quarantined.is_empty());
        for i in 0..10u64 {
            let (v, persisted) = cache.get_entry(&key(i)).expect("persisted entry");
            assert_eq!(v, Blob(vec![i as u8; 32]));
            assert!(persisted, "reloaded entry should count as persisted");
        }
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_served() {
        let io = MemIo::new();
        {
            let (cache, _) =
                PersistentCache::<Blob>::open_with_io(io.clone(), 1 << 20, salt()).unwrap();
            for i in 0..5u64 {
                cache.insert(key(i), Blob(vec![i as u8; 16]), 128);
            }
            assert!(cache.flush());
        }
        // Simulate kill -9 mid-append: a partial record at the tail.
        let name = segment_name(0);
        let mut bytes = io.raw(&name).unwrap();
        let full_len = bytes.len();
        bytes.extend_from_slice(&encode_record(key(99), b"partial")[..7]);
        io.set_raw(&name, bytes);

        let (cache, report) =
            PersistentCache::<Blob>::open_with_io(io.clone(), 1 << 20, salt()).unwrap();
        assert_eq!(report.loaded, 5);
        assert_eq!(report.truncated_bytes, 7);
        assert!(report.quarantined.is_empty());
        assert_eq!(io.raw(&name).unwrap().len(), full_len);
        for i in 0..5u64 {
            assert!(cache.get(&key(i)).is_some());
        }
    }

    #[test]
    fn corrupt_record_quarantines_segment_but_keeps_prefix() {
        let io = MemIo::new();
        {
            let (cache, _) =
                PersistentCache::<Blob>::open_with_io(io.clone(), 1 << 20, salt()).unwrap();
            for i in 0..4u64 {
                cache.insert(key(i), Blob(vec![i as u8; 16]), 128);
            }
            assert!(cache.flush());
        }
        let name = segment_name(0);
        let mut bytes = io.raw(&name).unwrap();
        // Flip a byte inside the *last* record's payload.
        let pos = bytes.len() - 10;
        bytes[pos] ^= 0x55;
        io.set_raw(&name, bytes);

        let (cache, report) =
            PersistentCache::<Blob>::open_with_io(io.clone(), 1 << 20, salt()).unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert!(report.quarantined[0].reason.contains("checksum"));
        assert!(report.loaded >= 3, "clean prefix should stay loaded");
        assert!(io.raw(&format!("{name}.bad")).is_some());
        assert!(io.raw(&name).is_none());
        assert!(!cache.degraded(), "fresh active segment still armed");
    }

    #[test]
    fn stale_salt_is_refused_not_quarantined() {
        let io = MemIo::new();
        {
            let (cache, _) =
                PersistentCache::<Blob>::open_with_io(io.clone(), 1 << 20, salt()).unwrap();
            cache.insert(key(1), Blob(vec![1; 8]), 128);
            assert!(cache.flush());
        }
        let other_salt = CacheKey { hi: 0xFF, lo: 0xEE };
        let (cache, report) =
            PersistentCache::<Blob>::open_with_io(io.clone(), 1 << 20, other_salt).unwrap();
        assert_eq!(report.stale, 1);
        assert_eq!(report.loaded, 0);
        assert!(report.quarantined.is_empty());
        assert!(cache.get(&key(1)).is_none());
        assert!(
            io.raw(&segment_name(0)).is_some(),
            "stale segment must stay in place"
        );
    }

    #[test]
    fn enospc_degrades_and_sheds_without_blocking() {
        let io = FaultIo::new(MemIo::new(), DiskFault::Enospc, 1);
        let (cache, _report) = PersistentCache::<Blob>::open_with_io(io, 1 << 20, salt()).unwrap();
        for i in 0..50u64 {
            cache.insert(key(i), Blob(vec![0; 8]), 64);
        }
        let _ = cache.flush();
        let stats = cache.stats();
        assert!(
            cache.degraded() || stats.degraded > 0,
            "ENOSPC must surface as typed degradation"
        );
        // Memory tier keeps serving regardless.
        assert!(cache.get(&key(0)).is_some());
    }

    #[test]
    fn memory_only_store_has_no_persistence_counters() {
        let cache = PersistentCache::<Blob>::new(1 << 20);
        cache.insert(key(1), Blob(vec![1; 8]), 64);
        assert!(!cache.degraded());
        let stats = cache.stats();
        assert_eq!(stats.bytes_persisted, 0);
        assert_eq!(stats.degraded, 0);
        assert!(cache.flush());
    }
}
