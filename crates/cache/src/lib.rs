//! Content-addressed result cache for deterministic simulations.
//!
//! Every episode in this workspace is deterministic by construction (seeded
//! [`cv_rng`] streams, bit-identity tests over every batch path), which
//! makes simulation results *content-addressable*: the full episode
//! configuration, the planner stack, and a code-version salt hash to a key,
//! and the key maps to the unique result any re-simulation would reproduce
//! bit for bit. This crate provides the two halves of that idea:
//!
//! * **Key derivation** — [`KeyHasher`] / [`Hashable`] / [`CacheKey`]: a
//!   stable (cross-process, cross-platform) 128-bit content hash built from
//!   two independent 64-bit FNV-1a streams ([`cv_rng::Fnv1a`]). Floats are
//!   keyed by their IEEE-754 bit patterns — `-0.0` and `0.0` are distinct
//!   inputs to a simulation and hash differently — and NaN payloads are
//!   rejected with a typed [`KeyError`] instead of being silently keyed
//!   (a NaN-bearing config does not describe a reproducible episode).
//! * **Storage** — [`PersistentCache`]: one in-process, memory-bounded LRU
//!   behind one mutex, with hit/miss/eviction counters, and an optional
//!   crash-safe segment store on disk underneath ([`persist`]).
//!
//! What to cache is the *caller's* policy; the contract here is only that
//! `insert` never exceeds the byte budget (least-recently-used entries are
//! evicted first) and `get` returns exactly what was inserted.

use std::collections::{BTreeMap, HashMap};

use cv_rng::{Fnv1a, FNV_OFFSET_BASIS};

pub mod persist;

pub use persist::{
    DirIo, DiskFault, FaultIo, MemIo, PersistValue, PersistentCache, RecoveryReport, SegmentFault,
    SegmentIo,
};

/// Basis of the second hash stream: the standard offset basis perturbed by
/// the SplitMix64 increment, so the two lanes of a [`CacheKey`] disagree
/// from the first byte on.
const SECOND_BASIS: u64 = FNV_OFFSET_BASIS ^ 0x9E37_79B9_7F4A_7C15;

/// A typed key-derivation failure.
///
/// Keys must identify a *reproducible* computation; a NaN anywhere in the
/// configuration means the episode it describes is not one the simulator
/// defines, so the config is refused rather than silently keyed (all NaN
/// bit patterns would otherwise alias under `to_bits`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyError {
    /// A floating-point field held a NaN.
    NanField {
        /// Dotted path of the offending field (e.g. `comm.delay`).
        field: String,
    },
}

impl std::fmt::Display for KeyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyError::NanField { field } => {
                write!(f, "cannot derive a cache key: field '{field}' is NaN")
            }
        }
    }
}

impl std::error::Error for KeyError {}

/// A 128-bit content hash: two independent 64-bit FNV-1a lanes over the
/// same byte stream.
///
/// One 64-bit lane over millions of cached episodes leaves a small but real
/// birthday-collision probability — and a collision here silently returns
/// the wrong episode's result. Two independent lanes push that probability
/// below any practical concern while keeping the hasher in-tree and
/// dependency-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// First FNV-1a lane (standard offset basis).
    pub hi: u64,
    /// Second FNV-1a lane (perturbed basis).
    pub lo: u64,
}

/// Streaming content hasher with NaN rejection.
///
/// All write methods fold bytes into both lanes; [`KeyHasher::write_f64`]
/// additionally validates the value. Variable-length data must be
/// length-prefixed by the caller ([`KeyHasher::write_len`]) so the byte
/// stream stays prefix-free.
#[derive(Debug, Clone)]
pub struct KeyHasher {
    a: Fnv1a,
    b: Fnv1a,
}

impl Default for KeyHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl KeyHasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        KeyHasher {
            a: Fnv1a::new(),
            b: Fnv1a::with_basis(SECOND_BASIS),
        }
    }

    /// Folds raw bytes into both lanes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.a.write(bytes);
        self.b.write(bytes);
    }

    /// Folds one byte — typically an enum discriminant.
    pub fn write_u8(&mut self, byte: u8) {
        self.a.write_u8(byte);
        self.b.write_u8(byte);
    }

    /// Folds a `u64` (little-endian).
    pub fn write_u64(&mut self, value: u64) {
        self.a.write_u64(value);
        self.b.write_u64(value);
    }

    /// Folds a collection length, so `[1.0] ++ [2.0]` and `[1.0, 2.0]`
    /// produce different streams.
    pub fn write_len(&mut self, len: usize) {
        self.write_u64(len as u64);
    }

    /// Folds a string as `(len, bytes)`.
    pub fn write_str(&mut self, s: &str) {
        self.write_len(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// Folds an `f64` by its IEEE-754 bit pattern. `-0.0` and `0.0` hash
    /// differently; infinities are legal inputs; NaN is refused.
    ///
    /// # Errors
    ///
    /// [`KeyError::NanField`] naming `field` when `value` is NaN.
    pub fn write_f64(&mut self, field: &str, value: f64) -> Result<(), KeyError> {
        if value.is_nan() {
            return Err(KeyError::NanField {
                field: field.to_string(),
            });
        }
        self.write_u64(value.to_bits());
        Ok(())
    }

    /// Folds an `Option<f64>` as a presence tag plus (when present) the
    /// value's bits.
    ///
    /// # Errors
    ///
    /// [`KeyError::NanField`] when the contained value is NaN.
    pub fn write_opt_f64(&mut self, field: &str, value: Option<f64>) -> Result<(), KeyError> {
        match value {
            None => self.write_u8(0),
            Some(v) => {
                self.write_u8(1);
                self.write_f64(field, v)?;
            }
        }
        Ok(())
    }

    /// The final 128-bit key.
    pub fn finish(&self) -> CacheKey {
        CacheKey {
            hi: self.a.finish(),
            lo: self.b.finish(),
        }
    }
}

/// Hand-derived content hashing over config structs.
///
/// Implementations must feed *every* field that influences the computation
/// being cached, in a fixed order, using the [`KeyHasher`] primitives
/// (discriminant byte first for enums, length prefix first for
/// collections). The derive-by-hand discipline is deliberate: adding a
/// field to a config without extending its `feed` is exactly the bug the
/// key-stability property tests are there to catch.
pub trait Hashable {
    /// Folds `self` into the hasher.
    ///
    /// # Errors
    ///
    /// [`KeyError`] if a floating-point field is NaN.
    fn feed(&self, hasher: &mut KeyHasher) -> Result<(), KeyError>;

    /// Convenience: hash `self` alone to a key.
    ///
    /// # Errors
    ///
    /// Propagates [`Hashable::feed`] errors.
    fn content_key(&self) -> Result<CacheKey, KeyError> {
        let mut h = KeyHasher::new();
        self.feed(&mut h)?;
        Ok(h.finish())
    }
}

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that returned a value.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Live entries.
    pub entries: usize,
    /// Estimated bytes held by live entries.
    pub bytes: usize,
    /// Bytes durably appended by the persistent tier (0 for memory-only
    /// caches).
    pub bytes_persisted: u64,
    /// Records shed to memory-only because the persistent tier was
    /// degraded (I/O error) or its write-behind queue was full.
    pub degraded: u64,
}

/// The memory tier: one LRU map under one byte budget, with its counters.
///
/// Recency is tracked with a monotonic tick: the map stores each entry's
/// current tick, and `order` is the tick-sorted index. A hit re-stamps the
/// entry (O(log n)); eviction pops the smallest tick. Ticks are u64 — they
/// cannot plausibly wrap. Entries are boxed so that a bucket of the map
/// holds only a key and a pointer: while the table doubles, the old and
/// the new table are both resident, and with entries inline that moment
/// would cost half as much again as the settled table (15 MiB of peak RSS
/// at a 16 MiB budget of trace-free results). [`PersistentCache`] owns it
/// behind one mutex.
pub(crate) struct Lru<V> {
    map: HashMap<CacheKey, Box<LruEntry<V>>>,
    order: BTreeMap<u64, CacheKey>,
    next_tick: u64,
    bytes: usize,
    budget: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

struct LruEntry<V> {
    value: V,
    tick: u64,
    weight: usize,
}

/// Bytes a heap block of `size` bytes occupies: 64-bit glibc malloc adds
/// an 8-byte header, rounds up to 16 and hands out at least 32.
const fn heap_block(size: usize) -> usize {
    let block = (size + 8).div_ceil(16) * 16;
    if block < 32 {
        32
    } else {
        block
    }
}

/// Most and fewest `(key, value)` slots a non-root `BTreeMap` node holds
/// (the standard library's B = 6).
const BTREE_CAPACITY: usize = 11;
const BTREE_MIN_LEN: usize = 5;

impl<V: Clone> Lru<V> {
    /// An upper bound on the resident bytes of one entry whose value owns
    /// no heap memory, summed over the three structures that hold it:
    ///
    /// * its boxed [`LruEntry`], as one heap block;
    /// * its share of `map`: one `(key, box)` slot and one control byte
    ///   per bucket. The table doubles when 7/8 full and, once evictions
    ///   have filled it with tombstones, may double again from 7/16, so a
    ///   settled table is at least 7/32 full;
    /// * its share of `order`: each leaf (a parent pointer, index and
    ///   length, and [`BTREE_CAPACITY`] `(tick, key)` slots) holds at least
    ///   [`BTREE_MIN_LEN`] entries, and each internal node (a leaf plus one
    ///   edge per child) at least `BTREE_MIN_LEN + 1` children.
    pub(crate) const ENTRY_BYTES: usize = {
        let boxed = heap_block(std::mem::size_of::<LruEntry<V>>());
        let bucket = (std::mem::size_of::<(CacheKey, Box<LruEntry<V>>)>() + 1) * 32;
        let slot = std::mem::size_of::<(u64, CacheKey)>();
        let leaf = heap_block(16 + BTREE_CAPACITY * slot);
        let edges = (BTREE_CAPACITY + 1) * std::mem::size_of::<usize>();
        let internal = heap_block(16 + BTREE_CAPACITY * slot + edges);
        boxed
            + bucket.div_ceil(7)
            + leaf.div_ceil(BTREE_MIN_LEN)
            + internal.div_ceil(BTREE_MIN_LEN * (BTREE_MIN_LEN + 1))
    };

    /// An empty LRU holding at most `budget` bytes of entry weight.
    pub(crate) fn new(budget: usize) -> Self {
        Lru {
            map: HashMap::new(),
            order: BTreeMap::new(),
            next_tick: 0,
            bytes: 0,
            budget,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub(crate) fn get(&mut self, key: &CacheKey) -> Option<V> {
        let tick = self.next_tick;
        let Some(entry) = self.map.get_mut(key) else {
            self.misses += 1;
            return None;
        };
        self.order.remove(&entry.tick);
        entry.tick = tick;
        self.order.insert(tick, *key);
        self.next_tick += 1;
        self.hits += 1;
        Some(entry.value.clone())
    }

    /// Inserts `value` under `key` with an estimated `weight` in bytes,
    /// evicting least-recently-used entries as needed. An entry heavier
    /// than the whole budget is refused.
    pub(crate) fn insert(&mut self, key: CacheKey, value: V, weight: usize) {
        if weight > self.budget {
            // An entry that alone overflows the budget would immediately
            // evict everything including itself; refuse it outright.
            return;
        }
        if let Some(old) = self.map.remove(&key) {
            self.order.remove(&old.tick);
            self.bytes -= old.weight;
        }
        while self.bytes + weight > self.budget {
            let (_, victim) = self
                .order
                .pop_first()
                .expect("non-empty order while over budget");
            let gone = self.map.remove(&victim).expect("order/map in sync");
            self.bytes -= gone.weight;
            self.evictions += 1;
        }
        let tick = self.next_tick;
        self.next_tick += 1;
        self.order.insert(tick, key);
        self.bytes += weight;
        self.map.insert(
            key,
            Box::new(LruEntry {
                value,
                tick,
                weight,
            }),
        );
    }

    /// The counters and occupancy; the persistent tier's two counters are
    /// left at 0 for its owner to fill in.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
            bytes: self.bytes,
            bytes_persisted: 0,
            degraded: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CacheKey {
        let mut h = KeyHasher::new();
        h.write_u64(n);
        h.finish()
    }

    #[test]
    fn keys_are_stable_and_input_sensitive() {
        assert_eq!(key(7), key(7));
        assert_ne!(key(7), key(8));
        // Cross-process stability anchor: the first lane is plain FNV-1a
        // over the little-endian bytes.
        assert_eq!(key(7).hi, cv_rng::fnv1a(&7u64.to_le_bytes()));
    }

    #[test]
    fn negative_zero_and_zero_key_differently() {
        let mut a = KeyHasher::new();
        a.write_f64("x", 0.0).unwrap();
        let mut b = KeyHasher::new();
        b.write_f64("x", -0.0).unwrap();
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn nan_is_a_typed_error_naming_the_field() {
        let mut h = KeyHasher::new();
        let err = h.write_f64("noise.delta_p", f64::NAN).unwrap_err();
        assert_eq!(
            err,
            KeyError::NanField {
                field: "noise.delta_p".into()
            }
        );
        assert!(err.to_string().contains("noise.delta_p"));
        // Option variant rejects too.
        let mut h = KeyHasher::new();
        assert!(h.write_opt_f64("cap", Some(f64::NAN)).is_err());
        assert!(h.write_opt_f64("cap", None).is_ok());
    }

    #[test]
    fn length_prefix_disambiguates_adjacent_collections() {
        // ([1.0], [2.0]) vs ([1.0, 2.0], []) must differ.
        let feed = |h: &mut KeyHasher, xs: &[f64], ys: &[f64]| {
            h.write_len(xs.len());
            for x in xs {
                h.write_f64("x", *x).unwrap();
            }
            h.write_len(ys.len());
            for y in ys {
                h.write_f64("y", *y).unwrap();
            }
        };
        let mut a = KeyHasher::new();
        feed(&mut a, &[1.0], &[2.0]);
        let mut b = KeyHasher::new();
        feed(&mut b, &[1.0, 2.0], &[]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn get_returns_what_insert_stored() {
        let cache: PersistentCache<Vec<f64>> = PersistentCache::new(1 << 16);
        assert!(cache.is_empty());
        cache.insert(key(1), vec![1.5, -0.0], 64);
        assert_eq!(cache.get(&key(1)), Some(vec![1.5, -0.0]));
        assert_eq!(cache.get(&key(2)), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
        assert_eq!((stats.entries, stats.bytes), (1, 64));
    }

    #[test]
    fn reinsert_replaces_without_leaking_weight() {
        let cache: PersistentCache<u32> = PersistentCache::new(1024);
        cache.insert(key(1), 10, 100);
        cache.insert(key(1), 20, 300);
        assert_eq!(cache.get(&key(1)), Some(20));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.bytes, stats.evictions), (1, 300, 0));
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        // Budget for exactly three unit-weight entries.
        let cache: PersistentCache<u64> = PersistentCache::new(3);
        cache.insert(key(1), 1, 1);
        cache.insert(key(2), 2, 1);
        cache.insert(key(3), 3, 1);
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(cache.get(&key(1)), Some(1));
        cache.insert(key(4), 4, 1);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.get(&key(2)), None, "LRU entry evicted");
        assert_eq!(cache.get(&key(1)), Some(1));
        assert_eq!(cache.get(&key(3)), Some(3));
        assert_eq!(cache.get(&key(4)), Some(4));
    }

    #[test]
    fn oversize_entry_is_refused_not_thrashed() {
        let cache: PersistentCache<u64> = PersistentCache::new(8);
        cache.insert(key(1), 1, 4);
        cache.insert(key(2), 2, 100); // heavier than the whole budget
        assert_eq!(cache.get(&key(2)), None);
        assert_eq!(cache.get(&key(1)), Some(1), "resident entry untouched");
        assert_eq!(cache.evictions(), 0);
    }
}
