//! Eviction robustness under concurrency (ISSUE 6, satellite 3).
//!
//! Fills the cache past its byte budget while other threads hammer `get` on
//! a protected working set, synchronised with [`std::sync::Barrier`]s — no
//! sleeps. The invariants: LRU order decides who dies, the eviction counter
//! accounts for every death, and a concurrent hit never observes a torn or
//! half-removed entry — every lookup is either a full, value-correct hit or
//! a clean miss.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use cv_cache::{CacheKey, KeyHasher, PersistentCache};

fn key(n: u64) -> CacheKey {
    let mut h = KeyHasher::new();
    h.write_u64(n);
    h.finish()
}

/// The value stored under `key(n)`: a payload whose every element encodes
/// `n`, so a torn read (mixing two entries) is detectable.
fn value(n: u64) -> Vec<u64> {
    vec![n; 8]
}

#[test]
fn filling_past_budget_evicts_in_lru_order_and_counts() {
    // One global LRU order. Budget holds 4 unit entries.
    let cache: PersistentCache<Vec<u64>> = PersistentCache::new(4);
    for n in 0..4 {
        cache.insert(key(n), value(n), 1);
    }
    assert_eq!(cache.evictions(), 0);
    // Refresh 0 and 1; then overflow by two: victims must be 2 then 3.
    assert!(cache.get(&key(0)).is_some());
    assert!(cache.get(&key(1)).is_some());
    cache.insert(key(4), value(4), 1);
    assert_eq!(cache.evictions(), 1);
    assert!(cache.get(&key(2)).is_none(), "oldest untouched entry first");
    cache.insert(key(5), value(5), 1);
    assert_eq!(cache.evictions(), 2);
    assert!(cache.get(&key(3)).is_none(), "next LRU victim second");
    for survivor in [0, 1, 4, 5] {
        assert_eq!(cache.get(&key(survivor)), Some(value(survivor)));
    }
    let stats = cache.stats();
    assert_eq!((stats.entries, stats.bytes), (4, 4));
}

#[test]
fn weighted_overflow_evicts_enough_and_only_enough() {
    let cache: PersistentCache<Vec<u64>> = PersistentCache::new(100);
    cache.insert(key(1), value(1), 40);
    cache.insert(key(2), value(2), 40);
    // 60 bytes need both residents gone (40 + 40 + 60 > 100, 40 + 60 = 100).
    cache.insert(key(3), value(3), 60);
    assert_eq!(cache.evictions(), 1, "one eviction frees enough");
    assert!(cache.get(&key(1)).is_none());
    assert_eq!(cache.get(&key(2)), Some(value(2)));
    assert_eq!(cache.get(&key(3)), Some(value(3)));
    assert_eq!(cache.stats().bytes, 100);
}

#[test]
fn concurrent_hits_during_eviction_are_never_torn_or_dropped() {
    const READERS: usize = 4;
    const HOT: u64 = 1_000_000; // the entry readers hammer
    const ROUNDS: u64 = 400;

    // Every writer insert contends with every reader get on the one lock —
    // the worst case for tearing. Budget of 8 units keeps eviction pressure
    // constant while the hot entry is kept refreshed.
    let cache: PersistentCache<Vec<u64>> = PersistentCache::new(8);
    cache.insert(key(HOT), value(HOT), 1);

    let start = Barrier::new(READERS + 1);
    let done = Barrier::new(READERS + 1);
    let hot_misses = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for _ in 0..READERS {
            scope.spawn(|| {
                start.wait();
                for _ in 0..ROUNDS {
                    match cache.get(&key(HOT)) {
                        // A hit must be the complete, correct payload.
                        Some(v) => assert_eq!(v, value(HOT), "torn entry observed"),
                        // A miss is legal (the writer may have evicted the
                        // hot key this instant) but must be clean.
                        None => {
                            hot_misses.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                done.wait();
            });
        }

        // Writer: flood the cache far past its budget, forcing evictions
        // while the readers run. Re-insert the hot key periodically so hits
        // keep happening under eviction pressure.
        start.wait();
        for n in 0..ROUNDS {
            cache.insert(key(n), value(n), 1);
            if n % 16 == 0 {
                cache.insert(key(HOT), value(HOT), 1);
            }
        }
        done.wait();
    });

    // The flood overflowed an 8-slot cache ~400 times: evictions must have
    // happened and must be fully accounted for.
    let stats = cache.stats();
    assert!(stats.evictions > 0, "flood never evicted");
    assert!(stats.entries <= 8, "byte budget exceeded");
    assert!(stats.bytes <= 8, "byte accounting drifted");
    // Sanity: the readers actually raced live evictions and still got hits.
    let total_reads = (READERS as u64) * ROUNDS;
    assert!(
        hot_misses.load(Ordering::Relaxed) < total_reads,
        "every read missed — the hot entry was never concurrently readable"
    );
}
