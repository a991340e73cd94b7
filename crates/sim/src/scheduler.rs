//! Work-stealing batch scheduler shared by [`crate::run_batch_lanes`] and
//! the cv-server worker pool.
//!
//! Episode lengths vary wildly — a collision or a reached target ends an
//! episode after a fraction of the horizon — so splitting a batch into
//! contiguous per-worker ranges leaves tail workers idle while one worker
//! grinds through an unlucky chunk. Here every worker instead claims the
//! next unclaimed episode index from a shared atomic counter ([`WorkQueue`]),
//! so the makespan is bounded by the mean episode cost plus *one* straggler
//! rather than the most expensive contiguous chunk.
//!
//! Determinism is unaffected: the index a worker claims fully determines the
//! episode (seed, start position), results are written back by index, and
//! every per-episode RNG stream is derived from the episode seed — so the
//! result vector is bit-identical to a serial run regardless of worker count
//! or claim interleaving.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A shared claim-by-index work queue over `0..total`.
///
/// `claim` hands out each index exactly once, in ascending order of claim
/// time; which worker gets which index is racy by design, the set of indices
/// is not.
#[derive(Debug)]
pub struct WorkQueue {
    next: AtomicUsize,
    total: usize,
}

impl WorkQueue {
    /// A queue over the indices `0..total`.
    pub fn new(total: usize) -> Self {
        Self {
            next: AtomicUsize::new(0),
            total,
        }
    }

    /// Claims the next unclaimed index, or `None` when the queue is drained.
    pub fn claim(&self) -> Option<usize> {
        // Relaxed suffices: the counter is the only shared state and the
        // claimed index is consumed by the claiming thread alone.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.total).then_some(i)
    }

    /// Number of indices in the queue (claimed or not).
    pub fn total(&self) -> usize {
        self.total
    }
}

/// The one batch fan-out: runs `work` on `workers` threads (the calling
/// thread alone when `workers <= 1`), each handed a `claim` closure over
/// one shared [`WorkQueue`] on `0..total` and an `emit` sink that takes
/// exactly one value per claimed index; returns the values in index order.
///
/// A worker that dies between claiming an index and reporting it loses its
/// whole buffer. The coordinator then re-runs every unreported index
/// inline, one `work` call per index with a one-shot claim — the index
/// alone determines the work, so rescued values are what the dead worker
/// would have produced.
pub(crate) fn fan_out<T, W>(total: usize, workers: usize, work: W) -> Vec<T>
where
    T: Send,
    W: Fn(&mut dyn FnMut() -> Option<usize>, &mut dyn FnMut(usize, T)) + Sync,
{
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(total, || None);
    let queue = WorkQueue::new(total);
    if workers <= 1 || total <= 1 {
        work(&mut || queue.claim(), &mut |i, value| {
            slots[i] = Some(value)
        });
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers.min(total))
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, T)> = Vec::new();
                        work(&mut || queue.claim(), &mut |i, value| {
                            local.push((i, value))
                        });
                        local
                    })
                })
                .collect();
            for handle in handles {
                // Swallowing the join error is what keeps one dead worker
                // from poisoning the scope; the rescue below covers it.
                if let Ok(local) = handle.join() {
                    for (i, value) in local {
                        slots[i] = Some(value);
                    }
                }
            }
        });
    }
    for i in 0..total {
        if slots[i].is_none() {
            let mut once = Some(i);
            work(&mut || once.take(), &mut |j, value| slots[j] = Some(value));
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("work emits one value per claimed index"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `fan_out` with a per-index job, the shape of one episode per claim.
    fn per_index<T: Send>(total: usize, workers: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
        fan_out(total, workers, |claim, emit| {
            while let Some(i) = claim() {
                emit(i, job(i));
            }
        })
    }

    #[test]
    fn queue_hands_out_each_index_once() {
        let q = WorkQueue::new(5);
        let claimed: Vec<usize> = std::iter::from_fn(|| q.claim()).collect();
        assert_eq!(claimed, vec![0, 1, 2, 3, 4]);
        assert_eq!(q.claim(), None);
        assert_eq!(q.total(), 5);
    }

    #[test]
    fn results_are_in_index_order_for_any_worker_count() {
        for workers in [1, 2, 3, 8, 64] {
            let out = per_index(33, workers, |i| i * i);
            assert_eq!(
                out,
                (0..33).map(|i| i * i).collect::<Vec<_>>(),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn worker_state_is_reused_within_a_worker() {
        // Serial path: a single worker call sees every index.
        let out = fan_out(4, 1, |claim, emit| {
            let mut calls = 0usize;
            while let Some(i) = claim() {
                calls += 1;
                emit(i, calls);
            }
        });
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn empty_queue_spawns_nothing() {
        let out: Vec<usize> = per_index(0, 8, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn dead_worker_indices_are_rescued_by_the_coordinator() {
        use std::sync::atomic::AtomicBool;
        // The first worker to claim index 3 dies on the spot (losing its
        // whole local buffer); the coordinator's rescue pass must re-run
        // everything that worker never reported — including index 3 itself,
        // which succeeds on the second attempt.
        let armed = AtomicBool::new(true);
        let out = per_index(16, 4, |i| {
            if i == 3 && armed.swap(false, Ordering::Relaxed) {
                panic!("injected worker death");
            }
            i * 10
        });
        assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_loads_still_cover_everything() {
        // Simulated early exits: some "episodes" cost 100x others.
        let out = per_index(64, 4, |i| {
            let spins = if i % 7 == 0 { 10_000 } else { 100 };
            (0..spins).map(std::hint::black_box).sum::<usize>();
            i
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }
}
