//! The batch fan-out: the one place batch workers are spawned, stopped
//! and rescued. [`crate::run_batch_with`] (and so [`crate::run_batch`],
//! [`crate::run_batch_lanes`] and the cv-server job runner) runs every
//! batch through [`fan_out`].
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

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use crate::supervise::Observer;
use crate::BatchControl;

/// How often the deadline watchdog re-checks the caller's interrupt.
const WATCH_POLL: Duration = Duration::from_millis(10);

/// A shared claim-by-index work queue over a list of indices.
///
/// `claim` hands out each index exactly once, in list order of claim time;
/// which worker gets which index is racy by design, the set of indices is
/// not.
#[derive(Debug)]
pub(crate) struct WorkQueue {
    next: AtomicUsize,
    indices: Vec<usize>,
}

impl WorkQueue {
    /// A queue over `indices`.
    pub(crate) fn new(indices: Vec<usize>) -> Self {
        Self {
            next: AtomicUsize::new(0),
            indices,
        }
    }

    /// Claims the next unclaimed index, or `None` when the queue is drained.
    pub(crate) fn claim(&self) -> Option<usize> {
        // Relaxed suffices: the counter is the only shared state and the
        // claimed index is consumed by the claiming thread alone.
        let k = self.next.fetch_add(1, Ordering::Relaxed);
        self.indices.get(k).copied()
    }

    /// Number of indices in the queue (claimed or not).
    pub(crate) fn total(&self) -> usize {
        self.indices.len()
    }
}

/// The one batch fan-out. Runs `work` on up to `workers` threads (the
/// calling thread alone when one worker suffices), each handed a `claim`
/// closure over one shared [`WorkQueue`] of the still-empty `slots`, an
/// `emit` sink that takes exactly one value per claimed index, and the stop
/// flag it must honour before and during each claimed item. Fills every
/// empty slot and returns whether `control`'s deadline stopped the batch.
///
/// * **Stopping.** Without a deadline the workers watch `control`'s
///   interrupt itself. With one, a watchdog thread raises a private stop
///   flag when the deadline passes or the interrupt is set, checking at
///   least every [`WATCH_POLL`]; it is woken the moment the work finishes.
/// * **Streaming.** `observer` hears each value where it resolves, under
///   one lock, so calls never overlap.
/// * **Rescue.** A worker that dies between claiming an index and
///   reporting it loses only that index: values it emitted before dying
///   survive in its buffer. After the workers join, every empty slot is
///   re-run on the calling thread, one `work` call per index with a
///   one-shot claim; the interrupt and the deadline are re-checked before
///   each, so a stopped batch comes back stopped, not recomputed. The index
///   alone determines the work, so rescued values are what the dead worker
///   would have produced.
pub(crate) fn fan_out<T, W>(
    slots: &mut [Option<T>],
    workers: usize,
    control: &BatchControl<'_>,
    observer: Option<Observer<'_, T>>,
    work: W,
) -> bool
where
    T: Send,
    W: Fn(&mut dyn FnMut() -> Option<usize>, &mut dyn FnMut(usize, T), Option<&AtomicBool>) + Sync,
{
    let queue = &WorkQueue::new((0..slots.len()).filter(|&i| slots[i].is_none()).collect());
    if queue.total() == 0 {
        return false;
    }
    let workers = workers.clamp(1, queue.total());
    let (interrupt, deadline) = (control.interrupt, control.deadline);
    let (raised, deadline_hit) = (AtomicBool::new(false), AtomicBool::new(false));
    // Raises the private flag when the interrupt is set or the deadline has
    // passed (the interrupt wins a tie); returns whether it is raised.
    let poll = |d: Instant| {
        if !raised.load(Ordering::Relaxed) {
            if !interrupt.is_some_and(|f| f.load(Ordering::Relaxed)) {
                if Instant::now() < d {
                    return false;
                }
                deadline_hit.store(true, Ordering::Relaxed);
            }
            raised.store(true, Ordering::Relaxed);
        }
        true
    };
    // A stop before the start stops the batch before any work is accepted.
    deadline.map(poll);
    let stop = if deadline.is_some() {
        Some(&raised)
    } else {
        interrupt
    };
    let observer = observer.map(Mutex::new);
    let observe = |i: usize, value: &T| {
        if let Some(m) = &observer {
            (m.lock().unwrap_or_else(PoisonError::into_inner))(i, value);
        }
    };
    #[cfg(feature = "fault-injection")]
    let kill_worker = control.kill_worker;
    let claimer = |w: usize| {
        #[cfg(feature = "fault-injection")]
        let mut dead = false;
        move || {
            #[cfg(feature = "fault-injection")]
            if kill_worker == Some(w) {
                // Die holding a claimed-but-unreported index.
                if !std::mem::replace(&mut dead, true) {
                    queue.claim();
                }
                return None;
            }
            let _ = w;
            queue.claim()
        }
    };
    let drive = |claim: &mut dyn FnMut() -> Option<usize>, sink: &mut dyn FnMut(usize, T)| {
        work(
            claim,
            &mut |i, value| {
                observe(i, &value);
                sink(i, value);
            },
            stop,
        );
    };
    let run = |slots: &mut [Option<T>]| {
        if workers == 1 {
            drive(&mut claimer(0), &mut |i, value| slots[i] = Some(value));
        } else {
            let mut buffers: Vec<Vec<(usize, T)>> = (0..workers).map(|_| Vec::new()).collect();
            thread::scope(|scope| {
                let (drive, claimer) = (&drive, &claimer);
                let handles: Vec<_> = (buffers.iter_mut().enumerate())
                    .map(|(w, buffer)| {
                        scope.spawn(move || drive(&mut claimer(w), &mut |i, v| buffer.push((i, v))))
                    })
                    .collect();
                // Swallowing the join error is what keeps one dead worker
                // from poisoning the scope; the rescue below covers it.
                for handle in handles {
                    let _ = handle.join();
                }
            });
            for (i, value) in buffers.into_iter().flatten() {
                slots[i] = Some(value);
            }
        }
        for i in 0..slots.len() {
            if slots[i].is_none() {
                deadline.map(poll);
                let mut once = Some(i);
                drive(&mut || once.take(), &mut |j, value| slots[j] = Some(value));
            }
        }
    };
    match deadline {
        None => run(slots),
        Some(d) => {
            let finished = AtomicBool::new(false);
            thread::scope(|scope| {
                let watchdog = scope.spawn(|| {
                    while !finished.load(Ordering::Acquire) && !poll(d) {
                        let left = d.saturating_duration_since(Instant::now());
                        thread::park_timeout(left.min(WATCH_POLL));
                    }
                });
                run(slots);
                finished.store(true, Ordering::Release);
                watchdog.thread().unpark();
            });
        }
    }
    deadline_hit.into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::drive_worker;
    use crate::{BatchConfig, BatchMode, EpisodeConfig, EpisodeOutcome, SkipReason, StackSpec};

    /// `fan_out` over `total` fresh slots, collected in index order.
    fn collect<T: Send>(
        total: usize,
        workers: usize,
        observer: Option<Observer<'_, T>>,
        work: impl Fn(&mut dyn FnMut() -> Option<usize>, &mut dyn FnMut(usize, T), Option<&AtomicBool>)
            + Sync,
    ) -> Vec<T> {
        let mut slots: Vec<Option<T>> = Vec::new();
        slots.resize_with(total, || None);
        fan_out(
            &mut slots,
            workers,
            &BatchControl::default(),
            observer,
            work,
        );
        slots
            .into_iter()
            .map(|s| s.expect("work emits one value per claimed index"))
            .collect()
    }

    /// `fan_out` with a per-index job, the shape of one episode per claim.
    fn per_index<T: Send>(total: usize, workers: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
        collect(total, workers, None, |claim, emit, _| {
            while let Some(i) = claim() {
                emit(i, job(i));
            }
        })
    }

    #[test]
    fn queue_hands_out_each_index_once() {
        let q = WorkQueue::new((0..5).collect());
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
        let out = collect(4, 1, None, |claim, emit, _| {
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
        // The first worker to claim index 3 dies on the spot; the rescue
        // pass must re-run everything that worker never reported —
        // including index 3 itself, which succeeds on the second attempt.
        let armed = AtomicBool::new(true);
        let out = per_index(16, 4, |i| {
            if i == 3 && armed.swap(false, Ordering::Relaxed) {
                panic!("injected worker death");
            }
            i * 10
        });
        assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    /// Eight teacher episodes on two workers through the worker driver; the
    /// worker that claims index 3 calls `die` and then dies holding it.
    fn episodes_with_a_dead_worker(
        interrupt: Option<&AtomicBool>,
        deadline: Option<Instant>,
        die: impl Fn() + Sync,
    ) -> (Vec<EpisodeOutcome>, bool) {
        let batch = BatchConfig::new(EpisodeConfig::paper_default(7), 8);
        let spec = StackSpec::pure_teacher_conservative(&batch.template).unwrap();
        let armed = AtomicBool::new(true);
        let mut slots: Vec<Option<EpisodeOutcome>> = vec![None; 8];
        let control = BatchControl {
            interrupt,
            deadline,
            ..BatchControl::default()
        };
        let deadline_hit = fan_out(&mut slots, 2, &control, None, |claim, emit, stop| {
            let mut claim = || {
                let i = claim()?;
                if i == 3 && armed.swap(false, Ordering::Relaxed) {
                    die();
                    panic!("injected worker death");
                }
                Some(i)
            };
            drive_worker(
                &mut claim,
                &batch,
                &spec,
                BatchMode::EventDriven,
                None,
                stop,
                emit,
            );
        });
        let outcomes = slots.into_iter().map(Option::unwrap).collect();
        (outcomes, deadline_hit)
    }

    fn is_interrupted(outcome: &EpisodeOutcome) -> bool {
        matches!(
            outcome,
            EpisodeOutcome::Skipped {
                reason: SkipReason::Interrupted,
                ..
            }
        )
    }

    #[test]
    fn orphans_of_an_interrupted_batch_are_skipped_not_recomputed() {
        let interrupt = AtomicBool::new(false);
        let (outcomes, deadline_hit) = episodes_with_a_dead_worker(Some(&interrupt), None, || {
            interrupt.store(true, Ordering::Relaxed)
        });
        assert!(is_interrupted(&outcomes[3]), "got {:?}", outcomes[3]);
        assert!(outcomes
            .iter()
            .all(|o| o.completed().is_some() || is_interrupted(o)));
        assert!(!deadline_hit, "an interrupt is not a deadline");
    }

    #[test]
    fn orphans_past_the_deadline_are_skipped_not_recomputed() {
        let deadline = Instant::now() + Duration::from_millis(20);
        let (outcomes, deadline_hit) = episodes_with_a_dead_worker(None, Some(deadline), || {
            thread::sleep(deadline.saturating_duration_since(Instant::now()));
        });
        assert!(is_interrupted(&outcomes[3]), "got {:?}", outcomes[3]);
        assert!(outcomes
            .iter()
            .all(|o| o.completed().is_some() || is_interrupted(o)));
        assert!(deadline_hit);
    }

    #[test]
    fn observer_hears_every_index_once_rescued_ones_included() {
        // The dying worker has already emitted values by the time it dies;
        // they survive it and are not re-run, so not re-observed either.
        let armed = AtomicBool::new(true);
        let mut heard = vec![0usize; 32];
        let mut observer = |i: usize, _: &usize| heard[i] += 1;
        let out = collect(32, 3, Some(&mut observer), |claim, emit, _| {
            let mut emitted = 0;
            while let Some(i) = claim() {
                if emitted == 2 && armed.swap(false, Ordering::Relaxed) {
                    panic!("injected worker death");
                }
                emit(i, i);
                emitted += 1;
            }
        });
        assert_eq!(out, (0..32).collect::<Vec<_>>());
        assert_eq!(heard, vec![1; 32]);
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
