//! Bounded FIFO job queue with backpressure.
//!
//! Producers (connection handlers) never block: [`JobQueue::try_push`]
//! returns a typed [`PushError`] immediately — [`PushError::Full`] when the
//! queue is at capacity (the server translates it into an `overloaded`
//! event carrying a retry hint) and [`PushError::Closed`] once shutdown has
//! begun — so backpressure is pushed all the way out to the client instead
//! of buffering unboundedly or stranding items in a closing queue.
//! The single consumer (the job runner) blocks on [`JobQueue::pop`], which
//! drains remaining items after [`JobQueue::close`] before reporting
//! exhaustion — that drain is what makes shutdown graceful.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Typed reasons [`JobQueue::try_push`] can refuse an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; the item may be retried later.
    Full {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The queue is closed (shutdown began); the item can never be
    /// accepted. Distinct from [`PushError::Full`] because the caller's
    /// remedy differs: retrying a closed queue is futile.
    Closed,
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Full { capacity } => {
                write!(f, "job queue is at capacity ({capacity} jobs)")
            }
            PushError::Closed => write!(f, "job queue is closed"),
        }
    }
}

impl std::error::Error for PushError {}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer / blocking-consumer FIFO.
pub struct JobQueue<T> {
    inner: Mutex<Inner<T>>,
    nonempty: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    /// Creates a queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            nonempty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity; [`PushError::Closed`] once
    /// [`JobQueue::close`] has run, however the two calls were interleaved
    /// — an item pushed concurrently with `close` either lands in the queue
    /// (and is drained by [`JobQueue::pop`]) or gets the typed error back,
    /// never silently stranded.
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full {
                capacity: self.capacity,
            });
        }
        inner.items.push_back(item);
        drop(inner);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// drained, returning `None` only in the latter case.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.nonempty.wait(inner).expect("queue poisoned");
        }
    }

    /// Closes the queue: no new items, consumers drain what remains.
    pub fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.nonempty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    /// Upper bound on any single wait in these tests; generous so slow CI
    /// never false-fails, but a hang still surfaces as a test failure
    /// instead of a stuck run.
    const DEADLINE: Duration = Duration::from_secs(10);

    #[test]
    fn fifo_order_and_backpressure() {
        let q = JobQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full { capacity: 2 }));
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert!(q.is_empty());
    }

    #[test]
    fn close_drains_then_ends() {
        let q = JobQueue::new(4);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        assert_eq!(q.try_push("c"), Err(PushError::Closed));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_blocks_until_push_from_another_thread() {
        let q = Arc::new(JobQueue::new(1));
        let rendezvous = Arc::new(Barrier::new(2));
        let (tx, rx) = mpsc::channel();
        let consumer = {
            let q = Arc::clone(&q);
            let rendezvous = Arc::clone(&rendezvous);
            std::thread::spawn(move || {
                rendezvous.wait();
                tx.send(q.pop()).expect("main is waiting on the channel");
            })
        };
        rendezvous.wait();
        // The queue is empty, so pop() cannot return yet — observing the
        // channel (bounded, not a sleep) proves it blocks rather than
        // spuriously returning.
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(50)),
            Err(RecvTimeoutError::Timeout),
            "pop returned from an empty queue"
        );
        q.try_push(99).unwrap();
        assert_eq!(
            rx.recv_timeout(DEADLINE)
                .expect("push must wake the consumer"),
            Some(99)
        );
        consumer.join().unwrap();
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let q = Arc::new(JobQueue::<u32>::new(1));
        let rendezvous = Arc::new(Barrier::new(2));
        let (tx, rx) = mpsc::channel();
        let consumer = {
            let q = Arc::clone(&q);
            let rendezvous = Arc::clone(&rendezvous);
            std::thread::spawn(move || {
                rendezvous.wait();
                tx.send(q.pop()).expect("main is waiting on the channel");
            })
        };
        rendezvous.wait();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(50)),
            Err(RecvTimeoutError::Timeout),
            "pop returned from an empty, open queue"
        );
        q.close();
        assert_eq!(
            rx.recv_timeout(DEADLINE)
                .expect("close must wake the consumer"),
            None
        );
        consumer.join().unwrap();
    }

    #[test]
    fn try_push_at_exact_capacity_returns_full_without_blocking() {
        let q = JobQueue::new(3);
        for i in 0..3 {
            q.try_push(i).unwrap();
        }
        // At exactly capacity the producer gets the typed error back
        // immediately — even run on this single thread, where blocking
        // would deadlock the test rather than time out.
        assert_eq!(q.try_push(99), Err(PushError::Full { capacity: 3 }));
        assert_eq!(q.len(), 3, "the rejected item must not be buffered");
        // Draining one slot re-admits exactly one item, no more.
        assert_eq!(q.pop(), Some(0));
        q.try_push(99).unwrap();
        assert_eq!(q.try_push(100), Err(PushError::Full { capacity: 3 }));
    }

    #[test]
    fn push_after_concurrent_close_is_typed_closed_not_silent_success() {
        // Barrier-sequenced close/push race: the closer thread runs
        // `close()` strictly between the two barrier crossings, so by the
        // time the producer pushes, the queue is provably closed — the push
        // must come back as the typed `Closed` error, and the item must not
        // be silently stranded in a queue nobody will drain.
        let q = Arc::new(JobQueue::new(4));
        let seq = Arc::new(Barrier::new(2));
        let closer = {
            let q = Arc::clone(&q);
            let seq = Arc::clone(&seq);
            std::thread::spawn(move || {
                seq.wait(); // 1: producer is ready
                q.close();
                seq.wait(); // 2: close has completed
            })
        };
        seq.wait(); // 1
        seq.wait(); // 2 — happens-after close()
        assert_eq!(q.try_push(7), Err(PushError::Closed));
        assert_eq!(q.len(), 0, "the refused item must not be stranded");
        assert_eq!(q.pop(), None, "closed and empty: pop reports exhaustion");
        closer.join().unwrap();
    }

    #[test]
    fn closed_beats_full_in_the_race() {
        // A queue that is both full and closed reports Closed: retrying is
        // futile, and the caller must learn that rather than backing off
        // forever against a server that is shutting down.
        let q = JobQueue::new(1);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err(PushError::Closed));
    }

    #[test]
    fn capacity_floor_is_one() {
        let q = JobQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(1).unwrap();
        assert!(q.try_push(2).is_err());
    }
}
