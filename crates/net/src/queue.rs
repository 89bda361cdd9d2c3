//! A bounded MPSC ingress queue with an explicit overflow contract.
//!
//! Each receiver shard drains one of these. The socket-reader side picks
//! the overflow behaviour per call: [`IngressQueue::try_push`] never
//! blocks — a full queue rejects the frame so the reader can count the
//! drop and keep the socket drained (the UDP posture: the kernel buffer,
//! not our worker, is the scarce resource), while
//! [`IngressQueue::push_blocking`] applies backpressure (the loopback
//! posture, where blocking keeps the run deterministic instead of
//! dropping on scheduler timing).
//!
//! Built from `Mutex` + `Condvar` only — the workspace forbids `unsafe`,
//! so a lock-free ring is off the table. The lock itself is cheap next
//! to a frame's HMAC work; the wake-ups are not. A condvar notify is a
//! `FUTEX_WAKE` syscall whether or not anyone waits, and a blocked
//! producer woken once per freed slot sleeps and wakes in lock-step with
//! the consumer. So the queue keeps a wake discipline:
//!
//! * every thread parked on a condvar is counted under the mutex, and a
//!   push or pop signals only when the other side has someone parked;
//! * a pop wakes parked writers only once the queue has drained to its
//!   low watermark, half its capacity (empty, for capacity 1), so a
//!   blocked producer wakes once per half-queue of work, not per item.
//!
//! [`IngressQueue::close`] still wakes everyone.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why a push was rejected, carrying the item back so the caller can
/// count the drop (and attribute it: a full queue is congestion, a
/// closed queue is shutdown — different telemetry).
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue was at capacity (only `try_push` reports this).
    Full(T),
    /// The queue has been closed; no push can ever succeed again.
    Closed(T),
}

impl<T> PushError<T> {
    /// Recovers the rejected item.
    pub fn into_inner(self) -> T {
        match self {
            Self::Full(item) | Self::Closed(item) => item,
        }
    }
}

/// What a timed pop yielded; see [`IngressQueue::pop_timeout`].
#[derive(Debug, PartialEq, Eq)]
pub enum Pop<T> {
    /// An item arrived (or was already queued).
    Item(T),
    /// The timeout elapsed with the queue open and empty.
    Idle,
    /// The queue is closed *and* drained — the worker is done.
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Threads inside `readable.wait*` right now.
    parked_readers: usize,
    /// Threads inside `writable.wait` right now.
    parked_writers: usize,
}

/// A bounded multi-producer queue; see the module docs for the two push
/// flavours and the wake discipline.
pub struct IngressQueue<T> {
    state: Mutex<State<T>>,
    /// Signalled when an item arrives for a parked reader, or the queue
    /// closes.
    readable: Condvar,
    /// Signalled when the queue drains to its low watermark with a
    /// writer parked, or the queue closes.
    writable: Condvar,
    capacity: usize,
}

impl<T> IngressQueue<T> {
    /// A queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be positive");
        Self {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                parked_readers: 0,
                parked_writers: 0,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            capacity,
        }
    }

    /// Non-blocking push: `Err` returns the item when the queue is full
    /// or closed — the caller decides whether that is a counted drop.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`IngressQueue::close`]; both carry the item back.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.state.lock().expect("queue mutex poisoned");
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        self.unlock_after_push(state);
        Ok(())
    }

    /// Blocking push: waits for space (backpressure).
    ///
    /// # Errors
    ///
    /// [`PushError::Closed`] (the only failure — a full queue parks the
    /// caller instead).
    pub fn push_blocking(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.state.lock().expect("queue mutex poisoned");
        while !state.closed && state.items.len() >= self.capacity {
            state.parked_writers += 1;
            state = self.writable.wait(state).expect("queue mutex poisoned");
            state.parked_writers -= 1;
        }
        if state.closed {
            return Err(PushError::Closed(item));
        }
        state.items.push_back(item);
        self.unlock_after_push(state);
        Ok(())
    }

    /// Releases the lock after a push, waking a reader only if one is
    /// parked.
    fn unlock_after_push(&self, state: MutexGuard<'_, State<T>>) {
        let wake = state.parked_readers > 0;
        drop(state);
        if wake {
            self.readable.notify_one();
        }
    }

    /// Releases the lock after a pop. Parked writers wake only once the
    /// queue is at its low watermark, and then all of them: a
    /// `PoolHandle` clone may push from several threads.
    fn unlock_after_pop(&self, state: MutexGuard<'_, State<T>>) {
        let wake = state.parked_writers > 0 && state.items.len() <= self.capacity / 2;
        drop(state);
        if wake {
            self.writable.notify_all();
        }
    }

    /// Blocking pop: `None` once the queue is closed *and* drained —
    /// every item pushed before `close` is still delivered.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue mutex poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                self.unlock_after_pop(state);
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state.parked_readers += 1;
            state = self.readable.wait(state).expect("queue mutex poisoned");
            state.parked_readers -= 1;
        }
    }

    /// Like [`IngressQueue::pop`], but gives up after `timeout` when the
    /// queue is open and empty — so a worker can interleave periodic
    /// work (telemetry publishing) with draining, without busy-polling
    /// and without stalling live metrics behind a quiet wire.
    pub fn pop_timeout(&self, timeout: std::time::Duration) -> Pop<T> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.state.lock().expect("queue mutex poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                self.unlock_after_pop(state);
                return Pop::Item(item);
            }
            if state.closed {
                return Pop::Closed;
            }
            let Some(remaining) = deadline.checked_duration_since(std::time::Instant::now()) else {
                return Pop::Idle;
            };
            state.parked_readers += 1;
            let (next, result) = self
                .readable
                .wait_timeout(state, remaining)
                .expect("queue mutex poisoned");
            state = next;
            state.parked_readers -= 1;
            if result.timed_out() && state.items.is_empty() && !state.closed {
                return Pop::Idle;
            }
        }
    }

    /// Closes the queue: pushes start failing, pops drain then end.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("queue mutex poisoned");
        state.closed = true;
        drop(state);
        self.readable.notify_all();
        self.writable.notify_all();
    }

    /// Items currently enqueued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue mutex poisoned").items.len()
    }

    /// The configured capacity (occupancy telemetry wants `len/cap`).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the queue is currently empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(readers, writers)` parked on the condvars right now.
    #[cfg(test)]
    fn parked(&self) -> (usize, usize) {
        let state = self.state.lock().expect("queue mutex poisoned");
        (state.parked_readers, state.parked_writers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// Spins until `q` has exactly `(readers, writers)` parked — the
    /// interleaving a test needs, forced without a sleep.
    fn await_parked<T>(q: &IngressQueue<T>, readers: usize, writers: usize) {
        while q.parked() != (readers, writers) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn pop_timeout_reports_idle_item_and_closed() {
        let q = IngressQueue::new(4);
        let t = Duration::from_millis(10);
        assert_eq!(q.pop_timeout(t), Pop::Idle);
        q.try_push(5).unwrap();
        assert_eq!(q.pop_timeout(t), Pop::Item(5));
        q.try_push(6).unwrap();
        q.close();
        // Items pushed before close still drain, then Closed — never
        // Idle on a closed queue.
        assert_eq!(q.pop_timeout(t), Pop::Item(6));
        assert_eq!(q.pop_timeout(t), Pop::Closed);
        assert_eq!(q.pop_timeout(t), Pop::Closed);
        assert_eq!(q.parked(), (0, 0));
    }

    #[test]
    fn fifo_roundtrip() {
        let q = IngressQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn try_push_rejects_when_full() {
        let q = IngressQueue::new(2);
        assert_eq!(q.capacity(), 2);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        assert_eq!(q.try_push("c"), Err(PushError::Full("c")));
        assert_eq!(q.pop(), Some("a"));
        q.try_push("c").unwrap();
    }

    #[test]
    fn close_drains_then_ends() {
        let q = IngressQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err(PushError::Closed(8)));
        assert_eq!(q.push_blocking(9).map_err(PushError::into_inner), Err(9));
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_blocking_applies_backpressure() {
        let q = Arc::new(IngressQueue::new(1));
        q.try_push(0u32).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_blocking(1).is_ok())
        };
        // The producer parks on the full queue until we pop.
        await_parked(&q, 0, 1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some(0));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn pop_wakes_on_close() {
        let q = Arc::new(IngressQueue::<u8>::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        await_parked(&q, 1, 0);
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn pop_wakes_on_push() {
        let q = Arc::new(IngressQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        await_parked(&q, 1, 0);
        q.try_push(5u8).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(5));
        assert_eq!(q.parked(), (0, 0));
    }

    #[test]
    fn parked_writer_waits_for_the_low_watermark() {
        let q = Arc::new(IngressQueue::new(4));
        for i in 0..4u32 {
            q.try_push(i).unwrap();
        }
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || (4..12u32).all(|i| q.push_blocking(i).is_ok()))
        };
        await_parked(&q, 0, 1);
        // Above the watermark (len > capacity / 2) a pop frees a slot
        // but wakes nobody: the writer stays parked and pushes nothing.
        assert_eq!(q.pop(), Some(0));
        for _ in 0..1000 {
            std::thread::yield_now();
            assert_eq!((q.len(), q.parked()), (3, (0, 1)));
        }
        // The pop that reaches the watermark releases it; every item
        // then arrives once, in order.
        let drained: Vec<u32> = (0..11).filter_map(|_| q.pop()).collect();
        assert_eq!(drained, (1..12).collect::<Vec<_>>());
        assert!(producer.join().unwrap());
        assert!(q.is_empty());
    }

    #[test]
    fn close_releases_a_parked_writer() {
        let q = Arc::new(IngressQueue::new(1));
        q.try_push(0u8).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_blocking(9))
        };
        await_parked(&q, 0, 1);
        q.close();
        assert_eq!(producer.join().unwrap(), Err(PushError::Closed(9)));
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocking_producers_never_lose_or_reorder_items() {
        const PRODUCERS: usize = 4;
        const ITEMS: u32 = 10_000;
        let q = IngressQueue::new(2);
        let mut next = [0u32; PRODUCERS];
        std::thread::scope(|scope| {
            for producer in 0..PRODUCERS {
                let q = &q;
                scope.spawn(move || {
                    for seq in 0..ITEMS {
                        q.push_blocking((producer, seq)).unwrap();
                    }
                });
            }
            for _ in 0..PRODUCERS * ITEMS as usize {
                // A lost wake-up shows as a stall; fail instead of hang
                // (closing releases any producer still parked).
                let Pop::Item((producer, seq)) = q.pop_timeout(Duration::from_secs(10)) else {
                    q.close();
                    panic!("consumer stalled after {next:?}");
                };
                assert_eq!(seq, next[producer], "producer {producer} out of order");
                next[producer] += 1;
            }
        });
        assert_eq!(next, [ITEMS; PRODUCERS]);
        assert_eq!(q.parked(), (0, 0));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = IngressQueue::<u8>::new(0);
    }
}
