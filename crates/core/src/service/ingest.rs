//! Ingestion side of the streaming service: bounded MPMC queues, producer
//! handles, and the exactly-once completion ledger.
//!
//! A [`Producer`] pushes `(priority, task)` requests into its assigned
//! [`IngestQueue`]; a *pump* thread (one per queue, see the module docs of
//! [`crate::service`]) drains the queue in batches into the shared
//! scheduler, blocking in [`IngestQueue::take_batch`] while it is empty.
//! The queue is the backpressure boundary: `push` blocks while the queue is
//! at capacity, so a stalled pump (shard high watermark) backs up into the
//! producers. Sealing is sticky and layered — a queue seals when
//! its last producer drops or on an explicit [`Producer::seal_all`]; the
//! [`Ledger`] seals when every queue has sealed.

use crate::TaskId;
use rsched_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Condvar, Mutex};

/// The exactly-once completion ledger: two monotone counters whose equality
/// (once producers are sealed) is the service's termination condition.
///
/// `accepted` counts every task admitted into the system — producer pushes
/// (incremented inside the queue's critical section, so acceptance and
/// enqueue are atomic with respect to the pump) and handler follow-up
/// submits (incremented before the scheduler insert). `decided` counts
/// terminal outcomes (`Processed` or `Obsolete`; a `Blocked` re-insert is
/// not a decision). Since a follow-up submit can only happen while its
/// parent popped task is still undecided, `decided == accepted` implies no
/// task is in flight *and* no future accept can occur once sealed — the
/// condition is stable, so workers may exit the moment they observe it.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    accepted: AtomicU64,
    decided: AtomicU64,
    sealed: AtomicBool,
}

impl Ledger {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records one task admitted into the system.
    pub(crate) fn accept(&self) {
        self.accepted.fetch_add(1, Ordering::SeqCst);
    }

    /// Records one terminal outcome.
    pub(crate) fn decide(&self) {
        self.decided.fetch_add(1, Ordering::SeqCst);
    }

    /// Marks the producer side closed for good (idempotent, sticky).
    pub(crate) fn seal(&self) {
        if !self.sealed.swap(true, Ordering::SeqCst) {
            // Seal-wave timeline: the ledger seals once, after every queue.
            rsched_obs::instant!("ledger_seal");
        }
    }

    pub(crate) fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::SeqCst)
    }

    pub(crate) fn decided(&self) -> u64 {
        self.decided.load(Ordering::SeqCst)
    }

    /// The termination predicate: sealed and balanced. Read order matters —
    /// `decided` before `accepted`. Both are monotone and `decided ≤
    /// accepted` always holds, so if the earlier `decided` read equals the
    /// later `accepted` read, both counters held that common value at the
    /// instant of the `accepted` read: the books balanced at a real moment
    /// in time, and (sealed being sticky) stay balanced forever.
    pub(crate) fn drained(&self) -> bool {
        self.sealed.load(Ordering::SeqCst) && self.decided() == self.accepted()
    }
}

/// Error returned by [`Producer::push`] once the service stopped accepting
/// new work (explicit [`Producer::seal_all`], or the producer's queue was
/// sealed). The rejected task is **not** accepted: it never counts against
/// the ledger and will not be processed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The ingestion side is sealed; no further pushes will be accepted.
    Sealed,
}

impl fmt::Display for PushError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PushError::Sealed => write!(f, "service ingestion is sealed"),
        }
    }
}

impl std::error::Error for PushError {}

struct QueueInner {
    entries: VecDeque<(u64, TaskId)>,
    /// Producers currently assigned to this queue and not yet dropped.
    open_producers: usize,
    /// Sticky: set when the last producer drops or on explicit seal.
    sealed: bool,
    /// Set while the pump waits in `take_batch` on the empty queue; only
    /// then does a push pay for a condvar notify.
    pump_waiting: bool,
}

/// What [`IngestQueue::take_batch`] observed.
pub(crate) enum TakeStatus {
    /// At least one entry was moved into the caller's buffer.
    Took,
    /// Empty and sealed: no entry will ever arrive again.
    Drained,
}

/// One bounded MPMC ingestion queue: a mutex-guarded ring with one condvar
/// per blocking side (producers on a full queue, the pump on an empty one).
#[derive(Debug)]
pub(crate) struct IngestQueue {
    inner: Mutex<QueueInner>,
    /// Signaled when entries leave the queue or the queue seals — what
    /// producers blocked on a full queue wait on.
    space: Condvar,
    /// Signaled when an entry arrives for a waiting pump or the queue seals
    /// — what the pump blocked on an empty queue waits on.
    items: Condvar,
    capacity: usize,
    /// Live buffered-entry gauge (`service_ingest_depth{queue="i"}`); a ZST
    /// unless the `obs` feature is on.
    depth: rsched_obs::Gauge,
}

impl fmt::Debug for QueueInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueueInner")
            .field("len", &self.entries.len())
            .field("open_producers", &self.open_producers)
            .field("sealed", &self.sealed)
            .field("pump_waiting", &self.pump_waiting)
            .finish()
    }
}

impl IngestQueue {
    /// A queue with room for `capacity` buffered entries, expecting
    /// `producers` handles (zero producers seals it immediately). `index`
    /// names the queue's depth gauge in the metrics registry.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub(crate) fn new(capacity: usize, producers: usize, index: usize) -> Self {
        assert!(capacity >= 1, "need a positive ingestion capacity");
        // `ENABLED` is const, so the name `format!` folds away by default.
        let depth = if rsched_obs::ENABLED {
            rsched_obs::gauge(&format!(r#"service_ingest_depth{{queue="{index}"}}"#))
        } else {
            rsched_obs::gauge("")
        };
        IngestQueue {
            inner: Mutex::new(QueueInner {
                entries: VecDeque::new(),
                open_producers: producers,
                sealed: producers == 0,
                pump_waiting: false,
            }),
            space: Condvar::new(),
            items: Condvar::new(),
            capacity,
            depth,
        }
    }

    /// Blocking bounded push; the ledger accept happens inside the critical
    /// section, so the pump can never flush a task the ledger has not yet
    /// counted.
    pub(crate) fn push(
        &self,
        priority: u64,
        task: TaskId,
        ledger: &Ledger,
    ) -> Result<(), PushError> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.sealed {
                return Err(PushError::Sealed);
            }
            if inner.entries.len() < self.capacity {
                break;
            }
            inner = self.space.wait(inner).unwrap();
        }
        inner.entries.push_back((priority, task));
        ledger.accept();
        self.depth.add(1);
        // Clear the flag so only the first push into an empty queue pays
        // for the notify; the pump re-raises it before waiting again.
        let wake = std::mem::take(&mut inner.pump_waiting);
        drop(inner);
        if wake {
            self.items.notify_one();
        }
        Ok(())
    }

    /// Moves up to `max` entries into `out` (FIFO — arrival order is
    /// preserved through to the scheduler insert). Blocks while the queue
    /// is empty and open; the flag is raised and the wait entered under the
    /// queue lock that every push and seal takes, so no wakeup is lost.
    pub(crate) fn take_batch(&self, out: &mut Vec<(u64, TaskId)>, max: usize) -> TakeStatus {
        let mut inner = self.inner.lock().unwrap();
        while inner.entries.is_empty() {
            if inner.sealed {
                return TakeStatus::Drained;
            }
            inner.pump_waiting = true;
            inner = self.items.wait(inner).unwrap();
        }
        let n = inner.entries.len().min(max);
        out.extend(inner.entries.drain(..n));
        drop(inner);
        self.depth.sub(n as i64);
        // Room just opened up: release producers blocked on capacity.
        self.space.notify_all();
        TakeStatus::Took
    }

    /// Sticky seal: rejects future pushes, releases blocked pushers, and
    /// wakes the pump so it can run its drain to completion.
    pub(crate) fn seal(&self) {
        let mut inner = self.inner.lock().unwrap();
        if !inner.sealed {
            rsched_obs::instant!("queue_seal");
            rsched_obs::counter!("service_queue_seal_total").inc();
        }
        inner.sealed = true;
        drop(inner);
        self.space.notify_all();
        self.items.notify_all();
    }

    /// One producer handle dropped; the last one out seals the queue.
    /// Returns whether this call sealed it.
    pub(crate) fn release_producer(&self) -> bool {
        let sealed_now = {
            let mut inner = self.inner.lock().unwrap();
            inner.open_producers -= 1;
            if inner.open_producers == 0 && !inner.sealed {
                inner.sealed = true;
                rsched_obs::instant!("queue_seal");
                rsched_obs::counter!("service_queue_seal_total").inc();
                true
            } else {
                false
            }
        };
        if sealed_now {
            self.space.notify_all();
            self.items.notify_all();
        }
        sealed_now
    }

    /// Current buffered entry count.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Spins until a `take_batch` on another thread is waiting on `q`.
    fn wait_for_pump(q: &IngestQueue) {
        while !q.inner.lock().unwrap().pump_waiting {
            std::thread::yield_now();
        }
    }

    #[test]
    fn push_take_roundtrip_preserves_fifo() {
        let ledger = Ledger::new();
        let q = IngestQueue::new(8, 1, 0);
        for i in 0..5u32 {
            q.push(i as u64, i, &ledger).unwrap();
        }
        assert_eq!(ledger.accepted(), 5);
        let mut out = Vec::new();
        assert!(matches!(q.take_batch(&mut out, 3), TakeStatus::Took));
        assert_eq!(out, vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn sealed_queue_rejects_push_without_accepting() {
        let ledger = Ledger::new();
        let q = IngestQueue::new(4, 1, 0);
        q.seal();
        assert_eq!(q.push(1, 1, &ledger), Err(PushError::Sealed));
        assert_eq!(ledger.accepted(), 0, "rejected push must not count");
    }

    #[test]
    fn take_on_empty_open_queue_blocks_until_push() {
        let ledger = Ledger::new();
        let q = IngestQueue::new(4, 1, 0);
        std::thread::scope(|s| {
            let pump = s.spawn(|| {
                let mut out = Vec::new();
                let status = q.take_batch(&mut out, 4);
                (matches!(status, TakeStatus::Took), out)
            });
            wait_for_pump(&q);
            assert!(!pump.is_finished(), "take_batch returned from an empty open queue");
            q.push(7, 7, &ledger).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while !pump.is_finished() && Instant::now() < deadline {
                std::thread::yield_now();
            }
            let released = pump.is_finished();
            // Seal releases a pump the push failed to wake, so the scope
            // joins and the test fails instead of hanging.
            q.seal();
            assert!(released, "push must release the waiting pump");
            assert_eq!(pump.join().unwrap(), (true, vec![(7, 7)]));
        });
        assert!(!q.inner.lock().unwrap().pump_waiting, "the push must clear the flag");
    }

    #[test]
    fn seal_releases_waiting_take_with_drained() {
        let q = IngestQueue::new(4, 1, 0);
        std::thread::scope(|s| {
            let pump = s.spawn(|| matches!(q.take_batch(&mut Vec::new(), 4), TakeStatus::Drained));
            wait_for_pump(&q);
            q.seal();
            assert!(pump.join().unwrap(), "seal must release the pump with Drained");
        });
    }

    #[test]
    fn last_producer_release_releases_waiting_take_with_drained() {
        let q = IngestQueue::new(4, 2, 0);
        std::thread::scope(|s| {
            let pump = s.spawn(|| matches!(q.take_batch(&mut Vec::new(), 4), TakeStatus::Drained));
            wait_for_pump(&q);
            assert!(!q.release_producer());
            assert!(!pump.is_finished(), "one producer is still open");
            assert!(q.release_producer());
            assert!(pump.join().unwrap(), "the last release must release the pump with Drained");
        });
    }

    #[test]
    fn full_queue_blocks_until_drained() {
        let ledger = Ledger::new();
        let q = IngestQueue::new(2, 1, 0);
        q.push(0, 0, &ledger).unwrap();
        q.push(1, 1, &ledger).unwrap();
        std::thread::scope(|s| {
            let pusher = s.spawn(|| q.push(2, 2, &ledger));
            // Give the pusher time to block on the full queue, then drain.
            std::thread::sleep(std::time::Duration::from_millis(20));
            let mut out = Vec::new();
            assert!(matches!(q.take_batch(&mut out, 1), TakeStatus::Took));
            assert_eq!(out.len(), 1);
            assert_eq!(pusher.join().unwrap(), Ok(()));
        });
        assert_eq!(q.len(), 2);
        assert_eq!(ledger.accepted(), 3);
    }

    #[test]
    fn ledger_drained_requires_seal_and_balance() {
        let ledger = Ledger::new();
        assert!(!ledger.drained(), "unsealed ledger is never drained");
        ledger.accept();
        ledger.seal();
        assert!(!ledger.drained(), "one task in flight");
        ledger.decide();
        assert!(ledger.drained());
    }
}
