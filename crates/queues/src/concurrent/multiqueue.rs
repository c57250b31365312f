//! The lock-based MultiQueue relaxed scheduler \[21\].

use crate::rng;
use crate::{ConcurrentScheduler, Entry, BATCH_SCATTER_RUN};
use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use rsched_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// One [`MultiQueue`] bucket: a min-heap of entries.
type Heap<T> = BinaryHeap<Reverse<Entry<T>>>;

/// A MultiQueue: `q` binary heaps behind try-locks.
///
/// `insert` pushes to a random heap; `pop` peeks two random heaps and pops
/// the smaller top (power-of-two-choices). With `q = c·threads` queues this
/// is an `O(q)`-rank-bounded, `O(q log q)`-fair scheduler with exponential
/// tails \[2\] — a `k`-relaxed scheduler in the paper's sense. The paper's
/// experiments use `c = 4`.
///
/// # Examples
///
/// ```
/// use rsched_queues::{ConcurrentScheduler, concurrent::MultiQueue};
///
/// let q = MultiQueue::for_threads(2);
/// q.insert(3, "c");
/// q.insert(1, "a");
/// assert!(q.pop().is_some());
/// ```
pub struct MultiQueue<T> {
    queues: Box<[CachePadded<Mutex<Heap<T>>>]>,
    len: CachePadded<AtomicUsize>,
    seq: CachePadded<AtomicU64>,
}

impl<T: Send> MultiQueue<T> {
    /// Creates a MultiQueue with `num_queues` internal heaps.
    ///
    /// # Panics
    ///
    /// Panics if `num_queues == 0`.
    pub fn new(num_queues: usize) -> Self {
        assert!(num_queues >= 1, "need at least one internal queue");
        MultiQueue {
            queues: (0..num_queues)
                .map(|_| CachePadded::new(Mutex::new(BinaryHeap::new())))
                .collect(),
            len: CachePadded::new(AtomicUsize::new(0)),
            seq: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Creates a MultiQueue sized as in the paper's experiments: four heaps
    /// per thread.
    pub fn for_threads(threads: usize) -> Self {
        Self::new(4 * threads.max(1))
    }

    /// Number of internal heaps.
    pub fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// Number of elements currently stored (exact while quiescent, else a
    /// snapshot).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether the queue was observed empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push_entry(&self, entry: Entry<T>) {
        let q = self.queues.len();
        let mut entry = Some(entry);
        loop {
            let i = rng::next_index(q);
            if let Some(mut heap) = self.queues[i].try_lock() {
                heap.push(Reverse(entry.take().expect("entry consumed once")));
                self.len.fetch_add(1, Ordering::AcqRel);
                return;
            }
        }
    }
}

impl<T: Send> ConcurrentScheduler<T> for MultiQueue<T> {
    fn insert(&self, priority: u64, item: T) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.push_entry(Entry::new(priority, seq, item));
    }

    fn insert_batch(&self, entries: &[(u64, T)])
    where
        T: Clone,
    {
        if entries.is_empty() {
            return;
        }
        // One sequence-number claim for the whole batch; each run of up to
        // BATCH_SCATTER_RUN entries takes one lock on one random heap.
        let mut seq = self.seq.fetch_add(entries.len() as u64, Ordering::Relaxed);
        let q = self.queues.len();
        for run in entries.chunks(BATCH_SCATTER_RUN) {
            let mut heap = loop {
                if let Some(h) = self.queues[rng::next_index(q)].try_lock() {
                    break h;
                }
            };
            for (priority, item) in run {
                heap.push(Reverse(Entry::new(*priority, seq, item.clone())));
                seq += 1;
            }
            // Count while still holding the guard, as the scalar insert
            // does: an entry must never be poppable before it is counted,
            // or concurrent pops can drive `len` below zero.
            self.len.fetch_add(run.len(), Ordering::AcqRel);
            drop(heap);
        }
    }

    fn pop_batch(&self, out: &mut Vec<(u64, T)>, max: usize) -> usize {
        if max == 0 || self.len.load(Ordering::Acquire) == 0 {
            return 0;
        }
        let q = self.queues.len();
        // Power-of-two-choices as in `pop`, but the winning heap is drained
        // for the whole batch under its single lock acquisition.
        for _ in 0..16 {
            let i = rng::next_index(q);
            let j = rng::next_index(q);
            let gi = self.queues[i].try_lock();
            let gj = if j != i { self.queues[j].try_lock() } else { None };
            let (mut guard, other) = match (gi, gj) {
                (Some(a), Some(b)) => {
                    let ka = a.peek().map(|Reverse(e)| e.key());
                    let kb = b.peek().map(|Reverse(e)| e.key());
                    match (ka, kb) {
                        (Some(x), Some(y)) => {
                            if x <= y {
                                (a, Some(b))
                            } else {
                                (b, Some(a))
                            }
                        }
                        (Some(_), None) => (a, Some(b)),
                        (None, Some(_)) => (b, Some(a)),
                        (None, None) => continue,
                    }
                }
                (Some(a), None) => (a, None),
                (None, Some(b)) => (b, None),
                (None, None) => continue,
            };
            drop(other);
            let mut got = 0usize;
            while got < max {
                match guard.pop() {
                    Some(Reverse(e)) => {
                        out.push((e.priority, e.item));
                        got += 1;
                    }
                    None => break,
                }
            }
            if got > 0 {
                self.len.fetch_sub(got, Ordering::AcqRel);
                return got;
            }
        }
        // Fallback: scan every queue with a blocking lock, draining until
        // the batch is full or every queue was observed empty.
        let mut got = 0usize;
        for i in 0..q {
            let mut guard = self.queues[i].lock();
            while got < max {
                match guard.pop() {
                    Some(Reverse(e)) => {
                        out.push((e.priority, e.item));
                        got += 1;
                    }
                    None => break,
                }
            }
            if got == max {
                break;
            }
        }
        if got > 0 {
            self.len.fetch_sub(got, Ordering::AcqRel);
        }
        got
    }

    fn pop(&self) -> Option<(u64, T)> {
        if self.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let q = self.queues.len();
        // Power-of-two-choices with try-locks; a handful of attempts before
        // falling back to a full scan.
        for _ in 0..16 {
            let i = rng::next_index(q);
            let j = rng::next_index(q);
            // try_lock never blocks, so holding two guards cannot deadlock.
            let gi = self.queues[i].try_lock();
            let gj = if j != i { self.queues[j].try_lock() } else { None };
            let (mut guard, other) = match (gi, gj) {
                (Some(a), Some(b)) => {
                    let ka = a.peek().map(|Reverse(e)| e.key());
                    let kb = b.peek().map(|Reverse(e)| e.key());
                    match (ka, kb) {
                        (Some(x), Some(y)) => {
                            if x <= y {
                                (a, Some(b))
                            } else {
                                (b, Some(a))
                            }
                        }
                        (Some(_), None) => (a, Some(b)),
                        (None, Some(_)) => (b, Some(a)),
                        (None, None) => continue,
                    }
                }
                (Some(a), None) => (a, None),
                (None, Some(b)) => (b, None),
                (None, None) => continue,
            };
            drop(other);
            if let Some(Reverse(e)) = guard.pop() {
                self.len.fetch_sub(1, Ordering::AcqRel);
                return Some((e.priority, e.item));
            }
        }
        // Fallback: scan every queue with a blocking lock, one at a time.
        for i in 0..q {
            let mut guard = self.queues[i].lock();
            if let Some(Reverse(e)) = guard.pop() {
                self.len.fetch_sub(1, Ordering::AcqRel);
                return Some((e.priority, e.item));
            }
        }
        None
    }
}

impl<T> fmt::Debug for MultiQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiQueue")
            .field("num_queues", &self.queues.len())
            .field("len", &self.len.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex as StdMutex;

    #[test]
    fn single_threaded_pop_all() {
        let q = MultiQueue::new(4);
        for p in 0..100u64 {
            q.insert(p, p);
        }
        assert_eq!(q.len(), 100);
        let mut out = Vec::new();
        while let Some((p, _)) = q.pop() {
            out.push(p);
        }
        out.sort_unstable();
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn concurrent_producers_consumers_pop_each_once() {
        let threads = 4;
        let per_thread = 5_000u64;
        let q = MultiQueue::new(8);
        let seen = StdMutex::new(HashSet::new());
        std::thread::scope(|s| {
            for t in 0..threads {
                let q = &q;
                s.spawn(move || {
                    for i in 0..per_thread {
                        q.insert(t as u64 * per_thread + i, t as u64 * per_thread + i);
                    }
                });
            }
        });
        assert_eq!(q.len(), threads as usize * per_thread as usize);
        std::thread::scope(|s| {
            for _ in 0..threads {
                let q = &q;
                let seen = &seen;
                s.spawn(move || {
                    let mut local = Vec::new();
                    while let Some((_, v)) = q.pop() {
                        local.push(v);
                    }
                    let mut set = seen.lock().unwrap();
                    for v in local {
                        assert!(set.insert(v), "value {v} popped twice");
                    }
                });
            }
        });
        assert_eq!(seen.lock().unwrap().len(), threads as usize * per_thread as usize);
    }

    #[test]
    fn mixed_insert_pop_under_contention() {
        let q = MultiQueue::new(4);
        let popped = StdMutex::new(Vec::<u64>::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = &q;
                let popped = &popped;
                s.spawn(move || {
                    let mut local = Vec::new();
                    for i in 0..2_000u64 {
                        q.insert(t * 10_000 + i, t * 10_000 + i);
                        if i % 2 == 1 {
                            if let Some((_, v)) = q.pop() {
                                local.push(v);
                            }
                        }
                    }
                    popped.lock().unwrap().extend(local);
                });
            }
        });
        // Drain the rest.
        let mut rest = Vec::new();
        while let Some((_, v)) = q.pop() {
            rest.push(v);
        }
        let mut all = popped.into_inner().unwrap();
        all.extend(rest);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8_000, "every inserted element popped exactly once");
    }

    #[test]
    fn approximate_priority_order() {
        // With q=2 queues the mean rank error must stay small: check the
        // first pop is within the global top few after a large prefill.
        let q = MultiQueue::new(2);
        for p in 0..10_000u64 {
            q.insert(p, ());
        }
        let (p, _) = q.pop().unwrap();
        assert!(p < 100, "first pop rank {p} absurd for q = 2");
    }

    #[test]
    fn for_threads_uses_four_per_thread() {
        let q: MultiQueue<()> = MultiQueue::for_threads(3);
        assert_eq!(q.num_queues(), 12);
    }

    #[test]
    fn concurrent_insert_pop_exactly_once() {
        let q = MultiQueue::<u64>::new(8);
        let seen = StdMutex::new(HashSet::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (q, seen) = (&q, &seen);
                s.spawn(move || {
                    for i in 0..2_000 {
                        q.insert(t * 2_000 + i, t * 2_000 + i);
                    }
                    let mut local = Vec::new();
                    while let Some((_, v)) = q.pop() {
                        local.push(v);
                    }
                    let mut set = seen.lock().unwrap();
                    for v in local {
                        assert!(set.insert(v), "value {v} popped twice");
                    }
                });
            }
        });
        let mut rest = seen.into_inner().unwrap();
        while let Some((_, v)) = q.pop() {
            assert!(rest.insert(v), "value {v} popped twice");
        }
        assert_eq!(rest.len(), 8_000);
    }
}
