//! A MultiQueue specialized for the framework's *prefilled* workload.
//!
//! The scheduling framework bulk-loads all `n` tasks up front and re-inserts
//! only the `poly(k)` failed deletes (Theorem 2). A binary heap wastes that
//! structure: every pop is an `O(log n)` sift-down over a cache-hostile
//! array. The paper's implementation instead keeps each internal queue as a
//! *sorted list* whose pops are `O(1)` head reads — this module is the
//! array-backed equivalent: each internal queue is a **sorted run consumed
//! from the front** (one cache line per pop, hardware-prefetcher friendly)
//! plus a small **overflow heap** receiving runtime re-insertions. Pop takes
//! the smaller of the run head and the overflow top.

use crate::rng;
use crate::{ConcurrentScheduler, Entry, BATCH_SCATTER_RUN};
use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use rsched_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// One [`BulkMultiQueue`] bucket: a sorted prefilled run consumed from the
/// front plus a small overflow heap for runtime re-insertions.
struct Run<T> {
    /// Prefilled entries, sorted ascending; `sorted[head..]` are live.
    sorted: Vec<Entry<T>>,
    head: usize,
    /// Runtime insertions (failed-delete re-inserts); stays tiny.
    overflow: BinaryHeap<Reverse<Entry<T>>>,
}

impl<T> Run<T> {
    fn peek_key(&self) -> Option<(u64, u64)> {
        let run = self.sorted.get(self.head).map(Entry::key);
        let over = self.overflow.peek().map(|Reverse(e)| e.key());
        match (run, over) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn pop(&mut self) -> Option<Entry<T>>
    where
        T: Copy,
    {
        let run = self.sorted.get(self.head).map(Entry::key);
        let over = self.overflow.peek().map(|Reverse(e)| e.key());
        match (run, over) {
            (Some(a), Some(b)) if b < a => self.overflow.pop().map(|Reverse(e)| e),
            (Some(_), _) => {
                let e = self.sorted[self.head];
                self.head += 1;
                Some(e)
            }
            (None, Some(_)) => self.overflow.pop().map(|Reverse(e)| e),
            (None, None) => None,
        }
    }
}

/// MultiQueue over sorted runs with overflow heaps; the fast scheduler for
/// prefilled task sets (`T: Copy` since runs are consumed in place).
///
/// # Examples
///
/// ```
/// use rsched_queues::{ConcurrentScheduler, concurrent::BulkMultiQueue};
///
/// let q = BulkMultiQueue::prefilled(4, (0..100u64).map(|p| (p, p as u32)));
/// let (p, _) = q.pop().unwrap();
/// assert!(p < 100);
/// q.insert(0, 999); // re-insertions go to the overflow heap
/// ```
pub struct BulkMultiQueue<T> {
    queues: Box<[CachePadded<Mutex<Run<T>>>]>,
    len: CachePadded<AtomicUsize>,
    seq: CachePadded<AtomicU64>,
}

impl<T: Copy + Send> BulkMultiQueue<T> {
    /// Bulk-loads `entries`, scattering them over `num_queues` runs.
    ///
    /// # Panics
    ///
    /// Panics if `num_queues == 0`.
    pub fn prefilled<I>(num_queues: usize, entries: I) -> Self
    where
        I: IntoIterator<Item = (u64, T)>,
    {
        assert!(num_queues >= 1, "need at least one internal queue");
        let mut buckets: Vec<Vec<Entry<T>>> = (0..num_queues).map(|_| Vec::new()).collect();
        let mut seq = 0u64;
        for (priority, item) in entries {
            buckets[rng::next_index(num_queues)].push(Entry::new(priority, seq, item));
            seq += 1;
        }
        let mut total = 0usize;
        let queues = buckets
            .into_iter()
            .map(|mut b| {
                b.sort_unstable();
                total += b.len();
                CachePadded::new(Mutex::new(Run {
                    sorted: b,
                    head: 0,
                    overflow: BinaryHeap::new(),
                }))
            })
            .collect();
        BulkMultiQueue {
            queues,
            len: CachePadded::new(AtomicUsize::new(total)),
            seq: CachePadded::new(AtomicU64::new(seq)),
        }
    }

    /// Creates a queue sized as in the paper (four per thread), prefilled.
    pub fn prefilled_for_threads<I>(threads: usize, entries: I) -> Self
    where
        I: IntoIterator<Item = (u64, T)>,
    {
        Self::prefilled(4 * threads.max(1), entries)
    }

    /// Number of internal queues.
    pub fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// Number of elements currently stored (snapshot).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether the queue was observed empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Copy + Send> ConcurrentScheduler<T> for BulkMultiQueue<T> {
    fn insert(&self, priority: u64, item: T) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let entry = Entry::new(priority, seq, item);
        let q = self.queues.len();
        loop {
            let i = rng::next_index(q);
            if let Some(mut guard) = self.queues[i].try_lock() {
                guard.overflow.push(Reverse(entry));
                self.len.fetch_add(1, Ordering::AcqRel);
                return;
            }
        }
    }

    fn insert_batch(&self, entries: &[(u64, T)])
    where
        T: Clone,
    {
        if entries.is_empty() {
            return;
        }
        // One sequence-number claim per batch; each run of up to
        // BATCH_SCATTER_RUN entries goes to one overflow heap under one lock.
        let mut seq = self.seq.fetch_add(entries.len() as u64, Ordering::Relaxed);
        let q = self.queues.len();
        for run in entries.chunks(BATCH_SCATTER_RUN) {
            let mut guard = loop {
                if let Some(g) = self.queues[rng::next_index(q)].try_lock() {
                    break g;
                }
            };
            for &(priority, item) in run {
                guard.overflow.push(Reverse(Entry::new(priority, seq, item)));
                seq += 1;
            }
            // Count while still holding the guard, as the scalar insert
            // does: an entry must never be poppable before it is counted,
            // or concurrent pops can drive `len` below zero.
            self.len.fetch_add(run.len(), Ordering::AcqRel);
            drop(guard);
        }
    }

    fn pop_batch(&self, out: &mut Vec<(u64, T)>, max: usize) -> usize {
        if max == 0 || self.len.load(Ordering::Acquire) == 0 {
            return 0;
        }
        let q = self.queues.len();
        // Two-choice selection as in `pop`; the winning run/overflow pair is
        // drained for the whole batch under its single lock acquisition.
        for _ in 0..16 {
            let i = rng::next_index(q);
            let j = rng::next_index(q);
            let gi = self.queues[i].try_lock();
            let gj = if j != i { self.queues[j].try_lock() } else { None };
            let (mut guard, other) = match (gi, gj) {
                (Some(a), Some(b)) => match (a.peek_key(), b.peek_key()) {
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
                },
                (Some(a), None) => (a, None),
                (None, Some(b)) => (b, None),
                (None, None) => continue,
            };
            drop(other);
            let mut got = 0usize;
            while got < max {
                match guard.pop() {
                    Some(e) => {
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
        // Fallback: blocking scan, draining until the batch is full or every
        // queue was observed empty.
        let mut got = 0usize;
        for i in 0..q {
            let mut guard = self.queues[i].lock();
            while got < max {
                match guard.pop() {
                    Some(e) => {
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
        for _ in 0..16 {
            let i = rng::next_index(q);
            let j = rng::next_index(q);
            let gi = self.queues[i].try_lock();
            let gj = if j != i { self.queues[j].try_lock() } else { None };
            let (mut guard, other) = match (gi, gj) {
                (Some(a), Some(b)) => match (a.peek_key(), b.peek_key()) {
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
                },
                (Some(a), None) => (a, None),
                (None, Some(b)) => (b, None),
                (None, None) => continue,
            };
            drop(other);
            if let Some(e) = guard.pop() {
                self.len.fetch_sub(1, Ordering::AcqRel);
                return Some((e.priority, e.item));
            }
        }
        for i in 0..q {
            let mut guard = self.queues[i].lock();
            if let Some(e) = guard.pop() {
                self.len.fetch_sub(1, Ordering::AcqRel);
                return Some((e.priority, e.item));
            }
        }
        None
    }
}

impl<T> fmt::Debug for BulkMultiQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BulkMultiQueue")
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
    fn prefilled_pops_everything_roughly_in_order() {
        let q = BulkMultiQueue::prefilled(4, (0..1000u64).map(|p| (p, p as u32)));
        assert_eq!(q.len(), 1000);
        let mut out = Vec::new();
        while let Some((p, _)) = q.pop() {
            out.push(p);
        }
        assert_eq!(out.len(), 1000);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<_>>());
        // First pop near the front.
        assert!(out[0] < 100);
    }

    #[test]
    fn overflow_interleaves_with_run() {
        let q = BulkMultiQueue::prefilled(1, [(10u64, 10u32), (20, 20), (30, 30)]);
        q.insert(15, 15);
        q.insert(5, 5);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(p, _)| p)).collect();
        assert_eq!(order, vec![5, 10, 15, 20, 30]);
    }

    #[test]
    fn empty_prefill_works() {
        let q: BulkMultiQueue<u32> = BulkMultiQueue::prefilled(2, std::iter::empty());
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.insert(1, 1);
        assert_eq!(q.pop(), Some((1, 1)));
    }

    #[test]
    fn concurrent_churn_exact_once() {
        let q = BulkMultiQueue::prefilled(8, (0..20_000u64).map(|p| (p, p)));
        let seen = StdMutex::new(HashSet::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = &q;
                let seen = &seen;
                s.spawn(move || {
                    let mut local = Vec::new();
                    let mut i = 0u64;
                    while let Some((_, v)) = q.pop() {
                        local.push(v);
                        // Sporadic re-insertions with fresh ids.
                        if i.is_multiple_of(100) {
                            q.insert(30_000 + t * 1_000 + i / 100, 30_000 + t * 1_000 + i / 100);
                        }
                        i += 1;
                    }
                    let mut set = seen.lock().unwrap();
                    for v in local {
                        assert!(set.insert(v), "element {v} popped twice");
                    }
                });
            }
        });
        assert!(seen.lock().unwrap().len() >= 20_000);
    }

    #[test]
    fn ties_keep_insertion_order_within_run() {
        let q = BulkMultiQueue::prefilled(1, [(7u64, 1u32), (7, 2), (7, 3)]);
        assert_eq!(q.pop(), Some((7, 1)));
        assert_eq!(q.pop(), Some((7, 2)));
        assert_eq!(q.pop(), Some((7, 3)));
    }
}
