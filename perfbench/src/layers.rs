//! Layer wrappers: the traced run times every call into a layer's public
//! entry points from outside, accumulating per thread.
//!
//! Each thread that records into a [`Recorder`] claims a cache-line-padded
//! slot of its own on first use and only ever writes that slot, with plain
//! relaxed load/store pairs (no read-modify-write, no shared line): a
//! shared atomic would put every call of every worker on one contended
//! cache line. What the wrappers still cost, mostly two clock reads per
//! call, is reported as `trace.overhead_pct`.

use rsched::core::framework::{ConcurrentAlgorithm, TaskOutcome};
use rsched::core::service::{RequestHandler, SubmitCtx};
use rsched::core::TaskId;
use rsched::queues::{ConcurrentScheduler, SchedulerLoad};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// The call boundaries a [`Recorder`] distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `pop`/`pop_for`/`pop_batch`/`pop_batch_for` (items = entries popped).
    Pop,
    /// `insert`/`insert_batch` (items = entries inserted).
    Insert,
    /// `try_process` calls that processed their task.
    Processed,
    /// `try_process` calls that found their task blocked.
    Blocked,
    /// `try_process` calls that found their task already decided.
    Obsolete,
    /// `RequestHandler::handle` calls.
    Handle,
    /// `Producer::push` calls (time = backpressure wait).
    Push,
}

const OPS: usize = 7;
/// Log2 buckets: bucket `b` holds durations in `[2^(b-1), 2^b)` ns.
pub const BUCKETS: usize = 32;
/// Threads one recorder can tell apart (workers, pump, generator, main).
const MAX_THREADS: usize = 16;

/// One thread's totals for one [`Op`].
#[derive(Default)]
struct Cell64 {
    calls: AtomicU64,
    items: AtomicU64,
    empty: AtomicU64,
    ns: AtomicU64,
    hist: [AtomicU64; BUCKETS],
}

/// Adds `by` to a counter only its owning thread writes: a relaxed load
/// and store, so no locked instruction and no cache-line transfer.
fn bump(c: &AtomicU64, by: u64) {
    c.store(c.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

#[repr(align(128))]
#[derive(Default)]
struct Slot {
    ops: [Cell64; OPS],
}

static NEXT_RECORDER: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(recorder id, slot index)` this thread last claimed.
    static CLAIM: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

/// Per-thread call counts, totals and log-histograms for one traced phase.
/// A thread records into at most one recorder at a time.
pub struct Recorder {
    id: u64,
    slots: Box<[Slot]>,
    claimed: AtomicUsize,
}

/// Summed totals of one [`Op`] over every thread of a [`Recorder`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpTotals {
    pub calls: u64,
    pub items: u64,
    pub empty: u64,
    pub ns: u64,
    pub hist: Vec<u64>,
}

impl OpTotals {
    /// Mean nanoseconds per call (0 without calls).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }

    /// Upper bound (ns) of the log2 bucket holding the `q`-quantile call.
    pub fn hist_quantile_ns(&self, q: f64) -> u64 {
        let target = ((q * self.calls as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.hist.iter().enumerate() {
            seen += c;
            if seen >= target {
                return 1u64 << b;
            }
        }
        1u64 << (BUCKETS - 1)
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            id: NEXT_RECORDER.fetch_add(1, Ordering::Relaxed),
            slots: (0..MAX_THREADS).map(|_| Slot::default()).collect(),
            claimed: AtomicUsize::new(0),
        }
    }
}

impl Recorder {
    fn slot(&self) -> &Slot {
        let (id, idx) = CLAIM.with(Cell::get);
        if id == self.id {
            return &self.slots[idx];
        }
        let idx = self.claimed.fetch_add(1, Ordering::Relaxed);
        assert!(idx < MAX_THREADS, "more than {MAX_THREADS} threads recorded into one phase");
        CLAIM.with(|c| c.set((self.id, idx)));
        &self.slots[idx]
    }

    /// Records one call of `op` that moved `items` entries in `ns`.
    pub fn record(&self, op: Op, items: u64, ns: u64) {
        let c = &self.slot().ops[op as usize];
        bump(&c.calls, 1);
        bump(&c.items, items);
        if items == 0 {
            bump(&c.empty, 1);
        }
        bump(&c.ns, ns);
        let b = (64 - ns.leading_zeros() as usize).min(BUCKETS - 1);
        bump(&c.hist[b], 1);
    }

    /// Times `f` and records it as one call of `op`; `items` reads the
    /// entry count off the result.
    pub fn time<R>(&self, op: Op, f: impl FnOnce() -> R, items: impl FnOnce(&R) -> u64) -> R {
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.record(op, items(&r), ns);
        r
    }

    /// Totals of `op` over every thread that recorded.
    pub fn totals(&self, op: Op) -> OpTotals {
        let mut t = OpTotals { hist: vec![0; BUCKETS], ..Default::default() };
        for s in &self.slots[..self.claimed.load(Ordering::Relaxed).min(MAX_THREADS)] {
            let c = &s.ops[op as usize];
            t.calls += c.calls.load(Ordering::Relaxed);
            t.items += c.items.load(Ordering::Relaxed);
            t.empty += c.empty.load(Ordering::Relaxed);
            t.ns += c.ns.load(Ordering::Relaxed);
            for (h, x) in t.hist.iter_mut().zip(&c.hist) {
                *h += x.load(Ordering::Relaxed);
            }
        }
        t
    }
}

/// Per-task timestamps (ns since a shared origin) along the service path;
/// 0 means "not reached". Each task's slot is written by whichever thread
/// handles that task at that hop, never concurrently.
pub struct Stamps {
    origin: Instant,
    pub push: Vec<AtomicU64>,
    pub insert: Vec<AtomicU64>,
    pub pop: Vec<AtomicU64>,
    pub done: Vec<AtomicU64>,
}

fn zeroed(n: usize) -> Vec<AtomicU64> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

impl Stamps {
    /// Stamps for `n` tasks; the per-hop vectors are allocated only when
    /// `hops` is set (the traced run), `done` always.
    pub fn new(n: usize, origin: Instant, hops: bool) -> Self {
        let hop = |on: bool| if on { zeroed(n) } else { Vec::new() };
        Stamps { origin, push: hop(hops), insert: hop(hops), pop: hop(hops), done: zeroed(n) }
    }

    /// Nanoseconds since the origin (never 0, so 0 can mean "unset").
    pub fn now(&self) -> u64 {
        (self.origin.elapsed().as_nanos() as u64).max(1)
    }

    fn mark(v: &[AtomicU64], task: TaskId, at: u64) {
        if let Some(s) = v.get(task as usize) {
            s.store(at, Ordering::Relaxed);
        }
    }

    fn mark_first(v: &[AtomicU64], task: TaskId, at: u64) {
        if let Some(s) = v.get(task as usize) {
            if s.load(Ordering::Relaxed) == 0 {
                s.store(at, Ordering::Relaxed);
            }
        }
    }
}

/// A scheduler whose six [`ConcurrentScheduler`] entry points and
/// [`SchedulerLoad`] are forwarded to `inner`; the data operations are
/// timed into `rec`. `pop_for`/`pop_batch_for` forward to their own
/// counterparts: the trait defaults fall back to `pop`, which would
/// silently drop a sharded scheduler's worker affinity.
pub struct TimedScheduler<'a, S> {
    inner: &'a S,
    rec: &'a Recorder,
    stamps: Option<&'a Stamps>,
}

impl<'a, S> TimedScheduler<'a, S> {
    pub fn new(inner: &'a S, rec: &'a Recorder, stamps: Option<&'a Stamps>) -> Self {
        TimedScheduler { inner, rec, stamps }
    }

    fn popped(&self, e: &Option<(u64, TaskId)>) -> u64 {
        match (e, self.stamps) {
            (Some((_, t)), Some(s)) => {
                Stamps::mark(&s.pop, *t, s.now());
                1
            }
            (Some(_), None) => 1,
            (None, _) => 0,
        }
    }

    fn popped_batch(&self, out: &[(u64, TaskId)], got: usize) -> u64 {
        if let Some(s) = self.stamps {
            let at = s.now();
            for &(_, t) in &out[out.len() - got..] {
                Stamps::mark(&s.pop, t, at);
            }
        }
        got as u64
    }

    fn inserting(&self, entries: &[(u64, TaskId)]) {
        if let Some(s) = self.stamps {
            let at = s.now();
            for &(_, t) in entries {
                Stamps::mark_first(&s.insert, t, at);
            }
        }
    }
}

impl<S: ConcurrentScheduler<TaskId>> ConcurrentScheduler<TaskId> for TimedScheduler<'_, S> {
    fn insert(&self, priority: u64, item: TaskId) {
        self.inserting(&[(priority, item)]);
        self.rec.time(Op::Insert, || self.inner.insert(priority, item), |_| 1);
    }

    fn pop(&self) -> Option<(u64, TaskId)> {
        let e = self.rec.time(Op::Pop, || self.inner.pop(), |e| e.is_some() as u64);
        self.popped(&e);
        e
    }

    fn insert_batch(&self, entries: &[(u64, TaskId)]) {
        self.inserting(entries);
        self.rec.time(Op::Insert, || self.inner.insert_batch(entries), |_| entries.len() as u64);
    }

    fn pop_batch(&self, out: &mut Vec<(u64, TaskId)>, max: usize) -> usize {
        let got = self.rec.time(Op::Pop, || self.inner.pop_batch(out, max), |&g| g as u64);
        self.popped_batch(out, got);
        got
    }

    fn pop_for(&self, worker: usize) -> Option<(u64, TaskId)> {
        let e = self.rec.time(Op::Pop, || self.inner.pop_for(worker), |e| e.is_some() as u64);
        self.popped(&e);
        e
    }

    fn pop_batch_for(&self, worker: usize, out: &mut Vec<(u64, TaskId)>, max: usize) -> usize {
        let got =
            self.rec.time(Op::Pop, || self.inner.pop_batch_for(worker, out, max), |&g| g as u64);
        self.popped_batch(out, got);
        got
    }
}

impl<S: SchedulerLoad> SchedulerLoad for TimedScheduler<'_, S> {
    fn total_load(&self) -> usize {
        self.inner.total_load()
    }

    fn max_partition_load(&self) -> usize {
        self.inner.max_partition_load()
    }
}

/// An algorithm whose `try_process` calls are timed into `rec`, split by
/// outcome; `num_tasks`/`remaining` are forwarded untimed.
pub struct TimedAlgorithm<'a, A> {
    inner: &'a A,
    rec: &'a Recorder,
}

impl<'a, A> TimedAlgorithm<'a, A> {
    pub fn new(inner: &'a A, rec: &'a Recorder) -> Self {
        TimedAlgorithm { inner, rec }
    }
}

impl<A: ConcurrentAlgorithm> ConcurrentAlgorithm for TimedAlgorithm<'_, A> {
    fn num_tasks(&self) -> usize {
        self.inner.num_tasks()
    }

    fn remaining(&self) -> usize {
        self.inner.remaining()
    }

    fn try_process(&self, task: TaskId) -> TaskOutcome {
        let t0 = Instant::now();
        let outcome = self.inner.try_process(task);
        let ns = t0.elapsed().as_nanos() as u64;
        let op = match outcome {
            TaskOutcome::Processed => Op::Processed,
            TaskOutcome::Blocked => Op::Blocked,
            TaskOutcome::Obsolete => Op::Obsolete,
        };
        self.rec.record(op, 1, ns);
        outcome
    }
}

/// The service-side handler wrapper. It always stamps each task's terminal
/// decision (the open-loop latency needs it with tracing off too); with a
/// recorder it also times every `handle` call.
pub struct TimedHandler<'a, H> {
    inner: &'a H,
    stamps: &'a Stamps,
    rec: Option<&'a Recorder>,
}

impl<'a, H> TimedHandler<'a, H> {
    pub fn new(inner: &'a H, stamps: &'a Stamps, rec: Option<&'a Recorder>) -> Self {
        TimedHandler { inner, stamps, rec }
    }
}

impl<H: RequestHandler> RequestHandler for TimedHandler<'_, H> {
    fn handle(&self, priority: u64, task: TaskId, ctx: &SubmitCtx<'_>) -> TaskOutcome {
        let outcome = match self.rec {
            None => self.inner.handle(priority, task, ctx),
            Some(rec) => rec.time(Op::Handle, || self.inner.handle(priority, task, ctx), |_| 1),
        };
        if outcome != TaskOutcome::Blocked {
            Stamps::mark(&self.stamps.done, task, self.stamps.now());
        }
        outcome
    }
}

/// Stamps the offer time of `task` and, when traced, times the push
/// itself (its duration is the backpressure wait).
pub fn timed_push<E>(
    push: impl FnOnce() -> Result<(), E>,
    task: TaskId,
    stamps: &Stamps,
    rec: Option<&Recorder>,
) -> Result<(), E> {
    match rec {
        None => push(),
        Some(rec) => {
            Stamps::mark(&stamps.push, task, stamps.now());
            rec.time(Op::Push, push, |_| 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use rsched::core::algorithms::mis::{greedy_mis, ConcurrentMis};
    use rsched::core::framework::{fill_scheduler, run_concurrent_batched};
    use rsched::core::stats::ConcurrentStats;
    use rsched::graph::{gen, Permutation};
    use rsched::queues::sharded::ShardedScheduler;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::sync::Mutex;

    /// An exact scheduler (one mutex-guarded heap) that logs every call by
    /// entry point, so a wrapper that reroutes `pop_for` to `pop` shows.
    #[derive(Default)]
    struct LoggedHeap {
        heap: Mutex<BinaryHeap<Reverse<(u64, TaskId)>>>,
        log: Mutex<Vec<String>>,
    }

    impl LoggedHeap {
        fn note(&self, op: String) {
            self.log.lock().unwrap().push(op);
        }
        fn take(&self) -> Option<(u64, TaskId)> {
            self.heap.lock().unwrap().pop().map(|Reverse(e)| e)
        }
    }

    impl ConcurrentScheduler<TaskId> for LoggedHeap {
        fn insert(&self, priority: u64, item: TaskId) {
            self.note(format!("insert {priority} {item}"));
            self.heap.lock().unwrap().push(Reverse((priority, item)));
        }
        fn pop(&self) -> Option<(u64, TaskId)> {
            let e = self.take();
            self.note(format!("pop -> {e:?}"));
            e
        }
        fn insert_batch(&self, entries: &[(u64, TaskId)]) {
            self.note(format!("insert_batch {}", entries.len()));
            let mut h = self.heap.lock().unwrap();
            h.extend(entries.iter().map(|&e| Reverse(e)));
        }
        fn pop_batch(&self, out: &mut Vec<(u64, TaskId)>, max: usize) -> usize {
            let before = out.len();
            while out.len() - before < max {
                match self.take() {
                    Some(e) => out.push(e),
                    None => break,
                }
            }
            self.note(format!("pop_batch {max} -> {}", out.len() - before));
            out.len() - before
        }
        fn pop_for(&self, worker: usize) -> Option<(u64, TaskId)> {
            let e = self.take();
            self.note(format!("pop_for {worker} -> {e:?}"));
            e
        }
        fn pop_batch_for(&self, worker: usize, out: &mut Vec<(u64, TaskId)>, max: usize) -> usize {
            let got = self.pop_batch(out, max);
            self.note(format!("pop_batch_for {worker}"));
            got
        }
    }

    /// On a deterministic one-thread run the wrapper must be invisible: the
    /// inner scheduler sees the same calls, by entry point, and the engine
    /// reports the same stats, at scalar and batched pop sizes alike.
    #[test]
    fn wrapped_and_bare_schedulers_log_the_same_ops_and_stats() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = gen::gnm(400, 2_000, &mut rng);
        let pi = Permutation::random(400, &mut rng);
        let key =
            |s: &ConcurrentStats| (s.total_pops, s.processed, s.wasted, s.obsolete, s.empty_pops);
        for batch in [1usize, 4] {
            let bare = LoggedHeap::default();
            fill_scheduler(&bare, &pi);
            let alg = ConcurrentMis::new(&g, &pi);
            let bare_stats = run_concurrent_batched(&alg, &pi, &bare, 1, batch);
            assert_eq!(alg.into_output(), greedy_mis(&g, &pi));

            let inner = LoggedHeap::default();
            let rec = Recorder::default();
            let timed = TimedScheduler::new(&inner, &rec, None);
            fill_scheduler(&timed, &pi);
            let alg = ConcurrentMis::new(&g, &pi);
            let stats =
                run_concurrent_batched(&TimedAlgorithm::new(&alg, &rec), &pi, &timed, 1, batch);
            assert_eq!(alg.into_output(), greedy_mis(&g, &pi));

            let log = inner.log.lock().unwrap().clone();
            assert_eq!(*bare.log.lock().unwrap(), log, "batch {batch}");
            let affine = if batch == 1 { "pop_for 0" } else { "pop_batch_for 0" };
            assert!(log.iter().any(|op| op.starts_with(affine)), "batch {batch}");
            assert_eq!(key(&bare_stats), key(&stats), "batch {batch}");

            let pops = rec.totals(Op::Pop);
            assert_eq!(pops.items, stats.total_pops);
            assert_eq!(pops.empty, stats.empty_pops);
            assert_eq!(pops.hist.iter().sum::<u64>(), pops.calls);
            assert_eq!(rec.totals(Op::Processed).calls, stats.processed);
            assert_eq!(rec.totals(Op::Obsolete).calls, stats.obsolete);
            assert_eq!(rec.totals(Op::Blocked).calls, stats.wasted);
            assert_eq!(rec.totals(Op::Insert).items, 400 + stats.wasted);
        }
    }

    #[test]
    fn wrapper_forwards_scheduler_load() {
        let inner = ShardedScheduler::from_fn(2, |_| LoggedHeap::default());
        let rec = Recorder::default();
        let timed = TimedScheduler::new(&inner, &rec, None);
        timed.insert_batch(&[(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]);
        assert_eq!(timed.total_load(), 5);
        assert_eq!(timed.max_partition_load(), inner.max_partition_load());
    }

    #[test]
    fn threads_accumulate_into_their_own_slots() {
        let rec = Recorder::default();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let rec = &rec;
                s.spawn(move || {
                    for _ in 0..1_000 {
                        rec.record(Op::Pop, t % 2, 10 + t);
                    }
                });
            }
        });
        let pops = rec.totals(Op::Pop);
        assert_eq!(pops.calls, 4_000);
        assert_eq!(pops.items, 2_000);
        assert_eq!(pops.empty, 2_000);
        assert_eq!(pops.ns, 1_000 * (10 + 11 + 12 + 13));
        assert_eq!(pops.hist[4], 4_000, "10..13 ns all fall in [8, 16)");
        assert_eq!(pops.hist_quantile_ns(0.5), 16);
        assert_eq!(
            rec.totals(Op::Insert),
            OpTotals { hist: vec![0; BUCKETS], ..Default::default() }
        );
    }
}
