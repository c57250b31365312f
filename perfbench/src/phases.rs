//! The measured phases of one round: the three prefill executors and the
//! two streaming-service loads. Each returns its output for checking
//! outside the timed region.

use crate::layers::{timed_push, Recorder, Stamps, TimedAlgorithm, TimedHandler, TimedScheduler};
use crate::workload::Instance;
use rsched::core::framework::{run_concurrent, run_exact_concurrent};
use rsched::core::service::{
    run_service, AlgorithmHandler, ProducerFn, ServiceConfig, ServiceStats,
};
use rsched::core::stats::ConcurrentStats;
use rsched::core::TaskId;
use rsched::queues::concurrent::{BulkMultiQueue, LockFreeMultiQueue};
use rsched::queues::sharded::ShardedScheduler;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Workers of the prefill executors: the 2-CPU host's `nproc`.
pub const THREADS: usize = 2;
/// Service workers. With the generator and the pump also running, a second
/// worker would oversubscribe the 2 CPUs.
pub const SERVICE_WORKERS: usize = 1;
/// Shards of the service scheduler, and lock-free lists per shard.
pub const SHARDS: usize = 2;
const LISTS_PER_SHARD: usize = 4;

/// One prefill executor run.
pub struct Solve<O> {
    pub start: Instant,
    /// Time to a result: algorithm state, scheduler fill, run, output.
    pub total: Duration,
    /// The scheduler fill alone (relaxed executor only; empty otherwise).
    pub fill_start: Instant,
    pub fill: Duration,
    pub stats: ConcurrentStats,
    pub output: O,
}

/// The relaxed executor: `run_concurrent` over the `BulkMultiQueue`
/// figure2 uses, prefilled at construction. With a recorder the scheduler
/// and the algorithm are wrapped and timed.
pub fn relaxed<I: Instance>(inst: &I, rec: Option<&Recorder>) -> Solve<I::Output> {
    let pi = inst.order();
    let t0 = Instant::now();
    let alg = inst.algorithm();
    let tf = Instant::now();
    let entries = (0..pi.len() as u32).map(|v| (pi.label(v) as u64, v));
    let sched = BulkMultiQueue::prefilled_for_threads(THREADS, entries);
    let fill = tf.elapsed();
    let stats = match rec {
        None => run_concurrent(&alg, pi, &sched, THREADS),
        Some(rec) => run_concurrent(
            &TimedAlgorithm::new(&alg, rec),
            pi,
            &TimedScheduler::new(&sched, rec, None),
            THREADS,
        ),
    };
    let output = I::output(alg);
    let total = t0.elapsed();
    drop(sched);
    Solve { start: t0, total, fill_start: tf, fill, stats, output }
}

/// The exact executor: `run_exact_concurrent` (its own FAA queue).
pub fn exact<I: Instance>(inst: &I) -> Solve<I::Output> {
    let t0 = Instant::now();
    let alg = inst.algorithm();
    let stats = run_exact_concurrent(&alg, inst.order(), THREADS);
    let output = I::output(alg);
    Solve { start: t0, total: t0.elapsed(), fill_start: t0, fill: Duration::ZERO, stats, output }
}

/// The plain single-threaded baseline.
pub fn sequential<I: Instance>(inst: &I) -> (Duration, I::Output) {
    let t0 = Instant::now();
    let output = inst.sequential();
    (t0.elapsed(), output)
}

/// How the service phase's one generator offers the task stream.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Closed loop: push flat out, blocking on backpressure.
    Saturate,
    /// Open loop: request `i` is due `i / rate` seconds after the start.
    Open { rate: f64 },
}

/// One `run_service` run over the whole task stream.
pub struct ServiceRun<O> {
    pub stats: ServiceStats,
    /// Pushes the service refused.
    pub refused: u64,
    /// When the generator started (stamp clock), the open loop's time 0.
    pub start_ns: u64,
    pub stamps: Stamps,
    pub output: O,
}

impl<O> ServiceRun<O> {
    /// When request `pos` of the stream was due (stamp clock).
    pub fn due_ns(&self, load: Load, pos: usize) -> u64 {
        self.start_ns + due_offset_ns(load, pos)
    }
}

fn due_offset_ns(load: Load, pos: usize) -> u64 {
    match load {
        Load::Saturate => 0,
        Load::Open { rate } => (pos as f64 * 1e9 / rate) as u64,
    }
}

/// Streams the first `tasks` tasks, in priority order, through
/// `run_service` on `ShardedScheduler<LockFreeMultiQueue>` (default
/// reclamation) with the default service configuration apart from the
/// worker count.
pub fn service<I: Instance>(
    inst: &I,
    load: Load,
    tasks: usize,
    rec: Option<&Recorder>,
) -> ServiceRun<I::Output> {
    let pi = inst.order();
    let n = pi.len();
    let alg = inst.algorithm();
    let handler = AlgorithmHandler(&alg);
    let stamps = Stamps::new(n, Instant::now(), rec.is_some());
    let timed = TimedHandler::new(&handler, &stamps, rec);
    let sched: ShardedScheduler<LockFreeMultiQueue<TaskId>> =
        ShardedScheduler::from_fn(SHARDS, |_| LockFreeMultiQueue::new(LISTS_PER_SHARD));
    let config = ServiceConfig { workers: SERVICE_WORKERS, ..ServiceConfig::default() };
    let refused = AtomicU64::new(0);
    let start_ns = AtomicU64::new(0);
    let (stamps_ref, refused_ref, start_ref) = (&stamps, &refused, &start_ns);
    let generator: ProducerFn<'_> = Box::new(move |prod| {
        let start = stamps_ref.now();
        start_ref.store(start, Ordering::Relaxed);
        for pos in 0..tasks {
            // Sleep rather than spin until the request is due: a spinning
            // generator takes one of the two CPUs from the pump and the
            // worker. Requests that fell due while it slept go out at once,
            // and their latency counts from their due time.
            let due = start + due_offset_ns(load, pos);
            let now = stamps_ref.now();
            if now < due {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            let task = pi.task_at(pos as u32);
            let push = || prod.push(pos as u64, task);
            if timed_push(push, task, stamps_ref, rec).is_err() {
                refused_ref.fetch_add(1, Ordering::Relaxed);
            }
        }
    });
    let stats = match rec {
        None => run_service(&timed, &sched, &config, vec![generator]),
        Some(rec) => run_service(
            &timed,
            &TimedScheduler::new(&sched, rec, Some(&stamps)),
            &config,
            vec![generator],
        ),
    };
    let output = I::output(alg);
    ServiceRun {
        stats,
        refused: refused.into_inner(),
        start_ns: start_ns.into_inner(),
        stamps,
        output,
    }
}
