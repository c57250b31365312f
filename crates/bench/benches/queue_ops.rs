//! Criterion micro-benchmarks: raw insert/pop throughput of every scheduler.
//!
//! These are the operation-level numbers behind the paper's claim that
//! relaxed schedulers trade per-operation exactness for throughput.

use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched_queues::concurrent::{
    BulkMultiQueue, FaaArrayQueue, Heap, LockFreeMultiQueue, MultiQueue, SprayList,
};
use rsched_queues::exact::{BinaryHeapScheduler, PairingHeap};
use rsched_queues::lock::{ClhLock, Lock, McsLock, RawLock, TicketLock};
use rsched_queues::reclaim::{Backend, Ebr, Reclaim, Vbr};
use rsched_queues::relaxed::{SimMultiQueue, SimSprayList, TopKUniform};
use rsched_queues::sharded::ShardedScheduler;
use rsched_queues::{ConcurrentScheduler, PriorityScheduler};
use std::hint::black_box;

const N: u64 = 10_000;

fn drain_sequential<S: PriorityScheduler<u32>>(mut sched: S) -> u64 {
    for p in 0..N {
        sched.insert(p, p as u32);
    }
    let mut acc = 0u64;
    while let Some((p, _)) = sched.pop() {
        acc = acc.wrapping_add(p);
    }
    acc
}

fn bench_sequential(c: &mut Criterion) {
    let mut group = c.benchmark_group("sequential_fill_drain_10k");
    group.sample_size(10);
    group.bench_function("binary_heap", |b| {
        b.iter(|| black_box(drain_sequential(BinaryHeapScheduler::new())))
    });
    group.bench_function("pairing_heap", |b| {
        b.iter(|| black_box(drain_sequential(PairingHeap::new())))
    });
    group.bench_function("top_k_uniform_k16", |b| {
        b.iter(|| black_box(drain_sequential(TopKUniform::new(16, StdRng::seed_from_u64(1)))))
    });
    group.bench_function("sim_multiqueue_q16", |b| {
        b.iter(|| black_box(drain_sequential(SimMultiQueue::new(16, StdRng::seed_from_u64(1)))))
    });
    group.bench_function("sim_spraylist_p16", |b| {
        b.iter(|| {
            black_box(drain_sequential(SimSprayList::with_threads(16, StdRng::seed_from_u64(1))))
        })
    });
    group.finish();
}

fn bench_concurrent_single_thread(c: &mut Criterion) {
    // Single-threaded cost of the concurrent structures: the overhead a
    // 1-thread Figure 2 run pays relative to the sequential baseline.
    let mut group = c.benchmark_group("concurrent_structures_1thread_10k");
    group.sample_size(10);
    group.bench_function("multiqueue_q8", |b| {
        b.iter(|| {
            let q: MultiQueue<u32> = MultiQueue::new(8);
            for p in 0..N {
                q.insert(p, p as u32);
            }
            let mut acc = 0u64;
            while let Some((p, _)) = q.pop() {
                acc = acc.wrapping_add(p);
            }
            black_box(acc)
        })
    });
    group.bench_function("lf_multiqueue_prefilled_q8", |b| {
        b.iter(|| {
            let q = LockFreeMultiQueue::prefilled(8, (0..N).map(|p| (p, p as u32)));
            let mut acc = 0u64;
            while let Some((p, _)) = q.pop() {
                acc = acc.wrapping_add(p);
            }
            black_box(acc)
        })
    });
    group.bench_function("spraylist_p4", |b| {
        b.iter(|| {
            let q: SprayList<u32> = SprayList::new(4);
            for p in 0..N {
                q.insert(p, p as u32);
            }
            let mut acc = 0u64;
            while let Some((p, _)) = q.pop() {
                acc = acc.wrapping_add(p);
            }
            black_box(acc)
        })
    });
    group.bench_function("faa_array_queue", |b| {
        b.iter(|| {
            let q = FaaArrayQueue::from_sorted((0..N).map(|p| (p, p as u32)).collect());
            let mut acc = 0u64;
            while let Some((p, _)) = q.pop() {
                acc = acc.wrapping_add(p);
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_multiqueue_scaling(c: &mut Criterion) {
    // Queue-count ablation: more queues = less contention, more relaxation.
    let mut group = c.benchmark_group("multiqueue_queue_count_2threads");
    group.sample_size(10);
    for q_count in [2usize, 8, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(q_count), &q_count, |b, &qc| {
            b.iter(|| {
                let q: MultiQueue<u32> = MultiQueue::new(qc);
                for p in 0..N {
                    q.insert(p, p as u32);
                }
                std::thread::scope(|s| {
                    for _ in 0..2 {
                        s.spawn(|| {
                            let mut acc = 0u64;
                            while let Some((p, _)) = q.pop() {
                                acc = acc.wrapping_add(p);
                            }
                            black_box(acc)
                        });
                    }
                });
            })
        });
    }
    group.finish();
}

/// Batch size used by the batched-vs-scalar comparison; ≥ 8 per the
/// acceptance bar (batched pops must beat scalar pops per element).
const BATCH: usize = 64;

fn drain_scalar<S: ConcurrentScheduler<u32>>(q: &S) -> u64 {
    let mut acc = 0u64;
    while let Some((p, _)) = q.pop() {
        acc = acc.wrapping_add(p);
    }
    acc
}

fn drain_batched<S: ConcurrentScheduler<u32>>(q: &S) -> u64 {
    let mut acc = 0u64;
    let mut buf: Vec<(u64, u32)> = Vec::with_capacity(BATCH);
    loop {
        buf.clear();
        if q.pop_batch(&mut buf, BATCH) == 0 {
            break;
        }
        for &(p, _) in &buf {
            acc = acc.wrapping_add(p);
        }
    }
    acc
}

fn fill_scalar<S: ConcurrentScheduler<u32>>(q: &S) {
    for p in 0..N {
        q.insert(p, p as u32);
    }
}

fn fill_batched<S: ConcurrentScheduler<u32>>(q: &S) {
    let mut buf: Vec<(u64, u32)> = Vec::with_capacity(BATCH);
    for p in 0..N {
        buf.push((p, p as u32));
        if buf.len() == BATCH {
            q.insert_batch(&buf);
            buf.clear();
        }
    }
    if !buf.is_empty() {
        q.insert_batch(&buf);
    }
}

fn bench_batched_vs_scalar(c: &mut Criterion) {
    // The tentpole measurement: per-element cost of a fill+drain through the
    // scalar ops vs the amortized batch ops, per concurrent scheduler.
    let mut group = c.benchmark_group("batched_vs_scalar_10k");
    group.sample_size(10);
    group.bench_function("multiqueue_q8/scalar", |b| {
        b.iter(|| {
            let q: MultiQueue<u32> = MultiQueue::new(8);
            fill_scalar(&q);
            black_box(drain_scalar(&q))
        })
    });
    group.bench_function("multiqueue_q8/batched", |b| {
        b.iter(|| {
            let q: MultiQueue<u32> = MultiQueue::new(8);
            fill_batched(&q);
            black_box(drain_batched(&q))
        })
    });
    group.bench_function("bulk_multiqueue_q8/scalar", |b| {
        b.iter(|| {
            let q = BulkMultiQueue::prefilled(8, (0..N).map(|p| (p, p as u32)));
            black_box(drain_scalar(&q))
        })
    });
    group.bench_function("bulk_multiqueue_q8/batched", |b| {
        b.iter(|| {
            let q = BulkMultiQueue::prefilled(8, (0..N).map(|p| (p, p as u32)));
            black_box(drain_batched(&q))
        })
    });
    group.bench_function("lf_multiqueue_q8/scalar", |b| {
        b.iter(|| {
            let q = LockFreeMultiQueue::prefilled(8, (0..N).map(|p| (p, p as u32)));
            black_box(drain_scalar(&q))
        })
    });
    group.bench_function("lf_multiqueue_q8/batched", |b| {
        b.iter(|| {
            let q = LockFreeMultiQueue::prefilled(8, (0..N).map(|p| (p, p as u32)));
            black_box(drain_batched(&q))
        })
    });
    group.bench_function("spraylist_p4/scalar", |b| {
        b.iter(|| {
            let q: SprayList<u32> = SprayList::new(4);
            fill_scalar(&q);
            black_box(drain_scalar(&q))
        })
    });
    group.bench_function("spraylist_p4/batched", |b| {
        b.iter(|| {
            let q: SprayList<u32> = SprayList::new(4);
            fill_batched(&q);
            black_box(drain_batched(&q))
        })
    });
    group.bench_function("faa_array_queue/scalar", |b| {
        b.iter(|| {
            let q = FaaArrayQueue::from_sorted((0..N).map(|p| (p, p as u32)).collect());
            let mut acc = 0u64;
            while let Some((p, _)) = q.pop() {
                acc = acc.wrapping_add(p);
            }
            black_box(acc)
        })
    });
    group.bench_function("faa_array_queue/batched", |b| {
        b.iter(|| {
            let q = FaaArrayQueue::from_sorted((0..N).map(|p| (p, p as u32)).collect());
            let mut acc = 0u64;
            let mut buf: Vec<(u64, u32)> = Vec::with_capacity(BATCH);
            loop {
                buf.clear();
                if q.pop_batch(&mut buf, BATCH) == 0 {
                    break;
                }
                for &(p, _) in &buf {
                    acc = acc.wrapping_add(p);
                }
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_lf_multiqueue_contention(c: &mut Criterion) {
    // The epoch-shim scaling measurement (ROADMAP "Epoch shim hardening"):
    // every pop_batch pins the epoch once, so this curve is dominated by the
    // reclamation hot path once threads collide. Workers drain a prefilled
    // queue through `pop_batch`; a worker stops when a batch comes back
    // empty (no inserts run, so an empty observation means the lists it can
    // reach were drained).
    let mut group = c.benchmark_group("lf_multiqueue_contention");
    group.sample_size(10);
    for threads in [2usize, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| {
                let q = LockFreeMultiQueue::prefilled(4 * t, (0..N).map(|p| (p, p as u32)));
                std::thread::scope(|s| {
                    for _ in 0..t {
                        s.spawn(|| black_box(drain_batched(&q)));
                    }
                });
            })
        });
    }
    group.finish();
}

/// Batched drain through a worker-pinned `pop_batch_for`, the access
/// pattern of the sharded executor.
fn drain_batched_for<S: ConcurrentScheduler<u32>>(q: &S, worker: usize) -> u64 {
    let mut acc = 0u64;
    let mut buf: Vec<(u64, u32)> = Vec::with_capacity(BATCH);
    loop {
        buf.clear();
        if q.pop_batch_for(worker, &mut buf, BATCH) == 0 {
            break;
        }
        for &(p, _) in &buf {
            acc = acc.wrapping_add(p);
        }
    }
    acc
}

fn bench_sharded_contention(c: &mut Criterion) {
    // The sharding tentpole measurement: `threads` workers drain a
    // prefilled sharded scheduler through their affinity shard
    // (`pop_batch_for`), sweeping shard count × thread count over both the
    // lock-based and the lock-free MultiQueue inner. One shard is the
    // unsharded baseline; more shards split the contention domain (and at
    // 1 thread expose the combinator's routing overhead). Total internal
    // queue count is held at 4·threads across shard counts so the sweep
    // isolates partitioning, not queue-count relaxation.
    let mut group = c.benchmark_group("sharded_contention");
    group.sample_size(10);
    for &threads in &[2usize, 8] {
        for &shards in &[1usize, 2, 4] {
            let queues_per_shard = (4 * threads).div_ceil(shards);
            group.bench_with_input(
                BenchmarkId::new(format!("multiqueue_t{threads}"), shards),
                &shards,
                |b, &s| {
                    b.iter(|| {
                        let q = ShardedScheduler::prefilled_with(
                            s,
                            (0..N).map(|p| (p, p as u32)),
                            |_, part| {
                                let inner: MultiQueue<u32> = MultiQueue::new(queues_per_shard);
                                inner.insert_batch(&part);
                                inner
                            },
                        );
                        std::thread::scope(|sc| {
                            for w in 0..threads {
                                let q = &q;
                                sc.spawn(move || black_box(drain_batched_for(q, w)));
                            }
                        });
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("multiqueue_mcs_t{threads}"), shards),
                &shards,
                |b, &s| {
                    b.iter(|| {
                        let q = ShardedScheduler::prefilled_with(
                            s,
                            (0..N).map(|p| (p, p as u32)),
                            |_, part| {
                                let inner: MultiQueue<u32, Lock<McsLock, Heap<u32>>> =
                                    MultiQueue::with_lock(queues_per_shard);
                                inner.insert_batch(&part);
                                inner
                            },
                        );
                        std::thread::scope(|sc| {
                            for w in 0..threads {
                                let q = &q;
                                sc.spawn(move || black_box(drain_batched_for(q, w)));
                            }
                        });
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("lf_multiqueue_t{threads}"), shards),
                &shards,
                |b, &s| {
                    b.iter(|| {
                        let q = ShardedScheduler::prefilled_with(
                            s,
                            (0..N).map(|p| (p, p as u32)),
                            |_, part| LockFreeMultiQueue::prefilled(queues_per_shard, part),
                        );
                        std::thread::scope(|sc| {
                            for w in 0..threads {
                                let q = &q;
                                sc.spawn(move || black_box(drain_batched_for(q, w)));
                            }
                        });
                    })
                },
            );
        }
    }
    group.finish();
}

/// Uncontended iterations per lock in `lock_ops` (per measured iteration).
const LOCK_ITERS: u64 = 10_000;

/// `LOCK_ITERS` acquire/increment/release rounds on an uncontended lock.
fn uncontended<R: RawLock>() -> u64 {
    let lock = Lock::<R, u64>::new(0);
    for _ in 0..LOCK_ITERS {
        *lock.lock() += 1;
    }
    lock.into_inner()
}

/// `threads` workers share one lock, `LOCK_ITERS / threads` rounds each:
/// the handoff-latency shape the queue locks exist to improve — every
/// release forwards the critical section to a spinning waiter.
fn handoff<R: RawLock>(threads: usize) -> u64 {
    let lock = Lock::<R, u64>::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            let lock = &lock;
            s.spawn(move || {
                for _ in 0..LOCK_ITERS / threads as u64 {
                    *lock.lock() += 1;
                }
            });
        }
    });
    lock.into_inner()
}

fn bench_lock_ops(c: &mut Criterion) {
    // The queue-lock toolkit measurement (DESIGN.md substitution #8):
    // uncontended latency (where parking_lot's adaptive fast path is the
    // bar) and 2/4/8-way handoff latency (where local spinning on a
    // per-waiter flag is supposed to pay for itself against the global
    // cache-line storm of the ticket lock).
    let mut group = c.benchmark_group("lock_ops");
    group.sample_size(10);
    group.bench_function("uncontended/mcs", |b| b.iter(|| black_box(uncontended::<McsLock>())));
    group.bench_function("uncontended/clh", |b| b.iter(|| black_box(uncontended::<ClhLock>())));
    group.bench_function("uncontended/ticket", |b| {
        b.iter(|| black_box(uncontended::<TicketLock>()))
    });
    group.bench_function("uncontended/std_mutex", |b| {
        b.iter(|| {
            let lock = std::sync::Mutex::new(0u64);
            for _ in 0..LOCK_ITERS {
                *lock.lock().unwrap() += 1;
            }
            black_box(lock.into_inner().unwrap())
        })
    });
    for threads in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("handoff_mcs", threads), &threads, |b, &t| {
            b.iter(|| black_box(handoff::<McsLock>(t)))
        });
        group.bench_with_input(BenchmarkId::new("handoff_clh", threads), &threads, |b, &t| {
            b.iter(|| black_box(handoff::<ClhLock>(t)))
        });
        group.bench_with_input(BenchmarkId::new("handoff_ticket", threads), &threads, |b, &t| {
            b.iter(|| black_box(handoff::<TicketLock>(t)))
        });
    }
    group.finish();
}

fn bench_cross_scheduler_contention(c: &mut Criterion) {
    // The long-open ROADMAP item ("Concurrent-scheduler benchmarks at
    // scale"): all four relaxed concurrent schedulers on ONE pinned drain
    // workload — prefill the same 10k priorities, then `threads` workers
    // scalar-pop to empty — at 2/4/8 threads, so their crossover points are
    // directly comparable. Internal capacity is held at 4 queues (or spray
    // threads) per worker across all rows, matching the executors' sizing.
    let mut group = c.benchmark_group("cross_scheduler_contention");
    group.sample_size(10);
    for threads in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("multiqueue", threads), &threads, |b, &t| {
            b.iter(|| {
                let q: MultiQueue<u32> = MultiQueue::for_threads(t);
                fill_scalar(&q);
                std::thread::scope(|s| {
                    for _ in 0..t {
                        s.spawn(|| black_box(drain_scalar(&q)));
                    }
                });
            })
        });
        group.bench_with_input(BenchmarkId::new("lf_multiqueue", threads), &threads, |b, &t| {
            b.iter(|| {
                let q = LockFreeMultiQueue::prefilled(4 * t, (0..N).map(|p| (p, p as u32)));
                std::thread::scope(|s| {
                    for _ in 0..t {
                        s.spawn(|| black_box(drain_scalar(&q)));
                    }
                });
            })
        });
        group.bench_with_input(BenchmarkId::new("bulk_multiqueue", threads), &threads, |b, &t| {
            b.iter(|| {
                let q = BulkMultiQueue::prefilled_for_threads(t, (0..N).map(|p| (p, p as u32)));
                std::thread::scope(|s| {
                    for _ in 0..t {
                        s.spawn(|| black_box(drain_scalar(&q)));
                    }
                });
            })
        });
        group.bench_with_input(BenchmarkId::new("multiqueue_mcs", threads), &threads, |b, &t| {
            // Same structure as the `multiqueue` row with the bucket mutex
            // swapped for an MCS lock: the pinned comparison for whether
            // FIFO handoff beats parking_lot's barging under bucket
            // contention.
            b.iter(|| {
                let q: MultiQueue<u32, Lock<McsLock, Heap<u32>>> = MultiQueue::with_lock(4 * t);
                fill_scalar(&q);
                std::thread::scope(|s| {
                    for _ in 0..t {
                        s.spawn(|| black_box(drain_scalar(&q)));
                    }
                });
            })
        });
        group.bench_with_input(
            BenchmarkId::new("multiqueue_ticket", threads),
            &threads,
            |b, &t| {
                b.iter(|| {
                    let q: MultiQueue<u32, Lock<TicketLock, Heap<u32>>> =
                        MultiQueue::with_lock(4 * t);
                    fill_scalar(&q);
                    std::thread::scope(|s| {
                        for _ in 0..t {
                            s.spawn(|| black_box(drain_scalar(&q)));
                        }
                    });
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("spraylist", threads), &threads, |b, &t| {
            b.iter(|| {
                let q: SprayList<u32> = SprayList::new(t);
                fill_scalar(&q);
                std::thread::scope(|s| {
                    for _ in 0..t {
                        s.spawn(|| black_box(drain_scalar(&q)));
                    }
                });
            })
        });
    }
    group.finish();
}

/// The `--reclaim {ebr,vbr}` CLI filter: restricts the bake-off cells to
/// one backend so a single backend can be re-measured in isolation; both
/// run when the flag is absent.
fn reclaim_filter() -> Option<Backend> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--reclaim")?;
    let v = args.get(i + 1).expect("--reclaim needs a value: ebr | vbr");
    Some(v.parse().unwrap_or_else(|e| panic!("--reclaim: {e}")))
}

/// One bake-off cell: `threads` workers scalar-pop a prefilled
/// `LockFreeMultiQueue<_, R>` to empty. Scalar pops on purpose — each EBR
/// pop pays a pin (store + SeqCst fence) where VBR validates with plain
/// loads, and batching would amortize exactly the cost under test.
fn bakeoff_drain<R: Reclaim>(threads: usize) {
    let q = LockFreeMultiQueue::<u32, R>::prefilled_in(
        4 * threads.max(2),
        (0..N).map(|p| (p, p as u32)),
    );
    if threads == 1 {
        black_box(drain_scalar(&q));
    } else {
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| black_box(drain_scalar(&q)));
            }
        });
    }
}

fn bench_reclaim_bakeoff(c: &mut Criterion) {
    // The reclamation tentpole measurement: EBR's pinned pop vs VBR's
    // validate-only pop on the same lock-free MultiQueue drain, at 1
    // thread (pure per-op overhead — the per-pop fence is the whole gap)
    // and 2/4/8 threads (where CAS contention starts to share the bill).
    let filter = reclaim_filter();
    let mut group = c.benchmark_group("reclaim_bakeoff");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        if filter.is_none_or(|b| b == Backend::Ebr) {
            group.bench_with_input(BenchmarkId::new("ebr", threads), &threads, |b, &t| {
                b.iter(|| bakeoff_drain::<Ebr>(t))
            });
        }
        if filter.is_none_or(|b| b == Backend::Vbr) {
            group.bench_with_input(BenchmarkId::new("vbr", threads), &threads, |b, &t| {
                b.iter(|| bakeoff_drain::<Vbr>(t))
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sequential,
    bench_concurrent_single_thread,
    bench_multiqueue_scaling,
    bench_batched_vs_scalar,
    bench_lf_multiqueue_contention,
    bench_sharded_contention,
    bench_lock_ops,
    bench_cross_scheduler_contention,
    bench_reclaim_bakeoff
);
// Hand-rolled `criterion_main!`: after the groups run, `--json PATH`
// merges every benchmark's timing summary into the shared report file
// (`cargo bench -p rsched-bench --bench queue_ops -- --json BENCH_8.json`).
fn main() {
    benches();
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--json") {
        let path = args.get(i + 1).expect("--json needs a PATH argument");
        let mut path = std::path::PathBuf::from(path);
        if path.is_relative() {
            // `cargo bench` runs this binary with cwd = the package dir
            // (crates/bench), unlike `cargo run`; anchor relative paths at
            // the workspace root so `--json BENCH_8.json` merges into the
            // same report the experiment binaries write.
            path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(path);
        }
        use rsched_bench::report::{update_report, Json};
        let fields: Vec<(String, Json)> = criterion::results::take()
            .into_iter()
            .map(|s| {
                let summary = Json::obj([
                    ("min_ns", Json::Num(s.min_ns)),
                    ("median_ns", Json::Num(s.median_ns)),
                    ("mean_ns", Json::Num(s.mean_ns)),
                    ("trimmed_mean_ns", Json::Num(s.trimmed_mean_ns)),
                ]);
                (s.id, summary)
            })
            .collect();
        update_report(&path, "queue_ops", &Json::Obj(fields));
        println!("json queue_ops timings merged into {}", path.display());
    }
}
