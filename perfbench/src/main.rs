//! The repository's benchmark: one command per workload, end-to-end metrics
//! with tracing off, per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload mis-sparse|service-conn --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload builds its instance from the seed (set up at least three
//! times and for at least [`SETUP_MIN`]; `setup_s` is the median), then
//! repeats rounds for about `--seconds`. A round runs, on the same instance:
//!
//! 1. the relaxed executor (`run_concurrent` on `BulkMultiQueue`, 2 workers);
//! 2. the exact executor (`run_exact_concurrent`, 2 workers);
//! 3. the sequential baseline;
//! 4. a closed-loop saturation phase: the whole task stream through
//!    `run_service`, one generator pushing flat out against backpressure,
//!    one worker;
//! 5. an open-loop phase: the first [`OPEN_LOOP_SECONDS`]' worth of the
//!    stream at a fixed offered rate, latency timed from each request's due
//!    time.
//!
//! Phases 1-3 repeat within a round until each has run for [`PHASE_MIN`].
//! Rounds are short so that every metric's samples are spread over the
//! whole run: on a shared host the speed a guest gets drifts over seconds,
//! and samples taken in a few long blocks inherit the drift of those few
//! blocks. Every workload runs every phase because every end-to-end metric
//! is reported for every workload; each workload still gives one layer most
//! of its time (see `BENCHMARK.json`).
//!
//! Every output is checked against a reference computed in setup, outside
//! the timed region. A diverged output, a refused push, an unbalanced
//! ledger, or an open-loop backlog that does not drain counts as a failed
//! operation, is printed, and makes the command exit non-zero.
//!
//! With `--trace 1`, rounds alternate untraced and traced; traced rounds
//! wrap each layer's entry points (`layers`) and the per-layer metrics are
//! medians over them. Which end-to-end metric each layer metric should
//! move:
//!
//! * `queues.*` (relaxed solve) → `solve_ms` on both workloads; the insert
//!   counts (re-inserted blocked tasks) only on mis-sparse, since no edge of
//!   service-conn ever waits on another.
//! * `framework.*` (relaxed solve) → `solve_ms` on both; about four pops in
//!   five return an obsolete task on both; `framework.exact_waits` →
//!   `exact_solve_ms`.
//! * `algorithms.*` (relaxed solve) → `solve_ms`, `exact_solve_ms`, `seq_ms`
//!   on both; `try_process` is a few cache misses on both workloads.
//! * `service.*` (service phases) → `sat_ops_per_s` and `lat_p50_us`,
//!   most on service-conn, whose handler is cheapest.
//! * `graph.*` (setup) → `setup_s` only.
//! * `host.steal_pct` moves nothing: it is the share of CPU time the
//!   hypervisor gave to other guests during the run, which explains
//!   outlying runs on a shared host.

mod layers;
mod phases;
mod stats;
mod workload;

use layers::{Op, Recorder};
use phases::{Load, ServiceRun, Solve, SERVICE_WORKERS, SHARDS, THREADS};
use rsched::graph::Permutation;
use stats::{fail_ratio, median, percentiles_u64, self_time_ns, window_medians, window_rates};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use workload::{Connectivity, Instance, Mis};

/// Setups per run: at least this many, and more until [`SETUP_MIN`] has
/// passed, so a cheap setup is sampled often; `setup_s` and `graph.gen_ms`
/// are their medians.
const SETUP_REPS: usize = 3;
const SETUP_MIN: Duration = Duration::from_secs(3);
/// The open-loop backlog check: in the median round the last request must
/// complete within this share of the schedule's length after it was due (a
/// backlog that grows with the schedule means the offered rate is not
/// sustained).
const DRAIN_SHARE: f64 = 0.2;
const DRAIN_FLOOR_MS: f64 = 50.0;
/// Length of the open-loop schedule: the phase streams the first
/// `offered_rate × OPEN_LOOP_SECONDS` tasks of the order (all of them if
/// fewer).
const OPEN_LOOP_SECONDS: f64 = 1.5;
/// Open-loop latency percentiles skip the first tenth of the stream, where
/// thread start-up would otherwise set the tail.
const WARMUP_SHARE: f64 = 0.1;
/// Windows per service phase: `sat_ops_per_s` and `lat_p50_us` are medians
/// over windows of 1/WINDOWS of the stream, pooled across rounds, so a
/// host stall (vCPU steal on a shared host) spoils only the windows it
/// overlaps.
const WINDOWS: usize = 20;
/// Untraced rounds repeat each prefill executor until it has run this long:
/// one relaxed solve, two exact ones, several sequential ones per round.
const PHASE_MIN: Duration = Duration::from_millis(300);

/// The end-to-end metrics (untraced rounds), in output order.
const E2E: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("solve_ms", "ms"),
    ("exact_solve_ms", "ms"),
    ("seq_ms", "ms"),
    ("sat_ops_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics (`--trace 1`), in output order: medians over the
/// traced rounds, except the open-loop tail percentiles and the setup-time
/// `graph.*` figures.
const LAYER: [(&str, &str); 46] = [
    ("graph.gen_ms", "ms"),
    ("graph.bytes", "B"),
    ("queues.fill_ms", "ms"),
    ("queues.pop_calls", "count"),
    ("queues.pop_items", "count"),
    ("queues.pop_empty", "count"),
    ("queues.pop_ns", "ns"),
    ("queues.busy_ms", "ms"),
    ("queues.insert_calls", "count"),
    ("queues.insert_items", "count"),
    ("queues.insert_ns", "ns"),
    ("framework.pops", "count"),
    ("framework.processed", "count"),
    ("framework.wasted", "count"),
    ("framework.obsolete", "count"),
    ("framework.empty_pops", "count"),
    ("framework.extra_iters", "count"),
    ("framework.useful_ratio", "ratio"),
    ("framework.worker_ms", "ms"),
    ("framework.self_ms", "ms"),
    ("framework.self_ns_per_pop", "ns"),
    ("framework.exact_waits", "count"),
    ("algorithms.calls", "count"),
    ("algorithms.busy_ms", "ms"),
    ("algorithms.ns_per_call", "ns"),
    ("algorithms.processed_ns", "ns"),
    ("algorithms.blocked_ns", "ns"),
    ("algorithms.obsolete_ns", "ns"),
    ("service.push_wait_ns", "ns"),
    ("service.handle_ns", "ns"),
    ("service.flush_items", "count"),
    ("service.insert_ns", "ns"),
    ("service.pop_ns", "ns"),
    ("service.empty_pops", "count"),
    ("service.ingest_us", "us"),
    ("service.ingest_p99_us", "us"),
    ("service.sched_wait_us", "us"),
    ("service.sched_wait_p99_us", "us"),
    ("service.gen_lag_us", "us"),
    ("service.drain_ms", "ms"),
    ("service.lat_p90_us", "us"),
    ("service.lat_p99_us", "us"),
    ("service.lat_p999_us", "us"),
    ("host.steal_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.solve_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag}"))?;
        if !matches!(key, "workload" | "seed" | "seconds" | "trace") {
            return Err(format!("unknown flag --{key}"));
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let seconds: f64 = get("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace expects 0 or 1, got {t}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload mis-sparse|service-conn --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    if rsched::obs::ENABLED && !args.trace {
        eprintln!("perfbench: refusing end-to-end timings with the rsched-obs probes compiled in");
        return ExitCode::from(2);
    }
    match args.workload.as_str() {
        "mis-sparse" => run(&args, Mis::generate, "n=1000000 m=10000000"),
        "service-conn" => run(&args, Connectivity::generate, "n=200000 m=1000000 edges"),
        w => {
            eprintln!("perfbench: unknown workload {w}");
            ExitCode::from(2)
        }
    }
}

/// Coarse spans (setup, fill, solve, verify, service phases), kept in
/// memory and written out as a chrome://tracing file at the end.
struct Spans {
    origin: Instant,
    list: Vec<(&'static str, usize, Duration, Duration)>,
}

impl Spans {
    fn record(&mut self, name: &'static str, round: usize, start: Instant, end: Instant) {
        self.list.push((name, round, start - self.origin, end - self.origin));
    }

    fn to_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[");
        for (i, (name, round, start, end)) in self.list.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"round\":{round}}}}}",
                start.as_secs_f64() * 1e6,
                (*end - *start).as_secs_f64() * 1e6
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

/// Named samples, one per round, reduced to medians at the end.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }
    fn median(&self, name: &str) -> (f64, usize) {
        let xs = self.0.get(name).map(Vec::as_slice).unwrap_or(&[]);
        median(xs).map_or((0.0, 0), |m| (m.value, m.samples))
    }
}

/// Failure bookkeeping: every checked run is one attempted operation.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            let msg = what();
            println!("FAIL {msg}");
            self.failures.push(msg);
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Open-loop latencies (ns, from each request's due time) of the first `n`
/// tasks of `pi` after the warm-up share, and the drain time after the last
/// due request; `None` if some request was never decided.
fn open_loop_latency<O>(
    run: &ServiceRun<O>,
    load: Load,
    pi: &Permutation,
    n: usize,
) -> Option<(Vec<u64>, f64)> {
    let warm = (n as f64 * WARMUP_SHARE) as usize;
    let mut lat = Vec::with_capacity(n - warm);
    let mut last_done = 0u64;
    for pos in 0..n {
        let task = pi.task_at(pos as u32) as usize;
        let done = run.stamps.done[task].load(Ordering::Relaxed);
        if done == 0 {
            return None;
        }
        last_done = last_done.max(done);
        if pos >= warm {
            lat.push(done.saturating_sub(run.due_ns(load, pos)));
        }
    }
    let drain_ms = last_done.saturating_sub(run.due_ns(load, n - 1)) as f64 / 1e6;
    Some((lat, drain_ms))
}

/// The median and 99th percentile over tasks of `to - from` (µs) for two
/// per-task stamp vectors, over the tasks that reached both hops.
fn gap_us(from: &[AtomicU64], to: &[AtomicU64]) -> [f64; 2] {
    let mut gaps: Vec<u64> = from
        .iter()
        .zip(to)
        .map(|(a, b)| (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed)))
        .filter(|&(a, b)| a > 0 && b > 0)
        .map(|(a, b)| b.saturating_sub(a))
        .collect();
    if gaps.is_empty() {
        return [0.0; 2];
    }
    let p = percentiles_u64(&mut gaps, &[0.5, 0.99]);
    [p[0] as f64 / 1e3, p[1] as f64 / 1e3]
}

/// Jiffies since boot summed over CPUs, `(all, steal)`, from /proc/stat
/// (zeros where it is unreadable). Steal is time a hypervisor ran other
/// guests on this guest's CPUs; it explains outlying runs on shared hosts.
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().next() else { return (0, 0) };
    let v: Vec<u64> = line.split_whitespace().skip(1).filter_map(|x| x.parse().ok()).collect();
    (v.iter().take(8).sum(), v.get(7).copied().unwrap_or(0))
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn env_or(key: &str, default: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| default.to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Tasks the open-loop phase streams: `OPEN_LOOP_SECONDS` at the offered
/// rate, or the whole order if it is shorter.
fn open_loop_tasks<I: Instance>(inst: &I) -> usize {
    let n = inst.order().len();
    ((inst.offered_rate() * OPEN_LOOP_SECONDS) as usize).clamp(1, n)
}

/// Runs `phase` once when `once`, else repeatedly until it has run for
/// [`PHASE_MIN`], so short phases give several samples per round.
fn repeat<T>(once: bool, mut phase: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = vec![phase()];
    while !once && start.elapsed() < PHASE_MIN {
        out.push(phase());
    }
    out
}

fn median_of(xs: impl Iterator<Item = f64>) -> f64 {
    median(&xs.collect::<Vec<_>>()).map_or(0.0, |m| m.value)
}

/// Per-call log2 histograms of one traced round's recorders.
fn print_histograms(recorders: &[(&str, &Recorder)]) {
    let ops = [Op::Pop, Op::Insert, Op::Processed, Op::Blocked, Op::Obsolete, Op::Handle, Op::Push];
    for (phase, rec) in recorders {
        for op in ops {
            let t = rec.totals(op);
            if t.calls > 0 {
                println!(
                    "hist {phase} {op:?}: {} calls, {:.0} ns mean, p50 < {} ns, p99 < {} ns, p99.9 < {} ns",
                    t.calls,
                    t.ns_per_call(),
                    t.hist_quantile_ns(0.5),
                    t.hist_quantile_ns(0.99),
                    t.hist_quantile_ns(0.999)
                );
            }
        }
    }
}

/// The relaxed solve's per-layer split (traced rounds only).
fn layer_samples<O>(layer: &mut Samples, solve: &Solve<O>, rec: &Recorder, n: usize) {
    let pop = rec.totals(Op::Pop);
    let ins = rec.totals(Op::Insert);
    let outcomes = [Op::Processed, Op::Blocked, Op::Obsolete].map(|op| rec.totals(op));
    let alg_ns: u64 = outcomes.iter().map(|t| t.ns).sum();
    let alg_calls: u64 = outcomes.iter().map(|t| t.calls).sum();
    let queue_ns = pop.ns + ins.ns;
    let worker_ns = solve.stats.elapsed.as_nanos() as u64 * THREADS as u64;
    let self_ns = self_time_ns(worker_ns, &[queue_ns, alg_ns]);
    let s = &solve.stats;
    layer.push("queues.fill_ms", ms(solve.fill));
    layer.push("queues.pop_calls", pop.calls as f64);
    layer.push("queues.pop_items", pop.items as f64);
    layer.push("queues.pop_empty", pop.empty as f64);
    layer.push("queues.pop_ns", pop.ns_per_call());
    layer.push("queues.busy_ms", queue_ns as f64 / 1e6);
    layer.push("queues.insert_calls", ins.calls as f64);
    layer.push("queues.insert_items", ins.items as f64);
    layer.push("queues.insert_ns", ins.ns_per_call());
    layer.push("framework.pops", s.total_pops as f64);
    layer.push("framework.processed", s.processed as f64);
    layer.push("framework.wasted", s.wasted as f64);
    layer.push("framework.obsolete", s.obsolete as f64);
    layer.push("framework.empty_pops", s.empty_pops as f64);
    layer.push("framework.extra_iters", s.total_pops.saturating_sub(n as u64) as f64);
    layer.push("framework.useful_ratio", s.processed as f64 / s.total_pops.max(1) as f64);
    layer.push("framework.self_ms", self_ns as f64 / 1e6);
    layer.push("framework.self_ns_per_pop", self_ns as f64 / s.total_pops.max(1) as f64);
    layer.push("framework.worker_ms", worker_ns as f64 / 1e6);
    layer.push("algorithms.calls", alg_calls as f64);
    layer.push("algorithms.busy_ms", alg_ns as f64 / 1e6);
    layer.push("algorithms.ns_per_call", alg_ns as f64 / alg_calls.max(1) as f64);
    layer.push("algorithms.processed_ns", outcomes[0].ns_per_call());
    layer.push("algorithms.blocked_ns", outcomes[1].ns_per_call());
    layer.push("algorithms.obsolete_ns", outcomes[2].ns_per_call());
}

fn run<I: Instance>(args: &Args, generate: fn(u64) -> I, sizes: &str) -> ExitCode {
    let mut spans = Spans { origin: Instant::now(), list: Vec::new() };
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "provenance {{\"commit\":{},\"dirty\":{},\"source_sha256\":{},\"rustc\":{},\"obs_enabled\":{},\"nproc\":{nproc},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"sizes\":{},\"threads\":{{\"prefill_workers\":{THREADS},\"service_workers\":{SERVICE_WORKERS},\"generators\":1,\"pump_threads\":1,\"shards\":{SHARDS}}}}}",
        json_str(&env_or("PERFBENCH_COMMIT", "unknown")),
        json_str(&env_or("PERFBENCH_DIRTY", "unknown")),
        json_str(&env_or("PERFBENCH_SOURCE_SHA256", "unknown")),
        json_str(&env_or("PERFBENCH_RUSTC", "unknown")),
        rsched::obs::ENABLED,
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_str(sizes),
    );

    let jiffies0 = cpu_jiffies();
    // Setup: input generation plus the reference result, several times.
    let mut e2e = Samples::default();
    let mut layer = Samples::default();
    let mut instance: Option<(I, I::Output, I::Output)> = None;
    let setup_start = Instant::now();
    let mut setups = 0;
    while setups < SETUP_REPS || setup_start.elapsed() < SETUP_MIN {
        setups += 1;
        drop(instance.take());
        let t0 = Instant::now();
        let inst = generate(args.seed);
        let generated = Instant::now();
        let reference = inst.sequential();
        let open_tasks = open_loop_tasks(&inst);
        let open_reference = inst.prefix_reference(open_tasks);
        let t1 = Instant::now();
        spans.record("setup", 0, t0, t1);
        e2e.push("setup_s", (t1 - t0).as_secs_f64());
        layer.push("graph.gen_ms", ms(generated - t0));
        layer.push("graph.bytes", inst.input_bytes() as f64);
        instance = Some((inst, reference, open_reference));
    }
    let (inst, reference, open_reference) = instance.expect("at least one setup");
    let pi = inst.order();
    let n = pi.len();
    let open_tasks = open_loop_tasks(&inst);
    let open = Load::Open { rate: inst.offered_rate() };
    let schedule_ms = open_tasks as f64 / inst.offered_rate() * 1e3;
    let drain_limit_ms = (schedule_ms * DRAIN_SHARE).max(DRAIN_FLOOR_MS);
    println!(
        "setup: {:.3} s median of {setups}; {n} tasks; open loop offers the first {open_tasks} at {:.0} req/s over {schedule_ms:.0} ms",
        e2e.median("setup_s").0,
        inst.offered_rate(),
    );

    let mut checks = Checks::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let min_rounds = if args.trace { 2 } else { 1 };
    let measuring = Instant::now();
    let mut round = 0usize;
    let mut drains = Vec::new();
    // Another round starts while it is expected to end no later than half
    // a round past the budget, so runs measure `--seconds` give or take
    // half a round.
    while round < min_rounds || {
        let spent = measuring.elapsed();
        spent + spent / (2 * round as u32) < budget
    } {
        round += 1;
        // With --trace 1, even rounds are traced and odd ones are not, so
        // the overhead compares rounds of the same run.
        let traced = args.trace && round.is_multiple_of(2);

        // The prefill executors, each output checked outside its timing.
        let rec = traced.then(Recorder::default);
        let solve_span = if traced { "solve.traced" } else { "solve" };
        let mut last_relaxed = None;
        let solves = repeat(traced, || {
            let r = phases::relaxed(&inst, rec.as_ref());
            spans.record("fill", round, r.fill_start, r.fill_start + r.fill);
            spans.record(solve_span, round, r.start, r.start + r.total);
            let ok = r.output == reference;
            checks.check(ok, || format!("round {round}: relaxed output diverged"));
            let time = ms(r.total);
            last_relaxed = Some(r);
            time
        });
        let mut exact_waits = 0;
        let exacts = repeat(traced, || {
            let r = phases::exact(&inst);
            spans.record("exact", round, r.start, r.start + r.total);
            checks.check(r.output == reference, || format!("round {round}: exact output diverged"));
            exact_waits = r.stats.wasted;
            ms(r.total)
        });
        let seqs = repeat(traced, || {
            let t = Instant::now();
            let (time, out) = phases::sequential(&inst);
            spans.record("sequential", round, t, t + time);
            checks.check(out == reference, || format!("round {round}: sequential output diverged"));
            ms(time)
        });
        let t3 = Instant::now();

        // Service phases: each with its own recorder, so the saturation
        // phase's per-call figures are not mixed with the open loop's.
        let sat_rec = traced.then(Recorder::default);
        let sat = phases::service(&inst, Load::Saturate, n, sat_rec.as_ref());
        let t4 = Instant::now();
        spans.record("service.saturation", round, t3, t4);
        let open_rec = traced.then(Recorder::default);
        let ol = phases::service(&inst, open, open_tasks, open_rec.as_ref());
        let t5 = Instant::now();
        spans.record("service.open_loop", round, t4, t5);
        let phases =
            [("saturation", &sat, n, &reference), ("open-loop", &ol, open_tasks, &open_reference)];
        for (what, run, tasks, expected) in phases {
            let s = &run.stats;
            let output_ok = run.output == *expected;
            checks.check(
                s.exactly_once() && s.accepted == tasks as u64 && run.refused == 0 && output_ok,
                || {
                    format!(
                        "round {round}: {what} service failed (exactly_once {}, accepted {} of {tasks}, refused {}, output matches {output_ok})",
                        s.exactly_once(),
                        s.accepted,
                        run.refused,
                    )
                },
            );
        }
        let latency = open_loop_latency(&ol, open, pi, open_tasks);
        checks
            .check(latency.is_some(), || format!("round {round}: open-loop request never decided"));
        let drain_ms = latency.as_ref().map_or(f64::INFINITY, |l| l.1);
        drains.push(drain_ms);
        let mut done: Vec<u64> =
            sat.stamps.done.iter().map(|d| d.load(Ordering::Relaxed)).collect();
        let sat_windows = window_rates(&mut done, (n / WINDOWS).max(2));
        let (lat_windows, tail) = match latency {
            Some((mut lat, _)) => {
                let windows = window_medians(&lat, (lat.len() / WINDOWS).max(1));
                let p = percentiles_u64(&mut lat, &[0.5, 0.9, 0.99, 0.999]);
                (windows, p.into_iter().map(|ns| ns as f64 / 1e3).collect())
            }
            None => (Vec::new(), vec![0.0; 4]),
        };
        spans.record("verify", round, t5, Instant::now());
        println!(
            "round {round}{}: solve {:.1} ms x{} | exact {:.1} ms x{} | seq {:.1} ms x{} | sat {:.0} ops/s | open p50 {:.1} p90 {:.1} p99 {:.1} us, drain {drain_ms:.1} ms",
            if traced { " (traced)" } else { "" },
            median_of(solves.iter().copied()),
            solves.len(),
            median_of(exacts.iter().copied()),
            exacts.len(),
            median_of(seqs.iter().copied()),
            seqs.len(),
            sat.stats.accepted as f64 / sat.stats.elapsed.as_secs_f64(),
            tail[0],
            tail[1],
            tail[2],
        );

        match (&rec, &sat_rec, last_relaxed) {
            (Some(rec), Some(sat_rec), Some(relaxed)) => {
                layer.push("trace.solve_ms", ms(relaxed.total));
                layer_samples(&mut layer, &relaxed, rec, n);
                layer.push("framework.exact_waits", exact_waits as f64);
                let push = sat_rec.totals(Op::Push);
                let ins = sat_rec.totals(Op::Insert);
                layer.push("service.push_wait_ns", push.ns_per_call());
                layer.push("service.handle_ns", sat_rec.totals(Op::Handle).ns_per_call());
                layer.push("service.flush_items", ins.items as f64 / ins.calls.max(1) as f64);
                layer.push("service.insert_ns", ins.ns_per_call());
                layer.push("service.pop_ns", sat_rec.totals(Op::Pop).ns_per_call());
                layer.push("service.empty_pops", sat.stats.empty_pops as f64);
                let st = &ol.stamps;
                let [ingest, ingest_p99] = gap_us(&st.push, &st.insert);
                let [wait, wait_p99] = gap_us(&st.insert, &st.pop);
                layer.push("service.ingest_us", ingest);
                layer.push("service.ingest_p99_us", ingest_p99);
                layer.push("service.sched_wait_us", wait);
                layer.push("service.sched_wait_p99_us", wait_p99);
                let mut lag: Vec<u64> = (0..open_tasks)
                    .map(|pos| {
                        let task = pi.task_at(pos as u32) as usize;
                        st.push[task].load(Ordering::Relaxed).saturating_sub(ol.due_ns(open, pos))
                    })
                    .collect();
                layer
                    .push("service.gen_lag_us", percentiles_u64(&mut lag, &[0.99])[0] as f64 / 1e3);
                layer.push("service.drain_ms", drain_ms);
                print_histograms(&[("relaxed solve", rec), ("service saturation", sat_rec)]);
            }
            _ => {
                for x in solves {
                    e2e.push("solve_ms", x);
                }
                for x in exacts {
                    e2e.push("exact_solve_ms", x);
                }
                for x in seqs {
                    e2e.push("seq_ms", x);
                }
                for r in sat_windows {
                    e2e.push("sat_ops_per_s", r);
                }
                for l in lat_windows {
                    e2e.push("lat_p50_us", l / 1e3);
                }
                // Open-loop tail percentiles: per-layer metrics (their spread
                // across runs follows host steal), read from untraced rounds.
                layer.push("service.lat_p90_us", tail[1]);
                layer.push("service.lat_p99_us", tail[2]);
                layer.push("service.lat_p999_us", tail[3]);
            }
        }
    }

    // The backlog check: a host stall near the end of one round can delay
    // its drain, but an offered rate the service cannot sustain delays
    // every round's.
    let drain_ms = median_of(drains.iter().copied());
    checks.check(drain_ms <= drain_limit_ms, || {
        format!("open-loop backlog: the median round drained {drain_ms:.1} ms after its last due request (limit {drain_limit_ms:.1} ms)")
    });
    let jiffies1 = cpu_jiffies();
    let steal_pct =
        100.0 * (jiffies1.1 - jiffies0.1) as f64 / (jiffies1.0 - jiffies0.0).max(1) as f64;
    println!("host: {steal_pct:.2}% of CPU time stolen by the hypervisor during the run");
    layer.push("host.steal_pct", steal_pct);
    let rss = peak_rss_mb();
    checks.check(rss.is_some(), || "peak RSS unreadable from /proc/self/status".into());
    e2e.push("peak_rss_mb", rss.unwrap_or(0.0));
    let failed = checks.failures.len() as u64;
    println!(
        "fail_ratio = {} ({failed} failed of {} attempted operations)",
        fail_ratio(failed, checks.attempted),
        checks.attempted
    );

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let window = (open_tasks - (open_tasks as f64 * WARMUP_SHARE) as usize) / WINDOWS;
    for (name, unit) in E2E {
        let (v, k) = e2e.median(name);
        let what = match name {
            "lat_p50_us" => format!("window medians, each over {window} requests"),
            "sat_ops_per_s" => format!("windows of {} completions", n / WINDOWS),
            _ => "samples".to_string(),
        };
        println!("metric {name} = {v} {unit} (median of {k} {what})");
        if !args.trace {
            metrics.push((name.to_string(), v, unit));
        }
    }
    if args.trace {
        let (untraced, _) = e2e.median("solve_ms");
        let (traced, _) = layer.median("trace.solve_ms");
        layer.push("trace.overhead_pct", (traced / untraced - 1.0) * 100.0);
        for (name, unit) in LAYER {
            let (v, k) = layer.median(name);
            assert!(k > 0, "per-layer metric {name} was never sampled");
            println!("layer {name} = {v} {unit} (median of {k} samples)");
            metrics.push((name.to_string(), v, unit));
        }
        print_split(&e2e, &layer);
        if let Ok(exe) = std::env::current_exe() {
            let path = exe.with_file_name(format!(
                "perfbench-trace-{}-seed{}.json",
                args.workload, args.seed
            ));
            match std::fs::write(&path, spans.to_json()) {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => println!("spans not written to {}: {e}", path.display()),
            }
        }
    }

    let correct = checks.failures.is_empty() && metrics.iter().all(|(_, v, _)| v.is_finite());
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        checks.attempted
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {v}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        );
    }
    out.push_str("}}");
    println!("{out}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The relaxed solve split into layer shares of worker time, next to the
/// exact and sequential baselines.
fn print_split(e2e: &Samples, layer: &Samples) {
    let (worker, _) = layer.median("framework.worker_ms");
    let share = |name: &str| 100.0 * layer.median(name).0 / worker.max(f64::MIN_POSITIVE);
    println!(
        "split of the traced solve ({:.1} ms; {:.1} ms of worker time on {THREADS} workers): queues {:.1}% | framework {:.1}% | algorithms {:.1}%; fill {:.1} ms",
        layer.median("trace.solve_ms").0,
        worker,
        share("queues.busy_ms"),
        share("framework.self_ms"),
        share("algorithms.busy_ms"),
        layer.median("queues.fill_ms").0,
    );
    println!(
        "baselines: untraced solve {:.1} ms | exact_solve {:.1} ms | seq {:.1} ms",
        e2e.median("solve_ms").0,
        e2e.median("exact_solve_ms").0,
        e2e.median("seq_ms").0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small connectivity instance; with `CORRUPT` its concurrent
    /// output has one label changed, as a broken executor would.
    struct Small<const CORRUPT: bool>(Connectivity);

    impl<const CORRUPT: bool> Instance for Small<CORRUPT> {
        type Alg<'a> = <Connectivity as Instance>::Alg<'a>;
        type Output = Vec<u32>;

        fn order(&self) -> &Permutation {
            self.0.order()
        }
        fn input_bytes(&self) -> usize {
            self.0.input_bytes()
        }
        fn sequential(&self) -> Vec<u32> {
            self.0.sequential()
        }
        fn prefix_reference(&self, k: usize) -> Vec<u32> {
            self.0.prefix_reference(k)
        }
        fn algorithm(&self) -> Self::Alg<'_> {
            self.0.algorithm()
        }
        fn output(alg: Self::Alg<'_>) -> Vec<u32> {
            let mut out = Connectivity::output(alg);
            if CORRUPT {
                out[0] = out[0].wrapping_add(1);
            }
            out
        }
        fn offered_rate(&self) -> f64 {
            200_000.0
        }
    }

    /// Every phase's output goes through the same comparison the round
    /// loop makes; returns the failed and attempted counts.
    fn check_all<I: Instance>(inst: &I) -> (usize, u64) {
        let reference = inst.sequential();
        let mut checks = Checks::default();
        let open = Load::Open { rate: inst.offered_rate() };
        checks.check(phases::relaxed(inst, None).output == reference, || "relaxed".into());
        let rec = Recorder::default();
        checks.check(phases::relaxed(inst, Some(&rec)).output == reference, || "traced".into());
        checks.check(phases::exact(inst).output == reference, || "exact".into());
        let k = inst.order().len() / 3;
        let prefix = inst.prefix_reference(k);
        for (load, tasks, expected) in
            [(Load::Saturate, inst.order().len(), &reference), (open, k, &prefix)]
        {
            let run = phases::service(inst, load, tasks, None);
            let s = &run.stats;
            checks.check(
                s.exactly_once()
                    && s.accepted == tasks as u64
                    && run.refused == 0
                    && run.output == *expected,
                || "service".into(),
            );
        }
        (checks.failures.len(), checks.attempted)
    }

    #[test]
    fn correct_outputs_pass_every_check() {
        assert_eq!(check_all(&Small::<false>(Connectivity::with_size(500, 2_000, 1))), (0, 5));
        assert_eq!(check_all(&Mis::with_size(2_000, 8_000, 1)), (0, 5));
    }

    #[test]
    fn a_corrupted_output_fails_every_check() {
        let inst = Small::<true>(Connectivity::with_size(500, 2_000, 1));
        let (failed, attempted) = check_all(&inst);
        assert_eq!((failed, attempted), (5, 5));
        assert_eq!(fail_ratio(failed as u64, attempted), 1.0);
    }

    #[test]
    fn open_loop_latency_skips_warm_up_and_times_from_due() {
        let inst = Small::<false>(Connectivity::with_size(500, 2_000, 2));
        let load = Load::Open { rate: inst.offered_rate() };
        let run = phases::service(&inst, load, 2_000, None);
        let (lat, drain_ms) =
            open_loop_latency(&run, load, inst.order(), 2_000).expect("all decided");
        assert_eq!(lat.len(), 2_000 - 200);
        assert!(drain_ms >= 0.0);
        let pi = inst.order();
        let last = pi.task_at(1_999) as usize;
        let done = run.stamps.done[last].load(Ordering::Relaxed);
        assert_eq!(lat[lat.len() - 1], done.saturating_sub(run.due_ns(load, 1_999)));
        assert!(
            run.due_ns(load, 1_000) - run.due_ns(load, 0) == 5_000_000,
            "1000 requests at 200k/s"
        );
    }

    #[test]
    fn traced_service_run_stamps_every_hop_in_order() {
        let inst = Small::<false>(Connectivity::with_size(300, 1_000, 3));
        let rec = Recorder::default();
        let run = phases::service(&inst, Load::Saturate, 1_000, Some(&rec));
        let st = &run.stamps;
        for t in 0..1_000 {
            let hop = |v: &[AtomicU64]| v[t].load(Ordering::Relaxed);
            let (push, insert, pop, done) =
                (hop(&st.push), hop(&st.insert), hop(&st.pop), hop(&st.done));
            assert!(0 < push && push <= insert && insert <= pop && pop <= done, "task {t}");
        }
        assert_eq!(rec.totals(Op::Push).calls, 1_000);
        assert_eq!(rec.totals(Op::Handle).calls, run.stats.total_pops);
        assert_eq!(rec.totals(Op::Insert).items, 1_000 + run.stats.wasted);
    }
}
