//! Cost of instrumentation: absent vs. disabled vs. recording.
//!
//! The contract the `trace` crate makes (see its crate docs) is that
//! instrumentation left in hot paths is effectively free while no
//! session is active — one relaxed atomic load and a branch per call.
//! This bench holds it to that:
//!
//! * `point/absent` — the raw workload, no instrumentation at all.
//! * `point/disabled` — the same workload wrapped in a span plus a
//!   counter bump, with **no** session installed. The target, printed
//!   alongside the criterion numbers, is **< 2% overhead vs. absent**
//!   on this microsecond-scale unit of work (real sweep points are
//!   milliseconds, where the same constant cost vanishes entirely).
//! * `point/recording` — with a live session, for scale: what `--trace`
//!   itself costs.
//! * `point/always-on` — the workload bumping a held always-on registry
//!   handle (`trace::live`): one counter add plus one histogram record
//!   per point, the serving daemon's continuous-telemetry cost. Same
//!   target as the disabled path: **< 2% overhead vs. absent**.
//! * `sweep/*` — the full executor path (pool + cache + retry loop,
//!   every span and counter in the stack) with tracing disabled vs. the
//!   same executor before instrumentation existed, approximated by the
//!   disabled path being all that runs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use runtime::{Cache, SweepExecutor};
use std::sync::Arc;
use std::time::Instant;

/// A deterministic stand-in for a short simulation: ~1 us of pure
/// arithmetic, the least favorable realistic grain for per-point
/// instrumentation overhead.
fn work(key: u64) -> u64 {
    let mut x = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for _ in 0..600 {
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    }
    x
}

fn instrumented(key: u64) -> u64 {
    let _span = trace::span("bench.point");
    trace::count("bench.points", 1);
    work(key)
}

/// The always-on registry path: the handles are held (as the daemon
/// holds them), so each point pays exactly one relaxed counter add and
/// one log-bucketed histogram record — no name lookups, no clock reads.
fn live_instrumented(
    counter: &trace::live::LiveCounter,
    hist: &trace::live::LiveHistogram,
    key: u64,
) -> u64 {
    let out = work(key);
    counter.add(1);
    hist.record_nanos(out | 1);
    out
}

/// Mean nanoseconds per call of `f` over `iters` calls.
fn mean_nanos(iters: u64, mut f: impl FnMut(u64) -> u64) -> f64 {
    let start = Instant::now();
    let mut acc = 0u64;
    for i in 0..iters {
        acc = acc.wrapping_add(f(i));
    }
    black_box(acc);
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// The documented guard: measure absent vs. disabled directly and print
/// the overhead next to its target. Criterion's per-bench numbers are
/// the record; this line is the verdict.
fn print_disabled_overhead() {
    assert!(!trace::enabled(), "no session may be active for this guard");
    const ITERS: u64 = 200_000;
    // Warm both paths, then interleave measurements to shield the
    // comparison from frequency drift.
    mean_nanos(ITERS / 10, work);
    mean_nanos(ITERS / 10, instrumented);
    let mut absent = f64::MAX;
    let mut disabled = f64::MAX;
    for _ in 0..3 {
        absent = absent.min(mean_nanos(ITERS, work));
        disabled = disabled.min(mean_nanos(ITERS, instrumented));
    }
    let overhead = (disabled - absent) / absent * 100.0;
    println!(
        "trace disabled-path overhead: absent {absent:.1} ns/point, \
         disabled {disabled:.1} ns/point -> {overhead:+.2}% (target < 2%)"
    );
}

/// The same guard for the always-on registry: recording is
/// unconditional there, so the target holds with *no* session check at
/// all — the handles themselves must be cheap enough.
fn print_always_on_overhead() {
    const ITERS: u64 = 200_000;
    let counter = trace::live::counter("bench.live.points");
    let hist = trace::live::histogram("bench.live.nanos");
    mean_nanos(ITERS / 10, work);
    mean_nanos(ITERS / 10, |i| live_instrumented(&counter, &hist, i));
    let mut absent = f64::MAX;
    let mut live = f64::MAX;
    for _ in 0..3 {
        absent = absent.min(mean_nanos(ITERS, work));
        live = live.min(mean_nanos(ITERS, |i| live_instrumented(&counter, &hist, i)));
    }
    let overhead = (live - absent) / absent * 100.0;
    println!(
        "trace always-on overhead: absent {absent:.1} ns/point, \
         live {live:.1} ns/point -> {overhead:+.2}% (target < 2%)"
    );
}

fn sweep(threads: usize, points: u64) -> usize {
    let executor = SweepExecutor::new(threads);
    let cache: Arc<Cache<u64, u64>> = Arc::new(Cache::new());
    let items: Vec<(u64, u64)> = (0..points).map(|i| (i, i)).collect();
    let report = executor.run_keyed(&cache, items, |&k, _| work(k));
    report.try_into_values().unwrap().len()
}

fn bench_trace(c: &mut Criterion) {
    print_disabled_overhead();
    print_always_on_overhead();

    let mut group = c.benchmark_group("trace");

    group.bench_function("point/absent", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(work(i))
        })
    });

    group.bench_function("point/disabled", |b| {
        assert!(!trace::enabled());
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(instrumented(i))
        })
    });

    group.bench_function("point/always-on", |b| {
        let counter = trace::live::counter("bench.live.points");
        let hist = trace::live::histogram("bench.live.nanos");
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(live_instrumented(&counter, &hist, i))
        })
    });

    group.bench_function("point/recording", |b| {
        let session = trace::session(trace::TraceConfig::default());
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(instrumented(i))
        });
        drop(session.finish());
    });

    // Full executor sweeps: all runtime spans and counters on the
    // disabled path vs. recording. Fresh caches per iteration keep every
    // point a real computation.
    for threads in [1usize, 4] {
        group.bench_function(format!("sweep/disabled/threads={threads}"), |b| {
            assert!(!trace::enabled());
            b.iter(|| black_box(sweep(threads, 256)))
        });
        group.bench_function(format!("sweep/recording/threads={threads}"), |b| {
            let session = trace::session(trace::TraceConfig::default());
            b.iter(|| black_box(sweep(threads, 256)));
            drop(session.finish());
        });
    }

    group.finish();
}

criterion_group!(benches, bench_trace);
criterion_main!(benches);
