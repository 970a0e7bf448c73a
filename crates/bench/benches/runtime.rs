//! Serial vs parallel sweep execution.
//!
//! Two views, because speedup has two independent ceilings:
//!
//! * `fig6_sweep/*` — the real Fig. 6-style sweep through serial and
//!   multi-thread labs. Each iteration builds a fresh lab so the sweep
//!   starts from a cold cache; this measures simulation throughput and
//!   its speedup is capped by the host's core count (a 1-core CI box
//!   shows parity; an 8-core workstation shows near-linear gains up to
//!   the longest single point).
//! * `executor_overlap/*` — the same executor scheduling latency-bound
//!   points (a fixed per-point sleep). This isolates the scheduler: the
//!   points overlap regardless of core count, so the measured speedup is
//!   the pool's, not the CPU's.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use runtime::{Cache, SweepExecutor};
use std::sync::Arc;
use std::time::Duration;
use workloads::Scale;
use xp::{Fig6, Lab};

fn fig6_sweep(threads: usize) -> Fig6 {
    let lab = Lab::with_threads(Scale::Smoke, threads);
    Fig6::run(&lab, &bench::bench_suite()).unwrap()
}

/// 24 points of 5 ms each: 120 ms serial, ~120/threads ms parallel.
fn overlap_sweep(threads: usize) -> usize {
    let executor = SweepExecutor::new(threads);
    let cache: Arc<Cache<u64, u64>> = Arc::new(Cache::new());
    let items: Vec<(u64, u64)> = (0..24).map(|i| (i, i)).collect();
    let report = executor.run_keyed(&cache, items, |&k, _| {
        std::thread::sleep(Duration::from_millis(5));
        k
    });
    report.try_into_values().unwrap().len()
}

fn bench_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime");
    group.sample_size(10);

    for threads in [1usize, 2, 4, 8] {
        group.bench_function(format!("executor_overlap/threads={threads}"), |b| {
            b.iter(|| black_box(overlap_sweep(threads)))
        });
    }

    for threads in [1usize, 2, 4, 8] {
        group.bench_function(format!("fig6_sweep/threads={threads}"), |b| {
            b.iter(|| black_box(fig6_sweep(threads)))
        });
    }

    group.finish();
}

criterion_group!(benches, bench_runtime);
criterion_main!(benches);
