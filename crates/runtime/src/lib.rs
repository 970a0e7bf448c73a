#![deny(missing_docs)]

//! Parallel sweep-execution engine for the multi-module GPU study.
//!
//! Cycle-level simulation points cost seconds each and the full
//! reproduction sweep is a few hundred of them — this crate is the
//! layer that runs that sweep as fast as the hardware allows while
//! keeping the output bit-identical to the historical serial runner:
//!
//! * [`ThreadPool`] — a hand-rolled, std-only pool: one FIFO job queue,
//!   panic-isolated jobs.
//! * [`Cache`] — a memoization map behind one lock, with in-flight
//!   deduplication: one computation per key no matter how many threads
//!   ask, and no poisoning when a computation panics.
//! * [`SweepExecutor`] — schedules keyed points onto the pool, fans a
//!   shared simulation out to every submission that depends on it, and
//!   collects results by submission index so parallel order never leaks
//!   into output.
//! * [`SweepMetrics`] — live counters (completed / cached / in-flight /
//!   failed), per-point wall times, worker utilization, a periodic
//!   stderr progress line, and a final summary table.
//! * [`FaultPlan`] — deterministic, seeded point panics, so the
//!   failure-isolation paths above are testable in CI without real
//!   flakiness.
//!
//! Every point is one attempt. A sweep point is a pure function of its
//! inputs, so a retry would only recompute the same answer or the same
//! panic; a panicking point becomes a per-point [`SweepError`] and the
//! rest of the sweep carries on.
//!
//! # Examples
//!
//! ```
//! use runtime::{Cache, SweepExecutor};
//! use std::sync::Arc;
//!
//! let executor = SweepExecutor::new(4);
//! let cache: Arc<Cache<u64, u64>> = Arc::new(Cache::new());
//! // Nine points over three unique keys: each key simulates once.
//! let items: Vec<(u64, u64)> = (0..9).map(|i| (i % 3, i)).collect();
//! let report = executor.run_keyed(&cache, items, |key, _item| key * 100);
//! let values = report.try_into_values().expect("no point failed");
//! assert_eq!(values[0], 0);
//! assert_eq!(values[4], 100);
//! assert_eq!(values[8], 200);
//! assert_eq!(cache.len(), 3);
//! ```

pub mod cache;
pub mod executor;
pub mod faults;
pub mod metrics;
pub mod pool;

pub use cache::{Cache, ComputePanicked};
pub use executor::{PointOutcome, SweepError, SweepExecutor, SweepReport};
pub use faults::FaultPlan;
pub use metrics::SweepMetrics;
pub use pool::ThreadPool;

/// Environment variable overriding the default worker-thread count.
pub const THREADS_ENV: &str = "MMGPU_THREADS";

/// Resolves the worker-thread count for a sweep.
///
/// Priority: an explicit request (e.g. a `--threads N` flag), then the
/// `MMGPU_THREADS` environment variable, then the machine's available
/// parallelism. The result is always at least 1.
pub fn resolve_threads(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        return n.max(1);
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
        eprintln!("warning: ignoring unparsable {THREADS_ENV}={v:?}");
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_request_wins() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
    }
}
