//! The sweep executor: schedules simulation points onto the pool,
//! deduplicates shared work through the cache, and collects results in
//! submission order so parallel output is bit-identical to serial
//! output.

use crate::cache::{panic_message, Cache};
use crate::faults::{self, FaultKind, FaultPlan};
use crate::metrics::SweepMetrics;
use crate::pool::{current_worker_index, ThreadPool};
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sleep before the first retry of a point; each further retry doubles
/// it, up to [`MAX_BACKOFF`].
const BACKOFF: Duration = Duration::from_millis(10);
/// Upper bound on a single backoff sleep.
const MAX_BACKOFF: Duration = Duration::from_secs(1);

/// Why a sweep point failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepErrorKind {
    /// The point's computation panicked on its final attempt.
    Panic,
    /// The point's final attempt finished after the per-point deadline.
    DeadlineExceeded,
}

/// A point that failed instead of producing a value, after exhausting
/// its [`RetryPolicy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// Panic message (or deadline description) of the failed point.
    pub message: String,
    /// What kind of failure ended the point.
    pub kind: SweepErrorKind,
    /// Total attempts made (1 = no retries were available or needed).
    pub attempts: u32,
}

impl SweepError {
    /// A panicked point.
    pub fn panicked(message: impl Into<String>, attempts: u32) -> Self {
        SweepError {
            message: message.into(),
            kind: SweepErrorKind::Panic,
            attempts,
        }
    }

    /// A point whose attempt outlived the per-point deadline.
    pub fn timed_out(elapsed: Duration, deadline: Duration, attempts: u32) -> Self {
        SweepError {
            message: format!(
                "point exceeded deadline: {:.3}s > {:.3}s",
                elapsed.as_secs_f64(),
                deadline.as_secs_f64()
            ),
            kind: SweepErrorKind::DeadlineExceeded,
            attempts,
        }
    }
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sweep point failed: {}", self.message)
    }
}

impl std::error::Error for SweepError {}

/// How the executor retries failed sweep points.
///
/// The default policy is one attempt and no deadline — the exact
/// semantics the executor had before retries existed. Retry `n` sleeps
/// 10 ms × 2^(n−1) first, capped at 1 s.
///
/// The deadline is **cooperative**: a std-only runtime cannot preempt a
/// running closure, so the attempt's elapsed time is checked after it
/// completes. A late-but-successful attempt is counted as a timeout and
/// retried (the retry typically hits the cache the slow attempt just
/// filled, so it is cheap); a late attempt on the last allowed try
/// fails the point with [`SweepErrorKind::DeadlineExceeded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per point (minimum 1).
    pub max_attempts: u32,
    /// Per-point deadline; `None` disables timeout detection.
    pub point_deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            point_deadline: None,
        }
    }
}

impl RetryPolicy {
    /// A policy allowing `retries` retries (so `retries + 1` attempts)
    /// with a small exponential backoff.
    pub fn retries(retries: u32) -> Self {
        RetryPolicy {
            max_attempts: retries.saturating_add(1).max(1),
            ..RetryPolicy::default()
        }
    }

    /// Sets the per-point deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.point_deadline = Some(deadline);
        self
    }
}

/// The sleep before attempt number `attempt` (1-based retry index).
fn backoff_before(attempt: u32) -> Duration {
    let shift = attempt.saturating_sub(1).min(16);
    BACKOFF.saturating_mul(1 << shift).min(MAX_BACKOFF)
}

/// Per-point outcome: the computed value or the panic that replaced it.
pub type PointOutcome<O> = Result<O, SweepError>;

/// Result of one sweep: submission-ordered outcomes plus the metrics
/// gathered while running.
#[derive(Debug)]
pub struct SweepReport<O> {
    /// One outcome per submitted point, in submission order.
    pub outcomes: Vec<PointOutcome<O>>,
    /// Counters and timings for the sweep.
    pub metrics: Arc<SweepMetrics>,
}

impl<O> SweepReport<O> {
    /// Every outcome's value, or the first failure if any point failed.
    pub fn try_into_values(self) -> Result<Vec<O>, SweepError> {
        self.outcomes.into_iter().collect()
    }

    /// The first failed outcome, if any point failed.
    pub fn first_error(&self) -> Option<&SweepError> {
        self.outcomes.iter().find_map(|r| r.as_ref().err())
    }

    /// Number of failed points.
    pub fn failures(&self) -> usize {
        self.outcomes.iter().filter(|r| r.is_err()).count()
    }

    /// The stable serialized form of the report: point/failure counts,
    /// the distinct failure messages (deduplicated, submission order),
    /// and the sweep's [`SweepMetrics`] under `"metrics"`.
    pub fn to_json(&self) -> common::json::Json {
        use common::json::Json;
        let mut errors = Json::array();
        let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for outcome in &self.outcomes {
            if let Err(e) = outcome {
                if seen.insert(e.message.as_str()) {
                    errors.push(e.message.as_str());
                }
            }
        }
        let mut o = Json::object();
        o.insert("points", self.outcomes.len());
        o.insert("failures", self.failures());
        o.insert("errors", errors);
        o.insert("metrics", self.metrics.to_json());
        o
    }
}

/// Schedules `(key, item)` simulation points over a thread pool with
/// cache-backed deduplication and deterministic collection.
///
/// With one thread the executor runs points inline on the calling
/// thread in submission order — the exact serial semantics the `xp`
/// harness had before this crate existed. With more threads, points run
/// concurrently, but results are still collected by submission index,
/// so downstream output is identical. A sweep submitted from inside a
/// pool worker (a nested sweep) also runs inline, on that worker.
#[derive(Debug)]
pub struct SweepExecutor {
    pool: Option<ThreadPool>,
    threads: usize,
    progress: bool,
    policy: RetryPolicy,
    faults: Option<Arc<FaultPlan>>,
}

impl SweepExecutor {
    /// An executor with `threads` workers (1 = serial, no pool).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        SweepExecutor {
            pool: (threads > 1).then(|| ThreadPool::new(threads)),
            threads,
            progress: false,
            policy: RetryPolicy::default(),
            faults: None,
        }
    }

    /// Enables or disables the periodic stderr progress line.
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Sets the retry policy for subsequent sweeps.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.set_retry_policy(policy);
        self
    }

    /// Arms a fault plan: every attempt of every point consults it.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.set_faults(Some(plan));
        self
    }

    /// In-place form of [`Self::with_progress`]. Long-lived daemons
    /// (the `xpd` server) disable the stderr progress line so sweep
    /// chatter never interleaves with their own structured logging.
    pub fn set_progress(&mut self, progress: bool) {
        self.progress = progress;
    }

    /// In-place form of [`Self::with_retry_policy`].
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.policy = RetryPolicy {
            max_attempts: policy.max_attempts.max(1),
            ..policy
        };
    }

    /// In-place form of [`Self::with_faults`] (`None` disarms).
    pub fn set_faults(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan.filter(|p| !p.is_noop()).map(Arc::new);
    }

    /// Number of worker threads (1 means serial execution).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs one closure per item, collecting outcomes in submission
    /// order. Panics in `f` become per-point [`SweepError`]s.
    pub fn run<I, O, F>(&self, items: Vec<I>, f: F) -> SweepReport<O>
    where
        I: Send + 'static,
        O: Clone + Send + 'static,
        F: Fn(&I) -> O + Send + Sync + 'static,
    {
        // Uncached run: every item is its own unique "key" by index.
        let total = items.len();
        let unique = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| (i, vec![i], item))
            .collect();
        self.execute(
            unique,
            total,
            move |_key: &usize, item: &I| f(item),
            |_| false,
        )
    }

    /// Runs keyed points with deduplication: items sharing a key are
    /// simulated once (first submission wins; the cache also serves
    /// hits from earlier sweeps) and every submission index receives the
    /// shared value. Outcomes are in submission order.
    pub fn run_keyed<K, I, O, F>(
        &self,
        cache: &Arc<Cache<K, O>>,
        items: Vec<(K, I)>,
        f: F,
    ) -> SweepReport<O>
    where
        K: Hash + Eq + Clone + Send + Sync + 'static,
        I: Send + 'static,
        O: Clone + Send + Sync + 'static,
        F: Fn(&K, &I) -> O + Send + Sync + 'static,
    {
        let total = items.len();
        let cache = Arc::clone(cache);

        // Group submission indices by key, keeping the first item as the
        // representative input and preserving first-submission order of
        // the unique keys (scheduling order matters for determinism of
        // *side effects* like cache fill order in serial mode, and for
        // giving long-pole jobs an early start in parallel mode).
        let mut unique: Vec<(K, Vec<usize>, I)> = Vec::new();
        let mut by_key: std::collections::HashMap<K, usize> = std::collections::HashMap::new();
        for (i, (key, item)) in items.into_iter().enumerate() {
            match by_key.get(&key) {
                Some(&slot) => unique[slot].1.push(i),
                None => {
                    by_key.insert(key.clone(), unique.len());
                    unique.push((key, vec![i], item));
                }
            }
        }

        let hit_counter = {
            let cache = Arc::clone(&cache);
            move |key: &K| cache.get(key).is_some()
        };
        let compute = move |key: &K, item: &I| cache.get_or_compute_unwrap(key, || f(key, item));
        self.execute(unique, total, compute, hit_counter)
    }

    /// Runs each unique `(key, indices, item)` point once and hands its
    /// outcome to every submission index in `indices`.
    fn execute<K, I, O, F, H>(
        &self,
        unique: Vec<(K, Vec<usize>, I)>,
        total: usize,
        f: F,
        is_cache_hit: H,
    ) -> SweepReport<O>
    where
        K: Send + 'static,
        I: Send + 'static,
        O: Clone + Send + 'static,
        F: Fn(&K, &I) -> O + Send + Sync + 'static,
        H: Fn(&K) -> bool + Send + Sync + 'static,
    {
        let metrics = Arc::new(SweepMetrics::new(self.threads));
        metrics.submitted.store(total, Ordering::Relaxed);

        let run_point = {
            let metrics = Arc::clone(&metrics);
            let progress = self.progress;
            let policy = self.policy;
            let faults = self.faults.clone();
            move |key: K, indices: Vec<usize>, item: I| {
                let hit = is_cache_hit(&key);
                // Fault decisions key on the first submission index:
                // stable across thread counts and duplicate submissions.
                let point = indices[0];
                let _point_span = trace::span("executor.point");
                let start = Instant::now();
                metrics.in_flight.fetch_add(1, Ordering::Relaxed);
                let mut attempt: u32 = 0;
                let outcome = loop {
                    let fault = faults.as_ref().and_then(|p| p.decide(point, attempt));
                    if fault == Some(FaultKind::PoisonCache) {
                        faults::arm_cache_poison();
                    }
                    let attempt_start = Instant::now();
                    let result = {
                        let _attempt_span = trace::span("executor.attempt");
                        catch_unwind(AssertUnwindSafe(|| {
                            match fault {
                                Some(FaultKind::Panic) => {
                                    panic!("fault injection: forced panic at point {point}")
                                }
                                Some(FaultKind::Delay(d)) => std::thread::sleep(d),
                                _ => {}
                            }
                            f(&key, &item)
                        }))
                    };
                    faults::disarm_cache_poison();
                    let elapsed = attempt_start.elapsed();
                    let attempts = attempt + 1;
                    let attempt_outcome = match result {
                        Ok(v) => match policy.point_deadline {
                            Some(deadline) if elapsed > deadline => {
                                metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                                trace::count("executor.timeout", 1);
                                Err(SweepError::timed_out(elapsed, deadline, attempts))
                            }
                            _ => Ok(v),
                        },
                        Err(payload) => Err(SweepError::panicked(
                            panic_message(payload.as_ref()),
                            attempts,
                        )),
                    };
                    if attempt_outcome.is_ok() || attempts >= policy.max_attempts {
                        if attempt_outcome.is_err() {
                            metrics.gave_up.fetch_add(1, Ordering::Relaxed);
                            trace::count("executor.give_up", 1);
                        }
                        break attempt_outcome;
                    }
                    metrics.retries.fetch_add(1, Ordering::Relaxed);
                    trace::count("executor.retry", 1);
                    attempt += 1;
                    std::thread::sleep(backoff_before(attempt));
                };
                metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
                metrics
                    .completed
                    .fetch_add(indices.len(), Ordering::Relaxed);
                if outcome.is_err() {
                    metrics.errors.fetch_add(indices.len(), Ordering::Relaxed);
                }
                if hit {
                    // Every submission index was served by the cache.
                    metrics
                        .cache_hits
                        .fetch_add(indices.len(), Ordering::Relaxed);
                } else {
                    let worker = current_worker_index().unwrap_or(0);
                    metrics.record_point(worker, start.elapsed());
                    // Duplicate submissions beyond the first ride the
                    // fresh result like cache hits.
                    metrics
                        .cache_hits
                        .fetch_add(indices.len() - 1, Ordering::Relaxed);
                }
                if progress {
                    metrics.maybe_print_progress(Duration::from_millis(500));
                }
                (indices, outcome)
            }
        };

        // Each finished point sends its submission indices and outcome.
        // A sweep submitted from a pool worker (a point that itself
        // sweeps) runs inline: blocking a worker on jobs queued behind it
        // could leave no worker free to run them.
        let (done, finished) = mpsc::channel();
        match &self.pool {
            Some(pool) if current_worker_index().is_none() => {
                let run_point = Arc::new(run_point);
                for (key, indices, item) in unique {
                    let (run_point, done) = (Arc::clone(&run_point), done.clone());
                    pool.spawn(move || {
                        let _ = done.send(run_point(key, indices, item));
                    });
                }
            }
            _ => {
                for (key, indices, item) in unique {
                    let _ = done.send(run_point(key, indices, item));
                }
            }
        }
        drop(done);

        // The channel disconnects once every point has reported.
        let mut slots: Vec<Option<PointOutcome<O>>> = (0..total).map(|_| None).collect();
        loop {
            match finished.recv_timeout(Duration::from_millis(100)) {
                Ok((indices, outcome)) => {
                    for i in indices {
                        slots[i] = Some(outcome.clone());
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            if self.progress {
                metrics.maybe_print_progress(Duration::from_millis(500));
            }
        }
        metrics.finish();
        let outcomes = slots
            .into_iter()
            .map(|slot| slot.expect("every point reports once"))
            .collect();
        if self.progress {
            // Close an in-place progress line so the summary (or the
            // shell prompt) starts on a fresh line.
            metrics.finish_progress();
        }
        SweepReport { outcomes, metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_captures_failures_and_metrics() {
        let executor = SweepExecutor::new(1);
        let report = executor.run(vec![1u32, 2, 3], |&n| {
            if n == 2 {
                panic!("boom on {n}");
            }
            n * 10
        });
        assert_eq!(report.failures(), 1);
        let j = report.to_json();
        assert_eq!(j.keys(), vec!["points", "failures", "errors", "metrics"]);
        assert_eq!(j.get("points").unwrap().as_f64(), Some(3.0));
        assert_eq!(j.get("failures").unwrap().as_f64(), Some(1.0));
        let errors = j.get("errors").unwrap().as_array().unwrap();
        assert_eq!(errors.len(), 1);
        assert!(errors[0].as_str().unwrap().contains("boom on 2"));
        assert!(j.get("metrics").unwrap().get("submitted").is_some());
        // The serialized report survives the strict parser.
        assert!(common::json::Json::parse(&j.render()).is_ok());
    }

    #[test]
    fn try_into_values_surfaces_the_first_failure() {
        let executor = SweepExecutor::new(1);
        let ok = executor.run(vec![1u32, 2], |&n| n);
        assert_eq!(ok.try_into_values().unwrap(), vec![1, 2]);

        let bad = executor.run(vec![1u32, 2, 3], |&n| {
            if n > 1 {
                panic!("bad point {n}");
            }
            n
        });
        assert!(bad.first_error().is_some());
        let err = bad.try_into_values().unwrap_err();
        assert_eq!(err.kind, SweepErrorKind::Panic);
        assert!(err.message.contains("bad point 2"), "{}", err.message);
    }

    #[test]
    fn error_dedup_preserves_submission_order() {
        let executor = SweepExecutor::new(1);
        let report = executor.run(vec![3u32, 1, 3, 2], |&n| -> u32 { panic!("err {n}") });
        let j = report.to_json();
        let errors: Vec<&str> = j
            .get("errors")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|e| e.as_str().unwrap())
            .collect();
        assert_eq!(errors, vec!["err 3", "err 1", "err 2"]);
    }

    #[test]
    fn finished_sweep_metrics_stop_the_clock() {
        let report = SweepExecutor::new(2).run(vec![1u32, 2, 3], |&n| n);
        let wall = || {
            let j = report.metrics.to_json();
            j.get("wall_time_secs").unwrap().as_f64().unwrap()
        };
        let at_return = wall();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(wall(), at_return, "a finished sweep's wall time is frozen");
    }

    #[test]
    fn transient_faults_are_retried_to_success() {
        let plan = FaultPlan::new(0).with_forced_panics(&[0, 2]);
        let executor = SweepExecutor::new(1)
            .with_retry_policy(RetryPolicy::retries(2))
            .with_faults(plan);
        let report = executor.run(vec![10u32, 20, 30], |&n| n * 2);
        let m = Arc::clone(&report.metrics);
        assert_eq!(report.try_into_values().unwrap(), vec![20, 40, 60]);
        assert_eq!(m.retries.load(Ordering::Relaxed), 2);
        assert_eq!(m.gave_up.load(Ordering::Relaxed), 0);
        assert_eq!(m.errors.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn sticky_faults_exhaust_retries_and_give_up() {
        let plan = FaultPlan::new(0)
            .with_forced_panics(&[1])
            .with_faulted_attempts(u32::MAX);
        let executor = SweepExecutor::new(1)
            .with_retry_policy(RetryPolicy::retries(2))
            .with_faults(plan);
        let report = executor.run(vec![10u32, 20], |&n| n);
        assert_eq!(report.failures(), 1);
        let err = report.outcomes[1].as_ref().unwrap_err();
        assert_eq!(err.kind, SweepErrorKind::Panic);
        assert_eq!(err.attempts, 3);
        assert_eq!(report.metrics.retries.load(Ordering::Relaxed), 2);
        assert_eq!(report.metrics.gave_up.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn late_attempts_count_as_timeouts_and_retry() {
        let plan = FaultPlan::new(0).with_delay_rate(1.0, Duration::from_millis(40));
        let policy = RetryPolicy::retries(1).with_deadline(Duration::from_millis(15));
        let executor = SweepExecutor::new(1)
            .with_retry_policy(policy)
            .with_faults(plan);
        let report = executor.run(vec![1u32], |&n| n);
        // Attempt 0 is delayed past the deadline; the transient fault
        // clears and attempt 1 succeeds in time.
        assert_eq!(report.try_into_values().unwrap(), vec![1]);

        // With no retries left, the deadline fails the point.
        let plan = FaultPlan::new(0).with_delay_rate(1.0, Duration::from_millis(40));
        let executor = SweepExecutor::new(1)
            .with_retry_policy(RetryPolicy::default().with_deadline(Duration::from_millis(15)))
            .with_faults(plan);
        let report = executor.run(vec![1u32], |&n| n);
        let err = report.outcomes[0].as_ref().unwrap_err();
        assert_eq!(err.kind, SweepErrorKind::DeadlineExceeded);
        assert_eq!(report.metrics.timeouts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn poison_faults_recover_through_the_cache() {
        let plan = FaultPlan::new(0)
            .with_poison_rate(1.0)
            .with_faulted_attempts(1);
        let executor = SweepExecutor::new(1)
            .with_retry_policy(RetryPolicy::retries(1))
            .with_faults(plan);
        let cache: Arc<Cache<u64, u64>> = Arc::new(Cache::new());
        let items: Vec<(u64, u64)> = (0..4).map(|i| (i, i)).collect();
        let report = executor.run_keyed(&cache, items, |&k, _| k + 100);
        assert_eq!(report.try_into_values().unwrap(), vec![100, 101, 102, 103]);
        assert_eq!(cache.len(), 4, "retries repopulate the poisoned slots");
    }
}
