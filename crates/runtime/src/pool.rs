//! A hand-rolled, std-only work-stealing thread pool.
//!
//! The dependency policy keeps this workspace free of rayon/crossbeam,
//! so the pool is built from `Mutex<VecDeque>` per-worker queues plus a
//! shared injector:
//!
//! * External submissions land in the **injector** queue.
//! * A worker executing a job pushes follow-up work onto the **back of
//!   its own deque** (LIFO — keeps the working set hot in cache).
//! * An idle worker pops its own deque from the back, then drains the
//!   injector, then **steals from the front** of a sibling's deque
//!   (FIFO — takes the oldest, coarsest work, the classic Blumofe–
//!   Leiserson discipline).
//!
//! Jobs are wrapped in `catch_unwind`, so a panicking job can never
//! take a worker thread down with it; job-level panic *reporting* is
//! the executor's responsibility (see [`crate::executor`]).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

std::thread_local! {
    /// Identity of the pool worker running on this thread, if any:
    /// (pool instance id, worker index).
    static CURRENT_WORKER: std::cell::Cell<Option<(usize, usize)>> =
        const { std::cell::Cell::new(None) };
}

static POOL_IDS: AtomicUsize = AtomicUsize::new(0);

/// Index of the pool worker running the current thread, if the current
/// thread is a pool worker (used for per-worker utilization metrics).
pub fn current_worker_index() -> Option<usize> {
    CURRENT_WORKER.with(|c| c.get()).map(|(_, index)| index)
}

struct Shared {
    pool_id: usize,
    injector: Mutex<VecDeque<Job>>,
    /// One deque per worker. Owner pushes/pops at the back; thieves
    /// steal from the front.
    deques: Vec<Mutex<VecDeque<Job>>>,
    /// Wakes idle workers when work arrives, and `shutdown` watchers.
    work_signal: Condvar,
    /// Paired with `work_signal`; counts queued-but-unclaimed jobs.
    pending: Mutex<usize>,
    shutting_down: AtomicBool,
}

impl Shared {
    fn push_injector(&self, job: Job) {
        self.injector.lock().unwrap().push_back(job);
        *self.pending.lock().unwrap() += 1;
        self.work_signal.notify_one();
    }

    fn push_local(&self, worker: usize, job: Job) {
        self.deques[worker].lock().unwrap().push_back(job);
        *self.pending.lock().unwrap() += 1;
        self.work_signal.notify_one();
    }

    /// Claims one job: own deque (back), injector, then steal (front).
    fn find_job(&self, worker: usize) -> Option<Job> {
        if let Some(job) = self.deques[worker].lock().unwrap().pop_back() {
            trace::count("pool.pop_local", 1);
            return Some(job);
        }
        if let Some(job) = self.injector.lock().unwrap().pop_front() {
            trace::count("pool.pop_injector", 1);
            return Some(job);
        }
        let n = self.deques.len();
        for offset in 1..n {
            let victim = (worker + offset) % n;
            if let Some(job) = self.deques[victim].lock().unwrap().pop_front() {
                trace::count("pool.steal", 1);
                return Some(job);
            }
        }
        None
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    CURRENT_WORKER.with(|c| c.set(Some((shared.pool_id, index))));
    loop {
        let job = {
            let mut pending = shared.pending.lock().unwrap();
            loop {
                if *pending > 0 {
                    // A job is queued somewhere; claim it outside the
                    // pending lock would race the count, so decrement
                    // first and search after.
                    *pending -= 1;
                    break;
                }
                if shared.shutting_down.load(Ordering::Acquire) {
                    return;
                }
                pending = shared.work_signal.wait(pending).unwrap();
            }
            drop(pending);
            // The decremented count is a claim ticket: pushes enqueue
            // before incrementing and claimants dequeue at most one job
            // each, so `queued >= outstanding claims` always holds and
            // the scan below is guaranteed to find a job eventually.
            // (It can transiently miss one when a concurrent push lands
            // in a deque this scan already passed — hence the retry.)
            loop {
                if let Some(job) = shared.find_job(index) {
                    break job;
                }
                std::thread::yield_now();
            }
        };
        // The job is responsible for reporting its own outcome; the
        // catch here only shields the worker thread.
        let _span = trace::span("pool.job");
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

/// A fixed-size work-stealing thread pool.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl ThreadPool {
    /// Spawns a pool with `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            pool_id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            injector: Mutex::new(VecDeque::new()),
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            work_signal: Condvar::new(),
            pending: Mutex::new(0),
            shutting_down: AtomicBool::new(false),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mmgpu-worker-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submits a job. From a worker thread of this pool the job goes to
    /// that worker's own deque; otherwise to the shared injector.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        let job: Job = Box::new(job);
        let local = CURRENT_WORKER
            .with(|c| c.get())
            .and_then(|(pool, worker)| (pool == self.shared.pool_id).then_some(worker));
        match local {
            Some(worker) => self.shared.push_local(worker, job),
            None => self.shared.push_injector(job),
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutting_down.store(true, Ordering::Release);
        // Wake everyone so blocked workers observe the flag. Queued jobs
        // are still drained: workers only exit once `pending` is zero.
        self.shared.work_signal.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;

    #[test]
    fn runs_every_job_once() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..1000 {
            let counter = Arc::clone(&counter);
            pool.spawn(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool); // joins workers after the queues drain
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn panicking_job_does_not_kill_workers() {
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..100 {
            let counter = Arc::clone(&counter);
            pool.spawn(move || {
                if i % 3 == 0 {
                    panic!("injected");
                }
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::Relaxed), 66);
    }

    #[test]
    fn all_workers_participate() {
        let threads = 4;
        let pool = ThreadPool::new(threads);
        let barrier = Arc::new(Barrier::new(threads));
        // Each job blocks until all `threads` workers are inside one —
        // only possible if every worker picks up a job.
        for _ in 0..threads {
            let barrier = Arc::clone(&barrier);
            pool.spawn(move || {
                barrier.wait();
            });
        }
        drop(pool);
    }
}
