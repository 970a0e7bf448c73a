//! A hand-rolled, std-only thread pool with one FIFO job queue.
//!
//! The dependency policy keeps this workspace free of rayon/crossbeam.
//! The executor submits every job from outside the pool (a sweep
//! started on a worker runs inline, see [`crate::executor`]), so one
//! shared `Mutex<VecDeque>` plus a `Condvar` is the whole scheduler:
//! jobs start in submission order, and idle workers sleep until one
//! arrives (DESIGN.md §8 records why work stealing was retired).
//!
//! Jobs are wrapped in `catch_unwind`, so a panicking job can never
//! take a worker thread down with it; job-level panic *reporting* is
//! the executor's responsibility (see [`crate::executor`]).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

std::thread_local! {
    /// Index of the pool worker running on this thread, if any.
    static CURRENT_WORKER: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

/// Index of the pool worker running the current thread, if the current
/// thread is a pool worker (the executor's nested-sweep guard and its
/// per-worker utilization metrics read it).
pub fn current_worker_index() -> Option<usize> {
    CURRENT_WORKER.with(|c| c.get())
}

struct Queue {
    jobs: VecDeque<Job>,
    shutting_down: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Wakes an idle worker when a job arrives, and every worker at
    /// shutdown.
    work_signal: Condvar,
}

impl Shared {
    /// The locked queue. No job runs under the lock and every update is
    /// one push, pop or flag store, so a poisoned queue is still whole.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    CURRENT_WORKER.with(|c| c.set(Some(index)));
    loop {
        let mut queue = shared
            .work_signal
            .wait_while(shared.lock(), |q| q.jobs.is_empty() && !q.shutting_down)
            .unwrap_or_else(PoisonError::into_inner);
        // Empty after the wait only once shutdown has drained it.
        let Some(job) = queue.jobs.pop_front() else {
            return;
        };
        drop(queue);
        // The job is responsible for reporting its own outcome; the
        // catch here only shields the worker thread.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

/// A fixed-size thread pool running jobs in submission order.
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
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutting_down: false,
            }),
            work_signal: Condvar::new(),
        });
        let workers = (0..threads.max(1))
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

    /// Queues a job behind every job submitted before it.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.shared.lock().jobs.push_back(Box::new(job));
        self.shared.work_signal.notify_one();
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Workers drain the queue before they act on the flag.
        self.shared.lock().shutting_down = true;
        self.shared.work_signal.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
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
        drop(pool); // joins workers after the queue drains
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn jobs_start_in_submission_order() {
        let pool = ThreadPool::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..100 {
            let order = Arc::clone(&order);
            pool.spawn(move || order.lock().unwrap().push(i));
        }
        drop(pool);
        assert_eq!(*order.lock().unwrap(), (0..100).collect::<Vec<_>>());
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
