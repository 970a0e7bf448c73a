//! Property tests for the runtime: parallel/serial result equivalence,
//! cache identity under duplicate keys, clean pool drain across worker
//! counts, and panic containment in the executor.

use proptest::prelude::*;
use runtime::{Cache, FaultPlan, RetryPolicy, SweepExecutor, ThreadPool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

/// A deterministic stand-in for a simulation: expensive enough to overlap
/// across workers, pure in its key.
fn fake_simulate(key: u64) -> u64 {
    let mut x = key.wrapping_mul(0x9e3779b97f4a7c15);
    for _ in 0..50 {
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51afd7ed558ccd);
    }
    x
}

proptest! {
    #[test]
    fn parallel_sweep_matches_serial(
        keys in prop::collection::vec(0_u64..32, 1..80),
        threads in 2_usize..9,
    ) {
        let items: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();

        let serial = SweepExecutor::new(1);
        let serial_cache = Arc::new(Cache::new());
        let expected = serial
            .run_keyed(&serial_cache, items.clone(), |&k, _| fake_simulate(k))
            .try_into_values()
            .unwrap();

        let parallel = SweepExecutor::new(threads);
        let parallel_cache = Arc::new(Cache::new());
        let got = parallel
            .run_keyed(&parallel_cache, items, |&k, _| fake_simulate(k))
            .try_into_values()
            .unwrap();

        prop_assert_eq!(expected, got);
    }

    #[test]
    fn duplicate_keys_share_one_computation(
        keys in prop::collection::vec(0_u64..8, 2..60),
        threads in 1_usize..9,
    ) {
        let executor = SweepExecutor::new(threads);
        let cache: Arc<Cache<u64, Arc<u64>>> = Arc::new(Cache::new());
        let computed = Arc::new(AtomicUsize::new(0));
        let items: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
        let counter = Arc::clone(&computed);
        let values = executor
            .run_keyed(&cache, items, move |&k, _| {
                counter.fetch_add(1, Ordering::Relaxed);
                Arc::new(fake_simulate(k))
            })
            .try_into_values()
            .unwrap();

        let unique: std::collections::HashSet<u64> = keys.iter().copied().collect();
        // One computation per distinct key, no matter the thread count.
        prop_assert_eq!(computed.load(Ordering::Relaxed), unique.len());
        prop_assert_eq!(cache.len(), unique.len());
        // Every submission of the same key receives the *same* Arc, not a
        // recomputed equal value.
        for (i, &ki) in keys.iter().enumerate() {
            for (j, &kj) in keys.iter().enumerate().skip(i + 1) {
                if ki == kj {
                    prop_assert!(Arc::ptr_eq(&values[i], &values[j]));
                }
            }
        }
    }

    #[test]
    fn pool_drains_cleanly_at_any_width(
        threads in 1_usize..=16,
        jobs in 0_usize..200,
    ) {
        let pool = ThreadPool::new(threads);
        prop_assert_eq!(pool.threads(), threads.max(1));
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..jobs {
            let done = Arc::clone(&done);
            pool.spawn(move || {
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool); // must join without deadlock and run every job
        prop_assert_eq!(done.load(Ordering::Relaxed), jobs);
    }

    #[test]
    fn panicking_point_is_isolated(
        keys in prop::collection::vec(0_u64..16, 2..40),
        poison in 0_u64..16,
        threads in 1_usize..9,
    ) {
        let executor = SweepExecutor::new(threads);
        let cache: Arc<Cache<u64, u64>> = Arc::new(Cache::new());
        let items: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
        let report = executor.run_keyed(&cache, items, move |&k, _| {
            if k == poison {
                panic!("injected failure for key {k}");
            }
            fake_simulate(k)
        });

        for (i, outcome) in report.outcomes.iter().enumerate() {
            if keys[i] == poison {
                let err = outcome.as_ref().expect_err("poisoned key must fail");
                prop_assert!(err.message.contains("injected failure"));
            } else {
                prop_assert_eq!(*outcome.as_ref().unwrap(), fake_simulate(keys[i]));
            }
        }
        let poisoned = keys.iter().filter(|&&k| k == poison).count();
        prop_assert_eq!(report.failures(), poisoned);
        prop_assert_eq!(
            report.metrics.errors.load(Ordering::Relaxed),
            poisoned
        );

        // The cache is not poisoned: the failed key can be computed again.
        prop_assert_eq!(cache.get(&poison), None);
        prop_assert_eq!(
            cache.get_or_compute(&poison, || fake_simulate(poison)).unwrap(),
            fake_simulate(poison)
        );
    }

    /// A panicked in-flight cache entry never deadlocks its waiters: every
    /// concurrent requester of the panicking key gets an `Err` (or a value
    /// from a clean recompute), and the slot is recomputable afterwards.
    #[test]
    fn panicked_inflight_entry_never_deadlocks_waiters(
        waiters in 2_usize..8,
        key in 0_u64..16,
    ) {
        let cache: Arc<Cache<u64, u64>> = Arc::new(Cache::new());
        let barrier = Arc::new(Barrier::new(waiters + 1));

        // The owner claims the in-flight slot, releases the waiters while
        // still computing, then panics.
        let owner = {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let _ = cache.get_or_compute(&key, || {
                    barrier.wait();
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    panic!("injected in-flight failure");
                });
            })
        };
        let handles: Vec<_> = (0..waiters)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.get_or_compute(&key, || fake_simulate(key))
                })
            })
            .collect();
        owner.join().unwrap();
        for h in handles {
            // Each waiter either joined the doomed flight (Err) or arrived
            // after the slot was cleared and recomputed cleanly (Ok) —
            // but must never hang.
            match h.join().unwrap() {
                Err(e) => prop_assert!(e.message.contains("injected in-flight failure")),
                Ok(v) => prop_assert_eq!(v, fake_simulate(key)),
            }
        }

        // The slot is recomputable: a retried point repopulates it.
        prop_assert_eq!(
            cache.get_or_compute(&key, || fake_simulate(key)).unwrap(),
            fake_simulate(key)
        );
        prop_assert_eq!(cache.get(&key), Some(fake_simulate(key)));
    }

    /// Injected transient faults plus retries reproduce the fault-free
    /// sweep exactly: same values, repopulated cache, retries recorded.
    #[test]
    fn injected_faults_with_retries_match_fault_free(
        keys in prop::collection::vec(0_u64..24, 1..60),
        threads in 1_usize..9,
        seed in 0_u64..1000,
    ) {
        let items: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();

        let clean_cache = Arc::new(Cache::new());
        let expected = SweepExecutor::new(1)
            .run_keyed(&clean_cache, items.clone(), |&k, _| fake_simulate(k))
            .try_into_values()
            .unwrap();

        let plan = FaultPlan::new(seed)
            .with_panic_rate(0.25)
            .with_poison_rate(0.25);
        let faulted = SweepExecutor::new(threads)
            .with_retry_policy(RetryPolicy::retries(2))
            .with_faults(plan);
        let cache = Arc::new(Cache::new());
        let report = faulted.run_keyed(&cache, items, |&k, _| fake_simulate(k));
        let retries = report.metrics.retries.load(Ordering::Relaxed);
        let gave_up = report.metrics.gave_up.load(Ordering::Relaxed);
        let got = report.try_into_values().unwrap();

        prop_assert_eq!(got, expected);
        prop_assert_eq!(gave_up, 0);
        // Every faulted point was retried at least once.
        let unique: std::collections::HashSet<u64> = keys.iter().copied().collect();
        prop_assert!(retries <= 2 * unique.len());
    }
}
