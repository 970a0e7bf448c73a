//! A concurrent memoization cache with in-flight deduplication.
//!
//! The sweep executor runs many `(workload, config)` points in
//! parallel, and distinct experiment points frequently share a
//! simulation (energy-model knobs don't affect the performance run).
//! This cache gives every requester of the same key the **same**
//! computed value while guaranteeing the computation runs **once**,
//! even when several threads ask concurrently:
//!
//! * One `Mutex<HashMap>` holds every entry. A lookup holds the lock
//!   for well under a microsecond, while the points it guards take
//!   milliseconds to seconds, so one lock is enough (DESIGN.md §8).
//! * The first requester of a key installs an *in-flight* marker and
//!   computes outside the lock; concurrent requesters of the same key
//!   block on that marker's condvar instead of recomputing.
//! * If the computation panics, the marker is removed — the cache is
//!   **not poisoned**: waiters see the failure as an [`Err`] they can
//!   surface per-point, and a later request simply recomputes.

use std::collections::HashMap;
use std::hash::Hash;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Error returned to waiters whose computation panicked in the owning
/// thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComputePanicked {
    /// Panic message of the owning computation, as best recoverable.
    pub message: String,
}

impl std::fmt::Display for ComputePanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cached computation panicked: {}", self.message)
    }
}

impl std::error::Error for ComputePanicked {}

/// Extracts a human-readable message from a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

enum Slot<V> {
    /// Computation owned by some thread; waiters block on the handle.
    InFlight(Arc<Flight<V>>),
    /// Finished value.
    Ready(V),
}

struct Flight<V> {
    outcome: Mutex<Option<Result<V, ComputePanicked>>>,
    done: Condvar,
}

impl<V: Clone> Flight<V> {
    fn wait(&self) -> Result<V, ComputePanicked> {
        let mut outcome = self.outcome.lock().unwrap();
        while outcome.is_none() {
            outcome = self.done.wait(outcome).unwrap();
        }
        outcome.as_ref().unwrap().clone()
    }
}

/// A concurrent memoization map behind one lock.
pub struct Cache<K, V> {
    map: Mutex<HashMap<K, Slot<V>>>,
}

impl<K, V> std::fmt::Debug for Cache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cache").finish_non_exhaustive()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Default for Cache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Cache<K, V> {
    /// An empty cache.
    pub fn new() -> Self {
        Cache {
            map: Mutex::new(HashMap::new()),
        }
    }

    /// The locked map. Computations run outside the lock, so only a
    /// key's own `Hash`, `Eq` or `Clone` panicking could poison it.
    fn lock(&self) -> MutexGuard<'_, HashMap<K, Slot<V>>> {
        self.map.lock().expect("a key's Hash, Eq or Clone panicked")
    }

    /// Number of finished entries.
    pub fn len(&self) -> usize {
        let map = self.lock();
        map.values().filter(|s| matches!(s, Slot::Ready(_))).count()
    }

    /// Whether the cache holds no finished entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached value for `key`, if finished.
    pub fn get(&self, key: &K) -> Option<V> {
        match self.lock().get(key) {
            Some(Slot::Ready(v)) => Some(v.clone()),
            _ => None,
        }
    }

    /// The value for `key`, computing it with `compute` on a miss.
    ///
    /// Exactly one thread computes each key; concurrent requesters block
    /// until the owner publishes. If the owner panics, this call returns
    /// `Err` for the owner *and* all waiters, the in-flight marker is
    /// removed (no poisoning), and a subsequent call recomputes.
    pub fn get_or_compute(
        &self,
        key: &K,
        compute: impl FnOnce() -> V,
    ) -> Result<V, ComputePanicked> {
        // Fast path / claim.
        let flight = {
            let mut map = self.lock();
            match map.get(key) {
                Some(Slot::Ready(v)) => {
                    trace::count("cache.hit", 1);
                    return Ok(v.clone());
                }
                Some(Slot::InFlight(flight)) => {
                    let flight = Arc::clone(flight);
                    drop(map);
                    trace::count("cache.in_flight_wait", 1);
                    let _span = trace::span("cache.wait");
                    return flight.wait();
                }
                None => {
                    trace::count("cache.miss", 1);
                    let flight = Arc::new(Flight {
                        outcome: Mutex::new(None),
                        done: Condvar::new(),
                    });
                    map.insert(key.clone(), Slot::InFlight(Arc::clone(&flight)));
                    flight
                }
            }
        };

        // Own the computation, outside the lock. An armed cache-poison
        // fault (see [`crate::faults`]) fires here — after the in-flight
        // claim — so injected failures exercise the same waiter-wakeup
        // path as a real panicking computation.
        let result = {
            let _span = trace::span("cache.compute");
            catch_unwind(AssertUnwindSafe(|| {
                crate::faults::fire_armed_cache_poison();
                compute()
            }))
        };
        let outcome = match result {
            Ok(v) => {
                self.lock().insert(key.clone(), Slot::Ready(v.clone()));
                Ok(v)
            }
            Err(payload) => {
                self.lock().remove(key);
                Err(ComputePanicked {
                    message: panic_message(payload.as_ref()),
                })
            }
        };
        let mut slot = flight.outcome.lock().unwrap();
        *slot = Some(outcome.clone());
        drop(slot);
        flight.done.notify_all();
        outcome
    }

    /// Like [`Self::get_or_compute`], but re-raises the owner's panic in
    /// the calling thread instead of returning it as a value. Waiters on
    /// a panicked owner also panic.
    pub fn get_or_compute_unwrap(&self, key: &K, compute: impl FnOnce() -> V) -> V {
        match self.get_or_compute(key, compute) {
            Ok(v) => v,
            Err(e) => resume_unwind(Box::new(e.message)),
        }
    }

    /// Removes the finished entry for `key`, returning whether one was
    /// present. In-flight computations are left alone: their owner
    /// still publishes to waiters and installs the result when done.
    ///
    /// External batching layers (the `xpd` daemon) use this to keep the
    /// cache as a pure in-flight dedup point — once a result has been
    /// persisted to the disk store, the memory copy is dropped so the
    /// store's LRU size cap remains the only capacity policy.
    pub fn remove(&self, key: &K) -> bool {
        let mut map = self.lock();
        match map.get(key) {
            Some(Slot::Ready(_)) => {
                map.remove(key);
                true
            }
            _ => false,
        }
    }

    /// Removes every entry (finished and failed alike). In-flight
    /// owners still publish to their waiters through the detached
    /// flight handle; they just no longer populate the cache.
    pub fn clear(&self) {
        self.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    #[test]
    fn computes_once_per_key() {
        let cache: Cache<u64, u64> = Cache::new();
        let calls = AtomicU64::new(0);
        for i in 0..100 {
            let v = cache
                .get_or_compute(&(i % 10), || {
                    calls.fetch_add(1, Ordering::Relaxed);
                    (i % 10) * 2
                })
                .unwrap();
            assert_eq!(v, (i % 10) * 2);
        }
        assert_eq!(calls.load(Ordering::Relaxed), 10);
        assert_eq!(cache.len(), 10);
    }

    #[test]
    fn concurrent_requesters_share_one_computation() {
        let cache: Arc<Cache<u32, Arc<Vec<u8>>>> = Arc::new(Cache::new());
        let calls = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let calls = Arc::clone(&calls);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    cache
                        .get_or_compute(&7, || {
                            calls.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Arc::new(vec![1, 2, 3])
                        })
                        .unwrap()
                })
            })
            .collect();
        let values: Vec<Arc<Vec<u8>>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        // Everyone got the same allocation, not equal copies.
        for v in &values {
            assert!(Arc::ptr_eq(v, &values[0]));
        }
    }

    #[test]
    fn panicking_computation_does_not_poison() {
        let cache: Cache<u8, u8> = Cache::new();
        let r = cache.get_or_compute(&1, || panic!("boom"));
        assert!(r.is_err());
        assert!(r.unwrap_err().message.contains("boom"));
        // Same key recomputes cleanly afterwards.
        assert_eq!(cache.get_or_compute(&1, || 42).unwrap(), 42);
        assert_eq!(cache.get(&1), Some(42));
    }
}
