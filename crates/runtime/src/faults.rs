//! Deterministic fault injection for the sweep runtime.
//!
//! A [`FaultPlan`] is a seeded, pure function from `(point, attempt)` to
//! an optional [`FaultKind`]. The executor consults it before every
//! attempt of every unique point, so an injected fault fires at exactly
//! the same place no matter how many worker threads run the sweep — the
//! recovery paths (retry, cache repopulation, waiter wakeup) become
//! testable in CI without real flakiness.
//!
//! Faults are **transient by default**: they fire only on a point's
//! first attempt (`faulted_attempts == 1`), so an executor with retries
//! enabled recovers the true value and the sweep output stays
//! byte-identical to a fault-free run. Raising `faulted_attempts` makes
//! faults sticky, which is how the give-up path is exercised.
//!
//! [`FaultKind::PoisonCache`] is delivered through a thread-local armed
//! by the executor and consumed inside [`crate::Cache`]'s compute
//! path — the panic happens *after* the in-flight marker is installed,
//! which is the only way to exercise the waiter-sees-panic protocol
//! from outside the cache.

use std::cell::Cell;
use std::time::Duration;

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the point's computation (before the real work).
    Panic,
    /// Sleep for the given duration inside the timed attempt, so a
    /// per-point deadline can trip on it.
    Delay(Duration),
    /// Panic inside the cache's compute path, after the in-flight
    /// marker is installed (exercises waiter wakeup + slot removal).
    PoisonCache,
}

/// A seeded, deterministic schedule of injected faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    panic_permille: u32,
    delay_permille: u32,
    poison_permille: u32,
    delay: Duration,
    /// Attempts `< faulted_attempts` are eligible for injection.
    faulted_attempts: u32,
    /// Point indices that always panic (subject to `faulted_attempts`),
    /// regardless of the rate roll.
    forced_panics: Vec<usize>,
}

impl FaultPlan {
    /// An empty plan: no faults, any seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            panic_permille: 0,
            delay_permille: 0,
            poison_permille: 0,
            delay: Duration::from_millis(50),
            faulted_attempts: 1,
            forced_panics: Vec::new(),
        }
    }

    /// Fraction of points (0.0–1.0) whose computation panics.
    pub fn with_panic_rate(mut self, rate: f64) -> Self {
        self.panic_permille = permille(rate);
        self
    }

    /// Fraction of points delayed by `delay` inside the timed attempt.
    pub fn with_delay_rate(mut self, rate: f64, delay: Duration) -> Self {
        self.delay_permille = permille(rate);
        self.delay = delay;
        self
    }

    /// Fraction of points whose cache entry is poisoned mid-flight.
    pub fn with_poison_rate(mut self, rate: f64) -> Self {
        self.poison_permille = permille(rate);
        self
    }

    /// Specific point indices that always panic (for targeted tests).
    pub fn with_forced_panics(mut self, points: &[usize]) -> Self {
        self.forced_panics = points.to_vec();
        self
    }

    /// How many attempts of a faulted point are injected. The default 1
    /// makes every fault transient (the first retry succeeds);
    /// `u32::MAX` makes faults permanent (exercises the give-up path).
    pub fn with_faulted_attempts(mut self, attempts: u32) -> Self {
        self.faulted_attempts = attempts;
        self
    }

    /// Whether this plan can ever inject anything.
    pub fn is_noop(&self) -> bool {
        self.panic_permille == 0
            && self.delay_permille == 0
            && self.poison_permille == 0
            && self.forced_panics.is_empty()
    }

    /// The fault (if any) to inject into `point`'s attempt number
    /// `attempt`. Pure: depends only on the plan and the arguments.
    pub fn decide(&self, point: usize, attempt: u32) -> Option<FaultKind> {
        if attempt >= self.faulted_attempts {
            return None;
        }
        if self.forced_panics.contains(&point) {
            return Some(FaultKind::Panic);
        }
        let roll = (mix(self.seed, point as u64) % 1000) as u32;
        if roll < self.panic_permille {
            Some(FaultKind::Panic)
        } else if roll < self.panic_permille + self.delay_permille {
            Some(FaultKind::Delay(self.delay))
        } else if roll < self.panic_permille + self.delay_permille + self.poison_permille {
            Some(FaultKind::PoisonCache)
        } else {
            None
        }
    }
}

fn permille(rate: f64) -> u32 {
    (rate.clamp(0.0, 1.0) * 1000.0).round() as u32
}

/// SplitMix64-style avalanche over `(seed, point)`.
fn mix(seed: u64, point: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(point.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

std::thread_local! {
    /// Set by the executor before an attempt whose fault is
    /// [`FaultKind::PoisonCache`]; consumed (and fired) by the cache.
    static CACHE_POISON_ARMED: Cell<bool> = const { Cell::new(false) };
}

/// Arms a cache-poison fault for the current thread's next computation.
pub fn arm_cache_poison() {
    CACHE_POISON_ARMED.with(|c| c.set(true));
}

/// Clears any armed cache-poison fault (the executor calls this after
/// every attempt so a fault never leaks onto an unrelated point that
/// happens to run on the same worker).
pub fn disarm_cache_poison() {
    CACHE_POISON_ARMED.with(|c| c.set(false));
}

/// Panics if a cache-poison fault is armed, consuming it. Called by
/// [`crate::Cache::get_or_compute`] after the in-flight marker
/// is installed.
pub fn fire_armed_cache_poison() {
    if CACHE_POISON_ARMED.with(|c| c.replace(false)) {
        panic!("fault injection: poisoned cache entry");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_transient() {
        let plan = FaultPlan::new(7).with_panic_rate(0.3);
        for point in 0..100 {
            assert_eq!(plan.decide(point, 0), plan.decide(point, 0));
            // Transient: nothing fires from the first retry onward.
            assert_eq!(plan.decide(point, 1), None);
        }
    }

    #[test]
    fn rates_roughly_match_over_many_points() {
        let plan = FaultPlan::new(42).with_panic_rate(0.25);
        let fired = (0..2000)
            .filter(|&p| plan.decide(p, 0) == Some(FaultKind::Panic))
            .count();
        assert!((350..650).contains(&fired), "fired {fired}/2000");
    }

    #[test]
    fn kinds_partition_the_roll_space() {
        let plan = FaultPlan::new(3)
            .with_panic_rate(0.2)
            .with_delay_rate(0.2, Duration::from_millis(5))
            .with_poison_rate(0.2);
        let mut counts = [0usize; 4];
        for p in 0..3000 {
            match plan.decide(p, 0) {
                Some(FaultKind::Panic) => counts[0] += 1,
                Some(FaultKind::Delay(_)) => counts[1] += 1,
                Some(FaultKind::PoisonCache) => counts[2] += 1,
                None => counts[3] += 1,
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 0, "kind {i} never chosen");
        }
    }

    #[test]
    fn forced_and_sticky_faults() {
        let plan = FaultPlan::new(0)
            .with_forced_panics(&[5])
            .with_faulted_attempts(u32::MAX);
        assert_eq!(plan.decide(5, 0), Some(FaultKind::Panic));
        assert_eq!(plan.decide(5, 99), Some(FaultKind::Panic));
        assert_eq!(plan.decide(6, 0), None);
        assert!(!plan.is_noop());
        assert!(FaultPlan::new(9).is_noop());
    }

    #[test]
    fn armed_poison_fires_once_then_clears() {
        disarm_cache_poison();
        arm_cache_poison();
        let r = std::panic::catch_unwind(fire_armed_cache_poison);
        assert!(r.is_err());
        // Consumed: a second fire is a no-op.
        fire_armed_cache_poison();
    }
}
