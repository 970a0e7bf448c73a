//! Deterministic fault injection for the sweep runtime.
//!
//! A [`FaultPlan`] is a seeded, pure function from a point's index to
//! whether that point panics. The executor consults it once per unique
//! point, so an injected failure lands on exactly the same points no
//! matter how many worker threads run the sweep — which is what makes
//! the per-point and per-artifact isolation paths testable in CI
//! without real flakiness. A sweep point is a pure function of its
//! inputs, so a planned failure is as permanent as a real one: nothing
//! retries it.

/// A seeded, deterministic schedule of points that panic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    panic_permille: u32,
}

impl FaultPlan {
    /// An empty plan: no faults, any seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            panic_permille: 0,
        }
    }

    /// Fraction of points (0.0–1.0) whose computation panics.
    pub fn with_panic_rate(mut self, rate: f64) -> Self {
        self.panic_permille = (rate.clamp(0.0, 1.0) * 1000.0).round() as u32;
        self
    }

    /// Whether this plan can ever inject anything.
    pub fn is_noop(&self) -> bool {
        self.panic_permille == 0
    }

    /// Whether `point` panics instead of computing. Pure: depends only
    /// on the plan and the point index.
    pub fn panics(&self, point: usize) -> bool {
        ((mix(self.seed, point as u64) % 1000) as u32) < self.panic_permille
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::new(7).with_panic_rate(0.3);
        let again = FaultPlan::new(7).with_panic_rate(0.3);
        for point in 0..100 {
            assert_eq!(plan.panics(point), again.panics(point));
        }
        assert!(!plan.is_noop());
        assert!(FaultPlan::new(9).is_noop());
        assert!((0..100).all(|p| !FaultPlan::new(9).panics(p)));
    }

    #[test]
    fn rates_roughly_match_over_many_points() {
        let plan = FaultPlan::new(42).with_panic_rate(0.25);
        let fired = (0..2000).filter(|&p| plan.panics(p)).count();
        assert!((350..650).contains(&fired), "fired {fired}/2000");
    }
}
