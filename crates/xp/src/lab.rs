//! The lab: runs (workload, configuration) points through the performance
//! simulator, caches the event counts, and evaluates energy metrics.
//!
//! Simulation is the expensive half (seconds per point); energy evaluation
//! is microseconds. The cache is keyed by everything that affects the
//! *simulation* — energy-model knobs (link pJ/bit, amortization) reuse the
//! same counts, which is exactly how the paper's point studies work.
//!
//! Since the runtime port, the cache is a [`runtime::Cache`] shared
//! across threads and sweeps go through a [`runtime::SweepExecutor`]:
//! figure generators call [`Lab::prime`] (or [`Lab::prime_suite`]) to
//! simulate every point of their sweep in parallel, then evaluate
//! serially against the warm cache, so the printed output is byte-for-byte
//! identical no matter how many worker threads ran the simulations.

use crate::configs::ExpConfig;
use common::units::Time;
use gpujoule::{EdpScalingEfficiency, EnergyBreakdown, EnergyDelay};
use isa::EventCounts;
use runtime::{
    Cache, FaultPlan, RetryPolicy, SweepError, SweepExecutor, SweepMetrics, SweepReport,
};
use sim::GpuSim;
use std::sync::{Arc, Mutex};
use workloads::{Scale, WorkloadSpec};

/// A fully evaluated experiment point.
#[derive(Debug, Clone)]
pub struct RunPoint {
    /// Workload name.
    pub workload: String,
    /// The configuration evaluated.
    pub config: ExpConfig,
    /// Simulated event counts (workload total).
    pub counts: Arc<EventCounts>,
    /// Energy breakdown under this configuration's energy model.
    pub breakdown: EnergyBreakdown,
}

impl RunPoint {
    /// The (energy, delay) pair of this point.
    pub fn energy_delay(&self) -> EnergyDelay {
        EnergyDelay::new(self.breakdown.total(), self.counts.elapsed)
    }

    /// Time to solution.
    pub fn duration(&self) -> Time {
        self.counts.elapsed
    }
}

/// Cache key: the simulation-relevant parts of a configuration. Real
/// values are keyed by their exact bits, so two what-if values share a
/// simulation only when the simulator would see the same input.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SimKey {
    workload: String,
    gpms: usize,
    bw: &'static str,
    topology: String,
    link_latency: u64,
    schedule: String,
    pages: String,
    l2_mode: String,
    mlp: usize,
    compression_bits: u64,
    clock_hz_bits: u64,
    warp_scheduler: String,
}

/// The simulation cache key for `(workload, config)`.
fn sim_key(workload: &WorkloadSpec, config: &ExpConfig) -> SimKey {
    let sim_cfg = config.sim_config();
    SimKey {
        workload: workload.name.to_string(),
        gpms: config.gpms,
        bw: config.bw.label(),
        topology: config.topology.to_string(),
        link_latency: sim_cfg.link_latency,
        schedule: sim_cfg.cta_schedule.to_string(),
        pages: sim_cfg.page_policy.to_string(),
        l2_mode: sim_cfg.l2_mode.to_string(),
        mlp: sim_cfg.gpm.mlp_per_warp,
        compression_bits: sim_cfg.link_compression.to_bits(),
        clock_hz_bits: sim_cfg.gpm.clock.hz().to_bits(),
        warp_scheduler: sim_cfg.warp_scheduler.to_string(),
    }
}

/// Runs the simulator for one `(workload, config)` point.
fn simulate(scale: Scale, workload: &WorkloadSpec, config: &ExpConfig) -> Arc<EventCounts> {
    let sim_cfg = config.sim_config();
    let mut sim = GpuSim::new(&sim_cfg);
    let result = sim.run_workload(&workload.launches(scale));
    Arc::new(result.total_counts())
}

/// The experiment runner: a parallel sweep executor in front of a
/// process-wide simulation cache.
///
/// [`Lab::new`] is serial (one thread, no pool) — the exact semantics the
/// lab had before the runtime port, which unit tests and benches rely on.
/// The `xp` CLI builds a parallel lab from `--threads N`, or else
/// `MMGPU_THREADS`, or else the machine's available parallelism.
pub struct Lab {
    scale: Scale,
    cache: Arc<Cache<SimKey, Arc<EventCounts>>>,
    executor: SweepExecutor,
    /// Metrics of every [`Lab::prime`] sweep, in execution order (the
    /// `xp` driver records the whole history in its run manifest).
    sweeps: Mutex<Vec<Arc<SweepMetrics>>>,
}

impl Lab {
    /// A serial lab running workloads at the given problem scale.
    pub fn new(scale: Scale) -> Self {
        Lab::with_threads(scale, 1)
    }

    /// A lab whose sweeps run on `threads` worker threads (1 = serial).
    pub fn with_threads(scale: Scale, threads: usize) -> Self {
        let threads = threads.max(1);
        Lab {
            scale,
            cache: Arc::new(Cache::new()),
            executor: SweepExecutor::new(threads).with_progress(threads > 1),
            sweeps: Mutex::new(Vec::new()),
        }
    }

    /// Enables or disables the executor's periodic stderr progress line
    /// in place. [`Lab::with_threads`] turns it on for parallel labs;
    /// the `xpd` daemon turns it back off so nothing interleaves with
    /// its per-request log lines (protocol responses go to sockets and
    /// are never at risk, but server logs should stay line-atomic too).
    pub fn set_progress(&mut self, progress: bool) {
        self.executor.set_progress(progress);
    }

    /// Sets the executor's retry policy for subsequent sweeps.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.executor.set_retry_policy(policy);
        self
    }

    /// Arms a deterministic fault plan on the executor (tests and the
    /// `xp --faults` flag).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.executor.set_faults(Some(plan));
        self
    }

    /// The problem scale this lab runs at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Number of sweep worker threads (1 means serial).
    pub fn threads(&self) -> usize {
        self.executor.threads()
    }

    /// Simulated event counts for `(workload, config)`, cached.
    pub fn counts(&self, workload: &WorkloadSpec, config: &ExpConfig) -> Arc<EventCounts> {
        let key = sim_key(workload, config);
        self.cache
            .get_or_compute_unwrap(&key, || simulate(self.scale, workload, config))
    }

    /// Simulates every `(workload, config)` pair on the executor's worker
    /// threads, filling the cache. Duplicate pairs — and pairs already
    /// cached by earlier sweeps — are simulated once. Returns the sweep
    /// report (submission-ordered outcomes plus metrics); a panicking
    /// point surfaces as a per-point [`runtime::SweepError`] without
    /// aborting the rest of the sweep.
    pub fn prime(&self, points: &[(WorkloadSpec, ExpConfig)]) -> SweepReport<Arc<EventCounts>> {
        let _span = trace::span("xp.prime");
        let scale = self.scale;
        let items: Vec<(SimKey, (WorkloadSpec, ExpConfig))> = points
            .iter()
            .map(|(w, c)| (sim_key(w, c), (w.clone(), c.clone())))
            .collect();
        let report = self
            .executor
            .run_keyed(&self.cache, items, move |_key, (w, c)| {
                simulate(scale, w, c)
            });
        self.sweeps
            .lock()
            .unwrap()
            .push(Arc::clone(&report.metrics));
        report
    }

    /// Runs `f` once per item on the sweep executor, uncached, returning
    /// the results in submission order (or the first point that failed
    /// after the executor's retries). Non-sweep work — fitting-pipeline
    /// microbenchmarks, validation and characterization runs — uses this
    /// so it shares the lab's threads, retry policy and fault plan.
    ///
    /// Called from inside a pool worker (a nested map), the items run
    /// inline on that worker rather than waiting on the busy pool.
    pub fn map<I, O, F>(&self, items: Vec<I>, f: F) -> Result<Vec<O>, SweepError>
    where
        I: Send + 'static,
        O: Clone + Send + 'static,
        F: Fn(&I) -> O + Send + Sync + 'static,
    {
        self.executor.run(items, f).try_into_values()
    }

    /// Primes the cross product `suite x (configs + the 1-GPM baseline)`.
    /// Figure generators call this before their serial evaluation loops:
    /// every metric (EDPSE, speedup, energy ratio) needs the baseline, so
    /// it is always included.
    ///
    /// A point that fails even after the executor's retries surfaces
    /// here as the sweep's first [`SweepError`], so callers report a
    /// typed artifact failure instead of re-panicking during the serial
    /// evaluation pass.
    pub fn prime_suite(
        &self,
        suite: &[WorkloadSpec],
        configs: &[ExpConfig],
    ) -> Result<(), SweepError> {
        let mut points = Vec::with_capacity(suite.len() * (configs.len() + 1));
        for w in suite {
            points.push((w.clone(), ExpConfig::baseline()));
            for cfg in configs {
                points.push((w.clone(), cfg.clone()));
            }
        }
        let report = self.prime(points.as_slice());
        match report.first_error() {
            Some(err) => Err(err.clone()),
            None => Ok(()),
        }
    }

    /// Metrics of the most recent [`Lab::prime`] sweep, if any ran.
    pub fn last_sweep_metrics(&self) -> Option<Arc<SweepMetrics>> {
        self.sweeps.lock().unwrap().last().cloned()
    }

    /// Metrics of every sweep this lab has run, in execution order.
    pub fn sweep_history(&self) -> Vec<Arc<SweepMetrics>> {
        self.sweeps.lock().unwrap().clone()
    }

    /// Prints the most recent sweep's summary table to stderr, plus the
    /// total number of cached simulations. No-op for serial labs (the
    /// historical quiet behavior) and before any sweep has run.
    pub fn print_sweep_summary(&self) {
        if self.threads() <= 1 {
            return;
        }
        if let Some(metrics) = self.last_sweep_metrics() {
            eprintln!(
                "\nlast sweep ({} threads):\n{}total cached simulations: {}",
                self.threads(),
                metrics.summary_table().render(),
                self.cached_runs()
            );
        }
    }

    /// Fully evaluates one experiment point.
    pub fn point(&self, workload: &WorkloadSpec, config: &ExpConfig) -> RunPoint {
        let counts = self.counts(workload, config);
        let model = config.energy_config().build_model();
        let breakdown = model.estimate(&counts);
        RunPoint {
            workload: workload.name.to_string(),
            config: config.clone(),
            counts,
            breakdown,
        }
    }

    /// The 1-GPM baseline point for a workload.
    pub fn baseline(&self, workload: &WorkloadSpec) -> RunPoint {
        self.point(workload, &ExpConfig::baseline())
    }

    /// EDPSE (%) of `config` for one workload against its 1-GPM baseline.
    pub fn edpse(&self, workload: &WorkloadSpec, config: &ExpConfig) -> f64 {
        let base = self.baseline(workload).energy_delay();
        let scaled = self.point(workload, config).energy_delay();
        EdpScalingEfficiency::compute(base, scaled, config.gpms)
            .expect("gpms >= 1")
            .percent()
    }

    /// Speedup of `config` over the 1-GPM baseline for one workload.
    pub fn speedup(&self, workload: &WorkloadSpec, config: &ExpConfig) -> f64 {
        let base = self.baseline(workload).energy_delay();
        let scaled = self.point(workload, config).energy_delay();
        scaled.speedup_over(base)
    }

    /// Energy of `config` normalized to the 1-GPM baseline.
    pub fn energy_ratio(&self, workload: &WorkloadSpec, config: &ExpConfig) -> f64 {
        let base = self.baseline(workload).energy_delay();
        let scaled = self.point(workload, config).energy_delay();
        scaled.energy_ratio_over(base)
    }

    /// Number of cached simulation results.
    pub fn cached_runs(&self) -> usize {
        self.cache.len()
    }
}

// The executor moves these across worker threads; keep the bound explicit
// so a future `Rc`/`RefCell` in the simulator fails here, with a clear
// message, instead of deep inside a closure bound.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GpuSim>();
    assert_send_sync::<WorkloadSpec>();
    assert_send_sync::<ExpConfig>();
    assert_send_sync::<EventCounts>();
    assert_send_sync::<Lab>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use sim::BwSetting;
    use workloads::by_name;

    #[test]
    fn cache_hits_for_energy_only_variants() {
        let lab = Lab::new(Scale::Smoke);
        let w = by_name("Stream").unwrap();
        let cfg = ExpConfig::paper_default(2, BwSetting::X2);
        let _ = lab.point(&w, &cfg);
        assert_eq!(lab.cached_runs(), 1);
        // Same sim, different energy knob: no new simulation.
        let cfg2 = cfg.clone().with_link_energy_mult(4.0);
        let _ = lab.point(&w, &cfg2);
        assert_eq!(lab.cached_runs(), 1);
        // Different GPM count: new simulation.
        let cfg3 = ExpConfig::paper_default(4, BwSetting::X2);
        let _ = lab.point(&w, &cfg3);
        assert_eq!(lab.cached_runs(), 2);
    }

    #[test]
    fn clock_scales_that_round_alike_do_not_share_a_simulation() {
        let w = by_name("Stream").unwrap();
        let at = |clock| ExpConfig::paper_default(2, BwSetting::X2).with_clock_scale(clock);
        let lab = Lab::new(Scale::Smoke);
        let _ = lab.counts(&w, &at(0.7501));
        let warm = lab.counts(&w, &at(0.7509));
        assert_eq!(lab.cached_runs(), 2, "0.7509 got its own simulation");
        let fresh = Lab::new(Scale::Smoke).counts(&w, &at(0.7509));
        assert_eq!(*warm, *fresh, "an answer must not depend on the cache");
    }

    #[test]
    fn edpse_of_baseline_is_100() {
        let lab = Lab::new(Scale::Smoke);
        let w = by_name("Hotspot").unwrap();
        let pe = lab.edpse(&w, &ExpConfig::baseline());
        assert!((pe - 100.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_speeds_up_and_costs_energy() {
        let lab = Lab::new(Scale::Smoke);
        let w = by_name("Stream").unwrap();
        let cfg = ExpConfig::paper_default(4, BwSetting::X2);
        let s = lab.speedup(&w, &cfg);
        assert!(s > 1.2, "4 GPMs should beat 1, got {s:.2}");
        let e = lab.energy_ratio(&w, &cfg);
        assert!(e > 0.8, "energy should not collapse, got {e:.2}");
    }

    #[test]
    fn link_energy_multiplier_raises_energy_only() {
        let lab = Lab::new(Scale::Smoke);
        let w = by_name("Stream").unwrap();
        let base_cfg = ExpConfig::paper_default(4, BwSetting::X1);
        let hot_cfg = base_cfg.clone().with_link_energy_mult(4.0);
        let a = lab.point(&w, &base_cfg);
        let b = lab.point(&w, &hot_cfg);
        assert_eq!(a.duration(), b.duration());
        assert!(b.breakdown.total() > a.breakdown.total());
    }

    #[test]
    fn prime_fills_cache_in_parallel() {
        let lab = Lab::with_threads(Scale::Smoke, 4);
        let w = by_name("Stream").unwrap();
        let cfgs = [
            ExpConfig::paper_default(2, BwSetting::X2),
            ExpConfig::paper_default(4, BwSetting::X2),
        ];
        let points: Vec<(WorkloadSpec, ExpConfig)> =
            cfgs.iter().map(|c| (w.clone(), c.clone())).collect();
        let report = lab.prime(&points);
        assert_eq!(report.failures(), 0);
        assert_eq!(lab.cached_runs(), 2);
        // Evaluation after priming is pure cache hits.
        let before = lab.cached_runs();
        let _ = lab.edpse(&w, &cfgs[0]);
        // (edpse also needs the baseline, which prime() did not include.)
        assert_eq!(lab.cached_runs(), before + 1);
        let metrics = lab.last_sweep_metrics().expect("sweep ran");
        assert_eq!(
            metrics.completed.load(std::sync::atomic::Ordering::Relaxed),
            2
        );
    }

    #[test]
    fn map_returns_results_in_submission_order() {
        for threads in [1, 2] {
            let lab = Lab::with_threads(Scale::Smoke, threads);
            let out = lab.map((0u64..16).collect(), |&i| i * i).unwrap();
            assert_eq!(out, (0u64..16).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_map_runs_inline_on_the_worker() {
        // Every outer point maps again on the same 2-thread lab. Were the
        // inner items queued on the pool, both workers could block in
        // outer points waiting for them and the map would never finish.
        let lab: &'static Lab = Box::leak(Box::new(Lab::with_threads(Scale::Smoke, 2)));
        let sums = lab
            .map((0u64..4).collect(), move |&i| {
                assert!(runtime::pool::current_worker_index().is_some());
                lab.map(vec![i, i + 1], |&j| j * 10)
                    .unwrap()
                    .into_iter()
                    .sum::<u64>()
            })
            .unwrap();
        assert_eq!(sums, vec![10, 30, 50, 70]);
    }

    #[test]
    fn parallel_results_match_serial() {
        let serial = Lab::new(Scale::Smoke);
        let parallel = Lab::with_threads(Scale::Smoke, 8);
        let w = by_name("Hotspot").unwrap();
        let cfgs = [
            ExpConfig::paper_default(2, BwSetting::X2),
            ExpConfig::paper_default(4, BwSetting::X1),
        ];
        parallel
            .prime_suite(std::slice::from_ref(&w), &cfgs)
            .unwrap();
        for cfg in &cfgs {
            assert_eq!(serial.edpse(&w, cfg), parallel.edpse(&w, cfg));
            assert_eq!(serial.speedup(&w, cfg), parallel.speedup(&w, cfg));
        }
    }
}
