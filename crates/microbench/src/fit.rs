//! The EPI/EPT derivation pipeline (paper §IV-B, Eq. 5, and the Fig. 3
//! refinement loop).
//!
//! Fitting proceeds the way the paper describes:
//!
//! 1. measure idle power;
//! 2. for every PTX opcode, run its compute microbenchmark and apply
//!    Eq. 5: `EPI = (P_active − P_idle) × T / N`;
//! 3. for every memory level (near to far), run its pointer-chase
//!    microbenchmark and fit the per-transaction energy after subtracting
//!    the already-fitted contributions of nearer levels;
//! 4. fit the lane-stall energy jointly with the DRAM transaction energy
//!    from an occupancy sweep (low-occupancy runs are stall-dominated,
//!    full-occupancy runs are transaction-dominated);
//! 5. iterate 2–4: warm-up traffic and stall energy couple the fits, so a
//!    few fixed-point rounds sharpen them (the refinement loop of Fig. 3).
//!
//! The microbenchmark runs are independent of each other and of the
//! solve, so the pipeline is split in two: [`fit_runs`] lists the runs
//! and [`solve`] fits the model from their measurements. [`fit`] is the
//! serial composition; a caller with a worker pool can measure the runs
//! concurrently and hand them to [`solve`] in order.

use crate::harness::{run_and_measure, ScaledMeasurement};
use crate::kernels::{ComputeUbench, MemLevel, MemoryUbench};
use common::units::{Energy, Power, Time};
use gpujoule::{EnergyModel, EnergyModelBuilder, EpiTable, EptTable};
use isa::{GridShape, Opcode, Transaction};
use silicon::{HiddenBehavior, VirtualK40};
use sim::GpuConfig;

/// Configuration of the fitting pipeline.
#[derive(Debug, Clone)]
pub struct FitConfig {
    /// The single-GPM configuration microbenchmarks run on.
    pub gpu: GpuConfig,
    /// Virtual duration each microbenchmark is stretched to (long enough
    /// for dozens of 15 ms sensor windows).
    pub target_duration: Time,
    /// Per-warp iterations of each compute microbenchmark.
    pub compute_iterations: u32,
    /// Fixed-point refinement rounds.
    pub rounds: u32,
}

impl Default for FitConfig {
    fn default() -> Self {
        FitConfig {
            gpu: GpuConfig::single_gpm(),
            target_duration: Time::from_millis(750.0),
            compute_iterations: 1500,
            rounds: 3,
        }
    }
}

impl FitConfig {
    /// A reduced configuration for fast tests (tiny GPM, shorter targets).
    pub fn fast() -> Self {
        FitConfig {
            gpu: GpuConfig::tiny(1),
            target_duration: Time::from_millis(300.0),
            compute_iterations: 400,
            rounds: 2,
        }
    }
}

/// The result of fitting GPUJoule against (virtual) silicon.
#[derive(Debug, Clone)]
pub struct FittedModel {
    /// Fitted per-instruction energies.
    pub epi: EpiTable,
    /// Fitted per-transaction energies.
    pub ept: EptTable,
    /// Fitted lane-stall energy.
    pub ep_stall: Energy,
    /// Measured idle power (Eq. 4's `Const_Power`).
    pub const_power: Power,
    /// Refinement rounds executed.
    pub rounds: u32,
}

impl FittedModel {
    /// Builds the evaluable energy model from the fitted parameters.
    pub fn to_energy_model(&self) -> EnergyModel {
        EnergyModelBuilder::new()
            .epi_table(self.epi.clone())
            .ept_table(self.ept.clone())
            .ep_stall(self.ep_stall)
            .const_power(self.const_power)
            .build()
    }
}

/// One independent microbenchmark run of the fitting pipeline.
///
/// Runs share no state (every sensor read is seeded by the run's
/// profile name), so they may execute in any order or concurrently;
/// [`solve`] consumes their measurements in [`fit_runs`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitRun {
    /// The Eq. 5 compute microbenchmark of one opcode.
    Compute(Opcode),
    /// The pointer-chase microbenchmark of one memory level.
    Memory(MemLevel),
    /// One point of the FADD32 occupancy sweep behind the stall fit.
    Occupancy(GridShape),
}

impl FitRun {
    /// Simulates this run on `cfg.gpu`, stretches it to the target
    /// duration, and measures it through `hw`'s sensor.
    pub fn measure(&self, hw: &VirtualK40, cfg: &FitConfig) -> ScaledMeasurement {
        let behavior = HiddenBehavior::regular();
        let (gpu, target) = (&cfg.gpu, cfg.target_duration);
        match *self {
            FitRun::Compute(op) => {
                let k = ComputeUbench::new(op, cfg.compute_iterations, &gpu.gpm);
                run_and_measure(hw, gpu, &k, behavior, target)
            }
            FitRun::Memory(level) => {
                let k = MemoryUbench::new(level, &gpu.gpm);
                run_and_measure(hw, gpu, &k, behavior, target)
            }
            FitRun::Occupancy(grid) => {
                let k = ComputeUbench::with_grid(Opcode::FAdd32, cfg.compute_iterations, grid);
                run_and_measure(hw, gpu, &k, behavior, target)
            }
        }
    }
}

/// Every microbenchmark run the pipeline needs, in the order [`solve`]
/// expects their measurements: one compute run per opcode, one
/// pointer-chase run per memory level, then the occupancy sweep.
///
/// The occupancy sweep uses a *compute* benchmark for the stall fit: at
/// low occupancy the SM stalls on the dependency latency of a single
/// warp, at full occupancy it barely stalls, and — unlike a memory
/// sweep — there is no memory-subsystem activity to confound the fit.
pub fn fit_runs(cfg: &FitConfig) -> Vec<FitRun> {
    let sms = cfg.gpu.gpm.sms as u32;
    let occupancy_grids = [
        GridShape::new(sms, 1),
        GridShape::new(sms, 2),
        GridShape::new(sms, 4),
        GridShape::new(sms * (cfg.gpu.gpm.max_resident_warps as u32 / 8).max(1), 8),
    ];
    Opcode::ALL
        .iter()
        .map(|&op| FitRun::Compute(op))
        .chain(MemLevel::ALL.iter().map(|&level| FitRun::Memory(level)))
        .chain(occupancy_grids.into_iter().map(FitRun::Occupancy))
        .collect()
}

/// Runs the full fitting pipeline against `hw`: every [`fit_runs`] run
/// in order on the calling thread, then [`solve`].
///
/// This is the paper's workflow end to end: the fitting code never reads
/// the silicon's hidden truth model — only the sensor.
pub fn fit(hw: &VirtualK40, cfg: &FitConfig) -> FittedModel {
    let runs: Vec<ScaledMeasurement> = fit_runs(cfg)
        .iter()
        .map(|run| run.measure(hw, cfg))
        .collect();
    solve(hw, cfg, &runs)
}

/// Solves the model from measured runs: measures idle power on `hw`
/// (step 1), then fits EPIs, EPTs, and the stall energy from `runs`
/// (steps 2–5). `runs[i]` must be the measurement of `fit_runs(cfg)[i]`.
///
/// # Panics
///
/// If `runs` does not have one measurement per [`fit_runs`] run.
pub fn solve(hw: &VirtualK40, cfg: &FitConfig, runs: &[ScaledMeasurement]) -> FittedModel {
    let plan = fit_runs(cfg);
    assert_eq!(
        plan.len(),
        runs.len(),
        "solve needs one measurement per fit run"
    );
    let idle = hw.measure_idle(Time::from_secs(2.0));

    let mut compute_runs: Vec<(Opcode, &ScaledMeasurement)> = Vec::new();
    let mut mem_runs: Vec<(MemLevel, &ScaledMeasurement)> = Vec::new();
    let mut occ_runs: Vec<&ScaledMeasurement> = Vec::new();
    for (run, m) in plan.iter().zip(runs) {
        match *run {
            FitRun::Compute(op) => compute_runs.push((op, m)),
            FitRun::Memory(level) => mem_runs.push((level, m)),
            FitRun::Occupancy(_) => occ_runs.push(m),
        }
    }

    // ---- fixed-point refinement ----------------------------------------
    let mut epi = EpiTable::zeroed();
    let mut ept = EptTable::zeroed();

    // Joint (EPI_fadd32, EPStall) least squares over the compute
    // occupancy sweep: E_dyn_i = epi·instrs_i + ep_stall·stalls_i.
    let rows: Vec<(f64, f64, f64)> = occ_runs
        .iter()
        .map(|run| {
            (
                run.counts.instrs.get(Opcode::FAdd32) as f64,
                run.counts.stall_cycles as f64,
                run.dynamic_energy(idle).joules(),
            )
        })
        .collect();
    let ep_stall = match solve_2x2_lsq(&rows) {
        Some((_, stall)) => Energy::from_joules(stall.max(0.0)),
        None => Energy::ZERO,
    };

    for _ in 0..cfg.rounds.max(1) {
        // EPIs (Eq. 5), subtracting the fitted stall energy.
        for (op, run) in &compute_runs {
            let n = run.counts.instrs.get(*op);
            if n == 0 {
                continue;
            }
            let e_dyn = run.dynamic_energy(idle);
            let e_stall = ep_stall * run.counts.stall_cycles as f64;
            let e_op = (e_dyn - e_stall).max_zero();
            epi.set(*op, e_op / n as f64);
        }

        // EPTs, near to far, subtracting everything already known.
        for (level, run) in &mem_runs {
            let target_txn = match level {
                MemLevel::Shared => Transaction::SharedToReg,
                MemLevel::L1 => Transaction::L1ToReg,
                MemLevel::L2 => Transaction::L2ToL1,
                MemLevel::Dram => Transaction::DramToL2,
            };
            let txns = run.counts.txns.get(target_txn);
            if txns == 0 {
                continue;
            }
            let residual = residual_energy(run, idle, &epi, &ept, ep_stall, target_txn);
            ept.set(target_txn, residual / txns as f64);
        }
    }

    FittedModel {
        epi,
        ept,
        ep_stall,
        const_power: idle,
        rounds: cfg.rounds,
    }
}

/// Energy of a run explained by the already-fitted terms, *excluding* the
/// transaction class being fitted (and optionally stalls).
fn known_energy(
    run: &ScaledMeasurement,
    epi: &EpiTable,
    ept: &EptTable,
    ep_stall: Energy,
    excluding: Transaction,
) -> Energy {
    let mut e = Energy::ZERO;
    for (op, n) in run.counts.instrs.iter() {
        e += epi.get(op) * n as f64;
    }
    for (t, n) in run.counts.txns.iter() {
        if t != excluding && t.is_intra_gpm() {
            e += ept.get(t) * n as f64;
        }
    }
    e + ep_stall * run.counts.stall_cycles as f64
}

/// Residual dynamic energy attributable to the class being fitted.
fn residual_energy(
    run: &ScaledMeasurement,
    idle: Power,
    epi: &EpiTable,
    ept: &EptTable,
    ep_stall: Energy,
    target: Transaction,
) -> Energy {
    (run.dynamic_energy(idle) - known_energy(run, epi, ept, ep_stall, target)).max_zero()
}

/// Ordinary least squares for two unknowns over rows `(a1, a2, b)`.
/// Returns `None` if the normal matrix is singular.
fn solve_2x2_lsq(rows: &[(f64, f64, f64)]) -> Option<(f64, f64)> {
    let (mut s11, mut s12, mut s22, mut r1, mut r2) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &(a1, a2, b) in rows {
        s11 += a1 * a1;
        s12 += a1 * a2;
        s22 += a2 * a2;
        r1 += a1 * b;
        r2 += a2 * b;
    }
    let det = s11 * s22 - s12 * s12;
    if det.abs() < 1e-12 * (s11 * s22).max(1.0) {
        return None;
    }
    Some(((r1 * s22 - r2 * s12) / det, (r2 * s11 - r1 * s12) / det))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsq_solves_exact_system() {
        // b = 2*a1 + 0.5*a2 exactly.
        let rows = vec![(1.0, 0.0, 2.0), (0.0, 2.0, 1.0), (1.0, 2.0, 3.0)];
        let (x, y) = solve_2x2_lsq(&rows).unwrap();
        assert!((x - 2.0).abs() < 1e-9);
        assert!((y - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lsq_rejects_singular() {
        let rows = vec![(1.0, 2.0, 3.0), (2.0, 4.0, 6.0)];
        assert!(solve_2x2_lsq(&rows).is_none());
    }

    #[test]
    fn runs_solve_to_the_same_model_in_any_measurement_order() {
        // Each run is a pure function of (hw, cfg, run): measuring them
        // back to front and restoring the order must reproduce the serial
        // fit bit for bit — the contract that lets callers run them
        // concurrently.
        let hw = VirtualK40::new();
        let mut cfg = FitConfig::fast();
        cfg.compute_iterations = 100;
        cfg.target_duration = Time::from_millis(60.0);
        let runs = fit_runs(&cfg);
        assert_eq!(runs.len(), Opcode::ALL.len() + MemLevel::ALL.len() + 4);
        let mut measured: Vec<ScaledMeasurement> = runs
            .iter()
            .rev()
            .map(|run| run.measure(&hw, &cfg))
            .collect();
        measured.reverse();
        let solved = solve(&hw, &cfg, &measured);
        let serial = fit(&hw, &cfg);
        assert_eq!(format!("{solved:?}"), format!("{serial:?}"));
    }

    #[test]
    #[should_panic(expected = "one measurement per fit run")]
    fn solve_rejects_a_short_run_list() {
        let cfg = FitConfig::fast();
        let _ = solve(&VirtualK40::new(), &cfg, &[]);
    }

    #[test]
    fn fit_recovers_planted_parameters_on_tiny_hw() {
        // End-to-end: the pipeline only sees the sensor, yet must land
        // close to the hidden truth. Tiny config for speed; the full-size
        // accuracy test lives in the integration suite.
        let hw = VirtualK40::new();
        let cfg = FitConfig::fast();
        let fitted = fit(&hw, &cfg);

        let truth = hw.truth();
        // Idle power recovered.
        assert!((fitted.const_power.watts() - truth.idle_power().watts()).abs() < 1.5);

        // Compute EPIs within ~12% (sensor noise + stall coupling).
        for op in [
            Opcode::FFma32,
            Opcode::FAdd64,
            Opcode::FRcp32,
            Opcode::IAdd32,
        ] {
            let got = fitted.epi.get(op).nanojoules();
            let want = truth.true_epi(op).nanojoules();
            let err = (got - want).abs() / want;
            assert!(
                err < 0.12,
                "{op}: fitted {got:.4} vs true {want:.4} ({err:.3})"
            );
        }

        // Memory EPTs: shared/L1 should recover truth closely; L2/DRAM
        // absorb the floor power and land at or above truth.
        let shared = fitted.ept.get(Transaction::SharedToReg).nanojoules();
        assert!((shared - 5.45).abs() / 5.45 < 0.15, "shared {shared}");
        let l1 = fitted.ept.get(Transaction::L1ToReg).nanojoules();
        assert!((l1 - 5.99).abs() / 5.99 < 0.15, "l1 {l1}");
        // The tiny configuration is latency-bound (4 SMs cannot saturate
        // the K40-class L2/DRAM), so the floor power spreads over fewer
        // transactions than on the full configuration and the fitted
        // L2/DRAM values land well above truth. The full-size recovery
        // test (fitted ≈ Table Ib) lives in tests/pipeline.rs.
        let l2 = fitted.ept.get(Transaction::L2ToL1).nanojoules();
        assert!(l2 > 3.0 && l2 < 14.0, "l2 {l2}");
        let dram = fitted.ept.get(Transaction::DramToL2).nanojoules();
        assert!(dram > 5.0 && dram < 20.0, "dram {dram}");

        // Stall energy is non-negative and bounded.
        assert!(fitted.ep_stall.nanojoules() >= 0.0);
        assert!(fitted.ep_stall.nanojoules() < 2.0);

        // The fitted model is usable.
        let model = fitted.to_energy_model();
        assert!(model.const_power().watts() > 50.0);
    }
}
