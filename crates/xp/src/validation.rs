//! GPUJoule validation experiments (Table Ib and Figs. 4a/4b).
//!
//! The full paper workflow: fit the model through the virtual K40's power
//! sensor, check it against mixed-instruction microbenchmarks, then
//! against the 18-application suite, replaying each app's simulated
//! kernel timeline (with host gaps and the app's counter-invisible
//! behavior) on the virtual silicon.
//!
//! Every microbenchmark and application run here is an independent,
//! pure function of its inputs, so each goes to the lab's sweep executor
//! as one uncached point ([`Lab::map`]) and the results are assembled in
//! submission order: the same code runs serially under `--threads 1` and
//! in parallel above it, with byte-identical output. Fits are cached per
//! board and fitting setup; the standard board's Fig. 4a/4b reports are
//! memoized per scale and fit.

use crate::lab::Lab;
use common::json::Json;
use common::table::TextTable;
use common::units::Time;
use gpujoule::{EnergyModel, EpiTable, EptTable, ValidationItem, ValidationReport};
use isa::{Opcode, Transaction};
use microbench::{FitConfig, FittedModel, MixedRun};
use runtime::{Cache, SweepError};
use silicon::{HiddenBehavior, KernelActivity, RunProfile, VirtualK40};
use sim::{GpuConfig, GpuSim};
use std::sync::{Arc, LazyLock};
use workloads::{Scale, WorkloadSpec};

/// Fitting setup matched to the problem scale.
pub fn fit_config(scale: Scale) -> FitConfig {
    match scale {
        Scale::Full => FitConfig::default(),
        Scale::Smoke => FitConfig::fast(),
    }
}

/// A process-wide memo of fallible results. A failure reaches every
/// caller that joined the computation, then is evicted, so the next call
/// computes afresh instead of replaying it.
type Memo<V> = LazyLock<Cache<String, Result<V, SweepError>>>;

/// Fitted models, keyed by [`fit_key`]. The pipeline is deterministic,
/// so a cached fit is identical to a refit; artifacts that need the same
/// board's fit (Table Ib, Figs. 4a/4b, the validation claims, the
/// portability study's validation loop) share one.
static FITS: Memo<Arc<FittedModel>> = LazyLock::new(Cache::new);
/// Fig. 4a reports of the standard board, keyed by scale and fit key.
static FIG4A: Memo<Arc<ValidationReport>> = LazyLock::new(Cache::new);
/// Fig. 4b reports of the standard board, keyed by scale and fit key.
static FIG4B: Memo<Arc<ValidationReport>> = LazyLock::new(Cache::new);

fn memoized<V: Clone>(
    memo: &Memo<V>,
    key: String,
    compute: impl FnOnce() -> Result<V, SweepError>,
) -> Result<V, SweepError> {
    let outcome = memo.get_or_compute_unwrap(&key, compute);
    if outcome.is_err() {
        memo.remove(&key);
    }
    outcome
}

/// Everything a fit's result depends on: the board (its hidden truth
/// model and its sensor), the fitting setup, and any process-wide
/// sensor faults.
fn fit_key(hw: &VirtualK40, cfg: &FitConfig) -> String {
    format!("{hw:?}|{cfg:?}|{:?}", silicon::armed_sensor_faults())
}

/// Fits `hw` with `cfg`, or returns the cached fit of the same board and
/// setup.
///
/// Each microbenchmark run is one point on the lab's sweep executor, so
/// the runs share the lab's threads and fault plan; outcomes come back
/// in submission order and every run is a pure function of its inputs,
/// so the fit is bit-identical at any thread count. Concurrent callers
/// with the same key join the in-flight fit, while distinct keys fit
/// concurrently. A run that fails fails the fit, and that failure is
/// not cached.
/// Each fit solved here counts once in the `microbench.fit` trace
/// counter.
pub fn fit_cached(
    lab: &Lab,
    hw: &VirtualK40,
    cfg: &FitConfig,
) -> Result<Arc<FittedModel>, SweepError> {
    memoized(&FITS, fit_key(hw, cfg), || {
        let runs = lab.map(microbench::fit_runs(cfg), {
            let (hw, cfg) = (hw.clone(), cfg.clone());
            move |run| run.measure(&hw, &cfg)
        })?;
        trace::count("microbench.fit", 1);
        Ok(Arc::new(microbench::solve(hw, cfg, &runs)))
    })
}

/// The cached fit of the standard [`VirtualK40`] at the lab's scale.
pub fn fit_model_cached(lab: &Lab) -> Result<Arc<FittedModel>, SweepError> {
    fit_cached(lab, &VirtualK40::new(), &fit_config(lab.scale()))
}

/// Memo key of the standard board's Fig. 4a/4b reports at `scale`.
fn standard_report_key(scale: Scale) -> String {
    format!(
        "{scale:?}|{}",
        fit_key(&VirtualK40::new(), &fit_config(scale))
    )
}

/// Mixed-instruction validation of `model` on `hw`: each Fig. 4a
/// combination is one point on the lab's executor.
pub fn validate_mixed(
    lab: &Lab,
    hw: &VirtualK40,
    model: &EnergyModel,
    gpu: &GpuConfig,
    target: Time,
) -> Result<ValidationReport, SweepError> {
    let runs = lab.map(MixedRun::ALL.to_vec(), {
        let (hw, gpu) = (hw.clone(), gpu.clone());
        move |combo| combo.measure(&hw, &gpu, target)
    })?;
    Ok(microbench::assess_mixed(model, &runs))
}

/// Figure 4a: mixed-instruction microbenchmark validation of `model`.
pub fn fig4a(
    lab: &Lab,
    hw: &VirtualK40,
    model: &EnergyModel,
    scale: Scale,
) -> Result<ValidationReport, SweepError> {
    let target = match scale {
        Scale::Full => Time::from_millis(600.0),
        Scale::Smoke => Time::from_millis(250.0),
    };
    validate_mixed(lab, hw, model, &fit_config(scale).gpu, target)
}

/// Figure 4a for the standard board's cached fit at the lab's scale,
/// memoized: the `fig4a` artifact, the validation claims and
/// `all_figures` share one evaluation.
pub fn fig4a_cached(lab: &Lab) -> Result<Arc<ValidationReport>, SweepError> {
    let (hw, scale) = (VirtualK40::new(), lab.scale());
    memoized(&FIG4A, standard_report_key(scale), || {
        let model = fit_model_cached(lab)?.to_energy_model();
        fig4a(lab, &hw, &model, scale).map(Arc::new)
    })
}

/// Figure 4b for the standard board's cached fit over the full Table II
/// suite at the lab's scale, memoized like [`fig4a_cached`].
pub fn fig4b_cached(lab: &Lab) -> Result<Arc<ValidationReport>, SweepError> {
    let (hw, scale) = (VirtualK40::new(), lab.scale());
    memoized(&FIG4B, standard_report_key(scale), || {
        let model = fit_model_cached(lab)?.to_energy_model();
        fig4b(lab, &hw, &model, &workloads::suite(), scale).map(Arc::new)
    })
}

/// Table Ib: the fitted EPI/EPT values side by side with the paper's
/// published measurements.
pub fn table1b(fitted: &FittedModel) -> TextTable {
    let paper_epi = EpiTable::k40();
    let paper_ept = EptTable::k40();
    let mut t = TextTable::new(["operation", "fitted", "paper (Table Ib)", "err %"]);
    for op in Opcode::ALL {
        if !op.in_paper_table() {
            continue;
        }
        let fit_nj = fitted.epi.get(op).nanojoules();
        let ref_nj = paper_epi.get(op).nanojoules();
        t.row([
            op.mnemonic().to_string(),
            format!("{fit_nj:.3} nJ"),
            format!("{ref_nj:.2} nJ"),
            format!("{:+.1}", (fit_nj - ref_nj) / ref_nj * 100.0),
        ]);
    }
    for txn in Transaction::ALL {
        if !txn.is_intra_gpm() {
            continue;
        }
        let fit_nj = fitted.ept.get(txn).nanojoules();
        let ref_nj = paper_ept.get(txn).nanojoules();
        t.row([
            txn.label().to_string(),
            format!(
                "{fit_nj:.3} nJ ({:.2} pJ/bit)",
                fitted.ept.per_bit(txn).pj_per_bit()
            ),
            format!(
                "{ref_nj:.2} nJ ({:.2} pJ/bit)",
                paper_ept.per_bit(txn).pj_per_bit()
            ),
            format!("{:+.1}", (fit_nj - ref_nj) / ref_nj * 100.0),
        ]);
    }
    t
}

/// Figure 4b: end-to-end application validation against the virtual
/// silicon. Returns one item per application; each is one point on the
/// lab's executor.
pub fn fig4b(
    lab: &Lab,
    hw: &VirtualK40,
    model: &EnergyModel,
    suite: &[WorkloadSpec],
    scale: Scale,
) -> Result<ValidationReport, SweepError> {
    let items = lab.map(suite.to_vec(), {
        let (hw, model) = (hw.clone(), model.clone());
        move |w| validate_app(&hw, &model, w, scale)
    })?;
    Ok(items.into_iter().collect())
}

/// One Fig. 4b item: simulate `w`, replay its kernel timeline on the
/// virtual silicon, and compare the model's estimate with the sensor.
fn validate_app(
    hw: &VirtualK40,
    model: &EnergyModel,
    w: &WorkloadSpec,
    scale: Scale,
) -> ValidationItem {
    let target = match scale {
        Scale::Full => Time::from_millis(400.0),
        Scale::Smoke => Time::from_millis(120.0),
    };
    let sim_cfg = match scale {
        Scale::Full => GpuConfig::single_gpm(),
        Scale::Smoke => GpuConfig::tiny(1),
    };

    let mut sim = GpuSim::new(&sim_cfg);
    let result = sim.run_workload(&w.launches(scale));

    let behavior = HiddenBehavior {
        lane_utilization: w.lane_utilization,
        interaction_scale: 1.0,
        floor_scale: w.floor_scale,
    };

    // The simulator runs scaled-down problem instances, so kernel
    // durations are artificially short. For normal applications the
    // realistic timeline has *long* kernels: stretch each kernel (counts
    // and duration together) to the target run length. Apps that are
    // inherently many-short-launch (BFS, MiniAMR) keep their
    // sub-millisecond kernels and replay the launch/gap timeline instead
    // — that is their real shape, and the sensor's inability to resolve
    // it is the effect under study.
    let mut profile = RunProfile::new(w.name);
    if w.short_kernels {
        let rep_time = result.total_duration() + w.host_gap * result.kernels.len() as f64;
        let reps = (target.secs() / rep_time.secs()).ceil().max(1.0) as usize;
        for _ in 0..reps {
            for k in &result.kernels {
                profile = profile
                    .kernel(KernelActivity::new(
                        k.duration(),
                        k.counts.clone(),
                        behavior,
                    ))
                    .idle(w.host_gap);
            }
        }
    } else {
        let stretch = (target.secs() / result.total_duration().secs())
            .ceil()
            .max(1.0) as u64;
        for k in &result.kernels {
            let mut counts = k.counts.clone();
            counts.scale(stretch);
            profile = profile
                .kernel(KernelActivity::new(counts.elapsed, counts, behavior))
                .idle(w.host_gap);
        }
    }

    // Kernel-attributed measurement (what NVML-polling scripts report):
    // gaps excluded from both sides.
    let measurement = hw.measure_active(&profile);
    let mut counts = profile.aggregate_counts();
    counts.elapsed = measurement.duration;
    let modeled = model.estimate_total(&counts);
    ValidationItem::new(w.name, modeled, measurement.measured_energy)
}

/// The JSON form of Table Ib: fitted vs paper energy for each published
/// opcode and intra-GPM transaction.
pub fn table1b_to_json(fitted: &FittedModel) -> Json {
    let paper_epi = EpiTable::k40();
    let paper_ept = EptTable::k40();
    let mut rows = Json::array();
    for op in Opcode::ALL {
        if !op.in_paper_table() {
            continue;
        }
        let fit_nj = fitted.epi.get(op).nanojoules();
        let ref_nj = paper_epi.get(op).nanojoules();
        let mut r = Json::object();
        r.insert("operation", op.mnemonic());
        r.insert("kind", "instruction");
        r.insert("fitted_nj", fit_nj);
        r.insert("paper_nj", ref_nj);
        r.insert("error_pct", (fit_nj - ref_nj) / ref_nj * 100.0);
        rows.push(r);
    }
    for txn in Transaction::ALL {
        if !txn.is_intra_gpm() {
            continue;
        }
        let fit_nj = fitted.ept.get(txn).nanojoules();
        let ref_nj = paper_ept.get(txn).nanojoules();
        let mut r = Json::object();
        r.insert("operation", txn.label());
        r.insert("kind", "transaction");
        r.insert("fitted_nj", fit_nj);
        r.insert("paper_nj", ref_nj);
        r.insert("error_pct", (fit_nj - ref_nj) / ref_nj * 100.0);
        r.insert("fitted_pj_per_bit", fitted.ept.per_bit(txn).pj_per_bit());
        r.insert("paper_pj_per_bit", paper_ept.per_bit(txn).pj_per_bit());
        rows.push(r);
    }
    let mut o = Json::object();
    o.insert("rows", rows);
    o
}

/// The JSON form of a Fig. 4-style validation report.
pub fn validation_to_json(report: &ValidationReport) -> Json {
    let mut items = Json::array();
    for item in report.items() {
        let mut r = Json::object();
        r.insert("name", item.name.as_str());
        r.insert("modeled_joules", item.modeled.joules());
        r.insert("measured_joules", item.measured.joules());
        r.insert("error_pct", item.error_percent());
        items.push(r);
    }
    let mut o = Json::object();
    o.insert("items", items);
    o.insert("geomean_abs_error_pct", report.geomean_abs_error_percent());
    o.insert("mean_abs_error_pct", report.mean_abs_error_percent());
    o
}

/// Renders a validation report as a Fig. 4-style table.
pub fn render_validation(report: &ValidationReport) -> TextTable {
    let mut t = TextTable::new(["benchmark", "modeled", "measured", "error (%)"]);
    for item in report.items() {
        t.row([
            item.name.clone(),
            item.modeled.to_string(),
            item.measured.to_string(),
            format!("{:+.1}", item.error_percent()),
        ]);
    }
    t.row([
        "GeoMean |err|".to_string(),
        String::new(),
        String::new(),
        format!("{:.1}", report.geomean_abs_error_percent()),
    ]);
    t.row([
        "Mean |err|".to_string(),
        String::new(),
        String::new(),
        format!("{:.1}", report.mean_abs_error_percent()),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::by_name;

    #[test]
    fn table1b_lists_19_ops_and_4_levels() {
        let fitted = fit_model_cached(&Lab::new(Scale::Smoke)).unwrap();
        let t = table1b(&fitted);
        assert_eq!(t.len(), 19 + 4);
        let s = t.render();
        assert!(s.contains("fma.rn.f32"));
        assert!(s.contains("DRAM -> L2"));
    }

    #[test]
    fn fig4b_smoke_produces_items_with_bounded_error() {
        let hw = VirtualK40::new();
        let lab = Lab::new(Scale::Smoke);
        let model = fit_model_cached(&lab).unwrap().to_energy_model();
        let suite: Vec<_> = ["Stream", "Hotspot"]
            .iter()
            .map(|n| by_name(n).unwrap())
            .collect();
        let report = fig4b(&lab, &hw, &model, &suite, Scale::Smoke).unwrap();
        assert_eq!(report.len(), 2);
        for item in report.items() {
            assert!(item.modeled.joules() > 0.0);
            assert!(item.measured.joules() > 0.0);
            assert!(
                item.error_percent().abs() < 60.0,
                "{}: {:+.1}%",
                item.name,
                item.error_percent()
            );
        }
        let rendered = render_validation(&report);
        assert!(rendered.render().contains("Mean |err|"));
    }
}
