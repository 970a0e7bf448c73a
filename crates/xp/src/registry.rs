//! The artifact registry: every figure, table, and study the workspace
//! can reproduce, addressable by id. The `xp` CLI driver resolves ids
//! against [`ArtifactRegistry::standard`], unions the artifacts' sweep
//! plans into one batch prime, and evaluates each artifact against the
//! warm cache.
//!
//! Artifact text output is byte-identical to what the historical one-off
//! binaries (`cargo run -p xp --bin fig6` and friends) printed.

use crate::artifact::{
    enveloped, failed_at, mean_of, Artifact, ArtifactData, ArtifactError, SweepPlan,
};
use crate::configs::ExpConfig;
use crate::figures::{Fig10, Fig2, Fig6, Fig7, Fig8, Fig9, Headline, PointStudies};
use crate::lab::Lab;
use crate::{ablation::AblationStudy, extensions, report, validation};
use common::json::Json;
use common::table::TextTable;
use common::units::{Bytes, EnergyPerBit, Power, Time};
use gpujoule::{EnergyComponent, EpiTable, EptTable};
use isa::{Opcode, Transaction};
use microbench::{FitConfig, FittedModel};
use silicon::{TruthModel, VirtualK40};
use sim::{BwSetting, GpmConfig, GpuConfig, GpuSim, Topology};
use std::fmt::Write as _;
use workloads::{Scale, WorkloadSpec};

/// Options controlling which work the standard registry's artifacts do.
#[derive(Debug, Clone)]
pub struct RegistryOptions {
    /// Whether `repro_report` and `all_figures` include the §IV
    /// validation experiments (the fitting pipeline). Maps to the
    /// historical `--no-validation` flag.
    pub validation: bool,
}

impl Default for RegistryOptions {
    fn default() -> Self {
        RegistryOptions { validation: true }
    }
}

/// An [`Artifact`] assembled from plain functions — the registry's
/// uniform wrapper around the figure/table/study generators.
struct DynArtifact {
    id: &'static str,
    title: &'static str,
    composite: bool,
    plan: Box<dyn Fn() -> SweepPlan + Send + Sync>,
    eval: EvalFn,
}

type EvalFn =
    Box<dyn Fn(&Lab, &[WorkloadSpec]) -> Result<ArtifactData, ArtifactError> + Send + Sync>;

impl Artifact for DynArtifact {
    fn id(&self) -> &'static str {
        self.id
    }

    fn title(&self) -> &'static str {
        self.title
    }

    fn plan(&self) -> SweepPlan {
        (self.plan)()
    }

    fn evaluate(&self, lab: &Lab, suite: &[WorkloadSpec]) -> Result<ArtifactData, ArtifactError> {
        (self.eval)(lab, suite)
    }

    fn composite(&self) -> bool {
        self.composite
    }
}

/// Builds an [`ArtifactData`] with the standard id/title JSON envelope.
fn data(id: &'static str, title: &'static str, text: String, payload: Json) -> ArtifactData {
    ArtifactData {
        text,
        json: enveloped(id, title, payload),
    }
}

// ---------------------------------------------------------------------------
// Figure artifacts
// ---------------------------------------------------------------------------

fn fig2_artifact() -> DynArtifact {
    let (id, title) = ("fig2", "Figure 2: on-board strong-scaling energy");
    DynArtifact {
        id,
        title,
        composite: false,
        plan: Box::new(|| SweepPlan::sweep(Fig2::plan_configs())),
        eval: Box::new(move |lab, suite| {
            let fig = Fig2::run(lab, suite)?;
            let text = format!(
                "Figure 2: energy of strong scaling, on-board integration (ideal = 1.0)\n{}\n",
                fig.render()
            );
            Ok(data(id, title, text, fig.to_json()))
        }),
    }
}

fn fig6_artifact() -> DynArtifact {
    let (id, title) = ("fig6", "Figure 6: EDPSE by workload category at 2x-BW");
    DynArtifact {
        id,
        title,
        composite: false,
        plan: Box::new(|| SweepPlan::sweep(Fig6::plan_configs())),
        eval: Box::new(move |lab, suite| {
            let fig = Fig6::run(lab, suite)?;
            let text = format!(
                "Figure 6: EDPSE, on-package baseline (2x-BW); paper avg: 94% @2-GPM -> 36% @32-GPM\n{}\n",
                fig.render()
            );
            Ok(data(id, title, text, fig.to_json()))
        }),
    }
}

fn fig7_artifact() -> DynArtifact {
    let (id, title) = ("fig7", "Figure 7: per-step speedup and energy breakdown");
    DynArtifact {
        id,
        title,
        composite: false,
        plan: Box::new(|| SweepPlan::sweep(Fig7::plan_configs())),
        eval: Box::new(move |lab, suite| {
            let fig = Fig7::run(lab, suite)?;
            let text = format!(
                "Figure 7: per-step speedup and energy increase breakdown (2x-BW)\n{}\nmonolithic (ideal interconnect) 16->32 speedup: {:.2} (paper: 1.808)\n",
                fig.render(),
                fig.monolithic_16_to_32
            );
            Ok(data(id, title, text, fig.to_json()))
        }),
    }
}

fn fig8_artifact() -> DynArtifact {
    let (id, title) = ("fig8", "Figure 8: EDPSE vs interconnect bandwidth");
    DynArtifact {
        id,
        title,
        composite: false,
        plan: Box::new(|| SweepPlan::sweep(Fig8::plan_configs())),
        eval: Box::new(move |lab, suite| {
            let fig = Fig8::run(lab, suite)?;
            let text = format!(
                "Figure 8: EDPSE vs interconnect bandwidth (paper: ~3x EDPSE from 4x BW at 32-GPM)\n{}\n",
                fig.render()
            );
            Ok(data(id, title, text, fig.to_json()))
        }),
    }
}

fn fig9_artifact() -> DynArtifact {
    let (id, title) = ("fig9", "Figure 9: on-board ring vs high-radix switch");
    DynArtifact {
        id,
        title,
        composite: false,
        plan: Box::new(|| SweepPlan::sweep(Fig9::plan_configs())),
        eval: Box::new(move |lab, suite| {
            let fig = Fig9::run(lab, suite)?;
            let text = format!(
                "Figure 9: on-board ring vs switch (paper: switch ~2x EDPSE at 32-GPM)\n{}\n",
                fig.render()
            );
            Ok(data(id, title, text, fig.to_json()))
        }),
    }
}

fn fig10_artifact() -> DynArtifact {
    let (id, title) = ("fig10", "Figure 10: speedup and energy across settings");
    DynArtifact {
        id,
        title,
        composite: false,
        plan: Box::new(|| SweepPlan::sweep(Fig10::plan_configs())),
        eval: Box::new(move |lab, suite| {
            let fig = Fig10::run(lab, suite)?;
            let text = format!(
                "Figure 10: speedup and energy vs 1-GPM across bandwidth settings\n{}\n",
                fig.render()
            );
            Ok(data(id, title, text, fig.to_json()))
        }),
    }
}

fn point_studies_artifact() -> DynArtifact {
    let (id, title) = ("point_studies", "§V-C/§V-D point studies at 32-GPM");
    DynArtifact {
        id,
        title,
        composite: false,
        plan: Box::new(|| SweepPlan::sweep(PointStudies::plan_configs())),
        eval: Box::new(move |lab, suite| {
            let studies = PointStudies::run(lab, suite)?;
            let text = format!(
                "Point studies (paper: <1% EDPSE impact of 4x link energy; +8.8% EDPSE for 4x-energy/2x-BW;\n               22.3%/10.4% energy saving at 50%/25% amortization; 27.4% -> 45% energy reduction)\n{}\n",
                studies.render()
            );
            Ok(data(id, title, text, studies.to_json()))
        }),
    }
}

fn headline_artifact() -> DynArtifact {
    let (id, title) = ("headline", "§VII headline: naive vs optimized 32-GPM");
    DynArtifact {
        id,
        title,
        composite: false,
        plan: Box::new(|| SweepPlan::sweep(Headline::plan_configs())),
        eval: Box::new(move |lab, suite| {
            let h = Headline::run(lab, suite)?;
            let text = format!("Headline comparison (paper §VII)\n{}\n", h.render());
            Ok(data(id, title, text, h.to_json()))
        }),
    }
}

// ---------------------------------------------------------------------------
// Study artifacts
// ---------------------------------------------------------------------------

fn ablation_artifact() -> DynArtifact {
    let (id, title) = ("ablation", "Design-choice ablations at 8/32-GPM");
    DynArtifact {
        id,
        title,
        composite: false,
        plan: Box::new(|| {
            let mut cfgs = AblationStudy::plan_configs(8);
            cfgs.extend(AblationStudy::plan_configs(32));
            SweepPlan::sweep(cfgs)
        }),
        eval: Box::new(move |lab, suite| {
            let mut text = String::new();
            let mut payload = Json::object();
            let mut studies = Json::array();
            for gpms in [8usize, 32] {
                let study = AblationStudy::run(lab, suite, gpms)?;
                let _ = writeln!(
                    text,
                    "Design-choice ablations at {gpms}-GPM, 2x-BW on-package"
                );
                let _ = writeln!(text, "{}", study.render());
                studies.push(study.to_json());
            }
            payload.insert("studies", studies);
            Ok(data(id, title, text, payload))
        }),
    }
}

fn extensions_artifact() -> DynArtifact {
    let (id, title) = (
        "extensions",
        "§V-E extensions: gating, compression, DVFS, metrics",
    );
    DynArtifact {
        id,
        title,
        composite: false,
        plan: Box::new(|| {
            let mut cfgs = extensions::GatingStudy::plan_configs(32);
            cfgs.extend(extensions::CompressionStudy::plan_configs(32));
            cfgs.extend(extensions::DvfsStudy::plan_configs(32));
            cfgs.extend(extensions::MetricWeightStudy::plan_configs());
            SweepPlan::sweep(cfgs)
        }),
        eval: Box::new(move |lab, suite| {
            let gating = extensions::GatingStudy::run(lab, suite, 32)?;
            let compression = extensions::CompressionStudy::run(lab, suite, 32)?;
            let dvfs = extensions::DvfsStudy::run(lab, suite, 32)?;
            let metrics = extensions::MetricWeightStudy::run(lab, suite)?;
            let text = format!(
                "Idle-aware power gating at 32-GPM, 2x-BW (§V-E):\n{}\nInter-GPM link compression at 32-GPM, 1x-BW on-board (§V-E):\n{}\nModule DVFS at 32-GPM, 2x-BW (bracketed out in §V-A2):\n{}\nMetric weighting (ED^iPSE) at 2x-BW (§III):\n{}\n",
                gating.render(),
                compression.render(),
                dvfs.render(),
                metrics.render()
            );
            let mut payload = Json::object();
            payload.insert("gating", gating.to_json());
            payload.insert("compression", compression.to_json());
            payload.insert("dvfs", dvfs.to_json());
            payload.insert("metric_weights", metrics.to_json());
            Ok(data(id, title, text, payload))
        }),
    }
}

// ---------------------------------------------------------------------------
// Static tables
// ---------------------------------------------------------------------------

fn tables_artifact() -> DynArtifact {
    let (id, title) = ("tables", "Tables III/IV: the simulated configuration space");
    DynArtifact {
        id,
        title,
        composite: false,
        plan: Box::new(SweepPlan::none),
        eval: Box::new(move |_lab, _suite| {
            let mut t = TextTable::new([
                "configuration",
                "modules",
                "total SMs",
                "L1/SM",
                "total L2",
                "total DRAM BW",
            ]);
            let mut t3_rows = Json::array();
            for n in [1usize, 2, 4, 8, 16, 32] {
                let cfg = GpuConfig::paper(n, BwSetting::X2, Topology::Ring);
                t.row([
                    format!("{n}-GPM"),
                    n.to_string(),
                    cfg.total_sms().to_string(),
                    format!("{}", cfg.gpm.l1_bytes),
                    format!("{}", cfg.total_l2_bytes()),
                    format!("{}", cfg.total_dram_bw()),
                ]);
                let mut r = Json::object();
                r.insert("gpms", n);
                r.insert("total_sms", cfg.total_sms());
                r.insert("l1_per_sm", format!("{}", cfg.gpm.l1_bytes).as_str());
                r.insert("total_l2", format!("{}", cfg.total_l2_bytes()).as_str());
                r.insert("total_dram_bw", format!("{}", cfg.total_dram_bw()).as_str());
                t3_rows.push(r);
            }

            let mut t2 = TextTable::new([
                "setting",
                "inter-GPM BW",
                "inter-GPM:DRAM",
                "integration domain",
            ]);
            let mut t4_rows = Json::array();
            for (bw, ratio, domain) in [
                (BwSetting::X1, "1:2", "on-board"),
                (BwSetting::X2, "1:1", "on-package"),
                (BwSetting::X4, "2:1", "on-package"),
            ] {
                let cfg = GpuConfig::paper(8, bw, Topology::Ring);
                t2.row([
                    bw.label().to_string(),
                    format!("{}", cfg.inter_gpm_bw),
                    ratio.to_string(),
                    domain.to_string(),
                ]);
                let mut r = Json::object();
                r.insert("setting", bw.label());
                r.insert("inter_gpm_bw", format!("{}", cfg.inter_gpm_bw).as_str());
                r.insert("inter_gpm_to_dram", ratio);
                r.insert("domain", domain);
                t4_rows.push(r);
            }

            let text = format!(
                "Table III: simulated multi-module GPU configurations\n{t}\nTable IV: per-GPM I/O bandwidth settings\n{t2}\n"
            );
            let mut payload = Json::object();
            payload.insert("table3", t3_rows);
            payload.insert("table4", t4_rows);
            Ok(data(id, title, text, payload))
        }),
    }
}

// ---------------------------------------------------------------------------
// Validation artifacts (§IV — fitting pipeline)
// ---------------------------------------------------------------------------

fn table1b_artifact() -> DynArtifact {
    let (id, title) = ("table1b", "Table Ib: fitted vs published energy per op");
    DynArtifact {
        id,
        title,
        composite: false,
        plan: Box::new(SweepPlan::fit),
        eval: Box::new(move |lab, _suite| {
            let fitted = validation::fit_model_cached(lab).map_err(failed_at(id, "fit"))?;
            let text = format!(
                "Table Ib: fitted vs published energy per operation\n{}\nconst power (fitted idle): {}\nEPStall (fitted): {:.3} nJ\n",
                validation::table1b(&fitted),
                fitted.const_power,
                fitted.ep_stall.nanojoules()
            );
            let mut payload = validation::table1b_to_json(&fitted);
            payload.insert("const_power_watts", fitted.const_power.watts());
            payload.insert("ep_stall_nj", fitted.ep_stall.nanojoules());
            Ok(data(id, title, text, payload))
        }),
    }
}

fn fig4a_artifact() -> DynArtifact {
    let (id, title) = ("fig4a", "Figure 4a: mixed-microbenchmark validation");
    DynArtifact {
        id,
        title,
        composite: false,
        plan: Box::new(SweepPlan::fit),
        eval: Box::new(move |lab, _suite| {
            let report = validation::fig4a_cached(lab).map_err(failed_at(id, "validation"))?;
            let text = format!(
                "Figure 4a: mixed-microbenchmark validation (paper band: +2.5% .. -6%)\n{}\n",
                validation::render_validation(&report)
            );
            Ok(data(
                id,
                title,
                text,
                validation::validation_to_json(&report),
            ))
        }),
    }
}

fn fig4b_artifact() -> DynArtifact {
    let (id, title) = ("fig4b", "Figure 4b: application-suite validation");
    DynArtifact {
        id,
        title,
        composite: false,
        plan: Box::new(SweepPlan::fit),
        eval: Box::new(move |lab, _suite| {
            let report = validation::fig4b_cached(lab).map_err(failed_at(id, "validation"))?;
            let outliers = report.outliers(30.0);
            let outlier_names: Vec<&str> = outliers.iter().map(|i| i.name.as_str()).collect();
            let text = format!(
                "Figure 4b: application validation (paper: 9.4% mean |err|, 4 outliers >30%)\n{}\noutliers beyond 30%: {}\n",
                validation::render_validation(&report),
                outlier_names.join(", ")
            );
            let mut payload = validation::validation_to_json(&report);
            let mut out = Json::array();
            for name in outlier_names {
                out.push(name);
            }
            payload.insert("outliers_beyond_30pct", out);
            Ok(data(id, title, text, payload))
        }),
    }
}

// ---------------------------------------------------------------------------
// Sensitivity (energy-model anchors)
// ---------------------------------------------------------------------------

/// EDPSE and energy ratio with an overridden energy model at 32-GPM
/// 2x-BW (the sensitivity study's probe).
fn sensitivity_point(
    lab: &Lab,
    suite: &[WorkloadSpec],
    const_per_gpm: Power,
    dram_pj_per_bit: f64,
    point: &str,
) -> Result<(f64, f64), ArtifactError> {
    let cfg = ExpConfig::paper_default(32, BwSetting::X2);
    let mut ept = EptTable::k40();
    ept.set(
        Transaction::DramToL2,
        EnergyPerBit::from_pj_per_bit(dram_pj_per_bit)
            .energy_for(Bytes::new(Transaction::DramToL2.bytes_per_txn())),
    );
    let mut base_ecfg = ExpConfig::baseline().energy_config();
    let mut scaled_ecfg = cfg.energy_config();
    scaled_ecfg.const_power_per_gpm = const_per_gpm;
    base_ecfg.const_power_per_gpm = const_per_gpm;

    let base_model = base_ecfg.build_model_with_tables(EpiTable::k40(), ept.clone());
    let scaled_model = scaled_ecfg.build_model_with_tables(EpiTable::k40(), ept);

    let mut edpses = Vec::new();
    let mut energies = Vec::new();
    for w in suite {
        let base_counts = lab.counts(w, &ExpConfig::baseline());
        let counts = lab.counts(w, &cfg);
        let e_base = base_model.estimate(&base_counts).total();
        let e = scaled_model.estimate(&counts).total();
        let edp_base = e_base.joules() * base_counts.elapsed.secs();
        let edp = e.joules() * counts.elapsed.secs();
        edpses.push(edp_base * 100.0 / (32.0 * edp));
        energies.push(e.joules() / e_base.joules());
    }
    Ok((
        mean_of("sensitivity", point, &edpses)?,
        mean_of("sensitivity", point, &energies)?,
    ))
}

fn sensitivity_artifact() -> DynArtifact {
    let (id, title) = ("sensitivity", "Energy-model anchor sensitivity at 32-GPM");
    DynArtifact {
        id,
        title,
        composite: false,
        plan: Box::new(|| SweepPlan::sweep(vec![ExpConfig::paper_default(32, BwSetting::X2)])),
        eval: Box::new(move |lab, suite| {
            lab.prime_suite(suite, &[ExpConfig::paper_default(32, BwSetting::X2)])
                .map_err(|e| ArtifactError::from_sweep("sensitivity", e))?;
            let mut text = String::from("Sensitivity of the 32-GPM (2x-BW) conclusions:\n\n");

            let mut t = TextTable::new(["per-GPM constant power", "energy vs 1-GPM", "EDPSE (%)"]);
            let mut const_rows = Json::array();
            for watts in [40.0, 62.0, 85.0] {
                let (edpse, energy) = sensitivity_point(
                    lab,
                    suite,
                    Power::from_watts(watts),
                    21.1,
                    &format!("const power {watts:.0} W"),
                )?;
                t.row([
                    format!("{watts:.0} W"),
                    format!("{energy:.2}"),
                    format!("{edpse:.1}"),
                ]);
                let mut r = Json::object();
                r.insert("const_power_watts", watts);
                r.insert("energy_ratio", energy);
                r.insert("edpse_pct", edpse);
                const_rows.push(r);
            }
            let _ = writeln!(text, "constant-power anchor (baseline 62 W):");
            let _ = writeln!(text, "{t}");

            let mut t =
                TextTable::new(["DRAM technology", "pJ/bit", "energy vs 1-GPM", "EDPSE (%)"]);
            let mut dram_rows = Json::array();
            for (label, pj) in [
                ("GDDR5 (K40)", 30.55),
                ("HBM (paper)", 21.1),
                ("HBM2-class", 15.0),
            ] {
                let (edpse, energy) =
                    sensitivity_point(lab, suite, Power::from_watts(62.0), pj, label)?;
                t.row([
                    label.to_string(),
                    format!("{pj:.2}"),
                    format!("{energy:.2}"),
                    format!("{edpse:.1}"),
                ]);
                let mut r = Json::object();
                r.insert("technology", label);
                r.insert("pj_per_bit", pj);
                r.insert("energy_ratio", energy);
                r.insert("edpse_pct", edpse);
                dram_rows.push(r);
            }
            let _ = writeln!(
                text,
                "DRAM per-bit cost (the paper's §V-A2 HBM adjustment):"
            );
            let _ = writeln!(text, "{t}");

            let mut payload = Json::object();
            payload.insert("const_power", const_rows);
            payload.insert("dram", dram_rows);
            Ok(data(id, title, text, payload))
        }),
    }
}

// ---------------------------------------------------------------------------
// Calibration diagnostics
// ---------------------------------------------------------------------------

fn calibrate_artifact() -> DynArtifact {
    let (id, title) = ("calibrate", "Per-workload scaling calibration diagnostics");
    DynArtifact {
        id,
        title,
        composite: false,
        plan: Box::new(|| {
            let mut cfgs = Vec::new();
            for n in [2usize, 4, 8, 16, 32] {
                cfgs.push(ExpConfig::paper_default(n, BwSetting::X2));
                cfgs.push(ExpConfig::paper_default(n, BwSetting::X1));
            }
            SweepPlan::sweep(cfgs)
        }),
        eval: Box::new(move |lab, suite| {
            let mut t = TextTable::new([
                "workload", "cat", "1G kcyc", "s2", "s4", "s8", "s16", "s32", "E32/E1", "edpse32",
                "idle32", "hop32GB", "const32",
            ]);
            let mut rows = Json::array();
            for w in suite {
                let base = lab.baseline(w);
                let mut row = vec![
                    w.name.to_string(),
                    w.category.to_string(),
                    format!("{:.0}", base.counts.elapsed.nanos() / 1000.0),
                ];
                let mut speedups = Json::array();
                for n in [2usize, 4, 8, 16, 32] {
                    let cfg = ExpConfig::paper_default(n, BwSetting::X2);
                    let s = lab.speedup(w, &cfg);
                    row.push(format!("{s:.1}"));
                    let mut sp = Json::object();
                    sp.insert("gpms", n);
                    sp.insert("speedup", s);
                    speedups.push(sp);
                }
                let cfg32 = ExpConfig::paper_default(32, BwSetting::X2);
                let p32 = lab.point(w, &cfg32);
                let energy32 = lab.energy_ratio(w, &cfg32);
                let edpse32 = lab.edpse(w, &cfg32);
                let idle32 = p32.counts.idle_fraction();
                let hop_gb = p32.counts.inter_gpm_hop_bytes.count() as f64 / 1e9;
                let const_frac = p32.breakdown.fraction(EnergyComponent::ConstantOverhead);
                row.push(format!("{energy32:.2}"));
                row.push(format!("{edpse32:.0}"));
                row.push(format!("{idle32:.2}"));
                row.push(format!("{hop_gb:.2}"));
                row.push(format!("{const_frac:.2}"));
                t.row(row);

                let mut r = Json::object();
                r.insert("workload", w.name);
                r.insert("category", w.category.to_string().as_str());
                r.insert("baseline_kcycles", base.counts.elapsed.nanos() / 1000.0);
                r.insert("speedups", speedups);
                r.insert("energy_ratio_32", energy32);
                r.insert("edpse_pct_32", edpse32);
                r.insert("idle_fraction_32", idle32);
                r.insert("inter_gpm_hop_gb_32", hop_gb);
                r.insert("const_energy_fraction_32", const_frac);
                rows.push(r);
            }

            // On-board 1x-BW energy growth (Fig. 2 trajectory).
            let mut t2 = TextTable::new(["workload", "E2", "E4", "E8", "E16", "E32 (1x-BW board)"]);
            let mut onboard = Json::array();
            for w in suite {
                let mut row = vec![w.name.to_string()];
                let mut energies = Json::array();
                for n in [2usize, 4, 8, 16, 32] {
                    let cfg = ExpConfig::paper_default(n, BwSetting::X1);
                    let e = lab.energy_ratio(w, &cfg);
                    row.push(format!("{e:.2}"));
                    let mut ej = Json::object();
                    ej.insert("gpms", n);
                    ej.insert("energy_ratio", e);
                    energies.push(ej);
                }
                t2.row(row);
                let mut r = Json::object();
                r.insert("workload", w.name);
                r.insert("energies", energies);
                onboard.push(r);
            }

            let text = format!("{t}\n{t2}\n");
            let mut payload = Json::object();
            payload.insert("scaling", rows);
            payload.insert("onboard_energy", onboard);
            Ok(data(id, title, text, payload))
        }),
    }
}

// ---------------------------------------------------------------------------
// Workload characterization
// ---------------------------------------------------------------------------

fn workload_report_artifact() -> DynArtifact {
    let (id, title) = ("workload_report", "Per-workload simulator characterization");
    DynArtifact {
        id,
        title,
        composite: false,
        plan: Box::new(SweepPlan::none),
        eval: Box::new(move |lab, _suite| {
            let scale = lab.scale();
            let suite = workloads::suite();
            // One executor point per (workload, GPM count) simulation.
            let points: Vec<(WorkloadSpec, usize)> = suite
                .iter()
                .flat_map(|w| [(w.clone(), 1), (w.clone(), 8)])
                .collect();
            let runs = lab
                .map(points, move |(w, n)| {
                    let mut sim = GpuSim::new(&match scale {
                        Scale::Full => GpuConfig::paper(*n, BwSetting::X2, Topology::Ring),
                        Scale::Smoke => GpuConfig::tiny(*n),
                    });
                    let r = sim.run_workload(&w.launches(scale));
                    let memory = sim.memory();
                    (
                        r.total_counts(),
                        memory.utilization_report(r.total_cycles()),
                        memory.latency_stats(),
                    )
                })
                .map_err(failed_at(id, "simulation"))?;

            let mut t = TextTable::new([
                "workload",
                "cat",
                "instrs",
                "fp64 %",
                "B/instr",
                "L1 hit",
                "L2 hit",
                "dram util",
                "link max util (8-GPM)",
                "remote lat (8-GPM)",
            ]);
            let mut rows = Json::array();
            for (w, pair) in suite.iter().zip(runs.chunks(2)) {
                let (c, u1, _) = &pair[0];
                let (_, u8r, lat8) = &pair[1];

                let instrs = c.total_instructions();
                let fp64: u64 = c
                    .instrs
                    .iter()
                    .filter(|(op, _)| op.is_fp64())
                    .map(|(_, n)| n)
                    .sum();
                let dram_bytes =
                    c.txns.get(Transaction::DramToL2) * Transaction::DramToL2.bytes_per_txn();
                t.row([
                    w.name.to_string(),
                    w.category.to_string(),
                    format!("{:.1}M", instrs as f64 / 1e6),
                    format!("{:.0}", fp64 as f64 / instrs.max(1) as f64 * 100.0),
                    format!("{:.2}", dram_bytes as f64 / instrs.max(1) as f64),
                    format!("{:.2}", u1.l1_hit_rate),
                    format!("{:.2}", u1.l2_hit_rate),
                    format!("{:.2}", u1.dram),
                    format!("{:.2}", u8r.link_max),
                    format!("{:.0} cyc", lat8.mean_remote()),
                ]);

                let mut r = Json::object();
                r.insert("workload", w.name);
                r.insert("category", w.category.to_string().as_str());
                r.insert("instructions", instrs as f64);
                r.insert("fp64_pct", fp64 as f64 / instrs.max(1) as f64 * 100.0);
                r.insert(
                    "bytes_per_instruction",
                    dram_bytes as f64 / instrs.max(1) as f64,
                );
                r.insert("l1_hit_rate", u1.l1_hit_rate);
                r.insert("l2_hit_rate", u1.l2_hit_rate);
                r.insert("dram_utilization", u1.dram);
                r.insert("link_max_utilization_8gpm", u8r.link_max);
                r.insert("mean_remote_latency_cycles_8gpm", lat8.mean_remote());
                rows.push(r);
            }

            let mut text = format!("Workload characterization ({:?} scale):\n{t}\n", scale);
            let _ = writeln!(text, "Surrogate mapping:");
            let mut mapping = Json::array();
            for w in &suite {
                let _ = writeln!(
                    text,
                    "  {:<11} {}",
                    w.name,
                    w.description.replace('\n', " ")
                );
                let mut m = Json::object();
                m.insert("workload", w.name);
                m.insert("description", w.description.replace('\n', " ").as_str());
                mapping.push(m);
            }

            let mut payload = Json::object();
            payload.insert("rows", rows);
            payload.insert("mapping", mapping);
            Ok(data(id, title, text, payload))
        }),
    }
}

// ---------------------------------------------------------------------------
// Portability (§IV-B3 — fit two different virtual boards)
// ---------------------------------------------------------------------------

/// Reports how well `fitted` recovers `hw`'s planted truth. Returns the
/// rendered text plus the JSON row set.
fn portability_board(label: &str, hw: &VirtualK40, fitted: &FittedModel) -> (String, Json) {
    let truth = hw.truth();

    let mut t = TextTable::new(["operation", "fitted", "planted truth", "err %"]);
    let mut rows = Json::array();
    for op in [
        Opcode::FAdd32,
        Opcode::FFma32,
        Opcode::IMad32,
        Opcode::FAdd64,
        Opcode::FFma64,
        Opcode::FRcp32,
    ] {
        let got = fitted.epi.get(op).nanojoules();
        let want = truth.true_epi(op).nanojoules();
        t.row([
            op.mnemonic().to_string(),
            format!("{got:.4} nJ"),
            format!("{want:.4} nJ"),
            format!("{:+.1}", (got - want) / want * 100.0),
        ]);
        let mut r = Json::object();
        r.insert("operation", op.mnemonic());
        r.insert("fitted_nj", got);
        r.insert("planted_nj", want);
        r.insert("error_pct", (got - want) / want * 100.0);
        rows.push(r);
    }
    for txn in Transaction::ALL.iter().filter(|t| t.is_intra_gpm()) {
        let got = fitted.ept.get(*txn).nanojoules();
        let want = truth.true_ept(*txn).nanojoules();
        t.row([
            txn.label().to_string(),
            format!("{got:.3} nJ"),
            format!("{want:.3} nJ (+ floor share)"),
            format!("{:+.1}", (got - want) / want * 100.0),
        ]);
        let mut r = Json::object();
        r.insert("operation", txn.label());
        r.insert("fitted_nj", got);
        r.insert("planted_nj", want);
        r.insert("error_pct", (got - want) / want * 100.0);
        rows.push(r);
    }
    let text = format!(
        "{label}: idle fitted {} (planted {})\n{t}\n",
        fitted.const_power,
        truth.idle_power()
    );
    let mut board = Json::object();
    board.insert("board", label);
    board.insert("idle_fitted_watts", fitted.const_power.watts());
    board.insert("idle_planted_watts", truth.idle_power().watts());
    board.insert("rows", rows);
    (text, board)
}

fn portability_artifact() -> DynArtifact {
    let (id, title) = ("portability", "§IV-B3 portability: fit two virtual boards");
    DynArtifact {
        id,
        title,
        composite: false,
        plan: Box::new(SweepPlan::none),
        eval: Box::new(move |lab, _suite| {
            let fast = lab.scale() == Scale::Smoke;
            let target = if fast {
                Time::from_millis(300.0)
            } else {
                Time::from_millis(600.0)
            };
            let iterations = if fast { 500 } else { 1200 };

            // Board 1: the K40-class baseline.
            let k40 = VirtualK40::new();
            let k40_cfg = FitConfig {
                gpu: GpuConfig::single_gpm(),
                target_duration: target,
                compute_iterations: iterations,
                rounds: 3,
            };

            // Board 2: the Pascal-class part — same pipeline, different
            // silicon.
            let pascal = VirtualK40::new().with_truth(TruthModel::pascal_class());
            let mut gpu = GpuConfig::paper(1, BwSetting::X2, Topology::Ring);
            gpu.gpm = GpmConfig::pascal_class();
            gpu.inter_gpm_bw = BwSetting::X2.inter_gpm_bw(gpu.gpm.dram_bw);
            let pascal_cfg = FitConfig {
                gpu,
                target_duration: target,
                compute_iterations: iterations,
                rounds: 3,
            };

            // Each board is fitted once; the validation loop reuses it.
            let setups = [
                ("K40-class", k40, k40_cfg),
                ("Pascal-class", pascal, pascal_cfg),
            ];
            let mut text = String::new();
            let mut boards = Json::array();
            let mut fits = Vec::with_capacity(setups.len());
            for (label, hw, cfg) in &setups {
                let fitted = validation::fit_cached(lab, hw, cfg).map_err(failed_at(id, "fit"))?;
                let (t, b) = portability_board(&format!("{label} board"), hw, &fitted);
                text.push_str(&t);
                boards.push(b);
                fits.push(fitted);
            }

            // The fitted models validate on their own boards.
            let mut checks = Json::array();
            for ((label, hw, cfg), fitted) in setups.iter().zip(&fits) {
                let model = fitted.to_energy_model();
                let report = validation::validate_mixed(lab, hw, &model, &cfg.gpu, target)
                    .map_err(failed_at(id, "validation"))?;
                let _ = writeln!(
                    text,
                    "{label} mixed-instruction validation: mean |err| {:.1}% (paper band +2.5/-6%)",
                    report.mean_abs_error_percent()
                );
                let mut c = Json::object();
                c.insert("board", *label);
                c.insert("mean_abs_error_pct", report.mean_abs_error_percent());
                checks.push(c);
            }

            let mut payload = Json::object();
            payload.insert("boards", boards);
            payload.insert("validation", checks);
            Ok(data(id, title, text, payload))
        }),
    }
}

// ---------------------------------------------------------------------------
// Reproduction report + composite
// ---------------------------------------------------------------------------

fn repro_report_artifact(validation_on: bool) -> DynArtifact {
    let (id, title) = ("repro_report", "Self-checking reproduction verdicts");
    DynArtifact {
        id,
        title,
        composite: false,
        plan: Box::new(move || {
            let mut plan = SweepPlan::sweep(report::scaling_claims_plan());
            if validation_on {
                plan = plan.with_fit();
            }
            plan
        }),
        eval: Box::new(move |lab, suite| {
            let mut claims = report::evaluate_scaling_claims(lab, suite)?;
            if validation_on {
                claims.extend(report::evaluate_validation_claims(lab)?);
            }
            let passed = claims.iter().filter(|c| c.pass).count();
            let text = format!(
                "Reproduction verdicts:\n{}\n{passed}/{} claims PASS\n",
                report::render_claims(&claims),
                claims.len()
            );
            let mut payload = Json::object();
            payload.insert("validation_included", validation_on);
            match report::claims_to_json(&claims) {
                Json::Object(pairs) => {
                    for (k, v) in pairs {
                        payload.insert(k, v);
                    }
                }
                other => {
                    payload.insert("claims", other);
                }
            }
            Ok(data(id, title, text, payload))
        }),
    }
}

fn all_figures_artifact(validation_on: bool) -> DynArtifact {
    let (id, title) = ("all_figures", "Every scaling figure and point study");
    DynArtifact {
        id,
        title,
        composite: true,
        plan: Box::new(move || {
            let mut plan = SweepPlan::sweep(report::scaling_claims_plan());
            if validation_on {
                plan = plan.with_fit();
            }
            plan
        }),
        eval: Box::new(move |lab, suite| {
            let mut text = String::new();
            let mut sections = Json::object();

            let fig2 = Fig2::run(lab, suite)?;
            let _ = writeln!(
                text,
                "\n== Figure 2: on-board scaling energy (paper: ~2x at 32-GPM) =="
            );
            let _ = writeln!(text, "{}", fig2.render());
            sections.insert("fig2", fig2.to_json());

            let fig6 = Fig6::run(lab, suite)?;
            let _ = writeln!(
                text,
                "\n== Figure 6: EDPSE at 2x-BW (paper: 94% @2 -> 36% @32) =="
            );
            let _ = writeln!(text, "{}", fig6.render());
            sections.insert("fig6", fig6.to_json());

            let fig7 = Fig7::run(lab, suite)?;
            let _ = writeln!(
                text,
                "\n== Figure 7: per-step speedup + energy breakdown =="
            );
            let _ = writeln!(text, "{}", fig7.render());
            let _ = writeln!(
                text,
                "monolithic 16->32 step speedup: {:.2} (paper: 1.808)",
                fig7.monolithic_16_to_32
            );
            sections.insert("fig7", fig7.to_json());

            let fig8 = Fig8::run(lab, suite)?;
            let _ = writeln!(text, "\n== Figure 8: EDPSE vs bandwidth ==");
            let _ = writeln!(text, "{}", fig8.render());
            sections.insert("fig8", fig8.to_json());

            let fig9 = Fig9::run(lab, suite)?;
            let _ = writeln!(text, "\n== Figure 9: on-board ring vs switch ==");
            let _ = writeln!(text, "{}", fig9.render());
            sections.insert("fig9", fig9.to_json());

            let fig10 = Fig10::run(lab, suite)?;
            let _ = writeln!(text, "\n== Figure 10: speedup + energy across settings ==");
            let _ = writeln!(text, "{}", fig10.render());
            sections.insert("fig10", fig10.to_json());

            let ps = PointStudies::run(lab, suite)?;
            let _ = writeln!(text, "\n== Point studies ==");
            let _ = writeln!(text, "{}", ps.render());
            sections.insert("point_studies", ps.to_json());

            let h = Headline::run(lab, suite)?;
            let _ = writeln!(text, "\n== Headline ==");
            let _ = writeln!(text, "{}", h.render());
            sections.insert("headline", h.to_json());

            if validation_on {
                let fitted = validation::fit_model_cached(lab).map_err(failed_at(id, "fit"))?;
                let _ = writeln!(text, "\n== Table Ib ==");
                let _ = writeln!(text, "{}", validation::table1b(&fitted));
                sections.insert("table1b", validation::table1b_to_json(&fitted));
                let r4a = validation::fig4a_cached(lab).map_err(failed_at(id, "validation"))?;
                let _ = writeln!(text, "\n== Figure 4a ==");
                let _ = writeln!(text, "{}", validation::render_validation(&r4a));
                sections.insert("fig4a", validation::validation_to_json(&r4a));
                let r4b = validation::fig4b_cached(lab).map_err(failed_at(id, "validation"))?;
                let _ = writeln!(text, "\n== Figure 4b ==");
                let _ = writeln!(text, "{}", validation::render_validation(&r4b));
                sections.insert("fig4b", validation::validation_to_json(&r4b));
            }

            let mut payload = Json::object();
            payload.insert("validation_included", validation_on);
            payload.insert("sections", sections);
            Ok(data(id, title, text, payload))
        }),
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The ordered set of every artifact the workspace can reproduce.
pub struct ArtifactRegistry {
    artifacts: Vec<Box<dyn Artifact>>,
}

impl ArtifactRegistry {
    /// The standard registry: every paper figure, table, and study.
    pub fn standard(options: &RegistryOptions) -> Self {
        let artifacts: Vec<Box<dyn Artifact>> = vec![
            Box::new(fig2_artifact()),
            Box::new(fig6_artifact()),
            Box::new(fig7_artifact()),
            Box::new(fig8_artifact()),
            Box::new(fig9_artifact()),
            Box::new(fig10_artifact()),
            Box::new(point_studies_artifact()),
            Box::new(headline_artifact()),
            Box::new(tables_artifact()),
            Box::new(table1b_artifact()),
            Box::new(fig4a_artifact()),
            Box::new(fig4b_artifact()),
            Box::new(ablation_artifact()),
            Box::new(extensions_artifact()),
            Box::new(sensitivity_artifact()),
            Box::new(calibrate_artifact()),
            Box::new(workload_report_artifact()),
            Box::new(portability_artifact()),
            Box::new(repro_report_artifact(options.validation)),
            Box::new(all_figures_artifact(options.validation)),
        ];
        ArtifactRegistry { artifacts }
    }

    /// Iterates the artifacts in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Artifact> {
        self.artifacts.iter().map(|a| a.as_ref())
    }

    /// Looks an artifact up by id.
    pub fn get(&self, id: &str) -> Option<&dyn Artifact> {
        self.artifacts
            .iter()
            .find(|a| a.id() == id)
            .map(|a| a.as_ref())
    }

    /// All artifact ids, in registration order.
    pub fn ids(&self) -> Vec<&'static str> {
        self.artifacts.iter().map(|a| a.id()).collect()
    }

    /// The ids `run all` expands to: every non-composite artifact.
    pub fn all_ids(&self) -> Vec<&'static str> {
        self.artifacts
            .iter()
            .filter(|a| !a.composite())
            .map(|a| a.id())
            .collect()
    }

    /// Number of registered artifacts.
    pub fn len(&self) -> usize {
        self.artifacts.len()
    }

    /// Whether the registry is empty (never true for the standard one).
    pub fn is_empty(&self) -> bool {
        self.artifacts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_is_complete_and_unique() {
        let reg = ArtifactRegistry::standard(&RegistryOptions::default());
        let ids = reg.ids();
        for expected in [
            "fig2",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "point_studies",
            "headline",
            "tables",
            "table1b",
            "fig4a",
            "fig4b",
            "ablation",
            "extensions",
            "sensitivity",
            "calibrate",
            "workload_report",
            "portability",
            "repro_report",
            "all_figures",
        ] {
            assert!(ids.contains(&expected), "missing artifact {expected}");
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "duplicate artifact ids");
        // The composite wrapper is excluded from `run all`.
        assert!(!reg.all_ids().contains(&"all_figures"));
        assert_eq!(reg.all_ids().len(), reg.len() - 1);
    }

    #[test]
    fn plans_declare_the_expected_sweeps() {
        let reg = ArtifactRegistry::standard(&RegistryOptions::default());
        assert_eq!(reg.get("fig2").unwrap().plan().configs.len(), 5);
        assert!(!reg.get("fig2").unwrap().plan().needs_fit);
        assert!(reg.get("table1b").unwrap().plan().needs_fit);
        assert!(reg.get("table1b").unwrap().plan().configs.is_empty());
        assert!(reg.get("repro_report").unwrap().plan().needs_fit);
        assert!(!reg.get("repro_report").unwrap().plan().configs.is_empty());
        assert!(reg.get("tables").unwrap().plan().configs.is_empty());

        let no_val = ArtifactRegistry::standard(&RegistryOptions { validation: false });
        assert!(!no_val.get("repro_report").unwrap().plan().needs_fit);
    }

    #[test]
    fn tables_artifact_text_matches_historical_binary_shape() {
        let reg = ArtifactRegistry::standard(&RegistryOptions::default());
        let lab = Lab::new(Scale::Smoke);
        let suite = crate::figures::default_suite();
        let art = reg.get("tables").unwrap();
        let d = art.evaluate(&lab, &suite).unwrap();
        assert!(d
            .text
            .starts_with("Table III: simulated multi-module GPU configurations\n"));
        assert!(d.text.contains("Table IV: per-GPM I/O bandwidth settings"));
        assert_eq!(d.json.get("id").and_then(Json::as_str), Some("tables"));
        let t3 = d.json.get("table3").unwrap().as_array().unwrap();
        assert_eq!(t3.len(), 6);
        // Serialized payload survives the strict parser.
        assert!(Json::parse(&d.json.render_pretty()).is_ok());
    }
}
