//! The self-checking reproduction report: every qualitative claim the
//! paper's evaluation makes, re-evaluated against this repository's
//! measurements with explicit tolerance bands.
//!
//! `cargo run --release -p xp --bin repro_report` prints one PASS/FAIL
//! row per claim; the same checks back the (slow, `--ignored`) full-scale
//! integration test.

use crate::artifact::{failed_at, ArtifactError, ArtifactErrorKind};
use crate::figures::{Fig10, Fig2, Fig6, Fig7, Fig8, Fig9, Headline, PointStudies};
use crate::lab::Lab;
use common::json::Json;
use common::table::TextTable;
use gpujoule::EnergyComponent;
use sim::BwSetting;
use workloads::WorkloadSpec;

/// One checked claim.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Short identifier ("F6.decline", ...).
    pub id: &'static str,
    /// What the paper asserts.
    pub description: &'static str,
    /// The paper's figure for the claim.
    pub paper: String,
    /// What this reproduction measured.
    pub measured: String,
    /// Whether the measurement satisfies the claim's tolerance band.
    pub pass: bool,
}

/// Evaluates every scaling claim (Figs. 2, 6–10, point studies, headline)
/// on the given workload suite. Validation claims (Table Ib, Fig. 4) are
/// separate because they need the fitting pipeline — see
/// [`crate::validation`].
pub fn evaluate_scaling_claims(
    lab: &Lab,
    suite: &[WorkloadSpec],
) -> Result<Vec<Claim>, ArtifactError> {
    let mut claims = Vec::new();

    // --- Figure 2 ---------------------------------------------------------
    let fig2 = Fig2::run(lab, suite)?;
    let monotone = fig2.points.windows(2).all(|w| w[1].1 >= w[0].1 - 0.02);
    let e32 = fig2.points.last().map(|p| p.1).unwrap_or(0.0);
    claims.push(Claim {
        id: "F2.growth",
        description: "on-board energy grows monotonically with GPM count",
        paper: "monotone, ~2x at 32".into(),
        measured: format!("monotone={monotone}, {e32:.2}x at 32"),
        pass: monotone && e32 >= 1.5,
    });

    // --- Figure 6 ---------------------------------------------------------
    let fig6 = Fig6::run(lab, suite)?;
    let all2 = fig6.all_at(2).unwrap_or(0.0);
    let all32 = fig6.all_at(32).unwrap_or(0.0);
    claims.push(Claim {
        id: "F6.decline",
        description: "EDPSE collapses by 32 GPMs (paper 94% -> 36%)",
        paper: "94 -> 36".into(),
        measured: format!("{all2:.1} -> {all32:.1}"),
        pass: all2 >= 85.0 && (20.0..=50.0).contains(&all32),
    });
    let compute_wins = fig6.rows.iter().filter(|r| r.0 >= 16).all(|r| r.1 > r.2);
    claims.push(Claim {
        id: "F6.categories",
        description: "compute-intensive apps out-scale memory-intensive ones",
        paper: "compute > memory at high counts".into(),
        measured: format!("holds at 16 & 32: {compute_wins}"),
        pass: compute_wins,
    });

    // --- Figure 7 ---------------------------------------------------------
    let fig7 = Fig7::run(lab, suite)?;
    let last = fig7.steps.last().ok_or_else(|| {
        ArtifactError::new("repro_report", "fig7 steps", ArtifactErrorKind::EmptyMean)
    })?;
    let constant_dominates = last.components_pct.iter().all(|&(c, v)| {
        c == EnergyComponent::ConstantOverhead
            || v <= last
                .components_pct
                .iter()
                .find(|&&(cc, _)| cc == EnergyComponent::ConstantOverhead)
                .map(|&(_, v)| v)
                .unwrap_or(0.0)
    });
    claims.push(Claim {
        id: "F7.constant",
        description: "constant energy overhead dominates the 16->32 energy increase",
        paper: "dominant component".into(),
        measured: format!(
            "constant {:+.1}pp of {:+.1}% total",
            last.components_pct
                .iter()
                .find(|&&(c, _)| c == EnergyComponent::ConstantOverhead)
                .map(|&(_, v)| v)
                .unwrap_or(0.0),
            last.energy_increase_pct
        ),
        pass: constant_dominates && last.energy_increase_pct > 0.0,
    });
    let inter_small = last
        .components_pct
        .iter()
        .find(|&&(c, _)| c == EnergyComponent::InterModule)
        .map(|&(_, v)| v)
        .unwrap_or(0.0);
    claims.push(Claim {
        id: "F7.inter",
        description: "inter-module transfer energy is a minor component",
        paper: "'relatively low'".into(),
        measured: format!("{inter_small:+.2}pp at 16->32"),
        pass: inter_small.abs() < 3.0,
    });
    let ring_last = fig7.step_speedup(32).unwrap_or(0.0);
    claims.push(Claim {
        id: "F7.monolithic",
        description: "a monolithic GPU keeps scaling where the NUMA ring stops",
        paper: "1.808 vs 1.47".into(),
        measured: format!("{:.2} vs {:.2}", fig7.monolithic_16_to_32, ring_last),
        pass: fig7.monolithic_16_to_32 > ring_last,
    });

    // --- Figure 8 ---------------------------------------------------------
    let fig8 = Fig8::run(lab, suite)?;
    let x1 = fig8.at(BwSetting::X1, 32).unwrap_or(0.0);
    let x4 = fig8.at(BwSetting::X4, 32).unwrap_or(0.0);
    claims.push(Claim {
        id: "F8.bandwidth",
        description: "4x inter-GPM bandwidth multiplies 32-GPM EDPSE ~3x",
        paper: "~3x".into(),
        measured: format!("{:.1}x ({x1:.1} -> {x4:.1})", x4 / x1.max(1e-9)),
        pass: x4 >= 2.0 * x1,
    });

    // --- Figure 9 ---------------------------------------------------------
    let fig9 = Fig9::run(lab, suite)?;
    let ring = fig9.at("Ring (1x-BW)", 32).unwrap_or(0.0);
    let switch = fig9.at("Switch (1x-BW)", 32).unwrap_or(0.0);
    claims.push(Claim {
        id: "F9.switch",
        description: "a high-radix switch ~doubles 32-GPM EDPSE at equal link BW",
        paper: "~2x".into(),
        measured: format!("{:.1}x ({ring:.1} -> {switch:.1})", switch / ring.max(1e-9)),
        pass: switch >= 1.5 * ring,
    });

    // --- Figure 10 --------------------------------------------------------
    let fig10 = Fig10::run(lab, suite)?;
    let (s16, e16) = fig10.at(16, BwSetting::X2).unwrap_or((0.0, f64::MAX));
    let (s32, e32b) = fig10.at(32, BwSetting::X1).unwrap_or((f64::MAX, 0.0));
    claims.push(Claim {
        id: "F10.crossover",
        description: "16-GPM @2x-BW beats 32-GPM @1x-BW at a fraction of the energy",
        paper: "outperforms at ~half the energy".into(),
        measured: format!("{s16:.1}x@{e16:.2} vs {s32:.1}x@{e32b:.2}"),
        pass: s16 > s32 && e16 < e32b,
    });

    // --- Point studies ----------------------------------------------------
    let ps = PointStudies::run(lab, suite)?;
    let (base, quad) = (
        ps.link_energy_edpse.first().map(|&(_, e)| e).unwrap_or(0.0),
        ps.link_energy_edpse.last().map(|&(_, e)| e).unwrap_or(0.0),
    );
    let rel = (base - quad).abs() / base.max(1e-9);
    claims.push(Claim {
        id: "P.link-energy",
        description: "4x link energy barely moves EDPSE",
        paper: "<1%".into(),
        measured: format!("{:.1}% relative", rel * 100.0),
        pass: rel < 0.05,
    });
    let (slow_cheap, fast_hot) = ps.energy_for_bandwidth_edpse;
    claims.push(Claim {
        id: "P.energy-for-bw",
        description: "spending 4x link energy for 2x bandwidth raises EDPSE",
        paper: "+8.8%".into(),
        measured: format!("{slow_cheap:.1} -> {fast_hot:.1}"),
        pass: fast_hot > slow_cheap,
    });
    if let Some(&(_, save50, gain50)) = ps.amortization.iter().find(|&&(f, _, _)| f == 0.5) {
        claims.push(Claim {
            id: "P.amortization",
            description: "50% constant-energy amortization saves ~22% energy, ~+8pp EDPSE",
            paper: "-22.3% / +8.1pp".into(),
            measured: format!("-{save50:.1}% / {gain50:+.1}pp"),
            pass: (10.0..=40.0).contains(&save50) && gain50 > 3.0,
        });
    }
    claims.push(Claim {
        id: "P.reduction",
        description: "1x->4x BW then on-package amortization slashes 32-GPM energy",
        paper: "-27.4% then -45%".into(),
        measured: format!(
            "-{:.1}% then -{:.1}%",
            ps.energy_reduction_bw_only_pct, ps.energy_reduction_package_pct
        ),
        pass: ps.energy_reduction_bw_only_pct > 10.0
            && ps.energy_reduction_package_pct > ps.energy_reduction_bw_only_pct,
    });

    // --- Headline -----------------------------------------------------------
    let h = Headline::run(lab, suite)?;
    claims.push(Claim {
        id: "H.optimized",
        description: "the optimized 32-GPM design approaches 1-GPM energy at >10x speedup",
        paper: "~1.1x energy, ~18x speedup".into(),
        measured: format!(
            "{:.2}x energy, {:.1}x speedup",
            h.optimized_energy_ratio, h.optimized_speedup
        ),
        pass: h.optimized_energy_ratio < 1.5 && h.optimized_speedup > 8.0,
    });
    claims.push(Claim {
        id: "H.naive",
        description: "naive scaling is on track for a ~2x energy penalty",
        paper: ">2x".into(),
        measured: format!("{:.2}x", h.naive_energy_ratio),
        pass: h.naive_energy_ratio > 1.7,
    });

    Ok(claims)
}

/// Every configuration the scaling claims simulate — the union of the
/// individual figure plans, for the artifact registry's batch prime.
pub fn scaling_claims_plan() -> Vec<crate::configs::ExpConfig> {
    let mut cfgs = Fig2::plan_configs();
    cfgs.extend(Fig6::plan_configs());
    cfgs.extend(Fig7::plan_configs());
    cfgs.extend(Fig8::plan_configs());
    cfgs.extend(Fig9::plan_configs());
    cfgs.extend(Fig10::plan_configs());
    cfgs.extend(PointStudies::plan_configs());
    cfgs.extend(Headline::plan_configs());
    cfgs
}

/// Evaluates the §IV validation claims (Table Ib recovery, Fig. 4a band,
/// Fig. 4b error structure) from the standard board's cached fit and the
/// memoized Fig. 4a/4b reports, so after the `table1b`, `fig4a` and
/// `fig4b` artifacts this runs nothing new.
pub fn evaluate_validation_claims(lab: &Lab) -> Result<Vec<Claim>, ArtifactError> {
    use gpujoule::{EpiTable, EptTable};
    const ID: &str = "repro_report";

    let fitted = crate::validation::fit_model_cached(lab).map_err(failed_at(ID, "fit"))?;
    let mut claims = Vec::new();

    let epi_err = fitted.epi.max_relative_error(&EpiTable::k40());
    let ept_err = fitted.ept.max_relative_error(&EptTable::k40());
    claims.push(Claim {
        id: "T1b.recovery",
        description: "fitting through the sensor recovers Table Ib",
        paper: "accurate within 10%".into(),
        measured: format!(
            "max EPI err {:.1}%, max EPT err {:.1}%",
            epi_err * 100.0,
            ept_err * 100.0
        ),
        pass: epi_err < 0.10 && ept_err < 0.10,
    });

    let fig4a = crate::validation::fig4a_cached(lab).map_err(failed_at(ID, "validation"))?;
    let in_band = fig4a
        .items()
        .iter()
        .all(|i| i.error_percent() < 5.0 && i.error_percent() > -9.0);
    claims.push(Claim {
        id: "F4a.band",
        description: "mixed microbenchmarks validate within the Fig. 4a band",
        paper: "+2.5% .. -6%".into(),
        measured: format!(
            "all in band: {in_band} (mean |err| {:.1}%)",
            fig4a.mean_abs_error_percent()
        ),
        pass: in_band,
    });

    let fig4b = crate::validation::fig4b_cached(lab).map_err(failed_at(ID, "validation"))?;
    let mae = fig4b.mean_abs_error_percent();
    let outliers: Vec<String> = fig4b
        .outliers(30.0)
        .iter()
        .map(|i| i.name.clone())
        .collect();
    let expected = ["RSBench", "CoMD", "BFS", "MiniAMR"];
    let outliers_ok =
        outliers.len() >= 3 && outliers.iter().all(|o| expected.contains(&o.as_str()));
    claims.push(Claim {
        id: "F4b.errors",
        description: "application validation matches the paper's error structure",
        paper: "9.4% MAE; outliers RSBench/CoMD/BFS/MiniAMR".into(),
        measured: format!("{mae:.1}% MAE; outliers {}", outliers.join("/")),
        pass: (5.0..=16.0).contains(&mae) && outliers_ok,
    });

    Ok(claims)
}

/// The JSON form of a claim list: one object per claim plus a summary.
pub fn claims_to_json(claims: &[Claim]) -> Json {
    let mut rows = Json::array();
    for c in claims {
        let mut o = Json::object();
        o.insert("id", c.id);
        o.insert("description", c.description);
        o.insert("paper", c.paper.as_str());
        o.insert("measured", c.measured.as_str());
        o.insert("pass", c.pass);
        rows.push(o);
    }
    let mut summary = Json::object();
    summary.insert("passed", claims.iter().filter(|c| c.pass).count());
    summary.insert("total", claims.len());
    let mut o = Json::object();
    o.insert("claims", rows);
    o.insert("summary", summary);
    o
}

/// Renders claims as a verdict table.
pub fn render_claims(claims: &[Claim]) -> TextTable {
    let mut t = TextTable::new(["claim", "paper", "measured", "verdict"]);
    for c in claims {
        t.row([
            format!("{} — {}", c.id, c.description),
            c.paper.clone(),
            c.measured.clone(),
            if c.pass {
                "PASS".to_string()
            } else {
                "FAIL".to_string()
            },
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{by_name, Scale};

    #[test]
    fn smoke_claims_mostly_pass() {
        // At smoke scale the magnitudes drift but the directional claims
        // must survive; require a clear majority and no crash.
        let lab = Lab::new(Scale::Smoke);
        let suite: Vec<WorkloadSpec> = ["Hotspot", "CoMD", "Stream", "Nekbone-12", "Kmeans"]
            .iter()
            .map(|n| by_name(n).unwrap())
            .collect();
        let claims = evaluate_scaling_claims(&lab, &suite).unwrap();
        assert!(claims.len() >= 12);
        let passed = claims.iter().filter(|c| c.pass).count();
        assert!(
            passed * 3 >= claims.len() * 2,
            "only {passed}/{} claims pass at smoke scale: {:?}",
            claims.len(),
            claims
                .iter()
                .filter(|c| !c.pass)
                .map(|c| c.id)
                .collect::<Vec<_>>()
        );
        assert!(render_claims(&claims).render().contains("PASS"));
    }
}
