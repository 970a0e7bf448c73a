//! `xp bench`: the simulator hot-path benchmark suite.
//!
//! Times [`sim::GpuSim::run_kernel`] on representative compute-, memory-,
//! and NoC-bound workloads at 1, 8, and 32 GPMs — each under the
//! event-driven loop and the naive per-cycle loop — and writes the
//! results as a machine-readable `BENCH_sim.json`: wall time per run,
//! simulated cycles per second, and the event-vs-naive speedup.
//!
//! Before any timing, every scenario is run once in both modes and the
//! simulated cycle counts are asserted equal.
//!
//! Regression gating is two-tiered, both against a recorded baseline
//! file (the committed `BENCH_sim.json` at the repository root):
//!
//! * **Speedup ratios** — how much the event-driven loop beats the naive
//!   loop on the same host. Raw seconds vary wildly across CI machines,
//!   but this ratio is stable. A scenario whose speedup falls more than
//!   10% below the baseline prints a warning; more than 25% fails.
//! * **Machine-calibrated absolute throughput** — simulated cycles per
//!   second. A direct comparison would gate the CI machine, not the
//!   code, so local numbers are first divided by a calibration factor:
//!   the median, across scenarios, of local naive cycles/sec over
//!   baseline naive cycles/sec. The naive loop is the stable yardstick —
//!   same code shape on both sides — so the factor captures how fast
//!   *this host* is relative to the host that recorded the baseline, and
//!   the calibrated event-loop throughput is then held to the same
//!   warn/fail drops. This is the gate that catches "everything got
//!   uniformly slower", which a pure ratio can never see.
//!
//! `--baseline-update` re-measures and rewrites the baseline file. The
//! recorded numbers are a *lower envelope* — the throughput floor the
//! repo has demonstrated — so the update refuses to overwrite a
//! scenario with lower numbers unless `--allow-regress` is given
//! (intended flow: regressions are either fixed, or consciously
//! accepted with the flag and explained in the commit).

use common::json::Json;
use common::{CtaId, WarpId};
use isa::{GridShape, KernelProgram, MemRef, Opcode, WarpInstr, WarpInstrStream};
use sim::{EngineMode, GpuConfig, GpuSim};
use std::path::PathBuf;
use std::time::Duration;

/// Options for `xp bench` (parsed by the CLI).
#[derive(Debug, Default)]
pub struct BenchOptions {
    /// Where to write the JSON report (default `BENCH_sim.json`).
    pub out: Option<PathBuf>,
    /// Recorded baseline to gate against (no baseline, no gate).
    pub baseline: Option<PathBuf>,
    /// Shorter measurement budgets (CI).
    pub quick: bool,
    /// Only run scenarios whose name contains this substring.
    pub filter: Option<String>,
    /// Rewrite the baseline file with the freshly measured numbers
    /// (refusing to lower the recorded envelope unless `allow_regress`).
    pub baseline_update: bool,
    /// With `baseline_update`: permit writing numbers below the
    /// recorded envelope.
    pub allow_regress: bool,
}

/// Speedup-ratio drop (vs baseline) that prints a warning.
const WARN_DROP: f64 = 0.10;
/// Speedup-ratio drop (vs baseline) that fails the run.
const FAIL_DROP: f64 = 0.25;
/// Baseline speedups below this are measurement noise around parity
/// (nothing for fast-forward to skip), so they are reported but not
/// gated — compute-bound kernels sit here by design.
const GATE_MIN_SPEEDUP: f64 = 1.5;

/// The workload flavor a scenario stresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// FMA-dense, latency-bound: little for fast-forward to skip.
    Compute,
    /// Streaming loads saturating DRAM: the fast-forward sweet spot.
    Memory,
    /// Remote reads crossing the inter-GPM network.
    Noc,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Compute => "compute",
            Kind::Memory => "memory",
            Kind::Noc => "noc",
        }
    }
}

/// FMA-dense kernel (compute-bound).
struct ComputeBound {
    ctas: u32,
    warps: u32,
    len: u32,
}

impl KernelProgram for ComputeBound {
    fn name(&self) -> &str {
        "bench-compute"
    }
    fn grid(&self) -> GridShape {
        GridShape::new(self.ctas, self.warps)
    }
    fn warp_instructions(&self, _cta: CtaId, _warp: WarpId) -> WarpInstrStream {
        Box::new((0..self.len).map(|_| WarpInstr::Compute(Opcode::FFma32)))
    }
    fn uniform_warp_program(&self) -> Option<Vec<WarpInstr>> {
        // Every warp runs the identical FMA sequence; let the engine
        // decode it once instead of once per warp.
        Some(vec![WarpInstr::Compute(Opcode::FFma32); self.len as usize])
    }
}

/// Private-stream kernel (memory-bound: every warp stalls on DRAM).
struct MemoryBound {
    ctas: u32,
    warps: u32,
    lines_per_warp: u32,
}

impl KernelProgram for MemoryBound {
    fn name(&self) -> &str {
        "bench-memory"
    }
    fn grid(&self) -> GridShape {
        GridShape::new(self.ctas, self.warps)
    }
    fn warp_instructions(&self, cta: CtaId, warp: WarpId) -> WarpInstrStream {
        let wpc = self.warps as u64;
        let stride = self.lines_per_warp as u64 * 128;
        let base = (cta.0 as u64 * wpc + warp.0 as u64) * stride;
        Box::new(
            (0..self.lines_per_warp as u64)
                .map(move |i| WarpInstr::Mem(MemRef::global_load(base + i * 128))),
        )
    }
    fn data_regions(&self) -> Vec<(u64, u64)> {
        // Declared so prefault places pages per CTA ownership in O(pages)
        // instead of walking the whole trace inside the timed loop.
        let total = self.ctas as u64 * self.warps as u64 * self.lines_per_warp as u64 * 128;
        vec![(0, total)]
    }
}

/// Shared-region scatter reads (NoC-bound: pages are spread across the
/// modules by the prefault pass, so most accesses are remote).
struct NocBound {
    ctas: u32,
    warps: u32,
    loads_per_warp: u32,
    region_lines: u64,
}

impl KernelProgram for NocBound {
    fn name(&self) -> &str {
        "bench-noc"
    }
    fn grid(&self) -> GridShape {
        GridShape::new(self.ctas, self.warps)
    }
    fn warp_instructions(&self, cta: CtaId, warp: WarpId) -> WarpInstrStream {
        let seed = cta.0 as u64 * self.warps as u64 + warp.0 as u64;
        let lines = self.region_lines;
        Box::new((0..self.loads_per_warp as u64).map(move |i| {
            let line = (seed.wrapping_mul(97) + i.wrapping_mul(131)) % lines;
            WarpInstr::Mem(MemRef::global_load(line * 128))
        }))
    }
    fn data_regions(&self) -> Vec<(u64, u64)> {
        vec![(0, self.region_lines * 128)]
    }
}

/// One (workload, GPM count) point of the suite.
struct Scenario {
    name: String,
    kind: Kind,
    gpms: usize,
}

impl Scenario {
    fn program(&self) -> Box<dyn KernelProgram> {
        let g = self.gpms as u32;
        match self.kind {
            Kind::Compute => Box::new(ComputeBound {
                ctas: g * 16,
                warps: 8,
                len: 96,
            }),
            Kind::Memory => Box::new(MemoryBound {
                ctas: g * 32,
                warps: 8,
                lines_per_warp: 8,
            }),
            Kind::Noc => Box::new(NocBound {
                ctas: g * 16,
                warps: 4,
                loads_per_warp: 32,
                region_lines: 8192,
            }),
        }
    }

    /// Paper-class modules (16 SMs per GPM sharing one HBM stack): the
    /// regime where bandwidth-bound kernels leave most SMs stalled —
    /// exactly what the §V sweeps simulate and what fast-forward exists
    /// to accelerate.
    fn config(&self) -> GpuConfig {
        let mut cfg = GpuConfig::paper(self.gpms, sim::BwSetting::X2, sim::Topology::Ring);
        if self.kind == Kind::Memory {
            // The paper's premise (§I) is that bandwidth scales slower
            // than compute: starve DRAM 4x so the suite includes the
            // deeply bandwidth-bound regime where nearly every SM sleeps
            // between DRAM drains — the state the §V sweeps live in.
            cfg.gpm.dram_bw = cfg.gpm.dram_bw * 0.25;
        }
        cfg
    }

    /// One full simulator run (fresh machine, prefault, one kernel);
    /// returns the simulated cycle count so the caller can report
    /// cycles-per-second.
    fn run(&self, mode: EngineMode) -> u64 {
        let cfg = self.config();
        let mut sim = GpuSim::with_mode(&cfg, mode);
        let program = self.program();
        if self.kind != Kind::Compute {
            sim.prefault(program.as_ref());
        }
        sim.run_kernel(program.as_ref()).cycles
    }
}

/// The full suite: compute/memory/noc × 1/8/32 GPMs.
fn suite() -> Vec<Scenario> {
    let mut s = Vec::new();
    for kind in [Kind::Compute, Kind::Memory, Kind::Noc] {
        for gpms in [1usize, 8, 32] {
            s.push(Scenario {
                name: format!("{}/{}gpm", kind.as_str(), gpms),
                kind,
                gpms,
            });
        }
    }
    s
}

/// One timed side (event-driven or naive) of a scenario.
struct Timing {
    iters: u64,
    total_secs: f64,
    mean_secs: f64,
    cycles_per_sec: f64,
}

fn time_mode(
    s: &Scenario,
    mode: EngineMode,
    warm: Duration,
    budget: Duration,
    cycles: u64,
) -> Timing {
    let m = criterion::measure(warm, budget, || criterion::black_box(s.run(mode)));
    Timing {
        iters: m.iters,
        total_secs: m.total_secs,
        mean_secs: m.mean_secs,
        cycles_per_sec: cycles as f64 / m.mean_secs,
    }
}

fn timing_json(t: &Timing) -> Json {
    let mut j = Json::object();
    j.insert("iters", t.iters);
    j.insert("total_secs", t.total_secs);
    j.insert("mean_secs", t.mean_secs);
    j.insert("cycles_per_sec", t.cycles_per_sec);
    j
}

fn format_secs(secs: f64) -> String {
    if secs < 1e-3 {
        format!("{:.1} us", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

/// One scenario of a recorded `BENCH_sim.json` baseline.
#[derive(Debug, Clone, PartialEq)]
struct BaselineEntry {
    name: String,
    speedup: f64,
    /// Absolute event-loop throughput, when the baseline records it
    /// (older files may predate the field).
    event_cps: Option<f64>,
    /// Absolute naive-loop throughput (the machine-calibration
    /// yardstick), when recorded.
    naive_cps: Option<f64>,
}

/// Baseline entries by scenario name, from a prior `BENCH_sim.json`.
fn load_baseline(path: &std::path::Path) -> Result<Vec<BaselineEntry>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("xp bench: cannot read baseline {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| {
        format!(
            "xp bench: baseline {} is not valid JSON: {e}",
            path.display()
        )
    })?;
    let scenarios = json
        .get("scenarios")
        .and_then(Json::as_array)
        .ok_or_else(|| {
            format!(
                "xp bench: baseline {} has no `scenarios` array",
                path.display()
            )
        })?;
    let mut out = Vec::new();
    for s in scenarios {
        let (Some(name), Some(speedup)) = (
            s.get("name").and_then(Json::as_str),
            s.get("speedup").and_then(Json::as_f64),
        ) else {
            return Err(format!(
                "xp bench: baseline {}: scenario missing name/speedup",
                path.display()
            ));
        };
        let cps = |side: &str| {
            s.get(side)
                .and_then(|t| t.get("cycles_per_sec"))
                .and_then(Json::as_f64)
        };
        out.push(BaselineEntry {
            name: name.to_string(),
            speedup,
            event_cps: cps("event"),
            naive_cps: cps("naive"),
        });
    }
    Ok(out)
}

/// The host-speed calibration factor: median over scenarios of local
/// naive throughput divided by baseline naive throughput. `None` when
/// no scenario has both sides (an old baseline without absolute
/// numbers, or disjoint scenario sets).
fn calibration_factor(baseline: &[BaselineEntry], measured: &[Measured]) -> Option<f64> {
    let mut ratios: Vec<f64> = measured
        .iter()
        .filter_map(|m| {
            let base = baseline.iter().find(|b| b.name == m.name)?;
            let b_naive = base.naive_cps?;
            (b_naive > 0.0).then_some(m.naive_cps / b_naive)
        })
        .collect();
    if ratios.is_empty() {
        return None;
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    Some(ratios[ratios.len() / 2])
}

/// Scenario names whose measured event throughput falls below the
/// recorded envelope (what `--baseline-update` refuses to overwrite
/// without `--allow-regress`).
fn envelope_regressions(baseline: &[BaselineEntry], measured: &[Measured]) -> Vec<String> {
    measured
        .iter()
        .filter(|m| {
            baseline
                .iter()
                .find(|b| b.name == m.name)
                .and_then(|b| b.event_cps)
                .is_some_and(|floor| m.event_cps < floor)
        })
        .map(|m| m.name.clone())
        .collect()
}

/// The measured numbers for one scenario, kept for post-table gating.
struct Measured {
    name: String,
    event_cps: f64,
    naive_cps: f64,
}

/// Entry point for `xp bench`. Returns the process exit code: 0 on
/// success (warnings allowed), 1 on a hard regression or IO failure.
pub fn run(opts: &BenchOptions) -> i32 {
    let (warm, budget) = if opts.quick {
        (Duration::from_millis(30), Duration::from_millis(200))
    } else {
        (Duration::from_millis(100), Duration::from_millis(600))
    };

    let baseline = match &opts.baseline {
        Some(path) => match load_baseline(path) {
            Ok(b) => Some(b),
            Err(msg) => {
                eprintln!("{msg}");
                return 1;
            }
        },
        None => None,
    };

    let scenarios: Vec<Scenario> = suite()
        .into_iter()
        .filter(|s| match &opts.filter {
            Some(pat) => s.name.contains(pat.as_str()),
            None => true,
        })
        .collect();
    if scenarios.is_empty() {
        eprintln!(
            "xp bench: no scenario matches filter {:?}",
            opts.filter.as_deref().unwrap_or("")
        );
        return 1;
    }

    println!(
        "{:<16} {:>12} {:>12} {:>9} {:>12}  vs baseline",
        "scenario", "event", "naive", "speedup", "Mcycles/s"
    );
    let mut rows = Json::array();
    let mut measured = Vec::new();
    let mut warnings = 0usize;
    let mut failures = 0usize;
    for s in &scenarios {
        // Correctness first: both loops must simulate the same cycles.
        let cycles = s.run(EngineMode::EventDriven);
        let naive_cycles = s.run(EngineMode::Naive);
        assert_eq!(
            cycles, naive_cycles,
            "{}: event-driven and naive loops disagree on simulated cycles",
            s.name
        );

        let event = time_mode(s, EngineMode::EventDriven, warm, budget, cycles);
        let naive = time_mode(s, EngineMode::Naive, warm, budget, cycles);
        let speedup = naive.mean_secs / event.mean_secs;

        let verdict = match baseline
            .as_ref()
            .and_then(|b| b.iter().find(|e| e.name == s.name))
        {
            Some(entry) if entry.speedup >= GATE_MIN_SPEEDUP => {
                let base = entry.speedup;
                let drop = 1.0 - speedup / base;
                if drop > FAIL_DROP {
                    failures += 1;
                    format!("FAIL ({speedup:.2}x vs {base:.2}x, -{:.0}%)", drop * 100.0)
                } else if drop > WARN_DROP {
                    warnings += 1;
                    format!("warn ({speedup:.2}x vs {base:.2}x, -{:.0}%)", drop * 100.0)
                } else {
                    format!("ok ({base:.2}x recorded)")
                }
            }
            Some(entry) => format!("parity ({:.2}x recorded; not gated)", entry.speedup),
            None if baseline.is_some() => "not in baseline".to_string(),
            None => "-".to_string(),
        };

        println!(
            "{:<16} {:>12} {:>12} {:>8.2}x {:>12.1}  {verdict}",
            s.name,
            format_secs(event.mean_secs),
            format_secs(naive.mean_secs),
            speedup,
            event.cycles_per_sec / 1e6,
        );

        let mut row = Json::object();
        row.insert("name", s.name.as_str());
        row.insert("kind", s.kind.as_str());
        row.insert("gpms", s.gpms);
        row.insert("cycles", cycles);
        row.insert("event", timing_json(&event));
        row.insert("naive", timing_json(&naive));
        row.insert("speedup", speedup);
        rows.push(row);
        measured.push(Measured {
            name: s.name.clone(),
            event_cps: event.cycles_per_sec,
            naive_cps: naive.cycles_per_sec,
        });
    }

    // Machine-calibrated absolute throughput gate: normalize this
    // host's event-loop throughput by how its naive loop compares to
    // the baseline host's, then hold it to the same drop thresholds.
    if let Some(b) = &baseline {
        if let Some(calib) = calibration_factor(b, &measured) {
            println!("host calibration: {calib:.2}x the baseline machine (naive-loop median)");
            for m in &measured {
                let Some(base_cps) = b
                    .iter()
                    .find(|e| e.name == m.name)
                    .and_then(|e| e.event_cps)
                else {
                    continue;
                };
                let calibrated = m.event_cps / calib;
                let drop = 1.0 - calibrated / base_cps;
                if drop > FAIL_DROP {
                    failures += 1;
                    println!(
                        "{:<16} FAIL absolute: {:.0} calibrated cycles/s vs {:.0} recorded (-{:.0}%)",
                        m.name,
                        calibrated,
                        base_cps,
                        drop * 100.0
                    );
                } else if drop > WARN_DROP {
                    warnings += 1;
                    println!(
                        "{:<16} warn absolute: {:.0} calibrated cycles/s vs {:.0} recorded (-{:.0}%)",
                        m.name,
                        calibrated,
                        base_cps,
                        drop * 100.0
                    );
                }
            }
        } else {
            println!("host calibration unavailable (baseline lacks absolute throughput)");
        }
    }

    let mut report = Json::object();
    report.insert("schema_version", 1usize);
    report.insert("suite", "sim_hotpath");
    report.insert("quick", opts.quick);
    report.insert("warn_drop", WARN_DROP);
    report.insert("fail_drop", FAIL_DROP);
    report.insert("gate_min_speedup", GATE_MIN_SPEEDUP);
    report.insert("scenarios", rows);

    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCH_sim.json"));
    if opts.baseline_update {
        // The recorded baseline is a lower envelope: refuse to replace
        // it with worse numbers unless the regression is explicitly
        // accepted.
        // A missing or unreadable existing report means there is no envelope
        // to protect.
        let envelope = load_baseline(&out).unwrap_or_default();
        let regressed = envelope_regressions(&envelope, &measured);
        if !regressed.is_empty() && !opts.allow_regress {
            eprintln!(
                "xp bench: refusing to lower the recorded envelope in {} for: {} \
                 (pass --allow-regress to accept the regression)",
                out.display(),
                regressed.join(", ")
            );
            return 1;
        }
        if !regressed.is_empty() {
            eprintln!(
                "xp bench: --allow-regress: lowering the envelope for {}",
                regressed.join(", ")
            );
        }
    }
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("xp bench: cannot create {}: {e}", dir.display());
            return 1;
        }
    }
    if let Err(e) = std::fs::write(&out, format!("{}\n", report.render_pretty())) {
        eprintln!("xp bench: cannot write {}: {e}", out.display());
        return 1;
    }
    eprintln!("wrote {}", out.display());

    if failures > 0 {
        eprintln!(
            "xp bench: {failures} scenario(s) regressed more than {:.0}% vs baseline",
            FAIL_DROP * 100.0
        );
        return 1;
    }
    if warnings > 0 {
        eprintln!(
            "xp bench: {warnings} scenario(s) slipped more than {:.0}% vs baseline (soft warning)",
            WARN_DROP * 100.0
        );
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_three_kinds_at_three_scales() {
        let s = suite();
        assert_eq!(s.len(), 9);
        for kind in ["compute", "memory", "noc"] {
            for gpms in [1, 8, 32] {
                assert!(s.iter().any(|x| x.name == format!("{kind}/{gpms}gpm")));
            }
        }
    }

    #[test]
    fn scenarios_simulate_identically_in_both_modes() {
        // The smallest point of each kind; the larger points are the same
        // kernels scaled up (and the full matrix runs in `xp bench`).
        for s in suite().into_iter().filter(|s| s.gpms == 1) {
            assert_eq!(
                s.run(EngineMode::EventDriven),
                s.run(EngineMode::Naive),
                "{} diverged",
                s.name
            );
        }
    }

    #[test]
    fn baseline_parsing_rejects_malformed_files() {
        let dir = std::env::temp_dir().join("xp-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.json");
        std::fs::write(
            &good,
            r#"{"scenarios": [{"name": "memory/8gpm", "speedup": 3.5}]}"#,
        )
        .unwrap();
        assert_eq!(
            load_baseline(&good).unwrap(),
            vec![BaselineEntry {
                name: "memory/8gpm".to_string(),
                speedup: 3.5,
                event_cps: None,
                naive_cps: None,
            }]
        );

        let bad = dir.join("bad.json");
        std::fs::write(&bad, r#"{"scenarios": [{"name": "x"}]}"#).unwrap();
        assert!(load_baseline(&bad).is_err());
        assert!(load_baseline(&dir.join("missing.json")).is_err());
    }

    #[test]
    fn baseline_parsing_reads_absolute_throughput() {
        let dir = std::env::temp_dir().join("xp-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("abs.json");
        std::fs::write(
            &p,
            r#"{"scenarios": [{"name": "noc/1gpm", "speedup": 2.0,
                "event": {"cycles_per_sec": 50000.0},
                "naive": {"cycles_per_sec": 25000.0}}]}"#,
        )
        .unwrap();
        let b = load_baseline(&p).unwrap();
        assert_eq!(b[0].event_cps, Some(50000.0));
        assert_eq!(b[0].naive_cps, Some(25000.0));
    }

    fn entry(name: &str, event: f64, naive: f64) -> BaselineEntry {
        BaselineEntry {
            name: name.to_string(),
            speedup: event / naive,
            event_cps: Some(event),
            naive_cps: Some(naive),
        }
    }

    fn m(name: &str, event: f64, naive: f64) -> Measured {
        Measured {
            name: name.to_string(),
            event_cps: event,
            naive_cps: naive,
        }
    }

    #[test]
    fn calibration_factor_is_the_median_naive_ratio() {
        let base = vec![
            entry("a", 100.0, 100.0),
            entry("b", 100.0, 100.0),
            entry("c", 100.0, 100.0),
        ];
        // A 2x-faster host with one outlier scenario: the median ignores
        // the outlier.
        let local = vec![
            m("a", 150.0, 200.0),
            m("b", 150.0, 200.0),
            m("c", 150.0, 800.0),
        ];
        assert_eq!(calibration_factor(&base, &local), Some(2.0));
        // No overlap or no absolute numbers: no calibration.
        assert_eq!(calibration_factor(&base, &[m("zzz", 1.0, 1.0)]), None);
        let old = vec![BaselineEntry {
            name: "a".into(),
            speedup: 1.0,
            event_cps: None,
            naive_cps: None,
        }];
        assert_eq!(calibration_factor(&old, &local), None);
    }

    #[test]
    fn envelope_regressions_flag_only_lowered_scenarios() {
        let base = vec![entry("a", 100.0, 50.0), entry("b", 100.0, 50.0)];
        let local = vec![m("a", 99.0, 50.0), m("b", 101.0, 50.0), m("new", 1.0, 1.0)];
        assert_eq!(envelope_regressions(&base, &local), vec!["a".to_string()]);
        // Equal-or-better everywhere: nothing to refuse.
        let better = vec![m("a", 100.0, 50.0), m("b", 120.0, 50.0)];
        assert!(envelope_regressions(&base, &better).is_empty());
        // An empty or absolute-free envelope never blocks.
        assert!(envelope_regressions(&[], &local).is_empty());
    }
}
