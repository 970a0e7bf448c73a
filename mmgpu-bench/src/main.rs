//! `mmgpu-bench`: runs the benchmark workloads and prints their metrics.
//!
//! ```text
//! mmgpu-bench run   --workload NAME|all [--seed N] [--seconds S] [--runs K]
//!                   [--trace 0|1] [--out FILE] [--quick]
//! mmgpu-bench trace --workload NAME|all [--seed N] --out DIR [--seconds S] [--quick]
//! mmgpu-bench golden --out DIR
//! ```
//!
//! `run` prints `workload metric value unit` lines and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`, holding the
//! end-to-end metrics, or with `--trace 1` the per-layer ones. It exits
//! non-zero when any output differs from its golden digest.

use common::json::Json;
use mmgpu_bench::golden::{self, Golden};
use mmgpu_bench::layers::{analyse, layers_json, per_layer, Analysis};
use mmgpu_bench::procs::{Scratch, THREADS};
use mmgpu_bench::report::{end_to_end, Metric, RunResult};
use mmgpu_bench::stats::{median, quartiles, tail};
use mmgpu_bench::workloads::{measure, Env, Measurement, Workload};
use std::path::{Path, PathBuf};

/// Seconds each measurement repeats its unit for, unless `--seconds`.
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "usage: mmgpu-bench run --workload NAME|all [--seed N] [--seconds S] [--runs K] [--trace 0|1] [--out FILE] [--quick]
       mmgpu-bench trace --workload NAME|all [--seed N] --out DIR [--seconds S] [--quick]
       mmgpu-bench golden --out DIR
workloads: repro-smoke, sweep-full, serve-warm, serve-whatif";

#[derive(Debug)]
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    runs: usize,
    trace: bool,
    out: Option<PathBuf>,
    quick: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        runs: 1,
        trace: false,
        out: None,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg}: missing value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                o.workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?]
                };
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                o.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds expects a positive number")?
            }
            "--runs" => {
                o.runs = value()?
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or("--runs expects a positive integer")?
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_string()),
                }
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--quick" => o.quick = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    if o.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(o)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.split_first() {
        Some((cmd, rest)) if cmd == "child" => mmgpu_bench::child::main(rest),
        Some((cmd, rest)) if cmd == "run" || cmd == "trace" || cmd == "golden" => {
            match dispatch(cmd, rest) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("mmgpu-bench: {e}");
                    1
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn dispatch(cmd: &str, args: &[String]) -> Result<i32, String> {
    let scratch = Scratch::create()?;
    if cmd == "golden" {
        let out = match args {
            [flag, dir] if flag == "--out" => PathBuf::from(dir),
            _ => return Err(format!("golden: expected --out DIR\n{USAGE}")),
        };
        golden::regenerate(&out, &scratch)?;
        eprintln!("wrote golden tables to {}", out.display());
        return Ok(0);
    }
    let opts = parse(args).map_err(|e| format!("{e}\n{USAGE}"))?;
    let golden = Golden::embedded();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = Env {
        golden: &golden,
        scratch: &scratch,
        seed: opts.seed,
        seconds: opts.seconds,
        quick: opts.quick,
        clients: THREADS.min(nproc),
    };
    if cmd == "trace" {
        let dir = opts.out.clone().ok_or("trace: --out DIR is required")?;
        return trace(&opts, &env, &dir);
    }
    let git_rev = git_rev();
    let mut results = Vec::new();
    for &workload in &opts.workloads {
        let runs = (0..opts.runs)
            .map(|_| run_once(workload, &env, opts.trace))
            .collect::<Result<Vec<Run>, String>>()?;
        results.push(combine(workload, &opts, nproc, &git_rev, &runs));
    }
    if let Some(out) = &opts.out {
        let body = match results.as_slice() {
            [one] => one.to_json().render_pretty(),
            many => Json::Array(many.iter().map(RunResult::to_json).collect()).render_pretty(),
        };
        std::fs::write(out, format!("{body}\n"))
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    }
    let summary = match results.as_slice() {
        [one] => one.clone(),
        many => merged(many),
    };
    println!("{}", summary.summary_line());
    Ok(if summary.correct() { 0 } else { 1 })
}

/// One measurement of a workload, plus with tracing one traced unit.
struct Run {
    /// End-to-end metrics, or per-layer ones when traced.
    metrics: Vec<Metric>,
    untraced: Measurement,
    traced: Measurement,
    analysis: Option<Analysis>,
}

/// Measures `workload`; with `traced`, also runs one traced unit and
/// reports per-layer metrics instead. Prints the metrics and failures.
fn run_once(workload: Workload, env: &Env, traced: bool) -> Result<Run, String> {
    let untraced = measure(workload, env, false)?;
    let (metrics, traced, analysis) = if traced {
        let t = measure(workload, env, true)?;
        let a = analyse(t.trace.as_ref().ok_or("traced unit left no trace")?);
        (per_layer(workload, &a, &t, &untraced), t, Some(a))
    } else {
        (end_to_end(&untraced), Measurement::default(), None)
    };
    for metric in &metrics {
        println!(
            "{} {} {} {}",
            workload.name(),
            metric.name,
            metric.value,
            metric.unit
        );
    }
    for p in untraced.problems.iter().chain(&traced.problems) {
        eprintln!("mmgpu-bench: {}: {p}", workload.name());
    }
    Ok(Run {
        metrics,
        untraced,
        traced,
        analysis,
    })
}

/// One result from `runs` repetitions: metric medians, summed op counts.
/// With two or more runs, each metric's quartiles go to stderr.
fn combine(
    workload: Workload,
    opts: &Options,
    nproc: usize,
    git_rev: &Option<String>,
    runs: &[Run],
) -> RunResult {
    let metrics = runs[0]
        .metrics
        .iter()
        .enumerate()
        .map(|(i, first)| {
            let values: Vec<f64> = runs.iter().map(|r| r.metrics[i].value).collect();
            let mid = median(&values).unwrap_or(0.0);
            if let Some((q1, q3)) = quartiles(&values) {
                eprintln!(
                    "{} {}: median {mid} q1 {q1} q3 {q3} over {} runs",
                    workload.name(),
                    first.name,
                    runs.len()
                );
            }
            Metric::new(&first.name, mid, &first.unit)
        })
        .collect();
    let latencies: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.untraced.latencies_ms.iter().copied())
        .collect();
    let t = tail(&latencies);
    RunResult {
        workload: workload.name().to_string(),
        seed: opts.seed,
        seeded: workload != Workload::ReproSmoke,
        runs: opts.runs,
        seconds: opts.seconds,
        traced: opts.trace,
        nproc,
        git_rev: git_rev.clone(),
        attempted: runs
            .iter()
            .map(|r| r.untraced.attempted + r.traced.attempted)
            .sum(),
        failed: runs
            .iter()
            .map(|r| r.untraced.failed + r.traced.failed)
            .sum(),
        tail_percentile: t.map_or(0.0, |t| t.percentile),
        latency_samples: latencies.len(),
        setups_s: runs
            .iter()
            .flat_map(|r| r.untraced.setups_s.iter().copied())
            .collect(),
        unit_walls_s: runs
            .iter()
            .flat_map(|r| r.untraced.units.iter().map(|u| u.wall_s))
            .collect(),
        metrics,
    }
}

/// Several workloads' results as one, metric names prefixed by workload.
fn merged(results: &[RunResult]) -> RunResult {
    let mut all = results[0].clone();
    all.workload = "all".to_string();
    all.attempted = results.iter().map(|r| r.attempted).sum();
    all.failed = results.iter().map(|r| r.failed).sum();
    all.metrics = results
        .iter()
        .flat_map(|r| {
            r.metrics
                .iter()
                .map(|m| Metric::new(&format!("{}.{}", r.workload, m.name), m.value, &m.unit))
        })
        .collect();
    all
}

/// `trace`: an untraced measurement and one traced unit per workload;
/// writes `DIR/<workload>/trace.json` (Chrome trace events of the bench
/// and the program) and `layers.json`.
fn trace(opts: &Options, env: &Env, dir: &Path) -> Result<i32, String> {
    let mut failed = 0;
    for &workload in &opts.workloads {
        let run = run_once(workload, env, true)?;
        failed += run.untraced.failed + run.traced.failed;
        let a = run.analysis.expect("a traced run is analysed");
        let out = dir.join(workload.name());
        std::fs::create_dir_all(&out)
            .map_err(|e| format!("cannot create {}: {e}", out.display()))?;
        let write = |name: &str, json: Json| {
            std::fs::write(out.join(name), format!("{}\n", json.render()))
                .map_err(|e| format!("cannot write {name}: {e}"))
        };
        write(
            "layers.json",
            layers_json(workload, opts.seed, &run.metrics, &a),
        )?;
        write("trace.json", Json::Array(a.events))?;
    }
    Ok(if failed == 0 { 0 } else { 1 })
}

/// `git rev-parse HEAD`, when run at the root of a repository. Git does
/// not look above the working directory, so a checkout that is not a
/// repository records no revision rather than an enclosing one's.
fn git_rev() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent()?)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !rev.is_empty()).then_some(rev)
}
