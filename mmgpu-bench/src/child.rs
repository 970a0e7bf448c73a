//! The processes the bench re-executes itself as (`mmgpu-bench child
//! ...`). Every repetition runs in a fresh one, because the program's
//! fit cache and engine-mode selection are process-wide statics.
//!
//! Protocol: the child finishes its set-up, prints `ready`, and waits
//! for `go` on stdin (anything else ends it). It then runs the measured
//! work and prints one JSON report line with its exit code, the CPU
//! seconds it spent after `go`, and its peak resident set.

use crate::gen::sweep_population;
use crate::golden::counts_digest;
use crate::procs::{cpu_secs, peak_rss_mb, THREADS};
use common::json::Json;
use std::io::{BufRead, Write};
use std::path::Path;
use workloads::Scale;

/// Runs the child role named by `args[0]`; returns the exit code.
pub fn main(args: &[String]) -> i32 {
    match args.split_first() {
        Some((role, rest)) if role == "xp" => xp(rest),
        Some((role, rest)) if role == "sweep" => sweep(rest),
        _ => {
            eprintln!(
                "mmgpu-bench child: expected `xp ARGS...` or `sweep [--trace DIR] --point KEY...`"
            );
            2
        }
    }
}

/// `child xp ARGS...`: after the handshake, `xp::cli::main(ARGS)`.
fn xp(args: &[String]) -> i32 {
    if !handshake() {
        return 0;
    }
    let cpu0 = own_cpu();
    let code = xp::cli::main(args);
    report(code, cpu0, Json::object())
}

/// `child sweep [--trace DIR] --point KEY...`: resolves the keys against
/// the full-scale population and, after the handshake, primes them all
/// in one `Lab::prime` on two workers. With `--trace`, the prime runs
/// inside a trace session whose Chrome trace goes to `DIR/program.json`.
fn sweep(args: &[String]) -> i32 {
    let mut trace_dir = None;
    let mut keys = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match (arg.as_str(), it.next()) {
            ("--trace", Some(dir)) => trace_dir = Some(dir.clone()),
            ("--point", Some(key)) => keys.push(key.clone()),
            _ => {
                eprintln!("mmgpu-bench child sweep: bad argument {arg:?}");
                return 2;
            }
        }
    }
    let population = sweep_population();
    let mut points = Vec::with_capacity(keys.len());
    for key in &keys {
        match population.binary_search_by(|(k, _, _)| k.as_str().cmp(key)) {
            Ok(i) => points.push((population[i].1.clone(), population[i].2.clone())),
            Err(_) => {
                eprintln!("mmgpu-bench child sweep: no population point {key:?}");
                return 2;
            }
        }
    }
    let mut lab = xp::Lab::with_threads(Scale::Full, THREADS);
    lab.set_progress(false);
    if !handshake() {
        return 0;
    }
    let cpu0 = own_cpu();
    let session = trace_dir
        .is_some()
        .then(|| trace::session(trace::TraceConfig::default()));
    let report_ = lab.prime(&points);
    if let (Some(session), Some(dir)) = (session, &trace_dir) {
        let body = trace::export::chrome_trace(&session.finish()).render();
        if let Err(e) = std::fs::write(Path::new(dir).join("program.json"), body) {
            eprintln!("mmgpu-bench child sweep: cannot write trace: {e}");
            return 1;
        }
    }
    let mut out = Json::array();
    for (key, outcome) in keys.iter().zip(&report_.outcomes) {
        let mut p = Json::object();
        p.insert("key", key.as_str());
        match outcome {
            Ok(counts) => {
                p.insert("instructions", counts.total_instructions());
                p.insert("digest", counts_digest(counts));
            }
            Err(e) => {
                p.insert("error", e.message.as_str());
            }
        }
        out.push(p);
    }
    let mut extra = Json::object();
    extra.insert("points", out);
    report(0, cpu0, extra)
}

/// Prints `ready`, then waits for the parent: true on `go`.
fn handshake() -> bool {
    println!("ready");
    let _ = std::io::stdout().flush();
    let mut line = String::new();
    std::io::stdin().lock().read_line(&mut line).is_ok() && line.trim() == "go"
}

fn own_cpu() -> f64 {
    cpu_secs(std::process::id()).unwrap_or(0.0)
}

/// Prints the report line; the child itself exits 0 once it is out.
fn report(code: i32, cpu0: f64, mut report: Json) -> i32 {
    let pid = std::process::id();
    report.insert("code", f64::from(code));
    report.insert("cpu_s", cpu_secs(pid).unwrap_or(0.0) - cpu0);
    report.insert("peak_rss_mb", peak_rss_mb(pid).unwrap_or(0.0));
    println!("{}", report.render());
    let _ = std::io::stdout().flush();
    0
}
