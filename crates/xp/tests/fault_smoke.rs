//! End-to-end fault-injection smoke for the `xp` driver.
//!
//! One scenario, run as a single test because sensor faults are armed
//! process-wide: a fault-free reference run, a resume that skips it as
//! up to date, a run whose every point panics (isolated failure, exit
//! code 1, journaled), a fault-free resume that heals it, a failing
//! `repro_report` that is reported under its own id, and a sensor-fault
//! run that must complete with valid JSON (sensor glitches perturb
//! measured data by design, so no byte comparison there) and that a
//! fault-free resume does not trust.

use common::json::Json;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xp-fault-smoke-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn argv(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn manifest(dir: &Path) -> Json {
    Json::parse(&read(&dir.join("manifest.json"))).unwrap()
}

/// `xp run <ids> --smoke --format json --resume <dir> <extra>`.
fn resume(ids: &[&str], dir: &Path, extra: &[&str]) -> i32 {
    let mut args = vec!["run"];
    args.extend_from_slice(ids);
    args.extend_from_slice(&["--smoke", "--format", "json", "--resume"]);
    args.push(dir.to_str().unwrap());
    args.extend_from_slice(extra);
    xp::cli::main(&argv(&args))
}

#[test]
fn failed_runs_are_isolated_journaled_and_resumable() {
    // Fault-free reference run.
    let clean = temp_dir("clean");
    assert_eq!(
        xp::cli::main(&argv(&[
            "run",
            "fig2",
            "--smoke",
            "--format",
            "json",
            "--out",
            clean.to_str().unwrap(),
        ])),
        0
    );

    // The journal has exactly one ok record for fig2.
    let journal = Json::parse_jsonl(&read(&clean.join("journal.jsonl"))).unwrap();
    assert_eq!(journal.len(), 1);
    assert_eq!(
        journal[0].get("artifact").and_then(Json::as_str),
        Some("fig2")
    );
    assert_eq!(journal[0].get("status").and_then(Json::as_str), Some("ok"));
    assert!(journal[0].get("digest").and_then(Json::as_str).is_some());
    let reference = read(&clean.join("fig2.json"));

    // Resume skips the up-to-date artifact.
    assert_eq!(resume(&["fig2"], &clean, &[]), 0);
    let m = manifest(&clean);
    assert_eq!(m.get("resumed_artifacts").and_then(Json::as_f64), Some(1.0));
    let entry = &m.get("artifacts").and_then(Json::as_array).unwrap()[0];
    assert_eq!(entry.get("resumed").and_then(Json::as_bool), Some(true));
    assert_eq!(read(&clean.join("fig2.json")), reference);

    // Every point panics: the artifact fails but leaves a usable
    // directory: exit 1, typed error in the manifest, journaled.
    let failing = temp_dir("failing");
    assert_eq!(
        xp::cli::main(&argv(&[
            "run",
            "fig2",
            "--smoke",
            "--format",
            "json",
            "--out",
            failing.to_str().unwrap(),
            "--faults",
            "seed=7,panic=1.0",
        ])),
        1
    );
    let m = manifest(&failing);
    let failed = m.get("failed_artifacts").and_then(Json::as_array).unwrap();
    assert_eq!(failed.len(), 1);
    assert_eq!(
        failed[0].get("artifact").and_then(Json::as_str),
        Some("fig2")
    );
    assert!(!failing.join("fig2.json").exists());
    let journal = Json::parse_jsonl(&read(&failing.join("journal.jsonl"))).unwrap();
    assert_eq!(
        journal[0].get("status").and_then(Json::as_str),
        Some("failed")
    );

    // A fault-free resume reruns only the failed artifact and converges
    // on the reference results.
    assert_eq!(resume(&["fig2"], &failing, &[]), 0);
    assert_eq!(
        read(&failing.join("fig2.json")),
        reference,
        "a healed resume must converge on the fault-free results"
    );
    let journal = Json::parse_jsonl(&read(&failing.join("journal.jsonl"))).unwrap();
    assert_eq!(journal.len(), 1);
    assert_eq!(journal[0].get("status").and_then(Json::as_str), Some("ok"));

    // `repro_report` fails inside the fig2 it evaluates: the failure is
    // still reported as repro_report's, once, with fig2 named in `point`.
    let attributed = temp_dir("attributed");
    assert_eq!(
        xp::cli::main(&argv(&[
            "run",
            "fig2",
            "repro_report",
            "--smoke",
            "--no-validation",
            "--format",
            "json",
            "--out",
            attributed.to_str().unwrap(),
            "--faults",
            "seed=7,panic=1.0",
        ])),
        1
    );
    let m = manifest(&attributed);
    let failed: Vec<&str> = m
        .get("failed_artifacts")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|f| f.get("artifact").and_then(Json::as_str).unwrap())
        .collect();
    let with_error: Vec<&str> = m
        .get("artifacts")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter(|a| a.get("error").is_some())
        .map(|a| a.get("id").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(failed, vec!["fig2", "repro_report"]);
    assert_eq!(failed, with_error);
    let report_err = &m.get("failed_artifacts").and_then(Json::as_array).unwrap()[1];
    assert_eq!(
        report_err.get("point").and_then(Json::as_str),
        Some("fig2: sweep prime")
    );

    // Sensor faults (NaN readings, dropouts) perturb measured data by
    // design: assert completion and valid JSON, not byte identity.
    let sensors = temp_dir("sensors");
    let sensor_faults = ["--faults", "seed=11,nan=0.1,dropout=0.1"];
    assert_eq!(
        xp::cli::main(&argv(&[
            "run",
            "fig2",
            "--smoke",
            "--format",
            "json",
            "--out",
            sensors.to_str().unwrap(),
            sensor_faults[0],
            sensor_faults[1],
        ])),
        0
    );
    assert!(Json::parse(&read(&sensors.join("fig2.json"))).is_ok());

    // The same sensor faults resume the result; a fault-free resume
    // does not trust it and reruns the artifact.
    assert_eq!(resume(&["fig2"], &sensors, &sensor_faults), 0);
    let m = manifest(&sensors);
    assert_eq!(m.get("resumed_artifacts").and_then(Json::as_f64), Some(1.0));
    assert_eq!(resume(&["fig2"], &sensors, &[]), 0);
    let m = manifest(&sensors);
    assert_eq!(m.get("resumed_artifacts").and_then(Json::as_f64), Some(0.0));
    let entry = &m.get("artifacts").and_then(Json::as_array).unwrap()[0];
    assert!(entry.get("resumed").is_none(), "fig2 must rerun");
    assert_eq!(read(&sensors.join("fig2.json")), reference);

    for dir in [clean, failing, attributed, sensors] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
