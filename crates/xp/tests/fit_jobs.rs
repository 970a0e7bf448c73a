//! The fitting pipeline on the sweep executor: fits are cached per board
//! and fitting setup, their microbenchmark runs are executor points, and
//! none of that may change a byte of output.
//!
//! Only `portability_fits_each_board_once` runs the pipeline in this
//! process (the fit cache and the trace counters are process-wide); the
//! other tests drive the `xp` binary in child processes, each with a cold
//! cache.

use common::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;
use workloads::Scale;
use xp::{ArtifactRegistry, Lab, RegistryOptions};

/// The artifacts whose evaluation fits, validates or characterizes
/// through the executor, plus `repro_report`, which reuses their results.
const FIT_ARTIFACTS: [&str; 6] = [
    "table1b",
    "fig4a",
    "fig4b",
    "portability",
    "workload_report",
    "repro_report",
];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xp-fit-jobs-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Runs `xp run <ids> --smoke --format json --out <out> <extra>` in a
/// child process and returns its exit code.
fn xp_run(ids: &[&str], out: &Path, extra: &[&str]) -> i32 {
    let status = Command::new(env!("CARGO_BIN_EXE_xp"))
        .arg("run")
        .args(ids)
        .args(["--smoke", "--format", "json", "--out"])
        .arg(out)
        .args(extra)
        .env_remove("MMGPU_THREADS")
        .status()
        .expect("spawn xp");
    status.code().expect("xp exited normally")
}

#[test]
fn portability_fits_each_board_once() {
    let registry = ArtifactRegistry::standard(&RegistryOptions::default());
    let lab = Lab::with_threads(Scale::Smoke, 2);
    let suite = xp::default_suite();
    let session = trace::session(trace::TraceConfig::default());
    let data = registry
        .get("portability")
        .unwrap()
        .evaluate(&lab, &suite)
        .expect("portability evaluates");
    let snapshot = session.finish();
    // Two boards, two fits: the validation loop reuses both.
    assert_eq!(snapshot.counter("microbench.fit"), Some(2));
    let boards = data.json.get("boards").and_then(Json::as_array).unwrap();
    assert_eq!(boards.len(), 2);
}

#[test]
fn fit_artifacts_are_byte_identical_across_threads() {
    let serial = temp_dir("t1");
    let parallel = temp_dir("t2");
    assert_eq!(xp_run(&FIT_ARTIFACTS, &serial, &["--threads", "1"]), 0);
    assert_eq!(xp_run(&FIT_ARTIFACTS, &parallel, &["--threads", "2"]), 0);
    for id in FIT_ARTIFACTS {
        let file = format!("{id}.json");
        assert_eq!(
            read(&serial.join(&file)),
            read(&parallel.join(&file)),
            "{file} differs between --threads 1 and --threads 2"
        );
    }

    for dir in [serial, parallel] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_failed_fit_point_fails_only_its_artifact() {
    // Every executor point panics: the fit fails, which must surface as
    // portability's typed error while the rest of the batch completes.
    let out = temp_dir("failing");
    assert_eq!(
        xp_run(
            &["tables", "portability"],
            &out,
            &["--threads", "2", "--faults", "seed=7,panic=1.0"],
        ),
        1
    );
    assert!(out.join("tables.json").is_file());
    assert!(!out.join("portability.json").exists());
    let manifest = Json::parse(&read(&out.join("manifest.json"))).unwrap();
    let failed = manifest
        .get("failed_artifacts")
        .and_then(Json::as_array)
        .unwrap();
    assert_eq!(failed.len(), 1);
    assert_eq!(
        failed[0].get("artifact").and_then(Json::as_str),
        Some("portability")
    );
    assert_eq!(failed[0].get("point").and_then(Json::as_str), Some("fit"));
    let _ = std::fs::remove_dir_all(&out);
}
