//! Drives the built binary the way a user does, with `--quick` inputs.

use common::json::Json;
use mmgpu_bench::report::END_TO_END;
use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn quick_serve_workloads_and_a_two_point_sweep_pass_their_goldens() {
    let started = Instant::now();
    for workload in ["serve-warm", "serve-whatif", "sweep-full"] {
        let out = Command::new(env!("CARGO_BIN_EXE_mmgpu-bench"))
            .args([
                "run",
                "--workload",
                workload,
                "--seed",
                "1",
                "--seconds",
                "0.2",
                "--quick",
            ])
            .output()
            .expect("the benchmark binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{workload}: {}\n{stdout}",
            String::from_utf8_lossy(&out.stderr)
        );
        let summary = Json::parse(stdout.lines().last().unwrap_or("")).expect("summary line");
        assert_eq!(summary.get("correct").and_then(Json::as_bool), Some(true));
        assert!(
            summary
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
                >= 1.0
        );
        let metrics = summary.get("metrics").expect("metrics");
        for (name, unit, _) in END_TO_END {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{workload}: no {name}"));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
            assert!(
                m.get("value").and_then(Json::as_f64).unwrap_or(0.0) > 0.0,
                "{workload}: {name}"
            );
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "took {:?}",
        started.elapsed()
    );
}
