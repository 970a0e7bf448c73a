use common::json::Json;
use mmgpu_bench::report::{Metric, RunResult};

fn sample(git_rev: Option<&str>) -> RunResult {
    RunResult {
        workload: "serve-warm".to_string(),
        seed: 2,
        seeded: true,
        runs: 3,
        seconds: 10.0,
        traced: false,
        nproc: 2,
        git_rev: git_rev.map(str::to_string),
        attempted: 123_456,
        failed: 0,
        tail_percentile: 99.99,
        latency_samples: 123_456,
        setups_s: vec![3.25, 3.5, 2.875],
        unit_walls_s: vec![0.1075],
        metrics: vec![
            Metric::new("setup_s", 0.812_734_509_871_236, "s"),
            Metric::new("latency_p50_ms", 0.097_125, "ms"),
        ],
    }
}

#[test]
fn results_round_trip_through_common_json() {
    for rev in [Some("0123456789abcdef0123456789abcdef01234567"), None] {
        let result = sample(rev);
        let text = result.to_json().render_pretty();
        let back = RunResult::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, result);
    }
}

#[test]
fn summary_line_has_exactly_the_four_keys() {
    let line = sample(None).summary_line();
    assert!(!line.contains('\n'));
    let j = Json::parse(&line).unwrap();
    assert_eq!(j.keys(), vec!["correct", "attempted", "failed", "metrics"]);
    assert_eq!(j.get("correct").and_then(Json::as_bool), Some(true));
    let setup = j.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
    assert_eq!(
        setup.get("value").and_then(Json::as_f64),
        Some(0.812_734_509_871_236)
    );
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
}

#[test]
fn a_failed_op_makes_the_result_incorrect() {
    let mut result = sample(None);
    result.failed = 1;
    assert!(!result.correct());
}
