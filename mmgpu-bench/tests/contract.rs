//! The repository's `BENCHMARK.json` must describe exactly what the
//! binary prints.

use common::json::Json;
use mmgpu_bench::layers::PER_LAYER;
use mmgpu_bench::report::END_TO_END;
use mmgpu_bench::workloads::Workload;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(j: &Json, key: &str) -> Vec<(String, String, String)> {
    j.get(key)
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn own(metrics: &[(&str, &str, &str)]) -> Vec<(String, String, String)> {
    metrics
        .iter()
        .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_the_metrics_and_workloads_the_binary_reports() {
    let j = benchmark_json();
    assert_eq!(listed(&j, "end_to_end"), own(&END_TO_END));
    assert_eq!(listed(&j, "per_layer"), own(&PER_LAYER));
    let names: Vec<String> = listed(&j, "workloads").into_iter().map(|w| w.0).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, ours);
    let setup = j
        .get("end_to_end")
        .and_then(Json::as_array)
        .and_then(|m| {
            m.iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        })
        .expect("setup_s is listed");
    let largest = j
        .get("end_to_end")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(|m| m.get("bound").and_then(Json::as_f64))
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Json::as_f64), Some(largest));
}
