//! Results: the end-to-end metrics, the result record written by
//! `--out`, and the one-line JSON summary the run ends with.

use crate::stats::median;
use crate::workloads::Measurement;
use common::json::Json;

/// Every end-to-end metric: name, unit, and which direction is better.
/// The tail latency is reported per layer instead (see `README.md`).
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("latency_p50_ms", "ms", "lower"),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }

    /// `{"value": ..., "unit": ...}`.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.insert("value", self.value);
        o.insert("unit", self.unit.as_str());
        o
    }
}

/// The end-to-end metrics of a measurement: medians over its set-ups,
/// its units, and its requests' latencies.
pub fn end_to_end(m: &Measurement) -> Vec<Metric> {
    let units = |f: fn(&crate::workloads::Unit) -> f64| {
        median(&m.units.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let values = [
        median(&m.setups_s).unwrap_or(0.0),
        units(|u| u.wall_s),
        units(|u| u.cpu_s),
        units(|u| u.peak_rss_mb),
        median(&m.latencies_ms).unwrap_or(0.0),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit, _), value)| Metric::new(name, value, unit))
        .collect()
}

/// One invocation's result, as `--out` records it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether the workload's inputs depend on the seed.
    pub seeded: bool,
    /// Repetitions of the measurement in this invocation.
    pub runs: usize,
    /// Seconds each measurement repeated its unit for.
    pub seconds: f64,
    /// Whether these are per-layer metrics from a traced unit.
    pub traced: bool,
    /// Host parallelism.
    pub nproc: usize,
    /// `git rev-parse HEAD`, when the checkout is a repository.
    pub git_rev: Option<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The percentile `latency_tail_ms` was read at.
    pub tail_percentile: f64,
    /// Latency samples behind the latency metrics.
    pub latency_samples: usize,
    /// Every set-up's seconds, across runs.
    pub setups_s: Vec<f64>,
    /// Every unit's wall seconds, across runs.
    pub unit_walls_s: Vec<f64>,
    /// The metrics, medians over `runs`.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The full record.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.insert("workload", self.workload.as_str());
        o.insert("seed", self.seed);
        o.insert("seeded", self.seeded);
        o.insert("runs", self.runs);
        o.insert("seconds", self.seconds);
        o.insert("traced", self.traced);
        o.insert("nproc", self.nproc);
        o.insert(
            "git_rev",
            self.git_rev.as_deref().map_or(Json::Null, Json::str),
        );
        o.insert("attempted", self.attempted);
        o.insert("failed", self.failed);
        o.insert("tail_percentile", self.tail_percentile);
        o.insert("latency_samples", self.latency_samples);
        o.insert("setups_s", numbers(&self.setups_s));
        o.insert("unit_walls_s", numbers(&self.unit_walls_s));
        o.insert("metrics", self.metrics_json());
        o
    }

    /// Parses a record written by [`RunResult::to_json`].
    pub fn from_json(j: &Json) -> Result<RunResult, String> {
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result missing number `{k}`"))
        };
        let list = |k: &str| {
            j.get(k)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("result missing list `{k}`"))?
                .iter()
                .map(|v| {
                    v.as_f64()
                        .ok_or_else(|| format!("`{k}` holds a non-number"))
                })
                .collect::<Result<Vec<f64>, String>>()
        };
        let flag = |k: &str| {
            j.get(k)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("result missing flag `{k}`"))
        };
        let metrics = j
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("result missing `metrics`")?
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                let unit = m.get("unit").and_then(Json::as_str);
                match (value, unit) {
                    (Some(v), Some(u)) => Ok(Metric::new(name, v, u)),
                    _ => Err(format!("metric {name} lacks value or unit")),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunResult {
            workload: j
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("result missing `workload`")?
                .to_string(),
            seed: num("seed")? as u64,
            seeded: flag("seeded")?,
            runs: num("runs")? as usize,
            seconds: num("seconds")?,
            traced: flag("traced")?,
            nproc: num("nproc")? as usize,
            git_rev: j.get("git_rev").and_then(Json::as_str).map(str::to_string),
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            tail_percentile: num("tail_percentile")?,
            latency_samples: num("latency_samples")? as usize,
            setups_s: list("setups_s")?,
            unit_walls_s: list("unit_walls_s")?,
            metrics,
        })
    }

    fn metrics_json(&self) -> Json {
        let mut m = Json::object();
        for metric in &self.metrics {
            m.insert(metric.name.as_str(), metric.to_json());
        }
        m
    }

    /// The summary line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn summary_line(&self) -> String {
        let mut o = Json::object();
        o.insert("correct", self.correct());
        o.insert("attempted", self.attempted);
        o.insert("failed", self.failed);
        o.insert("metrics", self.metrics_json());
        o.render()
    }
}

fn numbers(values: &[f64]) -> Json {
    Json::Array(values.iter().map(|&v| Json::from(v)).collect())
}
