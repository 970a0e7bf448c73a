//! Per-layer metrics from one traced unit.
//!
//! The bench records its own spans around each call it makes into the
//! program ([`SpanLog`]) and folds in what the program records itself:
//! the Chrome trace of `xp run --trace`, of a `trace::session` around
//! the sweep child's prime, or of `xp serve --trace`, plus the per-query
//! phase timing the daemon attaches to `with_timing` answers. Metrics a
//! workload never exercises read 0.

use crate::report::Metric;
use crate::stats::{median, tail};
use crate::workloads::{Measurement, Workload};
use common::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Every per-layer metric: name, unit, and which direction is better.
pub const PER_LAYER: [(&str, &str, &str); 30] = [
    ("latency_tail_ms", "ms", "lower"),
    ("runtime.prime_s", "s", "lower"),
    ("runtime.worker_util", "ratio", "higher"),
    ("runtime.cache_hit_ratio", "ratio", "higher"),
    ("runtime.cache_wait_s", "s", "lower"),
    ("sim.points", "count", "lower"),
    ("sim.workload_s", "s", "lower"),
    ("sim.workload_max_s", "s", "lower"),
    ("sim.kernel_p99_ms", "ms", "lower"),
    ("sim.instr_per_cpu_s", "instr/s", "higher"),
    ("sim.instr_per_s", "instr/s", "higher"),
    ("sim.ff_skip_ratio", "ratio", "higher"),
    ("fit.portability_s", "s", "lower"),
    ("fit.validation_s", "s", "lower"),
    ("silicon.measure_s", "s", "lower"),
    ("silicon.sensor_reads", "count", "lower"),
    ("xp.render_s", "s", "lower"),
    ("xp.workload_report_s", "s", "lower"),
    ("xp.unattributed_s", "s", "lower"),
    ("xpd.server_p50_ms", "ms", "lower"),
    ("xpd.wire_p50_ms", "ms", "lower"),
    ("xpd.queue_wait_p50_ms", "ms", "lower"),
    ("xpd.batch_linger_p50_ms", "ms", "lower"),
    ("xpd.eval_p50_ms", "ms", "lower"),
    ("xpd.eval_max_ms", "ms", "lower"),
    ("xpd.store_write_p50_ms", "ms", "lower"),
    ("xpd.store_hit_ratio", "ratio", "higher"),
    ("xpd.computed", "count", "lower"),
    ("xpd.queries_per_s", "1/s", "higher"),
    ("trace.overhead_s", "s", "lower"),
];

/// Artifacts whose evaluation is the fitting pipeline's validation.
const VALIDATION_ARTIFACTS: [&str; 3] = ["fig4a", "fig4b", "repro_report"];

/// The bench's own spans: name, thread lane, start and end seconds.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<(&'static str, usize, f64, f64)>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the log was created.
    pub fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span on lane `tid` (0 is the main thread, 1.. the clients);
    /// it closes when the guard drops.
    pub fn span(&self, name: &'static str, tid: usize) -> SpanGuard<'_> {
        SpanGuard {
            log: self,
            name,
            tid,
            start: self.now_s(),
        }
    }
}

/// An open bench span.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    log: &'a SpanLog,
    name: &'static str,
    tid: usize,
    start: f64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.log.now_s();
        if let Ok(mut spans) = self.log.spans.lock() {
            spans.push((self.name, self.tid, self.start, end));
        }
    }
}

/// One answered query's client round trip and the daemon's phase
/// breakdown of it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryTiming {
    /// Client-side round trip.
    pub rtt_ms: f64,
    /// Whether the answer came from the store.
    pub from_store: bool,
    /// Server time from parse to answer.
    pub total_ms: f64,
    /// Queued before its batch was assembled.
    pub queue_wait_ms: f64,
    /// Lingering for batch-mates.
    pub batch_linger_ms: f64,
    /// Engine evaluation of its batch.
    pub eval_ms: f64,
    /// Persisting the answer.
    pub store_write_ms: f64,
}

impl QueryTiming {
    /// A round trip and the `timing` object of its answer.
    pub fn new(rtt_ms: f64, from_store: bool, timing: Option<&Json>) -> QueryTiming {
        let field = |k: &str| {
            timing
                .and_then(|t| t.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        QueryTiming {
            rtt_ms,
            from_store,
            total_ms: field("total_ms"),
            queue_wait_ms: field("queue_wait_ms"),
            batch_linger_ms: field("batch_linger_ms"),
            eval_ms: field("eval_ms"),
            store_write_ms: field("store_write_ms"),
        }
    }
}

/// What a traced unit leaves behind.
#[derive(Debug, Default)]
pub struct TraceData {
    /// The bench's own spans.
    pub bench: SpanLog,
    /// Program-side Chrome trace events, each trace with its start
    /// offset in seconds on the bench's clock.
    pub program: Vec<(f64, Vec<Json>)>,
    /// Simulated instructions (sweep-full).
    pub instructions: u64,
    /// Per-query timings (serve workloads).
    pub timings: Vec<QueryTiming>,
    /// Wall seconds of the traced unit's measured phase.
    pub unit_wall_s: f64,
}

/// Span statistics of one name.
#[derive(Debug, Default, Clone)]
pub struct SpanStat {
    /// Durations in seconds.
    pub durations: Vec<f64>,
    /// Total minus the time covered by direct child spans.
    pub self_s: f64,
}

impl SpanStat {
    fn total(&self) -> f64 {
        self.durations.iter().fold(0.0, |a, b| a + b)
    }
}

/// A merged, analysed trace: every event with bench spans under pid 1
/// and program spans under pid 2, plus per-name statistics and counters.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Chrome trace events.
    pub events: Vec<Json>,
    /// Statistics per span name.
    pub spans: BTreeMap<String, SpanStat>,
    /// Final counter values.
    pub counters: BTreeMap<String, f64>,
}

impl Analysis {
    fn span(&self, name: &str) -> SpanStat {
        self.spans.get(name).cloned().unwrap_or_default()
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }
}

/// Merges the bench's spans with the program traces and computes span
/// statistics, self times, and counters.
pub fn analyse(t: &TraceData) -> Analysis {
    let mut a = Analysis::default();
    let spans = t.bench.spans.lock().map(|s| s.clone()).unwrap_or_default();
    let mut lanes: Vec<usize> = spans.iter().map(|s| s.1).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for lane in lanes {
        a.events.push(thread_name(
            1,
            lane as f64,
            if lane == 0 { "bench" } else { "bench client" },
        ));
    }
    let mut bench_events: Vec<(f64, bool, Json)> = Vec::new();
    for (name, tid, start, end) in spans {
        bench_events.push((start, true, event(name, "B", start * 1e6, 1, tid as f64)));
        bench_events.push((end, false, event(name, "E", end * 1e6, 1, tid as f64)));
    }
    // Ends before begins at equal stamps keep back-to-back spans nested.
    bench_events.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
    a.events.extend(bench_events.into_iter().map(|(_, _, e)| e));
    for (offset_s, trace) in &t.program {
        for e in trace {
            let mut e = e.clone();
            if let Json::Object(pairs) = &mut e {
                for (k, v) in pairs.iter_mut() {
                    match k.as_str() {
                        "pid" => *v = Json::from(2u64),
                        "ts" => *v = Json::from(v.as_f64().unwrap_or(0.0) + offset_s * 1e6),
                        _ => {}
                    }
                }
            }
            a.events.push(e);
        }
    }
    // Pair begins with ends per (pid, tid); spans nest within a thread.
    // Each open span is (name, start, time covered by its children).
    type Open = (String, f64, f64);
    let mut stacks: BTreeMap<(u64, u64), Vec<Open>> = BTreeMap::new();
    for e in &a.events {
        let ph = e.get("ph").and_then(Json::as_str).unwrap_or("");
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let ts = e.get("ts").and_then(Json::as_f64).unwrap_or(0.0) / 1e6;
        let lane = (
            e.get("pid").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            e.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        );
        match ph {
            "B" => stacks.entry(lane).or_default().push((name, ts, 0.0)),
            "E" => {
                let stack = stacks.entry(lane).or_default();
                if stack.last().is_some_and(|(n, _, _)| *n == name) {
                    let (name, start, children) = stack.pop().expect("non-empty");
                    let dur = (ts - start).max(0.0);
                    let stat = a.spans.entry(name).or_default();
                    stat.durations.push(dur);
                    stat.self_s += (dur - children).max(0.0);
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += dur;
                    }
                }
            }
            "C" => {
                let value = e
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                a.counters.insert(name, value);
            }
            _ => {}
        }
    }
    a
}

/// Parses a Chrome trace, a JSON array of small event objects, one event
/// at a time: a scan that tracks strings and nesting splits the array on
/// its top-level commas. `Json::parse` re-validates the rest of its input
/// for every string character it reads, so it is only ever handed single
/// events, never a multi-megabyte trace.
pub fn parse_events(text: &str) -> Result<Vec<Json>, String> {
    let inner = text
        .trim()
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or("trace is not a JSON array")?;
    let parse = |item: &str| Json::parse(item).map_err(|e| format!("bad trace event: {e}"));
    let (mut depth, mut in_string, mut escaped, mut start) = (0usize, false, false, 0);
    let mut events = Vec::new();
    for (i, b) in inner.bytes().enumerate() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth = depth.saturating_sub(1),
            b',' if depth == 0 => {
                events.push(parse(&inner[start..i])?);
                start = i + 1;
            }
            _ => {}
        }
    }
    if !inner[start..].trim().is_empty() {
        events.push(parse(&inner[start..])?);
    }
    Ok(events)
}

fn event(name: &str, ph: &str, ts: f64, pid: u64, tid: f64) -> Json {
    let mut e = Json::object();
    e.insert("name", name);
    e.insert("cat", "bench");
    e.insert("ph", ph);
    e.insert("ts", ts);
    e.insert("pid", pid);
    e.insert("tid", tid);
    e
}

fn thread_name(pid: u64, tid: f64, name: &str) -> Json {
    let mut e = Json::object();
    e.insert("name", "thread_name");
    e.insert("ph", "M");
    e.insert("pid", pid);
    e.insert("tid", tid);
    let mut args = Json::object();
    args.insert("name", name);
    e.insert("args", args);
    e
}

/// Nearest-rank percentile `p` of `values`, 0 for an empty sample.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every [`PER_LAYER`] metric for `workload`, from the traced
/// measurement, its [`analyse`]d trace, and the untraced measurement it
/// is compared with.
pub fn per_layer(
    workload: Workload,
    a: &Analysis,
    traced: &Measurement,
    untraced: &Measurement,
) -> Vec<Metric> {
    let empty = TraceData::default();
    let t = traced.trace.as_ref().unwrap_or(&empty);
    let mut v: BTreeMap<&str, f64> = BTreeMap::new();
    v.insert(
        "latency_tail_ms",
        tail(&untraced.latencies_ms).map_or(0.0, |t| t.value),
    );

    let prime = a.span("xp.prime").total();
    v.insert("runtime.prime_s", prime);
    v.insert(
        "runtime.worker_util",
        ratio(a.span("executor.point").total(), 2.0 * prime),
    );
    let (hit, miss) = (a.counter("cache.hit"), a.counter("cache.miss"));
    v.insert("runtime.cache_hit_ratio", ratio(hit, hit + miss));
    v.insert("runtime.cache_wait_s", a.span("cache.wait").total());

    let sims = a.span("sim.workload");
    v.insert("sim.points", sims.durations.len() as f64);
    v.insert("sim.workload_s", sims.total());
    v.insert(
        "sim.workload_max_s",
        sims.durations.iter().copied().fold(0.0, f64::max),
    );
    v.insert(
        "sim.kernel_p99_ms",
        percentile(&a.span("sim.kernel").durations, 99.0) * 1e3,
    );
    let instr = t.instructions as f64;
    v.insert("sim.instr_per_cpu_s", ratio(instr, sims.total()));
    v.insert("sim.instr_per_s", ratio(instr, t.unit_wall_s));
    let (skipped, visited) = (
        a.counter("sim.ff.skipped_cycles"),
        a.counter("sim.ff.visited_cycles"),
    );
    v.insert("sim.ff_skip_ratio", ratio(skipped, skipped + visited));

    let artifact = |id: &str| a.span(&format!("xp.artifact.{id}")).total();
    let all_artifacts: f64 = a
        .spans
        .iter()
        .filter(|(n, _)| n.starts_with("xp.artifact."))
        .fold(0.0, |sum, (_, s)| sum + s.total());
    let validation: f64 = VALIDATION_ARTIFACTS.iter().map(|id| artifact(id)).sum();
    v.insert("fit.portability_s", artifact("portability"));
    v.insert("fit.validation_s", validation);
    v.insert("silicon.measure_s", a.span("silicon.measure").total());
    v.insert("silicon.sensor_reads", a.counter("silicon.sensor.read"));
    v.insert(
        "xp.render_s",
        all_artifacts - validation - artifact("portability") - artifact("workload_report"),
    );
    v.insert("xp.workload_report_s", artifact("workload_report"));
    let unattributed = if workload == Workload::ReproSmoke {
        (t.unit_wall_s - prime - all_artifacts).max(0.0)
    } else {
        0.0
    };
    v.insert("xp.unattributed_s", unattributed);

    let q = &t.timings;
    let computed: Vec<&QueryTiming> = q.iter().filter(|x| !x.from_store).collect();
    let of = |f: fn(&QueryTiming) -> f64, xs: &[&QueryTiming]| {
        xs.iter().map(|x| f(x)).collect::<Vec<f64>>()
    };
    let all: Vec<&QueryTiming> = q.iter().collect();
    v.insert(
        "xpd.server_p50_ms",
        percentile(&of(|x| x.total_ms, &all), 50.0),
    );
    v.insert(
        "xpd.wire_p50_ms",
        percentile(&of(|x| x.rtt_ms - x.total_ms, &all), 50.0),
    );
    v.insert(
        "xpd.queue_wait_p50_ms",
        percentile(&of(|x| x.queue_wait_ms, &computed), 50.0),
    );
    v.insert(
        "xpd.batch_linger_p50_ms",
        percentile(&of(|x| x.batch_linger_ms, &computed), 50.0),
    );
    v.insert(
        "xpd.eval_p50_ms",
        percentile(&of(|x| x.eval_ms, &computed), 50.0),
    );
    v.insert(
        "xpd.eval_max_ms",
        percentile(&of(|x| x.eval_ms, &computed), 100.0),
    );
    v.insert(
        "xpd.store_write_p50_ms",
        percentile(&of(|x| x.store_write_ms, &computed), 50.0),
    );
    v.insert(
        "xpd.store_hit_ratio",
        ratio((q.len() - computed.len()) as f64, q.len() as f64),
    );
    v.insert("xpd.computed", computed.len() as f64);
    v.insert("xpd.queries_per_s", ratio(q.len() as f64, t.unit_wall_s));

    let walls = |m: &Measurement| m.units.iter().map(|u| u.wall_s).collect::<Vec<f64>>();
    let overhead = match (median(&walls(traced)), median(&walls(untraced))) {
        (Some(on), Some(off)) => on - off,
        _ => 0.0,
    };
    v.insert("trace.overhead_s", overhead);

    PER_LAYER
        .iter()
        .map(|(name, unit, _)| Metric::new(name, v.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// `layers.json`: the per-layer metrics, every span's count, total and
/// self time, the counters, and the tracing overhead.
pub fn layers_json(workload: Workload, seed: u64, metrics: &[Metric], a: &Analysis) -> Json {
    let mut o = Json::object();
    o.insert("workload", workload.name());
    o.insert("seed", seed);
    let mut m = Json::object();
    for metric in metrics {
        m.insert(metric.name.as_str(), metric.to_json());
    }
    o.insert("metrics", m);
    let mut spans = Json::object();
    for (name, s) in &a.spans {
        let mut j = Json::object();
        j.insert("count", s.durations.len());
        j.insert("total_s", s.total());
        j.insert("self_s", s.self_s);
        spans.insert(name.as_str(), j);
    }
    o.insert("spans", spans);
    let mut counters = Json::object();
    for (name, value) in &a.counters {
        counters.insert(name.as_str(), *value);
    }
    o.insert("counters", counters);
    o
}
