//! The four workloads, each driving the system from outside through its
//! public entry points and checking every output against the goldens.
//!
//! All of them are closed loops: a client sends its next request only
//! after the previous answer arrived. Each repeats its unit of work in
//! fresh processes until the run's `--seconds` have passed (at least
//! once, or four times for `serve-whatif`), and sets up at least three
//! times so `setup_s` is a median.

use crate::gen::{self, Entry, Query};
use crate::golden::{digest, Golden};
use crate::layers::{parse_events, QueryTiming, SpanLog, TraceData};
use crate::procs::{
    cpu_secs, parse_response, peak_rss_mb, Client, Daemon, Proc, Scratch, CLIENT_TIMEOUT, THREADS,
};
use common::json::Json;
use std::path::Path;
use std::time::{Duration, Instant};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `xp run all --smoke`: every non-composite artifact, cold process.
    ReproSmoke,
    /// A seeded 32-point sample of the full-scale sweep population.
    SweepFull,
    /// Warm queries against a pre-filled store.
    ServeWarm,
    /// A seeded what-if script against a fresh store.
    ServeWhatif,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ReproSmoke,
        Workload::SweepFull,
        Workload::ServeWarm,
        Workload::ServeWhatif,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReproSmoke => "repro-smoke",
            Workload::SweepFull => "sweep-full",
            Workload::ServeWarm => "serve-warm",
            Workload::ServeWhatif => "serve-whatif",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Settings shared by every workload of one invocation.
#[derive(Debug)]
pub struct Env<'a> {
    /// Expected outputs.
    pub golden: &'a Golden,
    /// Where temporary stores and outputs go.
    pub scratch: &'a Scratch,
    /// Input seed.
    pub seed: u64,
    /// How long to keep repeating units.
    pub seconds: f64,
    /// Tiny inputs, for tests.
    pub quick: bool,
    /// Closed-loop client connections for the serve workloads.
    pub clients: usize,
}

/// One unit of work: a `run all`, a sweep, 1000 warm queries, or a
/// what-if script replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Unit {
    /// Wall seconds.
    pub wall_s: f64,
    /// CPU seconds of the program process (child or daemon).
    pub cpu_s: f64,
    /// Peak resident set of the program process, MiB.
    pub peak_rss_mb: f64,
}

/// Everything one measurement observed.
#[derive(Debug, Default)]
pub struct Measurement {
    /// Seconds of each set-up.
    pub setups_s: Vec<f64>,
    /// Each measured unit.
    pub units: Vec<Unit>,
    /// Per-request latency in milliseconds. A `run all` and a sweep are
    /// one request each.
    pub latencies_ms: Vec<f64>,
    /// Operations attempted: artifacts, points, or queries.
    pub attempted: u64,
    /// Operations failed: errors, timeouts, and golden mismatches.
    pub failed: u64,
    /// The first few failures, for the log.
    pub problems: Vec<String>,
    /// Raw per-layer data, from a traced unit.
    pub trace: Option<TraceData>,
}

impl Measurement {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }

    fn check(&mut self, what: &str, got: &str, want: Option<&str>) {
        self.attempted += 1;
        match want {
            Some(want) if want == got => {}
            Some(want) => self.fail(format!("{what}: digest {got}, golden {want}")),
            None => self.fail(format!("{what}: no golden digest")),
        }
    }
}

/// Set-ups per run, counting the first unit's own. Serve-warm's
/// pre-fills a store, so it sets up three times, and serve-whatif's
/// daemon start (~0.1 s) repeats closely over nine. A batch child is
/// ready within milliseconds, where a run's first few spawns read up to
/// half again slower than its later ones, so those set up 25 times.
fn setups_per_run(workload: Workload) -> usize {
    match workload {
        Workload::ServeWarm => 3,
        Workload::ServeWhatif => 9,
        Workload::ReproSmoke | Workload::SweepFull => 25,
    }
}

/// Units per run at least. A what-if replay takes a few seconds and its
/// batching varies from replay to replay, so its median needs four.
/// `--quick` runs only show that the workloads work.
fn min_units(workload: Workload, quick: bool) -> usize {
    match workload {
        Workload::ServeWhatif if !quick => 4,
        _ => 1,
    }
}

/// Measures `workload`. A traced measurement runs exactly one unit with
/// every program-side trace on and returns the material for the
/// per-layer report in [`Measurement::trace`].
pub fn measure(workload: Workload, env: &Env, traced: bool) -> Result<Measurement, String> {
    let spans = traced.then(SpanLog::new);
    let mut m = Measurement::default();
    let setups = if traced { 0 } else { setups_per_run(workload) };
    // Every extra set-up comes before the units: right after a long unit
    // the same set-up runs measurably slower, and a median over a mix of
    // the two would swing with the mix.
    for _ in 1..setups {
        let dir = env
            .scratch
            .dir(&format!("{}-setup-{}", workload.name(), m.setups_s.len()))?;
        extra_setup(workload, env, &dir, &mut m)?;
    }
    let started = Instant::now();
    let mut unit = 0;
    loop {
        let dir = env.scratch.dir(&format!("{}-{unit}", workload.name()))?;
        let _span = spans.as_ref().map(|s| s.span("bench.unit", 0));
        match workload {
            Workload::ReproSmoke => repro_unit(env, &dir, &mut m, spans.as_ref())?,
            Workload::SweepFull => sweep_unit(env, &dir, &mut m, spans.as_ref())?,
            Workload::ServeWarm => warm_unit(env, &dir, &mut m, spans.as_ref())?,
            Workload::ServeWhatif => whatif_unit(env, &dir, &mut m, spans.as_ref())?,
        }
        unit += 1;
        if traced
            || (unit >= min_units(workload, env.quick)
                && started.elapsed().as_secs_f64() >= env.seconds)
        {
            break;
        }
    }
    if let (Some(trace), Some(spans)) = (m.trace.as_mut(), spans) {
        trace.bench = spans;
    }
    Ok(m)
}

/// One more set-up, timed and then torn down unused.
fn extra_setup(
    workload: Workload,
    env: &Env,
    dir: &Path,
    m: &mut Measurement,
) -> Result<(), String> {
    let began = Instant::now();
    match workload {
        Workload::ReproSmoke => {
            let (_child, setup) = spawn_ready(&repro_args(dir, false), dir)?;
            m.setups_s.push(setup);
        }
        Workload::SweepFull => {
            let (_child, setup) = spawn_ready(&sweep_args(env, dir, false), dir)?;
            m.setups_s.push(setup);
        }
        Workload::ServeWarm => {
            let warm = warm_setup(env, dir, None)?;
            m.setups_s.push(began.elapsed().as_secs_f64());
            check_warm(env, &warm, m);
            warm.daemon.shutdown()?;
        }
        Workload::ServeWhatif => {
            let (daemon, _clients) = serve_setup(dir, None, env.clients)?;
            m.setups_s.push(began.elapsed().as_secs_f64());
            daemon.shutdown()?;
        }
    }
    Ok(())
}

/// Spawns a child and waits for its `ready`: the set-up of a batch unit.
/// Returns the child and the set-up's seconds, which leave out making
/// `args` (drawing the sweep sample is the bench's work, not the
/// program's).
pub(crate) fn spawn_ready(args: &[String], dir: &Path) -> Result<(Proc, f64), String> {
    let began = Instant::now();
    let proc = Proc::spawn(args, &dir.join("child.log"))?;
    match proc.line(CLIENT_TIMEOUT)?.as_str() {
        "ready" => Ok((proc, began.elapsed().as_secs_f64())),
        other => Err(format!("child said {other:?} instead of ready")),
    }
}

/// Sends `go` and waits for the report line: the measured phase of a
/// batch unit. Returns the report and the phase's wall seconds.
pub(crate) fn go(proc: &mut Proc, timeout: Duration) -> Result<(Json, f64), String> {
    let began = Instant::now();
    proc.send("go")?;
    let deadline = began + timeout;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        let line = proc.line(left)?;
        if let Ok(report) = Json::parse(&line) {
            if report.get("code").is_some() {
                return Ok((report, began.elapsed().as_secs_f64()));
            }
        }
    }
}

fn num(report: &Json, key: &str) -> f64 {
    report.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// How long a batch unit may take before the run gives up on it.
pub(crate) const BATCH_TIMEOUT: Duration = Duration::from_secs(170);

pub(crate) fn repro_args(dir: &Path, traced: bool) -> Vec<String> {
    let mut args: Vec<String> = ["xp", "run", "all", "--smoke", "--threads"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    args.push(THREADS.to_string());
    for (flag, file) in [("--format", "json"), ("--out", "out")] {
        args.push(flag.to_string());
        args.push(if flag == "--out" {
            dir.join(file).display().to_string()
        } else {
            file.to_string()
        });
    }
    if traced {
        for (flag, file) in [
            ("--trace", "program.json"),
            ("--metrics-out", "metrics.json"),
        ] {
            args.push(flag.to_string());
            args.push(dir.join(file).display().to_string());
        }
    }
    args
}

fn repro_unit(
    env: &Env,
    dir: &Path,
    m: &mut Measurement,
    spans: Option<&SpanLog>,
) -> Result<(), String> {
    let (mut proc, setup) = {
        let _span = spans.map(|s| s.span("bench.setup", 0));
        spawn_ready(&repro_args(dir, spans.is_some()), dir)?
    };
    m.setups_s.push(setup);
    let offset = spans.map(|s| s.now_s()).unwrap_or(0.0);
    let (report, wall) = {
        let _span = spans.map(|s| s.span("bench.xp_run_all", 0));
        go(&mut proc, BATCH_TIMEOUT)?
    };
    proc.wait(Duration::from_secs(10))?;
    record_batch(m, &report, wall);
    m.attempted += 1;
    if num(&report, "code") != 0.0 {
        m.fail(format!("xp run all exited {}", num(&report, "code")));
    }
    let _span = spans.map(|s| s.span("bench.verify", 0));
    for (id, want) in &env.golden.artifacts {
        match std::fs::read_to_string(dir.join("out").join(format!("{id}.json"))) {
            Ok(bytes) => m.check(&format!("artifact {id}"), &digest(&bytes), Some(want)),
            Err(e) => {
                m.attempted += 1;
                m.fail(format!("artifact {id}: {e}"));
            }
        }
    }
    if spans.is_some() {
        m.trace = Some(TraceData {
            program: vec![read_trace(&dir.join("program.json"), offset)?],
            unit_wall_s: wall,
            ..TraceData::default()
        });
    }
    Ok(())
}

fn record_batch(m: &mut Measurement, report: &Json, wall: f64) {
    m.units.push(Unit {
        wall_s: wall,
        cpu_s: num(report, "cpu_s"),
        peak_rss_mb: num(report, "peak_rss_mb"),
    });
    m.latencies_ms.push(wall * 1e3);
}

/// The sample's point keys, heaviest first.
pub fn sweep_keys(golden: &Golden, seed: u64, quick: bool) -> Vec<String> {
    let costs: Vec<f64> = golden.points.iter().map(|p| p.cost_s).collect();
    let picks = if quick {
        gen::quick_sweep_sample(&costs, seed)
    } else {
        let classes: Vec<usize> = golden
            .points
            .iter()
            .map(|p| gen::gpm_class(p.gpms))
            .collect();
        gen::sweep_sample(&classes, &costs, seed)
    };
    picks
        .into_iter()
        .map(|i| golden.points[i].key.clone())
        .collect()
}

fn sweep_args(env: &Env, dir: &Path, traced: bool) -> Vec<String> {
    let mut args = vec!["sweep".to_string()];
    if traced {
        args.push("--trace".to_string());
        args.push(dir.display().to_string());
    }
    for key in sweep_keys(env.golden, env.seed, env.quick) {
        args.push("--point".to_string());
        args.push(key);
    }
    args
}

fn sweep_unit(
    env: &Env,
    dir: &Path,
    m: &mut Measurement,
    spans: Option<&SpanLog>,
) -> Result<(), String> {
    let (mut proc, setup) = {
        let _span = spans.map(|s| s.span("bench.setup", 0));
        spawn_ready(&sweep_args(env, dir, spans.is_some()), dir)?
    };
    m.setups_s.push(setup);
    let offset = spans.map(|s| s.now_s()).unwrap_or(0.0);
    let (report, wall) = {
        let _span = spans.map(|s| s.span("bench.lab_prime", 0));
        go(&mut proc, BATCH_TIMEOUT)?
    };
    proc.wait(Duration::from_secs(10))?;
    record_batch(m, &report, wall);
    let _span = spans.map(|s| s.span("bench.verify", 0));
    let mut instructions = 0u64;
    let points = report.get("points").and_then(Json::as_array).unwrap_or(&[]);
    let want = sweep_keys(env.golden, env.seed, env.quick);
    if points.len() != want.len() {
        m.fail(format!(
            "sweep reported {} of {} points",
            points.len(),
            want.len()
        ));
    }
    for p in points {
        let key = p.get("key").and_then(Json::as_str).unwrap_or("?");
        match (p.get("digest").and_then(Json::as_str), p.get("error")) {
            (Some(got), _) => {
                instructions += num(p, "instructions") as u64;
                m.check(
                    &format!("point {key}"),
                    got,
                    env.golden.point(key).map(|g| g.digest.as_str()),
                );
            }
            (None, error) => {
                m.attempted += 1;
                m.fail(format!(
                    "point {key}: {}",
                    error.and_then(Json::as_str).unwrap_or("no result")
                ));
            }
        }
    }
    if spans.is_some() {
        m.trace = Some(TraceData {
            program: vec![read_trace(&dir.join("program.json"), offset)?],
            instructions,
            unit_wall_s: wall,
            ..TraceData::default()
        });
    }
    Ok(())
}

/// Starts a daemon on a fresh store and opens `connections` connections.
fn serve_setup(
    dir: &Path,
    trace: Option<&Path>,
    connections: usize,
) -> Result<(Daemon, Vec<Client>), String> {
    let mut daemon = Daemon::start(dir, &dir.join("store"), trace)?;
    let clients = daemon.connect(connections)?;
    Ok((daemon, clients))
}

/// The warm set for this run.
fn warm_queries(env: &Env) -> Vec<Query> {
    if env.quick {
        gen::quick_warm_set()
    } else {
        gen::warm_set(env.seed)
    }
}

/// A serve-warm daemon ready to measure: its store holds the warm set.
struct Warm {
    daemon: Daemon,
    clients: Vec<Client>,
    /// Raw answers to the prefill queries (computed).
    prefill: Vec<String>,
    /// Raw answers to the same queries asked again (store hits): what
    /// every warm answer must equal, byte for byte.
    reference: Vec<String>,
}

/// Serve-warm set-up: a daemon, its client connections, and a store
/// pre-filled with the warm set. Answers are only collected here; they
/// are checked after the measured phase, so no parsing is timed.
fn warm_setup(env: &Env, dir: &Path, trace: Option<&Path>) -> Result<Warm, String> {
    let (daemon, mut clients) = serve_setup(dir, trace, env.clients + 1)?;
    let mut filler = clients.pop().expect("one connection per client plus one");
    let queries = warm_queries(env);
    let ask = |filler: &mut Client| -> Result<Vec<String>, String> {
        queries.iter().map(|q| filler.send(&q.request())).collect()
    };
    let prefill = ask(&mut filler)?;
    let reference = ask(&mut filler)?;
    Ok(Warm {
        daemon,
        clients,
        prefill,
        reference,
    })
}

/// Checks a warm set-up's answers against the goldens. Returns, per warm
/// query, whether its store-hit answer is right.
fn check_warm(env: &Env, warm: &Warm, m: &mut Measurement) -> Vec<bool> {
    let queries = warm_queries(env);
    let mut good = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let want = env.golden.payload(&q.key());
        check_answer(m, &format!("prefill {}", q.key()), &warm.prefill[i], want);
        let before = m.failed;
        check_answer(m, &format!("warm {}", q.key()), &warm.reference[i], want);
        good.push(m.failed == before);
    }
    good
}

/// Parses a raw answer and checks its payload digest: one op.
fn check_answer(m: &mut Measurement, what: &str, line: &str, want: Option<&str>) {
    match parse_response(line) {
        Ok(resp) if resp.status == "ok" => {
            m.check(what, &digest(resp.payload.as_deref().unwrap_or("")), want)
        }
        Ok(resp) => {
            m.attempted += 1;
            m.fail(format!(
                "{what}: status {}: {}",
                resp.status,
                resp.error.unwrap_or_default()
            ));
        }
        Err(e) => {
            m.attempted += 1;
            m.fail(format!("{what}: {e}"));
        }
    }
}

/// Warm queries per unit of serve-warm's `wall_s` and `cpu_s`.
const WARM_UNIT_QUERIES: f64 = 1000.0;

/// The wire form of the timing object a `with_timing` answer appends
/// after the fields of the untimed answer.
const TIMING_FIELD: &str = ",\"timing\":";

fn warm_unit(
    env: &Env,
    dir: &Path,
    m: &mut Measurement,
    spans: Option<&SpanLog>,
) -> Result<(), String> {
    let began = Instant::now();
    let trace_file = spans.map(|_| dir.join("program.json"));
    let mut warm = {
        let _span = spans.map(|s| s.span("bench.setup", 0));
        warm_setup(env, dir, trace_file.as_deref())?
    };
    m.setups_s.push(began.elapsed().as_secs_f64());
    let daemon_start = spans
        .map(|s| s.now_s() - began.elapsed().as_secs_f64())
        .unwrap_or(0.0);
    let requests: Vec<_> = warm_queries(env)
        .iter()
        .map(|q| {
            if spans.is_some() {
                q.request().with_timing()
            } else {
                q.request()
            }
        })
        .collect();
    let pid = warm.daemon.pid();
    let cpu0 = cpu_secs(pid).unwrap_or(0.0);
    let phase = Duration::from_secs_f64(env.seconds);
    let t0 = Instant::now();
    let reference = &warm.reference;
    let results: Vec<ClientResult> = std::thread::scope(|s| {
        let handles: Vec<_> = std::mem::take(&mut warm.clients)
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let requests = &requests;
                s.spawn(move || {
                    let mut r = ClientResult::new(requests.len());
                    for idx in gen::warm_stream(env.seed, c, requests.len()) {
                        if t0.elapsed() >= phase {
                            break;
                        }
                        let _span = spans.map(|s| s.span("bench.query", c + 1));
                        let sent = Instant::now();
                        let line = client.send(&requests[idx]);
                        let rtt_ms = sent.elapsed().as_secs_f64() * 1e3;
                        r.attempted += 1;
                        let line = match line {
                            Ok(line) => line,
                            Err(e) => {
                                r.fail(format!("warm query {idx}: {e}"));
                                continue;
                            }
                        };
                        // A timed answer is the untimed one with the
                        // timing object spliced in before its last brace.
                        let want = &reference[idx];
                        let body = want.len().saturating_sub(1);
                        let same = match spans {
                            None => line == *want,
                            Some(_) => {
                                line.len() > want.len()
                                    && line[..body] == want[..body]
                                    && line[body..].starts_with(TIMING_FIELD)
                            }
                        };
                        if !same {
                            r.fail(format!("warm query {idx}: answer differs from the store's"));
                            continue;
                        }
                        r.answered[idx] += 1;
                        r.latencies_ms.push(rtt_ms);
                        if spans.is_some() {
                            let timing =
                                Json::parse(&line[body + TIMING_FIELD.len()..line.len() - 1]).ok();
                            r.timings
                                .push(QueryTiming::new(rtt_ms, true, timing.as_ref()));
                        }
                    }
                    r
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let cpu = cpu_secs(pid).unwrap_or(0.0) - cpu0;
    let rss = peak_rss_mb(pid).unwrap_or(0.0);
    let answered: u64 = results.iter().flat_map(|r| r.answered.iter()).sum();
    let per_unit = WARM_UNIT_QUERIES / answered.max(1) as f64;
    m.units.push(Unit {
        wall_s: elapsed * per_unit,
        cpu_s: cpu * per_unit,
        peak_rss_mb: rss,
    });
    let good = check_warm(env, &warm, m);
    let mut timings = Vec::new();
    for r in results {
        // Answers equal to a wrong reference are wrong too.
        for (idx, n) in r.answered.iter().enumerate() {
            if !good[idx] {
                m.failed += n;
            }
        }
        timings.extend(m.merge(r));
    }
    warm.daemon.shutdown()?;
    if let Some(file) = trace_file {
        m.trace = Some(TraceData {
            program: vec![read_trace(&file, daemon_start)?],
            timings,
            unit_wall_s: elapsed,
            ..TraceData::default()
        });
    }
    Ok(())
}

/// What one closed-loop client saw.
#[derive(Debug, Default)]
struct ClientResult {
    latencies_ms: Vec<f64>,
    timings: Vec<QueryTiming>,
    /// Answers accepted per warm query, or the raw answers of a replay.
    answered: Vec<u64>,
    lines: Vec<(String, f64)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl ClientResult {
    fn new(queries: usize) -> ClientResult {
        ClientResult {
            answered: vec![0; queries],
            ..ClientResult::default()
        }
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 4 {
            self.problems.push(problem);
        }
    }
}

impl Measurement {
    /// Folds one client's counts in; returns its query timings.
    fn merge(&mut self, r: ClientResult) -> Vec<QueryTiming> {
        self.latencies_ms.extend(r.latencies_ms);
        self.attempted += r.attempted;
        self.failed += r.failed;
        self.problems.extend(r.problems);
        self.problems.truncate(8);
        r.timings
    }
}

fn whatif_unit(
    env: &Env,
    dir: &Path,
    m: &mut Measurement,
    spans: Option<&SpanLog>,
) -> Result<(), String> {
    let began = Instant::now();
    let trace_file = spans.map(|_| dir.join("program.json"));
    let (daemon, clients) = {
        let _span = spans.map(|s| s.span("bench.setup", 0));
        serve_setup(dir, trace_file.as_deref(), env.clients)?
    };
    m.setups_s.push(began.elapsed().as_secs_f64());
    let daemon_start = spans
        .map(|s| s.now_s() - began.elapsed().as_secs_f64())
        .unwrap_or(0.0);
    let scripts = gen::whatif_script(env.seed, env.clients, env.quick);
    let pid = daemon.pid();
    let cpu0 = cpu_secs(pid).unwrap_or(0.0);
    let t0 = Instant::now();
    let results: Vec<ClientResult> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&scripts)
            .enumerate()
            .map(|(c, (mut client, script))| {
                s.spawn(move || replay(&mut client, script, spans, c + 1))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    m.units.push(Unit {
        wall_s: wall,
        cpu_s: cpu_secs(pid).unwrap_or(0.0) - cpu0,
        peak_rss_mb: peak_rss_mb(pid).unwrap_or(0.0),
    });
    daemon.shutdown()?;
    let mut timings = Vec::new();
    for (mut r, script) in results.into_iter().zip(&scripts) {
        for ((line, rtt_ms), entry) in std::mem::take(&mut r.lines).into_iter().zip(script) {
            let key = entry.query.key();
            let before = m.failed;
            check_answer(
                m,
                &format!("what-if {key}"),
                &line,
                env.golden.payload(&key),
            );
            if m.failed == before {
                r.latencies_ms.push(rtt_ms);
                if spans.is_some() {
                    if let Ok(resp) = parse_response(&line) {
                        r.timings.push(QueryTiming::new(
                            rtt_ms,
                            resp.from_store(),
                            resp.timing.as_ref(),
                        ));
                    }
                }
            }
        }
        timings.extend(m.merge(r));
    }
    if let Some(file) = trace_file {
        m.trace = Some(TraceData {
            program: vec![read_trace(&file, daemon_start)?],
            timings,
            unit_wall_s: wall,
            ..TraceData::default()
        });
    }
    Ok(())
}

/// Replays one client's share of the what-if script, keeping the raw
/// answers for checking once the unit is over.
fn replay(
    client: &mut Client,
    script: &[Entry],
    spans: Option<&SpanLog>,
    tid: usize,
) -> ClientResult {
    let mut r = ClientResult::default();
    for entry in script {
        let request = if spans.is_some() {
            entry.query.request().with_timing()
        } else {
            entry.query.request()
        };
        let _span = spans.map(|s| s.span("bench.query", tid));
        let sent = Instant::now();
        let line = client.send(&request);
        let rtt_ms = sent.elapsed().as_secs_f64() * 1e3;
        match line {
            Ok(line) => r.lines.push((line, rtt_ms)),
            Err(e) => {
                // Keep the script and its answers aligned.
                r.lines.push((String::new(), rtt_ms));
                r.problems
                    .push(format!("what-if {}: {e}", entry.query.key()));
            }
        }
    }
    r
}

/// Reads a program-side Chrome trace, to be placed `offset_s` into the
/// bench's own timeline.
fn read_trace(file: &Path, offset_s: f64) -> Result<(f64, Vec<Json>), String> {
    let text = std::fs::read_to_string(file)
        .map_err(|e| format!("cannot read trace {}: {e}", file.display()))?;
    let events = parse_events(&text).map_err(|e| format!("{}: {e}", file.display()))?;
    Ok((offset_s, events))
}
