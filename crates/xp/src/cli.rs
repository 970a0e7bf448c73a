//! The `xp` driver: one CLI for every experiment artifact.
//!
//! ```text
//! xp list                                   # what can be reproduced
//! xp run fig6 fig8                          # run two artifacts (text)
//! xp run all --format json --out results/   # everything, as JSON files
//! xp check results/                         # CI: re-parse emitted JSON
//! ```
//!
//! `run` unions the selected artifacts' sweep plans into one batch prime
//! through the runtime executor, then evaluates each artifact against the
//! warm cache; per-artifact internal primes become cache hits. With
//! `--out`, the driver writes one `<id>.json` per artifact plus a
//! `manifest.json` recording the configuration digest, suite, thread
//! count, wall time, and the prime sweep's report and metrics.

use crate::artifact::{ArtifactError, ArtifactErrorKind, SweepPlan};
use crate::configs::ExpConfig;
use crate::figures::default_suite;
use crate::lab::Lab;
use crate::query::{artifact_digest, config_digest, RegistryEngine, SET_KEYS};
use crate::registry::{ArtifactRegistry, RegistryOptions};
use crate::validation;
use common::json::Json;
use runtime::{FaultPlan, RetryPolicy};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::Scale;

/// Output format for `xp run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Historical text tables on stdout (the default).
    Text,
    /// Structured JSON (stdout, or files with `--out`).
    Json,
    /// Both text on stdout and JSON files/stdout.
    Both,
}

impl Format {
    fn wants_text(self) -> bool {
        matches!(self, Format::Text | Format::Both)
    }

    fn wants_json(self) -> bool {
        matches!(self, Format::Json | Format::Both)
    }
}

/// A parsed `xp` invocation.
#[derive(Debug)]
enum Command {
    List,
    Run(RunOptions),
    Check { dir: PathBuf },
    TraceSummary { file: PathBuf },
    Bench(crate::bench::BenchOptions),
    Serve(ServeOptions),
    Query(QueryOptions),
    Top(TopOptions),
}

/// `--smoke`, `--threads N` and `--no-validation`: the sweep settings
/// `run` and `serve` share.
#[derive(Debug)]
struct SweepFlags {
    scale: Scale,
    threads: usize,
    validation: bool,
}

/// Options for `xp serve`.
#[derive(Debug)]
struct ServeOptions {
    server: xpd::server::ServerConfig,
    sweep: SweepFlags,
    /// Record the whole serving session and write a Chrome trace here
    /// on shutdown (`xpd.*` counters feed `xp trace summary`).
    trace: Option<PathBuf>,
}

/// Options for `xp top`.
#[derive(Debug)]
struct TopOptions {
    endpoint: xpd::client::Endpoint,
    interval: Duration,
    /// Print a single frame and exit (CI and scripting).
    once: bool,
}

/// Options for `xp query`.
#[derive(Debug)]
struct QueryOptions {
    endpoint: xpd::client::Endpoint,
    request: common::proto::QueryRequest,
    timeout: Option<Duration>,
    /// Retries of busy/connect-refused/torn-response answers.
    retry: xpd::client::RetryPolicy,
}

/// Options for `xp run`.
#[derive(Debug)]
struct RunOptions {
    ids: Vec<String>,
    sweep: SweepFlags,
    format: Format,
    out: Option<PathBuf>,
    /// Skip journaled artifacts whose config digest still matches.
    resume: bool,
    /// Retries per sweep point beyond the first attempt.
    retries: u32,
    /// Cooperative per-point deadline.
    point_timeout: Option<Duration>,
    /// Parsed `--faults` specification, if any.
    faults: Option<FaultSpec>,
    /// Write a Chrome trace-event JSON of the run here.
    trace: Option<PathBuf>,
    /// Write the trace/sweep metrics summary JSON here.
    metrics_out: Option<PathBuf>,
}

const USAGE: &str = "usage: xp <command> [options]

commands:
  list                     list every artifact id and title
  run <id>... | run all    evaluate artifacts (see options below)
  check <dir>              re-parse JSON results emitted by `run --out`
  trace summary <file>     per-span statistics + counters from a --trace file
  bench                    time the simulator hot path (event-driven vs naive
                           cycle loop) and write BENCH_sim.json
  serve                    run the xpd what-if daemon: answer artifact queries
                           from a content-addressed disk store, computing cold
                           ones through the sweep executor
  query <id>               ask a running daemon for an artifact's JSON payload,
                           optionally re-parameterized with --set key=value
                           (exit codes: 0 ok, 1 error, 2 usage, 3 busy,
                           4 deadline expired)
  top                      live view of a running daemon (queue depth, rates,
                           hit ratio, latency quantiles), refreshed in place

run options:
  --smoke                  smoke-scale problems (fast; CI default)
  --threads N              sweep worker threads (default: auto)
  --no-validation          skip the fitting pipeline in repro_report/all_figures
  --format text|json|both  output format (default: text)
  --out DIR                write one <id>.json per artifact plus manifest.json
                           and journal.jsonl (one record per finished artifact)
  --resume DIR             like --out DIR, but skip artifacts already recorded
                           in DIR/journal.jsonl with a matching config digest
  --retries N              retry failed sweep points up to N times (default: 0)
  --point-timeout-ms MS    per-point deadline; late points count as timeouts
                           and are retried under --retries
  --faults SPEC            deterministic fault injection, e.g.
                           seed=7,panic=0.1,delay=0.05,delay-ms=100,poison=0.1,nan=0.05,dropout=0.05
  --trace FILE             record spans across runtime/sim/silicon/xp and write
                           Chrome trace-event JSON (perfetto / chrome://tracing)
  --metrics-out FILE       write per-span histograms, counters, and the sweep
                           report as one JSON summary

serve options:
  --socket PATH            listen on a Unix socket
  --tcp ADDR               listen on a TCP address (127.0.0.1:0 = any free
                           port; at least one of --socket/--tcp is required)
  --store DIR              result store directory (default: xpd-store)
  --store-cap-mb N         store size cap before LRU eviction (default: 256)
  --queue-cap N            queued cold queries before `busy` (default: 256)
  --trace FILE             record the serving session; write Chrome trace JSON
                           on shutdown (xpd.* counters feed `trace summary`)
  --durability POLICY      store write durability: none | flush | fsync
                           (default: flush; fsync also syncs the directory so
                           acknowledged answers survive power loss)
  --chaos-seed N           arm seeded fault injection at the daemon's I/O
                           boundaries (torn store writes, dropped responses,
                           delayed accepts) — recovery testing only; same
                           seed, same fault schedule
  --slow-ms MS             append requests slower than MS to <store>/slow.jsonl
                           (one JSONL record per slow request, with the same
                           per-phase timing breakdown --timing reports)
  --log FILE               append one structured JSONL event per request to
                           FILE, rotating once to FILE.1 at 4 MiB
  --smoke, --threads N, --no-validation   as for `run`

query options:
  --socket PATH | --tcp ADDR   where the daemon listens (required)
  --set KEY=VALUE          config delta applied to the artifact's whole sweep
                           (repeatable); keys: gpms (1-32), bw (1x|2x|4x),
                           topology (ring|switch|ideal), link_energy_mult,
                           link_compression, clock_scale, mlp (1-64)
  --stats                  print the daemon's live counters instead of a query
  --health                 print the daemon's readiness probe (queue depth,
                           in-flight count, store stats) instead of a query
  --shutdown               ask the daemon to shut down cleanly
  --metrics                print the daemon's continuous metrics as JSON:
                           gauges, cumulative counters, and a one-minute
                           window of rates and latency quantiles
  --prometheus             print the metrics in Prometheus text exposition
                           format instead (implies --metrics; the same body
                           the HTTP bridge serves at GET /metrics)
  --timing                 report the answer's per-phase timing breakdown
                           (queue wait, eval, store write) on stderr; the
                           stdout payload stays byte-identical
  --timeout-ms MS          client I/O timeout (default: wait indefinitely;
                           cold queries can take minutes)
  --deadline-ms MS         server-side deadline: work still queued when it
                           expires is answered `timeout` (exit 4), never
                           silently computed
  --retries N              retry busy/connect-refused/torn-response up to N
                           times (default: 0; safe — queries are idempotent)
  --backoff-ms MS          base of the jittered exponential backoff between
                           retries (default: 100)

top options:
  --socket PATH | --tcp ADDR   where the daemon listens (required)
  --interval-ms MS         refresh period (default: 2000)
  --once                   print one frame and exit (scripts and CI; plain
                           output also under NO_COLOR or a piped stdout)

bench options:
  --quick                  short measurement budgets (CI default)
  --out FILE               where to write the report (default: BENCH_sim.json)
  --baseline FILE          recorded BENCH_sim.json to gate against:
                           speedup drop >10% warns, >25% fails the run
  --filter SUBSTR          only scenarios whose name contains SUBSTR
                           (names are kind/gpms, e.g. memory/32gpm)
  --baseline-update        refresh the report in place, treating the existing
                           file as a throughput envelope: refuses to lower a
                           recorded event-loop cycles/sec floor
  --allow-regress          with --baseline-update, accept a lowered envelope
";

/// Parsed `--faults` specification: rates for each injected fault kind
/// plus the seed that makes the schedule deterministic.
#[derive(Debug, Clone, PartialEq)]
struct FaultSpec {
    seed: u64,
    panic: f64,
    delay: f64,
    delay_ms: u64,
    poison: f64,
    nan: f64,
    dropout: f64,
}

impl FaultSpec {
    fn parse(spec: &str) -> Result<FaultSpec, String> {
        let mut f = FaultSpec {
            seed: 0,
            panic: 0.0,
            delay: 0.0,
            delay_ms: 100,
            poison: 0.0,
            nan: 0.0,
            dropout: 0.0,
        };
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {part:?}"))?;
            let rate = |what: &str| -> Result<f64, String> {
                let v: f64 = value
                    .parse()
                    .map_err(|_| format!("{what} expects a number, got {value:?}"))?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(format!("{what} must be in [0, 1], got {value}"));
                }
                Ok(v)
            };
            match key.trim() {
                "seed" => {
                    f.seed = value
                        .parse()
                        .map_err(|_| format!("seed expects an integer, got {value:?}"))?
                }
                "panic" => f.panic = rate("panic")?,
                "delay" => f.delay = rate("delay")?,
                "delay-ms" => {
                    f.delay_ms = value
                        .parse()
                        .map_err(|_| format!("delay-ms expects an integer, got {value:?}"))?
                }
                "poison" => f.poison = rate("poison")?,
                "nan" => f.nan = rate("nan")?,
                "dropout" => f.dropout = rate("dropout")?,
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        Ok(f)
    }

    /// The runtime half: panics, latency, poisoned cache entries.
    fn fault_plan(&self) -> FaultPlan {
        FaultPlan::new(self.seed)
            .with_panic_rate(self.panic)
            .with_delay_rate(self.delay, Duration::from_millis(self.delay_ms))
            .with_poison_rate(self.poison)
    }

    /// The silicon half: sensor NaN glitches and dropouts.
    fn sensor_faults(&self) -> Option<silicon::SensorFaults> {
        let f = silicon::SensorFaults {
            nan_rate: self.nan,
            dropout_rate: self.dropout,
            seed: self.seed,
        };
        (!f.is_noop()).then_some(f)
    }
}

/// Disarms process-wide sensor faults when the run ends, on every exit
/// path.
struct SensorFaultGuard;

impl Drop for SensorFaultGuard {
    fn drop(&mut self) {
        silicon::arm_sensor_faults(None);
    }
}

/// Bytes per MiB, the unit of the `serve` size-cap flags.
const MIB: u64 = 1024 * 1024;

/// The arguments after one subcommand. Takes flag values and formats
/// every flag error the same way, as `xp <cmd>: <flag>: ...`.
struct Flags<'a> {
    cmd: &'a str,
    args: std::slice::Iter<'a, String>,
}

impl<'a> Flags<'a> {
    fn next(&mut self) -> Option<&'a str> {
        self.args.next().map(String::as_str)
    }

    fn invalid(&self, flag: &str, detail: impl std::fmt::Display) -> String {
        format!("xp {}: {flag}: {detail}", self.cmd)
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.next()
            .ok_or_else(|| self.invalid(flag, "missing value"))
    }

    fn path(&mut self, flag: &str) -> Result<PathBuf, String> {
        self.value(flag).map(PathBuf::from)
    }

    /// The value of `flag` as an integer of at least `min`.
    fn number<T>(&mut self, flag: &str, min: T) -> Result<T, String>
    where
        T: std::str::FromStr + PartialOrd + std::fmt::Display,
    {
        let value = self.value(flag)?;
        self.check_number(flag, value, min)
    }

    fn check_number<T>(&self, flag: &str, value: &str, min: T) -> Result<T, String>
    where
        T: std::str::FromStr + PartialOrd + std::fmt::Display,
    {
        value.parse().ok().filter(|n| *n >= min).ok_or_else(|| {
            self.invalid(flag, format!("expects an integer >= {min}, got {value:?}"))
        })
    }

    /// The value of `flag` as a positive number of milliseconds.
    fn millis(&mut self, flag: &str) -> Result<Duration, String> {
        self.number(flag, 1).map(Duration::from_millis)
    }

    fn unknown<T>(&self, arg: &str) -> Result<T, String> {
        Err(format!("xp {}: unknown option {arg}", self.cmd))
    }

    /// The next argument, which must exist.
    fn positional(&mut self, what: &str) -> Result<&'a str, String> {
        self.next()
            .ok_or_else(|| format!("xp {}: missing {what}", self.cmd))
    }

    /// Rejects a leftover argument.
    fn end(mut self) -> Result<(), String> {
        match self.next() {
            Some(arg) => Err(format!("xp {}: unexpected argument {arg:?}", self.cmd)),
            None => Ok(()),
        }
    }
}

impl SweepFlags {
    fn new() -> SweepFlags {
        SweepFlags {
            scale: Scale::Full,
            threads: runtime::resolve_threads(None),
            validation: true,
        }
    }

    /// Applies `arg` if it is a sweep flag; `Ok(false)` leaves it to the
    /// caller. `--threads` is strict: the historical warn-and-default
    /// path hid typos like `--threads 08x` behind autodetection.
    fn apply(&mut self, arg: &str, flags: &mut Flags) -> Result<bool, String> {
        match arg {
            "--smoke" => self.scale = Scale::Smoke,
            "--no-validation" => self.validation = false,
            "--threads" => self.threads = flags.number(arg, 1)?,
            _ => match arg.strip_prefix("--threads=") {
                Some(n) => self.threads = flags.check_number("--threads", n, 1)?,
                None => return Ok(false),
            },
        }
        Ok(true)
    }
}

/// The daemon `query` and `top` talk to: exactly one of `--socket` and
/// `--tcp`.
fn endpoint(
    cmd: &str,
    socket: Option<PathBuf>,
    tcp: Option<&str>,
) -> Result<xpd::client::Endpoint, String> {
    match (socket, tcp) {
        (Some(path), None) => Ok(xpd::client::Endpoint::Unix(path)),
        (None, Some(addr)) => Ok(xpd::client::Endpoint::Tcp(addr.to_string())),
        (None, None) => Err(format!(
            "xp {cmd}: no daemon endpoint (pass --socket PATH or --tcp ADDR)"
        )),
        (Some(_), Some(_)) => Err(format!(
            "xp {cmd}: --socket and --tcp are mutually exclusive"
        )),
    }
}

fn parse(args: &[String]) -> Result<Command, String> {
    let (cmd, rest) = args.split_first().ok_or_else(|| USAGE.to_string())?;
    let mut flags = Flags {
        cmd,
        args: rest.iter(),
    };
    match cmd.as_str() {
        "list" => flags.end().map(|()| Command::List),
        "check" => {
            let dir = PathBuf::from(flags.positional("results directory")?);
            flags.end()?;
            Ok(Command::Check { dir })
        }
        "trace" => {
            match flags.next() {
                Some("summary") => flags.cmd = "trace summary",
                Some(other) => {
                    return Err(format!(
                        "xp trace: unknown subcommand {other:?} (expected `summary`)"
                    ))
                }
                None => return Err("xp trace: missing subcommand `summary`".to_string()),
            }
            let file = PathBuf::from(flags.positional("trace file")?);
            flags.end()?;
            Ok(Command::TraceSummary { file })
        }
        "bench" => {
            let mut opts = crate::bench::BenchOptions::default();
            while let Some(arg) = flags.next() {
                match arg {
                    "--quick" => opts.quick = true,
                    "--out" => opts.out = Some(flags.path(arg)?),
                    "--baseline" => opts.baseline = Some(flags.path(arg)?),
                    "--filter" => opts.filter = Some(flags.value(arg)?.to_string()),
                    "--baseline-update" => opts.baseline_update = true,
                    "--allow-regress" => opts.allow_regress = true,
                    other => return flags.unknown(other),
                }
            }
            Ok(Command::Bench(opts))
        }
        "serve" => {
            let mut server = xpd::server::ServerConfig::new("xpd-store");
            let mut sweep = SweepFlags::new();
            let mut trace = None;
            while let Some(arg) = flags.next() {
                if sweep.apply(arg, &mut flags)? {
                    continue;
                }
                match arg {
                    "--socket" => server.socket = Some(flags.path(arg)?),
                    "--tcp" => server.tcp = Some(flags.value(arg)?.to_string()),
                    "--store" => server.store_dir = flags.path(arg)?,
                    "--store-cap-mb" => {
                        server.store_cap_bytes = flags.number::<u64>(arg, 1)?.saturating_mul(MIB)
                    }
                    "--queue-cap" => server.queue_cap = flags.number(arg, 1)?,
                    "--trace" => trace = Some(flags.path(arg)?),
                    "--durability" => {
                        let v = flags.value(arg)?;
                        server.durability =
                            xpd::store::Durability::parse(v).map_err(|e| flags.invalid(arg, e))?;
                    }
                    "--chaos-seed" => server.chaos_seed = Some(flags.number(arg, 0)?),
                    "--slow-ms" => server.slow_ms = Some(flags.number(arg, 1)?),
                    "--log" => server.log_file = Some(flags.path(arg)?),
                    other => return flags.unknown(other),
                }
            }
            if server.socket.is_none() && server.tcp.is_none() {
                return Err(
                    "xp serve: no endpoint (pass --socket PATH and/or --tcp ADDR)".to_string(),
                );
            }
            Ok(Command::Serve(ServeOptions {
                server,
                sweep,
                trace,
            }))
        }
        "query" => {
            use common::proto::{MetricsFormat, QueryRequest, RequestOp};
            const EXCLUSIVE: &str = "xp query: --stats, --health, --metrics, --shutdown, and an \
                                     artifact id are mutually exclusive";
            let (mut socket, mut tcp) = (None, None);
            let mut artifact: Option<&str> = None;
            // An artifact query until a daemon-op flag switches `op`.
            let mut request = QueryRequest::query("");
            let mut timeout = None;
            let mut retry = xpd::client::RetryPolicy {
                retries: 0,
                backoff: Duration::from_millis(100),
                jitter_seed: u64::from(std::process::id()),
            };
            while let Some(arg) = flags.next() {
                match arg {
                    "--socket" => socket = Some(flags.path(arg)?),
                    "--tcp" => tcp = Some(flags.value(arg)?),
                    "--set" => {
                        let v = flags.value(arg)?;
                        let (key, value) = v.split_once('=').ok_or_else(|| {
                            flags.invalid(
                                arg,
                                format!("expects KEY=VALUE, got {v:?} (keys: {SET_KEYS})"),
                            )
                        })?;
                        if request.sets.iter().any(|(prev, _)| prev == key) {
                            return Err(format!("xp query: duplicate --set key {key:?}"));
                        }
                        request.sets.push((key.to_string(), value.to_string()));
                    }
                    "--stats" | "--health" | "--shutdown" | "--metrics" | "--prometheus" => {
                        let op = match arg {
                            "--stats" => RequestOp::Stats,
                            "--health" => RequestOp::Health,
                            "--shutdown" => RequestOp::Shutdown,
                            _ => RequestOp::Metrics,
                        };
                        if ![RequestOp::Query, op].contains(&request.op) {
                            return Err(EXCLUSIVE.to_string());
                        }
                        request.op = op;
                        if arg == "--prometheus" {
                            request.format = MetricsFormat::Prometheus;
                        }
                    }
                    "--timing" => request.timing = true,
                    "--timeout-ms" => timeout = Some(flags.millis(arg)?),
                    "--deadline-ms" => request.deadline_ms = Some(flags.number(arg, 1)?),
                    "--retries" => retry.retries = flags.number(arg, 0)?,
                    "--backoff-ms" => retry.backoff = flags.millis(arg)?,
                    other if other.starts_with("--") => return flags.unknown(other),
                    id => {
                        if artifact.replace(id).is_some() {
                            return Err("xp query: more than one artifact id given".to_string());
                        }
                    }
                }
            }
            let endpoint = endpoint("query", socket, tcp)?;
            match (artifact, request.op) {
                (Some(id), RequestOp::Query) => request.artifact = id.to_string(),
                (Some(_), _) => return Err(EXCLUSIVE.to_string()),
                (None, RequestOp::Query) => {
                    return Err("xp query: no artifact id (or pass --stats / --health / \
                                --metrics / --shutdown)"
                        .to_string())
                }
                (None, _) => {
                    let artifact_only = [
                        (!request.sets.is_empty(), "--set"),
                        (request.deadline_ms.is_some(), "--deadline-ms"),
                        (request.timing, "--timing"),
                    ];
                    if let Some((_, flag)) = artifact_only.iter().find(|(given, _)| *given) {
                        return Err(format!("xp query: {flag} only applies to artifact queries"));
                    }
                }
            }
            Ok(Command::Query(QueryOptions {
                endpoint,
                request,
                timeout,
                retry,
            }))
        }
        "top" => {
            let (mut socket, mut tcp) = (None, None);
            let mut interval = Duration::from_millis(2000);
            let mut once = false;
            while let Some(arg) = flags.next() {
                match arg {
                    "--socket" => socket = Some(flags.path(arg)?),
                    "--tcp" => tcp = Some(flags.value(arg)?),
                    "--interval-ms" => interval = flags.millis(arg)?,
                    "--once" => once = true,
                    other => return flags.unknown(other),
                }
            }
            Ok(Command::Top(TopOptions {
                endpoint: endpoint("top", socket, tcp)?,
                interval,
                once,
            }))
        }
        "run" => {
            let mut opts = RunOptions {
                ids: Vec::new(),
                sweep: SweepFlags::new(),
                format: Format::Text,
                out: None,
                resume: false,
                retries: 0,
                point_timeout: None,
                faults: None,
                trace: None,
                metrics_out: None,
            };
            let mut explicit_out = false;
            while let Some(arg) = flags.next() {
                if opts.sweep.apply(arg, &mut flags)? {
                    continue;
                }
                match arg {
                    "--format" => {
                        opts.format = match flags.value(arg)? {
                            "text" => Format::Text,
                            "json" => Format::Json,
                            "both" => Format::Both,
                            other => {
                                return Err(flags.invalid(arg, format!("unknown format {other:?}")))
                            }
                        }
                    }
                    "--out" => {
                        opts.out = Some(flags.path(arg)?);
                        explicit_out = true;
                    }
                    "--resume" => {
                        opts.out = Some(flags.path(arg)?);
                        opts.resume = true;
                    }
                    "--retries" => opts.retries = flags.number(arg, 0)?,
                    "--point-timeout-ms" => opts.point_timeout = Some(flags.millis(arg)?),
                    "--faults" => {
                        let spec = flags.value(arg)?;
                        opts.faults =
                            Some(FaultSpec::parse(spec).map_err(|e| flags.invalid(arg, e))?);
                    }
                    "--trace" => opts.trace = Some(flags.path(arg)?),
                    "--metrics-out" => opts.metrics_out = Some(flags.path(arg)?),
                    other if other.starts_with("--") => return flags.unknown(other),
                    id => opts.ids.push(id.to_string()),
                }
            }
            if opts.resume && explicit_out {
                return Err(
                    "xp run: --out and --resume are mutually exclusive (resume implies the directory)"
                        .to_string(),
                );
            }
            if opts.ids.is_empty() {
                return Err(
                    "xp run: no artifact ids given (try `xp list`, or `xp run all`)".to_string(),
                );
            }
            Ok(Command::Run(opts))
        }
        other => Err(format!("xp: unknown command {other:?}\n\n{USAGE}")),
    }
}

/// Creates the output directory and proves it is writable *before* any
/// expensive simulation work starts, so a bad `--out` fails in
/// milliseconds instead of after the sweep.
fn prepare_out_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("xp run: cannot create {}: {e}", dir.display()))?;
    let probe = dir.join(".xp-write-probe");
    std::fs::write(&probe, b"probe\n").map_err(|e| {
        format!(
            "xp run: {} is not writable: {e} (fix permissions or pick another --out)",
            dir.display()
        )
    })?;
    let _ = std::fs::remove_file(&probe);
    Ok(())
}

/// Reads `journal.jsonl` from a prior `--out` run, keeping the last
/// record per artifact id. A missing journal means nothing to resume;
/// a corrupt one is an error (silently rerunning everything would mask
/// data loss).
fn load_journal(dir: &Path) -> Result<Vec<(String, Json)>, String> {
    let path = dir.join("journal.jsonl");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            eprintln!(
                "xp run: no journal at {}; running everything",
                path.display()
            );
            return Ok(Vec::new());
        }
        Err(e) => return Err(format!("xp run: cannot read {}: {e}", path.display())),
    };
    let records = Json::parse_jsonl(&text)
        .map_err(|e| format!("xp run: {} is corrupt: {e}", path.display()))?;
    let mut latest: Vec<(String, Json)> = Vec::new();
    for rec in records {
        let Some(id) = rec.get("artifact").and_then(Json::as_str) else {
            return Err(format!(
                "xp run: {}: record missing `artifact`",
                path.display()
            ));
        };
        let id = id.to_string();
        if let Some(slot) = latest.iter_mut().find(|(k, _)| *k == id) {
            slot.1 = rec;
        } else {
            latest.push((id, rec));
        }
    }
    Ok(latest)
}

/// Entry point for the `xp` binary. Returns the process exit code:
/// 0 on success, 1 on evaluation/IO failure, 2 on usage errors
/// (including unknown artifact ids).
pub fn main(args: &[String]) -> i32 {
    restore_default_sigpipe();
    match parse(args) {
        Err(msg) => {
            eprintln!("{msg}");
            2
        }
        Ok(Command::List) => {
            let registry = ArtifactRegistry::standard(&RegistryOptions::default());
            for artifact in registry.iter() {
                let marker = if artifact.composite() { "*" } else { " " };
                println!("{:<16}{marker} {}", artifact.id(), artifact.title());
            }
            println!("\n* composite: included in `run <id>` but not in `run all`");
            0
        }
        Ok(Command::Check { dir }) => check(&dir),
        Ok(Command::TraceSummary { file }) => trace_summary(&file),
        Ok(Command::Bench(opts)) => crate::bench::run(&opts),
        Ok(Command::Serve(opts)) => serve(&opts),
        Ok(Command::Query(opts)) => query(&opts),
        Ok(Command::Top(opts)) => top(&opts),
        Ok(Command::Run(opts)) => run(&opts),
    }
}

/// `xp serve`: run the `xpd` daemon over the artifact registry until a
/// client sends `--shutdown`.
fn serve(opts: &ServeOptions) -> i32 {
    let trace_session = opts
        .trace
        .is_some()
        .then(|| trace::session(trace::TraceConfig::default()));
    let sweep = &opts.sweep;
    let engine = std::sync::Arc::new(RegistryEngine::new(
        sweep.scale,
        sweep.threads,
        sweep.validation,
    ));
    let config = &opts.server;
    let server = match xpd::server::Server::bind(config.clone(), engine) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xp serve: {e}");
            return 1;
        }
    };
    // SIGINT/SIGTERM request the same graceful drain a client
    // `shutdown` does: stop accepting, finish queued work, flush the
    // store, exit 0. (`kill -9` is the crash the store's recovery path
    // exists for — CI exercises both.) SIGQUIT dumps the flight
    // recorder and keeps serving.
    install_shutdown_signals(server.stop_handle(), server.flight_recorder());
    if let Some(path) = &config.socket {
        eprintln!("xp serve: listening on {}", path.display());
    }
    if let Some(addr) = server.tcp_addr() {
        eprintln!("xp serve: listening on tcp {addr}");
    }
    eprintln!(
        "xp serve: store {} (cap {} MiB, durability {}), scale {:?}, {} thread(s)",
        config.store_dir.display(),
        config.store_cap_bytes / MIB,
        config.durability,
        sweep.scale,
        sweep.threads
    );
    let code = match server.run() {
        Ok(()) => {
            eprintln!("xp serve: shut down cleanly");
            0
        }
        Err(e) => {
            eprintln!("xp serve: {e}");
            1
        }
    };
    if let (Some(session), Some(path)) = (trace_session, &opts.trace) {
        let snapshot = session.finish();
        let body = format!("{}\n", trace::export::chrome_trace(&snapshot).render());
        match std::fs::write(path, body) {
            Ok(()) => eprintln!(
                "xp serve: wrote {} trace event(s) to {}",
                snapshot.events.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("xp serve: cannot write {}: {e}", path.display());
                return 1;
            }
        }
    }
    code
}

/// Signal-to-drain plumbing for `xp serve`: the C handler may only
/// touch an atomic, so it trips this flag and a watcher thread performs
/// the actual graceful stop.
static SHUTDOWN_REQUESTED: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

/// Trips on SIGQUIT: the watcher dumps the flight recorder and keeps
/// serving — a diagnostic snapshot, not a shutdown.
static FLIGHT_DUMP_REQUESTED: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_signum: i32) {
    SHUTDOWN_REQUESTED.store(true, std::sync::atomic::Ordering::SeqCst);
}

extern "C" fn on_flight_dump_signal(_signum: i32) {
    FLIGHT_DUMP_REQUESTED.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// The one C symbol the CLI needs: `signal(2)`. `std` exposes no signal
/// API, and declaring the libc function directly keeps the workspace
/// dependency-free. Handlers travel as raw addresses so one declaration
/// covers both installing a Rust handler and restoring `SIG_DFL` (0).
unsafe fn install_signal(signum: i32, handler: usize) {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    signal(signum, handler);
}

/// Rust's startup ignores SIGPIPE, which turns `xp top | head` into a
/// broken-pipe panic on the next stdout write instead of the silent
/// exit every Unix filter gives. Restore the default disposition before
/// any output happens.
fn restore_default_sigpipe() {
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    unsafe { install_signal(SIGPIPE, SIG_DFL) };
}

/// Routes SIGINT/SIGTERM to the server's graceful-stop handle and
/// SIGQUIT to an on-demand flight-recorder dump.
fn install_shutdown_signals(
    handle: xpd::server::StopHandle,
    flight: std::sync::Arc<xpd::flightrec::FlightRecorder>,
) {
    const SIGINT: i32 = 2;
    const SIGQUIT: i32 = 3;
    const SIGTERM: i32 = 15;
    unsafe {
        install_signal(SIGINT, on_shutdown_signal as *const () as usize);
        install_signal(SIGTERM, on_shutdown_signal as *const () as usize);
        install_signal(SIGQUIT, on_flight_dump_signal as *const () as usize);
    }
    let spawned = std::thread::Builder::new()
        .name("xp-serve-signals".to_string())
        .spawn(move || loop {
            if FLIGHT_DUMP_REQUESTED.swap(false, std::sync::atomic::Ordering::SeqCst) {
                match flight.dump("sigquit") {
                    Ok(path) => eprintln!("xp serve: flight recorder dumped to {}", path.display()),
                    Err(e) => eprintln!("xp serve: flight recorder dump failed: {e}"),
                }
            }
            if SHUTDOWN_REQUESTED.load(std::sync::atomic::Ordering::SeqCst) {
                eprintln!("xp serve: shutdown signal received; draining");
                handle.stop();
                return;
            }
            std::thread::sleep(Duration::from_millis(100));
        });
    if let Err(e) = spawned {
        eprintln!("xp serve: cannot watch for signals: {e}");
    }
}

/// `xp query`: one request against a running daemon, with optional
/// retries. Artifact payloads go to stdout verbatim (byte-identical to
/// the file `xp run --out` writes); digests, sources, and stats
/// commentary go to stderr.
fn query(opts: &QueryOptions) -> i32 {
    let outcome =
        xpd::client::request_with_retries(&opts.endpoint, &opts.request, opts.timeout, &opts.retry);
    let response = match outcome {
        Ok(r) => r,
        Err(e) => {
            // Typed classification, not string matching: a retryable
            // failure that survived every attempt still names itself.
            if e.is_retryable() && opts.retry.retries > 0 {
                eprintln!(
                    "xp query: giving up after {} retries: {e}",
                    opts.retry.retries
                );
            } else {
                eprintln!("xp query: {e}");
            }
            return 1;
        }
    };
    match response.status.as_str() {
        "busy" => {
            eprintln!(
                "xp query: daemon busy: {}",
                response.error.as_deref().unwrap_or("queue full")
            );
            3
        }
        "timeout" => {
            eprintln!(
                "xp query: {}",
                response.error.as_deref().unwrap_or("deadline expired")
            );
            4
        }
        "error" => {
            eprintln!(
                "xp query: {}",
                response.error.as_deref().unwrap_or("unknown error")
            );
            1
        }
        _ => {
            if let Some(stats) = &response.stats {
                println!("{}", stats.render_pretty().trim_end());
            } else if let Some(metrics) = &response.metrics {
                // Prometheus text rides the wire as one JSON string;
                // the JSON rendering is a structured object.
                match metrics.as_str() {
                    Some(text) => print!("{text}"),
                    None => println!("{}", metrics.render_pretty().trim_end()),
                }
                if std::io::stdout().flush().is_err() {
                    return 1;
                }
            } else if let Some(payload) = &response.payload {
                let source = match response.source {
                    Some(common::proto::Source::Store) => "store",
                    Some(common::proto::Source::Computed) => "computed",
                    None => "?",
                };
                eprintln!(
                    "xp query: {} digest={} source={source}",
                    opts.request.artifact,
                    response.digest.as_deref().unwrap_or("?")
                );
                if let Some(timing) = &response.timing {
                    // Stderr with the other commentary: the payload on
                    // stdout stays byte-identical to `xp run --out`.
                    eprintln!("xp query: timing {}", timing.render());
                }
                print!("{payload}");
                if std::io::stdout().flush().is_err() {
                    return 1;
                }
            } else {
                // Shutdown acknowledgement.
                eprintln!("xp query: daemon acknowledged");
            }
            0
        }
    }
}

/// `xp top`: a live, refreshing view of a running daemon built from its
/// `metrics` and `health` ops. Redraws in place on interactive
/// terminals; with `--once`, `NO_COLOR`, `TERM=dumb`, or a piped
/// stdout it prints plain frames instead.
fn top(opts: &TopOptions) -> i32 {
    let fancy = !opts.once && top_wants_ansi();
    let mut first = true;
    loop {
        let frame = match top_frame(&opts.endpoint) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("xp top: {e}");
                return 1;
            }
        };
        if fancy {
            // Home + clear: each frame repaints over the previous one.
            print!("\x1b[H\x1b[2J{frame}");
        } else {
            if !first {
                println!();
            }
            print!("{frame}");
        }
        if std::io::stdout().flush().is_err() {
            return 1;
        }
        if opts.once {
            return 0;
        }
        first = false;
        std::thread::sleep(opts.interval);
    }
}

/// Whether `xp top` may redraw with ANSI escapes: an interactive
/// stdout, no `NO_COLOR`, and a terminal that is not `dumb` — the same
/// detection the runtime's progress reporting uses.
fn top_wants_ansi() -> bool {
    use std::io::IsTerminal;
    std::env::var_os("NO_COLOR").is_none()
        && std::env::var("TERM").map(|t| t != "dumb").unwrap_or(true)
        && std::io::stdout().is_terminal()
}

/// One rendered `xp top` frame: readiness, uptime, queue/store gauges,
/// request rate and hit ratio, and the last minute's latency quantiles.
fn top_frame(endpoint: &xpd::client::Endpoint) -> Result<String, String> {
    let timeout = Some(Duration::from_secs(5));
    let mut conn =
        xpd::client::Connection::connect(endpoint, timeout).map_err(|e| e.message().to_string())?;
    let metrics = conn
        .request(&common::proto::QueryRequest::metrics(
            common::proto::MetricsFormat::Json,
        ))
        .map_err(|e| e.message().to_string())?;
    let health = conn
        .request(&common::proto::QueryRequest::health())
        .map_err(|e| e.message().to_string())?;
    let doc = metrics
        .metrics
        .ok_or_else(|| "daemon answered without a metrics document".to_string())?;
    let ready = match health
        .stats
        .as_ref()
        .and_then(|h| h.get("ready"))
        .and_then(Json::as_bool)
    {
        Some(true) => "ready",
        Some(false) => "not ready",
        None => "?",
    };

    let num = |path: &[&str]| -> f64 {
        let mut cur = &doc;
        for key in path {
            match cur.get(key) {
                Some(next) => cur = next,
                None => return 0.0,
            }
        }
        cur.as_f64().unwrap_or(0.0)
    };
    let hits = num(&["counters", "xpd.store.hit"]);
    let misses = num(&["counters", "xpd.store.miss"]);
    let lookups = hits + misses;

    let mut out = String::new();
    out.push_str(&format!(
        "xpd {endpoint} — {ready}, up {}, pid {}\n",
        format_uptime(num(&["uptime_secs"])),
        num(&["pid"]) as u64
    ));
    out.push_str(&format!(
        "queue {}/{}   in-flight {}   store {} entries / {:.1} MiB\n",
        num(&["gauges", "queue_depth"]) as u64,
        num(&["gauges", "queue_cap"]) as u64,
        num(&["gauges", "inflight"]) as u64,
        num(&["gauges", "store_entries"]) as u64,
        num(&["gauges", "store_bytes"]) / (1024.0 * 1024.0)
    ));
    out.push_str(&format!(
        "requests {} total   {:.2}/s (1m)",
        num(&["counters", "xpd.request"]) as u64,
        num(&["window_1m", "rates", "xpd.request"])
    ));
    if lookups > 0.0 {
        out.push_str(&format!("   hit ratio {:.1}%", 100.0 * hits / lookups));
    }
    let chaos = num(&["counters", "xpd.chaos.injected"]);
    if chaos > 0.0 {
        out.push_str(&format!("   chaos {}", chaos as u64));
    }
    out.push('\n');
    let latency = doc
        .get("window_1m")
        .and_then(|w| w.get("latency"))
        .and_then(Json::as_object)
        .unwrap_or(&[]);
    if !latency.is_empty() {
        out.push_str("latency, last 1m (ms):\n");
        for (name, h) in latency {
            let short = name.strip_prefix("xpd.").unwrap_or(name);
            let g = |k: &str| h.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            out.push_str(&format!(
                "  {short:<28} p50 {:>9.2}  p99 {:>9.2}  max {:>9.2}  (n={})\n",
                g("p50_ms"),
                g("p99_ms"),
                g("max_ms"),
                g("count") as u64
            ));
        }
    }
    Ok(out)
}

/// `4242.0` seconds → `"1h10m"`, `"7m02s"`, or `"42s"`.
fn format_uptime(secs: f64) -> String {
    let s = secs as u64;
    if s >= 3600 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{s}s")
    }
}

/// `xp trace summary <file>`: rebuild per-span statistics (count, total,
/// p50/p90/p99, max) from an exported Chrome trace and print them as a
/// table, largest total first, followed by a table of the trace's
/// counters (e.g. the `sim.ff.*` fast-forward statistics).
fn trace_summary(file: &Path) -> i32 {
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xp trace summary: cannot read {}: {e}", file.display());
            return 1;
        }
    };
    let json = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!(
                "xp trace summary: {} is not valid JSON: {e}",
                file.display()
            );
            return 1;
        }
    };
    let (stats, unmatched) = match trace::export::span_stats_from_chrome_trace(&json) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xp trace summary: {}: {e}", file.display());
            return 1;
        }
    };
    let counters = trace::export::counters_from_chrome_trace(&json).unwrap_or_default();
    if stats.is_empty() && counters.is_empty() {
        println!("no span or counter events in {}", file.display());
        return 0;
    }
    if !stats.is_empty() {
        print!("{}", trace::export::summary_table(&stats));
    }
    if !counters.is_empty() {
        if !stats.is_empty() {
            println!();
        }
        print!("{}", trace::export::counters_table(&counters));
        if let Some(block) = xpd_counters_block(&counters) {
            print!("{block}");
        }
    }
    if unmatched > 0 {
        eprintln!(
            "xp trace summary: {unmatched} unmatched event(s) skipped \
             (ring buffers dropped their oldest events during capture)"
        );
    }
    0
}

/// Derived serving statistics for traces that carry `xpd.*` counters
/// (a daemon session recorded with `xp serve --trace`): store hit rate,
/// in-flight dedup joins, queue pressure, and batching shape. `None`
/// when the trace has no daemon activity.
fn xpd_counters_block(counters: &[(String, u64)]) -> Option<String> {
    if !counters.iter().any(|(name, _)| name.starts_with("xpd.")) {
        return None;
    }
    let get = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    let hits = get("xpd.store.hit");
    let misses = get("xpd.store.miss");
    let lookups = hits + misses;
    let batches = get("xpd.batch");
    let points = get("xpd.batch_points");
    let mut out = String::new();
    out.push_str("\nserving (xpd):\n");
    out.push_str(&format!("  requests          {:>8}\n", get("xpd.request")));
    if lookups > 0 {
        out.push_str(&format!(
            "  store hit rate    {:>7.1}% ({hits} hit / {misses} miss)\n",
            100.0 * hits as f64 / lookups as f64
        ));
    }
    out.push_str(&format!(
        "  store evictions   {:>8}\n",
        get("xpd.store.eviction")
    ));
    if get("xpd.store.corrupt") > 0 {
        out.push_str(&format!(
            "  store quarantined {:>8}  (checksum failures, self-healed)\n",
            get("xpd.store.corrupt")
        ));
    }
    out.push_str(&format!(
        "  in-flight joins   {:>8}\n",
        get("xpd.inflight_join")
    ));
    out.push_str(&format!(
        "  queue peak depth  {:>8}  (enqueued {}, rejected {})\n",
        get("xpd.queue.peak_depth"),
        get("xpd.queue.enqueued"),
        get("xpd.queue.rejected")
    ));
    if get("xpd.timeout") > 0 {
        out.push_str(&format!("  deadline expiries {:>8}\n", get("xpd.timeout")));
    }
    if get("xpd.chaos.injected") > 0 {
        out.push_str(&format!(
            "  chaos injections  {:>8}\n",
            get("xpd.chaos.injected")
        ));
    }
    if batches > 0 {
        out.push_str(&format!(
            "  batches           {:>8}  (mean {:.1} queries/batch)\n",
            batches,
            points as f64 / batches as f64
        ));
    }
    Some(out)
}

fn run(opts: &RunOptions) -> i32 {
    let registry = ArtifactRegistry::standard(&RegistryOptions {
        validation: opts.sweep.validation,
    });

    // Resolve ids; `all` expands to every non-composite artifact.
    let mut ids: Vec<&str> = Vec::new();
    for id in &opts.ids {
        if id == "all" {
            for a in registry.all_ids() {
                if !ids.contains(&a) {
                    ids.push(a);
                }
            }
        } else if registry.get(id).is_some() {
            if !ids.contains(&id.as_str()) {
                ids.push(registry.get(id).unwrap().id());
            }
        } else {
            eprintln!("xp run: unknown artifact {id:?} (try `xp list`)");
            return 2;
        }
    }

    // Fail fast on an unusable --out before any simulation work.
    if let Some(dir) = &opts.out {
        if let Err(msg) = prepare_out_dir(dir) {
            eprintln!("{msg}");
            return 1;
        }
    }

    // Prior journal records (last per artifact) when resuming.
    let prior: Vec<(String, Json)> = if opts.resume {
        match load_journal(opts.out.as_deref().expect("--resume implies --out")) {
            Ok(j) => j,
            Err(msg) => {
                eprintln!("{msg}");
                return 1;
            }
        }
    } else {
        Vec::new()
    };

    let started = Instant::now();

    // Decide, per artifact, whether a journaled result still stands:
    // status ok, same config digest, artifact file still on disk.
    let mut digests: Vec<(String, String)> = Vec::new();
    let mut to_run: Vec<&str> = Vec::new();
    let mut resumed: Vec<&str> = Vec::new();
    for id in &ids {
        let art_digest = artifact_digest(
            &registry.get(id).unwrap().plan(),
            opts.sweep.scale,
            opts.sweep.validation,
        );
        let keep = opts.resume
            && prior.iter().any(|(k, rec)| {
                k == *id
                    && rec.get("status").and_then(Json::as_str) == Some("ok")
                    && rec.get("digest").and_then(Json::as_str) == Some(art_digest.as_str())
            })
            && opts
                .out
                .as_ref()
                .map(|d| d.join(format!("{id}.json")).is_file())
                .unwrap_or(false);
        digests.push(((*id).to_string(), art_digest));
        if keep {
            resumed.push(id);
        } else {
            to_run.push(id);
        }
    }
    if opts.resume {
        eprintln!(
            "xp run: resuming; {} artifact(s) up to date, {} to run",
            resumed.len(),
            to_run.len()
        );
    }

    // Recording starts before the lab exists so the batch prime, every
    // artifact evaluation, and all runtime/sim/silicon activity under
    // them land in one session.
    let trace_session = (opts.trace.is_some() || opts.metrics_out.is_some())
        .then(|| trace::session(trace::TraceConfig::default()));

    let mut lab = Lab::with_threads(opts.sweep.scale, opts.sweep.threads);
    let mut policy = RetryPolicy::retries(opts.retries);
    if let Some(deadline) = opts.point_timeout {
        policy = policy.with_deadline(deadline);
    }
    lab = lab.with_retry_policy(policy);
    if let Some(spec) = &opts.faults {
        lab = lab.with_faults(spec.fault_plan());
        silicon::arm_sensor_faults(spec.sensor_faults());
    }
    let _sensor_guard = SensorFaultGuard;
    let suite = default_suite();

    // Union the plans of the artifacts that will actually run.
    let mut plan = SweepPlan::none();
    for id in &to_run {
        plan.merge(registry.get(id).unwrap().plan());
    }
    let mut configs: Vec<ExpConfig> = Vec::new();
    let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
    for cfg in plan.configs {
        if seen.insert(format!("{cfg:?}")) {
            configs.push(cfg);
        }
    }
    let digest = config_digest(&configs);

    // Pre-warm the shared fit cache so per-artifact fits are lookups. A
    // failed fit is not cached: each artifact that needs it retries and
    // reports its own typed error.
    if plan.needs_fit {
        let _ = validation::fit_model_cached(&lab);
    }

    // One batch prime through the executor; artifact-internal primes
    // against the same points become cache hits. A fully-resumed batch
    // primes nothing.
    let mut points = Vec::with_capacity(suite.len() * (configs.len() + 1));
    if !to_run.is_empty() {
        for w in &suite {
            points.push((w.clone(), ExpConfig::baseline()));
            for cfg in &configs {
                points.push((w.clone(), cfg.clone()));
            }
        }
    }
    let sweep_report = lab.prime(&points);

    // The journal is rewritten each run: surviving records are carried
    // over as artifacts are visited, fresh records appended and flushed
    // as each artifact finishes, so a crash loses at most the artifact
    // in flight.
    let mut journal_file = match &opts.out {
        Some(dir) => {
            let path = dir.join("journal.jsonl");
            match std::fs::File::create(&path) {
                Ok(f) => Some(f),
                Err(e) => {
                    eprintln!("xp run: cannot write {}: {e}", path.display());
                    return 1;
                }
            }
        }
        None => None,
    };
    let journal_append = |file: &mut Option<std::fs::File>, rec: &Json| -> Result<(), String> {
        if let Some(f) = file.as_mut() {
            f.write_all(rec.render_jsonl_line().as_bytes())
                .and_then(|()| f.flush())
                .map_err(|e| format!("xp run: cannot append to journal: {e}"))?;
        }
        Ok(())
    };

    let mut manifest_artifacts = Json::array();
    let mut failures: Vec<ArtifactError> = Vec::new();
    let multi = ids.len() > 1;
    for id in &ids {
        let artifact = registry.get(id).unwrap();
        let art_digest = digests
            .iter()
            .find(|(k, _)| k == *id)
            .map(|(_, d)| d.clone())
            .unwrap();

        let mut entry = Json::object();
        entry.insert("id", artifact.id());
        entry.insert("title", artifact.title());

        if resumed.contains(id) {
            eprintln!("xp run: {id}: up to date, skipped (resume)");
            entry.insert("resumed", true);
            entry.insert("file", format!("{id}.json").as_str());
            manifest_artifacts.push(entry);
            let rec = prior
                .iter()
                .find(|(k, _)| k == *id)
                .map(|(_, r)| r.clone())
                .unwrap();
            if let Err(msg) = journal_append(&mut journal_file, &rec) {
                eprintln!("{msg}");
                return 1;
            }
            continue;
        }

        let eval_started = Instant::now();
        // Per-artifact span with a dynamic name; the string only
        // materializes while a session records.
        let _artifact_span = if trace::enabled() {
            trace::span(format!("xp.artifact.{id}"))
        } else {
            trace::Span::disabled()
        };
        // Isolate each artifact: a panic (e.g. an injected fault that
        // exhausted its retries) fails this artifact, not the batch.
        let outcome = catch_unwind(AssertUnwindSafe(|| artifact.evaluate(&lab, &suite)));
        let elapsed = eval_started.elapsed().as_secs_f64();
        let result = match outcome {
            Ok(r) => r,
            Err(payload) => Err(ArtifactError::new(
                *id,
                "evaluate",
                ArtifactErrorKind::Sweep(runtime::cache::panic_message(payload.as_ref())),
            )),
        };
        entry.insert("eval_secs", elapsed);

        let mut journal_rec = Json::object();
        journal_rec.insert("artifact", *id);
        journal_rec.insert("digest", art_digest.as_str());

        match result {
            Ok(data) => {
                if opts.format.wants_text() {
                    if multi {
                        println!("== {id} ==");
                    }
                    print!("{}", data.text);
                }
                journal_rec.insert("status", "ok");
                if let Some(dir) = &opts.out {
                    let file = format!("{id}.json");
                    let path = dir.join(&file);
                    if let Err(e) =
                        std::fs::write(&path, format!("{}\n", data.json.render_pretty()))
                    {
                        eprintln!("xp run: cannot write {}: {e}", path.display());
                        return 1;
                    }
                    entry.insert("file", file.as_str());
                    journal_rec.insert("file", file.as_str());
                } else if opts.format.wants_json() {
                    println!("{}", data.json.render_pretty());
                }
            }
            Err(err) => {
                eprintln!("xp run: {err} (continuing with remaining artifacts)");
                entry.insert("error", err.to_json());
                journal_rec.insert("status", "failed");
                journal_rec.insert("error", err.to_string().as_str());
                failures.push(err);
            }
        }
        journal_rec.insert("eval_secs", elapsed);
        manifest_artifacts.push(entry);
        if let Err(msg) = journal_append(&mut journal_file, &journal_rec) {
            eprintln!("{msg}");
            return 1;
        }
    }

    if let Some(dir) = &opts.out {
        let mut manifest = Json::object();
        manifest.insert("schema_version", 1usize);
        manifest.insert("scale", format!("{:?}", opts.sweep.scale).as_str());
        manifest.insert("threads", lab.threads());
        manifest.insert("validation", opts.sweep.validation);
        manifest.insert("config_digest", digest.as_str());
        manifest.insert("planned_configs", configs.len());
        let mut suite_names = Json::array();
        for w in &suite {
            suite_names.push(w.name);
        }
        manifest.insert("suite", suite_names);
        manifest.insert("artifacts", manifest_artifacts);
        let mut failed = Json::array();
        for err in &failures {
            failed.push(err.to_json());
        }
        manifest.insert("failed_artifacts", failed);
        manifest.insert("resumed_artifacts", resumed.len());
        manifest.insert("sweep", sweep_report.to_json());
        let mut history = Json::array();
        for m in lab.sweep_history() {
            history.push(m.to_json());
        }
        manifest.insert("sweeps", history);
        manifest.insert("cached_runs", lab.cached_runs());
        manifest.insert("wall_time_secs", started.elapsed().as_secs_f64());
        let path = dir.join("manifest.json");
        if let Err(e) = std::fs::write(&path, format!("{}\n", manifest.render_pretty())) {
            eprintln!("xp run: cannot write {}: {e}", path.display());
            return 1;
        }
        eprintln!(
            "wrote {} artifact file(s) + manifest.json to {}",
            ids.len(),
            dir.display()
        );
    }

    if let Some(session) = trace_session {
        let snapshot = session.finish();
        if let Some(path) = &opts.trace {
            let body = format!("{}\n", trace::export::chrome_trace(&snapshot).render());
            if let Err(e) = std::fs::write(path, body) {
                eprintln!("xp run: cannot write {}: {e}", path.display());
                return 1;
            }
            eprintln!(
                "wrote {} trace event(s) to {} (load in perfetto or chrome://tracing)",
                snapshot.events.len(),
                path.display()
            );
            if snapshot.dropped_events > 0 {
                eprintln!(
                    "xp run: trace ring buffers dropped {} oldest event(s); \
                     histograms still cover every span",
                    snapshot.dropped_events
                );
            }
        }
        if let Some(path) = &opts.metrics_out {
            let mut metrics = Json::object();
            metrics.insert("schema_version", 1usize);
            metrics.insert("trace", trace::export::summary(&snapshot));
            metrics.insert("sweep", sweep_report.to_json());
            if let Err(e) = std::fs::write(path, format!("{}\n", metrics.render_pretty())) {
                eprintln!("xp run: cannot write {}: {e}", path.display());
                return 1;
            }
            eprintln!("wrote metrics summary to {}", path.display());
        }
    }

    lab.print_sweep_summary();
    if failures.is_empty() {
        0
    } else {
        eprintln!(
            "xp run: {} of {} artifact(s) failed",
            failures.len(),
            ids.len()
        );
        1
    }
}

/// `xp check <dir>`: every JSON file `run --out` emitted must re-parse
/// through the strict parser, and the manifest must reference only files
/// that exist. The CI gate against schema regressions.
fn check(dir: &Path) -> i32 {
    let manifest_path = dir.join("manifest.json");
    let manifest = match std::fs::read_to_string(&manifest_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xp check: cannot read {}: {e}", manifest_path.display());
            return 1;
        }
    };
    let manifest = match Json::parse(&manifest) {
        Ok(j) => j,
        Err(e) => {
            eprintln!(
                "xp check: {} is not valid JSON: {e}",
                manifest_path.display()
            );
            return 1;
        }
    };

    let artifacts = match manifest.get("artifacts").and_then(Json::as_array) {
        Some(a) => a,
        None => {
            eprintln!(
                "xp check: {} has no `artifacts` array",
                manifest_path.display()
            );
            return 1;
        }
    };

    let mut checked = 0usize;
    for entry in artifacts {
        let id = entry.get("id").and_then(Json::as_str).unwrap_or("?");
        let Some(file) = entry.get("file").and_then(Json::as_str) else {
            continue;
        };
        let path = dir.join(file);
        let body = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!(
                    "xp check: artifact {id}: cannot read {}: {e}",
                    path.display()
                );
                return 1;
            }
        };
        let json = match Json::parse(&body) {
            Ok(j) => j,
            Err(e) => {
                eprintln!(
                    "xp check: artifact {id}: {} is not valid JSON: {e}",
                    path.display()
                );
                return 1;
            }
        };
        if json.get("id").and_then(Json::as_str) != Some(id) {
            eprintln!(
                "xp check: artifact {id}: {} has mismatched `id`",
                path.display()
            );
            return 1;
        }
        checked += 1;
    }
    println!("xp check: manifest.json + {checked} artifact file(s) parse cleanly");
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_rejects_unknown_commands_and_empty_runs() {
        assert!(parse(&argv(&["frobnicate"])).is_err());
        assert!(parse(&argv(&["run"])).is_err());
        assert!(parse(&argv(&["run", "--format", "yaml", "fig2"])).is_err());
        assert!(parse(&argv(&["check"])).is_err());
        // Leftover arguments are usage errors, not silently ignored.
        assert_eq!(
            parse(&argv(&["list", "X"])).unwrap_err(),
            "xp list: unexpected argument \"X\""
        );
        assert_eq!(
            parse(&argv(&["check", "results", "X"])).unwrap_err(),
            "xp check: unexpected argument \"X\""
        );
    }

    #[test]
    fn parse_accepts_the_documented_flags() {
        let Ok(Command::Run(opts)) = parse(&argv(&[
            "run",
            "all",
            "--smoke",
            "--threads",
            "2",
            "--no-validation",
            "--format",
            "both",
            "--out",
            "results",
            "--retries",
            "3",
            "--point-timeout-ms",
            "1500",
            "--faults",
            "seed=7,panic=0.2,poison=0.1",
            "--trace",
            "out.trace.json",
            "--metrics-out",
            "metrics.json",
        ])) else {
            panic!("expected a run command");
        };
        assert_eq!(opts.ids, vec!["all"]);
        assert_eq!(opts.sweep.scale, Scale::Smoke);
        assert_eq!(opts.sweep.threads, 2);
        assert!(!opts.sweep.validation);
        assert_eq!(opts.format, Format::Both);
        assert_eq!(opts.out.as_deref(), Some(Path::new("results")));
        assert!(!opts.resume);
        assert_eq!(opts.retries, 3);
        assert_eq!(opts.point_timeout, Some(Duration::from_millis(1500)));
        let spec = opts.faults.expect("faults parsed");
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.panic, 0.2);
        assert_eq!(spec.poison, 0.1);
        assert_eq!(spec.nan, 0.0);
        assert_eq!(opts.trace.as_deref(), Some(Path::new("out.trace.json")));
        assert_eq!(opts.metrics_out.as_deref(), Some(Path::new("metrics.json")));
    }

    #[test]
    fn trace_summary_parses_and_rejects_bad_forms() {
        let Ok(Command::TraceSummary { file }) = parse(&argv(&["trace", "summary", "t.json"]))
        else {
            panic!("expected a trace summary command");
        };
        assert_eq!(file, Path::new("t.json"));
        assert!(parse(&argv(&["trace"])).is_err());
        assert!(parse(&argv(&["trace", "summary"])).is_err());
        assert!(parse(&argv(&["trace", "frobnicate", "t.json"])).is_err());
        assert_eq!(
            parse(&argv(&["trace", "summary", "t.json", "X"])).unwrap_err(),
            "xp trace summary: unexpected argument \"X\""
        );
        // Flags stay run-only.
        assert!(parse(&argv(&["run", "fig2", "--trace"])).is_err());
        assert!(parse(&argv(&["run", "fig2", "--metrics-out"])).is_err());
    }

    #[test]
    fn threads_parsing_is_strict() {
        assert!(parse(&argv(&["run", "fig2", "--threads", "0"])).is_err());
        assert!(parse(&argv(&["run", "fig2", "--threads", "two"])).is_err());
        assert!(parse(&argv(&["run", "fig2", "--threads"])).is_err());
        assert!(parse(&argv(&["run", "fig2", "--threads=08x"])).is_err());
        let Ok(Command::Run(opts)) = parse(&argv(&["run", "fig2", "--threads=3"])) else {
            panic!("expected a run command");
        };
        assert_eq!(opts.sweep.threads, 3);
    }

    #[test]
    fn resume_and_out_are_mutually_exclusive() {
        assert!(parse(&argv(&["run", "fig2", "--out", "a", "--resume", "a"])).is_err());
        let Ok(Command::Run(opts)) = parse(&argv(&["run", "fig2", "--resume", "prior"])) else {
            panic!("expected a run command");
        };
        assert!(opts.resume);
        assert_eq!(opts.out.as_deref(), Some(Path::new("prior")));
    }

    #[test]
    fn fault_specs_parse_and_reject_bad_input() {
        let spec = FaultSpec::parse(
            "seed=9,panic=0.1,delay=0.05,delay-ms=20,poison=0.2,nan=0.3,dropout=0.4",
        )
        .unwrap();
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.delay_ms, 20);
        assert_eq!(spec.dropout, 0.4);
        assert!(spec.sensor_faults().is_some());
        assert!(!spec.fault_plan().is_noop());

        // Rates outside [0, 1], unknown keys, and bare words are errors.
        assert!(FaultSpec::parse("panic=1.5").is_err());
        assert!(FaultSpec::parse("frobnicate=1").is_err());
        assert!(FaultSpec::parse("panic").is_err());

        // A runtime-only spec arms no sensor faults.
        let spec = FaultSpec::parse("seed=1,panic=0.5").unwrap();
        assert!(spec.sensor_faults().is_none());
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let a = vec![ExpConfig::baseline()];
        let b = vec![ExpConfig::baseline()];
        assert_eq!(config_digest(&a), config_digest(&b));
        assert_ne!(config_digest(&a), config_digest(&[]));
    }

    #[test]
    fn digest_is_pinned_across_engine_changes() {
        // The manifest digest fingerprints the *configuration*, not the
        // machinery that ran it: engine-mode or performance work must
        // never shift it (it gates `--resume`). If this value changes,
        // the sweep's meaning changed — not just its speed.
        assert_eq!(config_digest(&[ExpConfig::baseline()]), "c0388d6bd40c1e46");
    }

    #[test]
    fn bench_parsing_accepts_documented_flags() {
        let Ok(Command::Bench(opts)) = parse(&argv(&[
            "bench",
            "--quick",
            "--out",
            "b.json",
            "--baseline",
            "base.json",
            "--filter",
            "memory",
            "--baseline-update",
            "--allow-regress",
        ])) else {
            panic!("expected a bench command");
        };
        assert!(opts.quick);
        assert_eq!(opts.out.as_deref(), Some(Path::new("b.json")));
        assert_eq!(opts.baseline.as_deref(), Some(Path::new("base.json")));
        assert_eq!(opts.filter.as_deref(), Some("memory"));
        assert!(opts.baseline_update);
        assert!(opts.allow_regress);

        let Ok(Command::Bench(opts)) = parse(&argv(&["bench"])) else {
            panic!("expected a bench command");
        };
        assert!(!opts.quick);
        assert!(opts.out.is_none());
        assert!(!opts.baseline_update);
        assert!(!opts.allow_regress);

        assert!(parse(&argv(&["bench", "--frobnicate"])).is_err());
        assert!(parse(&argv(&["bench", "--out"])).is_err());
        assert!(parse(&argv(&["bench", "--baseline"])).is_err());
        assert!(parse(&argv(&["bench", "--filter"])).is_err());
        // Sweep threads do not apply to the single-threaded hot path.
        assert!(parse(&argv(&["bench", "--threads", "2"])).is_err());
        assert!(parse(&argv(&["bench", "--threads=8"])).is_err());
    }

    #[test]
    fn serve_parsing_covers_the_documented_flags() {
        let Ok(Command::Serve(opts)) = parse(&argv(&[
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--socket",
            "/tmp/xpd.sock",
            "--store",
            "store-dir",
            "--store-cap-mb",
            "64",
            "--queue-cap",
            "4",
            "--smoke",
            "--threads",
            "2",
            "--no-validation",
            "--trace",
            "serve.trace.json",
            "--slow-ms",
            "250",
            "--log",
            "events.jsonl",
        ])) else {
            panic!("expected a serve command");
        };
        let server = &opts.server;
        assert_eq!(server.tcp.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(server.socket.as_deref(), Some(Path::new("/tmp/xpd.sock")));
        assert_eq!(server.store_dir, Path::new("store-dir"));
        assert_eq!(server.store_cap_bytes, 64 * MIB);
        assert_eq!(server.queue_cap, 4);
        assert_eq!(opts.sweep.scale, Scale::Smoke);
        assert_eq!(opts.sweep.threads, 2);
        assert!(!opts.sweep.validation);
        assert_eq!(opts.trace.as_deref(), Some(Path::new("serve.trace.json")));
        assert_eq!(server.slow_ms, Some(250));
        assert_eq!(server.log_file.as_deref(), Some(Path::new("events.jsonl")));

        // An endpoint is required; bad numbers are rejected.
        assert!(parse(&argv(&["serve"])).is_err());
        assert!(parse(&argv(&["serve", "--tcp", "x", "--store-cap-mb", "0"])).is_err());
        assert!(parse(&argv(&["serve", "--tcp", "x", "--queue-cap", "none"])).is_err());
        assert!(parse(&argv(&["serve", "--tcp", "x", "--slow-ms", "0"])).is_err());
        assert!(parse(&argv(&["serve", "--frobnicate"])).is_err());

        // Telemetry flags stay off by default.
        let Ok(Command::Serve(opts)) = parse(&argv(&["serve", "--tcp", "127.0.0.1:0"])) else {
            panic!("expected a serve command");
        };
        assert_eq!(opts.server.slow_ms, None);
        assert!(opts.server.log_file.is_none());
    }

    #[test]
    fn top_parsing_requires_an_endpoint() {
        let Ok(Command::Top(opts)) = parse(&argv(&[
            "top",
            "--tcp",
            "127.0.0.1:7070",
            "--interval-ms",
            "500",
            "--once",
        ])) else {
            panic!("expected a top command");
        };
        assert_eq!(
            opts.endpoint,
            xpd::client::Endpoint::Tcp("127.0.0.1:7070".to_string())
        );
        assert_eq!(opts.interval, Duration::from_millis(500));
        assert!(opts.once);

        let Ok(Command::Top(opts)) = parse(&argv(&["top", "--socket", "/tmp/x"])) else {
            panic!("expected a top command");
        };
        assert_eq!(opts.interval, Duration::from_millis(2000));
        assert!(!opts.once);

        assert!(parse(&argv(&["top"])).is_err());
        assert!(parse(&argv(&["top", "--tcp", "h:1", "--socket", "s"])).is_err());
        assert!(parse(&argv(&["top", "--tcp", "h:1", "--interval-ms", "0"])).is_err());
        assert!(parse(&argv(&["top", "--tcp", "h:1", "--frobnicate"])).is_err());
    }

    #[test]
    fn query_parsing_builds_requests() {
        use common::proto::RequestOp;
        let Ok(Command::Query(q)) = parse(&argv(&[
            "query",
            "fig6",
            "--tcp",
            "127.0.0.1:7070",
            "--set",
            "bw=2x",
            "--set",
            "gpms=16",
            "--timeout-ms",
            "250",
        ])) else {
            panic!("expected a query command");
        };
        assert_eq!(q.request.op, RequestOp::Query);
        assert_eq!(q.request.artifact, "fig6");
        assert_eq!(q.request.sets.len(), 2);
        assert_eq!(
            q.endpoint,
            xpd::client::Endpoint::Tcp("127.0.0.1:7070".to_string())
        );
        assert_eq!(q.timeout, Some(Duration::from_millis(250)));

        let Ok(Command::Query(q)) = parse(&argv(&["query", "--stats", "--socket", "/tmp/x"]))
        else {
            panic!("expected a stats query");
        };
        assert_eq!(q.request.op, RequestOp::Stats);
        let Ok(Command::Query(q)) = parse(&argv(&["query", "--shutdown", "--tcp", "h:1"])) else {
            panic!("expected a shutdown query");
        };
        assert_eq!(q.request.op, RequestOp::Shutdown);
        let Ok(Command::Query(q)) = parse(&argv(&["query", "--metrics", "--tcp", "h:1"])) else {
            panic!("expected a metrics query");
        };
        assert_eq!(q.request.op, RequestOp::Metrics);
        assert_eq!(q.request.format, common::proto::MetricsFormat::Json);
        let Ok(Command::Query(q)) = parse(&argv(&["query", "--prometheus", "--tcp", "h:1"])) else {
            panic!("expected a prometheus metrics query");
        };
        assert_eq!(q.request.op, RequestOp::Metrics);
        assert_eq!(q.request.format, common::proto::MetricsFormat::Prometheus);
        let Ok(Command::Query(q)) = parse(&argv(&["query", "fig6", "--timing", "--tcp", "h:1"]))
        else {
            panic!("expected a timed artifact query");
        };
        assert!(q.request.timing);

        // Usage errors: endpoint required, one artifact, exclusive modes.
        assert!(parse(&argv(&["query", "fig6"])).is_err());
        assert!(parse(&argv(&["query", "--tcp", "h:1"])).is_err());
        assert!(parse(&argv(&["query", "fig6", "fig7", "--tcp", "h:1"])).is_err());
        assert!(parse(&argv(&["query", "fig6", "--tcp", "h:1", "--socket", "s"])).is_err());
        assert!(parse(&argv(&["query", "fig6", "--stats", "--tcp", "h:1"])).is_err());
        assert!(parse(&argv(&["query", "fig6", "--metrics", "--tcp", "h:1"])).is_err());
        assert!(parse(&argv(&["query", "--stats", "--timing", "--tcp", "h:1"])).is_err());
        assert!(parse(&argv(&[
            "query",
            "--metrics",
            "--tcp",
            "h:1",
            "--set",
            "bw=2x"
        ]))
        .is_err());
        assert!(parse(&argv(&[
            "query", "--stats", "--tcp", "h:1", "--set", "bw=2x"
        ]))
        .is_err());
        assert!(parse(&argv(&["query", "fig6", "--tcp", "h:1", "--set", "bw2x"])).is_err());
        assert!(parse(&argv(&[
            "query", "fig6", "--tcp", "h:1", "--set", "bw=2x", "--set", "bw=4x"
        ]))
        .is_err());
        assert!(parse(&argv(&[
            "query",
            "fig6",
            "--tcp",
            "h:1",
            "--timeout-ms",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn xpd_counter_block_renders_hit_rate_and_batching() {
        let counters = vec![
            ("xpd.request".to_string(), 10),
            ("xpd.store.hit".to_string(), 6),
            ("xpd.store.miss".to_string(), 2),
            ("xpd.store.eviction".to_string(), 1),
            ("xpd.inflight_join".to_string(), 2),
            ("xpd.queue.enqueued".to_string(), 2),
            ("xpd.queue.peak_depth".to_string(), 2),
            ("xpd.batch".to_string(), 2),
            ("xpd.batch_points".to_string(), 2),
        ];
        let block = xpd_counters_block(&counters).expect("xpd counters present");
        assert!(block.contains("serving (xpd)"), "{block}");
        assert!(block.contains("75.0%"), "{block}");
        assert!(block.contains("mean 1.0 queries/batch"), "{block}");
        // Traces without daemon activity stay untouched.
        assert!(xpd_counters_block(&[("cache.hit".to_string(), 3)]).is_none());
    }

    #[test]
    fn artifact_digests_track_scale_and_plan() {
        let plan = SweepPlan::sweep(vec![ExpConfig::baseline()]);
        let a = artifact_digest(&plan, Scale::Smoke, true);
        assert_eq!(a, artifact_digest(&plan, Scale::Smoke, true));
        assert_ne!(a, artifact_digest(&plan, Scale::Full, true));
        assert_ne!(a, artifact_digest(&plan, Scale::Smoke, false));
        assert_ne!(a, artifact_digest(&SweepPlan::none(), Scale::Smoke, true));
    }

    #[test]
    fn flag_errors_name_their_command_and_flag() {
        // Every value-taking flag (plus the `--threads=N` spelling), the
        // arguments before it, and values it rejects; "" leaves the value
        // out.
        const POSITIVE: &[&str] = &["", "0", "abc"];
        const COUNT: &[&str] = &["", "abc", "-1"];
        const ANY: &[&str] = &[""];
        let run: &[&str] = &["run", "fig2"];
        let query: &[&str] = &["query", "fig6"];
        let cases: &[(&[&str], &str, &[&str])] = &[
            (run, "--threads", POSITIVE),
            (run, "--threads=0", ANY),
            (run, "--format", &["", "yaml"]),
            (run, "--out", ANY),
            (run, "--resume", ANY),
            (run, "--retries", COUNT),
            (run, "--point-timeout-ms", POSITIVE),
            (run, "--faults", &["", "panic=2"]),
            (run, "--trace", ANY),
            (run, "--metrics-out", ANY),
            (&["serve"], "--threads", POSITIVE),
            (&["serve"], "--threads=abc", ANY),
            (&["serve"], "--socket", ANY),
            (&["serve"], "--tcp", ANY),
            (&["serve"], "--store", ANY),
            (&["serve"], "--store-cap-mb", POSITIVE),
            (&["serve"], "--queue-cap", POSITIVE),
            (&["serve"], "--trace", ANY),
            (&["serve"], "--durability", &["", "sometimes"]),
            (&["serve"], "--chaos-seed", COUNT),
            (&["serve"], "--slow-ms", POSITIVE),
            (&["serve"], "--log", ANY),
            (query, "--socket", ANY),
            (query, "--tcp", ANY),
            (query, "--set", &["", "bw2x"]),
            (query, "--timeout-ms", POSITIVE),
            (query, "--deadline-ms", POSITIVE),
            (query, "--retries", COUNT),
            (query, "--backoff-ms", POSITIVE),
            (&["top"], "--socket", ANY),
            (&["top"], "--tcp", ANY),
            (&["top"], "--interval-ms", POSITIVE),
            (&["bench"], "--out", ANY),
            (&["bench"], "--baseline", ANY),
            (&["bench"], "--filter", ANY),
        ];
        for (before, flag, bad) in cases {
            let name = flag.split('=').next().unwrap();
            let want = format!("xp {}: {name}:", before[0]);
            for value in *bad {
                let mut args = argv(before);
                args.push(flag.to_string());
                if !value.is_empty() {
                    args.push(value.to_string());
                }
                let msg = parse(&args).unwrap_err();
                assert!(msg.starts_with(&want), "{args:?}: {msg}");
            }
        }
        for before in [run, &["serve"], query, &["top"], &["bench"]] {
            let mut args = argv(before);
            args.push("--frobnicate".to_string());
            let want = format!("xp {}: unknown option --frobnicate", before[0]);
            assert_eq!(parse(&args).unwrap_err(), want);
        }
    }

    #[test]
    fn unknown_artifact_id_is_a_usage_error() {
        assert_eq!(main(&argv(&["run", "no_such_artifact", "--smoke"])), 2);
    }

    #[test]
    fn leftover_argument_is_a_usage_error() {
        assert_eq!(main(&argv(&["check", "results", "extra"])), 2);
    }
}
