//! The daemon itself: listeners, connection threads, the in-flight
//! dedup point, and the batch scheduler.
//!
//! # Request path
//!
//! ```text
//! conn thread                scheduler thread
//! -----------                ----------------
//! parse request
//! digest via engine
//! inflight.get_or_compute ─┐
//!   leader: store.get ──hit┼─► respond (source=store)
//!           miss: enqueue ─┼─► pop_batch (FIFO, up to 8)
//!           recv answer    │   engine.evaluate(batch)
//!   joiner: wait on flight │   store.put + send answers
//! respond, leader removes  │
//! the in-flight entry      │
//! ```
//!
//! The in-flight entry is removed as soon as the leader has answered:
//! the [`Cache`] is purely a dedup point, and the disk store's
//! LRU size cap stays the only capacity policy. A request that arrives
//! after removal simply becomes a new leader and hits the store.

use crate::chaos::{
    floor_char_boundary, torn_prefix_len, ChaosConfig, FaultInjector, IoFault, IoPoint,
};
use crate::flightrec::{self, FlightRecorder};
use crate::log::EventLog;
use crate::metrics::{self, Gauges};
use crate::queue::{Queue, Refused};
use crate::store::{Durability, ResultStore, StoreEvent};
use crate::QueryEngine;
use common::json::Json;
use common::proto::{MetricsFormat, QueryRequest, QueryResponse, RequestOp, Source};
use runtime::cache::{panic_message, Cache};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use trace::live::{LiveHistogram, ScopedCounter};

/// How often accept loops and idle connections check the stop flag.
const POLL: Duration = Duration::from_millis(100);

/// Longest request line a connection may send, newline included. A
/// line that reaches it without a newline gets one `error` response and
/// the connection closes, so no client can grow a buffer without limit.
const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Most connections served at once. Above it a new connection gets one
/// `busy` line and is closed, with no thread spawned. A connection
/// holds at most one queued job, so the cap equals the default
/// `--queue-cap`; a lower one would leave that queue unreachable.
const MAX_CONNECTIONS: usize = 256;

/// Most cold queries one engine call evaluates. `evaluate` answers a
/// whole batch at once, so the bound caps how many batch-mates the
/// first job of a batch waits on.
const BATCH_MAX: usize = 8;

/// Where and how a [`Server`] listens and stores results.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix socket path to listen on (removed on clean shutdown).
    pub socket: Option<PathBuf>,
    /// TCP address to listen on (`127.0.0.1:0` picks a free port,
    /// reported by [`Server::tcp_addr`]).
    pub tcp: Option<String>,
    /// Directory of the content-addressed result store.
    pub store_dir: PathBuf,
    /// Store size cap in payload bytes; LRU eviction beyond it.
    pub store_cap_bytes: u64,
    /// Maximum queued cold requests before clients get `busy`.
    pub queue_cap: usize,
    /// How hard store writes push toward the disk
    /// ([`Durability::Flush`] by default).
    pub durability: Durability,
    /// When set, a seeded [`FaultInjector`] with the default
    /// [`ChaosConfig`] rates is threaded through the daemon's I/O
    /// boundaries (`xp serve --chaos-seed N`). Same seed, same fault
    /// schedule — the knob exists for recovery testing, never for
    /// production serving.
    pub chaos_seed: Option<u64>,
    /// When set, requests slower than this many milliseconds are
    /// appended (with their phase breakdown) to `<store>/slow.jsonl`
    /// (`xp serve --slow-ms N`).
    pub slow_ms: Option<u64>,
    /// When set, every request is appended as one JSONL record to this
    /// file (`xp serve --log FILE`), rotated once at
    /// [`crate::log::CAP_BYTES`].
    pub log_file: Option<PathBuf>,
}

impl ServerConfig {
    /// A config with serving defaults; callers set `socket` and/or
    /// `tcp` before binding.
    pub fn new(store_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            socket: None,
            tcp: None,
            store_dir: store_dir.into(),
            store_cap_bytes: 256 * 1024 * 1024,
            queue_cap: 256,
            durability: Durability::default(),
            chaos_seed: None,
            slow_ms: None,
            log_file: None,
        }
    }
}

/// Where an answered request's time went, in nanoseconds. All zero for
/// answers that never reached the scheduler (store hits, errors).
/// Joiners share the leader's flight, so a deduped answer carries the
/// *leader's* phases — the work that actually produced the bytes.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseNanos {
    /// Queued until the scheduler took the answering batch.
    queue_wait: u64,
    /// Engine evaluation wall time of the whole batch (the requester
    /// waits for all of it, so that is the honest per-request number).
    eval: u64,
    /// Persisting this answer to the store.
    store_write: u64,
}

/// A query answer as it moves between threads. Payloads are `Arc`ed so
/// joiners share the leader's allocation.
#[derive(Clone)]
enum Answer {
    Ready(Source, Arc<String>, PhaseNanos),
    Busy(String),
    TimedOut(String),
    Failed(String),
}

/// One cold request parked in the queue: resolved by the scheduler.
struct Job {
    /// The request ID minted at accept, for logs and the flight
    /// recorder.
    id: u64,
    digest: String,
    request: QueryRequest,
    /// Where the scheduler sends the answer; the leader waits on the
    /// other end.
    answer: mpsc::Sender<Answer>,
    /// When the requester stops caring. The scheduler answers expired
    /// jobs `timeout` instead of spending engine time on them.
    deadline: Option<Instant>,
    /// When the job entered the queue — the start of its `queue_wait`
    /// phase.
    enqueued_at: Instant,
}

/// The daemon's counters, as instance-scoped views over the always-on
/// `xpd.*` registry ([`trace::live`]): one write serves `stats`
/// responses (instance-exact, via [`ScopedCounter::local`] — tests run
/// several servers in one process), the `metrics` op and Prometheus
/// exposition (the process-wide registry), and `xp trace summary`
/// (sessions fold the registry delta in). The names are the same ones
/// the pre-registry `trace::count` calls used, so existing summaries
/// and dashboards keep reading.
struct Counters {
    requests: ScopedCounter,
    store_hits: ScopedCounter,
    store_misses: ScopedCounter,
    inflight_joins: ScopedCounter,
    enqueued: ScopedCounter,
    rejected: ScopedCounter,
    timeouts: ScopedCounter,
    batches: ScopedCounter,
    batch_points: ScopedCounter,
    peak_depth: ScopedCounter,
}

impl Counters {
    fn new() -> Counters {
        Counters {
            requests: ScopedCounter::new("xpd.request"),
            store_hits: ScopedCounter::new("xpd.store.hit"),
            store_misses: ScopedCounter::new("xpd.store.miss"),
            inflight_joins: ScopedCounter::new("xpd.inflight_join"),
            enqueued: ScopedCounter::new("xpd.queue.enqueued"),
            rejected: ScopedCounter::new("xpd.queue.rejected"),
            timeouts: ScopedCounter::new("xpd.timeout"),
            batches: ScopedCounter::new("xpd.batch"),
            batch_points: ScopedCounter::new("xpd.batch_points"),
            peak_depth: ScopedCounter::new("xpd.queue.peak_depth"),
        }
    }
}

/// Always-on latency histograms: request durations per op, and the
/// cold path's phase breakdown. Handles are obtained once at bind and
/// held, so the hot path pays only the histogram's relaxed increments.
struct Latency {
    query: LiveHistogram,
    stats: LiveHistogram,
    health: LiveHistogram,
    metrics: LiveHistogram,
    shutdown: LiveHistogram,
    queue_wait: LiveHistogram,
    eval: LiveHistogram,
    store_write: LiveHistogram,
}

impl Latency {
    fn new() -> Latency {
        Latency {
            query: trace::live::histogram("xpd.request_duration.query"),
            stats: trace::live::histogram("xpd.request_duration.stats"),
            health: trace::live::histogram("xpd.request_duration.health"),
            metrics: trace::live::histogram("xpd.request_duration.metrics"),
            shutdown: trace::live::histogram("xpd.request_duration.shutdown"),
            queue_wait: trace::live::histogram("xpd.phase.queue_wait"),
            eval: trace::live::histogram("xpd.phase.eval"),
            store_write: trace::live::histogram("xpd.phase.store_write"),
        }
    }

    fn for_op(&self, op: RequestOp) -> &LiveHistogram {
        match op {
            RequestOp::Query => &self.query,
            RequestOp::Stats => &self.stats,
            RequestOp::Health => &self.health,
            RequestOp::Metrics => &self.metrics,
            RequestOp::Shutdown => &self.shutdown,
        }
    }
}

/// State shared by connection threads, accept loops, and the
/// scheduler.
struct Shared {
    engine: Arc<dyn QueryEngine>,
    store: ResultStore,
    queue: Queue<Job>,
    inflight: Cache<String, Answer>,
    counters: Counters,
    latency: Latency,
    stop: AtomicBool,
    next_client: AtomicU64,
    /// Connections currently served, at most [`MAX_CONNECTIONS`].
    connections: AtomicUsize,
    /// Request IDs, minted when a request line parses.
    next_request: AtomicU64,
    /// Queries currently being answered (between parse and respond) —
    /// the in-flight count `health` reports for readiness probes.
    active: AtomicU64,
    chaos: Option<Arc<FaultInjector>>,
    flight: Arc<FlightRecorder>,
    slow_ms: Option<u64>,
    slow_log: Option<EventLog>,
    event_log: Option<EventLog>,
    /// When the server was bound (monotonic — uptime arithmetic).
    started: Instant,
    /// When the server was bound (wall clock, for `health` reporting).
    started_unix_ms: u64,
}

/// A bound (but not yet running) daemon. [`Server::run`] blocks until
/// a client sends `shutdown`; drive it from a dedicated thread when
/// embedding (tests, `xp serve`).
pub struct Server {
    shared: Arc<Shared>,
    unix: Option<(UnixListener, PathBuf)>,
    tcp: Option<TcpListener>,
    tcp_addr: Option<SocketAddr>,
}

impl Server {
    /// Opens the store and binds the configured listeners. At least one
    /// of `socket`/`tcp` must be set. A stale Unix socket file left by
    /// a crashed daemon is reclaimed; a *live* one (something answers a
    /// connect) is an error.
    pub fn bind(config: ServerConfig, engine: Arc<dyn QueryEngine>) -> Result<Server, String> {
        if config.socket.is_none() && config.tcp.is_none() {
            return Err(
                "xpd: no endpoint configured (need a socket path and/or a TCP address)".to_string(),
            );
        }
        let chaos = config
            .chaos_seed
            .map(|seed| Arc::new(FaultInjector::with_config(seed, &ChaosConfig::default())));
        if let Some(inj) = &chaos {
            eprintln!("xpd: chaos injection armed (seed {})", inj.seed());
        }
        let store = ResultStore::open_with(
            &config.store_dir,
            config.store_cap_bytes,
            config.durability,
            chaos.clone(),
        )?;

        // The flight recorder lives in the store directory (it is the
        // daemon's one guaranteed-writable place; the store only adopts
        // hex-digest names, so `flightrec-*.json` is invisible to it).
        // Store mutations feed it via the observer, and a quarantine —
        // the "something on disk lied" moment — triggers a dump.
        let flight = FlightRecorder::new(&config.store_dir);
        flightrec::arm_panic_dumps(&flight);
        {
            let flight = Arc::clone(&flight);
            store.set_observer(move |event| match event {
                StoreEvent::Put { digest, bytes } => {
                    flight.record("store", format!("put {digest} ({bytes} bytes)"));
                }
                StoreEvent::Evicted { digest } => {
                    flight.record("store", format!("evict {digest}"));
                }
                StoreEvent::Quarantined { digest, why } => {
                    flight.record("store", format!("quarantine {digest}: {why}"));
                    match flight.dump("quarantine") {
                        Ok(path) => {
                            eprintln!("xpd: flight recorder dumped to {}", path.display());
                        }
                        Err(e) => eprintln!("{e}"),
                    }
                }
            });
        }
        let slow_log = match config.slow_ms {
            Some(_) => Some(EventLog::open(config.store_dir.join("slow.jsonl"))?),
            None => None,
        };
        let event_log = match &config.log_file {
            Some(path) => Some(EventLog::open(path)?),
            None => None,
        };

        let unix = match &config.socket {
            None => None,
            Some(path) => {
                if path.exists() {
                    match UnixStream::connect(path) {
                        Ok(_) => {
                            return Err(format!(
                                "xpd: {} is already served by a live daemon",
                                path.display()
                            ))
                        }
                        Err(_) => {
                            let _ = std::fs::remove_file(path);
                        }
                    }
                }
                let listener = UnixListener::bind(path)
                    .map_err(|e| format!("xpd: cannot bind {}: {e}", path.display()))?;
                listener
                    .set_nonblocking(true)
                    .map_err(|e| format!("xpd: cannot configure {}: {e}", path.display()))?;
                Some((listener, path.clone()))
            }
        };
        let (tcp, tcp_addr) = match &config.tcp {
            None => (None, None),
            Some(addr) => {
                let listener =
                    TcpListener::bind(addr).map_err(|e| format!("xpd: cannot bind {addr}: {e}"))?;
                listener
                    .set_nonblocking(true)
                    .map_err(|e| format!("xpd: cannot configure {addr}: {e}"))?;
                let local = listener
                    .local_addr()
                    .map_err(|e| format!("xpd: cannot resolve {addr}: {e}"))?;
                (Some(listener), Some(local))
            }
        };

        Ok(Server {
            shared: Arc::new(Shared {
                engine,
                store,
                queue: Queue::new(config.queue_cap),
                inflight: Cache::new(),
                counters: Counters::new(),
                latency: Latency::new(),
                stop: AtomicBool::new(false),
                next_client: AtomicU64::new(1),
                connections: AtomicUsize::new(0),
                next_request: AtomicU64::new(1),
                active: AtomicU64::new(0),
                chaos,
                flight,
                slow_ms: config.slow_ms,
                slow_log,
                event_log,
                started: Instant::now(),
                started_unix_ms: SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map(|d| d.as_millis() as u64)
                    .unwrap_or(0),
            }),
            unix,
            tcp,
            tcp_addr,
        })
    }

    /// The bound TCP address, when a TCP endpoint was configured.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The server's flight recorder — grab it before [`Server::run`]
    /// consumes the server, to wire external dump triggers (the CLI's
    /// SIGQUIT handler).
    pub fn flight_recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.shared.flight)
    }

    /// A handle that requests graceful shutdown from another thread —
    /// the CLI wires SIGINT/SIGTERM to it. Equivalent to a client
    /// sending `shutdown`: stop accepting, drain queued work, flush the
    /// store, exit clean.
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until a client sends `shutdown`: accept loops and the
    /// batch scheduler run on their own threads; pending cold requests
    /// drain (and persist) before this returns.
    pub fn run(self) -> Result<(), String> {
        // The rollup ticker keeps the live registry's 1 s ring advancing
        // even when nobody queries, so the first `metrics` request after
        // a quiet spell still has a well-matched window baseline to diff
        // against.
        let ticker = {
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name("xpd-tick".to_string())
                .spawn(move || {
                    while !shared.stop.load(Ordering::SeqCst) {
                        trace::live::tick();
                        std::thread::sleep(Duration::from_millis(250));
                    }
                })
                .map_err(|e| format!("xpd: cannot spawn ticker: {e}"))?
        };
        let scheduler = {
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name("xpd-sched".to_string())
                .spawn(move || scheduler_loop(&shared))
                .map_err(|e| format!("xpd: cannot spawn scheduler: {e}"))?
        };

        let mut accepts = Vec::new();
        let mut socket_path = None;
        if let Some((listener, path)) = self.unix {
            socket_path = Some(path);
            accepts.push(spawn_acceptor(&self.shared, "unix", move || {
                let (stream, _) = listener.accept()?;
                stream.set_nonblocking(false)?;
                stream.set_read_timeout(Some(POLL))?;
                Ok(stream)
            })?);
        }
        if let Some(listener) = self.tcp {
            accepts.push(spawn_acceptor(&self.shared, "tcp", move || {
                let (stream, _) = listener.accept()?;
                stream.set_nonblocking(false)?;
                stream.set_read_timeout(Some(POLL))?;
                Ok(stream)
            })?);
        }

        for handle in accepts {
            let _ = handle.join();
        }
        // No new work can arrive; let queued jobs drain, then stop the
        // scheduler. A push after the close is refused, so every
        // waiting connection thread gets an answer and exits on its
        // next read poll.
        self.shared.queue.close();
        let _ = scheduler.join();
        let _ = ticker.join();
        // Graceful exit: the final LRU order is pushed to disk so the
        // next open replays it instead of rebuilding from files.
        if let Err(e) = self.shared.store.flush() {
            eprintln!("xpd: {e}");
        }
        if let Some(path) = socket_path {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// Requests graceful shutdown of a running [`Server`] from outside its
/// connection threads (see [`Server::stop_handle`]).
pub struct StopHandle {
    shared: Arc<Shared>,
}

impl StopHandle {
    /// Flips the stop flag; accept loops exit on their next poll and
    /// [`Server::run`] drains and returns.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }
}

/// Starts the `xpd-accept-{kind}` thread, which serves each stream
/// `accept` yields until shutdown. `accept` returns the stream set to
/// blocking reads with a [`POLL`] timeout, or an error — `WouldBlock`
/// when no connection is pending — after which the loop sleeps one
/// [`POLL`].
fn spawn_acceptor<S>(
    shared: &Arc<Shared>,
    kind: &str,
    accept: impl Fn() -> std::io::Result<S> + Send + 'static,
) -> Result<JoinHandle<()>, String>
where
    S: Send + 'static,
    for<'a> &'a S: Read + Write,
{
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("xpd-accept-{kind}"))
        .spawn(move || {
            while !shared.stop.load(Ordering::SeqCst) {
                match accept() {
                    Ok(stream) => spawn_conn(&shared, stream),
                    Err(_) => std::thread::sleep(POLL),
                }
            }
        })
        .map_err(|e| format!("xpd: cannot spawn acceptor: {e}"))
}

/// The chaos-injected delay (if any) before a freshly accepted
/// connection is served. The sleep happens on the connection's own
/// thread so a delayed client never stalls the accept loop.
fn accept_delay(shared: &Arc<Shared>) -> Option<Duration> {
    match shared.chaos.as_ref()?.decide(IoPoint::Accept)? {
        IoFault::DelayAccept(d) => Some(d),
        _ => None,
    }
}

/// A live connection, counted toward [`MAX_CONNECTIONS`] until its
/// thread ends, even by a panic.
struct LiveConn(Arc<Shared>);

impl Drop for LiveConn {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Serves `stream` on its own thread. At [`MAX_CONNECTIONS`] the accept
/// thread instead writes one `busy` line and closes the connection.
fn spawn_conn<S>(shared: &Arc<Shared>, stream: S)
where
    S: Send + 'static,
    for<'a> &'a S: Read + Write,
{
    if shared.connections.fetch_add(1, Ordering::SeqCst) >= MAX_CONNECTIONS {
        shared.connections.fetch_sub(1, Ordering::SeqCst);
        let message = format!("too many connections ({MAX_CONNECTIONS} open); retry later");
        shared.flight.record("conn", message.clone());
        let body = QueryResponse::busy(message).to_json().render_jsonl_line();
        let _ = (&stream).write_all(body.as_bytes());
        return;
    }
    let live = LiveConn(Arc::clone(shared));
    let delay = accept_delay(shared);
    let client = shared.next_client.fetch_add(1, Ordering::SeqCst);
    let spawned = std::thread::Builder::new()
        .name(format!("xpd-conn-{client}"))
        .spawn(move || {
            if let Some(d) = delay {
                std::thread::sleep(d);
            }
            serve_conn(&live.0, client, &stream);
        });
    if let Err(e) = spawned {
        eprintln!("xpd: cannot spawn connection thread: {e}");
    }
}

/// One request/response line at a time until EOF, error, or shutdown.
/// Works over `&UnixStream` and `&TcpStream` alike (both implement
/// `Read`/`Write` by shared reference).
fn serve_conn<S>(shared: &Arc<Shared>, client: u64, stream: &S)
where
    for<'a> &'a S: Read + Write,
{
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        // A partial line kept across a read timeout counts toward the cap.
        let room = MAX_REQUEST_LINE.saturating_sub(line.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', &mut line) {
            Ok(0) => break,
            Ok(_) if line.len() >= MAX_REQUEST_LINE && line.last() != Some(&b'\n') => {
                let body =
                    QueryResponse::error(format!("request line exceeds {MAX_REQUEST_LINE} bytes"))
                        .to_json()
                        .render_jsonl_line();
                let mut writer = stream;
                let _ = writer
                    .write_all(body.as_bytes())
                    .and_then(|()| writer.flush());
                break;
            }
            Ok(_) => {
                let bytes = std::mem::take(&mut line);
                // Invalid UTF-8 closes the connection.
                let Ok(text) = std::str::from_utf8(&bytes) else {
                    break;
                };
                let text = text.trim();
                if text.is_empty() {
                    continue;
                }
                // HTTP bridge: a plain `GET` (curl, a Prometheus
                // scraper) gets a one-shot HTTP/1.0 response and the
                // connection closes, so real scrapers work against a
                // TCP daemon without speaking the JSONL protocol.
                if let Some(rest) = text.strip_prefix("GET ") {
                    let path = rest.split_whitespace().next().unwrap_or("/");
                    shared
                        .flight
                        .record("http", format!("GET {path} client={client}"));
                    let (status, content_type, body) = http_get(shared, path);
                    let response = format!(
                        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n\
                         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                        body.len()
                    );
                    let mut writer = stream;
                    let _ = writer
                        .write_all(response.as_bytes())
                        .and_then(|()| writer.flush());
                    break;
                }
                // Chaos: a client (or middlebox) dying mid-request — the
                // connection closes without a response and the request
                // is *not* processed. Clients must treat a vanished
                // response as retryable.
                if let Some(inj) = &shared.chaos {
                    if inj.decide(IoPoint::Read) == Some(IoFault::CloseRead) {
                        shared
                            .flight
                            .record("chaos", format!("close_read client={client}"));
                        break;
                    }
                }
                let response = handle_line(shared, client, text);
                let body = response.to_json().render_jsonl_line();
                // Chaos: the connection drops after a prefix of the
                // response line — the client sees a torn (newline-less)
                // response and must retry.
                let body = match shared
                    .chaos
                    .as_ref()
                    .and_then(|i| i.decide(IoPoint::Response))
                {
                    Some(IoFault::DropResponse { keep_permille }) => {
                        shared
                            .flight
                            .record("chaos", format!("drop_response client={client}"));
                        let keep = torn_prefix_len(body.len(), keep_permille);
                        let torn = &body[..floor_char_boundary(&body, keep)];
                        let mut writer = stream;
                        let _ = writer
                            .write_all(torn.as_bytes())
                            .and_then(|()| writer.flush());
                        break;
                    }
                    _ => body,
                };
                let mut writer = stream;
                let sent = writer
                    .write_all(body.as_bytes())
                    .and_then(|()| writer.flush());
                if sent.is_err() || shared.stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            // Read timeout: `line` keeps any partial read; poll the
            // stop flag and keep listening.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

fn handle_line(shared: &Arc<Shared>, client: u64, text: &str) -> QueryResponse {
    let request = Json::parse(text)
        .map_err(|e| format!("bad request JSON: {e}"))
        .and_then(|j| QueryRequest::from_json(&j));
    let request = match request {
        Ok(r) => r,
        Err(e) => return QueryResponse::error(e),
    };
    // The request ID is minted here — the moment the request becomes a
    // request — and rides through the queue, scheduler, and logs.
    let id = shared.next_request.fetch_add(1, Ordering::Relaxed);
    let begun = Instant::now();
    shared.counters.requests.add(1);
    let (response, phases) = match request.op {
        RequestOp::Stats => (
            QueryResponse::stats(stats_json(shared)),
            PhaseNanos::default(),
        ),
        RequestOp::Health => (
            QueryResponse::stats(health_json(shared)),
            PhaseNanos::default(),
        ),
        RequestOp::Metrics => (
            metrics_response(shared, request.format),
            PhaseNanos::default(),
        ),
        RequestOp::Shutdown => {
            shared.stop.store(true, Ordering::SeqCst);
            (
                QueryResponse {
                    status: "ok".to_string(),
                    digest: None,
                    source: None,
                    payload: None,
                    error: None,
                    stats: None,
                    metrics: None,
                    timing: None,
                },
                PhaseNanos::default(),
            )
        }
        RequestOp::Query => {
            shared.active.fetch_add(1, Ordering::SeqCst);
            let answered = handle_query(shared, id, &request);
            shared.active.fetch_sub(1, Ordering::SeqCst);
            answered
        }
    };
    let elapsed = begun.elapsed();
    shared.latency.for_op(request.op).record(elapsed);
    finish_request(shared, client, id, &request, response, phases, elapsed)
}

/// Post-dispatch bookkeeping shared by every op: feeds the flight
/// recorder, the `--log` event log, and the `--slow-ms` slow-query log,
/// and attaches the optional `timing` breakdown (response metadata
/// only — the payload bytes are untouched, so digests and byte-identity
/// guarantees are unaffected).
fn finish_request(
    shared: &Arc<Shared>,
    client: u64,
    id: u64,
    request: &QueryRequest,
    response: QueryResponse,
    phases: PhaseNanos,
    elapsed: Duration,
) -> QueryResponse {
    let total_ms = elapsed.as_secs_f64() * 1e3;
    let op = request.op.as_str();
    shared.flight.record(
        "request",
        format!(
            "id={id} client={client} op={op} status={} ms={total_ms:.3}",
            response.status
        ),
    );
    if let Some(log) = &shared.event_log {
        let mut event = Json::object();
        event.insert("kind", "request");
        event.insert("id", id as f64);
        event.insert("client", client as f64);
        event.insert("op", op);
        event.insert("status", response.status.as_str());
        event.insert("ms", total_ms);
        if let Err(e) = log.append(event) {
            eprintln!("xpd: {e}");
        }
    }
    if let (Some(slow_ms), Some(log)) = (shared.slow_ms, &shared.slow_log) {
        if total_ms >= slow_ms as f64 {
            let mut event = timing_json(total_ms, phases);
            event.insert("kind", "slow");
            event.insert("id", id as f64);
            event.insert("op", op);
            event.insert("status", response.status.as_str());
            if let Some(digest) = &response.digest {
                event.insert("digest", digest.as_str());
            }
            if let Err(e) = log.append(event) {
                eprintln!("xpd: {e}");
            }
        }
    }
    if request.timing {
        return response.with_timing(timing_json(total_ms, phases));
    }
    response
}

/// The phase-breakdown object carried by `timing` responses and
/// slow-query log records.
fn timing_json(total_ms: f64, phases: PhaseNanos) -> Json {
    let ms = |nanos: u64| nanos as f64 / 1e6;
    let mut o = Json::object();
    o.insert("total_ms", total_ms);
    o.insert("queue_wait_ms", ms(phases.queue_wait));
    o.insert("eval_ms", ms(phases.eval));
    o.insert("store_write_ms", ms(phases.store_write));
    o
}

/// Serves the `metrics` op in the asked rendering.
fn metrics_response(shared: &Arc<Shared>, format: MetricsFormat) -> QueryResponse {
    let g = gauges(shared);
    match format {
        MetricsFormat::Json => QueryResponse::metrics(metrics::metrics_json(&g)),
        MetricsFormat::Prometheus => QueryResponse::metrics_text(metrics::prometheus_text(&g)),
    }
}

/// Samples the instantaneous state the metrics renderers export as
/// gauges.
fn gauges(shared: &Arc<Shared>) -> Gauges {
    let store = shared.store.stats();
    Gauges {
        queue_depth: shared.queue.len() as u64,
        queue_cap: shared.queue.cap() as u64,
        inflight: shared.active.load(Ordering::SeqCst),
        store_entries: store.entries as u64,
        store_bytes: store.bytes,
        uptime_secs: shared.started.elapsed().as_secs_f64(),
        pid: std::process::id(),
    }
}

/// The HTTP bridge's GET dispatch: `/metrics` serves the Prometheus
/// text exposition, `/stats` and `/health` serve their JSON objects.
fn http_get(shared: &Arc<Shared>, path: &str) -> (&'static str, &'static str, String) {
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            metrics::prometheus_text(&gauges(shared)),
        ),
        "/stats" => ("200 OK", "application/json", stats_json(shared).render()),
        "/health" => ("200 OK", "application/json", health_json(shared).render()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found (try /metrics, /stats, or /health)\n".to_string(),
        ),
    }
}

fn handle_query(
    shared: &Arc<Shared>,
    id: u64,
    request: &QueryRequest,
) -> (QueryResponse, PhaseNanos) {
    let digest = match shared.engine.digest(request) {
        Ok(d) => d,
        Err(e) => return (QueryResponse::error(e), PhaseNanos::default()),
    };
    // The deadline clock starts when the request is parsed. Joiners
    // share the leader's flight, so the leader's deadline governs a
    // deduped answer — a joiner with a tighter deadline still gets the
    // payload when the leader does (documented trade: dedup identity is
    // the digest, and the deadline is deliberately not part of it).
    let deadline = request
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    // The dedup point: the first requester of a digest leads (checks
    // the store, enqueues on a miss, waits); concurrent requesters of
    // the same digest join the leader's flight and share its answer.
    let mut led = false;
    let outcome = shared.inflight.get_or_compute(&digest, || {
        led = true;
        answer_cold(shared, id, &digest, request, deadline)
    });
    if led {
        // Answered: drop the memory copy so the disk store's LRU cap
        // remains the only capacity policy. Late requesters become new
        // leaders and hit the store.
        shared.inflight.remove(&digest);
    } else {
        shared.counters.inflight_joins.add(1);
    }
    let zero = PhaseNanos::default();
    match outcome {
        Ok(Answer::Ready(source, payload, phases)) => {
            (QueryResponse::ok(&digest, source, payload.as_str()), phases)
        }
        Ok(Answer::Busy(message)) => (QueryResponse::busy(message), zero),
        Ok(Answer::TimedOut(message)) => (QueryResponse::timeout(message), zero),
        Ok(Answer::Failed(message)) => (QueryResponse::error(message), zero),
        Err(panicked) => (QueryResponse::error(panicked.to_string()), zero),
    }
}

/// The leader's path on an in-flight miss: serve from the store or
/// enqueue for the scheduler and wait.
fn answer_cold(
    shared: &Arc<Shared>,
    id: u64,
    digest: &str,
    request: &QueryRequest,
    deadline: Option<Instant>,
) -> Answer {
    if let Some(payload) = shared.store.get(digest) {
        shared.counters.store_hits.add(1);
        return Answer::Ready(Source::Store, Arc::new(payload), PhaseNanos::default());
    }
    shared.counters.store_misses.add(1);
    if shared.stop.load(Ordering::SeqCst) {
        return Answer::Busy("daemon is shutting down".to_string());
    }
    if let Some(d) = deadline {
        if Instant::now() >= d {
            return timed_out(shared, request);
        }
    }
    let (answer, answered) = mpsc::channel();
    let job = Job {
        id,
        digest: digest.to_string(),
        request: request.clone(),
        answer,
        deadline,
        enqueued_at: Instant::now(),
    };
    match shared.queue.push(job) {
        Ok(depth) => {
            shared.counters.enqueued.add(1);
            // Peak-depth as a monotone counter: `raise_to` emits only
            // the delta over the previous peak into the shared
            // registry, so the counter's final value in a trace summary
            // *is* the peak depth.
            shared.counters.peak_depth.raise_to(depth as u64);
            answered.recv().unwrap_or_else(|_| {
                Answer::Failed("query was dropped before it was answered".to_string())
            })
        }
        Err(Refused::Full) => {
            shared.counters.rejected.add(1);
            Answer::Busy(format!(
                "request queue full ({} pending); retry later",
                shared.queue.cap()
            ))
        }
        Err(Refused::Closed) => Answer::Busy("daemon is shutting down".to_string()),
    }
}

/// Records one expired request and builds its answer.
fn timed_out(shared: &Arc<Shared>, request: &QueryRequest) -> Answer {
    shared.counters.timeouts.add(1);
    Answer::TimedOut(format!(
        "deadline of {} ms expired before evaluation",
        request.deadline_ms.unwrap_or(0)
    ))
}

/// Takes batches until the queue closes: evaluate, persist, answer. A
/// batch is whatever is queued when the scheduler is free, up to
/// [`BATCH_MAX`]: queries that arrive while the engine is busy form the
/// next batch, and an idle daemon starts on a lone query at once.
fn scheduler_loop(shared: &Arc<Shared>) {
    while let Some(batch) = shared.queue.pop_batch(BATCH_MAX) {
        // Requests whose deadline expired while queued are answered
        // `timeout` here, *before* engine time is spent on them —
        // graceful degradation under overload: the backlog sheds
        // abandoned work instead of computing answers nobody awaits.
        let now = Instant::now();
        let (batch, expired): (Vec<Job>, Vec<Job>) = batch
            .into_iter()
            .partition(|job| job.deadline.is_none_or(|d| now < d));
        for job in expired {
            let _ = job.answer.send(timed_out(shared, &job.request));
        }
        if batch.is_empty() {
            continue;
        }
        shared.counters.batches.add(1);
        shared.counters.batch_points.add(batch.len() as u64);
        let _span = trace::span("xpd.batch");

        // A job's queue wait runs from its push until its batch was taken.
        let queue_wait = |job: &Job| now.duration_since(job.enqueued_at).as_nanos() as u64;
        for job in &batch {
            shared.latency.queue_wait.record_nanos(queue_wait(job));
        }

        let requests: Vec<QueryRequest> = batch.iter().map(|j| j.request.clone()).collect();
        let eval_begun = Instant::now();
        let results = catch_unwind(AssertUnwindSafe(|| shared.engine.evaluate(&requests)));
        let eval_nanos = eval_begun.elapsed().as_nanos() as u64;
        shared.latency.eval.record_nanos(eval_nanos);
        shared.flight.record(
            "batch",
            format!(
                "points={} ids={:?} eval_ms={:.3}",
                batch.len(),
                batch.iter().map(|j| j.id).collect::<Vec<_>>(),
                eval_nanos as f64 / 1e6
            ),
        );
        match results {
            Ok(results) => {
                for (i, job) in batch.iter().enumerate() {
                    let result = results.get(i).cloned().unwrap_or_else(|| {
                        Err(format!(
                            "engine returned {} results for a batch of {}",
                            results.len(),
                            batch.len()
                        ))
                    });
                    let answer = match result {
                        Ok(payload) => {
                            let put_begun = Instant::now();
                            if let Err(e) = shared.store.put(&job.digest, &payload) {
                                eprintln!("xpd: store put failed: {e}");
                            }
                            let store_write = put_begun.elapsed().as_nanos() as u64;
                            shared.latency.store_write.record_nanos(store_write);
                            let phases = PhaseNanos {
                                queue_wait: queue_wait(job),
                                eval: eval_nanos,
                                store_write,
                            };
                            Answer::Ready(Source::Computed, Arc::new(payload), phases)
                        }
                        Err(message) => Answer::Failed(message),
                    };
                    let _ = job.answer.send(answer);
                }
            }
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                for job in &batch {
                    let _ = job
                        .answer
                        .send(Answer::Failed(format!("engine panicked: {message}")));
                }
            }
        }
    }
}

/// The live counter object served to `stats` requests.
fn stats_json(shared: &Arc<Shared>) -> Json {
    let c = &shared.counters;
    // `stats` reports *this server's* numbers: the scoped counters'
    // local cells, not the process-wide registry (tests run several
    // servers in one process; `metrics` serves the global view).
    let load = |sc: &ScopedCounter| sc.local() as f64;
    let store = shared.store.stats();

    let mut store_json = Json::object();
    store_json.insert("hits", load(&c.store_hits));
    store_json.insert("misses", load(&c.store_misses));
    store_json.insert("entries", store.entries as f64);
    store_json.insert("bytes", store.bytes as f64);
    store_json.insert("evictions", store.evictions as f64);
    store_json.insert("corrupt", store.corrupt as f64);
    store_json.insert("durability", shared.store.durability().to_string().as_str());

    let mut queue_json = Json::object();
    queue_json.insert("depth", shared.queue.len() as f64);
    queue_json.insert("cap", shared.queue.cap() as f64);
    queue_json.insert("enqueued", load(&c.enqueued));
    queue_json.insert("rejected", load(&c.rejected));
    queue_json.insert("timeouts", load(&c.timeouts));
    queue_json.insert("peak_depth", load(&c.peak_depth));

    let mut batch_json = Json::object();
    batch_json.insert("batches", load(&c.batches));
    batch_json.insert("points", load(&c.batch_points));

    let mut o = Json::object();
    o.insert("requests", load(&c.requests));
    o.insert("inflight_joins", load(&c.inflight_joins));
    o.insert("store", store_json);
    o.insert("queue", queue_json);
    o.insert("batch", batch_json);
    if let Some(inj) = &shared.chaos {
        let mut chaos_json = Json::object();
        chaos_json.insert("seed", inj.seed() as f64);
        chaos_json.insert("injected", inj.injected() as f64);
        o.insert("chaos", chaos_json);
    }
    o.insert("engine", shared.engine.describe());
    o
}

/// The readiness-probe object served to `health` requests: cheap,
/// capacity-focused, and stable-shaped (no engine description, no
/// cumulative counters a probe would have to diff). `ready` is false
/// once shutdown has begun.
fn health_json(shared: &Arc<Shared>) -> Json {
    let store = shared.store.stats();
    let mut o = Json::object();
    o.insert("ready", !shared.stop.load(Ordering::SeqCst));
    o.insert("uptime_secs", shared.started.elapsed().as_secs_f64());
    o.insert("pid", std::process::id() as f64);
    o.insert("started_unix_ms", shared.started_unix_ms as f64);
    o.insert("queue_depth", shared.queue.len() as f64);
    o.insert("queue_cap", shared.queue.cap() as f64);
    o.insert("inflight", shared.active.load(Ordering::SeqCst) as f64);
    o.insert("store_entries", store.entries as f64);
    o.insert("store_bytes", store.bytes as f64);
    o.insert("store_corrupt", store.corrupt as f64);
    o
}
