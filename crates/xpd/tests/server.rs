//! Integration tests for the daemon itself, driven through real
//! sockets with a mock [`QueryEngine`]: compute-then-store-hit flow,
//! restart persistence, error containment, backpressure, queue order,
//! the connection cap, and a concurrent-clients property asserting
//! exactly-once evaluation per unique digest.

use common::digest::Fnv1a;
use common::json::Json;
use common::proto::{QueryRequest, QueryResponse, Source};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xpd::client::{self, Connection, Endpoint};
use xpd::server::{Server, ServerConfig};
use xpd::QueryEngine;

/// A fresh, empty temp directory unique to this process and test.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xpd-server-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The canned payload the mock engine produces for an artifact query.
fn mock_payload(request: &QueryRequest) -> String {
    let mut sets: Vec<_> = request.sets.clone();
    sets.sort();
    format!(
        "{{\n  \"artifact\": \"{}\",\n  \"sets\": {:?}\n}}\n",
        request.artifact, sets
    )
}

/// A gate the blocking-engine test uses to park `evaluate` calls.
#[derive(Default)]
struct Gate {
    state: Mutex<(bool, usize)>, // (open, evaluate calls entered)
    changed: Condvar,
}

impl Gate {
    fn enter_and_wait_open(&self) {
        let mut state = self.state.lock().unwrap();
        state.1 += 1;
        self.changed.notify_all();
        while !state.0 {
            state = self.changed.wait(state).unwrap();
        }
    }

    fn open(&self) {
        let mut state = self.state.lock().unwrap();
        state.0 = true;
        self.changed.notify_all();
    }

    fn wait_entered(&self, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut state = self.state.lock().unwrap();
        while state.1 < n {
            assert!(Instant::now() < deadline, "engine never entered evaluate");
            let (next, _) = self
                .changed
                .wait_timeout(state, Duration::from_millis(50))
                .unwrap();
            state = next;
        }
    }
}

/// A deterministic engine: digests are content hashes of the request,
/// payloads are canned, every evaluation is counted per digest, and
/// every `evaluate` call's artifacts are recorded in call order.
/// `artifact == "fail-*"` evaluates to an error, `"explode"` panics,
/// and `"bad"` fails at digest time.
#[derive(Default)]
struct MockEngine {
    evaluated: Mutex<HashMap<String, usize>>,
    calls: Mutex<Vec<Vec<String>>>,
    gate: Option<Arc<Gate>>,
}

impl MockEngine {
    /// An engine whose `evaluate` calls park until `gate` opens.
    fn gated(gate: &Arc<Gate>) -> MockEngine {
        MockEngine {
            gate: Some(Arc::clone(gate)),
            ..MockEngine::default()
        }
    }

    /// The artifacts of every `evaluate` call so far, in call order.
    fn calls(&self) -> Vec<Vec<String>> {
        self.calls.lock().unwrap().clone()
    }

    fn evaluations(&self, digest: &str) -> usize {
        *self.evaluated.lock().unwrap().get(digest).unwrap_or(&0)
    }

    fn digest_of(request: &QueryRequest) -> String {
        let mut sets: Vec<_> = request.sets.clone();
        sets.sort();
        let mut h = Fnv1a::of("mock|");
        h.update(&request.artifact);
        for (k, v) in &sets {
            h.update("|");
            h.update(k);
            h.update("=");
            h.update(v);
        }
        h.hex()
    }
}

impl QueryEngine for MockEngine {
    fn digest(&self, request: &QueryRequest) -> Result<String, String> {
        if request.artifact == "bad" {
            return Err(format!("no such artifact {:?}", request.artifact));
        }
        Ok(Self::digest_of(request))
    }

    fn evaluate(&self, requests: &[QueryRequest]) -> Vec<Result<String, String>> {
        self.calls
            .lock()
            .unwrap()
            .push(requests.iter().map(|r| r.artifact.clone()).collect());
        if let Some(gate) = &self.gate {
            gate.enter_and_wait_open();
        }
        requests
            .iter()
            .map(|request| {
                if request.artifact == "explode" {
                    panic!("mock engine exploded");
                }
                if request.artifact.starts_with("fail") {
                    return Err(format!("cannot evaluate {:?}", request.artifact));
                }
                let digest = Self::digest_of(request);
                *self.evaluated.lock().unwrap().entry(digest).or_insert(0) += 1;
                Ok(mock_payload(request))
            })
            .collect()
    }

    fn describe(&self) -> Json {
        let mut o = Json::object();
        o.insert("kind", "mock");
        o
    }
}

/// Binds a TCP server on a free port and runs it on its own thread.
fn start_tcp(
    config: ServerConfig,
    engine: Arc<MockEngine>,
) -> (Endpoint, JoinHandle<Result<(), String>>) {
    let mut config = config;
    config.tcp = Some("127.0.0.1:0".to_string());
    let server = Server::bind(config, engine).unwrap();
    let addr = server.tcp_addr().unwrap();
    let handle = std::thread::spawn(move || server.run());
    (Endpoint::Tcp(addr.to_string()), handle)
}

fn shutdown(endpoint: &Endpoint, handle: JoinHandle<Result<(), String>>) {
    let response = client::request(endpoint, &QueryRequest::shutdown(), None).unwrap();
    assert_eq!(response.status, "ok");
    handle.join().unwrap().unwrap();
}

fn ok_query(endpoint: &Endpoint, request: &QueryRequest) -> QueryResponse {
    let response = client::request(endpoint, request, None).unwrap();
    assert_eq!(response.status, "ok", "error: {:?}", response.error);
    response
}

/// Polls `stats` until the daemon's queue holds `depth` jobs.
fn wait_for_depth(endpoint: &Endpoint, depth: f64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while client::request(endpoint, &QueryRequest::stats(), None)
        .unwrap()
        .stats
        .unwrap()
        .get("queue")
        .and_then(|q| q.get("depth"))
        .and_then(Json::as_f64)
        != Some(depth)
    {
        assert!(
            Instant::now() < deadline,
            "queue never reached depth {depth}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Sends one query for `artifact` from its own client thread.
fn ask(endpoint: &Endpoint, artifact: &'static str) -> JoinHandle<QueryResponse> {
    let endpoint = endpoint.clone();
    std::thread::spawn(move || ok_query(&endpoint, &QueryRequest::query(artifact)))
}

#[test]
fn queries_compute_once_then_hit_the_store() {
    let dir = temp_dir("compute-then-hit");
    let engine = Arc::new(MockEngine::default());
    let (endpoint, handle) = start_tcp(ServerConfig::new(dir.join("store")), Arc::clone(&engine));

    let request = QueryRequest::query("fig6")
        .with_set("bw", "2x")
        .with_set("gpms", "8");
    let first = ok_query(&endpoint, &request);
    assert_eq!(first.source, Some(Source::Computed));
    assert_eq!(
        first.payload.as_deref(),
        Some(mock_payload(&request).as_str())
    );

    let second = ok_query(&endpoint, &request);
    assert_eq!(
        second.source,
        Some(Source::Store),
        "second query is a store hit"
    );
    assert_eq!(second.payload, first.payload, "hit is byte-identical");
    assert_eq!(second.digest, first.digest);
    assert_eq!(engine.evaluations(first.digest.as_deref().unwrap()), 1);

    // Set order does not matter: same digest, still a store hit.
    let reordered = QueryRequest::query("fig6")
        .with_set("gpms", "8")
        .with_set("bw", "2x");
    let third = ok_query(&endpoint, &reordered);
    assert_eq!(third.source, Some(Source::Store));

    shutdown(&endpoint, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_store_survives_a_daemon_restart() {
    let dir = temp_dir("restart");
    let request = QueryRequest::query("fig2");
    let first_payload;
    {
        let engine = Arc::new(MockEngine::default());
        let (endpoint, handle) =
            start_tcp(ServerConfig::new(dir.join("store")), Arc::clone(&engine));
        first_payload = ok_query(&endpoint, &request).payload;
        shutdown(&endpoint, handle);
    }
    // A brand-new daemon (and engine) over the same store directory
    // serves the persisted payload without re-evaluating anything.
    let engine = Arc::new(MockEngine::default());
    let (endpoint, handle) = start_tcp(ServerConfig::new(dir.join("store")), Arc::clone(&engine));
    let served = ok_query(&endpoint, &request);
    assert_eq!(served.source, Some(Source::Store));
    assert_eq!(served.payload, first_payload);
    assert!(
        engine.evaluated.lock().unwrap().is_empty(),
        "nothing re-evaluated"
    );
    shutdown(&endpoint, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unix_socket_round_trip() {
    let dir = temp_dir("unix");
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("xpd.sock");
    let mut config = ServerConfig::new(dir.join("store"));
    config.socket = Some(socket.clone());
    let engine = Arc::new(MockEngine::default());
    let server = Server::bind(config, engine).unwrap();
    let handle = std::thread::spawn(move || server.run());
    let endpoint = Endpoint::Unix(socket.clone());

    let response = ok_query(&endpoint, &QueryRequest::query("fig7"));
    assert_eq!(response.source, Some(Source::Computed));
    shutdown(&endpoint, handle);
    assert!(!socket.exists(), "socket file removed on clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn engine_failures_are_contained_per_request() {
    let dir = temp_dir("failures");
    let engine = Arc::new(MockEngine::default());
    let (endpoint, handle) = start_tcp(ServerConfig::new(dir.join("store")), engine);

    // Digest-time rejection: fails fast, nothing enqueued.
    let bad = client::request(&endpoint, &QueryRequest::query("bad"), None).unwrap();
    assert_eq!(bad.status, "error");
    assert!(bad.error.unwrap().contains("no such artifact"));

    // Evaluation error: reported to the requester.
    let failed = client::request(&endpoint, &QueryRequest::query("fail-here"), None).unwrap();
    assert_eq!(failed.status, "error");
    assert!(failed.error.unwrap().contains("cannot evaluate"));

    // Engine panic: contained, reported, and the daemon keeps serving.
    let panicked = client::request(&endpoint, &QueryRequest::query("explode"), None).unwrap();
    assert_eq!(panicked.status, "error");
    assert!(panicked.error.unwrap().contains("engine panicked"));

    let after = ok_query(&endpoint, &QueryRequest::query("fig8"));
    assert_eq!(after.source, Some(Source::Computed));

    shutdown(&endpoint, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_lines_get_error_responses() {
    let dir = temp_dir("malformed");
    let engine = Arc::new(MockEngine::default());
    let (endpoint, handle) = start_tcp(ServerConfig::new(dir.join("store")), engine);

    // Drive the raw protocol: garbage JSON, then a bad op, then a real
    // query on the same connection.
    use std::io::{BufRead, BufReader, Write};
    let Endpoint::Tcp(addr) = &endpoint else {
        unreachable!()
    };
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let reader = stream.try_clone().unwrap();
    let mut lines = BufReader::new(reader).lines();
    let mut exchange = |line: &str| -> QueryResponse {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let reply = lines.next().unwrap().unwrap();
        QueryResponse::from_json(&Json::parse(&reply).unwrap()).unwrap()
    };

    assert_eq!(exchange("{not json").status, "error");
    assert_eq!(exchange(r#"{"op":"frobnicate"}"#).status, "error");
    assert_eq!(exchange(r#"{"artifact":""}"#).status, "error");
    let good = exchange(r#"{"op":"query","artifact":"fig9"}"#);
    assert_eq!(good.status, "ok");
    assert_eq!(good.source, Some(Source::Computed));
    drop(stream);

    shutdown(&endpoint, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_endless_request_line_is_cut_off_at_the_cap() {
    let dir = temp_dir("oversize");
    let engine = Arc::new(MockEngine::default());
    let (endpoint, handle) = start_tcp(ServerConfig::new(dir.join("store")), engine);

    // 1 MiB with no newline: the daemon answers one `error` and closes
    // the connection instead of buffering the line.
    use std::io::{BufRead, BufReader, ErrorKind, Write};
    let Endpoint::Tcp(addr) = &endpoint else {
        unreachable!()
    };
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    // The daemon may close before taking in every byte.
    let _ = stream.write_all(&vec![b'x'; 1 << 20]);
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let response = QueryResponse::from_json(&Json::parse(&reply).unwrap()).unwrap();
    assert_eq!(response.status, "error");
    let message = response.error.unwrap();
    assert!(message.contains("exceeds 65536 bytes"), "{message}");
    reply.clear();
    match reader.read_line(&mut reply) {
        Ok(n) => assert_eq!(n, 0, "nothing follows the error: {reply:?}"),
        // Closing with the rest of the line unread resets the connection.
        Err(e) => assert_eq!(e.kind(), ErrorKind::ConnectionReset),
    }

    // A fresh connection is still answered.
    ok_query(&endpoint, &QueryRequest::query("fig9"));
    shutdown(&endpoint, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_reports_store_queue_and_engine_counters() {
    let dir = temp_dir("stats");
    let engine = Arc::new(MockEngine::default());
    let (endpoint, handle) = start_tcp(ServerConfig::new(dir.join("store")), engine);

    let request = QueryRequest::query("headline");
    ok_query(&endpoint, &request);
    ok_query(&endpoint, &request); // store hit

    let response = client::request(&endpoint, &QueryRequest::stats(), None).unwrap();
    assert_eq!(response.status, "ok");
    let stats = response.stats.expect("stats payload");
    let num = |path: &[&str]| -> f64 {
        let mut j = &stats;
        for p in path {
            j = j.get(p).unwrap_or_else(|| panic!("stats missing {path:?}"));
        }
        j.as_f64()
            .unwrap_or_else(|| panic!("stats {path:?} not a number"))
    };
    assert_eq!(num(&["requests"]), 3.0, "two queries + this stats call");
    assert_eq!(num(&["store", "hits"]), 1.0);
    assert_eq!(num(&["store", "misses"]), 1.0);
    assert_eq!(num(&["store", "entries"]), 1.0);
    assert_eq!(num(&["queue", "enqueued"]), 1.0);
    assert_eq!(num(&["queue", "rejected"]), 0.0);
    assert!(num(&["batch", "batches"]) >= 1.0);
    assert_eq!(
        stats
            .get("engine")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("mock")
    );

    shutdown(&endpoint, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_full_queue_answers_busy_instead_of_blocking() {
    let dir = temp_dir("busy");
    let gate = Arc::new(Gate::default());
    let engine = Arc::new(MockEngine::gated(&gate));
    let mut config = ServerConfig::new(dir.join("store"));
    config.queue_cap = 1;
    let (endpoint, handle) = start_tcp(config, engine);

    // First query: popped by the scheduler, parked inside `evaluate`.
    let first = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || client::request(&endpoint, &QueryRequest::query("a"), None))
    };
    gate.wait_entered(1);

    // Second query: enqueued (the scheduler is busy), waits its turn.
    let second = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || client::request(&endpoint, &QueryRequest::query("b"), None))
    };
    // Wait until the second query occupies the queue's single slot.
    wait_for_depth(&endpoint, 1.0);

    // Third query: the queue is full — busy, immediately.
    let third = client::request(&endpoint, &QueryRequest::query("c"), None).unwrap();
    assert_eq!(third.status, "busy");
    assert!(third.error.unwrap().contains("queue full"));

    // Release the engine: both parked queries complete normally.
    gate.open();
    for parked in [first, second] {
        let response = parked.join().unwrap().unwrap();
        assert_eq!(response.status, "ok", "error: {:?}", response.error);
        assert_eq!(response.source, Some(Source::Computed));
    }

    shutdown(&endpoint, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_pipelining_client_cannot_get_ahead_of_another_clients_query() {
    use std::io::{BufRead, BufReader, Write};
    let dir = temp_dir("arrival-order");
    let gate = Arc::new(Gate::default());
    let engine = Arc::new(MockEngine::gated(&gate));
    let (endpoint, handle) = start_tcp(ServerConfig::new(dir.join("store")), Arc::clone(&engine));
    let Endpoint::Tcp(addr) = &endpoint else {
        unreachable!()
    };

    // Client A's first query parks the engine. A then pipelines two
    // more queries in one write; its connection reads each only after
    // the one before is answered.
    let line = |artifact: &str| QueryRequest::query(artifact).to_json().render_jsonl_line();
    let mut a = std::net::TcpStream::connect(addr).unwrap();
    a.write_all(line("a1").as_bytes()).unwrap();
    gate.wait_entered(1);
    a.write_all((line("a2") + &line("a3")).as_bytes()).unwrap();

    // Client B asks once, meanwhile, and is queued.
    let b = ask(&endpoint, "b1");
    wait_for_depth(&endpoint, 1.0);
    gate.open();

    for reply in BufReader::new(a).lines().take(3) {
        let reply = QueryResponse::from_json(&Json::parse(&reply.unwrap()).unwrap()).unwrap();
        assert_eq!(reply.status, "ok", "error: {:?}", reply.error);
    }
    b.join().unwrap();
    let order = engine.calls().concat();
    let at = |artifact: &str| order.iter().position(|a| a == artifact).unwrap();
    assert!(at("b1") < at("a3"), "A got ahead of B: {order:?}");

    shutdown(&endpoint, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queries_that_arrive_while_the_engine_is_busy_form_the_next_batch() {
    let dir = temp_dir("next-batch");
    let gate = Arc::new(Gate::default());
    let engine = Arc::new(MockEngine::gated(&gate));
    let (endpoint, handle) = start_tcp(ServerConfig::new(dir.join("store")), Arc::clone(&engine));

    // The engine holds `a`; `b` and `c`, from two more clients, queue.
    let a = ask(&endpoint, "a");
    gate.wait_entered(1);
    let b = ask(&endpoint, "b");
    wait_for_depth(&endpoint, 1.0);
    let c = ask(&endpoint, "c");
    wait_for_depth(&endpoint, 2.0);
    gate.open();

    for asked in [a, b, c] {
        assert_eq!(asked.join().unwrap().source, Some(Source::Computed));
    }
    assert_eq!(engine.calls(), vec![vec!["a"], vec!["b", "c"]]);

    shutdown(&endpoint, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn connections_beyond_the_cap_are_answered_busy_and_closed() {
    use std::io::{BufRead, BufReader};
    let dir = temp_dir("conn-cap");
    let engine = Arc::new(MockEngine::default());
    let (endpoint, handle) = start_tcp(ServerConfig::new(dir.join("store")), engine);
    let Endpoint::Tcp(addr) = &endpoint else {
        unreachable!()
    };

    // Hold the daemon's 256 connections idle, each proven served by a
    // round trip. They connect in chunks, so one pass of the accept
    // loop takes a whole chunk.
    let mut idle: Vec<Connection> = Vec::new();
    for _ in 0..4 {
        let mut chunk: Vec<Connection> = (0..64)
            .map(|_| Connection::connect(&endpoint, None).unwrap())
            .collect();
        for conn in &mut chunk {
            assert_eq!(conn.request(&QueryRequest::health()).unwrap().status, "ok");
        }
        idle.append(&mut chunk);
    }

    // The next connection reads one `busy` line, then EOF.
    let extra = std::net::TcpStream::connect(addr).unwrap();
    extra
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(extra);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let response = QueryResponse::from_json(&Json::parse(&reply).unwrap()).unwrap();
    assert_eq!(response.status, "busy");
    assert!(response.error.unwrap().contains("too many connections"));
    reply.clear();
    assert_eq!(reader.read_line(&mut reply).unwrap(), 0, "{reply:?}");

    // Closing one idle connection lets a new client in.
    idle.pop();
    let policy = client::RetryPolicy {
        retries: 10,
        backoff: Duration::from_millis(20),
        jitter_seed: 1,
    };
    let health =
        client::request_with_retries(&endpoint, &QueryRequest::health(), None, &policy).unwrap();
    assert_eq!(health.status, "ok", "error: {:?}", health.error);

    drop(idle);
    let bye =
        client::request_with_retries(&endpoint, &QueryRequest::shutdown(), None, &policy).unwrap();
    assert_eq!(bye.status, "ok");
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn health_reports_readiness_queue_and_store() {
    let dir = temp_dir("health");
    let engine = Arc::new(MockEngine::default());
    let (endpoint, handle) = start_tcp(ServerConfig::new(dir.join("store")), engine);

    ok_query(&endpoint, &QueryRequest::query("fig6"));
    let response = client::request(&endpoint, &QueryRequest::health(), None).unwrap();
    assert_eq!(response.status, "ok");
    let health = response.stats.expect("health payload");
    assert_eq!(health.get("ready").and_then(Json::as_bool), Some(true));
    assert_eq!(health.get("queue_depth").and_then(Json::as_f64), Some(0.0));
    assert_eq!(
        health.get("inflight").and_then(Json::as_f64),
        Some(0.0),
        "no queries in flight while health is being answered"
    );
    assert_eq!(
        health.get("store_entries").and_then(Json::as_f64),
        Some(1.0)
    );
    assert_eq!(
        health.get("store_corrupt").and_then(Json::as_f64),
        Some(0.0)
    );
    assert!(
        health.get("uptime_secs").and_then(Json::as_f64).unwrap() >= 0.0,
        "uptime from the monotonic start instant"
    );
    assert_eq!(
        health.get("pid").and_then(Json::as_f64),
        Some(f64::from(std::process::id()))
    );
    assert!(
        health
            .get("started_unix_ms")
            .and_then(Json::as_f64)
            .unwrap()
            > 0.0,
        "wall-clock start timestamp present"
    );

    shutdown(&endpoint, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_expired_deadline_is_answered_timeout_not_computed() {
    let dir = temp_dir("deadline");
    let gate = Arc::new(Gate::default());
    let engine = Arc::new(MockEngine::gated(&gate));
    let (endpoint, handle) = start_tcp(ServerConfig::new(dir.join("store")), Arc::clone(&engine));

    // Park the scheduler inside `evaluate` on an unrelated query.
    let parked = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || client::request(&endpoint, &QueryRequest::query("a"), None))
    };
    gate.wait_entered(1);

    // A query with a short deadline queues up behind the parked batch
    // and expires there.
    let doomed = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            client::request(
                &endpoint,
                &QueryRequest::query("b").with_deadline_ms(50),
                None,
            )
        })
    };
    std::thread::sleep(Duration::from_millis(200));
    gate.open();

    let response = doomed.join().unwrap().unwrap();
    assert_eq!(response.status, "timeout", "error: {:?}", response.error);
    assert!(response.error.unwrap().contains("deadline"));
    assert_eq!(
        engine.evaluations(&MockEngine::digest_of(&QueryRequest::query("b"))),
        0,
        "expired work must be shed, not silently computed"
    );
    // The parked query is unaffected.
    let ok = parked.join().unwrap().unwrap();
    assert_eq!(ok.status, "ok");

    // A generous deadline computes normally.
    let relaxed = ok_query(
        &endpoint,
        &QueryRequest::query("c").with_deadline_ms(60_000),
    );
    assert_eq!(relaxed.source, Some(Source::Computed));

    shutdown(&endpoint, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_retrying_client_rides_out_busy_backpressure() {
    let dir = temp_dir("busy-retry");
    let gate = Arc::new(Gate::default());
    let engine = Arc::new(MockEngine::gated(&gate));
    let mut config = ServerConfig::new(dir.join("store"));
    config.queue_cap = 1;
    let (endpoint, handle) = start_tcp(config, engine);

    // Fill the scheduler and the queue's single slot.
    let first = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || client::request(&endpoint, &QueryRequest::query("a"), None))
    };
    gate.wait_entered(1);
    let second = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || client::request(&endpoint, &QueryRequest::query("b"), None))
    };
    wait_for_depth(&endpoint, 1.0);

    // Open the gate shortly after the retrying client's first (busy)
    // attempt, so one of its backoff retries lands in free capacity.
    let opener = {
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            gate.open();
        })
    };
    let policy = client::RetryPolicy {
        retries: 30,
        backoff: Duration::from_millis(20),
        jitter_seed: 7,
    };
    let third =
        client::request_with_retries(&endpoint, &QueryRequest::query("c"), None, &policy).unwrap();
    assert_eq!(
        third.status, "ok",
        "retries absorbed the busy window: {:?}",
        third.error
    );

    opener.join().unwrap();
    for parked in [first, second] {
        assert_eq!(parked.join().unwrap().unwrap().status, "ok");
    }
    shutdown(&endpoint, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_stop_handle_drains_and_exits_cleanly() {
    let dir = temp_dir("stop-handle");
    let engine = Arc::new(MockEngine::default());
    let mut config = ServerConfig::new(dir.join("store"));
    config.tcp = Some("127.0.0.1:0".to_string());
    let server = Server::bind(config, engine).unwrap();
    let addr = server.tcp_addr().unwrap();
    let stop = server.stop_handle();
    let handle = std::thread::spawn(move || server.run());

    let endpoint = Endpoint::Tcp(addr.to_string());
    ok_query(&endpoint, &QueryRequest::query("fig2"));

    // An out-of-band stop (the CLI's signal path) drains and returns.
    stop.stop();
    handle.join().unwrap().unwrap();

    // The store was flushed: a reopen replays the journal cleanly and
    // serves the answer warm.
    let engine = Arc::new(MockEngine::default());
    let (endpoint, handle) = start_tcp(ServerConfig::new(dir.join("store")), Arc::clone(&engine));
    let served = ok_query(&endpoint, &QueryRequest::query("fig2"));
    assert_eq!(served.source, Some(Source::Store));
    assert!(engine.evaluated.lock().unwrap().is_empty());
    shutdown(&endpoint, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_serves_json_and_prometheus_renderings() {
    let dir = temp_dir("metrics");
    let engine = Arc::new(MockEngine::default());
    let (endpoint, handle) = start_tcp(ServerConfig::new(dir.join("store")), engine);

    let request = QueryRequest::query("metrics-art");
    ok_query(&endpoint, &request);
    ok_query(&endpoint, &request); // store hit

    let response = client::request(
        &endpoint,
        &QueryRequest::metrics(common::proto::MetricsFormat::Json),
        None,
    )
    .unwrap();
    assert_eq!(response.status, "ok");
    let doc = response.metrics.expect("metrics payload");
    assert!(doc.get("uptime_secs").and_then(Json::as_f64).unwrap() >= 0.0);
    assert_eq!(
        doc.get("pid").and_then(Json::as_f64),
        Some(f64::from(std::process::id()))
    );
    let gauges = doc.get("gauges").expect("gauges object");
    assert_eq!(gauges.get("queue_depth").and_then(Json::as_f64), Some(0.0));
    assert!(gauges.get("store_entries").and_then(Json::as_f64).unwrap() >= 1.0);
    // The registry is process-cumulative and shared with every other
    // test in this binary, so only lower bounds are stable.
    let requests = doc
        .get("counters")
        .and_then(|c| c.get("xpd.request"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    assert!(requests >= 3.0, "saw {requests} cumulative requests");
    let window = doc.get("window_1m").expect("windowed rollup");
    assert!(window.get("elapsed_secs").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(
        window
            .get("latency")
            .and_then(|l| l.get("xpd.request_duration.query"))
            .and_then(|h| h.get("p99_ms"))
            .and_then(Json::as_f64)
            .is_some(),
        "recent per-op latency quantiles present"
    );

    let response = client::request(
        &endpoint,
        &QueryRequest::metrics(common::proto::MetricsFormat::Prometheus),
        None,
    )
    .unwrap();
    assert_eq!(response.status, "ok");
    let text = response
        .metrics
        .as_ref()
        .and_then(Json::as_str)
        .expect("prometheus text rides as one JSON string")
        .to_string();
    assert!(text.contains("# TYPE xpd_requests_total counter"), "{text}");
    assert!(text.contains("# TYPE xpd_queue_depth gauge"), "{text}");
    assert!(
        text.contains("# TYPE xpd_request_duration summary"),
        "{text}"
    );
    assert!(
        text.contains("xpd_request_duration{op=\"query\",quantile=\"0.99\"}"),
        "{text}"
    );
    for line in text.lines() {
        assert!(
            line.starts_with('#') || line.split_whitespace().count() == 2,
            "malformed exposition line: {line}"
        );
    }

    shutdown(&endpoint, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn timing_is_opt_in_and_leaves_payloads_byte_identical() {
    let dir = temp_dir("timing");
    let engine = Arc::new(MockEngine::default());
    let (endpoint, handle) = start_tcp(ServerConfig::new(dir.join("store")), engine);

    let plain = QueryRequest::query("fig-timing");
    let timed = QueryRequest::query("fig-timing").with_timing();

    let cold = ok_query(&endpoint, &timed);
    assert_eq!(cold.source, Some(Source::Computed));
    let timing = cold.timing.as_ref().expect("cold timing breakdown");
    for key in ["total_ms", "queue_wait_ms", "eval_ms", "store_write_ms"] {
        assert!(
            timing.get(key).and_then(Json::as_f64).is_some(),
            "timing missing {key}: {}",
            timing.render()
        );
    }

    // The same artifact without `timing` is a store hit: the timing
    // flag never reached the digest, and the payload is byte-identical.
    let warm = ok_query(&endpoint, &plain);
    assert_eq!(warm.source, Some(Source::Store));
    assert!(warm.timing.is_none(), "timing is strictly opt-in");
    assert_eq!(warm.payload, cold.payload);
    assert_eq!(warm.digest, cold.digest);

    let warm_timed = ok_query(&endpoint, &timed);
    assert_eq!(warm_timed.source, Some(Source::Store));
    assert!(
        warm_timed.timing.is_some(),
        "store hits carry a breakdown too"
    );

    shutdown(&endpoint, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_http_bridge_serves_scrapers_on_the_same_port() {
    use std::io::{Read, Write};
    let dir = temp_dir("http");
    let engine = Arc::new(MockEngine::default());
    let (endpoint, handle) = start_tcp(ServerConfig::new(dir.join("store")), engine);
    let Endpoint::Tcp(addr) = endpoint.clone() else {
        panic!("tcp endpoint expected");
    };

    let fetch = |path: &str| -> String {
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        body
    };

    let metrics = fetch("/metrics");
    assert!(metrics.starts_with("HTTP/1.0 200 OK\r\n"), "{metrics}");
    assert!(
        metrics.contains("Content-Type: text/plain; version=0.0.4"),
        "{metrics}"
    );
    assert!(metrics.contains("xpd_queue_depth"), "{metrics}");

    let health = fetch("/health");
    assert!(health.starts_with("HTTP/1.0 200 OK\r\n"), "{health}");
    assert!(health.contains("application/json"), "{health}");
    assert!(health.contains("\"ready\""), "{health}");

    let missing = fetch("/frobnicate");
    assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");

    // The JSON protocol still works on the same port afterwards.
    ok_query(&endpoint, &QueryRequest::query("fig2"));

    shutdown(&endpoint, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_requests_land_in_the_slow_query_log() {
    let dir = temp_dir("slow");
    let engine = Arc::new(MockEngine::default());
    let mut config = ServerConfig::new(dir.join("store"));
    config.slow_ms = Some(0); // every request counts as slow
    let (endpoint, handle) = start_tcp(config, engine);

    ok_query(&endpoint, &QueryRequest::query("tortoise"));
    shutdown(&endpoint, handle);

    let text = std::fs::read_to_string(dir.join("store").join("slow.jsonl")).unwrap();
    let records = Json::parse_jsonl(&text).unwrap();
    let slow_query = records
        .iter()
        .find(|r| {
            r.get("kind").and_then(Json::as_str) == Some("slow")
                && r.get("op").and_then(Json::as_str) == Some("query")
        })
        .expect("the artifact query was logged as slow");
    assert_eq!(slow_query.get("status").and_then(Json::as_str), Some("ok"));
    assert!(slow_query.get("total_ms").and_then(Json::as_f64).is_some());
    assert!(slow_query
        .get("queue_wait_ms")
        .and_then(Json::as_f64)
        .is_some());
    assert!(slow_query
        .get("at_unix_ms")
        .and_then(Json::as_f64)
        .is_some());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_quarantined_payload_dumps_the_flight_recorder() {
    let dir = temp_dir("flight");
    let store_dir = dir.join("store");
    let engine = Arc::new(MockEngine::default());
    let (endpoint, handle) = start_tcp(ServerConfig::new(store_dir.clone()), Arc::clone(&engine));

    let request = QueryRequest::query("flighty");
    let first = ok_query(&endpoint, &request);
    let digest = first.digest.clone().unwrap();

    // Corrupt the stored payload behind the daemon's back: the next
    // read must quarantine it, re-evaluate, and dump the flight
    // recorder for forensics.
    let payload_path = store_dir.join(format!("{digest}.json"));
    let mut body = std::fs::read_to_string(&payload_path).unwrap();
    body.push_str("garbage\n");
    std::fs::write(&payload_path, body).unwrap();

    let healed = ok_query(&endpoint, &request);
    assert_eq!(healed.source, Some(Source::Computed), "re-evaluated");
    assert_eq!(healed.payload, first.payload);
    shutdown(&endpoint, handle);

    let dump = std::fs::read_dir(&store_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().starts_with("flightrec-"))
        .expect("quarantine produced a flight-recorder dump");
    let doc = Json::parse(&std::fs::read_to_string(dump.path()).unwrap()).unwrap();
    assert_eq!(doc.get("reason").and_then(Json::as_str), Some("quarantine"));
    let events = doc.get("events").unwrap().as_array().unwrap();
    assert!(
        events
            .iter()
            .any(|e| e.get("kind").and_then(Json::as_str) == Some("store")),
        "dump contains store events"
    );
    assert!(
        events
            .iter()
            .any(|e| e.get("kind").and_then(Json::as_str) == Some("request")),
        "dump contains request events"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Distinguishes proptest cases so each gets a fresh store directory.
static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The exactly-once guarantee: any concurrent schedule of clients
    /// querying overlapping artifacts evaluates each unique digest once
    /// — every later answer comes from the in-flight dedup point or the
    /// disk store.
    #[test]
    fn concurrent_clients_evaluate_each_digest_exactly_once(
        schedule in prop::collection::vec((0_usize..4, 0_usize..3), 1..24),
    ) {
        let dir = temp_dir(&format!("once-{}", CASE.fetch_add(1, Ordering::Relaxed)));
        let engine = Arc::new(MockEngine::default());
        let (endpoint, handle) =
            start_tcp(ServerConfig::new(dir.join("store")), Arc::clone(&engine));

        const ARTIFACTS: [&str; 3] = ["fig2", "fig6", "headline"];
        let mut lanes: Vec<Vec<&str>> = vec![Vec::new(); 4];
        for &(client, artifact) in &schedule {
            lanes[client].push(ARTIFACTS[artifact]);
        }

        let clients: Vec<_> = lanes
            .into_iter()
            .filter(|lane| !lane.is_empty())
            .map(|lane| {
                let endpoint = endpoint.clone();
                std::thread::spawn(move || {
                    let mut conn = Connection::connect(&endpoint, None).unwrap();
                    lane.into_iter()
                        .map(|artifact| {
                            let request = QueryRequest::query(artifact);
                            (request.clone(), conn.request(&request).unwrap())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();

        let mut queried = std::collections::HashSet::new();
        for client in clients {
            for (request, response) in client.join().unwrap() {
                prop_assert_eq!(response.status.as_str(), "ok");
                let expected = mock_payload(&request);
                prop_assert_eq!(
                    response.payload.as_deref(),
                    Some(expected.as_str()),
                    "every answer is the exact payload, whatever its source"
                );
                queried.insert(MockEngine::digest_of(&request));
            }
        }
        for digest in &queried {
            prop_assert_eq!(
                engine.evaluations(digest),
                1,
                "digest {} evaluated more than once",
                digest
            );
        }

        shutdown(&endpoint, handle);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
