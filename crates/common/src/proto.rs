//! Wire protocol of the `xpd` what-if sweep daemon: newline-delimited
//! JSON over a Unix socket or TCP.
//!
//! Each request is one compact JSON object on one line; each response
//! is one compact JSON object on one line. Artifact payloads travel as
//! JSON *strings* (the exact pretty-rendered bytes the `xp run --out`
//! driver would have written, trailing newline included), so a client
//! that prints the payload verbatim is byte-identical to `xp run`
//! output — the property the CI smoke job asserts.
//!
//! The structs here are the single source of truth for field names on
//! both sides: the `xpd` server parses [`QueryRequest`] and renders
//! [`QueryResponse`]; the `xp query` client does the reverse. Keeping
//! them in `common` (below both crates) avoids a dependency cycle
//! between the daemon and the experiment harness.

use crate::json::Json;

/// What a request asks the daemon to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOp {
    /// Evaluate (or serve from the store) one artifact query.
    Query,
    /// Report live server counters: hits, misses, queue depth, store
    /// size.
    Stats,
    /// Report serving health for readiness probes: whether the daemon
    /// is draining, queue depth, in-flight count, and store occupancy
    /// (a trimmed, stable subset of `stats`).
    Health,
    /// Report the always-on telemetry registry — cumulative counters,
    /// windowed rates, and latency quantiles — as JSON or Prometheus
    /// text exposition (see [`MetricsFormat`]).
    Metrics,
    /// Stop accepting connections and shut the daemon down cleanly.
    Shutdown,
}

impl RequestOp {
    /// The op's wire name (also used as a label in logs and metrics).
    pub fn as_str(self) -> &'static str {
        match self {
            RequestOp::Query => "query",
            RequestOp::Stats => "stats",
            RequestOp::Health => "health",
            RequestOp::Metrics => "metrics",
            RequestOp::Shutdown => "shutdown",
        }
    }
}

/// How a [`RequestOp::Metrics`] response should be rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsFormat {
    /// A structured JSON object in the response's `metrics` field.
    #[default]
    Json,
    /// Prometheus text exposition (version 0.0.4), carried as a JSON
    /// string in the response's `metrics` field — printing it verbatim
    /// yields a scrapeable document.
    Prometheus,
}

impl MetricsFormat {
    fn as_str(self) -> &'static str {
        match self {
            MetricsFormat::Json => "json",
            MetricsFormat::Prometheus => "prometheus",
        }
    }
}

/// One client request: an operation, and for [`RequestOp::Query`] the
/// artifact id plus any `key=value` config deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The requested operation.
    pub op: RequestOp,
    /// Artifact id (`fig6`, `fig2`, ...); empty for stats/shutdown.
    pub artifact: String,
    /// Config deltas applied to every configuration in the artifact's
    /// sweep plan (`("bw", "4x")`, `("gpms", "16")`, ...). Order is
    /// irrelevant; servers normalize by key before digesting.
    pub sets: Vec<(String, String)>,
    /// Time budget for answering this query, in milliseconds from the
    /// moment the server parses it. Queued work whose deadline expires
    /// before evaluation starts is answered `timeout`, never silently
    /// computed. `None` waits indefinitely. Excluded from the content
    /// digest: the answer does not depend on it.
    pub deadline_ms: Option<u64>,
    /// Whether the server should attach a per-phase timing breakdown
    /// (`queue_wait`, `eval`, `store_write`) to the answer. Like
    /// `deadline_ms`, excluded from the content digest — the payload
    /// bytes are identical either way.
    pub timing: bool,
    /// Rendering for [`RequestOp::Metrics`] responses; ignored by every
    /// other op.
    pub format: MetricsFormat,
}

impl QueryRequest {
    fn bare(op: RequestOp) -> Self {
        QueryRequest {
            op,
            artifact: String::new(),
            sets: Vec::new(),
            deadline_ms: None,
            timing: false,
            format: MetricsFormat::Json,
        }
    }

    /// A plain artifact query with no config deltas.
    pub fn query(artifact: impl Into<String>) -> Self {
        QueryRequest {
            artifact: artifact.into(),
            ..QueryRequest::bare(RequestOp::Query)
        }
    }

    /// Adds one `key=value` config delta.
    pub fn with_set(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.sets.push((key.into(), value.into()));
        self
    }

    /// Sets the query's time budget in milliseconds.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Asks the server for a per-phase timing breakdown.
    pub fn with_timing(mut self) -> Self {
        self.timing = true;
        self
    }

    /// A stats request.
    pub fn stats() -> Self {
        QueryRequest::bare(RequestOp::Stats)
    }

    /// A health (readiness) request.
    pub fn health() -> Self {
        QueryRequest::bare(RequestOp::Health)
    }

    /// A metrics request in the given rendering.
    pub fn metrics(format: MetricsFormat) -> Self {
        QueryRequest {
            format,
            ..QueryRequest::bare(RequestOp::Metrics)
        }
    }

    /// A shutdown request.
    pub fn shutdown() -> Self {
        QueryRequest::bare(RequestOp::Shutdown)
    }

    /// Serializes the request to its wire form.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.insert("op", self.op.as_str());
        if self.op == RequestOp::Query {
            o.insert("artifact", self.artifact.as_str());
            if !self.sets.is_empty() {
                let mut sets = Json::object();
                for (k, v) in &self.sets {
                    sets.insert(k.as_str(), v.as_str());
                }
                o.insert("set", sets);
            }
            if let Some(ms) = self.deadline_ms {
                o.insert("deadline_ms", ms as f64);
            }
            if self.timing {
                o.insert("timing", true);
            }
        }
        if self.op == RequestOp::Metrics && self.format != MetricsFormat::Json {
            o.insert("format", self.format.as_str());
        }
        o
    }

    /// Parses a request from its wire form, validating the op and the
    /// per-op required fields.
    pub fn from_json(j: &Json) -> Result<QueryRequest, String> {
        let op = match j.get("op").and_then(Json::as_str) {
            Some("query") | None => RequestOp::Query,
            Some("stats") => return Ok(QueryRequest::stats()),
            Some("health") => return Ok(QueryRequest::health()),
            Some("metrics") => {
                let format = match j.get("format").and_then(Json::as_str) {
                    None | Some("json") => MetricsFormat::Json,
                    Some("prometheus") => MetricsFormat::Prometheus,
                    Some(other) => return Err(format!("unknown metrics format {other:?}")),
                };
                return Ok(QueryRequest::metrics(format));
            }
            Some("shutdown") => return Ok(QueryRequest::shutdown()),
            Some(other) => return Err(format!("unknown op {other:?}")),
        };
        let artifact = j
            .get("artifact")
            .and_then(Json::as_str)
            .ok_or_else(|| "query request missing `artifact`".to_string())?;
        if artifact.is_empty() {
            return Err("query request has empty `artifact`".to_string());
        }
        let mut sets = Vec::new();
        if let Some(set) = j.get("set") {
            let pairs = set
                .as_object()
                .ok_or_else(|| "`set` must be an object of key/value strings".to_string())?;
            for (k, v) in pairs {
                let v = v
                    .as_str()
                    .ok_or_else(|| format!("`set.{k}` must be a string"))?;
                if sets.iter().any(|(prev, _): &(String, String)| prev == k) {
                    return Err(format!("duplicate `set` key {k:?}"));
                }
                sets.push((k.clone(), v.to_string()));
            }
        }
        let deadline_ms = match j.get("deadline_ms") {
            None => None,
            Some(v) => {
                let ms = v
                    .as_f64()
                    .filter(|ms| ms.is_finite() && *ms >= 1.0 && ms.fract() == 0.0)
                    .ok_or_else(|| {
                        "`deadline_ms` must be a positive integer of milliseconds".to_string()
                    })?;
                Some(ms as u64)
            }
        };
        let timing = match j.get("timing") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| "`timing` must be a boolean".to_string())?,
        };
        Ok(QueryRequest {
            op,
            artifact: artifact.to_string(),
            sets,
            deadline_ms,
            timing,
            format: MetricsFormat::Json,
        })
    }
}

/// Where an answered query's payload came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Served warm from the content-addressed disk store.
    Store,
    /// Computed by scheduling the query through the sweep executor
    /// (includes requests that joined another client's in-flight
    /// computation — the digest was still executed exactly once).
    Computed,
}

impl Source {
    fn as_str(self) -> &'static str {
        match self {
            Source::Store => "store",
            Source::Computed => "computed",
        }
    }
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// `"ok"`, `"busy"` (queue full — retry later), `"timeout"` (the
    /// request's deadline expired before evaluation started), or
    /// `"error"`.
    pub status: String,
    /// The query's content digest (ok responses).
    pub digest: Option<String>,
    /// Where the payload came from (ok query responses).
    pub source: Option<Source>,
    /// The artifact payload: the exact bytes `xp run --out` would have
    /// written for this query, trailing newline included.
    pub payload: Option<String>,
    /// Human-readable failure description (busy/error responses).
    pub error: Option<String>,
    /// Server counters (stats responses).
    pub stats: Option<Json>,
    /// Always-on telemetry (JSON-format metrics responses).
    pub metrics: Option<Json>,
    /// Per-phase timing breakdown (query responses, only when the
    /// request asked for one). Purely observational: never part of the
    /// content digest, and the payload bytes are identical with or
    /// without it.
    pub timing: Option<Json>,
}

impl QueryResponse {
    fn bare(status: &str) -> Self {
        QueryResponse {
            status: status.to_string(),
            digest: None,
            source: None,
            payload: None,
            error: None,
            stats: None,
            metrics: None,
            timing: None,
        }
    }

    /// A successful query answer.
    pub fn ok(digest: impl Into<String>, source: Source, payload: impl Into<String>) -> Self {
        QueryResponse {
            digest: Some(digest.into()),
            source: Some(source),
            payload: Some(payload.into()),
            ..QueryResponse::bare("ok")
        }
    }

    /// Attaches a per-phase timing breakdown to the response.
    pub fn with_timing(mut self, timing: Json) -> Self {
        self.timing = Some(timing);
        self
    }

    /// A backpressure response: the request queue is full.
    pub fn busy(message: impl Into<String>) -> Self {
        QueryResponse {
            error: Some(message.into()),
            ..QueryResponse::bare("busy")
        }
    }

    /// A deadline-expiry response: the request's time budget ran out
    /// while it was still queued, so it was dropped, not computed.
    pub fn timeout(message: impl Into<String>) -> Self {
        QueryResponse {
            error: Some(message.into()),
            ..QueryResponse::bare("timeout")
        }
    }

    /// A failure response.
    pub fn error(message: impl Into<String>) -> Self {
        QueryResponse {
            error: Some(message.into()),
            ..QueryResponse::bare("error")
        }
    }

    /// A stats response carrying the server's counter object.
    pub fn stats(stats: Json) -> Self {
        QueryResponse {
            stats: Some(stats),
            ..QueryResponse::bare("ok")
        }
    }

    /// A JSON-format metrics response.
    pub fn metrics(metrics: Json) -> Self {
        QueryResponse {
            metrics: Some(metrics),
            ..QueryResponse::bare("ok")
        }
    }

    /// A text-format metrics response (Prometheus exposition): the text
    /// rides the wire as a JSON string under `metrics`.
    pub fn metrics_text(text: impl Into<String>) -> Self {
        QueryResponse {
            metrics: Some(Json::str(text.into())),
            ..QueryResponse::bare("ok")
        }
    }

    /// Whether the payload was served from the disk store.
    pub fn from_store(&self) -> bool {
        self.source == Some(Source::Store)
    }

    /// Serializes the response to its wire form.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.insert("status", self.status.as_str());
        if let Some(d) = &self.digest {
            o.insert("digest", d.as_str());
        }
        if let Some(s) = self.source {
            o.insert("source", s.as_str());
        }
        if let Some(p) = &self.payload {
            o.insert("payload", p.as_str());
        }
        if let Some(e) = &self.error {
            o.insert("error", e.as_str());
        }
        if let Some(s) = &self.stats {
            o.insert("stats", s.clone());
        }
        if let Some(m) = &self.metrics {
            o.insert("metrics", m.clone());
        }
        if let Some(t) = &self.timing {
            o.insert("timing", t.clone());
        }
        o
    }

    /// Parses a response from its wire form.
    pub fn from_json(j: &Json) -> Result<QueryResponse, String> {
        let status = j
            .get("status")
            .and_then(Json::as_str)
            .ok_or_else(|| "response missing `status`".to_string())?;
        if !matches!(status, "ok" | "busy" | "timeout" | "error") {
            return Err(format!("unknown response status {status:?}"));
        }
        let source = match j.get("source").and_then(Json::as_str) {
            None => None,
            Some("store") => Some(Source::Store),
            Some("computed") => Some(Source::Computed),
            Some(other) => return Err(format!("unknown response source {other:?}")),
        };
        Ok(QueryResponse {
            status: status.to_string(),
            digest: j
                .get("digest")
                .and_then(Json::as_str)
                .map(|s| s.to_string()),
            source,
            payload: j
                .get("payload")
                .and_then(Json::as_str)
                .map(|s| s.to_string()),
            error: j.get("error").and_then(Json::as_str).map(|s| s.to_string()),
            stats: j.get("stats").cloned(),
            metrics: j.get("metrics").cloned(),
            timing: j.get("timing").cloned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let req = QueryRequest::query("fig6")
            .with_set("bw", "4x")
            .with_set("gpms", "16");
        let line = req.to_json().render_jsonl_line();
        assert!(!line.trim_end_matches('\n').contains('\n'), "one line");
        let back = QueryRequest::from_json(&Json::parse(line.trim()).unwrap()).unwrap();
        assert_eq!(back, req);

        for req in [
            QueryRequest::stats(),
            QueryRequest::health(),
            QueryRequest::metrics(MetricsFormat::Json),
            QueryRequest::metrics(MetricsFormat::Prometheus),
            QueryRequest::shutdown(),
        ] {
            let back = QueryRequest::from_json(&req.to_json()).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn timing_requests_round_trip_and_stay_off_the_plain_wire_form() {
        let plain = QueryRequest::query("fig6");
        assert!(
            !plain.to_json().render().contains("timing"),
            "timing must not appear unless asked for"
        );
        let req = QueryRequest::query("fig6").with_timing();
        let back = QueryRequest::from_json(&req.to_json()).unwrap();
        assert!(back.timing);
        assert_eq!(back, req);
        let bad =
            QueryRequest::from_json(&Json::parse(r#"{"artifact":"fig6","timing":"yes"}"#).unwrap())
                .unwrap_err();
        assert!(bad.contains("timing"), "{bad}");
    }

    #[test]
    fn metrics_format_rejects_garbage() {
        let bad =
            QueryRequest::from_json(&Json::parse(r#"{"op":"metrics","format":"xml"}"#).unwrap())
                .unwrap_err();
        assert!(bad.contains("metrics format"), "{bad}");
    }

    #[test]
    fn timing_responses_round_trip_without_touching_the_payload() {
        let payload = "{\n  \"id\": \"fig2\"\n}\n";
        let plain = QueryResponse::ok("d", Source::Computed, payload);
        let mut timing = Json::object();
        timing.insert("eval_ms", 1.5);
        let timed = QueryResponse::ok("d", Source::Computed, payload).with_timing(timing);
        assert_eq!(
            plain.payload, timed.payload,
            "timing never changes payload bytes"
        );
        let back =
            QueryResponse::from_json(&Json::parse(&timed.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, timed);
        assert_eq!(
            back.timing.unwrap().get("eval_ms").unwrap().as_f64(),
            Some(1.5)
        );
        assert!(!plain.to_json().render().contains("timing"));
    }

    #[test]
    fn metrics_responses_round_trip() {
        let mut m = Json::object();
        m.insert("xpd.request", 12u64);
        let resp = QueryResponse::metrics(m);
        let back =
            QueryResponse::from_json(&Json::parse(&resp.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, resp);
        assert_eq!(
            back.metrics.unwrap().get("xpd.request").unwrap().as_f64(),
            Some(12.0)
        );
    }

    #[test]
    fn deadlines_round_trip_and_reject_garbage() {
        let req = QueryRequest::query("fig6").with_deadline_ms(2500);
        let back = QueryRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(back.deadline_ms, Some(2500));
        assert_eq!(back, req);

        let bad = |text: &str| QueryRequest::from_json(&Json::parse(text).unwrap()).unwrap_err();
        for text in [
            r#"{"artifact":"fig6","deadline_ms":0}"#,
            r#"{"artifact":"fig6","deadline_ms":-5}"#,
            r#"{"artifact":"fig6","deadline_ms":1.5}"#,
            r#"{"artifact":"fig6","deadline_ms":"soon"}"#,
        ] {
            assert!(bad(text).contains("deadline_ms"), "{text}");
        }
    }

    #[test]
    fn timeout_responses_round_trip() {
        let resp = QueryResponse::timeout("deadline expired after 250 ms in queue");
        let back = QueryResponse::from_json(
            &Json::parse(resp.to_json().render_jsonl_line().trim()).unwrap(),
        )
        .unwrap();
        assert_eq!(back.status, "timeout");
        assert!(back.error.unwrap().contains("deadline"));
    }

    #[test]
    fn requests_reject_bad_forms() {
        let bad = |text: &str| QueryRequest::from_json(&Json::parse(text).unwrap()).unwrap_err();
        assert!(bad(r#"{"op":"frobnicate"}"#).contains("unknown op"));
        assert!(bad(r#"{"op":"query"}"#).contains("missing `artifact`"));
        assert!(bad(r#"{"artifact":""}"#).contains("empty"));
        assert!(bad(r#"{"artifact":"fig6","set":[1]}"#).contains("object"));
        assert!(bad(r#"{"artifact":"fig6","set":{"bw":7}}"#).contains("string"));
        assert!(bad(r#"{"artifact":"fig6","set":{"bw":"2x","bw":"4x"}}"#).contains("duplicate"));
    }

    #[test]
    fn responses_round_trip_with_multiline_payloads() {
        let payload = "{\n  \"id\": \"fig2\"\n}\n";
        let resp = QueryResponse::ok("0123456789abcdef", Source::Store, payload);
        let line = resp.to_json().render_jsonl_line();
        assert!(!line.trim_end_matches('\n').contains('\n'), "one line");
        let back = QueryResponse::from_json(&Json::parse(line.trim()).unwrap()).unwrap();
        assert_eq!(back, resp);
        assert!(back.from_store());
        assert_eq!(back.payload.as_deref(), Some(payload));

        let busy = QueryResponse::busy("queue full");
        let back = QueryResponse::from_json(&busy.to_json()).unwrap();
        assert_eq!(back.status, "busy");
        assert!(!back.from_store());
    }

    #[test]
    fn responses_reject_bad_forms() {
        let bad = |text: &str| QueryResponse::from_json(&Json::parse(text).unwrap()).unwrap_err();
        assert!(bad(r#"{"payload":"x"}"#).contains("missing `status`"));
        assert!(bad(r#"{"status":"teapot"}"#).contains("unknown response status"));
        assert!(bad(r#"{"status":"ok","source":"cloud"}"#).contains("unknown response source"));
    }
}
