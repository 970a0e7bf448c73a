//! `xpd` — the persistent what-if sweep daemon.
//!
//! The experiment harness (`xp`) answers questions like "fig6, but at
//! 2× inter-GPM bandwidth" by running a full sweep: minutes of
//! simulation for an answer that is a pure function of the
//! configuration. `xpd` makes those answers persistent and shared: a
//! daemon listening on a Unix socket and/or TCP, speaking
//! newline-delimited JSON ([`common::proto`]), that serves each query
//! from a content-addressed on-disk [`store::ResultStore`] keyed by
//! the workspace's FNV-1a config digests — falling back to cold
//! execution through the sweep executor only on a store miss.
//!
//! The crate is deliberately *engine-agnostic*: it knows how to store,
//! deduplicate, batch, and serve answers, but not how to compute them.
//! The harness implements [`QueryEngine`] over its artifact registry
//! and hands it to [`server::Server`]; keeping the dependency in that
//! direction (`xp → xpd`, never back) is what lets the daemon be
//! tested hermetically with mock engines.
//!
//! # Guarantees
//!
//! * **Exactly-once execution per digest.** Concurrent clients asking
//!   for the same (artifact, deltas) pair dedup through the same
//!   in-flight cache the sweep worker threads use
//!   ([`runtime::cache::Cache`]): one leader computes, joiners wait,
//!   everyone gets the same bytes.
//! * **Byte-identity.** Payloads are the exact bytes `xp run --out`
//!   writes for the same artifact, so warm answers are
//!   indistinguishable from cold ones.
//! * **Bounded everything.** The request queue is capped (excess load
//!   answered `busy`) and drained in arrival order, live connections
//!   are capped, and the store evicts least-recently-used results at
//!   its size cap.
//! * **Self-healing storage.** Every stored payload carries a content
//!   checksum ([`common::digest::payload_checksum`]); a torn or
//!   bit-flipped file is quarantined on read and transparently
//!   re-evaluated, never served. Durability is a policy
//!   ([`store::Durability`]), and the whole failure surface is
//!   exercisable deterministically via [`chaos::FaultInjector`]
//!   (`xp serve --chaos-seed`).
//! * **Bounded waiting.** Requests may carry a deadline; work that
//!   expires in the queue is answered `timeout`, not silently computed.
//!   Shutdown is graceful: stop accepting, drain in-flight work, flush
//!   the store, exit clean.

#![deny(missing_docs)]

pub mod chaos;
pub mod client;
pub mod flightrec;
pub mod log;
pub mod metrics;
mod queue;
pub mod server;
pub mod store;

pub use common::proto::{MetricsFormat, QueryRequest, QueryResponse, RequestOp, Source};

use common::json::Json;

/// The computation behind the daemon: digesting queries and evaluating
/// the cold ones.
///
/// `xp` implements this over its artifact registry and `runtime` lab;
/// tests implement it with counters and canned payloads.
pub trait QueryEngine: Send + Sync {
    /// The content digest for `req` — the store key and dedup identity.
    /// Must be a pure function of the request (same request, same
    /// digest, across restarts) and must differ whenever the answer
    /// could differ (artifact id, config deltas, model version).
    fn digest(&self, req: &QueryRequest) -> Result<String, String>;

    /// Evaluates a batch of cold queries, one result per request, in
    /// order. Each `Ok` payload must be the exact bytes `xp run --out`
    /// would write for that query (trailing newline included); `Err`
    /// carries a human-readable failure for that request alone.
    fn evaluate(&self, reqs: &[QueryRequest]) -> Vec<Result<String, String>>;

    /// A JSON description of the engine (artifact ids, model version)
    /// reported in `stats` responses.
    fn describe(&self) -> Json;
}
