#![deny(missing_docs)]

//! Std-only observability: span tracing, counters, latency histograms,
//! and Chrome-trace export.
//!
//! The sweep runtime executes hundreds of simulation points across a
//! thread pool; when a run is slow (or a retry storm hits) a final
//! metrics summary says *that* time was spent, not *where*. This
//! crate is the "where": lightweight spans over per-thread ring buffers
//! plus a global registry of named counters and log-bucketed latency
//! histograms, exportable as Chrome trace-event JSON (loadable in
//! `chrome://tracing` / [Perfetto](https://ui.perfetto.dev)) or as a
//! compact summary.
//!
//! Design constraints, in priority order:
//!
//! 1. **Free when off.** Without an active [`Session`], every
//!    instrumentation call is one relaxed atomic load and a branch —
//!    cheap enough to leave in simulator hot loops (the `bench` crate's
//!    `trace` bench holds this below 2% on microsecond-scale work).
//! 2. **Never blocks the traced thread on another traced thread.** Each
//!    thread appends to its own bounded ring ([`ring`]); the only lock
//!    taken is the thread's own, contended only by the exporter after
//!    recording is disabled. Rings drop their **oldest** events when
//!    full and export the drop count.
//! 3. **No dependencies.** Export goes through `common::json`.
//!
//! # Examples
//!
//! ```
//! let session = trace::session(trace::TraceConfig::default());
//! {
//!     let _sweep = trace::span("example.sweep");
//!     trace::count("example.points", 3);
//!     trace::record("example.point_wall", std::time::Duration::from_micros(250));
//! }
//! let snapshot = session.finish();
//! assert_eq!(snapshot.counter("example.points"), Some(3));
//! let json = trace::export::chrome_trace(&snapshot);
//! assert!(json.render().starts_with('['));
//! assert!(!trace::enabled(), "finishing the session disables tracing");
//! ```

pub mod export;
pub mod hist;
pub mod live;
pub mod ring;

pub use hist::{bucket_lower, bucket_of, bucket_upper, Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use ring::{Event, Phase, SpanName};

use ring::ThreadBuffer;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Whether a trace session is currently recording. Checked (one relaxed
/// load) by every instrumentation call before doing anything else.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether tracing is currently enabled.
///
/// Instrumentation helpers check this themselves; call it directly only
/// to skip *preparing* expensive inputs (e.g. formatting a dynamic span
/// name) when tracing is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

struct Global {
    /// Every thread buffer ever registered (threads are few and
    /// long-lived: the main thread plus pool workers).
    threads: Mutex<Vec<Arc<ThreadBuffer>>>,
    counters: Mutex<HashMap<String, Arc<AtomicU64>>>,
    hists: Mutex<HashMap<String, Arc<Histogram>>>,
    /// Ring capacity for buffers created while the current session runs.
    capacity: AtomicUsize,
    /// Bumped at each session start; span guards refuse to emit their
    /// end event into a different session than their begin.
    generation: AtomicU64,
    epoch: Instant,
}

fn global() -> &'static Global {
    static GLOBAL: OnceLock<Global> = OnceLock::new();
    GLOBAL.get_or_init(|| Global {
        threads: Mutex::new(Vec::new()),
        counters: Mutex::new(HashMap::new()),
        hists: Mutex::new(HashMap::new()),
        capacity: AtomicUsize::new(TraceConfig::default().events_per_thread),
        generation: AtomicU64::new(0),
        epoch: Instant::now(),
    })
}

pub(crate) fn now_nanos() -> u64 {
    global().epoch.elapsed().as_nanos() as u64
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

std::thread_local! {
    static THREAD_BUFFER: RefCell<Option<Arc<ThreadBuffer>>> = const { RefCell::new(None) };
}

/// Runs `f` with this thread's buffer, registering one on first use.
fn with_buffer(f: impl FnOnce(&ThreadBuffer)) {
    THREAD_BUFFER.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buffer = slot.get_or_insert_with(|| {
            let g = global();
            let buffer = ThreadBuffer::new(g.capacity.load(Ordering::Relaxed));
            lock(&g.threads).push(Arc::clone(&buffer));
            buffer
        });
        f(buffer);
    });
}

/// An active span. Created by [`span`]; emits the matching end event and
/// records the span's duration into the histogram of the same name when
/// dropped.
#[must_use = "a span measures the scope it is alive for; bind it to a variable"]
#[derive(Debug)]
pub struct Span {
    /// `None` when tracing was disabled at entry (the common case).
    open: Option<(SpanName, u64, u64)>, // (name, start_nanos, generation)
}

impl Span {
    /// A span that records nothing (what [`span`] returns when tracing
    /// is off).
    pub fn disabled() -> Span {
        Span { open: None }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((name, start, generation)) = self.open.take() else {
            return;
        };
        if !enabled() || global().generation.load(Ordering::Relaxed) != generation {
            // The session that saw our begin event is gone; an end event
            // now would land unpaired in a different session's buffers.
            return;
        }
        let end = now_nanos();
        with_buffer(|buffer| {
            buffer.push(Event {
                name: name.clone(),
                phase: Phase::End,
                ts_nanos: end,
                tid: buffer.tid,
            });
        });
        record_nanos_keyed(name.as_str(), end.saturating_sub(start));
    }
}

/// Opens a span: emits a begin event now and the end event when the
/// returned guard drops, also recording the duration into the histogram
/// named after the span. When tracing is off this is a relaxed atomic
/// load and a branch.
///
/// Accepts `&'static str` (no allocation) or `String` (dynamic names,
/// e.g. per-artifact spans).
#[inline]
pub fn span(name: impl Into<SpanName>) -> Span {
    if !enabled() {
        return Span::disabled();
    }
    span_slow(name.into())
}

#[inline(never)]
fn span_slow(name: SpanName) -> Span {
    let start = now_nanos();
    let generation = global().generation.load(Ordering::Relaxed);
    with_buffer(|buffer| {
        buffer.push(Event {
            name: name.clone(),
            phase: Phase::Begin,
            ts_nanos: start,
            tid: buffer.tid,
        });
    });
    Span {
        open: Some((name, start, generation)),
    }
}

/// Adds `delta` to the named counter. When tracing is off this is a
/// relaxed atomic load and a branch.
#[inline]
pub fn count(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    count_slow(name, delta);
}

#[inline(never)]
fn count_slow(name: &str, delta: u64) {
    let counter = {
        let mut counters = lock(&global().counters);
        match counters.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(AtomicU64::new(0));
                counters.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    };
    counter.fetch_add(delta, Ordering::Relaxed);
}

/// Records a duration into the named latency histogram. When tracing is
/// off this is a relaxed atomic load and a branch.
#[inline]
pub fn record(name: &str, duration: Duration) {
    if !enabled() {
        return;
    }
    record_nanos_keyed(name, duration.as_nanos() as u64);
}

fn record_nanos_keyed(name: &str, nanos: u64) {
    let hist = {
        let mut hists = lock(&global().hists);
        match hists.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::new());
                hists.insert(name.to_string(), Arc::clone(&h));
                h
            }
        }
    };
    hist.record(nanos);
}

/// Settings for a trace session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring capacity per thread, in events. When a thread outruns it the
    /// oldest events are discarded (and counted in
    /// [`Snapshot::dropped_events`]).
    pub events_per_thread: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        // ~40 B/event: a few MB per thread, hours of sweep activity.
        TraceConfig {
            events_per_thread: 65_536,
        }
    }
}

/// Serializes sessions: only one can record at a time (the registry and
/// the enabled flag are process-wide).
static SESSION_LOCK: Mutex<()> = Mutex::new(());

/// An active recording session. Tracing is enabled while it lives;
/// [`Session::finish`] stops recording and returns everything captured.
/// Dropping without finishing stops recording and discards the data.
#[derive(Debug)]
pub struct Session {
    /// Live-registry state at session start; [`Session::finish`] folds
    /// the delta since into the snapshot so always-on instruments (the
    /// `xpd.*` counters) appear in session summaries too.
    live_baseline: live::LiveSnapshot,
    _serial: MutexGuard<'static, ()>,
}

/// Starts a trace session: resets all buffers, counters, and histograms,
/// then enables recording. Blocks if another session is still active
/// (sessions are process-wide). The always-on [`live`] registry is not
/// reset — it is cumulative by contract — but its delta over the
/// session's lifetime is folded into the snapshot at finish.
pub fn session(config: TraceConfig) -> Session {
    let serial = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = global();
    let capacity = config.events_per_thread.max(16);
    g.capacity.store(capacity, Ordering::Relaxed);
    g.generation.fetch_add(1, Ordering::Relaxed);
    for buffer in lock(&g.threads).iter() {
        buffer.reset(capacity);
    }
    lock(&g.counters).clear();
    lock(&g.hists).clear();
    let live_baseline = live::cumulative();
    ENABLED.store(true, Ordering::Relaxed);
    Session {
        live_baseline,
        _serial: serial,
    }
}

impl Session {
    /// Stops recording and collects everything captured: all thread
    /// rings (events sorted by timestamp), counters, and histograms.
    pub fn finish(self) -> Snapshot {
        ENABLED.store(false, Ordering::Relaxed);
        let g = global();
        let mut events = Vec::new();
        let mut threads = Vec::new();
        let mut dropped = 0u64;
        for buffer in lock(&g.threads).iter() {
            let (mut buffered, buffer_dropped) = buffer.collect();
            if !buffered.is_empty() || buffer_dropped > 0 {
                threads.push((buffer.tid, buffer.thread_name.clone()));
            }
            events.append(&mut buffered);
            dropped += buffer_dropped;
        }
        // Stable by timestamp: per-thread order (already monotonic) is
        // preserved for equal stamps.
        events.sort_by_key(|e| e.ts_nanos);
        threads.sort_by_key(|(tid, _)| *tid);

        let mut counters: Vec<(String, u64)> = lock(&g.counters)
            .iter()
            .map(|(name, c)| (name.clone(), c.load(Ordering::Relaxed)))
            .collect();
        let mut histograms: Vec<(String, HistogramSnapshot)> = lock(&g.hists)
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();

        // Fold in what the always-on registry recorded while this
        // session ran. Instruments that live there (a daemon's request
        // counters) would otherwise be invisible to `--trace` runs;
        // delta-vs-baseline keeps sessions isolated from each other and
        // from pre-session history.
        let live_delta = live::since(&self.live_baseline);
        for (name, delta) in live_delta.counters {
            if delta == 0 {
                continue;
            }
            match counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, v)) => *v += delta,
                None => counters.push((name, delta)),
            }
        }
        for (name, delta) in live_delta.histograms {
            if delta.count == 0 {
                continue;
            }
            match histograms.iter_mut().find(|(n, _)| *n == name) {
                Some((_, h)) => *h = h.merge(&delta),
                None => histograms.push((name, delta)),
            }
        }
        counters.sort();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));

        Snapshot {
            events,
            threads,
            counters,
            histograms,
            dropped_events: dropped,
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::Relaxed);
    }
}

/// Everything one [`Session`] captured.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// All span events, sorted by timestamp.
    pub events: Vec<Event>,
    /// `(tid, thread name)` for every thread that recorded anything.
    pub threads: Vec<(u64, String)>,
    /// Named counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Named latency histograms, sorted by name. Every span name has one
    /// (its duration distribution); explicit [`record`] calls add more.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Events discarded because a thread outran its ring buffer.
    pub dropped_events: u64,
}

impl Snapshot {
    /// The value of a named counter, if it was ever incremented.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The histogram recorded under `name` (span or explicit), if any.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_instrumentation_records_nothing() {
        // No session: everything must be inert.
        assert!(!enabled());
        let _span = span("test.noop");
        count("test.noop", 5);
        record("test.noop", Duration::from_millis(1));
        let snapshot = session(TraceConfig::default()).finish();
        assert!(snapshot.counter("test.noop").is_none());
        assert!(snapshot.histogram("test.noop").is_none());
    }

    #[test]
    fn session_captures_spans_counters_and_histograms() {
        let s = session(TraceConfig::default());
        {
            let _outer = span("test.outer");
            {
                let _inner = span("test.inner");
                count("test.widgets", 2);
            }
            count("test.widgets", 1);
        }
        record("test.latency", Duration::from_micros(100));
        let snapshot = s.finish();
        assert_eq!(snapshot.counter("test.widgets"), Some(3));
        assert_eq!(snapshot.histogram("test.outer").unwrap().count, 1);
        assert_eq!(snapshot.histogram("test.inner").unwrap().count, 1);
        assert_eq!(snapshot.histogram("test.latency").unwrap().count, 1);
        // Begin/end pairs for both spans, properly nested.
        let names: Vec<(&str, Phase)> = snapshot
            .events
            .iter()
            .map(|e| (e.name.as_str(), e.phase))
            .collect();
        assert_eq!(
            names,
            vec![
                ("test.outer", Phase::Begin),
                ("test.inner", Phase::Begin),
                ("test.inner", Phase::End),
                ("test.outer", Phase::End),
            ]
        );
        assert_eq!(snapshot.dropped_events, 0);
    }

    #[test]
    fn sessions_isolate_their_data() {
        let first = session(TraceConfig::default());
        count("test.iso", 7);
        let snapshot = first.finish();
        assert_eq!(snapshot.counter("test.iso"), Some(7));

        let second = session(TraceConfig::default());
        count("test.iso2", 1);
        let snapshot = second.finish();
        assert!(snapshot.counter("test.iso").is_none(), "counters reset");
        assert_eq!(snapshot.counter("test.iso2"), Some(1));
    }

    #[test]
    fn span_crossing_session_end_stays_balanced() {
        let s = session(TraceConfig::default());
        let crossing = span("test.crossing");
        let snapshot = s.finish();
        // Begin was captured, end hadn't happened yet.
        assert_eq!(snapshot.events.len(), 1);
        assert_eq!(snapshot.events[0].phase, Phase::Begin);

        // Dropping after the session must not leak an end event into the
        // next session.
        let next = session(TraceConfig::default());
        drop(crossing);
        let snapshot = next.finish();
        assert!(
            snapshot.events.is_empty(),
            "stale end event leaked: {:?}",
            snapshot.events
        );
    }

    #[test]
    fn worker_threads_get_their_own_tid() {
        let s = session(TraceConfig::default());
        let _main = span("test.main");
        std::thread::spawn(|| {
            let _worker = span("test.worker");
        })
        .join()
        .unwrap();
        let snapshot = s.finish();
        let main_tid = snapshot
            .events
            .iter()
            .find(|e| e.name.as_str() == "test.main")
            .unwrap()
            .tid;
        let worker_tid = snapshot
            .events
            .iter()
            .find(|e| e.name.as_str() == "test.worker")
            .unwrap()
            .tid;
        assert_ne!(main_tid, worker_tid);
        assert_eq!(snapshot.threads.len(), 2);
    }

    #[test]
    fn sessions_fold_in_the_live_registry_delta() {
        let c = live::counter("test.live.fold");
        let h = live::histogram("test.live.fold_lat");
        c.add(100); // pre-session history must not leak in
        let s = session(TraceConfig::default());
        c.add(7);
        h.record_nanos(2_000);
        count("test.fold.session_only", 1);
        let snapshot = s.finish();
        assert_eq!(snapshot.counter("test.live.fold"), Some(7));
        assert_eq!(snapshot.histogram("test.live.fold_lat").unwrap().count, 1);
        assert_eq!(snapshot.counter("test.fold.session_only"), Some(1));

        // The next session starts from a fresh baseline.
        let s = session(TraceConfig::default());
        let snapshot = s.finish();
        assert_eq!(snapshot.counter("test.live.fold"), None);
    }

    #[test]
    fn live_name_colliding_with_session_counter_sums_once() {
        let c = live::counter("test.fold.shared");
        let s = session(TraceConfig::default());
        count("test.fold.shared", 2);
        c.add(3);
        let snapshot = s.finish();
        assert_eq!(snapshot.counter("test.fold.shared"), Some(5));
    }

    #[test]
    fn ring_overflow_surfaces_in_dropped_events() {
        let s = session(TraceConfig {
            events_per_thread: 16,
        });
        for _ in 0..64 {
            let _span = span("test.churn");
        }
        let snapshot = s.finish();
        assert_eq!(snapshot.events.len(), 16);
        assert_eq!(snapshot.dropped_events, 2 * 64 - 16);
        // The histogram still saw every span — only raw events drop.
        assert_eq!(snapshot.histogram("test.churn").unwrap().count, 64);
    }
}
