//! Always-on telemetry: process-lifetime counters and histograms with
//! windowed rollups.
//!
//! The session machinery in the crate root is built for one-shot runs:
//! a [`crate::Session`] resets everything, records, and tears down. A
//! long-running daemon needs the opposite — metrics that record from
//! process start, never reset, and can answer "what happened over the
//! last minute" at any instant. This module is that mode, and the two
//! coexist:
//!
//! * [`counter`] / [`histogram`] return cheap clonable handles to named
//!   process-wide cells. A handle [`LiveCounter::add`] is a single
//!   relaxed `fetch_add` — no lock, no hash lookup, no time source — so
//!   instruments held in a server's hot path stay inside the same < 2%
//!   overhead budget the disabled session path has (the `bench` crate's
//!   `trace` bench holds both).
//! * [`tick`] advances a fixed ring of *cumulative* snapshots
//!   ([`RING_CAP`] at 1 s spacing). [`window`] diffs the current
//!   cumulative state against the ring entry whose age best matches the
//!   asked span — counter deltas for rates, delta
//!   histograms (via [`HistogramSnapshot::diff`], the inverse of the
//!   associative merge) for recent p50/p99. Keeping cumulative
//!   snapshots rather than per-tick deltas makes any window a single
//!   subtraction instead of a merge loop; the two are equivalent
//!   because the merge is associative.
//! * Sessions fold the live world in: [`crate::session`] captures a
//!   live baseline and [`crate::Session::finish`] merges the live delta
//!   into the session snapshot, so instruments that moved to the
//!   always-on registry still show up — exactly once — in `--trace`
//!   summaries.
//!
//! [`ScopedCounter`] bridges instance-exact statistics (a server's
//! `stats` response must count *its own* requests even when several
//! servers share the process, as tests do) with process-wide telemetry:
//! adds land in both a private cell and the named global cell.

use crate::hist::{Histogram, HistogramSnapshot};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Entries kept in the rollup ring: just over a minute of 1 s history,
/// which covers the daemon's 60 s metrics window.
pub const RING_CAP: usize = 64;

struct Ring {
    spacing_nanos: u64,
    snaps: VecDeque<LiveSnapshot>,
}

impl Ring {
    fn new(spacing: Duration) -> Ring {
        Ring {
            spacing_nanos: spacing.as_nanos() as u64,
            snaps: VecDeque::new(),
        }
    }

    /// Appends `now` if the newest entry is at least one spacing old.
    fn advance(&mut self, now: &LiveSnapshot) {
        let due = self
            .snaps
            .back()
            .is_none_or(|last| now.at_nanos.saturating_sub(last.at_nanos) >= self.spacing_nanos);
        if due {
            if self.snaps.len() >= RING_CAP {
                self.snaps.pop_front();
            }
            self.snaps.push_back(now.clone());
        }
    }

    /// The retained snapshot whose age best matches `target` (absolute
    /// nanos since the trace epoch): minimal `|at - target|`, ties to
    /// the older entry.
    fn best_for(&self, target: u64) -> Option<&LiveSnapshot> {
        self.snaps
            .iter()
            .min_by_key(|s| (s.at_nanos.abs_diff(target), s.at_nanos))
    }
}

struct Registry {
    counters: Mutex<HashMap<String, Arc<AtomicU64>>>,
    hists: Mutex<HashMap<String, Arc<Histogram>>>,
    ring: Mutex<Ring>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(HashMap::new()),
        hists: Mutex::new(HashMap::new()),
        ring: Mutex::new(Ring::new(Duration::from_secs(1))),
    })
}

/// A handle to a named process-wide counter that records from process
/// start and never resets. Clones share the cell; obtaining a handle
/// takes the registry lock once, after which [`add`](Self::add) is a
/// single relaxed `fetch_add`.
#[derive(Debug, Clone)]
pub struct LiveCounter {
    cell: Arc<AtomicU64>,
}

impl LiveCounter {
    /// Adds `delta` to the counter.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// The cumulative value since process start.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A handle to a named process-wide latency histogram that records from
/// process start and never resets. Clones share the cells; a
/// [`record`](Self::record) is the two relaxed increments (plus a max
/// check) of [`Histogram::record`].
#[derive(Debug, Clone)]
pub struct LiveHistogram {
    hist: Arc<Histogram>,
}

impl LiveHistogram {
    /// Records one duration.
    #[inline]
    pub fn record(&self, duration: Duration) {
        self.hist.record(duration.as_nanos() as u64);
    }

    /// Records one duration given in nanoseconds.
    #[inline]
    pub fn record_nanos(&self, nanos: u64) {
        self.hist.record(nanos);
    }

    /// A point-in-time copy of the cumulative distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.hist.snapshot()
    }
}

/// A per-instance view over a shared global counter: every add lands in
/// both a private cell and the named process-wide cell, so one
/// instrument serves instance-exact statistics ([`local`](Self::local))
/// and process-wide telemetry (the registry, hence `metrics`, windowed
/// rates, and session fold-in) at once. Costs one extra relaxed
/// `fetch_add` per add over a bare counter.
#[derive(Debug)]
pub struct ScopedCounter {
    global: LiveCounter,
    local: AtomicU64,
}

impl ScopedCounter {
    /// A fresh instance-local view over the global counter `name`.
    pub fn new(name: &str) -> ScopedCounter {
        ScopedCounter {
            global: counter(name),
            local: AtomicU64::new(0),
        }
    }

    /// Adds `delta` to both the local and the global cell.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.global.add(delta);
        self.local.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the local cell to at least `value`, mirroring the raise
    /// into the global cell as a delta — the high-watermark idiom
    /// (e.g. peak queue depth) expressed over monotone counters.
    pub fn raise_to(&self, value: u64) {
        let mut seen = self.local.load(Ordering::Relaxed);
        while value > seen {
            match self.local.compare_exchange_weak(
                seen,
                value,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.global.add(value - seen);
                    return;
                }
                Err(actual) => seen = actual,
            }
        }
    }

    /// This instance's contribution alone.
    pub fn local(&self) -> u64 {
        self.local.load(Ordering::Relaxed)
    }

    /// The process-wide cumulative value (all instances).
    pub fn global_total(&self) -> u64 {
        self.global.get()
    }
}

/// The handle for the process-wide counter `name`, registering it on
/// first use. Handles are meant to be obtained once and held.
pub fn counter(name: &str) -> LiveCounter {
    let mut counters = crate::lock(&registry().counters);
    let cell = counters
        .entry(name.to_string())
        .or_insert_with(|| Arc::new(AtomicU64::new(0)));
    LiveCounter {
        cell: Arc::clone(cell),
    }
}

/// The handle for the process-wide histogram `name`, registering it on
/// first use. Handles are meant to be obtained once and held.
pub fn histogram(name: &str) -> LiveHistogram {
    let mut hists = crate::lock(&registry().hists);
    let hist = hists
        .entry(name.to_string())
        .or_insert_with(|| Arc::new(Histogram::new()));
    LiveHistogram {
        hist: Arc::clone(hist),
    }
}

/// A cumulative point-in-time copy of every live counter and histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveSnapshot {
    /// Nanoseconds since the trace epoch when the snapshot was taken.
    pub at_nanos: u64,
    /// `(name, cumulative value)`, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, cumulative distribution)`, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl LiveSnapshot {
    /// The cumulative value of a named counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The cumulative histogram under `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

/// Takes a cumulative snapshot of the whole live registry.
pub fn cumulative() -> LiveSnapshot {
    let reg = registry();
    let mut counters: Vec<(String, u64)> = crate::lock(&reg.counters)
        .iter()
        .map(|(name, c)| (name.clone(), c.load(Ordering::Relaxed)))
        .collect();
    counters.sort();
    let mut histograms: Vec<(String, HistogramSnapshot)> = crate::lock(&reg.hists)
        .iter()
        .map(|(name, h)| (name.clone(), h.snapshot()))
        .collect();
    histograms.sort_by(|a, b| a.0.cmp(&b.0));
    LiveSnapshot {
        at_nanos: crate::now_nanos(),
        counters,
        histograms,
    }
}

/// Deltas over a recent time span, as produced by [`window`] (or
/// [`since`] against an explicit baseline).
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Nanoseconds the window actually covers — callers compute rates
    /// against this, not against what they asked for, so a young
    /// process or a sparse ring yields honest numbers.
    pub elapsed_nanos: u64,
    /// Counter deltas over the window, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Delta histograms over the window, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Window {
    /// The delta of a named counter over the window (0 if unregistered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The delta histogram under `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The named counter's rate over the window, per second.
    pub fn rate(&self, name: &str) -> f64 {
        if self.elapsed_nanos == 0 {
            return 0.0;
        }
        self.counter(name) as f64 / (self.elapsed_nanos as f64 / 1e9)
    }
}

/// The delta of the current live state against an explicit earlier
/// snapshot.
pub fn since(base: &LiveSnapshot) -> Window {
    delta(cumulative(), base)
}

fn delta(now: LiveSnapshot, base: &LiveSnapshot) -> Window {
    let counters = now
        .counters
        .iter()
        .map(|(name, v)| {
            (
                name.clone(),
                v.saturating_sub(base.counter(name).unwrap_or(0)),
            )
        })
        .collect();
    let empty = HistogramSnapshot::default();
    let histograms = now
        .histograms
        .iter()
        .map(|(name, h)| (name.clone(), h.diff(base.histogram(name).unwrap_or(&empty))))
        .collect();
    Window {
        elapsed_nanos: now.at_nanos.saturating_sub(base.at_nanos),
        counters,
        histograms,
    }
}

/// Advances the rollup ring: appends a cumulative snapshot if the
/// newest entry is at least one spacing old. Call it periodically (a daemon ticker thread) or opportunistically before
/// queries — [`window`] calls it itself, so a process that only ever
/// asks still gets history at its query cadence.
pub fn tick() {
    let now = cumulative();
    crate::lock(&registry().ring).advance(&now);
}

/// Deltas over (approximately) the last `want` of wall time: the
/// current cumulative state diffed against the retained snapshot whose
/// age best matches `want`, falling back to the process-start baseline
/// (all zeros at the trace epoch) when the ring holds nothing closer.
/// Check [`Window::elapsed_nanos`] for the span actually covered.
pub fn window(want: Duration) -> Window {
    tick();
    let now = cumulative();
    let target = now.at_nanos.saturating_sub(want.as_nanos() as u64);
    let base = {
        let ring = crate::lock(&registry().ring);
        // The epoch baseline competes with ring entries on the same
        // distance-to-target footing.
        match ring.best_for(target) {
            Some(best) if best.at_nanos.abs_diff(target) <= target => Some(best.clone()),
            _ => None,
        }
    };
    match base {
        Some(base) => delta(now, &base),
        None => {
            let epoch = LiveSnapshot {
                at_nanos: 0,
                counters: Vec::new(),
                histograms: Vec::new(),
            };
            delta(now, &epoch)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(at_nanos: u64, value: u64) -> LiveSnapshot {
        LiveSnapshot {
            at_nanos,
            counters: vec![("t.ring".to_string(), value)],
            histograms: Vec::new(),
        }
    }

    #[test]
    fn counters_and_histograms_accumulate_without_a_session() {
        assert!(!crate::enabled());
        let c = counter("test.live.acc");
        let h = histogram("test.live.acc_lat");
        c.add(2);
        c.add(3);
        h.record_nanos(1_000);
        assert_eq!(c.get(), 5);
        assert_eq!(counter("test.live.acc").get(), 5, "handles share the cell");
        let cum = cumulative();
        assert_eq!(cum.counter("test.live.acc"), Some(5));
        assert_eq!(cum.histogram("test.live.acc_lat").unwrap().count, 1);
    }

    #[test]
    fn scoped_counters_split_local_from_global() {
        let a = ScopedCounter::new("test.live.scoped");
        let b = ScopedCounter::new("test.live.scoped");
        a.add(2);
        b.add(5);
        assert_eq!(a.local(), 2);
        assert_eq!(b.local(), 5);
        assert_eq!(a.global_total(), 7);
        assert_eq!(b.global_total(), 7);
    }

    #[test]
    fn raise_to_mirrors_the_high_watermark_globally() {
        let a = ScopedCounter::new("test.live.peak");
        a.raise_to(3);
        a.raise_to(2); // below the watermark: no-op
        a.raise_to(7);
        assert_eq!(a.local(), 7);
        let b = ScopedCounter::new("test.live.peak");
        b.raise_to(4);
        assert_eq!(b.local(), 4);
        // Global saw the sum of raises: (3 + 4) + 4 = 11.
        assert_eq!(a.global_total(), 11);
    }

    #[test]
    fn since_reports_deltas_not_cumulative_values() {
        let c = counter("test.live.delta");
        let h = histogram("test.live.delta_lat");
        c.add(10);
        h.record_nanos(100);
        let base = cumulative();
        c.add(4);
        h.record_nanos(200);
        h.record_nanos(300);
        let w = since(&base);
        assert_eq!(w.counter("test.live.delta"), 4);
        let dh = w.histogram("test.live.delta_lat").unwrap();
        assert_eq!(dh.count, 2);
        assert_eq!(dh.sum, 500);
    }

    #[test]
    fn window_rates_use_the_covered_span() {
        let w = Window {
            elapsed_nanos: 2_000_000_000,
            counters: vec![("t.r".to_string(), 10)],
            histograms: Vec::new(),
        };
        assert_eq!(w.rate("t.r"), 5.0);
        assert_eq!(w.rate("t.unknown"), 0.0);
    }

    #[test]
    fn ring_advances_at_spacing_and_caps_length() {
        let mut ring = Ring::new(Duration::from_secs(1));
        ring.advance(&snap(0, 0));
        ring.advance(&snap(500_000_000, 1)); // half a spacing: skipped
        assert_eq!(ring.snaps.len(), 1);
        for i in 1..=(RING_CAP as u64 + 8) {
            ring.advance(&snap(i * 1_000_000_000, i));
        }
        assert_eq!(ring.snaps.len(), RING_CAP, "oldest entries evicted");
        assert_eq!(
            ring.snaps.back().unwrap().counters[0].1,
            RING_CAP as u64 + 8
        );
    }

    #[test]
    fn best_for_picks_the_closest_retained_snapshot() {
        let mut ring = Ring::new(Duration::from_secs(1));
        for at in [10u64, 11, 12] {
            ring.advance(&snap(at * 1_000_000_000, at));
        }
        let best = ring.best_for(11_200_000_000).unwrap();
        assert_eq!(best.at_nanos, 11_000_000_000);
        let best = ring.best_for(11_500_000_000).unwrap();
        assert_eq!(best.at_nanos, 11_000_000_000, "ties go to the older entry");
    }

    #[test]
    fn window_covers_the_whole_process_before_any_history_exists() {
        let c = counter("test.live.window");
        c.add(3);
        // Even if the ring holds only fresh entries, a wide window must
        // not diff against "now" and report zero activity.
        let w = window(Duration::from_secs(3600));
        assert!(w.counter("test.live.window") >= 3);
        assert!(w.elapsed_nanos > 0);
    }
}
