//! Live sweep metrics: counters the executor updates as points move
//! through the pipeline, a periodic progress line, and a final summary
//! table.

use common::json::Json;
use common::table::TextTable;
use std::io::IsTerminal;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How the progress line is emitted to stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressMode {
    /// Rewrite one line in place (`\r` + erase). Only when stderr is an
    /// interactive terminal.
    Ansi,
    /// Append plain full lines: non-tty stderr (logs, CI), `NO_COLOR`
    /// set, or `TERM=dumb`.
    Plain,
}

impl ProgressMode {
    /// Picks the mode from the environment, honoring the `NO_COLOR`
    /// convention (any non-empty value disables escapes) and `TERM=dumb`
    /// alongside the basic is-a-tty check.
    pub fn detect() -> ProgressMode {
        let no_color = std::env::var_os("NO_COLOR").is_some_and(|v| !v.is_empty());
        let dumb = std::env::var_os("TERM").is_some_and(|v| v == *"dumb");
        if no_color || dumb || !std::io::stderr().is_terminal() {
            ProgressMode::Plain
        } else {
            ProgressMode::Ansi
        }
    }
}

/// Shared counters for one sweep (all methods are lock-free except the
/// per-point wall-time record, which appends under a short mutex).
#[derive(Debug)]
pub struct SweepMetrics {
    /// Points submitted to the executor.
    pub submitted: AtomicUsize,
    /// Points fully finished (simulated or served from cache).
    pub completed: AtomicUsize,
    /// Points whose simulation was served from the cache.
    pub cache_hits: AtomicUsize,
    /// Points currently being simulated.
    pub in_flight: AtomicUsize,
    /// Points that failed (panicked) instead of completing.
    pub errors: AtomicUsize,
    /// Failed attempts that were retried under the executor's
    /// [`crate::RetryPolicy`].
    pub retries: AtomicUsize,
    /// Attempts that finished after the per-point deadline.
    pub timeouts: AtomicUsize,
    /// Unique points that exhausted every allowed attempt.
    pub gave_up: AtomicUsize,
    /// Sum of per-point simulation wall times, nanoseconds.
    sim_nanos: AtomicU64,
    /// Longest single point, nanoseconds.
    max_point_nanos: AtomicU64,
    /// Per-worker busy time, nanoseconds (indexed by worker slot).
    busy_nanos: Vec<AtomicU64>,
    start: Instant,
    /// Wall time of the whole sweep, frozen by [`Self::finish`].
    finished: OnceLock<Duration>,
    /// Last progress-line emission, for rate limiting.
    last_progress: Mutex<Instant>,
    /// How progress lines are rendered (in-place ANSI vs. plain).
    progress_mode: ProgressMode,
    /// Whether an in-place ANSI progress line is open (no trailing
    /// newline yet).
    progress_line_open: AtomicBool,
}

impl SweepMetrics {
    /// Fresh metrics for a sweep executed by `workers` threads, with the
    /// progress style detected from the environment.
    pub fn new(workers: usize) -> Self {
        Self::with_progress_mode(workers, ProgressMode::detect())
    }

    /// Fresh metrics with an explicit progress style (tests force
    /// [`ProgressMode::Plain`] to stay deterministic).
    pub fn with_progress_mode(workers: usize, progress_mode: ProgressMode) -> Self {
        let now = Instant::now();
        SweepMetrics {
            submitted: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            cache_hits: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            errors: AtomicUsize::new(0),
            retries: AtomicUsize::new(0),
            timeouts: AtomicUsize::new(0),
            gave_up: AtomicUsize::new(0),
            sim_nanos: AtomicU64::new(0),
            max_point_nanos: AtomicU64::new(0),
            busy_nanos: (0..workers.max(1)).map(|_| AtomicU64::new(0)).collect(),
            start: now,
            finished: OnceLock::new(),
            last_progress: Mutex::new(now),
            progress_mode,
            progress_line_open: AtomicBool::new(false),
        }
    }

    /// Records one simulated point's wall time against a worker slot.
    pub fn record_point(&self, worker: usize, wall: Duration) {
        let nanos = wall.as_nanos() as u64;
        self.sim_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_point_nanos.fetch_max(nanos, Ordering::Relaxed);
        self.busy_nanos[worker % self.busy_nanos.len()].fetch_add(nanos, Ordering::Relaxed);
    }

    /// Stops the sweep's clock: from now on [`Self::elapsed`] (and so
    /// the wall time and utilization it feeds) stays at its current
    /// value. The executor calls it once every point is collected.
    pub fn finish(&self) {
        let _ = self.finished.set(self.start.elapsed());
    }

    /// Wall time since the metrics were created, or the sweep's whole
    /// wall time once [`Self::finish`] has run.
    pub fn elapsed(&self) -> Duration {
        self.finished
            .get()
            .copied()
            .unwrap_or_else(|| self.start.elapsed())
    }

    /// Mean simulated-point wall time, if any point finished.
    pub fn mean_point_time(&self) -> Option<Duration> {
        let simulated = self
            .completed
            .load(Ordering::Relaxed)
            .saturating_sub(self.cache_hits.load(Ordering::Relaxed));
        if simulated == 0 {
            return None;
        }
        Some(Duration::from_nanos(
            self.sim_nanos.load(Ordering::Relaxed) / simulated as u64,
        ))
    }

    /// Aggregate worker utilization in `[0, 1]`: busy time over
    /// `workers x elapsed`.
    pub fn worker_utilization(&self) -> f64 {
        let wall = self.elapsed().as_nanos() as f64;
        if wall <= 0.0 {
            return 0.0;
        }
        let busy: u64 = self
            .busy_nanos
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum();
        (busy as f64 / (wall * self.busy_nanos.len() as f64)).min(1.0)
    }

    /// Emits a progress line to stderr, rate-limited to one per
    /// `interval`. Stdout stays clean for table output. On an
    /// interactive terminal ([`ProgressMode::Ansi`]) the line is
    /// rewritten in place; otherwise ([`ProgressMode::Plain`] — non-tty,
    /// `NO_COLOR`, `TERM=dumb`) plain full lines are appended with no
    /// escape sequences.
    pub fn maybe_print_progress(&self, interval: Duration) {
        let mut last = self.last_progress.lock().unwrap();
        if last.elapsed() < interval {
            return;
        }
        *last = Instant::now();
        drop(last);
        let line = format!(
            "[sweep {:6.1}s] {}/{} points done ({} cached, {} in flight, {} failed), workers {:.0}% busy",
            self.elapsed().as_secs_f64(),
            self.completed.load(Ordering::Relaxed),
            self.submitted.load(Ordering::Relaxed),
            self.cache_hits.load(Ordering::Relaxed),
            self.in_flight.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
            self.worker_utilization() * 100.0,
        );
        match self.progress_mode {
            ProgressMode::Ansi => {
                // Carriage return + erase-line: rewrite in place.
                eprint!("\r\x1b[2K{line}");
                self.progress_line_open.store(true, Ordering::Relaxed);
            }
            ProgressMode::Plain => eprintln!("{line}"),
        }
    }

    /// Closes an open in-place progress line with a newline so the next
    /// write (summary table, shell prompt) starts on a fresh line. Safe
    /// to call unconditionally; a no-op unless a line is open.
    pub fn finish_progress(&self) {
        if self.progress_line_open.swap(false, Ordering::Relaxed) {
            eprintln!();
        }
    }

    /// The stable serialized form of the sweep counters, used by the
    /// `xp` driver's `manifest.json`. Schema (all keys always present):
    /// `submitted`, `completed`, `cache_hits`, `simulated`, `failed`,
    /// `retries`, `timeouts`, `gave_up`, `workers`,
    /// `worker_busy_secs` (per-worker busy time, indexed by worker
    /// slot), `worker_utilization` (0–1), `wall_time_secs`,
    /// `sim_time_secs` (sum of per-point wall times), and
    /// `mean_point_secs` / `max_point_secs` (`null` until a point has
    /// been simulated).
    pub fn to_json(&self) -> Json {
        let completed = self.completed.load(Ordering::Relaxed);
        let hits = self.cache_hits.load(Ordering::Relaxed);
        let mut o = Json::object();
        o.insert("submitted", self.submitted.load(Ordering::Relaxed));
        o.insert("completed", completed);
        o.insert("cache_hits", hits);
        o.insert("simulated", completed.saturating_sub(hits));
        o.insert("failed", self.errors.load(Ordering::Relaxed));
        o.insert("retries", self.retries.load(Ordering::Relaxed));
        o.insert("timeouts", self.timeouts.load(Ordering::Relaxed));
        o.insert("gave_up", self.gave_up.load(Ordering::Relaxed));
        o.insert("workers", self.busy_nanos.len());
        let mut busy = Json::array();
        for b in &self.busy_nanos {
            busy.push(b.load(Ordering::Relaxed) as f64 / 1e9);
        }
        o.insert("worker_busy_secs", busy);
        o.insert("worker_utilization", self.worker_utilization());
        o.insert("wall_time_secs", self.elapsed().as_secs_f64());
        o.insert(
            "sim_time_secs",
            self.sim_nanos.load(Ordering::Relaxed) as f64 / 1e9,
        );
        o.insert(
            "mean_point_secs",
            match self.mean_point_time() {
                Some(d) => Json::Number(d.as_secs_f64()),
                None => Json::Null,
            },
        );
        o.insert(
            "max_point_secs",
            match self.max_point_nanos.load(Ordering::Relaxed) {
                0 => Json::Null,
                nanos => Json::Number(nanos as f64 / 1e9),
            },
        );
        o
    }

    /// Renders the final summary as a `common` text table.
    pub fn summary_table(&self) -> TextTable {
        let mut t = TextTable::new(["sweep metric", "value"]);
        let completed = self.completed.load(Ordering::Relaxed);
        let hits = self.cache_hits.load(Ordering::Relaxed);
        t.row(["points completed".to_string(), completed.to_string()]);
        t.row(["served from cache".to_string(), hits.to_string()]);
        t.row([
            "simulated".to_string(),
            completed.saturating_sub(hits).to_string(),
        ]);
        t.row([
            "failed".to_string(),
            self.errors.load(Ordering::Relaxed).to_string(),
        ]);
        // Resilience rows appear only when something actually fired, so
        // fault-free summaries render exactly as they always have.
        let retries = self.retries.load(Ordering::Relaxed);
        if retries > 0 {
            t.row(["retried attempts".to_string(), retries.to_string()]);
        }
        let timeouts = self.timeouts.load(Ordering::Relaxed);
        if timeouts > 0 {
            t.row(["timed-out attempts".to_string(), timeouts.to_string()]);
        }
        let gave_up = self.gave_up.load(Ordering::Relaxed);
        if gave_up > 0 {
            t.row(["gave up".to_string(), gave_up.to_string()]);
        }
        t.row([
            "wall time".to_string(),
            format!("{:.2}s", self.elapsed().as_secs_f64()),
        ]);
        if let Some(mean) = self.mean_point_time() {
            t.row([
                "mean point time".to_string(),
                format!("{:.1}ms", mean.as_secs_f64() * 1e3),
            ]);
            t.row([
                "max point time".to_string(),
                format!(
                    "{:.1}ms",
                    self.max_point_nanos.load(Ordering::Relaxed) as f64 / 1e6
                ),
            ]);
        }
        t.row([
            "worker utilization".to_string(),
            format!("{:.0}%", self.worker_utilization() * 100.0),
        ]);
        let wall = self.elapsed().as_nanos() as f64;
        if wall > 0.0 && self.busy_nanos.len() > 1 {
            let per_worker: Vec<String> = self
                .busy_nanos
                .iter()
                .map(|b| format!("{:.0}%", b.load(Ordering::Relaxed) as f64 / wall * 100.0))
                .collect();
            t.row(["per-worker busy".to_string(), per_worker.join(" ")]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarizes() {
        let m = SweepMetrics::new(2);
        m.submitted.store(3, Ordering::Relaxed);
        m.completed.store(3, Ordering::Relaxed);
        m.cache_hits.store(1, Ordering::Relaxed);
        m.record_point(0, Duration::from_millis(10));
        m.record_point(1, Duration::from_millis(30));
        let mean = m.mean_point_time().unwrap();
        assert_eq!(mean, Duration::from_millis(20));
        let rendered = m.summary_table().render();
        assert!(rendered.contains("served from cache"));
        assert!(rendered.contains("simulated"));
    }

    #[test]
    fn json_form_is_schema_stable() {
        let m = SweepMetrics::new(2);
        m.submitted.store(3, Ordering::Relaxed);
        m.completed.store(3, Ordering::Relaxed);
        m.cache_hits.store(1, Ordering::Relaxed);
        m.record_point(0, Duration::from_millis(10));
        let j = m.to_json();
        assert_eq!(
            j.keys(),
            vec![
                "submitted",
                "completed",
                "cache_hits",
                "simulated",
                "failed",
                "retries",
                "timeouts",
                "gave_up",
                "workers",
                "worker_busy_secs",
                "worker_utilization",
                "wall_time_secs",
                "sim_time_secs",
                "mean_point_secs",
                "max_point_secs",
            ]
        );
        assert_eq!(j.get("simulated").unwrap().as_f64(), Some(2.0));
        assert_eq!(j.get("cache_hits").unwrap().as_f64(), Some(1.0));
        // Round-trips through the strict parser.
        let back = common::json::Json::parse(&j.render_pretty()).unwrap();
        assert_eq!(back.get("submitted").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn json_form_before_any_point_has_null_timings() {
        let m = SweepMetrics::new(1);
        let j = m.to_json();
        assert!(j.get("mean_point_secs").unwrap().is_null());
        assert!(j.get("max_point_secs").unwrap().is_null());
    }

    #[test]
    fn utilization_is_bounded() {
        let m = SweepMetrics::new(4);
        m.record_point(0, Duration::from_secs(1000));
        assert!(m.worker_utilization() <= 1.0);
        assert!(m.worker_utilization() >= 0.0);
    }

    #[test]
    fn json_exports_per_worker_busy_time() {
        let m = SweepMetrics::new(2);
        m.record_point(0, Duration::from_secs(1));
        m.record_point(1, Duration::from_secs(3));
        let j = m.to_json();
        let busy = j.get("worker_busy_secs").unwrap().as_array().unwrap();
        assert_eq!(busy.len(), 2);
        assert_eq!(busy[0].as_f64(), Some(1.0));
        assert_eq!(busy[1].as_f64(), Some(3.0));
        assert!(j.get("wall_time_secs").unwrap().as_f64().unwrap() >= 0.0);
    }

    #[test]
    fn per_worker_busy_row_appears_in_summary() {
        let m = SweepMetrics::with_progress_mode(2, ProgressMode::Plain);
        m.completed.store(2, Ordering::Relaxed);
        m.record_point(0, Duration::from_millis(5));
        m.record_point(1, Duration::from_millis(5));
        let rendered = m.summary_table().render();
        assert!(rendered.contains("per-worker busy"), "{rendered}");
    }

    #[test]
    fn finish_progress_is_noop_without_open_line() {
        // Plain mode never opens an in-place line, so finish_progress
        // must not emit anything (the flag stays false).
        let m = SweepMetrics::with_progress_mode(1, ProgressMode::Plain);
        m.maybe_print_progress(Duration::ZERO);
        assert!(!m.progress_line_open.load(Ordering::Relaxed));
        m.finish_progress();
        assert!(!m.progress_line_open.load(Ordering::Relaxed));
    }
}
