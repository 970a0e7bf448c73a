//! Size-capped rotating structured event logs.
//!
//! [`EventLog`] appends one JSON object per line (JSONL) to a file the
//! operator names with `--log`. When the file would grow past
//! [`CAP_BYTES`] it is rotated once — renamed to `<file>.1`,
//! clobbering the previous `.1` — so a forgotten daemon consumes at
//! most ~2× the cap of disk, and the newest events are always in the
//! un-suffixed file. Lines are written whole under a lock, so
//! concurrent connection threads never interleave partial records.
//!
//! The same type backs the `--slow-ms` slow-query log: one line per
//! request whose total latency crossed the threshold, with its phase
//! breakdown, so "what was slow last night" is a `grep`, not a replay.

use common::json::Json;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Rotation threshold: 4 MiB.
pub const CAP_BYTES: u64 = 4 * 1024 * 1024;

#[derive(Debug)]
struct Sink {
    file: File,
    written: u64,
}

/// An append-only JSONL log that rotates once at a size cap.
#[derive(Debug)]
pub struct EventLog {
    path: PathBuf,
    cap_bytes: u64,
    sink: Mutex<Sink>,
}

fn open_append(path: &Path) -> Result<(File, u64), String> {
    let file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("xpd log: cannot open {}: {e}", path.display()))?;
    let written = file.metadata().map(|m| m.len()).unwrap_or(0);
    Ok((file, written))
}

impl EventLog {
    /// Opens (or creates) the log at `path`, appending to existing
    /// content, with the [`CAP_BYTES`] rotation threshold.
    pub fn open(path: impl Into<PathBuf>) -> Result<EventLog, String> {
        EventLog::with_cap(path.into(), CAP_BYTES)
    }

    fn with_cap(path: PathBuf, cap_bytes: u64) -> Result<EventLog, String> {
        let (file, written) = open_append(&path)?;
        Ok(EventLog {
            path,
            cap_bytes,
            sink: Mutex::new(Sink { file, written }),
        })
    }

    /// The path events are appended to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one event as a single JSONL line, stamped with
    /// `at_unix_ms`. Rotates first if the line would cross the cap.
    /// Errors are reported, not fatal: a full disk degrades logging,
    /// never serving.
    pub fn append(&self, mut event: Json) -> Result<(), String> {
        let at = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        event.insert("at_unix_ms", at as f64);
        let mut line = event.render();
        line.push('\n');
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        if sink.written + line.len() as u64 > self.cap_bytes && sink.written > 0 {
            // Rotate: current file becomes `.1` (clobbering the old
            // `.1`), and we start a fresh file at the original path.
            let rotated = self.path.with_extension(match self.path.extension() {
                Some(ext) => format!("{}.1", ext.to_string_lossy()),
                None => "1".to_string(),
            });
            sink.file
                .flush()
                .map_err(|e| format!("xpd log: flush before rotate failed: {e}"))?;
            std::fs::rename(&self.path, &rotated)
                .map_err(|e| format!("xpd log: rotate to {} failed: {e}", rotated.display()))?;
            let (file, written) = open_append(&self.path)?;
            *sink = Sink { file, written };
        }
        sink.file
            .write_all(line.as_bytes())
            .map_err(|e| format!("xpd log: write to {} failed: {e}", self.path.display()))?;
        sink.written += line.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "xpd-eventlog-{tag}-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn event(pairs: &[(&str, &str)]) -> Json {
        let mut o = Json::object();
        for (k, v) in pairs {
            o.insert(*k, *v);
        }
        o
    }

    #[test]
    fn appends_parseable_jsonl_lines() {
        let path = temp_path("append");
        let _ = std::fs::remove_file(&path);
        let log = EventLog::open(&path).unwrap();
        log.append(event(&[("kind", "request"), ("op", "query")]))
            .unwrap();
        log.append(event(&[("kind", "request"), ("op", "stats")]))
            .unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let doc = Json::parse(line).unwrap();
            assert_eq!(doc.get("kind").unwrap().as_str(), Some("request"));
            assert!(doc.get("at_unix_ms").unwrap().as_f64().is_some());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rotates_once_at_the_cap_and_keeps_newest_in_place() {
        let path = temp_path("rotate");
        let rotated = path.with_extension("jsonl.1");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&rotated);
        let log = EventLog::with_cap(path.clone(), 512).unwrap();
        for i in 0..64 {
            log.append(event(&[("kind", "request"), ("i", &i.to_string()[..])]))
                .unwrap();
        }
        let live = std::fs::metadata(&path).unwrap().len();
        let old = std::fs::metadata(&rotated).unwrap().len();
        assert!(live <= 512, "live log {live} bytes exceeds cap");
        assert!(old <= 512, "rotated log {old} bytes exceeds cap");
        // The newest event is in the un-suffixed file.
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.lines().last().unwrap().contains("\"63\""), "{body}");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&rotated);
    }

    #[test]
    fn reopening_appends_instead_of_truncating() {
        let path = temp_path("reopen");
        let _ = std::fs::remove_file(&path);
        {
            let log = EventLog::open(&path).unwrap();
            log.append(event(&[("kind", "first")])).unwrap();
        }
        let log = EventLog::open(&path).unwrap();
        log.append(event(&[("kind", "second")])).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 2, "{body}");
        let _ = std::fs::remove_file(&path);
    }
}
