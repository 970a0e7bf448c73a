//! Golden outputs: FNV-1a digests of everything the workloads produce,
//! embedded at build time from `golden/*.tsv`.
//!
//! Simulated statistics and artifact bytes repeat exactly, so any
//! difference is a model change, never noise: a mismatch counts as a
//! failed op and fails the run. `mmgpu-bench golden --out DIR`
//! regenerates the files when the model changes on purpose.

use common::digest::Fnv1a;
use std::collections::HashMap;

/// The FNV-1a digest of some bytes, as 16 hex digits.
pub fn digest(text: &str) -> String {
    Fnv1a::of(text).hex()
}

/// The digest of one simulated point's statistics: its `EventCounts`
/// in `Debug` form, so every counter takes part.
pub fn counts_digest(counts: &isa::EventCounts) -> String {
    digest(&format!("{counts:?}"))
}

/// One full-scale population point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointGolden {
    /// The point key (see [`crate::gen::point_key`]).
    pub key: String,
    /// Module count.
    pub gpms: usize,
    /// `EventCounts::total_instructions`.
    pub instructions: u64,
    /// Host seconds one serial simulation took when the file was made.
    /// It only balances the sweep sample; it is never checked.
    pub cost_s: f64,
    /// [`counts_digest`] of the point.
    pub digest: String,
}

/// Every golden table.
#[derive(Debug, Clone)]
pub struct Golden {
    /// `(artifact id, digest of its smoke file)`, in registry order.
    pub artifacts: Vec<(String, String)>,
    /// The full-scale sweep population, sorted by key.
    pub points: Vec<PointGolden>,
    payloads: HashMap<String, String>,
    point_index: HashMap<String, usize>,
}

/// Smoke artifact files: `id <TAB> digest`.
pub const ARTIFACTS_FILE: &str = "smoke_artifacts.tsv";
/// Full-scale points: `key <TAB> gpms <TAB> instructions <TAB> cost_s <TAB> digest`.
pub const POINTS_FILE: &str = "full_points.tsv";
/// What-if payloads: `query key <TAB> digest`.
pub const WHATIF_FILE: &str = "serve_whatif.tsv";

impl Golden {
    /// The tables compiled into this binary.
    pub fn embedded() -> Golden {
        Golden::parse(
            include_str!("../golden/smoke_artifacts.tsv"),
            include_str!("../golden/full_points.tsv"),
            include_str!("../golden/serve_whatif.tsv"),
        )
        .expect("embedded golden tables are well formed")
    }

    /// Parses the three tables.
    pub fn parse(artifacts: &str, points: &str, whatif: &str) -> Result<Golden, String> {
        let artifacts: Vec<(String, String)> = rows(artifacts, 2)?
            .into_iter()
            .map(|r| (r[0].to_string(), r[1].to_string()))
            .collect();
        let points = rows(points, 5)?
            .into_iter()
            .map(|r| {
                Ok(PointGolden {
                    key: r[0].to_string(),
                    gpms: r[1].parse().map_err(|_| format!("bad gpms {:?}", r[1]))?,
                    instructions: r[2]
                        .parse()
                        .map_err(|_| format!("bad instructions {:?}", r[2]))?,
                    cost_s: r[3].parse().map_err(|_| format!("bad cost {:?}", r[3]))?,
                    digest: r[4].to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut payloads: HashMap<String, String> = rows(whatif, 2)?
            .into_iter()
            .map(|r| (r[0].to_string(), r[1].to_string()))
            .collect();
        for (id, d) in &artifacts {
            payloads.insert(id.clone(), d.clone());
        }
        let point_index = points
            .iter()
            .enumerate()
            .map(|(i, p)| (p.key.clone(), i))
            .collect();
        Ok(Golden {
            artifacts,
            points,
            payloads,
            point_index,
        })
    }

    /// The golden point for `key`.
    pub fn point(&self, key: &str) -> Option<&PointGolden> {
        self.point_index.get(key).map(|&i| &self.points[i])
    }

    /// The payload digest for a query key; plain queries answer with the
    /// artifact file, so they share its digest.
    pub fn payload(&self, query_key: &str) -> Option<&str> {
        self.payloads.get(query_key).map(String::as_str)
    }
}

/// Tab-separated rows of exactly `width` fields; `#` lines are comments.
fn rows(text: &str, width: usize) -> Result<Vec<Vec<&str>>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let fields: Vec<&str> = l.split('\t').collect();
            if fields.len() == width {
                Ok(fields)
            } else {
                Err(format!(
                    "golden row has {} fields, want {width}: {l:?}",
                    fields.len()
                ))
            }
        })
        .collect()
}

/// Regenerates all three tables into `out`: a smoke `run all`, every
/// population point simulated serially on two threads (minutes), and
/// every what-if query any seed can send, through a fresh daemon.
pub fn regenerate(out: &std::path::Path, scratch: &crate::procs::Scratch) -> Result<(), String> {
    use crate::workloads::{go, repro_args, spawn_ready, BATCH_TIMEOUT};
    use std::fmt::Write as _;
    let write = |name: &str, body: String| {
        std::fs::write(out.join(name), body).map_err(|e| format!("cannot write {name}: {e}"))
    };
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;

    let dir = scratch.dir("golden-smoke")?;
    let (mut proc, _) = spawn_ready(&repro_args(&dir, false), &dir)?;
    let (report, _) = go(&mut proc, BATCH_TIMEOUT)?;
    if report.get("code").and_then(common::json::Json::as_f64) != Some(0.0) {
        return Err("xp run all --smoke failed".to_string());
    }
    let mut body =
        String::from("# id\tdigest of the file `xp run all --smoke --format json --out` writes\n");
    for id in xp::ArtifactRegistry::standard(&xp::RegistryOptions::default()).all_ids() {
        let path = dir.join("out").join(format!("{id}.json"));
        let bytes = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let _ = writeln!(body, "{id}\t{}", digest(&bytes));
    }
    write(ARTIFACTS_FILE, body)?;

    // Known points keep their recorded cost, so refreshing digests after
    // a model change leaves every seed's sweep sample as it was.
    let known = Golden::embedded();
    let population = crate::gen::sweep_population();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let rows = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..crate::procs::THREADS {
            s.spawn(|| {
                let lab = xp::Lab::new(workloads::Scale::Full);
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some((key, w, c)) = population.get(i) else {
                        break;
                    };
                    let began = std::time::Instant::now();
                    let counts = lab.counts(w, c);
                    let cost = known
                        .point(key)
                        .map_or(began.elapsed().as_secs_f64(), |p| p.cost_s);
                    let row = format!(
                        "{key}\t{}\t{}\t{cost:.4}\t{}\n",
                        c.gpms,
                        counts.total_instructions(),
                        counts_digest(&counts)
                    );
                    rows.lock().expect("no panics while held").push(row);
                }
            });
        }
    });
    let mut rows = rows.into_inner().expect("no panics while held");
    rows.sort();
    write(
        POINTS_FILE,
        format!(
            "# key\tgpms\tinstructions\tcost_s\tcounts_digest\n{}",
            rows.concat()
        ),
    )?;

    let dir = scratch.dir("golden-serve")?;
    let mut daemon = crate::procs::Daemon::start(&dir, &dir.join("store"), None)?;
    let mut client = daemon.connect(1)?.pop().expect("one connection");
    let mut body = String::from("# query\tdigest of the payload\n");
    for q in crate::gen::whatif_menu() {
        let resp = client.request(&q.request())?;
        match (resp.status.as_str(), resp.payload) {
            ("ok", Some(payload)) => {
                let _ = writeln!(body, "{}\t{}", q.key(), digest(&payload));
            }
            (status, _) => return Err(format!("{}: status {status}", q.key())),
        }
    }
    daemon.shutdown()?;
    write(WHATIF_FILE, body)
}
