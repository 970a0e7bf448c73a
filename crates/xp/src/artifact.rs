//! The artifact layer: every paper figure, table, and study is an
//! [`Artifact`] — a declarative sweep plan plus an evaluation that
//! produces both the historical text rendering and a structured JSON
//! payload.
//!
//! The split matters for performance and for correctness:
//!
//! * [`Artifact::plan`] declares *what to sweep* as data. The `xp`
//!   driver unions the plans of every requested artifact and primes the
//!   whole batch through the `runtime::SweepExecutor` in one parallel
//!   sweep, so per-artifact evaluation runs against a warm cache.
//! * [`Artifact::evaluate`] is the serial, deterministic half: it reads
//!   cached simulations and computes the figure's numbers, so output is
//!   byte-identical no matter how many worker threads ran the sweep.
//!
//! Statistics over sweep results go through the fallible [`mean_of`] /
//! [`geomean_of`] helpers, which turn an empty or out-of-domain sample
//! set into a typed [`ArtifactError`] naming the artifact and sweep
//! point instead of panicking mid-run.

use crate::configs::ExpConfig;
use crate::lab::Lab;
use common::json::Json;
use common::stats;
use std::fmt;
use workloads::WorkloadSpec;

/// A typed evaluation failure: which artifact, at which sweep point,
/// and what went wrong.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactError {
    /// The artifact id ("fig6", "repro_report", ...).
    pub artifact: String,
    /// The sweep point being evaluated ("32-GPM 2x-BW", ...).
    pub point: String,
    /// The failure itself.
    pub kind: ArtifactErrorKind,
}

/// What failed inside an artifact evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactErrorKind {
    /// An arithmetic mean was requested over an empty sample set
    /// (e.g. a category with no workloads in the suite).
    EmptyMean,
    /// A geometric mean was requested over an empty sample set or one
    /// containing non-positive / non-finite values.
    GeomeanDomain,
    /// The underlying sweep failed (a simulation point panicked).
    Sweep(String),
    /// Writing results to disk failed.
    Io(String),
}

impl ArtifactError {
    /// A new error for `artifact` at `point`.
    pub fn new(
        artifact: impl Into<String>,
        point: impl Into<String>,
        kind: ArtifactErrorKind,
    ) -> Self {
        ArtifactError {
            artifact: artifact.into(),
            point: point.into(),
            kind,
        }
    }

    /// Wraps a failed sweep prime, naming the artifact whose plan was
    /// being simulated.
    pub fn from_sweep(artifact: impl Into<String>, err: runtime::SweepError) -> Self {
        ArtifactError::new(
            artifact,
            "sweep prime",
            ArtifactErrorKind::Sweep(err.message),
        )
    }

    /// This error as the failure of artifact `id`, whose evaluation it
    /// ended. An error raised by another artifact that `id` evaluates (a
    /// figure inside `repro_report`) keeps that artifact's name in
    /// `point`, e.g. `fig8: sweep prime`.
    pub(crate) fn attributed_to(self, id: &str) -> Self {
        if self.artifact == id {
            return self;
        }
        ArtifactError {
            point: format!("{}: {}", self.artifact, self.point),
            artifact: id.to_string(),
            kind: self.kind,
        }
    }

    /// The serialized form recorded in run manifests.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.insert("artifact", self.artifact.as_str());
        o.insert("point", self.point.as_str());
        o.insert("message", self.to_string());
        o
    }
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match &self.kind {
            ArtifactErrorKind::EmptyMean => "mean over an empty sample set".to_string(),
            ArtifactErrorKind::GeomeanDomain => {
                "geometric mean over an empty or non-positive sample set".to_string()
            }
            ArtifactErrorKind::Sweep(msg) => format!("sweep failed: {msg}"),
            ArtifactErrorKind::Io(msg) => format!("io error: {msg}"),
        };
        write!(f, "artifact {} at {}: {what}", self.artifact, self.point)
    }
}

impl std::error::Error for ArtifactError {}

/// Maps a point that failed on the lab's executor (a fit, validation
/// or characterization run inside `artifact`'s evaluation) to the
/// artifact's typed error at `point`.
pub(crate) fn failed_at(
    artifact: &'static str,
    point: &'static str,
) -> impl FnOnce(runtime::SweepError) -> ArtifactError {
    move |e| ArtifactError::new(artifact, point, ArtifactErrorKind::Sweep(e.message))
}

/// Arithmetic mean that reports failure as a typed error naming the
/// artifact and sweep point (the paper's figure sweeps are never empty,
/// but a filtered suite can be).
pub fn mean_of(artifact: &str, point: &str, values: &[f64]) -> Result<f64, ArtifactError> {
    stats::mean(values)
        .ok_or_else(|| ArtifactError::new(artifact, point, ArtifactErrorKind::EmptyMean))
}

/// Geometric mean with the same typed-error contract as [`mean_of`].
pub fn geomean_of(artifact: &str, point: &str, values: &[f64]) -> Result<f64, ArtifactError> {
    stats::geomean(values)
        .ok_or_else(|| ArtifactError::new(artifact, point, ArtifactErrorKind::GeomeanDomain))
}

/// What an artifact needs simulated before it can evaluate: a list of
/// experiment configurations (swept against the workload suite; the
/// 1-GPM baseline is always primed alongside) plus whether the §IV
/// fitting pipeline is required.
#[derive(Debug, Clone, Default)]
pub struct SweepPlan {
    /// Configurations to prime for every suite workload.
    pub configs: Vec<ExpConfig>,
    /// Whether the artifact runs the microbenchmark fitting pipeline
    /// (not part of the simulation sweep cache).
    pub needs_fit: bool,
}

impl SweepPlan {
    /// A plan with no sweep and no fit (static artifacts like Table III).
    pub fn none() -> Self {
        SweepPlan::default()
    }

    /// A pure sweep plan.
    pub fn sweep(configs: Vec<ExpConfig>) -> Self {
        SweepPlan {
            configs,
            needs_fit: false,
        }
    }

    /// A fitting-pipeline-only plan (Table Ib, Figs. 4a/4b).
    pub fn fit() -> Self {
        SweepPlan {
            configs: Vec::new(),
            needs_fit: true,
        }
    }

    /// Marks the plan as also needing the fitting pipeline.
    pub fn with_fit(mut self) -> Self {
        self.needs_fit = true;
        self
    }

    /// Folds another plan into this one.
    pub fn merge(&mut self, other: SweepPlan) {
        self.configs.extend(other.configs);
        self.needs_fit |= other.needs_fit;
    }
}

/// The evaluated result of one artifact: the exact text the historical
/// binary printed, plus the structured JSON payload the `xp` driver
/// writes to disk.
#[derive(Debug, Clone)]
pub struct ArtifactData {
    /// Full text rendering (what the pre-registry binary printed to
    /// stdout, byte for byte).
    pub text: String,
    /// Structured payload, including the `id`/`title` envelope.
    pub json: Json,
}

/// One paper artifact: identity, a declarative sweep plan, and an
/// evaluation producing [`ArtifactData`].
pub trait Artifact: Send + Sync {
    /// Stable identifier (`fig6`, `table1b`, `repro_report`, ...); the
    /// CLI name and the JSON file stem.
    fn id(&self) -> &'static str;

    /// One-line human title shown by `xp list`.
    fn title(&self) -> &'static str;

    /// What to sweep (and whether the fitting pipeline is needed)
    /// before [`Artifact::evaluate`] can run from a warm cache.
    fn plan(&self) -> SweepPlan;

    /// Runs the artifact against the lab and workload suite.
    fn evaluate(&self, lab: &Lab, suite: &[WorkloadSpec]) -> Result<ArtifactData, ArtifactError>;

    /// Whether this artifact is a composite wrapper over other
    /// artifacts (excluded from `xp run all` to avoid double work).
    fn composite(&self) -> bool {
        false
    }

    /// The text rendering of an evaluation.
    fn render_text(&self, data: &ArtifactData) -> String {
        data.text.clone()
    }

    /// The JSON payload of an evaluation.
    fn to_json(&self, data: &ArtifactData) -> Json {
        data.json.clone()
    }
}

/// Builds the standard `{"id": ..., "title": ...}` envelope and appends
/// the payload object's fields to it.
pub fn enveloped(id: &str, title: &str, payload: Json) -> Json {
    let mut o = Json::object();
    o.insert("id", id);
    o.insert("title", title);
    match payload {
        Json::Object(pairs) => {
            for (k, v) in pairs {
                o.insert(k, v);
            }
        }
        other => {
            o.insert("data", other);
        }
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_helpers_name_the_failure_site() {
        let err = mean_of("fig6", "32-GPM compute", &[]).unwrap_err();
        assert_eq!(err.artifact, "fig6");
        assert_eq!(err.point, "32-GPM compute");
        assert_eq!(err.kind, ArtifactErrorKind::EmptyMean);
        assert!(err.to_string().contains("fig6"));
        assert!(err.to_string().contains("32-GPM compute"));

        let err = geomean_of("fig7", "step 16->32", &[1.0, -2.0]).unwrap_err();
        assert_eq!(err.kind, ArtifactErrorKind::GeomeanDomain);
        assert!(mean_of("fig2", "2-GPM", &[1.0, 3.0]).is_ok());
        assert_eq!(geomean_of("fig2", "2-GPM", &[4.0, 1.0]).unwrap(), 2.0);
    }

    #[test]
    fn plans_merge() {
        use sim::BwSetting;
        let mut a = SweepPlan::sweep(vec![ExpConfig::paper_default(2, BwSetting::X1)]);
        a.merge(SweepPlan::fit());
        a.merge(SweepPlan::sweep(vec![ExpConfig::paper_default(
            4,
            BwSetting::X2,
        )]));
        assert_eq!(a.configs.len(), 2);
        assert!(a.needs_fit);
    }

    #[test]
    fn envelope_flattens_payload_objects() {
        let mut payload = Json::object();
        payload.insert("rows", Json::array());
        let j = enveloped("fig2", "Figure 2", payload);
        assert_eq!(j.keys(), vec!["id", "title", "rows"]);
        assert_eq!(j.get("id").and_then(Json::as_str), Some("fig2"));
    }

    #[test]
    fn error_json_names_the_site() {
        let err = ArtifactError::new("fig9", "32-GPM", ArtifactErrorKind::Sweep("boom".into()));
        let j = err.to_json();
        assert_eq!(j.get("artifact").and_then(Json::as_str), Some("fig9"));
        assert!(j
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("boom"));
    }
}
