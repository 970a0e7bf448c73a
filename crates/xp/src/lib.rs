#![deny(missing_docs)]

//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation.
//!
//! Every experiment is an [`artifact::Artifact`] registered in the
//! [`registry::ArtifactRegistry`] and addressable through the single `xp`
//! driver binary (`cargo run --release -p xp --bin xp -- list`). Each
//! artifact declares its (workload × configuration) sweep as data, runs
//! through the `sim` + `gpujoule` stack via a shared [`lab::Lab`] cache,
//! and renders both the historical text tables and a structured JSON
//! payload. See DESIGN.md for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured comparisons.

pub mod ablation;
pub mod artifact;
pub mod bench;
pub mod cli;
pub mod configs;
pub mod extensions;
pub mod figures;
pub mod lab;
pub mod query;
pub mod registry;
pub mod report;
pub mod validation;

pub use ablation::AblationStudy;
pub use artifact::{Artifact, ArtifactData, ArtifactError, ArtifactErrorKind, SweepPlan};
pub use configs::{ExpConfig, GPM_COUNTS, SCALED_GPM_COUNTS};
pub use extensions::{CompressionStudy, DvfsStudy, GatingStudy, MetricWeightStudy};
pub use figures::{default_suite, Fig10, Fig2, Fig6, Fig7, Fig8, Fig9, Headline, PointStudies};
pub use lab::{Lab, RunPoint};
pub use query::{apply_sets, artifact_digest, config_digest, query_digest, RegistryEngine};
pub use registry::{ArtifactRegistry, RegistryOptions};
pub use report::{evaluate_scaling_claims, evaluate_validation_claims, render_claims, Claim};
