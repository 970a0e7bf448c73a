//! `mmgpu-bench`: the end-to-end and per-layer benchmark of the
//! multi-module GPU energy study.
//!
//! Four closed-loop workloads drive the system from outside, through
//! its public entry points only (`xp::cli::main`, `xp::Lab::prime`,
//! `xp::ArtifactRegistry`, and the `xpd` wire protocol of
//! `common::proto`), each repetition in a fresh child process, and
//! check every output against golden digests. See `README.md` for the
//! metrics, the workloads, and how to compare two commits.

pub mod child;
pub mod gen;
pub mod golden;
pub mod layers;
pub mod procs;
pub mod report;
pub mod stats;
pub mod workloads;
