#![deny(missing_docs)]

//! Cycle-level, trace-driven multi-module (NUMA) GPU performance
//! simulator.
//!
//! This crate is the performance-simulation substrate of the study — the
//! stand-in for the proprietary NVIDIA simulator the paper pairs with
//! GPUJoule (§V-A). It models the features the paper calls out as
//! essential:
//!
//! * warp and thread-block scheduling with warp-level latency tolerance,
//! * a multi-level memory hierarchy (per-SM L1s, per-GPM module-side L2s,
//!   per-GPM HBM stacks) with software-based coherence of private caches,
//! * distributed (contiguous) CTA scheduling and first-touch page
//!   placement across modules,
//! * ring and high-radix-switch inter-GPM networks with per-link
//!   bandwidth accounting and per-hop byte counting,
//! * the Table III/IV configuration space (1–32 GPMs, 1x/2x/4x-BW).
//!
//! Output is an [`isa::EventCounts`] per kernel — exactly the `IC`/`TC`/
//! `stalls`/time inputs GPUJoule's Eq. 4 consumes.
//!
//! # Examples
//!
//! ```
//! use sim::{BwSetting, GpuConfig, GpuSim, Topology};
//!
//! let cfg = GpuConfig::paper(8, BwSetting::X2, Topology::Ring);
//! assert_eq!(cfg.total_sms(), 128);
//! let sim = GpuSim::new(&cfg);
//! assert_eq!(sim.config().num_gpms, 8);
//! ```

pub mod bits;
pub mod bw;
pub mod cache;
pub mod config;
pub mod engine;
pub mod inflight;
pub mod memory;
pub mod noc;
pub mod pages;
pub mod results;

pub use bits::BitWords;
pub use config::{
    BwSetting, CtaSchedule, GpmConfig, GpuConfig, L2Mode, PagePolicy, Topology, WarpScheduler,
};
pub use engine::{EngineMode, FastForwardStats, GpuSim, SoaStats};
pub use inflight::InflightTable;
pub use memory::{MemOutcome, MemorySystem, UtilizationReport};
pub use results::{KernelResult, WorkloadResult};
