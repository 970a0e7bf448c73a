#![deny(missing_docs)]

//! The GPUJoule microbenchmark suite and EPI/EPT derivation pipeline
//! (paper §IV and Fig. 3).
//!
//! The paper derives its energy model by running microbenchmarks on a
//! Tesla K40 and reading the board power sensor; this crate does the same
//! against the `silicon` crate's virtual K40, using the `sim` crate for
//! timing. The pipeline never reads the silicon's hidden parameters —
//! recovering Table Ib through the sensor is the point of the exercise.
//!
//! # Examples
//!
//! ```no_run
//! use microbench::{fit, FitConfig};
//! use silicon::VirtualK40;
//!
//! let hw = VirtualK40::new();
//! let fitted = fit(&hw, &FitConfig::default());
//! println!("{}", fitted.epi);
//! ```

pub mod fit;
pub mod harness;
pub mod kernels;
pub mod validate;

pub use fit::{fit, fit_runs, solve, FitConfig, FitRun, FittedModel};
pub use harness::{measure_scaled, replication_factor, run_and_measure, ScaledMeasurement};
pub use kernels::{ComputeUbench, MemLevel, MemoryUbench, MixedUbench};
pub use validate::{assess_mixed, fig4a_combinations, validate_mixed, MixedRun};
