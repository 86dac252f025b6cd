//! Experiment harness: builds machines, installs synchronization
//! kernels, runs them, and reduces the recorded marks into the numbers
//! the paper reports — barrier time, cycles-per-processor, lock
//! benchmark time, and network traffic.
//!
//! This crate owns the *single-run* layer. [`runner`] holds the one
//! driver every simulation goes through ([`run_scenario`]: check the
//! description, build the machine the observers need, bound and run it,
//! report the result or a typed [`RunFailure`]) and what a run must
//! supply to use it (a [`Scenario`]: its machine, its kernels — put on
//! through the `amo_sync::install` installers — and its reduction).
//! The barrier and lock benchmarks and the application studies in
//! [`app`] are its scenarios; [`measure`] holds the reducers and
//! [`executor`] the sweep pool. Whole tables and figures are
//! expanded, scheduled, cached, and rendered one level up, in the
//! `amo-campaign` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod executor;
pub mod measure;
pub mod runner;

pub use measure::{BarrierMeasurement, LockMeasurement};
pub use runner::{
    run_barrier, run_barrier_obs, run_lock, run_lock_obs, run_on, run_scenario, try_run_barrier,
    try_run_barrier_obs, try_run_lock, try_run_lock_obs, BarrierAlgo, BarrierBench, BarrierResult,
    Finished, LockBench, LockKind, LockResult, ObsReport, ObsSpec, Run, RunFailure, RunInfo,
    Scenario, SkewMode,
};
