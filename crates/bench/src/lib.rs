#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Experiment drivers regenerating every table and figure of the paper.
//!
//! Each submodule of [`experiments`] reproduces one artifact (see
//! `EXPERIMENTS.md` at the workspace root for the index and the recorded
//! paper-vs-measured comparison). The [`sweep`] module is the empirical
//! frontier subsystem: it executes every problem family's constructive
//! schemas through the engine over a q-grid and compares the measured
//! `(q, r)` curves with the §2.4 analytic lower bounds (`repro frontier`).
//! The `repro` binary prints them. Nothing here times anything for the
//! record: wall-clock is measured by the `mr-perf` ledger in
//! `benchmark/`, which compiles against [`sweep`] and [`json`].

pub mod experiments;
pub mod json;
mod selectors;
pub mod sweep;
pub mod table;

pub use sweep::{sweep_all, sweep_families, SweepConfig, SweepReport};
pub use table::Table;
