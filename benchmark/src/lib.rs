#![warn(missing_docs)]

//! The repository's one performance ledger.
//!
//! Four workloads drawn from the paper (`hamming_join`, `matmul_tree`,
//! `steady_churn`, `plan_and_sweep`), each checked against a serial
//! oracle, measured end to end with the recorder off and layer by layer
//! in a separate traced pass. `README.md` beside this crate's manifest
//! explains the workloads, the metrics, and which layer is predicted to
//! move which end-to-end number; `BENCHMARK.json` at the repository
//! root lists the metric names and their regression bounds.

pub mod cli;
pub mod harness;
pub mod metrics;
pub mod reference;
pub mod report;
pub mod stats;
pub mod workloads;
