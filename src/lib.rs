#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # mapreduce-bounds
//!
//! A reproduction of Afrati, Das Sarma, Salihoglu & Ullman,
//! *Upper and Lower Bounds on the Cost of a Map-Reduce Computation*
//! (VLDB 2013, arXiv:1206.4377), as a Rust workspace.
//!
//! This facade crate re-exports the six member crates:
//!
//! * [`sim`] — an instrumented in-process MapReduce engine,
//! * [`graph`] — graph data structures, generators, and serial baselines,
//! * [`lp`] — simplex solver, fractional edge covers, the AGM bound, and
//!   the Shares-exponent LP,
//! * [`core`] — the paper's model: problems, mapping schemas, and the
//!   lower-bound recipe,
//! * [`plan`] — the cost-based planner: given a cluster spec, pick the
//!   cheapest algorithm per family and lower it onto the engine,
//! * [`obs`] — the structured tracing recorder and metrics hub the
//!   execution stack reports into (spans, counters, Chrome
//!   `trace_event` export).
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! table/figure reproduction index. The `repro` binary in `mr-bench`
//! regenerates every table and figure.

pub use mr_core as core;
pub use mr_graph as graph;
pub use mr_lp as lp;
pub use mr_obs as obs;
pub use mr_plan as plan;
pub use mr_sim as sim;
