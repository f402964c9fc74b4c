#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! The decision layer between `mr-core`'s analytic bounds and `mr-sim`'s
//! executor: given a **cluster**, pick the **cheapest algorithm**.
//!
//! Every executor in this workspace takes a hand-picked schema parameter —
//! a splitting divisor, block sides `(s, t)`, Shares exponents. A
//! production system is not told `q`; it is told a cluster and derives the
//! cheapest point on the paper's `(q, r)` tradeoff frontier itself. This
//! crate closes that loop:
//!
//! * [`ClusterSpec`] describes the cluster — worker
//!   count, per-reducer memory budget, and the §1.2 cost weights
//!   `a·r + b·q (+ c·q²)` (generalising [`mr_core::cost::CostModel`]);
//! * [`plan_family`] plans every registry family from one table of
//!   entries, each citing the paper's closed form for its family — the
//!   Theorem 3.2 Hamming hyperbola, §4.1 triangle partitioning, the §6
//!   one- vs two-phase matmul crossover at `q = n²` — or
//!   [`mr_lp::share_exponents`]'s simplex for Shares exponents on cycle
//!   joins;
//! * candidate points are priced by their
//!   [`DynFamily::census`](mr_core::family::DynFamily::census) — an exact
//!   map-side prediction, so `predicted_q`/`predicted_r` equal what the
//!   engine will measure;
//! * every [`Plan`] is **runnable**:
//!   [`Plan::execute`] lowers the choice onto the
//!   [`DynFamily`](mr_core::family::DynFamily) registry's
//!   [`mr_sim::run_schema`] round (or a multi-round matmul tree, through
//!   the same budgeted [`DagJob`](mr_sim::DagJob) path a [`DagPlan`]
//!   runs), under a reducer budget equal to its own prediction, and
//!   reports measured `(q, r, cost)` next to the predicted ones;
//! * the [`dag`] module generalises the plan *shape*: a
//!   [`RoundDag`] is a DAG of rounds with per-round census-exact
//!   `(q, r)` and cost `Σ rounds (a·r + b·q + c·q²) + ℓ·depth`, and
//!   [`plan_dag`] searches a workload's round structures (one-phase,
//!   flat two-phase, deeper aggregation trees, join→aggregate
//!   pipelines, multi-round Hamming splitting) so the §6.3 crossover is
//!   *found* by costing rather than special-cased.
//!
//! Planning is pure — same `(family, cluster, scale)`, same plan — so a
//! resident process can memoise it: [`PlanCache`] fronts [`plan_family`]
//! and [`plan_dag`] with a bit-exact key over every planner input and
//! exposes [`CacheStats`] hit/miss counters. Planning is also two steps,
//! both public — a cluster-independent **price** ([`price_family`],
//! [`enumerate_dag_candidates`]) and a per-cluster **choose**
//! ([`PricedFamily::choose`], [`DagPlan::choose`]), which for families
//! and DAG workloads alike is one `pick` over priced [`RoundDag`]s — so a
//! caller comparing cluster profiles prices once and chooses per
//! profile, and the cache keeps the priced tables for the same reason.
//!
//! The `repro plan` and `repro dag` experiments in `mr-bench` drive this
//! end to end, and the planner-vs-sweep and DAG parity batteries prove
//! the planner's pick matches the empirically-cheapest alternative.

pub mod cache;
pub mod cluster;
pub mod dag;
pub mod plan;
pub mod planner;

pub use cache::{CacheStats, PlanCache};
pub use cluster::ClusterSpec;
pub use dag::{
    enumerate_dag_candidates, plan_dag, DagCandidate, DagPlan, DagPlanReport, DagStructure,
    DagWorkload, RoundDag, RoundObservation, RoundSpec,
};
pub use plan::{Choice, Plan, PlanReport};
pub use planner::{plan_family, plannable_families, price_family, PlanError, PricedFamily};
