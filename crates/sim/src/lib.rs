#![warn(missing_docs)]
#![deny(unsafe_code)]

//! An instrumented, in-process MapReduce engine.
//!
//! The paper (Afrati et al., VLDB 2013) reasons about three quantities of a
//! single-round map-reduce computation:
//!
//! * the **replication rate** `r` — average number of key-value pairs the
//!   mappers create per input (§1.1, §2.2),
//! * the **reducer size** `q` — the maximum number of inputs any one
//!   reducer receives,
//! * the **communication cost** — total key-value pairs crossing the
//!   map→reduce shuffle (summed over rounds for multi-round jobs, §6.3).
//!
//! All three are *counting* properties of the dataflow, so a real cluster
//! is unnecessary: this engine executes map, shuffle, and reduce in
//! process — sequentially or across threads with bit-identical results —
//! and counts the quantities exactly.
//!
//! One description of a round runs through every layer: a [`SchemaJob`],
//! §2.2's mapping schema (each input sent, whole, to the reducers its
//! assignment names) plus the reduce logic. The engine runs it, a DAG
//! node is one, the census folds its assignment, and a delta routes by
//! it.
//!
//! Modules:
//! * [`schema`] — [`SchemaJob`], its closure adapter [`FnSchema`], and
//!   the census over an assignment ([`LoadTable`], [`price_change`]),
//! * [`engine`] — [`run_schema`], the round kernel, with an enforceable
//!   reducer-size budget, built on a columnar radix-partitioned shuffle
//!   (`P = workers` partitions, clamped to the input size, merged in
//!   reducer order so results never depend on the worker count),
//! * `columnar` (internal) — the flat data plane under the shuffle:
//!   `(reducer id, input position)` pairs routed at emit, by the id's
//!   fingerprint, into `(partition, radix bucket)` columns,
//!   open-addressing grouping that compares ids, merged views; the
//!   reduce phase gathers the inputs by position,
//! * [`delta`] — incremental execution: schemas held resident with
//!   per-reducer state, re-executing only the reducers a
//!   `Delta { added, removed }` dirties (exploiting §2.2 obliviousness),
//! * [`dag`] — a DAG of rounds over one token type, staged level by
//!   level on the execution substrate: the one way to chain rounds, from
//!   §6.3's two-phase method to planner-searched round structures,
//! * [`pool`] — [`fan_out`], the one fan-out under every parallel site:
//!   inline at width 1, otherwise one batch on the resident
//!   work-stealing [`WorkerPool`],
//! * [`metrics`] — per-round and per-job measurements.
//!
//! The test oracles live outside the crate: the original `BTreeMap`
//! shuffle is the dev-only `mr-oracle` crate, which only the integration
//! tests reach, and the pool's twin is the inline `workers = 1` run.
//!
//! `unsafe` code is denied crate-wide. One function opts back in, for
//! one site whose safe form measured slower in the perf ledger: the
//! lifetime erasure in [`WorkerPool::run`]. Its `SAFETY` comment states
//! that price.

pub(crate) mod columnar;
pub mod dag;
pub mod delta;
pub mod engine;
pub mod metrics;
pub mod pool;
pub mod schema;

pub use dag::DagJob;
pub use delta::{
    predict_delta, run_schema_retained, Delta, DeltaError, DeltaJob, DeltaMetrics, DeltaOutcome,
    DeltaPrediction, Pipeline, Seq,
};
pub use engine::{run_schema, EngineConfig, EngineError};
pub use metrics::{JobMetrics, LoadStats, RoundMetrics, ShuffleStats};
pub use pool::{fan_out, Executor, WorkerPool};
pub use schema::{
    price_change, FnSchema, LoadHistogram, LoadTable, ReducerId, RoundCensus, SchemaJob,
};

/// A round written as two closures, named as the paper names them:
/// [`FnSchema`]'s assignment closure is the round's mapper (it sends each
/// input to reducers), its reduce closure the round's reducer.
#[cfg(test)]
mod mapper {
    mod tests {
        use crate::{FnSchema, ReducerId, SchemaJob};

        fn mod_sum() -> impl SchemaJob<u32, u64> {
            FnSchema(
                |x: &u32, emit: &mut dyn FnMut(ReducerId)| {
                    emit(u64::from(*x % 3));
                    emit(u64::from(*x % 5));
                },
                |r: ReducerId, xs: &[u32], emit: &mut dyn FnMut(u64)| {
                    emit(r + xs.iter().map(|&x| u64::from(x)).sum::<u64>())
                },
            )
        }

        #[test]
        fn fn_mapper_adapts_closures() {
            let schema = mod_sum();
            let mut reducers = Vec::new();
            schema.assign_into(&7, &mut |r| reducers.push(r));
            assert_eq!(reducers, vec![1, 2]);
            assert_eq!(schema.assign(&7), reducers);
        }

        #[test]
        fn fn_reducer_adapts_closures() {
            let mut out = Vec::new();
            mod_sum().reduce(10, &[1, 2, 3], &mut |o| out.push(o));
            assert_eq!(out, vec![16]);
        }
    }
}
