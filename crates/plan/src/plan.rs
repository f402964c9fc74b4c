//! Plans and their execution lowering.

use crate::cluster::ClusterSpec;
use mr_core::family::{family_by_name, Scale};
use mr_core::problems::matmul::{Matrix, RecursiveMatMul};
use mr_sim::{EngineConfig, EngineError};
use std::time::{Duration, Instant};

/// The algorithm a plan commits to, in lowerable form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Choice {
    /// Grid point `point` of the named registry family at `scale` —
    /// lowered through [`DynFamily::run`](mr_core::family::DynFamily::run),
    /// the registry's one [`mr_sim::run_schema`] round.
    Registry {
        /// Instance-size preset the plan was made for.
        scale: Scale,
        /// Index into the family's [`grid`](mr_core::family::DynFamily::grid).
        point: usize,
    },
    /// A multi-round matrix-multiplication aggregation tree — the
    /// algorithms the one-phase registry grid cannot express, chosen by
    /// the round-structure search whenever some tree prices below every
    /// grid point (e.g. whenever the reducer budget drops below `n²`).
    /// `fanin = n/t` is exactly the §6.3 two-phase method; smaller
    /// fan-ins are deeper trees.
    MatMulTree {
        /// Matrix side length.
        n: u32,
        /// Row/column block side (divides `n`).
        s: u32,
        /// j-dimension block depth (divides `n`).
        t: u32,
        /// Aggregation-tree fan-in.
        fanin: u32,
    },
}

/// A costed, runnable decision: which schema to run, what it will
/// measure, and why it was picked.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Registry family the plan is for.
    pub family: &'static str,
    /// Chosen schema's display name (grid-point name, or the two-phase
    /// block shape).
    pub schema: String,
    /// The lowerable choice.
    pub choice: Choice,
    /// The cluster the plan was made for (costs and execution workers).
    pub cluster: ClusterSpec,
    /// Predicted maximum reducer load. Exact: grid points are priced by
    /// [`AssignCensus`](mr_core::family::AssignCensus), multi-round trees
    /// by their closed-form per-round loads — so execution runs under
    /// this very value as a hard budget.
    pub predicted_q: u64,
    /// Predicted replication rate (for multi-round choices: total
    /// communication over `|I|`).
    pub predicted_r: f64,
    /// Predicted shuffled key-value pairs (census pairs for grid points,
    /// total multi-round communication for trees). Exact, like the
    /// other predictions — and threaded into execution as the engine's
    /// [`pairs_hint`](mr_sim::EngineConfig::pairs_hint), so the emission
    /// buffers of a planned run are sized right up front instead of
    /// growing through doubling reallocations.
    pub predicted_pairs: u64,
    /// Predicted cluster cost `a·r + b·q (+ c·q²)`.
    pub predicted_cost: f64,
    /// Why this point: the closed form used, the candidates priced, and
    /// the winning numbers.
    pub rationale: String,
}

/// The result of executing a [`Plan`]: measurements next to predictions.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// The executed plan.
    pub plan: Plan,
    /// Engine-measured maximum reducer load (max over rounds for
    /// multi-round choices).
    pub measured_q: u64,
    /// Engine-measured replication rate (total communication over `|I|`
    /// for multi-round choices).
    pub measured_r: f64,
    /// Cluster cost of the measured `(q, r)` point.
    pub measured_cost: f64,
    /// Outputs the execution emitted.
    pub outputs: u64,
    /// Engine-observed shuffle-partition skew, `max partition load /
    /// mean` (max over rounds for multi-round choices; 0 when the run
    /// was not partitioned). Execution metadata, like `wall`.
    pub partition_skew: f64,
    /// Engine-observed shuffle volume in bytes (summed over rounds).
    /// Execution metadata, like `wall`.
    pub shuffle_bytes: u64,
    /// Wall-clock time (execution metadata, varies run to run).
    pub wall: Duration,
}

impl Plan {
    /// Executes the plan on the cluster's engine. See
    /// [`execute_with`](Plan::execute_with).
    pub fn execute(&self) -> Result<PlanReport, EngineError> {
        self.execute_with(&self.cluster.engine())
    }

    /// Executes the plan on the given engine, **under its own prediction
    /// as the reducer budget**: every round runs with
    /// `max_reducer_inputs = predicted_q`, so a plan whose prediction
    /// undershot reality aborts loudly instead of reporting a happy
    /// number. Predictions are exact by construction, so this is a
    /// self-check that every execution re-proves; an
    /// [`EngineError::ReducerOverflow`] here means the planner itself is
    /// wrong, and it is *reported*, not panicked, so callers (the CLI,
    /// the experiments) surface it like any other refusal.
    ///
    /// The prediction also feeds the engine's performance side:
    /// `predicted_pairs` becomes the round's
    /// [`pairs_hint`](EngineConfig::pairs_hint), pre-sizing the columnar
    /// emission buffers exactly. (For multi-round trees the hint is the
    /// *total* communication — each round over-reserves a little, which
    /// is harmless for a capacity hint.)
    ///
    /// # Panics
    /// Panics if the plan's family/point no longer exists in the
    /// registry.
    pub fn execute_with(&self, engine: &EngineConfig) -> Result<PlanReport, EngineError> {
        let _span = mr_obs::span("plan.execute");
        let budgeted = engine
            .clone()
            .with_max_reducer_inputs(self.predicted_q)
            .with_pairs_hint(self.predicted_pairs);
        match self.choice {
            Choice::Registry { scale, point } => {
                let fam = family_by_name(self.family, scale)
                    .unwrap_or_else(|| panic!("family {} not in the registry", self.family));
                let fp = fam.run(point, &budgeted)?;
                Ok(PlanReport {
                    measured_q: fp.measured.q,
                    measured_r: fp.measured.r,
                    // One round pays the per-round latency charge once,
                    // mirroring the planner's pricing (0 by default).
                    measured_cost: self.cluster.cost(fp.measured.q as f64, fp.measured.r)
                        + self.cluster.round_latency,
                    outputs: fp.measured.outputs,
                    partition_skew: fp.partition_skew,
                    shuffle_bytes: fp.shuffle_bytes,
                    wall: fp.wall,
                    plan: self.clone(),
                })
            }
            Choice::MatMulTree { n, s, t, fanin } => {
                // The same instance the registry's matmul family builds
                // (seeds included), so one- and multi-round plans are
                // directly comparable.
                let a = Matrix::random(n as usize, 3);
                let b = Matrix::random(n as usize, 4);
                let start = Instant::now();
                let (_, metrics) = RecursiveMatMul::new(n, s, t, fanin).run(&a, &b, &budgeted)?;
                let wall = start.elapsed();
                // Phase 1 reads the instance; the last round emits the
                // product cells.
                let num_inputs = metrics.rounds[0].inputs as f64;
                let measured_q = metrics.max_reducer_load();
                let measured_r = metrics.total_communication() as f64 / num_inputs;
                // Per-round pricing plus the latency charge per round —
                // the chain's depth equals its round count.
                let measured_cost = metrics
                    .rounds
                    .iter()
                    .map(|m| {
                        self.cluster
                            .cost(m.load.max as f64, m.kv_pairs as f64 / num_inputs)
                    })
                    .sum::<f64>()
                    + self.cluster.round_latency * metrics.rounds.len() as f64;
                Ok(PlanReport {
                    measured_q,
                    measured_r,
                    measured_cost,
                    outputs: metrics.rounds.last().map_or(0, |m| m.outputs),
                    partition_skew: metrics
                        .rounds
                        .iter()
                        .map(|m| m.shuffle.partition_skew())
                        .fold(0.0, f64::max),
                    shuffle_bytes: metrics
                        .rounds
                        .iter()
                        .map(|m| m.shuffle.bytes_moved.unwrap_or(0))
                        .sum(),
                    wall,
                    plan: self.clone(),
                })
            }
        }
    }
}

impl PlanReport {
    /// Absolute relative error of the replication prediction
    /// (`|predicted − measured| / measured`); 0 for an exact planner.
    pub fn r_error(&self) -> f64 {
        (self.plan.predicted_r - self.measured_r).abs() / self.measured_r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::plan_family;

    #[test]
    fn registry_plan_roundtrips_exactly() {
        let cluster = ClusterSpec::default();
        let plan = plan_family("triangles", &cluster, Scale::Small).unwrap();
        assert!(matches!(plan.choice, Choice::Registry { .. }));
        let report = plan.execute().unwrap();
        assert_eq!(report.measured_q, plan.predicted_q);
        assert!((report.measured_r - plan.predicted_r).abs() < 1e-12);
        assert!((report.measured_cost - plan.predicted_cost).abs() < 1e-9);
        assert_eq!(report.r_error(), 0.0);
        assert!(report.outputs > 0);
    }

    #[test]
    fn two_phase_plan_roundtrips_exactly() {
        // Small-scale matmul n = 4: a budget below n² = 16 forces a
        // multi-round tree; its closed-form predictions must match the
        // multi-round execution to the pair.
        let cluster = ClusterSpec::default().with_q_budget(8);
        let plan = plan_family("matmul", &cluster, Scale::Small).unwrap();
        assert!(matches!(plan.choice, Choice::MatMulTree { .. }));
        let report = plan.execute().unwrap();
        assert_eq!(report.measured_q, plan.predicted_q);
        assert!(
            (report.measured_r - plan.predicted_r).abs() < 1e-12,
            "predicted r={}, measured {}",
            plan.predicted_r,
            report.measured_r
        );
        assert!(
            (report.measured_cost - plan.predicted_cost).abs() < 1e-9,
            "predicted cost={}, measured {}",
            plan.predicted_cost,
            report.measured_cost
        );
        assert_eq!(report.outputs, 16); // n² product cells
    }

    #[test]
    fn a_wrong_prediction_surfaces_as_reducer_overflow() {
        // Corrupting a plan's budget must come back as an engine error,
        // not a panic: planner bugs are reported like any other refusal —
        // on both lowerings, the multi-round tree and the registry point.
        let tree = plan_family(
            "matmul",
            &ClusterSpec::default().with_q_budget(8),
            Scale::Small,
        )
        .unwrap();
        assert!(matches!(tree.choice, Choice::MatMulTree { .. }));
        let grid = plan_family("two-path", &ClusterSpec::default(), Scale::Small).unwrap();
        assert!(matches!(grid.choice, Choice::Registry { .. }));
        for mut plan in [tree, grid] {
            plan.predicted_q = 3;
            let err = plan.execute().unwrap_err();
            assert!(
                matches!(err, EngineError::ReducerOverflow { limit: 3, .. }),
                "{}: wrong error: {err:?}",
                plan.family
            );
        }
    }

    #[test]
    fn execution_is_engine_worker_independent() {
        let cluster = ClusterSpec::default();
        let plan = plan_family("two-path", &cluster, Scale::Small).unwrap();
        let seq = plan.execute_with(&EngineConfig::sequential()).unwrap();
        let par = plan.execute_with(&EngineConfig::parallel(8)).unwrap();
        assert_eq!(seq.measured_q, par.measured_q);
        assert_eq!(seq.measured_r, par.measured_r);
        assert_eq!(seq.outputs, par.outputs);
    }
}
