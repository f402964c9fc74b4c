//! Plans and their execution lowering.

use crate::cluster::ClusterSpec;
use crate::dag::{DagStructure, RoundDag};
use crate::planner::registry_family;
use mr_core::family::Scale;
use mr_sim::{EngineConfig, EngineError};
use std::time::Duration;

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
    /// A multi-round candidate of the round-structure search (matmul's
    /// aggregation trees, which the one-phase grid cannot express), as
    /// priced; lowered on the path a [`DagPlan`](crate::DagPlan) runs.
    Tree {
        /// The chosen round structure.
        structure: DagStructure,
        /// Its priced rounds; each one's `q` is that round's budget.
        rounds: RoundDag,
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
    /// their [`census`](mr_core::family::DynFamily::census), multi-round
    /// trees by their closed-form per-round loads — so execution runs
    /// under this very value as a hard budget.
    pub predicted_q: u64,
    /// Predicted replication rate (for multi-round choices: total
    /// communication over `|I|`).
    pub predicted_r: f64,
    /// Predicted shuffled key-value pairs (census pairs for grid points,
    /// total multi-round communication for trees). Exact, like the
    /// other predictions.
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
    /// as the reducer budget**: no round may load more than `predicted_q`,
    /// so a plan whose prediction undershot reality aborts loudly instead
    /// of reporting a happy number. Predictions are exact by construction,
    /// so this is a self-check that every execution re-proves; an
    /// [`EngineError::ReducerOverflow`] here means the planner itself is
    /// wrong, and it is *reported*, not panicked, so callers (the CLI,
    /// the experiments) surface it like any other refusal.
    ///
    /// A registry point runs its one round under `predicted_q`. A tree
    /// runs its priced `rounds` on the same budgeted
    /// [`DagJob`](mr_sim::DagJob) path as a [`DagPlan`](crate::DagPlan):
    /// every round under its own predicted `q`, capped at `predicted_q`.
    ///
    /// # Panics
    /// Panics if the plan's family/point no longer exists in the
    /// registry.
    pub fn execute_with(&self, engine: &EngineConfig) -> Result<PlanReport, EngineError> {
        let _span = mr_obs::span("plan.execute");
        match &self.choice {
            Choice::Registry { scale, point } => {
                let budgeted = engine.clone().with_max_reducer_inputs(self.predicted_q);
                let fp = registry_family(self.family, *scale).run(*point, &budgeted)?;
                Ok(PlanReport {
                    measured_q: fp.q,
                    measured_r: fp.r,
                    measured_cost: self.cluster.rounds_cost([(fp.q, fp.r)], 1),
                    outputs: fp.outputs,
                    partition_skew: fp.partition_skew,
                    shuffle_bytes: fp.shuffle_bytes,
                    wall: fp.wall,
                    plan: self.clone(),
                })
            }
            Choice::Tree { structure, rounds } => {
                let (outputs, metrics, wall) = structure.run(rounds, self.predicted_q, engine)?;
                let observed = rounds.observe(&metrics);
                Ok(PlanReport {
                    measured_q: metrics.max_reducer_load(),
                    // Total communication over |I|, not a sum of per-round
                    // rates (which differs in the last bits).
                    measured_r: rounds.per_input(metrics.total_communication()),
                    measured_cost: rounds.measured_cost(&self.cluster, &observed),
                    outputs,
                    partition_skew: observed
                        .iter()
                        .map(|r| r.partition_skew)
                        .fold(0.0, f64::max),
                    shuffle_bytes: observed.iter().map(|r| r.shuffle_bytes).sum(),
                    wall,
                    plan: self.clone(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{enumerate_dag_candidates, DagPlan, DagWorkload};
    use crate::planner::plan_family;

    #[test]
    fn registry_plan_roundtrips_exactly() {
        let cluster = ClusterSpec::default();
        let plan = plan_family("triangles", &cluster, Scale::Small).unwrap();
        assert!(matches!(plan.choice, Choice::Registry { .. }));
        let report = plan.execute().unwrap();
        assert_eq!(report.measured_q, plan.predicted_q);
        assert_eq!(report.measured_r, plan.predicted_r);
        assert!((report.measured_cost - plan.predicted_cost).abs() < 1e-9);
        assert!(report.outputs > 0);
    }

    #[test]
    fn two_phase_plan_roundtrips_exactly() {
        // Small-scale matmul n = 4: a budget below n² = 16 forces a
        // multi-round tree; its closed-form predictions must match the
        // multi-round execution to the pair.
        let cluster = ClusterSpec::default().with_q_budget(8);
        let plan = plan_family("matmul", &cluster, Scale::Small).unwrap();
        assert!(matches!(plan.choice, Choice::Tree { .. }));
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
        assert!(matches!(tree.choice, Choice::Tree { .. }));
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
    fn a_matmul_tree_measures_what_its_dag_plan_twin_measures() {
        // One lowering: a tree `Plan` runs the very budgeted `DagJob` its
        // `DagPlan` twin runs, so every measurement agrees to the bit —
        // under a cluster where every cost term and the per-round latency
        // are live.
        let cluster = ClusterSpec::new(4, 1.0, 0.1)
            .with_latency_weight(1.0)
            .with_round_latency(0.05);
        for scale in [Scale::Small, Scale::Full] {
            for cand in enumerate_dag_candidates(DagWorkload::MatMul, scale) {
                if !matches!(cand.structure, DagStructure::MatMulTree { .. }) {
                    continue;
                }
                let plan = Plan {
                    family: "matmul",
                    schema: cand.structure.name(),
                    choice: Choice::Tree {
                        structure: cand.structure,
                        rounds: cand.dag.clone(),
                    },
                    cluster: cluster.clone(),
                    predicted_q: cand.dag.max_q(),
                    predicted_r: cand.dag.replication(),
                    predicted_pairs: cand.dag.total_pairs(),
                    predicted_cost: cand.dag.cost(&cluster),
                    rationale: String::new(),
                };
                let twin = DagPlan {
                    workload: DagWorkload::MatMul,
                    structure: cand.structure,
                    schema: plan.schema.clone(),
                    dag: cand.dag.clone(),
                    cluster: cluster.clone(),
                    scale,
                    predicted_cost: plan.predicted_cost,
                    rationale: String::new(),
                };
                for workers in [1usize, 4] {
                    let engine = EngineConfig::parallel(workers);
                    let tree = plan.execute_with(&engine).unwrap();
                    let dag = twin.execute_with(&engine).unwrap();
                    let name = format!("{}/{scale:?}/w{workers}", plan.schema);
                    let dag_q = dag.rounds.iter().map(|r| r.measured_q).max();
                    assert_eq!(Some(tree.measured_q), dag_q, "{name}");
                    assert_eq!(tree.outputs, dag.outputs, "{name}");
                    let dag_bytes: u64 = dag.rounds.iter().map(|r| r.shuffle_bytes).sum();
                    assert_eq!(tree.shuffle_bytes, dag_bytes, "{name}");
                    assert_eq!(
                        tree.measured_cost.to_bits(),
                        dag.measured_cost.to_bits(),
                        "{name}"
                    );
                }
            }
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
