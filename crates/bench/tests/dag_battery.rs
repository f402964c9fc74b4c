//! Round-structure parity battery: the `mr-plan::dag` search against
//! the empirically-cheapest DAG found by *executing every candidate*.
//!
//! The search never executes a structure to price it — matmul candidates
//! are priced by closed forms, Hamming and join candidates by
//! `DagJob::census`, a fold over each round's map-side assignment in
//! which only the reducers a later round reads from ever run.
//! This battery closes the loop: for every workload with a multi-round
//! variant, it exhaustively executes every admissible round structure up
//! to depth 3 at Small scale, prices each from its *measured* per-round
//! `(q, r)`, and asserts the planner's pick lands within 5% of the
//! cheapest (per-round exactness makes them equal — the 5% is the
//! acceptance contract, not slack the implementation uses). Four cost
//! profiles spanning §1.2's regimes, including a round-latency profile
//! where a three-phase recursive tree must beat the flat two-phase
//! method. The retired hand-built two-phase planner arm survives as a
//! regression oracle: at every budget below n² the search must emit a
//! flat tree whose per-round numbers match §6.3's closed forms digit for
//! digit.

use mr_core::family::Scale;
use mr_plan::{
    enumerate_dag_candidates, plan_dag, ClusterSpec, DagCandidate, DagPlan, DagStructure,
    DagWorkload,
};
use mr_sim::EngineConfig;

/// Cluster profiles spanning the §1.2 regimes. The latency-round
/// profile is the one where depth has a real price (ℓ = 0.05 per
/// critical-path level) *and* big reducers hurt quadratically — the
/// regime where deeper trees with smaller rounds genuinely win.
fn profiles() -> Vec<(&'static str, ClusterSpec)> {
    vec![
        ("balanced", ClusterSpec::default()),
        ("comm-heavy", ClusterSpec::comm_heavy()),
        ("compute-heavy", ClusterSpec::compute_heavy()),
        (
            "latency-round",
            ClusterSpec::new(4, 1.0, 0.1)
                .with_latency_weight(1.0)
                .with_round_latency(0.05),
        ),
    ]
}

/// Wraps a priced candidate as an executable plan (the battery's "run
/// everything" side deliberately bypasses the search).
fn executable(
    workload: DagWorkload,
    candidate: &DagCandidate,
    cluster: &ClusterSpec,
    scale: Scale,
) -> DagPlan {
    DagPlan {
        workload,
        structure: candidate.structure,
        schema: candidate.structure.name(),
        dag: candidate.dag.clone(),
        cluster: cluster.clone(),
        scale,
        predicted_cost: candidate.dag.cost(cluster),
        rationale: String::new(),
    }
}

#[test]
fn every_priced_candidate_equals_its_sequential_reference_execution() {
    // The pricing oracle. Every candidate the search enumerates — not
    // just the ones it picks — is executed sequentially, and each round's
    // measured (load.max, kv_pairs) must be the priced round's (q, pairs):
    // `DagJob::census` against a real run for Hamming and join, and
    // `RecursiveMatMul::round_specs`' closed forms against one for
    // matmul. Execution runs under the priced q as a hard budget, so an
    // under-priced round aborts and an over-priced one shows up below.
    // Full scale is the planner's production size.
    let cluster = ClusterSpec::default();
    for scale in [Scale::Small, Scale::Full] {
        for workload in DagWorkload::ALL {
            for cand in enumerate_dag_candidates(workload, scale) {
                let name = format!("{}/{scale:?}/{}", workload.name(), cand.structure.name());
                let report = executable(workload, &cand, &cluster, scale)
                    .execute_with(&EngineConfig::sequential())
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(report.rounds.len(), cand.dag.rounds.len(), "{name}");
                for obs in &report.rounds {
                    // `r` is `pairs / |I|` on both sides, so equal rates
                    // are equal pair counts.
                    assert_eq!(
                        (obs.measured_q, obs.measured_r),
                        (obs.predicted_q, obs.predicted_r),
                        "{name}: round {}",
                        obs.name
                    );
                }
            }
        }
    }
}

#[test]
fn planner_pick_is_within_5_percent_of_the_empirically_cheapest_dag() {
    for (profile, cluster) in profiles() {
        for workload in DagWorkload::ALL {
            // Execute EVERY admissible candidate up to depth 3 and price
            // it from its measured per-round (q, r).
            let mut cheapest = f64::INFINITY;
            let mut cheapest_name = String::new();
            let mut executed_any = false;
            for cand in enumerate_dag_candidates(workload, Scale::Small) {
                if !cand.dag.admitted_by(&cluster) || cand.dag.depth() > 3 {
                    continue;
                }
                let plan = executable(workload, &cand, &cluster, Scale::Small);
                let report = plan
                    .execute_with(&EngineConfig::sequential())
                    .unwrap_or_else(|e| panic!("{}/{profile}: {e}", cand.structure.name()));
                executed_any = true;
                if report.measured_cost < cheapest {
                    cheapest = report.measured_cost;
                    cheapest_name = cand.structure.name();
                }
            }
            assert!(
                executed_any,
                "{}/{profile}: no admissible candidate",
                workload.name()
            );

            let plan = plan_dag(workload, &cluster, Scale::Small)
                .unwrap_or_else(|e| panic!("{}/{profile}: {e}", workload.name()));
            let report = plan.execute_with(&EngineConfig::sequential()).unwrap();
            assert!(
                report.measured_cost <= 1.05 * cheapest + 1e-9,
                "{}/{profile}: search picked {} at measured cost {}, but executing every \
                 structure found {cheapest_name} at {cheapest}",
                workload.name(),
                plan.schema,
                report.measured_cost,
            );
        }
    }
}

#[test]
fn per_round_predictions_are_census_exact_at_every_node() {
    for (profile, cluster) in profiles() {
        for workload in DagWorkload::ALL {
            let plan = plan_dag(workload, &cluster, Scale::Small).unwrap();
            let report = plan.execute_with(&EngineConfig::sequential()).unwrap();
            assert_eq!(report.rounds.len(), plan.dag.rounds.len());
            for obs in &report.rounds {
                assert_eq!(
                    obs.measured_q,
                    obs.predicted_q,
                    "{}/{profile}/{}: q",
                    workload.name(),
                    obs.name
                );
                assert!(
                    (obs.measured_r - obs.predicted_r).abs() < 1e-12,
                    "{}/{profile}/{}: predicted r={}, measured {}",
                    workload.name(),
                    obs.name,
                    obs.predicted_r,
                    obs.measured_r
                );
            }
            assert!(
                (report.measured_cost - plan.predicted_cost).abs() < 1e-9,
                "{}/{profile}: predicted cost {}, measured {}",
                workload.name(),
                plan.predicted_cost,
                report.measured_cost
            );
        }
    }
}

#[test]
fn crossover_boundary_matches_the_retired_two_phase_closed_forms() {
    // Small scale: n = 4, n² = 16. Below the boundary the search must
    // emit exactly the flat §6.3 two-phase method, and its numbers must
    // be §6.3's two-phase closed forms, which a former planner arm priced
    // directly, digit for digit: q = max(2st, n/t), comm = 2n³/s + n³/t
    // over the two rounds, r = comm / (2n²).
    let n = 4u64;
    for budget in [15u64, 12, 8, 4] {
        let cluster = ClusterSpec::default().with_q_budget(budget);
        let plan = plan_dag(DagWorkload::MatMul, &cluster, Scale::Small).unwrap();
        let DagStructure::MatMulTree { s, t, fanin, .. } = plan.structure else {
            panic!("budget {budget} < n²: expected a tree, got {}", plan.schema);
        };
        assert_eq!(
            fanin,
            4 / t,
            "budget {budget}: the winner below n² is the flat two-phase method"
        );
        assert!(
            plan.schema.starts_with("two-phase(n=4"),
            "budget {budget}: schema {}",
            plan.schema
        );
        let (s, t) = (s as u64, t as u64);
        let comm = 2 * n.pow(3) / s + n.pow(3) / t;
        assert_eq!(plan.dag.max_q(), (2 * s * t).max(n / t), "budget {budget}");
        assert_eq!(plan.dag.total_pairs(), comm, "budget {budget}");
        assert!(
            (plan.dag.replication() - comm as f64 / (2.0 * (n * n) as f64)).abs() < 1e-12,
            "budget {budget}"
        );
        // And the execution reproduces those numbers to the pair.
        let report = plan.execute().unwrap();
        assert_eq!(report.rounds.len(), 2, "budget {budget}");
        assert!(report.rounds.iter().all(|r| r.measured_q == r.predicted_q));
    }
    // At and above n² the one-phase tiling wins (boundary inclusive).
    for budget in [16u64, 17, 32, 1000] {
        let cluster = ClusterSpec::default().with_q_budget(budget);
        let plan = plan_dag(DagWorkload::MatMul, &cluster, Scale::Small).unwrap();
        assert!(
            matches!(plan.structure, DagStructure::MatMulOnePhase { .. }),
            "budget {budget} ≥ n²: expected one-phase, got {}",
            plan.schema
        );
    }
}

#[test]
fn a_three_phase_tree_beats_two_phase_under_the_latency_profile() {
    // The acceptance case: with rounds priced at ℓ = 0.05 and reducer
    // loads priced quadratically, the depth-3 recursive tree (s = t = 1,
    // fanin = 2) undercuts every flat two-phase shape — added rounds buy
    // smaller reducers, and here that trade pays.
    let cluster = ClusterSpec::new(4, 1.0, 0.1)
        .with_latency_weight(1.0)
        .with_round_latency(0.05);
    let plan = plan_dag(DagWorkload::MatMul, &cluster, Scale::Small).unwrap();
    assert_eq!(
        plan.structure,
        DagStructure::MatMulTree {
            n: 4,
            s: 1,
            t: 1,
            fanin: 2
        },
        "got {}",
        plan.schema
    );
    assert_eq!(plan.dag.rounds.len(), 3);
    assert_eq!(plan.dag.depth(), 3);
    let flat_cheapest = enumerate_dag_candidates(DagWorkload::MatMul, Scale::Small)
        .into_iter()
        .filter(|c| {
            matches!(c.structure, DagStructure::MatMulTree { n, t, fanin, .. }
                if fanin >= n / t)
        })
        .map(|c| c.dag.cost(&cluster))
        .fold(f64::INFINITY, f64::min);
    assert!(
        plan.predicted_cost < flat_cheapest,
        "three-phase {} is not under the cheapest flat two-phase {flat_cheapest}",
        plan.predicted_cost
    );
    // The deep tree's execution still matches per round.
    let report = plan.execute().unwrap();
    assert!(report.rounds.iter().all(|r| r.measured_q == r.predicted_q));
    assert!((report.measured_cost - plan.predicted_cost).abs() < 1e-9);
}

#[test]
fn chosen_dags_are_worker_count_independent() {
    // Byte-identity of the underlying DagJob streams is proved at the
    // sim layer (differential fuzz); here the planned executions must
    // report identical (q, r, outputs) for every engine width.
    for workload in DagWorkload::ALL {
        let cluster = ClusterSpec::default().with_q_budget(8);
        let plan = match plan_dag(workload, &cluster, Scale::Small) {
            Ok(p) => p,
            Err(_) => plan_dag(workload, &ClusterSpec::default(), Scale::Small).unwrap(),
        };
        let seq = plan.execute_with(&EngineConfig::sequential()).unwrap();
        for workers in [1usize, 4, 16] {
            let par = plan.execute_with(&EngineConfig::parallel(workers)).unwrap();
            assert_eq!(seq.outputs, par.outputs, "{}/w{workers}", workload.name());
            assert_eq!(
                seq.measured_cost,
                par.measured_cost,
                "{}/w{workers}",
                workload.name()
            );
            for (a, b) in seq.rounds.iter().zip(&par.rounds) {
                assert_eq!(a.measured_q, b.measured_q, "{}/w{workers}", workload.name());
                assert_eq!(a.measured_r, b.measured_r, "{}/w{workers}", workload.name());
            }
        }
    }
}
