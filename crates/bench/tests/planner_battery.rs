//! Planner-vs-sweep parity battery: the `mr-plan` decision layer against
//! the `mr-bench::sweep` ground truth.
//!
//! The planner never executes a candidate — it prices grid points with
//! map-side censuses and closed forms. The sweep executes *everything*.
//! Parity between the two is therefore the planner's whole correctness
//! story: for every registry family at Small scale, the planner's chosen
//! point's **measured** cost must be within 5% of the cheapest measured
//! sweep-grid point under the same `ClusterSpec` (census exactness actually
//! makes them equal — the 5% tolerance is the acceptance contract, not
//! slack the implementation uses). The §6 matmul crossover gets its own
//! exact boundary check.

use mr_bench::sweep::{sweep_families, SweepConfig};
use mr_core::family::{registry_at, Scale};
use mr_plan::{plan_family, Choice, ClusterSpec};
use mr_sim::EngineConfig;

fn sweep_small() -> mr_bench::SweepReport {
    sweep_families(
        &registry_at(Scale::Small),
        &SweepConfig {
            sweep_workers: 2,
            ..SweepConfig::default()
        },
    )
}

/// Cluster profiles spanning the §1.2 regimes: the planner must match
/// the empirical optimum in all of them, not just at one price point.
fn profiles() -> Vec<(&'static str, ClusterSpec)> {
    vec![
        ("balanced", ClusterSpec::default()),
        ("comm-heavy", ClusterSpec::comm_heavy()),
        ("compute-heavy", ClusterSpec::compute_heavy()),
        (
            "latency-aware",
            ClusterSpec::new(4, 1.0, 0.1).with_latency_weight(0.01),
        ),
    ]
}

#[test]
fn planner_pick_is_within_5_percent_of_empirical_cheapest() {
    let report = sweep_small();
    for (profile, cluster) in profiles() {
        for fam in &report.families {
            let empirical_cheapest = fam
                .points
                .iter()
                .map(|p| cluster.cost(p.q as f64, p.r))
                .fold(f64::INFINITY, f64::min);
            let plan = plan_family(fam.family, &cluster, Scale::Small)
                .unwrap_or_else(|e| panic!("{}/{profile}: {e}", fam.family));
            let executed = plan
                .execute_with(&EngineConfig::sequential())
                .unwrap_or_else(|e| panic!("{}/{profile}: {e}", fam.family));
            assert!(
                executed.measured_cost <= 1.05 * empirical_cheapest + 1e-9,
                "{}/{profile}: planner picked {} at measured cost {}, but the sweep's \
                 cheapest point costs {}",
                fam.family,
                plan.schema,
                executed.measured_cost,
                empirical_cheapest
            );
        }
    }
}

#[test]
fn planner_predictions_equal_sweep_measurements_at_the_chosen_point() {
    // Stronger than the 5% contract: the chosen point must *be* a sweep
    // grid point, and the plan's predicted (q, r) must equal the sweep's
    // measurement of that exact point.
    let report = sweep_small();
    let cluster = ClusterSpec::default();
    for fam in &report.families {
        let plan = plan_family(fam.family, &cluster, Scale::Small).unwrap();
        let swept = fam
            .points
            .iter()
            .find(|p| p.algorithm == plan.schema)
            .unwrap_or_else(|| {
                panic!(
                    "{}: chose {} which the sweep never ran",
                    fam.family, plan.schema
                )
            });
        assert_eq!(plan.predicted_q, swept.q, "{}", fam.family);
        assert!(
            (plan.predicted_r - swept.r).abs() < 1e-12,
            "{}: predicted r={} vs swept {}",
            fam.family,
            plan.predicted_r,
            swept.r
        );
    }
}

#[test]
fn matmul_planner_switches_to_two_phase_exactly_below_n_squared() {
    // Small scale: n = 4, so n² = 16. The §6.3 communication curves tie
    // at q = n² and two-phase wins strictly below — the planner must flip
    // at exactly that boundary.
    let n_sq = 16u64;
    for budget in [n_sq - 1, n_sq - 4, 8, 4] {
        let plan = plan_family(
            "matmul",
            &ClusterSpec::default().with_q_budget(budget),
            Scale::Small,
        )
        .unwrap();
        assert!(
            matches!(plan.choice, Choice::Tree { .. }),
            "budget {budget} < n²: expected a multi-round tree, got {}",
            plan.schema
        );
        // The multi-round job must honour the budget and its predictions.
        let report = plan.execute_with(&EngineConfig::sequential()).unwrap();
        assert!(report.measured_q <= budget);
        assert_eq!(report.measured_q, plan.predicted_q);
        assert!((report.measured_r - plan.predicted_r).abs() < 1e-12);
    }
    for budget in [n_sq, n_sq + 1, 2 * n_sq, 10 * n_sq] {
        let plan = plan_family(
            "matmul",
            &ClusterSpec::default().with_q_budget(budget),
            Scale::Small,
        )
        .unwrap();
        assert!(
            matches!(plan.choice, Choice::Registry { .. }),
            "budget {budget} ≥ n²: expected one-phase, got {}",
            plan.schema
        );
    }
}

#[test]
fn comm_heavy_and_compute_heavy_bracket_the_frontier() {
    // End-to-end sanity on the §1.2 story at sweep level: the comm-heavy
    // plan lands on each family's largest-q admissible grid point, the
    // compute-heavy plan on its smallest, and both are real sweep points.
    // Matmul is the exception on the compute-heavy side: the
    // round-structure search finds a multi-round aggregation tree whose
    // per-round reducers are *smaller* than any one-phase grid point —
    // the right answer when `b·q` dominates — so we assert the tree
    // undercuts the grid instead of matching its smallest point.
    let report = sweep_small();
    for fam in &report.families {
        let max_q = fam.points.iter().map(|p| p.q).max().unwrap();
        let min_q = fam.points.iter().map(|p| p.q).min().unwrap();
        let big = plan_family(fam.family, &ClusterSpec::comm_heavy(), Scale::Small).unwrap();
        let small = plan_family(fam.family, &ClusterSpec::compute_heavy(), Scale::Small).unwrap();
        assert_eq!(big.predicted_q, max_q, "{}: comm-heavy", fam.family);
        if fam.family == "matmul" {
            assert!(
                matches!(small.choice, Choice::Tree { .. }),
                "matmul: compute-heavy should go multi-round, got {}",
                small.schema
            );
            assert!(
                small.predicted_q < min_q,
                "matmul: tree q={} should undercut the smallest grid q={min_q}",
                small.predicted_q
            );
        } else {
            assert_eq!(small.predicted_q, min_q, "{}: compute-heavy", fam.family);
        }
    }
}
