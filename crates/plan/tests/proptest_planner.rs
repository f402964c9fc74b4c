//! Property tests for the planner: the §6 crossover never misfires, and
//! every emitted plan survives execution under its own prediction.

use mr_core::family::Scale;
use mr_plan::{plan_family, plannable_families, Choice, ClusterSpec, PlanError};
use proptest::prelude::*;

/// Random cost weights spanning comm-dominated to compute-dominated
/// clusters (the planner must behave at both extremes and in between).
fn weights() -> impl Strategy<Value = (f64, f64, f64)> {
    (0.001f64..100.0, 0.001f64..100.0, 0.0f64..0.1)
}

/// Communication-leaning weights: compute and latency priced well below
/// communication (`b = a·f` with `f ≤ 0.05`, `c = a·g` with
/// `g ≤ 0.0002`). This is the regime where §6.3's communication
/// comparison is the whole story — under the per-round cost model,
/// sufficiently compute- or latency-heavy weights *legitimately* prefer
/// a multi-round tree even above `q = n²` (its per-round reducers are
/// smaller), so the paper's crossover boundary is a theorem about
/// comm-dominated clusters, and that is what we pin.
fn comm_leaning_weights() -> impl Strategy<Value = (f64, f64, f64)> {
    (0.001f64..100.0, 0.001f64..0.05, 0.0f64..0.0002).prop_map(|(a, f, g)| (a, a * f, a * g))
}

fn cluster(a: f64, b: f64, c: f64, capacity: Option<u64>) -> ClusterSpec {
    let mut spec = ClusterSpec::new(2, a, b).with_latency_weight(c);
    spec.reducer_capacity = capacity;
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Small-scale matmul has n = 4, n² = 16: under comm-leaning
    /// weights, a budget at or above n² (or no budget) must never
    /// produce a multi-round plan — §6.3's crossover condition is
    /// `q < n²` strictly, and the round-structure search must rediscover
    /// it for every such cluster.
    #[test]
    fn matmul_stays_one_phase_at_or_above_n_squared(
        w in comm_leaning_weights(),
        budget in 16u64..400,
        bounded in 0u32..2,
    ) {
        let (a, b, c) = w;
        let capacity = if bounded == 1 { Some(budget) } else { None };
        let plan = plan_family("matmul", &cluster(a, b, c, capacity), Scale::Small)
            .expect("budget ≥ n² always admits some one-phase point");
        prop_assert!(
            matches!(plan.choice, Choice::Registry { .. }),
            "budget {:?} picked {}", capacity, plan.schema
        );
    }

    /// Below n² the search must always land on a multi-round tree, for
    /// *any* weights: whenever the one-phase point q = 2n fits at all,
    /// the flat (s=2, t=1) tree prices at most equal (4a + 8b + 32c vs
    /// 4a + 8b + 64c) and the cost tie breaks toward the smaller
    /// per-round reducers.
    #[test]
    fn matmul_always_multi_round_below_n_squared(
        w in weights(),
        budget in 4u64..16,
    ) {
        let (a, b, c) = w;
        let plan = plan_family("matmul", &cluster(a, b, c, Some(budget)), Scale::Small)
            .expect("budgets ≥ 4 admit a flat tree shape at n = 4");
        prop_assert!(
            matches!(plan.choice, Choice::Tree { .. }),
            "budget {budget} picked {}", plan.schema
        );
        prop_assert!(plan.predicted_q <= budget);
    }

    /// Every plan any family emits, for any cost weights and any budget,
    /// executes without `ReducerOverflow` at its own predicted q — the
    /// execution path enforces `max_reducer_inputs = predicted_q`, so
    /// reaching a report at all proves the prediction was not undershot.
    /// (An infeasible budget must be a `NoFeasiblePoint` error, never a
    /// plan that would overflow.)
    #[test]
    fn every_plan_executes_within_its_own_prediction(
        w in weights(),
        family_idx in 0usize..6,
        budget in 1u64..200,
        bounded in 0u32..2,
    ) {
        let (a, b, c) = w;
        let family = plannable_families()[family_idx];
        let capacity = if bounded == 1 { Some(budget) } else { None };
        match plan_family(family, &cluster(a, b, c, capacity), Scale::Small) {
            Ok(plan) => {
                let report = plan.execute().expect("a plan overflowed its own prediction");
                prop_assert!(
                    report.measured_q <= plan.predicted_q,
                    "{family}: measured q={} over predicted {}",
                    report.measured_q, plan.predicted_q
                );
                prop_assert!(
                    (report.measured_r - plan.predicted_r).abs() < 1e-9,
                    "{family}: predicted r={}, measured {}",
                    plan.predicted_r, report.measured_r
                );
                if let Some(cap) = capacity {
                    prop_assert!(plan.predicted_q <= cap);
                }
            }
            Err(PlanError::NoFeasiblePoint { budget: reported, .. }) => {
                // Only reachable with a bound tighter than the whole grid.
                prop_assert_eq!(Some(reported), capacity);
            }
            Err(other) => prop_assert!(false, "{family}: unexpected {other}"),
        }
    }
}
