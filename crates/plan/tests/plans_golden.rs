//! Golden table of every plan the workspace's standing scenarios make.
//!
//! Six families and three DAG workloads, under the default cluster and
//! the four `plan_and_sweep` profiles, at `Small` and `Full` scale — once
//! through the free [`plan_family`]/[`plan_dag`] functions, once through
//! one shared [`PlanCache`], and once by pricing each family and workload
//! per scale ([`price_family`], [`enumerate_dag_candidates`]) and
//! choosing per profile; all three must agree line for line. The
//! table pins what a plan *says* (`schema`, the per-round description,
//! `predicted_cost`, `rationale`), so a change to how candidates are
//! priced or chosen that moves any plan shows up as a diff here. It is a
//! checked-in artifact: a diff is a behaviour change to be explained, not
//! a file to regenerate.

use mr_core::family::Scale;
use mr_plan::{
    enumerate_dag_candidates, plan_dag, plan_family, plannable_families, price_family, ClusterSpec,
    DagPlan, DagWorkload, Plan, PlanCache, PlanError,
};
use std::fmt::Write;

fn profiles() -> Vec<(&'static str, ClusterSpec)> {
    vec![
        ("default", ClusterSpec::default()),
        ("comm_heavy", ClusterSpec::comm_heavy()),
        ("compute_heavy", ClusterSpec::compute_heavy()),
        ("q_budget=48", ClusterSpec::default().with_q_budget(48)),
        (
            "round_latency=50",
            ClusterSpec::default().with_round_latency(50.0),
        ),
    ]
}

fn render(
    family: impl Fn(&str, &ClusterSpec, Scale) -> Result<Plan, PlanError>,
    dag: impl Fn(DagWorkload, &ClusterSpec, Scale) -> Result<DagPlan, PlanError>,
) -> String {
    let mut table = String::new();
    for scale in [Scale::Small, Scale::Full] {
        for (profile, cluster) in profiles() {
            writeln!(table, "{scale:?} | {profile} | {}", cluster.describe()).unwrap();
            for name in plannable_families() {
                match family(name, &cluster, scale) {
                    Ok(p) => writeln!(
                        table,
                        "  family {name} | {} | q={} r={:?} pairs={} | cost {:?} | {}",
                        p.schema,
                        p.predicted_q,
                        p.predicted_r,
                        p.predicted_pairs,
                        p.predicted_cost,
                        p.rationale
                    ),
                    Err(e) => writeln!(table, "  family {name} | error: {e}"),
                }
                .unwrap();
            }
            for workload in DagWorkload::ALL {
                match dag(workload, &cluster, scale) {
                    Ok(p) => writeln!(
                        table,
                        "  dag {} | {} | {} | cost {:?} | {}",
                        workload.name(),
                        p.schema,
                        p.dag.describe(),
                        p.predicted_cost,
                        p.rationale
                    ),
                    Err(e) => writeln!(table, "  dag {} | error: {e}", workload.name()),
                }
                .unwrap();
            }
        }
    }
    table
}

fn assert_matches_golden(rendered: &str, through: &str) {
    let golden = include_str!("plans.golden");
    for (line, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "{through}: golden table line {} differs",
            line + 1
        );
    }
    assert_eq!(
        rendered.lines().count(),
        golden.lines().count(),
        "{through}: golden table length differs; rendered table:\n{rendered}"
    );
}

#[test]
fn matmul_plans_alike_as_a_family_and_as_a_dag_workload() {
    // Both entry points pick from the same priced structures with the
    // same pick, so they must agree on the winner and its exact cost.
    for scale in [Scale::Small, Scale::Full] {
        for (profile, cluster) in profiles() {
            let family = plan_family("matmul", &cluster, scale).unwrap();
            let dag = plan_dag(DagWorkload::MatMul, &cluster, scale).unwrap();
            assert_eq!(family.schema, dag.schema, "{scale:?} | {profile}");
            assert_eq!(
                family.predicted_cost.to_bits(),
                dag.predicted_cost.to_bits(),
                "{scale:?} | {profile}: {} vs {}",
                family.predicted_cost,
                dag.predicted_cost
            );
        }
    }
}

#[test]
fn every_standing_plan_matches_the_golden_table() {
    assert_matches_golden(&render(plan_family, plan_dag), "free functions");
    let cache = PlanCache::new();
    assert_matches_golden(
        &render(
            |f, c, s| cache.plan_family(f, c, s),
            |w, c, s| cache.plan_dag(w, c, s),
        ),
        "shared PlanCache",
    );
    // 2 scales × 5 profiles × (6 + 3) keys, every one planned exactly once.
    assert_eq!(cache.stats().hits, 0);
    assert_eq!(cache.stats().misses, 90);

    // Price each family and workload once per scale, choose per profile.
    let scales = [Scale::Small, Scale::Full];
    let families: Vec<_> = scales
        .into_iter()
        .flat_map(|scale| {
            plannable_families()
                .into_iter()
                .map(move |name| ((name, scale), price_family(name, scale)))
        })
        .collect();
    let dags: Vec<_> = scales
        .into_iter()
        .flat_map(|scale| {
            DagWorkload::ALL.map(|w| ((w, scale), enumerate_dag_candidates(w, scale)))
        })
        .collect();
    assert_matches_golden(
        &render(
            |f, c, s| {
                let (_, priced) = families.iter().find(|(key, _)| *key == (f, s)).unwrap();
                priced.as_ref().map_err(Clone::clone)?.choose(c)
            },
            |w, c, s| {
                let (_, priced) = dags.iter().find(|(key, _)| *key == (w, s)).unwrap();
                DagPlan::choose(w, priced, c, s)
            },
        ),
        "priced once, chosen per profile",
    );
}
