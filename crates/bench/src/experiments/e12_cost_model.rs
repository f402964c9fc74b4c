//! **§1.2 / Example 1.1** — using the tradeoff: build the measured
//! `r = f(q)` frontier for a problem, then minimise cluster cost
//! `a·r + b·q (+ c·q²)` for several price profiles, showing how the
//! optimal algorithm moves along the curve.

use crate::table::{fmt, Table};
use mr_core::frontier::{as_cost_points, hamming_frontier, matmul_frontier};
use mr_plan::ClusterSpec;

/// A §1.2 price profile: the three cost weights of a [`ClusterSpec`].
fn profile(comm_weight: f64, compute_weight: f64, latency_weight: f64) -> ClusterSpec {
    ClusterSpec {
        comm_weight,
        compute_weight,
        latency_weight,
        ..ClusterSpec::default()
    }
}

/// Renders the §1.2 experiment on two frontiers.
pub fn report() -> String {
    let mut out = String::from(
        "§1.2: picking the algorithm with a cluster cost model a·r + b·q (+ c·q²)\n\n",
    );

    for (name, frontier) in [
        ("Hamming-1 (b=12)", hamming_frontier(12)),
        ("MatMul one-phase (n=16)", matmul_frontier(16)),
    ] {
        let pts = as_cost_points(&frontier);
        let mut t = Table::new(&["cluster profile", "chosen q", "chosen r", "total cost"]);
        let profiles = [
            ("comm-heavy   (a=100, b=0.01)", profile(100.0, 0.01, 0.0)),
            ("balanced     (a=1,   b=1)", profile(1.0, 1.0, 0.0)),
            ("compute-heavy(a=0.01,b=10)", profile(0.01, 10.0, 0.0)),
            ("latency-aware(+c·q², c=0.01)", profile(1.0, 0.1, 0.01)),
        ];
        for (pname, cluster) in profiles {
            let (q, r, cost) = cluster.cheapest_point(&pts).expect("non-empty frontier");
            t.row(vec![pname.into(), fmt(q), fmt(r), fmt(cost)]);
        }
        out.push_str(&format!(
            "{name} frontier ({} Pareto points):\n",
            frontier.len()
        ));
        for p in &frontier {
            out.push_str(&format!(
                "  q={:<8} r={:<8} {}\n",
                p.q,
                fmt(p.r),
                p.algorithm
            ));
        }
        out.push('\n');
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str(
        "Expensive communication pushes the optimum toward big reducers (r→1);\n\
         expensive compute or a wall-clock q² term pushes it toward small ones —\n\
         Example 1.1's conclusion, computed from measured frontiers.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimum_moves_monotonically_with_comm_price() {
        let pts = as_cost_points(&hamming_frontier(12));
        let mut last_q = 0.0;
        for a in [0.01, 1.0, 100.0, 10_000.0] {
            let (q, _, _) = profile(a, 1.0, 0.0).cheapest_point(&pts).unwrap();
            assert!(q >= last_q, "q must grow with comm price: {q} < {last_q}");
            last_q = q;
        }
    }

    #[test]
    fn report_covers_both_frontiers() {
        let r = report();
        assert!(r.contains("Hamming-1"));
        assert!(r.contains("MatMul"));
        assert!(
            r.contains("weight-2d"),
            "weight points should be on the frontier"
        );
    }
}
