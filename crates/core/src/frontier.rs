//! Measured tradeoff frontiers: the `r = f(q)` curves of §1.2.
//!
//! §1.2 assumes "we have determined that the best algorithms for a problem
//! have replication rate r and reducer size q, where r = f(q)". This
//! module *constructs* two such curves, Hamming distance 1 and one-phase
//! matmul, by validating each algorithm at a sweep of parameters; `mr-plan`'s
//! `ClusterSpec::cheapest_point` minimises §1.2's cost over the achieved
//! `(q, r)` points. The same schemas executed by an engine round on instance
//! data are [`FamilyPoint`](crate::family::FamilyPoint)s, and
//! [`bound_gap`] measures either kind against the §2.4 recipe.

use crate::model::validate_schema;
use crate::problems::hamming::{DistanceDSplittingSchema, HammingProblem, WeightSchemaD};
use crate::problems::matmul::{MatMulProblem, OnePhaseSchema};

/// One achieved point on a tradeoff frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// Human-readable algorithm identifier.
    pub algorithm: String,
    /// Achieved maximum reducer load.
    pub q: u64,
    /// Achieved replication rate (exact, from exhaustive validation).
    pub r: f64,
}

/// The gap ratio `measured r / analytic lower bound` — 1.0 when the
/// algorithm sits exactly on the bound, larger when it over-replicates.
///
/// Every valid schema satisfies `gap ≥ 1` (up to floating-point noise) on
/// the complete instance; the sweep asserts exactly that.
///
/// # Panics
/// Panics if `bound` is not positive (a clamped §2.4 bound is always
/// ≥ 1).
pub fn bound_gap(r: f64, bound: f64) -> f64 {
    assert!(bound > 0.0, "lower bound must be positive, got {bound}");
    r / bound
}

/// Sorts points by `q` ascending and drops dominated points (those with
/// both larger `q` and larger-or-equal `r` than another point).
pub fn pareto(mut points: Vec<FrontierPoint>) -> Vec<FrontierPoint> {
    points.sort_by(|a, b| a.q.cmp(&b.q).then(a.r.partial_cmp(&b.r).expect("no NaN")));
    let mut kept: Vec<FrontierPoint> = Vec::new();
    let mut best_r = f64::INFINITY;
    for p in points {
        if p.r < best_r - 1e-12 {
            best_r = p.r;
            kept.push(p);
        }
    }
    kept
}

/// The Hamming-distance-1 frontier for `b`-bit strings: all Splitting
/// divisors plus the §3.4 weight-partition points.
///
/// Exhaustive validation caps `b` at 16 in practice; panics above 20.
pub fn hamming_frontier(b: u32) -> Vec<FrontierPoint> {
    assert!(b <= 20, "frontier validation is exhaustive; keep b <= 20");
    let problem = HammingProblem::distance_one(b);
    let mut points = Vec::new();
    for c in (1..=b).filter(|c| b.is_multiple_of(*c)) {
        let s = DistanceDSplittingSchema::new(b, c, 1);
        let rep = validate_schema(&problem, &s);
        debug_assert!(rep.is_valid());
        points.push(FrontierPoint {
            algorithm: format!("splitting(c={c})"),
            q: rep.max_load,
            r: rep.replication_rate,
        });
    }
    if b.is_multiple_of(2) {
        let half = b / 2;
        for k in (1..=half).filter(|k| half.is_multiple_of(*k) && half / k >= 2) {
            let s = WeightSchemaD::new(b, 2, k);
            let rep = validate_schema(&problem, &s);
            debug_assert!(rep.is_valid());
            points.push(FrontierPoint {
                algorithm: format!("weight-2d(k={k})"),
                q: rep.max_load,
                r: rep.replication_rate,
            });
        }
    }
    pareto(points)
}

/// The matrix-multiplication frontier for `n×n` one-phase tiling across
/// divisor group sizes.
pub fn matmul_frontier(n: u32) -> Vec<FrontierPoint> {
    let problem = MatMulProblem::new(n);
    let points = (1..=n)
        .filter(|s| n.is_multiple_of(*s))
        .map(|s| {
            let schema = OnePhaseSchema::new(n, s);
            let rep = validate_schema(&problem, &schema);
            debug_assert!(rep.is_valid());
            FrontierPoint {
                algorithm: format!("one-phase(s={s})"),
                q: rep.max_load,
                r: rep.replication_rate,
            }
        })
        .collect();
    pareto(points)
}

/// Converts a frontier to the `(q, r)` pairs the cost model consumes.
pub fn as_cost_points(frontier: &[FrontierPoint]) -> Vec<(f64, f64)> {
    frontier.iter().map(|p| (p.q as f64, p.r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pareto_drops_dominated_points() {
        let pts = vec![
            FrontierPoint {
                algorithm: "a".into(),
                q: 10,
                r: 5.0,
            },
            FrontierPoint {
                algorithm: "b".into(),
                q: 20,
                r: 6.0,
            }, // dominated
            FrontierPoint {
                algorithm: "c".into(),
                q: 30,
                r: 2.0,
            },
        ];
        let kept = pareto(pts);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].algorithm, "a");
        assert_eq!(kept[1].algorithm, "c");
    }

    #[test]
    fn frontiers_are_monotone() {
        // On a Pareto frontier r strictly decreases as q grows.
        for frontier in [hamming_frontier(12), matmul_frontier(12)] {
            assert!(frontier.len() >= 2, "{frontier:?}");
            for w in frontier.windows(2) {
                assert!(w[1].q > w[0].q, "{frontier:?}");
                assert!(w[1].r < w[0].r, "{frontier:?}");
            }
        }
    }

    #[test]
    fn hamming_frontier_contains_weight_points() {
        // The §3.4 algorithm contributes non-dominated points between
        // log2 q = b/2 and b.
        let f = hamming_frontier(12);
        assert!(
            f.iter().any(|p| p.algorithm.starts_with("weight-2d")),
            "{f:?}"
        );
    }

    #[test]
    fn bound_gap_ratios() {
        assert!((bound_gap(2.0, 1.0) - 2.0).abs() < 1e-12);
        assert!((bound_gap(3.0, 3.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn bound_gap_rejects_nonpositive_bound() {
        bound_gap(1.0, 0.0);
    }
}
