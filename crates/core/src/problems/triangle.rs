//! Triangle finding (§4, Example 2.2).
//!
//! Inputs are the `(n 2)` possible edges of an `n`-node graph; outputs are
//! the `(n 3)` node triples, each depending on its three edges. §4.1 shows
//! `g(q) = (√2/3)·q^{3/2}` (a reducer's edges are densest as a clique on
//! `√(2q)` nodes) giving the lower bound `r ≥ n/√(2q)`; §4.2 rescales the
//! budget for sparse data graphs of `m` random edges to
//! `r = Ω(√(m/q))`.
//!
//! The matching algorithm (after Suri–Vassilvitskii \[21\] and Afrati–
//! Fotakis–Ullman \[2\]) partitions nodes into `k` groups and creates one
//! reducer per unordered group triple (with repetition); an edge is sent
//! to every triple containing both endpoint groups. Replication is
//! ~`k` against a lower bound of `k/3` — matching within a constant
//! factor. It is §5's sample-graph schema at `s = 3`:
//! [`MultisetPartitionSchema`](super::sample_graph::MultisetPartitionSchema)
//! over `patterns::triangle()`, which is a [`MappingSchema`] of
//! [`TriangleProblem`] named `node-partition(n, k)` with its exact load
//! as the declared `q`.
//!
//! [`MappingSchema`]: crate::model::MappingSchema

use crate::model::Problem;
use crate::recipe::LowerBoundRecipe;

/// The triangle-finding problem on `n` nodes, all edges potential.
#[derive(Debug, Clone, Copy)]
pub struct TriangleProblem {
    /// Number of nodes in the (complete) input domain.
    pub n: u32,
}

impl TriangleProblem {
    /// Creates the problem.
    ///
    /// # Panics
    /// Panics if `n < 3`.
    pub fn new(n: u32) -> Self {
        assert!(n >= 3, "triangles need at least 3 nodes");
        TriangleProblem { n }
    }

    /// `|I| = (n 2)`.
    pub fn closed_form_inputs(&self) -> u64 {
        let n = self.n as u64;
        n * (n - 1) / 2
    }

    /// `|O| = (n 3)`.
    pub fn closed_form_outputs(&self) -> u64 {
        let n = self.n as u64;
        n * (n - 1) * (n - 2) / 6
    }

    /// The §4.1 recipe: `g(q) = (√2/3)·q^{3/2}`.
    pub fn recipe(&self) -> LowerBoundRecipe {
        LowerBoundRecipe::new(
            g_triangles,
            self.closed_form_inputs() as f64,
            self.closed_form_outputs() as f64,
        )
    }
}

impl Problem for TriangleProblem {
    type Input = (u32, u32);
    type Output = (u32, u32, u32);

    fn inputs(&self) -> Vec<(u32, u32)> {
        let mut v = Vec::with_capacity(self.closed_form_inputs() as usize);
        for u in 0..self.n {
            for w in (u + 1)..self.n {
                v.push((u, w));
            }
        }
        v
    }

    fn outputs(&self) -> Vec<(u32, u32, u32)> {
        let mut v = Vec::with_capacity(self.closed_form_outputs() as usize);
        for a in 0..self.n {
            for b in (a + 1)..self.n {
                for c in (b + 1)..self.n {
                    v.push((a, b, c));
                }
            }
        }
        v
    }

    fn inputs_of(&self, o: &(u32, u32, u32)) -> Vec<(u32, u32)> {
        vec![(o.0, o.1), (o.0, o.2), (o.1, o.2)]
    }

    fn num_inputs(&self) -> u64 {
        self.closed_form_inputs()
    }

    fn num_outputs(&self) -> u64 {
        self.closed_form_outputs()
    }
}

/// §4.1: `g(q) = (√2/3)·q^{3/2}` — the most triangles `q` edges can form.
pub fn g_triangles(q: f64) -> f64 {
    std::f64::consts::SQRT_2 / 3.0 * q.powf(1.5)
}

/// §4.1: the lower bound `r ≥ n/√(2q)`.
pub fn lower_bound_r(n: u32, q: f64) -> f64 {
    n as f64 / (2.0 * q).sqrt()
}

/// §4.2: the *target* budget for sparse graphs — to expect `q` real edges
/// per reducer when only `m` of the `(n 2)` edges are present, a schema may
/// assign up to `q_t = q·n(n−1)/(2m)` potential edges per reducer.
pub fn sparse_target_q(q: f64, n: u32, m: u64) -> f64 {
    let n = n as f64;
    q * n * (n - 1.0) / (2.0 * m as f64)
}

/// §4.2: the sparse-graph lower bound `r = Ω(√(m/q))`.
pub fn sparse_lower_bound_r(m: u64, q: f64) -> f64 {
    (m as f64 / q).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{validate_schema, MappingSchema};
    use crate::problems::sample_graph::MultisetPartitionSchema;
    use crate::recipe::max_outputs_covered;
    use mr_graph::{gen, patterns, subgraph};
    use mr_sim::{run_schema, EngineConfig};

    /// §4's node-partition schema: the multiset partition at `s = 3`.
    fn node_partition(n: u32, k: u32) -> MultisetPartitionSchema {
        MultisetPartitionSchema::new(patterns::triangle(), n, k)
    }

    /// A triangle's nodes, read off its sorted edge list `(a,b), (a,c), (b,c)`.
    fn corners(instance: &[(u32, u32)]) -> [u32; 3] {
        [instance[0].0, instance[0].1, instance[1].1]
    }

    #[test]
    fn counts_match_closed_forms() {
        let p = TriangleProblem::new(7);
        assert_eq!(p.inputs().len() as u64, 21);
        assert_eq!(p.outputs().len() as u64, 35);
        assert_eq!(p.num_inputs(), 21);
        assert_eq!(p.num_outputs(), 35);
    }

    #[test]
    fn g_dominates_empirical_coverage() {
        // §4.1's claim, probed exhaustively on K_5 (10 edges).
        let p = TriangleProblem::new(5);
        for q in 3..=10usize {
            let actual = max_outputs_covered(&p, q) as f64;
            // Use the exact clique count C(k,3) at k=√(2q) rounded up as a
            // discretisation-tolerant ceiling of (√2/3)q^{3/2}.
            let k = (2.0 * q as f64).sqrt().ceil();
            let ceiling = k * (k - 1.0) * (k - 2.0) / 6.0 + 1.0;
            assert!(
                actual <= ceiling,
                "q={q}: covered {actual} > ceiling {ceiling}"
            );
        }
    }

    #[test]
    fn clique_meets_g_bound() {
        // All C(k,2) edges among k nodes cover C(k,3) triangles; for
        // k = 4, q = 6 and g(6) = √2/3·6^{1.5} ≈ 6.9 ≥ 4 actual.
        let p = TriangleProblem::new(6);
        let covered = max_outputs_covered(&p, 6) as f64;
        assert_eq!(covered, 4.0);
        assert!(covered <= g_triangles(6.0));
    }

    #[test]
    fn schema_is_valid_across_k() {
        let n = 12;
        let p = TriangleProblem::new(n);
        for k in [1u32, 2, 3, 4, 6] {
            let s = node_partition(n, k);
            let report = validate_schema(&p, &s);
            assert!(report.is_valid(), "k={k}: {report:?}");
            // Replication is at most k (cross edges hit exactly k triples,
            // within-group edges can hit more but there are few).
            assert!(
                report.replication_rate <= k as f64 + 1.0,
                "k={k}: r={}",
                report.replication_rate
            );
        }
    }

    #[test]
    fn schema_replication_within_constant_of_lower_bound() {
        let n = 30;
        let p = TriangleProblem::new(n);
        for k in [2u32, 3, 5] {
            let s = node_partition(n, k);
            let report = validate_schema(&p, &s);
            assert!(report.is_valid());
            let bound = lower_bound_r(n, report.max_load as f64);
            let ratio = report.replication_rate / bound;
            assert!(
                (0.9..=4.0).contains(&ratio),
                "k={k}: r={} bound={bound} ratio={ratio}",
                report.replication_rate
            );
        }
    }

    #[test]
    fn exact_max_load_matches_validation() {
        // The declared q is the exact load at every size and group count,
        // uneven groups (k not dividing n) included.
        for n in 3..=24 {
            let p = TriangleProblem::new(n);
            for k in 1..=n {
                let s = node_partition(n, k);
                let report = validate_schema(&p, &s);
                assert_eq!(
                    report.max_load,
                    MappingSchema::<TriangleProblem>::max_inputs_per_reducer(&s),
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn simulator_run_finds_exactly_the_triangles() {
        let g = gen::gnm(60, 400, 42);
        let expected = subgraph::triangles(&g);
        let s = node_partition(60, 4);
        let (found, metrics) = run_schema(g.edges(), &s, &EngineConfig::sequential()).unwrap();
        let mut found: Vec<[u32; 3]> = found.iter().map(|t| corners(t)).collect();
        found.sort_unstable();
        let mut exp: Vec<[u32; 3]> = expected;
        exp.sort_unstable();
        assert_eq!(found, exp);
        // Each edge was replicated to ≤ k reducers.
        assert!(metrics.replication_rate() <= 4.0 + 1e-9);
    }

    #[test]
    fn simulator_run_parallel_matches_sequential() {
        let g = gen::gnm(50, 300, 7);
        let s = node_partition(50, 3);
        let (seq, m1) = run_schema(g.edges(), &s, &EngineConfig::sequential()).unwrap();
        let (par, m2) = run_schema(g.edges(), &s, &EngineConfig::parallel(4)).unwrap();
        assert_eq!(seq, par);
        assert_eq!(m1, m2);
    }

    #[test]
    fn sparse_rescaling_formulas() {
        let n = 100u32;
        let m = 1000u64;
        let q = 50.0;
        let qt = sparse_target_q(q, n, m);
        assert!((qt - 50.0 * 100.0 * 99.0 / 2000.0).abs() < 1e-9);
        assert!((sparse_lower_bound_r(m, q) - (1000.0f64 / 50.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn k1_sends_everything_to_one_reducer() {
        let s = node_partition(10, 1);
        let p = TriangleProblem::new(10);
        let report = validate_schema(&p, &s);
        assert!(report.is_valid());
        assert_eq!(report.num_reducers, 1);
        assert!((report.replication_rate - 1.0).abs() < 1e-9);
    }
}
