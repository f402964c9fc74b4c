//! **§4.2** — triangle finding on sparse data graphs: measured
//! replication tracks the rescaled lower bound `√(m/q)` within a constant
//! factor, and the distributed count always matches the serial baseline.

use crate::table::{fmt, Table};
use mr_core::problems::sample_graph::MultisetPartitionSchema;
use mr_core::problems::triangle::sparse_lower_bound_r;
use mr_graph::{gen, patterns, subgraph, Graph};
use mr_sim::{run_schema, EngineConfig};

/// One measured configuration.
pub struct SparsePoint {
    /// Node-group count of the schema.
    pub k: u32,
    /// Measured max reducer load (edges).
    pub q: u64,
    /// Measured replication rate.
    pub r: f64,
    /// Lower bound √(m/q) at the measured q.
    pub bound: f64,
    /// Distributed triangle count equals the serial count.
    pub correct: bool,
}

/// Runs the node-partition algorithm on `g` for a given `k`.
pub fn measure(g: &Graph, k: u32) -> SparsePoint {
    let n = g.num_nodes() as u32;
    let schema = MultisetPartitionSchema::new(patterns::triangle(), n, k);
    let (found, metrics) =
        run_schema(g.edges(), &schema, &EngineConfig::parallel(4)).expect("no q bound");
    let serial = subgraph::triangle_count(g);
    let q = metrics.load.max;
    SparsePoint {
        k,
        q,
        r: metrics.replication_rate(),
        bound: sparse_lower_bound_r(g.num_edges() as u64, q as f64),
        correct: found.len() as u64 == serial,
    }
}

/// Renders the §4.2 sweep.
pub fn report() -> String {
    let (n, m) = (200usize, 2000usize);
    let g = gen::gnm(n, m, 99);
    let mut t = Table::new(&[
        "k",
        "q measured",
        "r measured",
        "sqrt(m/q)",
        "ratio",
        "correct",
    ]);
    for k in [2u32, 3, 4, 6, 8, 12] {
        let p = measure(&g, k);
        t.row(vec![
            p.k.to_string(),
            p.q.to_string(),
            fmt(p.r),
            fmt(p.bound),
            fmt(p.r / p.bound),
            p.correct.to_string(),
        ]);
    }
    format!(
        "§4.2: sparse triangles, G(n={n}, m={m})\n\
         Replication tracks the sqrt(m/q) bound within a constant factor.\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_configurations_correct_and_within_constant() {
        let g = gen::gnm(100, 800, 3);
        for k in [2u32, 4, 8] {
            let p = measure(&g, k);
            assert!(p.correct, "k={k} wrong count");
            let ratio = p.r / p.bound;
            assert!(
                (0.3..6.0).contains(&ratio),
                "k={k}: ratio {ratio} out of constant-factor band"
            );
        }
    }

    #[test]
    fn replication_grows_with_k() {
        let g = gen::gnm(100, 800, 4);
        let r2 = measure(&g, 2).r;
        let r8 = measure(&g, 8).r;
        assert!(r8 > r2);
    }
}
