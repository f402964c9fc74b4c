//! **Table 2** — upper bounds: every constructive algorithm *run* and
//! measured, compared against its closed-form replication rate.

use crate::table::{fmt, Table};
use mr_core::model::validate_schema;
use mr_core::problems::hamming::{DistanceDSplittingSchema, HammingProblem};
use mr_core::problems::join::{chain_upper_bound, optimize_shares, Database, Query, SharesSchema};
use mr_core::problems::matmul::problem::run_one_phase;
use mr_core::problems::matmul::{lower_bound_r as matmul_bound, Matrix, OnePhaseSchema};
use mr_core::problems::sample_graph::{MultisetPartitionSchema, SampleGraphProblem};
use mr_core::problems::triangle::TriangleProblem;
use mr_core::problems::two_path::{BucketPairSchema, TwoPathProblem};
use mr_graph::patterns;
use mr_sim::EngineConfig;

/// Measured replication of one representative configuration per row of
/// Table 2, with the formula value beside it.
pub fn report() -> String {
    let mut t = Table::new(&[
        "problem / algorithm",
        "q (achieved)",
        "r measured",
        "r formula",
        "valid",
    ]);

    // Hamming-1, Splitting c = 3 at b = 12.
    {
        let b = 12;
        let p = HammingProblem::distance_one(b);
        let s = DistanceDSplittingSchema::new(b, 3, 1);
        let rep = validate_schema(&p, &s);
        t.row(vec![
            "Hamming-1 / Splitting (b=12, c=3)".into(),
            rep.max_load.to_string(),
            fmt(rep.replication_rate),
            fmt(3.0),
            rep.is_valid().to_string(),
        ]);
    }

    // Triangles, node partition k = 4 at n = 24.
    {
        let n = 24;
        let p = TriangleProblem::new(n);
        let s = MultisetPartitionSchema::new(patterns::triangle(), n, 4);
        let rep = validate_schema(&p, &s);
        t.row(vec![
            "Triangles / node-partition (n=24, k=4)".into(),
            rep.max_load.to_string(),
            fmt(rep.replication_rate),
            format!("~k = {}", fmt(4.0)),
            rep.is_valid().to_string(),
        ]);
    }

    // C4 sample graph, multiset partition k = 3 at n = 12.
    {
        let n = 12;
        let pattern = patterns::cycle(4);
        let p = SampleGraphProblem::new(pattern.clone(), n);
        let s = MultisetPartitionSchema::new(pattern, n, 3);
        let rep = validate_schema(&p, &s);
        t.row(vec![
            "C4 / multiset-partition (n=12, k=3)".into(),
            rep.max_load.to_string(),
            fmt(rep.replication_rate),
            format!("<=C(k+1,2) = {}", fmt(s.approx_replication())),
            rep.is_valid().to_string(),
        ]);
    }

    // 2-paths, bucket pair k = 4 at n = 24.
    {
        let n = 24;
        let p = TwoPathProblem::new(n);
        let s = BucketPairSchema::new(n, 4);
        let rep = validate_schema(&p, &s);
        t.row(vec![
            "2-paths / bucket-pair (n=24, k=4)".into(),
            rep.max_load.to_string(),
            fmt(rep.replication_rate),
            format!("2(k-1) = {}", fmt(s.nominal_replication())),
            rep.is_valid().to_string(),
        ]);
    }

    // Chain join N = 3 with optimised shares, measured on the simulator.
    {
        let query = Query::chain(3);
        let n_dom = 16u32;
        let per_rel = 120usize;
        let db = Database::random(&query, n_dom, per_rel, 5);
        let shares = optimize_shares(&query, &[per_rel as u64; 3], 16);
        let schema = SharesSchema::new(query, shares);
        let (_, m) = schema.run(&db, &EngineConfig::sequential()).unwrap();
        let q = m.load.max as f64;
        t.row(vec![
            "Chain join N=3 / Shares (p=16)".into(),
            m.load.max.to_string(),
            fmt(m.replication_rate()),
            format!(
                "(n/sqrt(q))^2 = {}",
                fmt(chain_upper_bound(n_dom as f64, 3, q))
            ),
            "true".into(),
        ]);
    }

    // Matrix multiplication, one-phase s = 4 at n = 16.
    {
        let n = 16u32;
        let a = Matrix::random(n as usize, 1);
        let b = Matrix::random(n as usize, 2);
        let s = OnePhaseSchema::new(n, 4);
        let (prod, m) = run_one_phase(&a, &b, &s, &EngineConfig::sequential()).unwrap();
        let correct = prod.max_abs_diff(&a.multiply(&b)) < 1e-9;
        t.row(vec![
            "MatMul / square tiling (n=16, s=4)".into(),
            m.load.max.to_string(),
            fmt(m.replication_rate()),
            format!("2n^2/q = {}", fmt(matmul_bound(n, s.q() as f64))),
            correct.to_string(),
        ]);
    }

    format!(
        "Table 2: upper bounds — constructive algorithms, measured (paper §2.5)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_rows_valid() {
        let r = super::report();
        assert!(!r.contains("false"), "some algorithm failed:\n{r}");
        assert_eq!(r.matches("true").count(), 6, "expected 6 valid rows:\n{r}");
    }
}
