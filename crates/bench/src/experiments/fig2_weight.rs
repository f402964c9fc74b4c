//! **Figure 2 / §3.4** — the weight-partition algorithm for large `q`:
//! measured replication vs the `1 + 2/k` approximation, and measured
//! maximum cell load vs the `k²·2^b/(πb)` estimate.

use crate::table::{fmt, Table};
use mr_core::model::validate_schema;
use mr_core::problems::hamming::{weight_2d_approx_q, HammingProblem, WeightSchemaD};

/// One measured point: `(b, k, exact max load, approx q, exact r, approx r)`.
pub fn point(b: u32, k: u32) -> (u32, u32, u64, f64, f64, f64) {
    let s = WeightSchemaD::new(b, 2, k);
    (
        b,
        k,
        s.exact_max_load(),
        weight_2d_approx_q(b, k),
        s.exact_replication(),
        s.approx_replication(),
    )
}

/// Renders the §3.4 table. Small `b` rows are additionally validated
/// exhaustively against the model.
pub fn report() -> String {
    let mut t = Table::new(&[
        "b",
        "k",
        "log2 q (exact)",
        "b - log2 b",
        "r exact",
        "1 + 2/k",
        "validated",
    ]);
    for (b, k) in [
        (12u32, 2u32),
        (12, 3),
        (16, 2),
        (16, 4),
        (24, 2),
        (24, 3),
        (32, 4),
    ] {
        let (b, k, load, _aq, r_exact, r_approx) = point(b, k);
        // Exhaustive validation is feasible for b <= 16.
        let validated = if b <= 16 {
            let problem = HammingProblem::distance_one(b);
            let schema = WeightSchemaD::new(b, 2, k);
            validate_schema(&problem, &schema).is_valid().to_string()
        } else {
            "(analytic)".into()
        };
        t.row(vec![
            b.to_string(),
            k.to_string(),
            fmt((load as f64).log2()),
            fmt(b as f64 - (b as f64).log2()),
            fmt(r_exact),
            fmt(r_approx),
            validated,
        ]);
    }
    format!(
        "Figure 2 / §3.4: weight-partition algorithm for large q\n\
         log2 q sits near b − log2 b (the far right of Figure 1) while r < 2.\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn replication_under_two_when_buckets_exist() {
        for (b, k) in [(16u32, 2u32), (24, 2), (24, 3), (32, 4)] {
            let (_, _, _, _, r, _) = super::point(b, k);
            assert!(r < 2.0 && r > 1.0, "b={b} k={k}: r={r}");
        }
    }

    #[test]
    fn q_is_near_the_right_edge() {
        // log2 q within O(1) of b − log2 b (§3.4).
        for (b, k) in [(24u32, 2u32), (32, 2)] {
            let (_, _, load, _, _, _) = super::point(b, k);
            let log_q = (load as f64).log2();
            let target = b as f64 - (b as f64).log2();
            assert!(
                (log_q - target).abs() < 4.0,
                "b={b} k={k}: log2 q={log_q} vs {target}"
            );
        }
    }

    #[test]
    fn report_is_fully_validated() {
        assert!(!super::report().contains("false"));
    }
}
