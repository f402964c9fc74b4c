//! **Figure 1** — the Hamming-distance-1 tradeoff: the lower-bound
//! hyperbola `r = b/log₂q` and the Splitting-algorithm points that sit
//! exactly on it.

use crate::table::{fmt, Table};
use mr_core::model::validate_schema;
use mr_core::problems::hamming::{theorem32_lower_bound, DistanceDSplittingSchema, HammingProblem};

/// The series of Figure 1 for a given `b`: `(c, log2 q, hyperbola, measured r)`.
pub fn series(b: u32) -> Vec<(u32, f64, f64, f64)> {
    let problem = HammingProblem::distance_one(b);
    (1..=b)
        .filter(|c| b.is_multiple_of(*c))
        .map(|c| {
            let schema = DistanceDSplittingSchema::new(b, c, 1);
            let report = validate_schema(&problem, &schema);
            assert!(report.is_valid(), "splitting c={c} invalid");
            let log_q = (schema.q() as f64).log2();
            (
                c,
                log_q,
                theorem32_lower_bound(b, schema.q() as f64),
                report.replication_rate,
            )
        })
        .collect()
}

/// Renders the figure as a table (each dot of Figure 1 as a row).
pub fn report() -> String {
    let b = 12;
    let mut t = Table::new(&[
        "c",
        "log2 q",
        "hyperbola b/log2 q",
        "r measured",
        "on curve",
    ]);
    for (c, log_q, bound, r) in series(b) {
        t.row(vec![
            c.to_string(),
            fmt(log_q),
            fmt(bound),
            fmt(r),
            ((r - bound).abs() < 1e-9).to_string(),
        ]);
    }
    format!(
        "Figure 1: Hamming-1 replication vs reducer size, b = {b} (paper §3.3)\n\
         Every Splitting point lies exactly on the lower-bound hyperbola.\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_point_is_on_the_curve() {
        for (c, _, bound, r) in super::series(12) {
            assert!((r - bound).abs() < 1e-9, "c={c}: {r} vs {bound}");
        }
    }

    #[test]
    fn report_has_all_divisors() {
        let r = super::report();
        assert_eq!(r.matches("true").count(), 6); // divisors of 12
    }
}
