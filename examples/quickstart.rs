//! Quickstart: define a problem, pick a mapping schema, validate it, and
//! run it on the simulator.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Walks the Hamming-distance-1 problem of §3 through the whole library:
//! closed-form bounds → schema validation → simulated execution.

use mapreduce_bounds::core::model::validate_schema;
use mapreduce_bounds::core::problems::hamming::{
    theorem32_lower_bound, DistanceDSplittingSchema, HammingProblem,
};

fn main() {
    // The problem: all pairs of 12-bit strings at Hamming distance 1.
    let b = 12;
    let problem = HammingProblem::distance_one(b);
    println!("Hamming-distance-1 problem, b = {b}");
    println!("  |I| = {} potential inputs", problem.closed_form_inputs());
    println!(
        "  |O| = {} potential outputs",
        problem.closed_form_outputs()
    );

    // The paper's lower-bound recipe (§2.4 instantiated by Theorem 3.2):
    // any schema with reducer size q has replication rate >= b / log2(q).
    println!("\nTheorem 3.2 lower bounds:");
    for log_q in [1u32, 2, 3, 4, 6, 12] {
        let q = 1u64 << log_q;
        println!(
            "  q = 2^{log_q:<2} -> r >= {:.3}",
            theorem32_lower_bound(b, q as f64)
        );
    }

    // The Splitting algorithm (§3.3) meets the bound exactly at q = 2^{b/c}.
    println!("\nSplitting algorithm, validated exhaustively:");
    println!(
        "  {:>3} {:>8} {:>12} {:>12} {:>8}",
        "c", "q", "r (measured)", "r (bound)", "valid"
    );
    for c in [1u32, 2, 3, 4, 6, 12] {
        let schema = DistanceDSplittingSchema::new(b, c, 1);
        let report = validate_schema(&problem, &schema);
        println!(
            "  {:>3} {:>8} {:>12.3} {:>12.3} {:>8}",
            c,
            schema.q(),
            report.replication_rate,
            theorem32_lower_bound(b, schema.q() as f64),
            report.is_valid()
        );
    }

    println!("\nEvery row sits exactly on the hyperbola r = b/log2(q) — the");
    println!("dots of Figure 1. Smaller reducers (more parallelism) cost");
    println!("proportionally more communication, exactly as the paper says.");
}
