//! A two-round SQL-style analytics pipeline (§7.1's open direction).
//!
//! ```sh
//! cargo run --example analytics_pipeline
//! ```
//!
//! Scenario: a clickstream warehouse computes
//! `SELECT user, COUNT(*) FROM sessions ⋈ clicks ⋈ purchases GROUP BY user`
//! as a chain join followed by aggregation. We run the naive plan (join,
//! then shuffle every joined row to the aggregators) and the pushed plan
//! (join reducers emit per-user partial counts), and compare total
//! communication — the §6.3 two-phase insight applied to SQL.

use mapreduce_bounds::core::problems::join::{
    naive_count_dag, optimize_shares, pushed_count_dag, tagged_inputs, Database, Query,
    SharesSchema,
};
use mapreduce_bounds::sim::EngineConfig;

fn main() {
    // sessions(U, S) ⋈ clicks(S, I) ⋈ purchases(I, P): chain of 3.
    let query = Query::chain(3);
    let db = Database::random(&query, 40, 1200, 2026);
    println!("Chain join of 3 relations, 1200 rows each, domain 40.\n");

    let cfg = EngineConfig::parallel(4);
    let inputs = tagged_inputs(&db);
    println!(
        "{:>6} {:>12} {:>18} {:>18} {:>8}",
        "p", "join rows", "naive total comm", "pushed total comm", "saving"
    );
    for p in [4u64, 16, 64] {
        let shares = optimize_shares(&query, &[1200; 3], p);
        let schema = SharesSchema::new(query.clone(), shares);
        let (naive_counts, naive) = naive_count_dag(schema.clone()).run(&inputs, &cfg).unwrap();
        let (pushed_counts, pushed) = pushed_count_dag(schema, 1).run(&inputs, &cfg).unwrap();
        assert_eq!(naive_counts, pushed_counts, "plans must agree");
        println!(
            "{:>6} {:>12} {:>18} {:>18} {:>8.2}",
            p,
            naive.rounds[1].inputs,
            naive.total_communication(),
            pushed.total_communication(),
            naive.total_communication() as f64 / pushed.total_communication() as f64
        );
    }

    println!("\nPartial-aggregation push-down is the matrix-multiplication");
    println!("two-phase trick (§6.3) applied to SQL: round-2 communication");
    println!("shrinks from the join size to (#reducers × #distinct groups),");
    println!("so the saving grows with the join's output blow-up.");
}
