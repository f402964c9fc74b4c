//! Fuzzy similarity join on bit-string fingerprints (the §3 workload).
//!
//! ```sh
//! cargo run --example similarity_join
//! ```
//!
//! Scenario: a deduplication pipeline fingerprints records as 16-bit
//! sketches and must find all pairs differing in at most one bit. We
//! compare three mapping schemas on the *same* data — the one-reducer
//! baseline, Splitting, and the weight-based algorithm — and use the §1.2
//! cost model to pick one for a hypothetical cluster.

use mapreduce_bounds::core::model::{validate_schema, MappingSchema};
use mapreduce_bounds::core::problems::hamming::{
    DistanceDSplittingSchema, HammingProblem, WeightSchemaD,
};
use mapreduce_bounds::plan::ClusterSpec;

fn main() {
    let b = 16;
    let problem = HammingProblem::distance_one(b);
    println!(
        "Similarity join on {b}-bit fingerprints ({} potential keys)\n",
        1u64 << b
    );

    // Candidate schemas across the tradeoff curve.
    println!(
        "{:<28} {:>10} {:>10} {:>8}",
        "schema", "q (max)", "r", "valid"
    );
    let mut frontier: Vec<(f64, f64)> = Vec::new();
    for c in [1u32, 2, 4, 8] {
        let s = DistanceDSplittingSchema::new(b, c, 1);
        let report = validate_schema(&problem, &s);
        frontier.push((report.max_load as f64, report.replication_rate));
        println!(
            "{:<28} {:>10} {:>10.3} {:>8}",
            s.name(),
            report.max_load,
            report.replication_rate,
            report.is_valid()
        );
    }
    for k in [2u32, 4] {
        let s = WeightSchemaD::new(b, 2, k);
        let report = validate_schema(&problem, &s);
        frontier.push((report.max_load as f64, report.replication_rate));
        println!(
            "{:<28} {:>10} {:>10.3} {:>8}",
            s.name(),
            report.max_load,
            report.replication_rate,
            report.is_valid()
        );
    }

    // §1.2: pick the cheapest point for two cluster profiles.
    // Reducers compare all pairs → processing ∝ q per unit of data
    // (O(q²) work × O(1/q) reducers).
    println!("\nCluster cost model a·r + b·q (Example 1.1):");
    for (name, a, bb) in [
        ("communication-expensive (egress billed)", 500.0, 0.01),
        ("compute-expensive (spot CPUs)", 1.0, 0.5),
    ] {
        let cluster = ClusterSpec {
            comm_weight: a,
            compute_weight: bb,
            ..ClusterSpec::default()
        };
        let (q, r, cost) = cluster
            .cheapest_point(&frontier)
            .expect("frontier is non-empty");
        println!("  {name}: best q = {q:.0}, r = {r:.2}, cost = {cost:.1}");
    }

    println!("\nCommunication-expensive clusters pick big reducers (small r);");
    println!("compute-expensive clusters pick small reducers and pay for the");
    println!("extra replication — the tradeoff the paper quantifies.");
}
