//! Triangle counting in a sparse social graph (§4's motivating workload).
//!
//! ```sh
//! cargo run --example social_triangles
//! ```
//!
//! Generates a sparse Erdős–Rényi "friendship" graph, runs the
//! node-partition triangle algorithm on the simulator at several
//! parallelism levels, verifies the distributed answer against the serial
//! baseline, and compares the measured replication rate with the §4.2
//! sparse-graph lower bound √(m/q). Also shows what a skewed power-law
//! graph does to reducer load (the §1.4 caveat).

use mapreduce_bounds::core::problems::sample_graph::MultisetPartitionSchema;
use mapreduce_bounds::core::problems::triangle::sparse_lower_bound_r;
use mapreduce_bounds::graph::{gen, patterns, subgraph};
use mapreduce_bounds::sim::{run_schema, EngineConfig};

fn main() {
    let (n, m) = (300usize, 3_000usize);
    let g = gen::gnm(n, m, 2024);
    let serial = subgraph::triangle_count(&g);
    println!("Friendship graph: {n} people, {m} edges, {serial} triangles (serial count)\n");

    println!(
        "{:>4} {:>10} {:>12} {:>12} {:>14} {:>10}",
        "k", "reducers", "max load q", "r (measured)", "bound sqrt(m/q)", "correct"
    );
    for k in [2u32, 3, 4, 6, 8] {
        let schema = MultisetPartitionSchema::new(patterns::triangle(), n as u32, k);
        let (found, metrics) = run_schema(g.edges(), &schema, &EngineConfig::parallel(4))
            .expect("no q bound configured");
        let q = metrics.load.max as f64;
        println!(
            "{:>4} {:>10} {:>12} {:>12.2} {:>14.2} {:>10}",
            k,
            metrics.reducers,
            metrics.load.max,
            metrics.replication_rate(),
            sparse_lower_bound_r(m as u64, q),
            found.len() as u64 == serial
        );
    }

    println!("\nMore groups -> more, smaller reducers -> higher replication,");
    println!("tracking the sqrt(m/q) lower bound within a constant factor.\n");

    // The skew caveat (§1.4): power-law graphs concentrate load.
    let pl = gen::power_law(n, 2.2, 2.0 * m as f64 / n as f64, 7);
    let schema = MultisetPartitionSchema::new(patterns::triangle(), n as u32, 4);
    let (_, uniform) = run_schema(g.edges(), &schema, &EngineConfig::parallel(4)).unwrap();
    let (_, skewed) = run_schema(pl.edges(), &schema, &EngineConfig::parallel(4)).unwrap();
    println!("Load skew (max/mean reducer load) at k = 4:");
    println!("  Erdős–Rényi graph: {:.2}", uniform.load.skew());
    println!(
        "  power-law graph:   {:.2}  <- hub nodes overload reducers,",
        skewed.load.skew()
    );
    println!("     motivating the skew-handling work the paper cites (§1.4).");
}
