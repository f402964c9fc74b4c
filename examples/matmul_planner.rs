//! One-phase vs two-phase matrix multiplication (§6).
//!
//! ```sh
//! cargo run --example matmul_planner
//! ```
//!
//! Multiplies two 32×32 matrices both ways on the simulator, verifies the
//! numeric results against the serial product, and reproduces the §6.3
//! conclusion: the two-phase method communicates less for every reducer
//! budget `q < n²`, with the optimal first-phase blocks at aspect ratio
//! 2:1.

use mapreduce_bounds::core::family::Scale;
use mapreduce_bounds::core::problems::matmul::problem::run_one_phase;
use mapreduce_bounds::core::problems::matmul::{
    one_phase_communication, two_phase_communication, Matrix, OnePhaseSchema, RecursiveMatMul,
};
use mapreduce_bounds::plan::{plan_family, ClusterSpec};
use mapreduce_bounds::sim::EngineConfig;

fn main() {
    let n = 32u32;
    let a = Matrix::random(n as usize, 41);
    let b = Matrix::random(n as usize, 42);
    let expected = a.multiply(&b);
    println!("Multiplying {n}x{n} matrices; n² = {}\n", n * n);

    println!(
        "{:>8} {:>16} {:>16} {:>16} {:>10}",
        "q", "1-phase comm", "2-phase comm", "winner", "correct"
    );
    for q in [128u64, 256, 512, 1024, 2048] {
        // One-phase: q = 2sn → s = q/(2n).
        let s = (q / (2 * n as u64)) as u32;
        let s = (1..=s).rev().find(|d| n.is_multiple_of(*d)).unwrap_or(1);
        let one = OnePhaseSchema::new(n, s);
        let (got1, m1) = run_one_phase(&a, &b, &one, &EngineConfig::parallel(4)).unwrap();

        // Two-phase: best (s, t) with 2st ≤ q.
        let two = RecursiveMatMul::flat_for_budget(n, q);
        let (got2, m2) = two.run(&a, &b, &EngineConfig::parallel(4)).unwrap();

        let c1 = m1.kv_pairs;
        let c2 = m2.total_communication();
        let ok = got1.max_abs_diff(&expected) < 1e-9 && got2.max_abs_diff(&expected) < 1e-9;
        println!(
            "{:>8} {:>16} {:>16} {:>16} {:>10}",
            q,
            c1,
            c2,
            if c2 < c1 { "two-phase" } else { "one-phase" },
            ok
        );
    }

    println!(
        "\nAnalytic curves (4n⁴/q vs 4n³/√q) cross at q = n² = {}:",
        n * n
    );
    for q in [256.0, 1024.0, (n * n) as f64, 4.0 * (n * n) as f64] {
        println!(
            "  q = {:>6}: one-phase {:>10.0}, two-phase {:>10.0}",
            q,
            one_phase_communication(n, q),
            two_phase_communication(n, q)
        );
    }
    println!("\nBelow n² the two-phase method always communicates less —");
    println!("the surprise §6.3 highlights. (Both run the same arithmetic.)");

    // The mr-plan decision layer makes this call automatically from a
    // cluster spec (registry instance n = 8, so the crossover is q = 64).
    // The round-structure search prices every candidate per round, so we
    // use a communication-leaning cluster (b = a/50) — the regime where
    // §6.3's communication comparison decides the winner; price compute
    // high enough and a multi-round tree's smaller reducers win even
    // with no budget at all, which is correct but not the §6 story.
    println!("\nmr-plan makes the same decision from a cluster's q-budget (n=8, n²=64):");
    for budget in [16u64, 32, 63, 64, 128] {
        let cluster = ClusterSpec::new(4, 1.0, 0.02).with_q_budget(budget);
        let plan = plan_family("matmul", &cluster, Scale::Default).expect("feasible budget");
        let report = plan.execute().expect("plan fits its own budget");
        println!(
            "  q-budget {budget:>4} → {:<26} measured (q={}, r={})",
            plan.schema, report.measured_q, report.measured_r
        );
    }
    println!("\n(`repro plan matmul --q-budget N` prints the full rationale.)");
}
