//! Cross-crate integration tests: each paper experiment exercised end to
//! end at reduced scale — problem model + mapping schema + simulator +
//! serial baseline + closed-form bound, all in one path.

use mapreduce_bounds::core::model::validate_schema;
use mapreduce_bounds::core::problems::hamming::{
    theorem32_lower_bound, DistanceDSplittingSchema, HammingProblem, WeightSchemaD,
};
use mapreduce_bounds::core::problems::join::{optimize_shares, Database, Query, SharesSchema};
use mapreduce_bounds::core::problems::matmul::problem::run_one_phase;
use mapreduce_bounds::core::problems::matmul::{Matrix, OnePhaseSchema, RecursiveMatMul};
use mapreduce_bounds::core::problems::sample_graph::MultisetPartitionSchema;
use mapreduce_bounds::core::problems::triangle::TriangleProblem;
use mapreduce_bounds::core::problems::two_path::{BucketPairSchema, TwoPathProblem};
use mapreduce_bounds::graph::{gen, patterns, subgraph};
use mapreduce_bounds::sim::{run_schema, EngineConfig};

/// §3: the full Hamming-distance-1 pipeline — every splitting point lies
/// exactly on the Theorem 3.2 hyperbola, and the schemas are valid.
#[test]
fn hamming_splitting_exactly_on_the_hyperbola() {
    let b = 12;
    let problem = HammingProblem::distance_one(b);
    for c in [1u32, 2, 3, 4, 6, 12] {
        let schema = DistanceDSplittingSchema::new(b, c, 1);
        let report = validate_schema(&problem, &schema);
        assert!(report.is_valid());
        let bound = theorem32_lower_bound(b, schema.q() as f64);
        assert!(
            (report.replication_rate - bound).abs() < 1e-9,
            "c={c}: r={} vs hyperbola {bound}",
            report.replication_rate
        );
    }
}

/// §3.4: the weight-based algorithm fills the gap between log2 q = b/2 and
/// b with replication strictly between 1 and 2.
#[test]
fn hamming_weight_algorithm_fills_the_large_q_gap() {
    let b = 12;
    let problem = HammingProblem::distance_one(b);
    let splitting_q = DistanceDSplittingSchema::new(b, 2, 1).q(); // 2^{b/2}
    let schema = WeightSchemaD::new(b, 2, 3); // two buckets per half
    let report = validate_schema(&problem, &schema);
    assert!(report.is_valid());
    assert!(report.replication_rate < 2.0);
    assert!(report.replication_rate > 1.0);
    // Its reducers are much larger than splitting's at c=2...
    assert!(report.max_load > splitting_q);
    // ...but still well below the whole input.
    assert!(report.max_load < problem.closed_form_inputs());
}

/// §4: triangles — distributed output identical to serial, replication
/// within a constant factor of n/√(2q), on both engines.
#[test]
fn triangles_end_to_end() {
    let (n, m) = (80usize, 600usize);
    let g = gen::gnm(n, m, 31);
    let expected = {
        let mut t = subgraph::triangles(&g);
        t.sort_unstable();
        t
    };
    for workers in [1usize, 4] {
        let schema = MultisetPartitionSchema::new(patterns::triangle(), n as u32, 5);
        let cfg = if workers == 1 {
            EngineConfig::sequential()
        } else {
            EngineConfig::parallel(workers)
        };
        let (instances, metrics) = run_schema(g.edges(), &schema, &cfg).unwrap();
        // A triangle's sorted edges are (a, b), (a, c), (b, c).
        let mut found: Vec<[u32; 3]> = instances.iter().map(|t| [t[0].0, t[0].1, t[1].1]).collect();
        found.sort_unstable();
        assert_eq!(found, expected, "workers={workers}");
        assert!(metrics.replication_rate() <= 5.0 + 1e-9);
    }
    // The model validation agrees with the paper's bound on the complete
    // instance.
    let problem = TriangleProblem::new(n as u32);
    let schema = MultisetPartitionSchema::new(patterns::triangle(), n as u32, 5);
    let report = validate_schema(&problem, &schema);
    assert!(report.is_valid());
    let bound =
        mapreduce_bounds::core::problems::triangle::lower_bound_r(n as u32, report.max_load as f64);
    assert!(report.replication_rate >= bound * 0.9);
    assert!(report.replication_rate <= bound * 4.0);
}

/// §5.4: 2-paths — the bucket-pair algorithm enforces its q budget inside
/// the engine and produces each 2-path exactly once.
#[test]
fn two_paths_with_enforced_budget() {
    let n = 40u32;
    let k = 4u32;
    let g = gen::gnm(n as usize, 200, 5);
    let schema = BucketPairSchema::new(n, k);
    // The engine enforces q = 2·⌈n/k⌉ (the schema's declared budget).
    let cfg = EngineConfig::sequential().with_max_reducer_inputs(2 * n.div_ceil(k) as u64);
    let (mut found, _) = run_schema(g.edges(), &schema, &cfg).unwrap();
    found.sort_unstable();
    let mut expected = subgraph::two_paths(&g);
    expected.sort_unstable();
    assert_eq!(found, expected);

    // Model-level validity too.
    let problem = TwoPathProblem::new(n);
    let report = validate_schema(&problem, &schema);
    assert!(report.is_valid());
}

/// §5.5: chain join with optimised shares — distributed result equals the
/// serial join and the optimiser leaves endpoint attributes unshared.
#[test]
fn chain_join_with_optimized_shares() {
    let query = Query::chain(3);
    let db = Database::random(&query, 20, 150, 77);
    let expected = db.join(&query);
    let shares = optimize_shares(&query, &[150, 150, 150], 16);
    assert_eq!(shares[0], 1, "endpoint A0 must not be shared");
    assert_eq!(shares[3], 1, "endpoint A3 must not be shared");
    let schema = SharesSchema::new(query, shares);
    let (mut got, metrics) = schema.run(&db, &EngineConfig::parallel(4)).unwrap();
    got.sort_unstable();
    assert_eq!(got, expected);
    assert!(metrics.replication_rate() >= 1.0);
}

/// §6: both matrix-multiplication methods compute the exact product, and
/// the two-phase method communicates less at equal q below n².
#[test]
fn matmul_two_phase_beats_one_phase() {
    let n = 16u32;
    let a = Matrix::random(n as usize, 1);
    let b = Matrix::random(n as usize, 2);
    let expected = a.multiply(&b);

    // Equal budget q = 64 < n² = 256.
    let one = OnePhaseSchema::new(n, 2); // q = 2sn = 64
    assert_eq!(one.q(), 64);
    let two = RecursiveMatMul::flat_for_budget(n, 64);

    let (p1, m1) = run_one_phase(&a, &b, &one, &EngineConfig::sequential()).unwrap();
    let (p2, m2) = two.run(&a, &b, &EngineConfig::sequential()).unwrap();
    assert!(p1.max_abs_diff(&expected) < 1e-9);
    assert!(p2.max_abs_diff(&expected) < 1e-9);
    assert!(
        m2.total_communication() < m1.kv_pairs,
        "two-phase {} !< one-phase {}",
        m2.total_communication(),
        m1.kv_pairs
    );
}

/// The engine rejects a schema that exceeds the configured q mid-run
/// (failure injection: budget breach must be loud, not silent).
#[test]
fn oversized_reducer_is_rejected_loudly() {
    let g = gen::gnm(30, 150, 3);
    let schema = MultisetPartitionSchema::new(patterns::triangle(), 30, 2);
    let cfg = EngineConfig::sequential().with_max_reducer_inputs(10);
    let err = run_schema(g.edges(), &schema, &cfg).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("exceeding the budget"), "got: {msg}");
}

/// A deliberately broken schema is caught by exhaustive validation
/// (failure injection: uncovered outputs must be detected).
#[test]
fn broken_schema_is_detected_by_validation() {
    use mapreduce_bounds::core::model::{MappingSchema, ReducerId};

    struct DropHalf;
    impl MappingSchema<TriangleProblem> for DropHalf {
        fn assign(&self, input: &(u32, u32)) -> Vec<ReducerId> {
            // Edges incident to node 0 go nowhere useful.
            if input.0 == 0 {
                vec![1]
            } else {
                vec![0]
            }
        }
        fn max_inputs_per_reducer(&self) -> u64 {
            1000
        }
    }
    let problem = TriangleProblem::new(8);
    let report = validate_schema(&problem, &DropHalf);
    assert!(!report.is_valid());
    assert!(report.uncovered_outputs > 0);
}
