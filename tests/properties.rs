//! Property-based tests (proptest) over the core invariants:
//!
//! * the engine is deterministic across worker counts,
//! * every schema covers every output and reports exact replication,
//! * the distributed algorithms agree with serial baselines on random
//!   instances,
//! * the LP edge covers are always feasible,
//! * upper bounds never dip below the corresponding lower bounds.

use mapreduce_bounds::core::model::validate_schema;
use mapreduce_bounds::core::problems::hamming::{
    theorem32_lower_bound, DistanceDSplittingSchema, HammingProblem,
};
use mapreduce_bounds::core::problems::join::{Database, Query, SharesSchema};
use mapreduce_bounds::core::problems::sample_graph::MultisetPartitionSchema;
use mapreduce_bounds::core::problems::two_path::BucketPairSchema;
use mapreduce_bounds::graph::{gen, patterns, subgraph};
use mapreduce_bounds::lp::{fractional_edge_cover, Hypergraph};
use mapreduce_bounds::sim::{run_schema, EngineConfig, FnSchema, ReducerId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parallel and sequential engines produce identical outputs and
    /// metrics for arbitrary modular-fanout jobs.
    #[test]
    fn engine_parallel_equals_sequential(
        inputs in proptest::collection::vec(0u32..1000, 1..300),
        fanout in 1u32..5,
        buckets in 1u32..20,
        workers in 2usize..8,
    ) {
        let schema = FnSchema(
            move |x: &u32, emit: &mut dyn FnMut(ReducerId)| {
                for t in 0..fanout {
                    emit(u64::from((x + t) % buckets));
                }
            },
            |r: ReducerId, xs: &[u32], emit: &mut dyn FnMut((u64, u64))| {
                emit((r, xs.iter().map(|&x| x as u64).sum()))
            },
        );
        let (o1, m1) = run_schema(&inputs, &schema, &EngineConfig::sequential()).unwrap();
        let (o2, m2) = run_schema(&inputs, &schema, &EngineConfig::parallel(workers)).unwrap();
        prop_assert_eq!(o1, o2);
        prop_assert_eq!(m1.clone(), m2);
        // Replication identity: Σ qᵢ = kv_pairs = r·|I|.
        prop_assert_eq!(m1.load.total, m1.kv_pairs);
        prop_assert!((m1.replication_rate() * inputs.len() as f64 - m1.kv_pairs as f64).abs() < 1e-6);
    }

    /// Splitting schemas are valid for every divisor pair and sit exactly
    /// on the lower bound.
    #[test]
    fn splitting_always_valid_and_tight(b in 2u32..=10, c_idx in 0usize..4) {
        let divisors: Vec<u32> = (1..=b).filter(|d| b.is_multiple_of(*d)).collect();
        let c = divisors[c_idx % divisors.len()];
        let problem = HammingProblem::distance_one(b);
        let schema = DistanceDSplittingSchema::new(b, c, 1);
        let report = validate_schema(&problem, &schema);
        prop_assert!(report.is_valid());
        let bound = theorem32_lower_bound(b, schema.q() as f64);
        prop_assert!((report.replication_rate - bound).abs() < 1e-9);
    }

    /// The triangle schema finds exactly the serial baseline's triangles
    /// on arbitrary sparse graphs and group counts.
    #[test]
    fn triangle_schema_matches_serial(
        n in 10usize..40,
        density in 0.05f64..0.6,
        k in 1u32..8,
        seed in 0u64..1000,
    ) {
        let max_m = n * (n - 1) / 2;
        let m = ((max_m as f64 * density) as usize).max(1);
        let g = gen::gnm(n, m, seed);
        let k = k.min(n as u32);
        let schema = MultisetPartitionSchema::new(patterns::triangle(), n as u32, k);
        let (instances, _) = run_schema(g.edges(), &schema, &EngineConfig::sequential()).unwrap();
        // A triangle's sorted edges are (a, b), (a, c), (b, c).
        let mut found: Vec<[u32; 3]> = instances.iter().map(|t| [t[0].0, t[0].1, t[1].1]).collect();
        found.sort_unstable();
        let mut expected = subgraph::triangles(&g);
        expected.sort_unstable();
        prop_assert_eq!(found, expected);
    }

    /// The bucket-pair 2-path schema emits every 2-path exactly once on
    /// arbitrary graphs.
    #[test]
    fn two_path_schema_exactly_once(
        n in 6u32..30,
        density in 0.1f64..0.7,
        k in 2u32..6,
        seed in 0u64..1000,
    ) {
        let max_m = (n * (n - 1) / 2) as usize;
        let m = ((max_m as f64 * density) as usize).max(1);
        let g = gen::gnm(n as usize, m, seed);
        let schema = BucketPairSchema::new(n, k);
        let (mut found, _) = run_schema(g.edges(), &schema, &EngineConfig::sequential()).unwrap();
        found.sort_unstable();
        let mut expected = subgraph::two_paths(&g);
        expected.sort_unstable();
        prop_assert_eq!(found, expected);
    }

    /// Shares computes the correct join for arbitrary chain lengths, share
    /// grids, and databases.
    #[test]
    fn shares_join_correct(
        n_rels in 1usize..4,
        domain in 4u32..16,
        per_rel in 5usize..40,
        shares_seed in 0u64..100,
        seed in 0u64..1000,
    ) {
        let query = Query::chain(n_rels);
        let db = Database::random(&query, domain, per_rel.min((domain as usize).pow(2)), seed);
        let expected = db.join(&query);
        // Derive a pseudo-random share vector with product ≤ 16.
        let mut shares = vec![1u64; query.num_vars];
        let mut budget = 16u64;
        let mut state = shares_seed;
        for share in shares.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pick = 1u64 << (state % 3); // 1, 2, or 4
            let pick = pick.min(budget);
            *share = pick;
            budget /= pick;
        }
        let schema = SharesSchema::new(query, shares);
        let (mut got, metrics) = schema.run(&db, &EngineConfig::sequential()).unwrap();
        got.sort_unstable();
        prop_assert_eq!(got, expected);
        prop_assert!(metrics.replication_rate() >= 1.0 - 1e-9);
    }

    /// Fractional edge covers from the LP are always feasible and at most
    /// the number of edges.
    #[test]
    fn edge_cover_always_feasible(
        num_vertices in 2usize..8,
        extra_edges in 0usize..6,
        seed in 0u64..1000,
    ) {
        // Build a connected-ish random hypergraph: a spanning path plus
        // random extra edges, so every vertex is covered.
        let mut edges: Vec<Vec<usize>> = (0..num_vertices - 1).map(|i| vec![i, i + 1]).collect();
        let mut state = seed;
        for _ in 0..extra_edges {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
            let a = (state % num_vertices as u64) as usize;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
            let b = (state % num_vertices as u64) as usize;
            if a != b {
                edges.push(vec![a.min(b), a.max(b)]);
            }
        }
        let h = Hypergraph::from_edges(num_vertices, edges);
        let (rho, x) = fractional_edge_cover(&h).unwrap();
        // Feasibility at every vertex.
        for v in 0..num_vertices {
            let covered: f64 = h
                .edges()
                .iter()
                .zip(&x)
                .filter(|(e, _)| e.contains(&v))
                .map(|(_, &w)| w)
                .sum();
            prop_assert!(covered >= 1.0 - 1e-6, "vertex {} uncovered", v);
        }
        prop_assert!(rho <= h.num_edges() as f64 + 1e-6);
        prop_assert!(rho >= 1.0 - 1e-6);
    }

    /// For every problem/schema pair we expose, the measured (upper-bound)
    /// replication never dips below the recipe's lower bound at the
    /// schema's achieved q.
    #[test]
    fn upper_bounds_dominate_lower_bounds(b in 4u32..=10, c_idx in 0usize..3) {
        let divisors: Vec<u32> = (1..=b).filter(|d| b.is_multiple_of(*d)).collect();
        let c = divisors[c_idx % divisors.len()];
        let problem = HammingProblem::distance_one(b);
        let schema = DistanceDSplittingSchema::new(b, c, 1);
        let report = validate_schema(&problem, &schema);
        let recipe = problem.recipe();
        let lower = recipe.clamped_lower_bound(report.max_load as f64);
        prop_assert!(
            report.replication_rate >= lower - 1e-9,
            "r={} < lower bound {}", report.replication_rate, lower
        );
    }
}
