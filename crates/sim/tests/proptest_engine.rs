//! Property tests for the engine: determinism across worker counts,
//! multi-round metric identities, and exact budget enforcement.

use mr_sim::{run_schema, DagJob, EngineConfig, FnSchema, ReducerId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A two-node chain is deterministic across worker counts, equals
    /// the same two rounds run one after the other with `run_schema`,
    /// and its metrics satisfy the round-communication identity. Tokens
    /// are `(key, value)` pairs; inputs enter as `(x, x)`.
    #[test]
    fn pipelines_deterministic_and_metrics_consistent(
        inputs in proptest::collection::vec(0u32..500, 1..300),
        buckets in 1u32..12,
        workers in 2usize..6,
    ) {
        let b = buckets;
        // Plain closures are `Copy`: the chain and the sequential oracle
        // each wrap their own copy.
        let first_map = move |&(x, _): &(u32, u64), emit: &mut dyn FnMut(ReducerId)| {
            emit(u64::from(x % b))
        };
        let second_map = |&(k, _): &(u32, u64), emit: &mut dyn FnMut(ReducerId)| {
            emit(u64::from(k % 2))
        };
        let sum = |r: ReducerId, tokens: &[(u32, u64)], emit: &mut dyn FnMut((u32, u64))| {
            emit((r as u32, tokens.iter().map(|&(_, s)| s).sum()))
        };
        let mut dag: DagJob<(u32, u64)> = DagJob::new();
        let first = dag.add_round("sums", vec![], FnSchema(first_map, sum));
        dag.add_round("halves", vec![first], FnSchema(second_map, sum));
        let tokens: Vec<(u32, u64)> = inputs.iter().map(|&x| (x, u64::from(x))).collect();
        let (o1, m1) = dag.run(&tokens, &EngineConfig::sequential()).unwrap();
        let (o2, m2) = dag.run(&tokens, &EngineConfig::parallel(workers)).unwrap();
        prop_assert_eq!(&o1, &o2);
        prop_assert_eq!(&m1, &m2);
        // The chain is the two rounds, run one after the other.
        let seq = EngineConfig::sequential();
        let (mid, r1) = run_schema(&tokens, &FnSchema(first_map, sum), &seq).unwrap();
        let (out, r2) = run_schema(&mid, &FnSchema(second_map, sum), &seq).unwrap();
        prop_assert_eq!(&o1, &out);
        prop_assert_eq!(&m1.rounds, &vec![r1, r2]);
        // Conservation: the grand sum survives both rounds.
        let grand: u64 = inputs.iter().map(|&v| v as u64).sum();
        let out_sum: u64 = o1.iter().map(|&(_, s)| s).sum();
        prop_assert_eq!(grand, out_sum);
        // Identity: round-2 inputs equal round-1 outputs.
        prop_assert_eq!(m1.rounds[0].outputs, m1.rounds[1].inputs);
    }

    /// The q budget is enforced exactly: runs succeed iff the true max
    /// load fits.
    #[test]
    fn q_budget_is_exact(
        inputs in proptest::collection::vec(0u32..50, 1..200),
        buckets in 1u32..10,
    ) {
        let schema = FnSchema(
            move |x: &u32, emit: &mut dyn FnMut(ReducerId)| emit(u64::from(x % buckets)),
            |_: ReducerId, _: &[u32], _: &mut dyn FnMut(u32)| {},
        );
        // First measure the true max load without a budget.
        let (_, m) = run_schema(&inputs, &schema, &EngineConfig::sequential()).unwrap();
        let max = m.load.max;
        let at = EngineConfig::sequential().with_max_reducer_inputs(max);
        prop_assert!(run_schema(&inputs, &schema, &at).is_ok());
        if max > 0 {
            let below = EngineConfig::sequential().with_max_reducer_inputs(max - 1);
            prop_assert!(run_schema(&inputs, &schema, &below).is_err());
        }
    }
}
