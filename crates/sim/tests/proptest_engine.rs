//! Property tests for the engine: determinism across worker counts,
//! combiner transparency for associative-commutative folds, and pipeline
//! metric identities.

use mr_sim::{
    run_round, run_round_combined, EngineConfig, Executor, FnCombiner, FnMapper, FnReducer, Job,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A sum-combiner never changes the reduce output, for any input set
    /// and worker count.
    #[test]
    fn combiner_is_transparent_for_sums(
        inputs in proptest::collection::vec((0u32..40, 1u64..100), 0..400),
        workers in 1usize..8,
    ) {
        let mapper = FnMapper(|&(k, v): &(u32, u64), emit: &mut dyn FnMut(u32, u64)| {
            emit(k, v)
        });
        let reducer = FnReducer(|k: &u32, vs: &[u64], emit: &mut dyn FnMut((u32, u64))| {
            emit((*k, vs.iter().sum()))
        });
        let combiner = FnCombiner(|_: &u32, acc: &mut u64, v: u64| *acc += v);
        let cfg = EngineConfig::parallel(workers);
        let (plain, pm) = run_round(&inputs, &mapper, &reducer, &cfg).unwrap();
        let (combined, cm) = run_round_combined(&inputs, &mapper, &combiner, &reducer, &cfg).unwrap();
        prop_assert_eq!(plain, combined);
        // Pre-combine pairs equal the uncombined communication.
        prop_assert_eq!(cm.pre_combine_pairs, pm.kv_pairs);
        // Combining cannot increase wire traffic.
        prop_assert!(cm.round.kv_pairs <= pm.kv_pairs);
    }

    /// The combined round and the plain round are one kernel: when no two
    /// emissions of a map chunk share a key the combiner has nothing to
    /// merge, and then the two entry points agree on everything —
    /// outputs, semantic metrics, and the execution picture
    /// (`ShuffleStats`: partition loads, bytes moved, bucket histogram)
    /// that `RoundMetrics`' own equality leaves out. Fails the day the two
    /// paths route, chunk or count differently.
    #[test]
    fn an_idle_combiner_leaves_the_plain_round(
        values in proptest::collection::vec(0u64..1_000, 0..300),
    ) {
        let inputs: Vec<(u64, u64)> = (0u64..).zip(values).collect();
        let n = inputs.len();
        let reducer = FnReducer(|k: &u64, vs: &[u64], emit: &mut dyn FnMut((u64, u64))| {
            emit((*k, vs.iter().fold(0u64, |acc, v| acc.rotate_left(7) ^ v)))
        });
        let combiner = FnCombiner(|k: &u64, _: &mut u64, _: u64| {
            panic!("key {k} repeats within a chunk: the property's premise is broken")
        });
        for workers in [1usize, 2, 5, 16] {
            // Chunks are runs of at most this many consecutive inputs, so
            // positions modulo it are distinct within a chunk — and, past
            // one worker, repeat across chunks.
            let chunk = n.div_ceil(workers.min(n).max(1)).max(1) as u64;
            let mapper = FnMapper(move |&(i, v): &(u64, u64), emit: &mut dyn FnMut(u64, u64)| {
                emit(i % chunk, v);
                emit(chunk + i % chunk, v ^ i);
            });
            for executor in Executor::ALL {
                let cfg = EngineConfig::parallel(workers).with_executor(executor);
                let (plain, pm) = run_round(&inputs, &mapper, &reducer, &cfg).unwrap();
                let (combined, cm) =
                    run_round_combined(&inputs, &mapper, &combiner, &reducer, &cfg).unwrap();
                let case = format!("workers={workers} on {}", executor.name());
                prop_assert_eq!(&plain, &combined, "outputs, {}", case);
                prop_assert_eq!(&pm, &cm.round, "semantic metrics, {}", case);
                prop_assert_eq!(&pm.shuffle, &cm.round.shuffle, "shuffle stats, {}", case);
                prop_assert_eq!(cm.pre_combine_pairs, pm.kv_pairs, "{}", case);
            }
        }
    }

    /// Two-round pipelines are deterministic across worker counts and
    /// their metrics satisfy the round-communication identity.
    #[test]
    fn pipelines_deterministic_and_metrics_consistent(
        inputs in proptest::collection::vec(0u32..500, 1..300),
        buckets in 1u32..12,
        workers in 2usize..6,
    ) {
        let build = || -> Job<u32, (u32, u64)> {
            let b = buckets;
            Job::single(
                FnMapper(move |x: &u32, emit: &mut dyn FnMut(u32, u32)| emit(x % b, *x)),
                FnReducer(|k: &u32, vs: &[u32], emit: &mut dyn FnMut((u32, u64))| {
                    emit((*k, vs.iter().map(|&v| v as u64).sum()))
                }),
            )
            .then(
                FnMapper(|&(k, s): &(u32, u64), emit: &mut dyn FnMut(u32, u64)| {
                    emit(k % 2, s)
                }),
                FnReducer(|k: &u32, vs: &[u64], emit: &mut dyn FnMut((u32, u64))| {
                    emit((*k, vs.iter().sum()))
                }),
            )
        };
        let (o1, m1) = build().run(inputs.clone(), &EngineConfig::sequential()).unwrap();
        let (o2, m2) = build().run(inputs.clone(), &EngineConfig::parallel(workers)).unwrap();
        prop_assert_eq!(&o1, &o2);
        prop_assert_eq!(&m1, &m2);
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
        let mapper = FnMapper(move |x: &u32, emit: &mut dyn FnMut(u32, u32)| {
            emit(x % buckets, *x)
        });
        let reducer = FnReducer(|_: &u32, _: &[u32], _: &mut dyn FnMut(u32)| {});
        // First measure the true max load without a budget.
        let (_, m) = run_round(&inputs, &mapper, &reducer, &EngineConfig::sequential()).unwrap();
        let max = m.load.max;
        let at = EngineConfig::sequential().with_max_reducer_inputs(max);
        prop_assert!(run_round(&inputs, &mapper, &reducer, &at).is_ok());
        if max > 0 {
            let below = EngineConfig::sequential().with_max_reducer_inputs(max - 1);
            prop_assert!(run_round(&inputs, &mapper, &reducer, &below).is_err());
        }
    }
}
