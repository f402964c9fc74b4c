//! Map-side combining.
//!
//! A *combiner* merges the values a single map worker emits for the same
//! key before the shuffle — the classic MapReduce optimisation for
//! associative-commutative reduce functions. The paper's replication rate
//! counts **pre-combine** pairs (each input's key-value pairs, §2.2);
//! combining lowers the *wire* communication below `r·|I|` without
//! changing the mapping schema. [`run_round_combined`] measures both
//! numbers so the gap is visible.
//!
//! The combine is a stage of the engine's one round kernel, not a
//! pipeline of its own: each map chunk's emission column is grouped with
//! the same radix/code-sort pass the shuffle uses and every group folded
//! to one combined value before the column is scattered to partitions.
//! Everything before and after that stage is [`run_round`](crate::run_round).

use crate::engine::{round, EngineConfig, EngineError};
use crate::mapper::{Mapper, Reducer};
use crate::metrics::RoundMetrics;
use std::fmt::Debug;
use std::hash::Hash;

/// Merges the accumulated value with one more emitted value.
///
/// Must be associative and order-insensitive with respect to the final
/// reduce result for the engine's output to be independent of the worker
/// count (e.g. sums, min/max, set union).
pub trait Combiner<K, V>: Sync {
    /// Folds `next` into `acc`.
    fn combine(&self, key: &K, acc: &mut V, next: V);
}

/// Adapts a closure `Fn(&K, &mut V, V)` into a [`Combiner`].
pub struct FnCombiner<F>(pub F);

impl<K, V, F> Combiner<K, V> for FnCombiner<F>
where
    F: Fn(&K, &mut V, V) + Sync,
{
    fn combine(&self, key: &K, acc: &mut V, next: V) {
        (self.0)(key, acc, next)
    }
}

/// Metrics for a combined round: the standard [`RoundMetrics`] describe
/// the *post-combine* (wire) traffic; `pre_combine_pairs` preserves the
/// paper's replication accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct CombinedMetrics {
    /// Wire-level metrics (after combining).
    pub round: RoundMetrics,
    /// Key-value pairs emitted by mappers before combining — the
    /// numerator of the paper's replication rate.
    pub pre_combine_pairs: u64,
}

impl CombinedMetrics {
    /// The paper's replication rate: pre-combine pairs per input.
    pub fn model_replication_rate(&self) -> f64 {
        self.pre_combine_pairs as f64 / self.round.inputs as f64
    }

    /// Communication saved by the combiner (pairs).
    pub fn pairs_saved(&self) -> u64 {
        self.pre_combine_pairs - self.round.kv_pairs
    }
}

/// Executes map → (per-worker combine) → shuffle → reduce.
///
/// Each map worker combines its own emissions per key before they enter
/// the shuffle, exactly like Hadoop's combiner running on mapper output.
/// The reduce function then sees one value per (worker, key) pair, in
/// worker order.
///
/// With `workers > 1` the post-combine shuffle is hash-partitioned like
/// the plain engine's — it *is* the plain engine's. Combiner accounting
/// stays exact under partitioning: `pre_combine_pairs` is counted per
/// worker before the combine, and the wire pair count is the sum of
/// partition loads, so neither depends on how keys hash.
pub fn run_round_combined<I, K, V, O>(
    inputs: &[I],
    mapper: &dyn Mapper<I, K, V>,
    combiner: &dyn Combiner<K, V>,
    reducer: &dyn Reducer<K, V, O>,
    config: &EngineConfig,
) -> Result<(Vec<O>, CombinedMetrics), EngineError>
where
    I: Sync,
    K: Ord + Hash + Clone + Debug + Send + Sync + 'static,
    V: Send + Sync,
    O: Send,
{
    let (outputs, wire, pre_combine_pairs) =
        round(inputs, mapper, Some(combiner), reducer, config)?;
    let metrics = CombinedMetrics {
        round: wire,
        pre_combine_pairs,
    };
    Ok((outputs, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_round;
    use crate::mapper::{FnMapper, FnReducer};

    type WcMapper = FnMapper<fn(&String, &mut dyn FnMut(String, u64))>;
    type WcReducer = FnReducer<fn(&String, &[u64], &mut dyn FnMut((String, u64)))>;

    fn wordcount_mapper() -> WcMapper {
        FnMapper(|doc, emit| {
            for w in doc.split_whitespace() {
                emit(w.to_string(), 1);
            }
        })
    }

    fn sum_reducer() -> WcReducer {
        FnReducer(|k, vs, emit| emit((k.clone(), vs.iter().sum())))
    }

    fn corpus() -> Vec<String> {
        (0..200)
            .map(|i| format!("a b{} c{} a a", i % 5, i % 3))
            .collect()
    }

    #[test]
    fn combined_output_equals_uncombined() {
        let docs = corpus();
        let combiner = FnCombiner(|_: &String, acc: &mut u64, v: u64| *acc += v);
        let (plain, _) = run_round(
            &docs,
            &wordcount_mapper(),
            &sum_reducer(),
            &EngineConfig::sequential(),
        )
        .unwrap();
        for workers in [1usize, 4] {
            let cfg = EngineConfig::parallel(workers);
            let (combined, m) =
                run_round_combined(&docs, &wordcount_mapper(), &combiner, &sum_reducer(), &cfg)
                    .unwrap();
            assert_eq!(plain, combined, "workers={workers}");
            // The combiner must save traffic: 200 docs × 5 words pre,
            // ≤ workers × distinct-words post.
            assert_eq!(m.pre_combine_pairs, 1000);
            assert!(m.round.kv_pairs <= (workers as u64) * 9);
            assert!(m.pairs_saved() > 900);
        }
    }

    #[test]
    fn model_replication_rate_is_pre_combine() {
        // The paper's r counts mapper emissions, not wire pairs: word
        // count remains r = 5 per document under the document view even
        // though the combiner collapses the wire traffic.
        let docs = corpus();
        let combiner = FnCombiner(|_: &String, acc: &mut u64, v: u64| *acc += v);
        let (_, m) = run_round_combined(
            &docs,
            &wordcount_mapper(),
            &combiner,
            &sum_reducer(),
            &EngineConfig::sequential(),
        )
        .unwrap();
        assert!((m.model_replication_rate() - 5.0).abs() < 1e-12);
        assert!(m.round.replication_rate() < 1.0); // wire rate collapsed
    }

    #[test]
    fn q_budget_applies_post_combine() {
        // With a combiner, per-key load is the number of workers, so a
        // q = workers budget passes where the raw job would overflow.
        let docs = corpus();
        let combiner = FnCombiner(|_: &String, acc: &mut u64, v: u64| *acc += v);
        let cfg = EngineConfig::parallel(4).with_max_reducer_inputs(4);
        assert!(
            run_round_combined(&docs, &wordcount_mapper(), &combiner, &sum_reducer(), &cfg).is_ok()
        );
        assert!(run_round(&docs, &wordcount_mapper(), &sum_reducer(), &cfg).is_err());
    }

    #[test]
    fn huge_worker_count_on_tiny_input_is_clamped() {
        // Regression twin of the engine test: the combined path's
        // partition count is clamped to the input size too.
        let docs: Vec<String> = vec!["a b".into(), "b c".into()];
        let combiner = FnCombiner(|_: &String, acc: &mut u64, v: u64| *acc += v);
        let (seq, _) = run_round_combined(
            &docs,
            &wordcount_mapper(),
            &combiner,
            &sum_reducer(),
            &EngineConfig::sequential(),
        )
        .unwrap();
        let (par, m) = run_round_combined(
            &docs,
            &wordcount_mapper(),
            &combiner,
            &sum_reducer(),
            &EngineConfig::parallel(100_000),
        )
        .unwrap();
        assert_eq!(seq, par);
        assert!(m.round.shuffle.partitions <= docs.len() as u64);
    }

    #[test]
    fn empty_input() {
        let docs: Vec<String> = vec![];
        let combiner = FnCombiner(|_: &String, acc: &mut u64, v: u64| *acc += v);
        let (out, m) = run_round_combined(
            &docs,
            &wordcount_mapper(),
            &combiner,
            &sum_reducer(),
            &EngineConfig::sequential(),
        )
        .unwrap();
        assert!(out.is_empty());
        assert_eq!(m.pre_combine_pairs, 0);
    }

    #[test]
    fn min_combiner() {
        let inputs: Vec<(u32, i64)> = (0..100).map(|i| (i % 7, 100 - i as i64)).collect();
        let mapper = FnMapper(|&(k, v): &(u32, i64), emit: &mut dyn FnMut(u32, i64)| emit(k, v));
        let combiner = FnCombiner(|_: &u32, acc: &mut i64, v: i64| *acc = (*acc).min(v));
        let reducer = FnReducer(|k: &u32, vs: &[i64], emit: &mut dyn FnMut((u32, i64))| {
            emit((*k, *vs.iter().min().unwrap()))
        });
        let (seq, _) = run_round_combined(
            &inputs,
            &mapper,
            &combiner,
            &reducer,
            &EngineConfig::sequential(),
        )
        .unwrap();
        let (par, _) = run_round_combined(
            &inputs,
            &mapper,
            &combiner,
            &reducer,
            &EngineConfig::parallel(3),
        )
        .unwrap();
        assert_eq!(seq, par);
        // Spot-check one group: keys 0..7, min over arithmetic sequence.
        let expected_min_for_0 = (0..100)
            .filter(|i| i % 7 == 0)
            .map(|i| 100 - i as i64)
            .min()
            .unwrap();
        assert!(seq.contains(&(0, expected_min_for_0)));
    }
}
