//! Single-round map-reduce execution.
//!
//! [`run_round`] executes map → shuffle → reduce over an input slice and
//! returns the outputs together with exact [`RoundMetrics`]. Execution is
//! deterministic regardless of worker count: mapper emissions are gathered
//! in input order, the shuffle groups values per key preserving that order,
//! keys are processed in ascending order, and outputs are concatenated in
//! key order.
//!
//! # Shuffle architecture
//!
//! The shuffle is the **columnar radix-partitioned data plane** of the
//! internal `columnar` module: every emission is fingerprinted once at
//! emit time and pushed straight into a flat `(hash, key, value)` column
//! — the top fingerprint bits pick one of `P = min(workers, inputs)`
//! partitions, the low bits a cache-sized radix bucket within it — and
//! each bucket is grouped in `O(n)` by a small open-addressing
//! fingerprint table (an exact sort-based path catches full 64-bit
//! collisions) — no `BTreeMap`, no per-key allocation, no scatter pass.
//! Sorting the per-partition group *directories* by key and
//! P-way-merging them (keys are disjoint across partitions) restores the
//! exact output the old map-based shuffle produced.
//!
//! Every worker count runs the same code: with `workers <= 1` it is one
//! map chunk routing into one partition on the calling thread; with
//! `workers > 1` each map chunk, each partition group-sort and each
//! reduce range is one item of a [`fan_out`] — a task on the resident
//! [`WorkerPool`](crate::WorkerPool). Because each bucket is its chunks'
//! columns concatenated in chunk (= input) order and grouping keeps
//! arrival order, outputs and semantic metrics are identical at every
//! worker count; the dev-only `mr-oracle` crate keeps the original
//! `BTreeMap` pipeline as the oracle for exactly that claim. Only
//! the [`ShuffleStats`] execution metadata (partition count, balance,
//! bytes moved, bucket histogram) varies with the worker count, and that
//! is excluded from metric equality by design.
//!
//! There is one round kernel, [`run_round`]: every production round —
//! a schema's, a DAG node's, a retained delta's routing round — is a call
//! of it.
//!
//! The engine enforces the paper's central constraint when asked: if
//! [`EngineConfig::max_reducer_inputs`] (the paper's `q`) is set and any
//! reducer receives more values, the round fails with
//! [`EngineError::ReducerOverflow`] instead of silently running an
//! over-budget reducer. The parallel path checks each partition
//! concurrently but reports the same offender as the sequential path: the
//! smallest over-budget key in key order.

use crate::columnar::{
    bucket_count, column_of, fingerprint_of, group_buckets, ColumnBuf, GroupedRun, Shuffled,
};
use crate::mapper::{Mapper, Reducer};
use crate::metrics::{LoadStats, RoundMetrics, ShuffleStats};
use crate::pool::fan_out;
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::OnceLock;

/// Always-on engine counters in the global [`mr_obs`] hub, cached so the
/// per-round cost is two atomic adds.
struct EngineCounters {
    rounds: mr_obs::Counter,
    kv_pairs: mr_obs::Counter,
}

fn engine_counters() -> &'static EngineCounters {
    static COUNTERS: OnceLock<EngineCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| EngineCounters {
        rounds: mr_obs::global().counter("engine.rounds"),
        kv_pairs: mr_obs::global().counter("engine.kv_pairs"),
    })
}

/// Engine configuration for one round.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of worker threads. `0` and `1` both run fully sequentially on
    /// the calling thread; larger values shard the map, shuffle, and reduce
    /// phases across the resident [`WorkerPool`](crate::WorkerPool).
    /// Results are identical either way. The raw value is
    /// preserved as written;
    /// [`effective_workers`](EngineConfig::effective_workers) is the single
    /// place the degenerate `0` is clamped.
    pub workers: usize,
    /// The paper's reducer-size bound `q`: if set, a reducer receiving more
    /// than this many values aborts the round.
    pub max_reducer_inputs: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 1,
            max_reducer_inputs: None,
        }
    }
}

impl EngineConfig {
    /// Sequential execution, no reducer-size enforcement.
    pub fn sequential() -> Self {
        Self::default()
    }

    /// Parallel execution with `workers` threads. The value is stored as
    /// given (including `0`); clamping happens uniformly in
    /// [`effective_workers`](EngineConfig::effective_workers), so
    /// `parallel(0)` and a hand-built `EngineConfig { workers: 0, .. }`
    /// behave identically (sequential execution).
    pub fn parallel(workers: usize) -> Self {
        EngineConfig {
            workers,
            ..Self::default()
        }
    }

    /// The worker count the engine actually uses: `workers` clamped to at
    /// least 1. This is the **only** clamp site — every execution path
    /// (engine, DAGs, schemas, deltas) normalises the degenerate
    /// `workers: 0` through here.
    pub fn effective_workers(&self) -> usize {
        self.workers.max(1)
    }

    /// Sets the reducer-size bound `q`.
    pub fn with_max_reducer_inputs(mut self, q: u64) -> Self {
        self.max_reducer_inputs = Some(q);
        self
    }
}

/// Failure modes of a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A reducer exceeded the configured input budget `q`.
    ReducerOverflow {
        /// `Debug` rendering of the offending reduce-key.
        key: String,
        /// Number of values that arrived at the key.
        load: u64,
        /// The configured bound.
        limit: u64,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ReducerOverflow { key, load, limit } => write!(
                f,
                "reducer {key} received {load} inputs, exceeding the budget q={limit}"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Bytes one `(fingerprint, key, value)` triple occupies in the shuffle
/// columns — the unit behind [`ShuffleStats::bytes_moved`].
fn pair_bytes<K, V>() -> u64 {
    (std::mem::size_of::<u64>() + std::mem::size_of::<K>() + std::mem::size_of::<V>()) as u64
}

/// Executes one map-reduce round — the round kernel, §2.2's one thing
/// called a round: map, route by reducer, reduce.
///
/// Returns the reduce outputs (in ascending key order, emission order
/// within a key) and the round's metrics.
///
/// ```
/// use mr_sim::{run_round, EngineConfig, FnMapper, FnReducer};
/// // Word count (Example 2.5): one emission per word, counts per key.
/// let docs = ["a b a", "b c"];
/// let mapper = FnMapper(|doc: &&str, emit: &mut dyn FnMut(String, u64)| {
///     for w in doc.split_whitespace() {
///         emit(w.to_string(), 1);
///     }
/// });
/// let reducer = FnReducer(|k: &String, vs: &[u64], emit: &mut dyn FnMut((String, u64))| {
///     emit((k.clone(), vs.iter().sum()))
/// });
/// let (out, metrics) = run_round(&docs, &mapper, &reducer, &EngineConfig::sequential()).unwrap();
/// assert_eq!(out, vec![("a".into(), 2), ("b".into(), 2), ("c".into(), 1)]);
/// assert_eq!(metrics.kv_pairs, 5); // five word occurrences crossed the shuffle
/// ```
pub fn run_round<I, K, V, O, M, R>(
    inputs: &[I],
    mapper: &M,
    reducer: &R,
    config: &EngineConfig,
) -> Result<(Vec<O>, RoundMetrics), EngineError>
where
    I: Sync,
    K: Ord + Hash + Debug + Send + Sync + 'static,
    V: Send + Sync,
    O: Send,
    M: Mapper<I, K, V> + ?Sized,
    R: Reducer<K, V, O> + ?Sized,
{
    let workers = config.effective_workers();
    let _round_span = mr_obs::span("engine.round");
    engine_counters().rounds.incr();
    // Partition count: P = workers, clamped to the input size so a huge
    // worker count over a tiny input never spawns more threads (or
    // allocates more buckets) than there are inputs — the same envelope
    // the chunked map and reduce phases have always had.
    let p = workers.min(inputs.len()).max(1);
    let map_span = mr_obs::span("engine.map");
    let partitions = map_phase(inputs, mapper, p);
    drop(map_span);
    let loads: Vec<u64> = partitions
        .iter()
        .map(|chunks| chunks.iter().flatten().map(|b| b.len() as u64).sum())
        .collect();
    let kv_pairs: u64 = loads.iter().sum();
    let mut stats = ShuffleStats::from_partition_loads(&loads);
    stats.bytes_moved = Some(kv_pairs * pair_bytes::<K, V>());
    let shuffle_span = mr_obs::span("engine.shuffle");
    let shuffled = shuffle_phase(partitions, config.max_reducer_inputs, workers)?;
    drop(shuffle_span);
    engine_counters().kv_pairs.add(kv_pairs);
    let reduce_span = mr_obs::span("engine.reduce");
    let outputs = reduce_phase(&shuffled, reducer, workers);
    drop(reduce_span);
    let metrics = round_metrics(
        inputs.len(),
        kv_pairs,
        shuffled.loads(),
        outputs.len(),
        stats,
    );
    Ok((outputs, metrics))
}

/// One shuffle partition's bucket columns: one list of buckets per map
/// chunk, in chunk (= input) order — the input of [`group_buckets`].
type PartitionColumns<K, V> = Vec<Vec<ColumnBuf<K, V>>>;

/// Runs the map phase as one routed pass: each of at most `p` input
/// chunks is one [`fan_out`](fan_out) item ([`map_chunk`])
/// that fingerprints every emission once and pushes it straight into its
/// `(partition, radix bucket)` column. The chunks' columns are then
/// transposed from `[chunk][partition][bucket]` to
/// `[partition][chunk][bucket]`, moving only `Vec` headers. At `p = 1`
/// this is one chunk routing into
/// the radix buckets of one partition.
///
/// The input count `n` sizes the buckets: `bucket_count(n / p)` per
/// partition, so a partition's buckets stay cache-sized, and each
/// chunk's columns are preallocated with ~25% headroom over their share
/// of `n`. However many pairs each input emits, a column that outgrows
/// its share only reallocates: sizing never changes a result.
fn map_phase<I, K, V, M>(inputs: &[I], mapper: &M, p: usize) -> Vec<PartitionColumns<K, V>>
where
    I: Sync,
    K: Hash + Send,
    V: Send,
    M: Mapper<I, K, V> + ?Sized,
{
    let n = inputs.len();
    let bc = bucket_count(n / p);
    // At most `p` chunks (`p <= inputs.len()`, or `p = 1` and no chunk at
    // all when there are no inputs), one fan-out item each.
    let chunks: Vec<&[I]> = inputs.chunks(n.div_ceil(p).max(1)).collect();
    let slots = chunks.len() * p * bc;
    let share = n / slots.max(1);
    let cap = if slots > 1 { share + share / 4 + 8 } else { n };
    let mut partitions: Vec<PartitionColumns<K, V>> =
        (0..p).map(|_| Vec::with_capacity(chunks.len())).collect();
    let routed = if p == 1 {
        fan_out(p, chunks, |c| {
            map_chunk::<true, _, _, _, _>(c, mapper, p, bc, cap)
        })
    } else {
        fan_out(p, chunks, |c| {
            map_chunk::<false, _, _, _, _>(c, mapper, p, bc, cap)
        })
    };
    for columns in routed {
        let mut columns = columns.into_iter();
        for partition in &mut partitions {
            partition.push(columns.by_ref().take(bc).collect());
        }
    }
    partitions
}

/// One map chunk: every emission fingerprinted once and pushed into its
/// [`column_of`] column among `p × bc`, each preallocated for `cap`
/// pairs. Returned partition-major, bucket `b` of partition `pi` at
/// `pi * bc + b`.
///
/// `ONE` says `p = 1` in the type, so the emit closure — which the
/// mapper calls indirectly, one call per pair — is compiled with the
/// partition term of the route folded away. Left in at run time, it
/// cost the sequential `matmul_tree` ≈ 10 % of its time.
#[allow(unsafe_code)]
fn map_chunk<const ONE: bool, I, K, V, M>(
    chunk: &[I],
    mapper: &M,
    p: usize,
    bc: usize,
    cap: usize,
) -> Vec<ColumnBuf<K, V>>
where
    K: Hash,
    M: Mapper<I, K, V> + ?Sized,
{
    let _span = mr_obs::span("engine.map.chunk");
    let p = if ONE { 1 } else { p };
    // Cannot fire: `run_round` clamps `p` to `1 ..= max(inputs, 1)` and
    // `bucket_count` returns `1 ..= 256`, so the product is positive and
    // at most 256 columns per input.
    let n = p
        .checked_mul(bc)
        .filter(|&n| n > 0)
        .expect("a chunk routes into 1 ..= usize::MAX columns");
    let mut columns: Vec<ColumnBuf<K, V>> = (0..n).map(|_| ColumnBuf::with_capacity(cap)).collect();
    for input in chunk {
        mapper.map(input, &mut |k, v| {
            let h = fingerprint_of(&k);
            let column = column_of(h, if ONE { 1 } else { p }, bc);
            // SAFETY: `n = p * bc` did not overflow and `bc >= 1` (checked
            // above), so `column_of`'s `partition_of_hash(h, p) * bc +
            // (h & (bc - 1))` is at most `(p - 1) * bc + bc - 1 < n`, and
            // `columns.len() == n`.
            // Price: bounds-checked, it cost `matmul_tree`
            // `seq_iter_ms_p50` +14.2 % (5/18 pairs better; +18.0 %, 2/10,
            // on the second set of 10) and `hamming_join` +1.8 % (8/18,
            // within noise) — medians of alternated 25 s `mr-perf
            // --trace 0` pairs on a 2-core host, 2026-10-17.
            unsafe { columns.get_unchecked_mut(column) }.push(h, k, v);
        });
    }
    columns
}

/// Groups, key-sorts, budget-checks, and merges the routed partitions —
/// the back half of the shuffle.
///
/// Every partition's buckets are grouped into a [`GroupedRun`]
/// ([`group_buckets`]) and its group directory key-sorted — as its own
/// [`fan_out`](fan_out) item, so concurrently when `workers > 1`
/// and there is more than one partition. If any
/// group exceeds `q`, the error names the globally smallest over-budget
/// key — exactly the key the sequential in-key-order scan would have
/// reported, even when several partitions overflow concurrently. The
/// surviving runs are merged into a [`Shuffled`] view in global ascending
/// key order (keys are disjoint across partitions, so a P-way merge of the
/// sorted directories is exact).
fn shuffle_phase<K, V>(
    partitions: Vec<PartitionColumns<K, V>>,
    q: Option<u64>,
    workers: usize,
) -> Result<Shuffled<K, V>, EngineError>
where
    K: Ord + Debug + Send + 'static,
    V: Send,
{
    let group_one = |chunks: PartitionColumns<K, V>| -> GroupedRun<K, V> {
        let _span = mr_obs::span("engine.group.partition");
        let mut run = group_buckets(chunks);
        run.sort_groups_by_key();
        run
    };
    let runs: Vec<GroupedRun<K, V>> = fan_out(workers, partitions, group_one);

    check_budget(&runs, q)?;
    Ok(Shuffled::merge(runs))
}

/// Enforces the reducer-size budget `q` over key-sorted runs. Each run's
/// directory ascends by key, so the first over-budget group in a run is
/// that run's smallest offender; the globally smallest offender — the
/// exact key a sequential in-key-order scan would report — is the
/// minimum over runs.
fn check_budget<K: Ord + Debug, V>(
    runs: &[GroupedRun<K, V>],
    q: Option<u64>,
) -> Result<(), EngineError> {
    let Some(q) = q else { return Ok(()) };
    let mut worst: Option<(&K, u64)> = None;
    for run in runs {
        if let Some(g) = run.groups.iter().find(|g| u64::from(g.len) > q) {
            if worst.is_none_or(|(wk, _)| g.key < *wk) {
                worst = Some((&g.key, u64::from(g.len)));
            }
        }
    }
    match worst {
        Some((k, load)) => Err(EngineError::ReducerOverflow {
            key: format!("{k:?}"),
            load,
            limit: q,
        }),
        None => Ok(()),
    }
}

/// Assembles [`RoundMetrics`] from per-reducer loads in key order: one
/// sort serves both the summary statistics and the retained raw vector.
fn round_metrics(
    inputs: usize,
    kv_pairs: u64,
    mut loads: Vec<u64>,
    outputs: usize,
    shuffle: ShuffleStats,
) -> RoundMetrics {
    loads.sort_unstable();
    RoundMetrics {
        inputs: inputs as u64,
        kv_pairs,
        reducers: loads.len() as u64,
        outputs: outputs as u64,
        load: LoadStats::from_sorted(&loads),
        loads,
        shuffle,
    }
}

/// Runs the reduce phase over the merged shuffle view, concatenating
/// outputs in ascending key order. The global key order is cut into at
/// most `workers` ranges, each reduced as one
/// [`fan_out`](fan_out) item (a single range runs inline on the
/// caller); range-order concatenation keeps the output identical to
/// sequential.
fn reduce_phase<K, V, O, R>(shuffled: &Shuffled<K, V>, reducer: &R, workers: usize) -> Vec<O>
where
    K: Send + Sync,
    V: Send + Sync,
    O: Send,
    R: Reducer<K, V, O> + ?Sized,
{
    let n = shuffled.len();
    // `max(1)`: an empty shuffle has no ranges, but `step_by` needs a step.
    let chunk = n.div_ceil(workers).max(1);
    let ranges: Vec<(usize, usize)> = (0..n)
        .step_by(chunk)
        .map(|s| (s, (s + chunk).min(n)))
        .collect();
    let results = fan_out(workers, ranges, |(s, e)| {
        let _span = mr_obs::span("engine.reduce.chunk");
        let mut outputs = Vec::with_capacity(e - s);
        shuffled.for_each_in(s..e, |k, vs| {
            reducer.reduce(k, vs, &mut |o| outputs.push(o))
        });
        outputs
    });
    // One exact reservation on the first chunk's buffer, then a block
    // copy per remaining chunk: `Flatten` has no size hint, so collecting
    // through it regrows the result by doubling, one push per output.
    let mut chunks = results.into_iter();
    let mut outputs = chunks.next().unwrap_or_default();
    outputs.reserve_exact(chunks.as_slice().iter().map(Vec::len).sum());
    for mut chunk in chunks {
        outputs.append(&mut chunk);
    }
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{FnMapper, FnReducer};

    /// Word count, the canonical example (Example 2.5).
    fn wordcount(docs: &[&str], config: &EngineConfig) -> (Vec<(String, u64)>, RoundMetrics) {
        let mapper = FnMapper(|doc: &&str, emit: &mut dyn FnMut(String, u64)| {
            for w in doc.split_whitespace() {
                emit(w.to_string(), 1);
            }
        });
        let reducer = FnReducer(
            |k: &String, vs: &[u64], emit: &mut dyn FnMut((String, u64))| {
                emit((k.clone(), vs.iter().sum()))
            },
        );
        run_round(docs, &mapper, &reducer, config).expect("no q bound set")
    }

    #[test]
    fn wordcount_sequential() {
        let docs = ["a b a", "b c", "a"];
        let (out, m) = wordcount(&docs, &EngineConfig::sequential());
        assert_eq!(out, vec![("a".into(), 3), ("b".into(), 2), ("c".into(), 1)]);
        assert_eq!(m.inputs, 3);
        assert_eq!(m.kv_pairs, 6); // six word occurrences
        assert_eq!(m.reducers, 3);
        assert_eq!(m.outputs, 3);
        assert_eq!(m.load.max, 3);
    }

    #[test]
    fn parallel_equals_sequential() {
        let docs: Vec<String> = (0..100)
            .map(|i| format!("w{} w{} shared", i % 7, i % 13))
            .collect();
        let doc_refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let seq = wordcount(&doc_refs, &EngineConfig::sequential());
        for workers in [2, 3, 8] {
            let par = wordcount(&doc_refs, &EngineConfig::parallel(workers));
            assert_eq!(seq.0, par.0, "outputs differ at {workers} workers");
            assert_eq!(seq.1, par.1, "metrics differ at {workers} workers");
        }
    }

    #[test]
    fn reducer_overflow_detected() {
        let inputs: Vec<u32> = (0..10).collect();
        let mapper = FnMapper(|x: &u32, emit: &mut dyn FnMut(u32, u32)| emit(*x % 2, *x));
        let reducer =
            FnReducer(|_: &u32, vs: &[u32], emit: &mut dyn FnMut(u32)| emit(vs.len() as u32));
        let cfg = EngineConfig::sequential().with_max_reducer_inputs(4);
        let err = run_round(&inputs, &mapper, &reducer, &cfg).unwrap_err();
        match err {
            EngineError::ReducerOverflow { load, limit, .. } => {
                assert_eq!(load, 5);
                assert_eq!(limit, 4);
            }
        }
    }

    #[test]
    fn budget_exactly_met_is_ok() {
        let inputs: Vec<u32> = (0..10).collect();
        let mapper = FnMapper(|x: &u32, emit: &mut dyn FnMut(u32, u32)| emit(*x % 2, *x));
        let reducer = FnReducer(|_: &u32, _: &[u32], _: &mut dyn FnMut(u32)| {});
        let cfg = EngineConfig::sequential().with_max_reducer_inputs(5);
        assert!(run_round(&inputs, &mapper, &reducer, &cfg).is_ok());
    }

    #[test]
    fn empty_input_yields_empty_round() {
        let inputs: Vec<u32> = vec![];
        let mapper = FnMapper(|x: &u32, emit: &mut dyn FnMut(u32, u32)| emit(*x, *x));
        let reducer = FnReducer(|_: &u32, _: &[u32], emit: &mut dyn FnMut(u32)| emit(0));
        let (out, m) = run_round(&inputs, &mapper, &reducer, &EngineConfig::sequential()).unwrap();
        assert!(out.is_empty());
        assert_eq!(m.inputs, 0);
        assert_eq!(m.kv_pairs, 0);
        assert_eq!(m.reducers, 0);
    }

    #[test]
    fn values_preserve_emission_order_within_key() {
        // All inputs go to one key; values must arrive in input order.
        let inputs: Vec<u32> = (0..50).collect();
        let mapper = FnMapper(|x: &u32, emit: &mut dyn FnMut(u8, u32)| emit(0, *x));
        let reducer =
            FnReducer(|_: &u8, vs: &[u32], emit: &mut dyn FnMut(Vec<u32>)| emit(vs.to_vec()));
        for cfg in [EngineConfig::sequential(), EngineConfig::parallel(4)] {
            let (out, _) = run_round(&inputs, &mapper, &reducer, &cfg).unwrap();
            assert_eq!(out.len(), 1);
            assert_eq!(out[0], inputs);
        }
    }

    #[test]
    fn mapper_emitting_nothing_is_fine() {
        let inputs = vec![1u32, 2, 3];
        let mapper = FnMapper(|_: &u32, _: &mut dyn FnMut(u32, u32)| {});
        let reducer = FnReducer(|_: &u32, _: &[u32], emit: &mut dyn FnMut(u32)| emit(1));
        let (out, m) = run_round(&inputs, &mapper, &reducer, &EngineConfig::sequential()).unwrap();
        assert!(out.is_empty());
        assert_eq!(m.inputs, 3);
        assert_eq!(m.kv_pairs, 0);
        assert!((m.replication_rate() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn replication_rate_counts_duplicates() {
        // Each input sent to 3 reducers: r = 3 exactly.
        let inputs: Vec<u32> = (0..20).collect();
        let mapper = FnMapper(|x: &u32, emit: &mut dyn FnMut(u32, u32)| {
            for t in 0..3 {
                emit((*x + t) % 5, *x);
            }
        });
        let reducer = FnReducer(|_: &u32, _: &[u32], _: &mut dyn FnMut(u32)| {});
        let (_, m) = run_round(&inputs, &mapper, &reducer, &EngineConfig::sequential()).unwrap();
        assert!((m.replication_rate() - 3.0).abs() < 1e-12);
        assert_eq!(m.reducers, 5);
    }

    #[test]
    fn zero_workers_runs_sequentially() {
        // workers = 0 is a degenerate config users can build by hand; it
        // must behave exactly like the sequential engine, not hang or
        // panic trying to spawn zero threads.
        let docs = ["a b a", "b c", "a"];
        let zero = EngineConfig {
            workers: 0,
            ..EngineConfig::default()
        };
        let (out, m) = wordcount(&docs, &zero);
        let (seq_out, seq_m) = wordcount(&docs, &EngineConfig::sequential());
        assert_eq!(out, seq_out);
        assert_eq!(m, seq_m);
    }

    #[test]
    fn zero_workers_clamped_in_exactly_one_place() {
        // Both entry points preserve the raw value and defer the clamp to
        // effective_workers(): parallel(0) is no longer silently rewritten
        // to 1, and a hand-built config normalises identically.
        let ctor = EngineConfig::parallel(0);
        assert_eq!(ctor.workers, 0, "constructor must not rewrite the value");
        assert_eq!(ctor.effective_workers(), 1);
        let hand = EngineConfig {
            workers: 0,
            ..EngineConfig::default()
        };
        assert_eq!(hand.effective_workers(), 1);
        assert_eq!(EngineConfig::parallel(6).effective_workers(), 6);
        // And through the engine: both degenerate configs run sequentially.
        let docs = ["a b a", "b c", "a"];
        let (seq_out, seq_m) = wordcount(&docs, &EngineConfig::sequential());
        for cfg in [ctor, hand] {
            let (out, m) = wordcount(&docs, &cfg);
            assert_eq!(out, seq_out);
            assert_eq!(m, seq_m);
        }
    }

    #[test]
    fn empty_input_parallel_yields_empty_round() {
        // Empty input with a multi-worker config: no chunks, no threads,
        // empty output, zeroed metrics.
        let inputs: Vec<u32> = vec![];
        let mapper = FnMapper(|x: &u32, emit: &mut dyn FnMut(u32, u32)| emit(*x, *x));
        let reducer = FnReducer(|_: &u32, _: &[u32], emit: &mut dyn FnMut(u32)| emit(0));
        let (out, m) = run_round(&inputs, &mapper, &reducer, &EngineConfig::parallel(8)).unwrap();
        assert!(out.is_empty());
        assert_eq!(m.inputs, 0);
        assert_eq!(m.kv_pairs, 0);
        assert_eq!(m.reducers, 0);
    }

    #[test]
    fn reducer_overflow_reports_offending_key() {
        // Exactly one key is over budget: the first 3 inputs all map to
        // key 7, every other input gets its own key.
        let inputs: Vec<u32> = (0..10).collect();
        let mapper = FnMapper(|x: &u32, emit: &mut dyn FnMut(u32, u32)| {
            if *x < 3 {
                emit(7, *x);
            } else {
                emit(100 + *x, *x);
            }
        });
        let reducer = FnReducer(|_: &u32, _: &[u32], _: &mut dyn FnMut(u32)| {});
        let cfg = EngineConfig::sequential().with_max_reducer_inputs(2);
        let err = run_round(&inputs, &mapper, &reducer, &cfg).unwrap_err();
        let EngineError::ReducerOverflow { key, load, limit } = err;
        assert_eq!(key, "7");
        assert_eq!(load, 3);
        assert_eq!(limit, 2);
    }

    #[test]
    fn overflow_error_displays_key_load_and_limit() {
        let err = EngineError::ReducerOverflow {
            key: "\"hub\"".into(),
            load: 12,
            limit: 8,
        };
        let msg = err.to_string();
        assert!(msg.contains("\"hub\""), "missing key in: {msg}");
        assert!(msg.contains("12"), "missing load in: {msg}");
        assert!(msg.contains("q=8"), "missing limit in: {msg}");
    }

    #[test]
    fn overflow_precedes_reduce_regardless_of_workers() {
        // The q check runs on the shuffled groups, before any reducer
        // executes — so parallel and sequential runs fail identically.
        let inputs: Vec<u32> = (0..100).collect();
        let mapper = FnMapper(|x: &u32, emit: &mut dyn FnMut(u32, u32)| emit(*x % 4, *x));
        let reducer = FnReducer(|_: &u32, _: &[u32], _: &mut dyn FnMut(u32)| {
            panic!("reducer must not run on an over-budget round")
        });
        for workers in [1usize, 4] {
            let cfg = EngineConfig::parallel(workers).with_max_reducer_inputs(10);
            let err = run_round(&inputs, &mapper, &reducer, &cfg).unwrap_err();
            let EngineError::ReducerOverflow { load, limit, .. } = err;
            assert_eq!(load, 25);
            assert_eq!(limit, 10);
        }
    }

    #[test]
    fn determinism_across_worker_counts_thousand_keys() {
        // Acceptance gate for the std::thread::scope port: ≥ 1000 distinct
        // reduce keys, and every worker count produces byte-identical
        // outputs AND metrics to the sequential run.
        let inputs: Vec<u64> = (0..5_000).collect();
        let mapper = FnMapper(|x: &u64, emit: &mut dyn FnMut(u64, u64)| {
            // 2 emissions per input over 1250 keys → every key gets 8 values.
            emit(*x % 1250, *x);
            emit((x * 7 + 3) % 1250, x * x);
        });
        let reducer = FnReducer(
            |k: &u64, vs: &[u64], emit: &mut dyn FnMut((u64, u64, u64))| {
                emit((*k, vs.len() as u64, vs.iter().fold(0u64, |a, v| a ^ v)))
            },
        );
        let (seq_out, seq_m) =
            run_round(&inputs, &mapper, &reducer, &EngineConfig::sequential()).unwrap();
        assert!(
            seq_m.reducers >= 1000,
            "need ≥1000 keys, got {}",
            seq_m.reducers
        );
        for workers in [2usize, 3, 4, 7, 16] {
            let (out, m) =
                run_round(&inputs, &mapper, &reducer, &EngineConfig::parallel(workers)).unwrap();
            assert_eq!(seq_out, out, "outputs diverged at workers={workers}");
            assert_eq!(seq_m, m, "metrics diverged at workers={workers}");
        }
    }

    #[test]
    fn huge_worker_count_on_tiny_input_is_clamped() {
        // Regression: P must be clamped to the input size, or a config
        // like parallel(100_000) over 4 inputs would allocate 100k bucket
        // Vecs per map worker and spawn 100k grouping threads. With the
        // clamp, thread count per phase never exceeds inputs.len() —
        // the envelope the chunked map/reduce phases have always had.
        let docs = ["a b a", "b c", "a"];
        let (seq_out, seq_m) = wordcount(&docs, &EngineConfig::sequential());
        let (out, m) = wordcount(&docs, &EngineConfig::parallel(100_000));
        assert_eq!(out, seq_out);
        assert_eq!(m, seq_m);
        assert!(
            m.shuffle.partitions <= docs.len() as u64,
            "partitions must be clamped to the input size, got {}",
            m.shuffle.partitions
        );
    }

    #[test]
    fn shuffle_stats_reflect_partitioning() {
        let inputs: Vec<u64> = (0..4_000).collect();
        let mapper = FnMapper(|x: &u64, emit: &mut dyn FnMut(u64, u64)| emit(*x % 997, *x));
        let reducer =
            FnReducer(|_: &u64, vs: &[u64], emit: &mut dyn FnMut(u64)| emit(vs.len() as u64));
        let (_, seq) = run_round(&inputs, &mapper, &reducer, &EngineConfig::sequential()).unwrap();
        assert_eq!(seq.shuffle.partitions, 1);
        assert_eq!(seq.shuffle.max_partition_load, seq.kv_pairs);
        for workers in [2usize, 4, 8] {
            let (_, par) =
                run_round(&inputs, &mapper, &reducer, &EngineConfig::parallel(workers)).unwrap();
            assert_eq!(
                par.shuffle.partitions, workers as u64,
                "P must equal workers"
            );
            // Partition loads are a partition of the shuffled pairs.
            let mean_total = par.shuffle.mean_partition_load * workers as f64;
            assert!((mean_total - par.kv_pairs as f64).abs() < 1e-6);
            assert!(par.shuffle.min_partition_load <= par.shuffle.max_partition_load);
            // 997 well-spread keys over ≤8 partitions: skew stays modest.
            assert!(par.shuffle.partition_skew() >= 1.0);
            assert!(par.shuffle.partition_skew() < 2.0, "unexpectedly skewed");
        }
    }

    #[test]
    fn shuffle_stats_report_bytes_and_buckets() {
        // bytes_moved = pairs × (8-byte fingerprint + key + value), and the
        // bucket histogram partitions the pair count.
        let inputs: Vec<u64> = (0..4_000).collect();
        let mapper = FnMapper(|x: &u64, emit: &mut dyn FnMut(u64, u64)| emit(*x % 997, *x));
        let reducer = FnReducer(|_: &u64, _: &[u64], _: &mut dyn FnMut(u64)| {});
        for workers in [1usize, 4] {
            let (_, m) =
                run_round(&inputs, &mapper, &reducer, &EngineConfig::parallel(workers)).unwrap();
            assert_eq!(m.shuffle.bytes_moved, Some(m.kv_pairs * (8 + 8 + 8)));
            assert_eq!(m.shuffle.bucket_loads.iter().sum::<u64>(), m.kv_pairs);
            assert_eq!(m.shuffle.bucket_loads.len() as u64, m.shuffle.partitions);
        }
    }

    #[test]
    fn single_hot_key_maximises_partition_skew() {
        // All pairs share one key, so one partition carries everything:
        // skew = max/mean = P, the engine-level picture of a §1.4 hub.
        let inputs: Vec<u64> = (0..100).collect();
        let mapper = FnMapper(|x: &u64, emit: &mut dyn FnMut(u8, u64)| emit(0, *x));
        let reducer =
            FnReducer(|_: &u8, vs: &[u64], emit: &mut dyn FnMut(u64)| emit(vs.len() as u64));
        let (out, m) = run_round(&inputs, &mapper, &reducer, &EngineConfig::parallel(4)).unwrap();
        assert_eq!(out, vec![100]);
        assert_eq!(m.shuffle.partitions, 4);
        assert_eq!(m.shuffle.max_partition_load, 100);
        assert_eq!(m.shuffle.min_partition_load, 0);
        assert!((m.shuffle.partition_skew() - 4.0).abs() < 1e-12);
    }
}
