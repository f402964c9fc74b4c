//! The round kernel: one map-reduce round over a [`SchemaJob`].
//!
//! [`run_schema`] executes map → shuffle → reduce over an input slice and
//! returns the outputs together with exact [`RoundMetrics`]. The map
//! side is §2.2's assignment: each input is sent, whole, to every reducer
//! [`SchemaJob::assign_into`] names, so every key-value pair is a
//! `(ReducerId, input)` and the shuffle is keyed by reducer id alone.
//! The engine carries such a pair as `(ReducerId, u32)`: the input is
//! named by its position in the round's input slice, never copied into
//! the shuffle, and the reduce phase gathers each reducer's inputs by
//! position, [`BLOCK`] pairs at a time, into the slice
//! [`SchemaJob::reduce`] reads. Execution is deterministic regardless of
//! worker count: emissions are gathered in input order, the shuffle
//! groups positions per reducer preserving that order, reducers run in
//! ascending id order, and outputs are concatenated in that order.
//!
//! # Shuffle architecture
//!
//! The shuffle is the **columnar radix-partitioned data plane** of the
//! internal `columnar` module: every emission's reducer id is
//! fingerprinted at emit time and the pair pushed straight into a flat
//! `(reducer, input position)` column — the top fingerprint bits pick one of `P =
//! min(workers, inputs)` partitions, the low bits a cache-sized radix
//! bucket within it — and each bucket is grouped in `O(n)` by a small
//! open-addressing table that compares reducer ids (the fingerprint only
//! picks where a probe starts) — no `BTreeMap`, no per-key allocation,
//! no scatter pass.
//! Sorting the per-partition group *directories* by reducer id and
//! P-way-merging them (ids are disjoint across partitions) restores the
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
//! There is one round kernel, [`run_schema`]: every production round —
//! a registry family's, a DAG node's — is a call of it. A retained delta
//! runs no round to route its changes: it sorts them by reducer and
//! prices the shuffle it skipped (`metrics::price_round`).
//!
//! The engine enforces the paper's central constraint when asked: if
//! [`EngineConfig::max_reducer_inputs`] (the paper's `q`) is set and any
//! reducer receives more values, the round fails with
//! [`EngineError::ReducerOverflow`] instead of silently running an
//! over-budget reducer. The parallel path checks each partition
//! concurrently but reports the same offender as the sequential path: the
//! smallest over-budget reducer id.

use crate::columnar::{
    bucket_count, column_of, fingerprint_of, group_buckets, ColumnBuf, GroupedRun, Shuffled,
};
use crate::metrics::{LoadStats, RoundMetrics, ShuffleStats};
use crate::pool::fan_out;
use crate::schema::{ReducerId, SchemaJob};
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
        /// The offending reducer.
        key: ReducerId,
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

/// Bytes one `(reducer id, input)` pair — §2.2's key-value pair, an
/// 8-byte id beside the whole input — occupies: the unit behind
/// [`ShuffleStats::bytes_moved`], which therefore reports what the
/// paper's pairs would move. The engine itself moves 12 B per pair
/// whatever the input type: the id and the input's `u32` position.
pub(crate) fn pair_bytes<V>() -> u64 {
    (std::mem::size_of::<ReducerId>() + std::mem::size_of::<V>()) as u64
}

/// The shuffle partition count of a round over `inputs` inputs: `P =
/// workers`, clamped to the input size so a huge worker count over a
/// tiny input never spawns more threads (or allocates more buckets) than
/// there are inputs — the same envelope the chunked map and reduce phases
/// have always had.
pub(crate) fn partition_count(workers: usize, inputs: usize) -> usize {
    workers.min(inputs).max(1)
}

/// Executes one map-reduce round — the round kernel, §2.2's one thing
/// called a round: send each input to the reducers its assignment names,
/// group by reducer, reduce.
///
/// Returns the reduce outputs (in ascending reducer order, emission order
/// within a reducer) and the round's metrics; the metrics'
/// [`replication_rate`](RoundMetrics::replication_rate) is exactly the
/// schema's `Σ qᵢ / |I|` from §2.2 evaluated on the given instance.
///
/// ```
/// use mr_sim::{run_schema, EngineConfig, FnSchema, ReducerId};
/// // Word count (Example 2.5) over word occurrences: each occurrence is
/// // sent to the reducer of its word, which counts what it receives.
/// const VOCABULARY: [&str; 3] = ["a", "b", "c"];
/// let word_id = |w: &&str| VOCABULARY.iter().position(|v| v == w).unwrap() as ReducerId;
/// let count = FnSchema(
///     |w: &&str, emit: &mut dyn FnMut(ReducerId)| emit(word_id(w)),
///     |r: ReducerId, ws: &[&str], emit: &mut dyn FnMut((&'static str, usize))| {
///         emit((VOCABULARY[r as usize], ws.len()))
///     },
/// );
/// let occurrences = ["a", "b", "a", "b", "c"];
/// let (out, metrics) = run_schema(&occurrences, &count, &EngineConfig::sequential()).unwrap();
/// assert_eq!(out, vec![("a", 2), ("b", 2), ("c", 1)]);
/// assert_eq!(metrics.kv_pairs, 5); // five word occurrences crossed the shuffle
/// ```
///
/// # Panics
///
/// A round over more than `u32::MAX` inputs is refused with a panic
/// before any input is mapped: each pair names its input by a `u32`
/// position. A panic in the schema's `assign_into` or `reduce` reaches
/// the caller as the panic the `workers = 1` run would raise.
pub fn run_schema<I, O, S>(
    inputs: &[I],
    schema: &S,
    config: &EngineConfig,
) -> Result<(Vec<O>, RoundMetrics), EngineError>
where
    I: Clone + Send + Sync,
    O: Send,
    S: SchemaJob<I, O> + ?Sized,
{
    assert!(
        u32::try_from(inputs.len()).is_ok(),
        "a round of {} inputs exceeds the u32 position space",
        inputs.len()
    );
    let workers = config.effective_workers();
    let _round_span = mr_obs::span("engine.round");
    engine_counters().rounds.incr();
    let p = partition_count(workers, inputs.len());
    let map_span = mr_obs::span("engine.map");
    let partitions = map_phase(inputs, schema, p);
    drop(map_span);
    let loads: Vec<u64> = partitions
        .iter()
        .map(|chunks| chunks.iter().flatten().map(|b| b.len() as u64).sum())
        .collect();
    let kv_pairs: u64 = loads.iter().sum();
    let mut stats = ShuffleStats::from_partition_loads(&loads);
    stats.bytes_moved = Some(kv_pairs * pair_bytes::<I>());
    let shuffle_span = mr_obs::span("engine.shuffle");
    let shuffled = shuffle_phase(partitions, config.max_reducer_inputs, workers)?;
    drop(shuffle_span);
    engine_counters().kv_pairs.add(kv_pairs);
    let reduce_span = mr_obs::span("engine.reduce");
    let outputs = reduce_phase(inputs, &shuffled, schema, workers);
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
type PartitionColumns = Vec<Vec<ColumnBuf>>;

/// Runs the map phase as one routed pass: each of at most `p` input
/// chunks is one [`fan_out`](fan_out) item ([`map_chunk`])
/// that fingerprints every emission's reducer id and pushes the pair
/// straight into its `(partition, radix bucket)` column. The chunks'
/// columns are then transposed from `[chunk][partition][bucket]` to
/// `[partition][chunk][bucket]`, moving only `Vec` headers. At `p = 1`
/// this is one chunk routing into
/// the radix buckets of one partition.
///
/// The input count `n` sizes the buckets: `bucket_count(n / p)` per
/// partition, so a partition's buckets stay cache-sized, and each
/// chunk's columns are preallocated with ~25% headroom over their share
/// of `n`. However many reducers each input is sent to, a column that
/// outgrows its share only reallocates: sizing never changes a result.
fn map_phase<I, O, S>(inputs: &[I], schema: &S, p: usize) -> Vec<PartitionColumns>
where
    I: Sync,
    S: SchemaJob<I, O> + ?Sized,
{
    let n = inputs.len();
    let bc = bucket_count(n / p);
    // At most `p` chunks (`p <= inputs.len()`, or `p = 1` and no chunk at
    // all when there are no inputs), one fan-out item each, with the
    // position of its first input (`run_schema` bounds every position by
    // `u32::MAX`).
    let size = n.div_ceil(p).max(1);
    let chunks: Vec<(&[I], u32)> = inputs.chunks(size).zip((0u32..).step_by(size)).collect();
    let slots = chunks.len() * p * bc;
    let share = n / slots.max(1);
    let cap = if slots > 1 { share + share / 4 + 8 } else { n };
    let mut partitions: Vec<PartitionColumns> =
        (0..p).map(|_| Vec::with_capacity(chunks.len())).collect();
    let routed = if p == 1 {
        fan_out(p, chunks, |(c, base)| {
            map_chunk::<true, I, O, S>(c, base, schema, p, bc, cap)
        })
    } else {
        fan_out(p, chunks, |(c, base)| {
            map_chunk::<false, I, O, S>(c, base, schema, p, bc, cap)
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

/// One map chunk, whose first input sits at position `base` of the
/// round's input slice: every input sent to each reducer its assignment
/// names — each reducer id fingerprinted and pushed, with the input's
/// position (never the input), into its [`column_of`] column among
/// `p × bc`, each preallocated for `cap` pairs. Returned
/// partition-major, bucket `b` of partition `pi` at `pi * bc + b`.
///
/// `ONE` says `p = 1` in the type, so the emit closure — which the
/// assignment calls indirectly, one call per pair — is compiled with the
/// partition term of the route folded away. Left in at run time, it
/// cost the sequential `matmul_tree` ≈ 10 % of its time. The column
/// index is bounds-checked: an unchecked index measured no faster (10
/// alternated 25 s `mr-perf --trace 0` pairs on a 2-core host, 2026-10-19;
/// the checked form read `matmul_tree` `seq_iter_ms_p50` −4.3 %, 7/10
/// pairs better, and `hamming_join` −1.3 %, 5/10).
fn map_chunk<const ONE: bool, I, O, S>(
    chunk: &[I],
    base: u32,
    schema: &S,
    p: usize,
    bc: usize,
    cap: usize,
) -> Vec<ColumnBuf>
where
    S: SchemaJob<I, O> + ?Sized,
{
    let _span = mr_obs::span("engine.map.chunk");
    let p = if ONE { 1 } else { p };
    // Cannot fire: `run_schema` clamps `p` to `1 ..= max(inputs, 1)` and
    // `bucket_count` returns `1 ..= 256`, so the product is positive and
    // at most 256 columns per input.
    let n = p
        .checked_mul(bc)
        .filter(|&n| n > 0)
        .expect("a chunk routes into 1 ..= usize::MAX columns");
    let mut columns: Vec<ColumnBuf> = (0..n).map(|_| ColumnBuf::with_capacity(cap)).collect();
    for (input, position) in chunk.iter().zip(base..) {
        schema.assign_into(input, &mut |rid| {
            let column = column_of(fingerprint_of(rid), if ONE { 1 } else { p }, bc);
            columns[column].push(rid, position);
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
fn shuffle_phase(
    partitions: Vec<PartitionColumns>,
    q: Option<u64>,
    workers: usize,
) -> Result<Shuffled, EngineError> {
    let group_one = |chunks: PartitionColumns| -> GroupedRun {
        let _span = mr_obs::span("engine.group.partition");
        let mut run = group_buckets(chunks);
        run.sort_groups_by_key();
        run
    };
    let runs: Vec<GroupedRun> = fan_out(workers, partitions, group_one);

    check_budget(&runs, q)?;
    Ok(Shuffled::merge(runs))
}

/// Enforces the reducer-size budget `q` over key-sorted runs. Each run's
/// directory ascends by reducer id, so the first over-budget group in a
/// run is that run's smallest offender; the globally smallest offender —
/// the exact reducer a sequential in-order scan would report — is the
/// minimum over runs.
fn check_budget(runs: &[GroupedRun], q: Option<u64>) -> Result<(), EngineError> {
    let Some(q) = q else { return Ok(()) };
    let mut worst: Option<(u64, u64)> = None;
    for run in runs {
        if let Some(g) = run.groups.iter().find(|g| u64::from(g.len) > q) {
            if worst.is_none_or(|(wk, _)| g.key < wk) {
                worst = Some((g.key, u64::from(g.len)));
            }
        }
    }
    match worst {
        Some((key, load)) => Err(EngineError::ReducerOverflow {
            key,
            load,
            limit: q,
        }),
        None => Ok(()),
    }
}

/// Assembles [`RoundMetrics`] from per-reducer loads in key order: one
/// sort serves both the summary statistics and the retained raw vector.
pub(crate) fn round_metrics(
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

/// Pairs the reduce phase gathers per block: consecutive groups are
/// cloned, by position, into one reused buffer until the next group would
/// take it past `BLOCK` pairs, and then each group's sub-slice is
/// reduced. A group larger than `BLOCK` is a block of its own.
///
/// Gathering a whole block in one tight loop, rather than one group
/// before each `reduce`, is what keeps narrow inputs from losing to the
/// copies the shuffle no longer makes: a per-group gather (`BLOCK = 1`)
/// read `hamming_join` (8-byte inputs, 8 per reducer) `iter_ms_p50`
/// +19.5 % and `seq_iter_ms_p50` +18.9 % against 512 (0/4 pairs better).
/// 256, 512 and 1024 were tried, each in 4 alternated 25 s
/// `mr-perf --trace 0` pairs against 512 on a 2-core host, 2026-10-19:
/// 256 read `hamming_join` `iter_ms_p50` +9.1 % (1/4) and `matmul_tree`
/// −3.0 % (3/4); 1024 read `matmul_tree` `iter_ms_p50` +15.4 % (1/4) and
/// `hamming_join` `seq_iter_ms_p50` −2.3 % (4/4). 512 loses on neither.
pub const BLOCK: usize = 512;

/// Runs the reduce phase over the merged shuffle view, concatenating
/// outputs in ascending reducer order. The global order is cut into at
/// most `workers` ranges, each reduced as one
/// [`fan_out`](fan_out) item (a single range runs inline on the
/// caller) through its own [`Gather`]; range-order concatenation keeps
/// the output identical to sequential.
fn reduce_phase<I, O, S>(inputs: &[I], shuffled: &Shuffled, schema: &S, workers: usize) -> Vec<O>
where
    I: Clone + Sync,
    O: Send,
    S: SchemaJob<I, O> + ?Sized,
{
    let n = shuffled.len();
    // `max(1)`: an empty shuffle has no ranges, but `step_by` needs a step.
    let chunk = n.div_ceil(workers).max(1);
    let ranges: Vec<(usize, usize)> = (0..n)
        .step_by(chunk)
        .map(|s| (s, (s + chunk).min(n)))
        .collect();
    // A round with fewer pairs than a block never allocates a whole one.
    let block = shuffled.pairs().min(BLOCK);
    let results = fan_out(workers, ranges, |(s, e)| {
        let _span = mr_obs::span("engine.reduce.chunk");
        let mut gather = Gather {
            inputs,
            schema,
            gathered: Vec::with_capacity(block),
            groups: Vec::with_capacity((e - s).min(BLOCK)),
            outputs: Vec::with_capacity(e - s),
        };
        shuffled.for_each_in(s..e, |rid, positions| gather.push(rid, positions));
        gather.flush();
        gather.outputs
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

/// One reduce range's block gather: the inputs of up to [`BLOCK`] pairs'
/// worth of consecutive groups, cloned by position into `gathered`, with
/// each group's reducer id and input count in `groups`.
struct Gather<'a, I, O, S: ?Sized> {
    /// The round's inputs, which the positions index.
    inputs: &'a [I],
    schema: &'a S,
    /// The current block's inputs, group after group.
    gathered: Vec<I>,
    /// The current block's groups, in key order: reducer id and the
    /// number of its inputs in `gathered`.
    groups: Vec<(ReducerId, usize)>,
    /// The range's outputs so far.
    outputs: Vec<O>,
}

impl<I: Clone, O, S: SchemaJob<I, O> + ?Sized> Gather<'_, I, O, S> {
    /// Adds the group of `rid`, whose inputs sit at `positions`, to the
    /// block, reducing the block first if the group would take it past
    /// [`BLOCK`] pairs.
    #[inline]
    fn push(&mut self, rid: ReducerId, positions: &[u32]) {
        if self.gathered.len() + positions.len() > BLOCK {
            self.flush();
        }
        let inputs = self.inputs;
        self.gathered
            .extend(positions.iter().map(|&p| inputs[p as usize].clone()));
        self.groups.push((rid, positions.len()));
    }

    /// Reduces every group of the block, in order, each over its
    /// sub-slice of the gathered inputs, and empties the block.
    fn flush(&mut self) {
        let mut start = 0;
        for &(rid, len) in &self.groups {
            let outputs = &mut self.outputs;
            self.schema
                .reduce(rid, &self.gathered[start..start + len], &mut |o| {
                    outputs.push(o)
                });
            start += len;
        }
        self.groups.clear();
        self.gathered.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FnSchema;

    /// A word of at most 8 bytes as a reducer id that sorts like the word.
    fn word_id(word: &str) -> ReducerId {
        let mut bytes = [0u8; 8];
        bytes[..word.len()].copy_from_slice(word.as_bytes());
        u64::from_be_bytes(bytes)
    }

    /// Word count, the canonical example (Example 2.5), over the word
    /// occurrences of `docs`: each occurrence goes to its word's reducer.
    fn wordcount(docs: &[&str], config: &EngineConfig) -> (Vec<(String, u64)>, RoundMetrics) {
        let occurrences: Vec<String> = docs
            .iter()
            .flat_map(|doc| doc.split_whitespace().map(String::from))
            .collect();
        let count = FnSchema(
            |w: &String, emit: &mut dyn FnMut(ReducerId)| emit(word_id(w)),
            |_: ReducerId, ws: &[String], emit: &mut dyn FnMut((String, u64))| {
                emit((ws[0].clone(), ws.len() as u64))
            },
        );
        run_schema(&occurrences, &count, config).expect("no q bound set")
    }

    /// Input `x` goes to reducer `x % modulus`; reducers emit nothing.
    fn residues(modulus: u64) -> impl SchemaJob<u64, u64> {
        FnSchema(
            move |x: &u64, emit: &mut dyn FnMut(ReducerId)| emit(x % modulus),
            |_: ReducerId, _: &[u64], _: &mut dyn FnMut(u64)| {},
        )
    }

    #[test]
    fn wordcount_sequential() {
        let docs = ["a b a", "b c", "a"];
        let (out, m) = wordcount(&docs, &EngineConfig::sequential());
        assert_eq!(out, vec![("a".into(), 3), ("b".into(), 2), ("c".into(), 1)]);
        assert_eq!(m.inputs, 6); // six word occurrences
        assert_eq!(m.kv_pairs, 6);
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
        let inputs: Vec<u64> = (0..10).collect();
        let cfg = EngineConfig::sequential().with_max_reducer_inputs(4);
        let err = run_schema(&inputs, &residues(2), &cfg).unwrap_err();
        match err {
            EngineError::ReducerOverflow { load, limit, .. } => {
                assert_eq!(load, 5);
                assert_eq!(limit, 4);
            }
        }
    }

    #[test]
    fn budget_exactly_met_is_ok() {
        let inputs: Vec<u64> = (0..10).collect();
        let cfg = EngineConfig::sequential().with_max_reducer_inputs(5);
        assert!(run_schema(&inputs, &residues(2), &cfg).is_ok());
    }

    #[test]
    fn empty_input_yields_empty_round() {
        let inputs: Vec<u64> = vec![];
        let (out, m) = run_schema(&inputs, &residues(2), &EngineConfig::sequential()).unwrap();
        assert!(out.is_empty());
        assert_eq!(m.inputs, 0);
        assert_eq!(m.kv_pairs, 0);
        assert_eq!(m.reducers, 0);
    }

    #[test]
    fn values_preserve_emission_order_within_key() {
        // All inputs go to one reducer; they must arrive in input order.
        let inputs: Vec<u32> = (0..50).collect();
        let gather = FnSchema(
            |_: &u32, emit: &mut dyn FnMut(ReducerId)| emit(0),
            |_: ReducerId, xs: &[u32], emit: &mut dyn FnMut(Vec<u32>)| emit(xs.to_vec()),
        );
        for cfg in [EngineConfig::sequential(), EngineConfig::parallel(4)] {
            let (out, _) = run_schema(&inputs, &gather, &cfg).unwrap();
            assert_eq!(out.len(), 1);
            assert_eq!(out[0], inputs);
        }
    }

    #[test]
    fn mapper_emitting_nothing_is_fine() {
        // An assignment that sends an input nowhere is a round with no
        // pairs and no reducers.
        let inputs = vec![1u32, 2, 3];
        let nowhere = FnSchema(
            |_: &u32, _: &mut dyn FnMut(ReducerId)| {},
            |_: ReducerId, _: &[u32], emit: &mut dyn FnMut(u32)| emit(1),
        );
        let (out, m) = run_schema(&inputs, &nowhere, &EngineConfig::sequential()).unwrap();
        assert!(out.is_empty());
        assert_eq!(m.inputs, 3);
        assert_eq!(m.kv_pairs, 0);
        assert!((m.replication_rate() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn replication_rate_counts_duplicates() {
        // Each input sent to 3 reducers: r = 3 exactly.
        let inputs: Vec<u32> = (0..20).collect();
        let thrice = FnSchema(
            |x: &u32, emit: &mut dyn FnMut(ReducerId)| {
                for t in 0..3 {
                    emit(u64::from((*x + t) % 5));
                }
            },
            |_: ReducerId, _: &[u32], _: &mut dyn FnMut(u32)| {},
        );
        let (_, m) = run_schema(&inputs, &thrice, &EngineConfig::sequential()).unwrap();
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
        let inputs: Vec<u64> = vec![];
        let (out, m) = run_schema(&inputs, &residues(2), &EngineConfig::parallel(8)).unwrap();
        assert!(out.is_empty());
        assert_eq!(m.inputs, 0);
        assert_eq!(m.kv_pairs, 0);
        assert_eq!(m.reducers, 0);
    }

    #[test]
    fn reducer_overflow_reports_offending_key() {
        // Exactly one reducer is over budget: the first 3 inputs all go
        // to reducer 7, every other input gets its own reducer.
        let inputs: Vec<u64> = (0..10).collect();
        let hot = FnSchema(
            |x: &u64, emit: &mut dyn FnMut(ReducerId)| emit(if *x < 3 { 7 } else { 100 + x }),
            |_: ReducerId, _: &[u64], _: &mut dyn FnMut(u64)| {},
        );
        let cfg = EngineConfig::sequential().with_max_reducer_inputs(2);
        let err = run_schema(&inputs, &hot, &cfg).unwrap_err();
        let EngineError::ReducerOverflow { key, load, limit } = err;
        assert_eq!(key, 7);
        assert_eq!(load, 3);
        assert_eq!(limit, 2);
    }

    #[test]
    fn overflow_error_displays_key_load_and_limit() {
        let err = EngineError::ReducerOverflow {
            key: 11,
            load: 8,
            limit: 5,
        };
        assert_eq!(
            err.to_string(),
            "reducer 11 received 8 inputs, exceeding the budget q=5"
        );
    }

    #[test]
    fn overflow_precedes_reduce_regardless_of_workers() {
        // The q check runs on the shuffled groups, before any reducer
        // executes — so parallel and sequential runs fail identically.
        let inputs: Vec<u64> = (0..100).collect();
        let unreachable = FnSchema(
            |x: &u64, emit: &mut dyn FnMut(ReducerId)| emit(x % 4),
            |_: ReducerId, _: &[u64], _: &mut dyn FnMut(u64)| {
                panic!("reducer must not run on an over-budget round")
            },
        );
        for workers in [1usize, 4] {
            let cfg = EngineConfig::parallel(workers).with_max_reducer_inputs(10);
            let err = run_schema(&inputs, &unreachable, &cfg).unwrap_err();
            let EngineError::ReducerOverflow { load, limit, .. } = err;
            assert_eq!(load, 25);
            assert_eq!(limit, 10);
        }
    }

    #[test]
    fn determinism_across_worker_counts_thousand_keys() {
        // Acceptance gate for the parallel engine: ≥ 1000 distinct
        // reducers, and every worker count produces byte-identical
        // outputs AND metrics to the sequential run.
        let inputs: Vec<u64> = (0..5_000).collect();
        let fan = FnSchema(
            |x: &u64, emit: &mut dyn FnMut(ReducerId)| {
                // 2 reducers per input over 1250 → every reducer gets 8.
                emit(x % 1250);
                emit((x * 7 + 3) % 1250);
            },
            |r: ReducerId, xs: &[u64], emit: &mut dyn FnMut((u64, u64, u64))| {
                emit((r, xs.len() as u64, xs.iter().fold(0u64, |a, x| a ^ (x * x))))
            },
        );
        let (seq_out, seq_m) = run_schema(&inputs, &fan, &EngineConfig::sequential()).unwrap();
        assert!(
            seq_m.reducers >= 1000,
            "need ≥1000 keys, got {}",
            seq_m.reducers
        );
        for workers in [2usize, 3, 4, 7, 16] {
            let (out, m) = run_schema(&inputs, &fan, &EngineConfig::parallel(workers)).unwrap();
            assert_eq!(seq_out, out, "outputs diverged at workers={workers}");
            assert_eq!(seq_m, m, "metrics diverged at workers={workers}");
        }
    }

    #[test]
    fn huge_worker_count_on_tiny_input_is_clamped() {
        // Regression: P must be clamped to the input size, or a config
        // like parallel(100_000) over 6 inputs would allocate 100k bucket
        // Vecs per map worker and spawn 100k grouping threads. With the
        // clamp, thread count per phase never exceeds inputs.len() —
        // the envelope the chunked map/reduce phases have always had.
        let docs = ["a b a", "b c", "a"];
        let (seq_out, seq_m) = wordcount(&docs, &EngineConfig::sequential());
        let (out, m) = wordcount(&docs, &EngineConfig::parallel(100_000));
        assert_eq!(out, seq_out);
        assert_eq!(m, seq_m);
        assert!(
            m.shuffle.partitions <= m.inputs,
            "partitions must be clamped to the input size, got {}",
            m.shuffle.partitions
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 position space")]
    fn a_round_beyond_the_u32_position_space_is_refused() {
        // 2³² zero-sized inputs occupy no memory, and the refusal comes
        // before the map reads any of them.
        let inputs = [[(); 1 << 16]; 1 << 16];
        let inputs = inputs.as_flattened();
        assert_eq!(inputs.len(), 1 << 32);
        let schema = FnSchema(
            |_: &(), emit: &mut dyn FnMut(ReducerId)| emit(0),
            |_: ReducerId, _: &[()], _: &mut dyn FnMut(())| {},
        );
        let _ = run_schema(inputs, &schema, &EngineConfig::sequential());
    }

    #[test]
    fn shuffle_stats_reflect_partitioning() {
        let inputs: Vec<u64> = (0..4_000).collect();
        let (_, seq) = run_schema(&inputs, &residues(997), &EngineConfig::sequential()).unwrap();
        assert_eq!(seq.shuffle.partitions, 1);
        assert_eq!(seq.shuffle.max_partition_load, seq.kv_pairs);
        for workers in [2usize, 4, 8] {
            let (_, par) =
                run_schema(&inputs, &residues(997), &EngineConfig::parallel(workers)).unwrap();
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
        // bytes_moved = pairs × (8-byte reducer id + the input), and the
        // bucket histogram partitions the pair count.
        let inputs: Vec<u64> = (0..4_000).collect();
        for workers in [1usize, 4] {
            let (_, m) =
                run_schema(&inputs, &residues(997), &EngineConfig::parallel(workers)).unwrap();
            assert_eq!(m.shuffle.bytes_moved, Some(m.kv_pairs * (8 + 8)));
            assert_eq!(m.shuffle.bucket_loads.iter().sum::<u64>(), m.kv_pairs);
            assert_eq!(m.shuffle.bucket_loads.len() as u64, m.shuffle.partitions);
        }
    }

    #[test]
    fn single_hot_key_maximises_partition_skew() {
        // All pairs share one reducer, so one partition carries
        // everything: skew = max/mean = P, the engine-level picture of a
        // §1.4 hub.
        let inputs: Vec<u64> = (0..100).collect();
        let hub = FnSchema(
            |_: &u64, emit: &mut dyn FnMut(ReducerId)| emit(0),
            |_: ReducerId, xs: &[u64], emit: &mut dyn FnMut(u64)| emit(xs.len() as u64),
        );
        let (out, m) = run_schema(&inputs, &hub, &EngineConfig::parallel(4)).unwrap();
        assert_eq!(out, vec![100]);
        assert_eq!(m.shuffle.partitions, 4);
        assert_eq!(m.shuffle.max_partition_load, 100);
        assert_eq!(m.shuffle.min_partition_load, 0);
        assert!((m.shuffle.partition_skew() - 4.0).abs() < 1e-12);
    }
}
