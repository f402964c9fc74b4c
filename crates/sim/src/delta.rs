//! Incremental (delta) execution against retained reducer state.
//!
//! Mapping schemas are *oblivious* (§2.2): the reducer set an input maps
//! to never depends on the other inputs in the instance. That property
//! has a consequence the batch engine leaves on the table — when a
//! retained instance gains or loses a few inputs, **only the reducers
//! those inputs map to can change**. Every other reducer received exactly
//! the same input list as before and, reduce being a pure function of
//! that list, would emit exactly the same outputs.
//!
//! [`DeltaJob`] exploits this in the style of incremental view
//! maintenance (DBSP, Differential Dataflow): [`run_schema_retained`] is
//! the retained-state mode of [`run_schema`](crate::run_schema) — one
//! all-additions apply to an empty job, which keeps every reducer's input
//! list and outputs resident. Applying a [`Delta`]`{ added, removed }`
//! then
//!
//! 1. routes only the *changed* inputs, by sorting the reducers their
//!    [`assign_into`](crate::SchemaJob::assign_into) names — no engine
//!    round runs, and the shuffle a distributed run would do is priced
//!    from the sorted keys (the delta-shuffle
//!    volume is `Σ |assign(i)|` over changed inputs, not over the
//!    instance),
//! 2. re-executes only the **dirty** reducers — those any changed input
//!    maps to, found by the same assignment census `mr-plan` prices plans
//!    with,
//! 3. emits the dirty reducers' old outputs as *retractions* and their
//!    recomputed outputs as *additions*, merged into the retained result.
//!
//! The correctness contract, proven per registry family by the delta
//! battery in `mr-bench`, is
//! `full_run(I ∪ ΔI) == apply(delta_run(ΔI), retained)` — byte-identical
//! outputs and equal semantic metrics, at every worker count.
//!
//! The reducer budget `q` keeps its batch semantics: a delta whose
//! post-delta reducer load would exceed
//! [`max_reducer_inputs`](crate::EngineConfig::max_reducer_inputs) aborts
//! with the same smallest-key offender a full run would report, and the
//! retained state is left untouched.

use crate::columnar::FingerprintHasher;
use crate::engine::{EngineConfig, EngineError};
use crate::metrics::{price_round, LoadStats, RoundMetrics, ShuffleStats};
use crate::pool::fan_out;
use crate::schema::{price_change, LoadHistogram, LoadTable, ReducerId, SchemaJob};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Debug;
use std::hash::BuildHasherDefault;
use std::ops::Range;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Cached handles for the delta path's always-on metrics counters.
struct DeltaCounters {
    applies: mr_obs::Counter,
    dirty_reducers: mr_obs::Counter,
}

fn delta_counters() -> &'static DeltaCounters {
    static COUNTERS: OnceLock<DeltaCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| DeltaCounters {
        applies: mr_obs::global().counter("delta.applies"),
        dirty_reducers: mr_obs::global().counter("delta.dirty_reducers"),
    })
}

/// Stable identifier of one retained input. Assigned monotonically by
/// [`DeltaJob`] (the initial instance gets `0..n` in input order) and
/// never reused, so a removal names an input unambiguously even when
/// values repeat.
pub type Seq = u64;

/// A one-valued name, kept only because the perf ledger's
/// `steady_churn` workload still passes `Pipeline::Columnar` to
/// [`run_schema_retained`]. Nothing reads it: every round runs on the
/// columnar data plane. The follow-up to ROADMAP item 1(e) deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// The columnar radix-partitioned shuffle, the only data plane.
    Columnar,
}

/// A batch of changes to a retained instance: values to add and the
/// [`Seq`] ids of retained inputs to remove.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Delta<I> {
    /// Values entering the instance (each gets a fresh [`Seq`]).
    pub added: Vec<I>,
    /// Sequence ids of retained inputs leaving the instance.
    pub removed: Vec<Seq>,
}

impl<I> Delta<I> {
    /// The empty delta (a no-op when applied).
    pub fn empty() -> Self {
        Delta {
            added: Vec::new(),
            removed: Vec::new(),
        }
    }

    /// A pure-insertion delta.
    pub fn add(added: Vec<I>) -> Self {
        Delta {
            added,
            removed: Vec::new(),
        }
    }

    /// A pure-removal delta.
    pub fn remove(removed: Vec<Seq>) -> Self {
        Delta {
            added: Vec::new(),
            removed,
        }
    }

    /// A mixed delta.
    pub fn new(added: Vec<I>, removed: Vec<Seq>) -> Self {
        Delta { added, removed }
    }

    /// Number of changed inputs (additions plus removals).
    pub fn changes(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// Failure modes of delta application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The post-delta load of some reducer exceeded the budget `q`: the
    /// [`ReducerOverflow`] a full run of the post-delta instance reports.
    /// The retained state is unchanged.
    ///
    /// [`ReducerOverflow`]: EngineError::ReducerOverflow
    Engine(EngineError),
    /// A removal named a [`Seq`] that is not live (never existed, already
    /// removed, or repeated within one delta). The retained state is
    /// unchanged.
    UnknownSeq(Seq),
}

impl From<EngineError> for DeltaError {
    fn from(e: EngineError) -> Self {
        DeltaError::Engine(e)
    }
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::Engine(e) => write!(f, "{e}"),
            DeltaError::UnknownSeq(seq) => {
                write!(f, "delta removal names seq {seq}, which is not live")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// Measurements of one delta application, reported next to the full-run
/// equivalents so the saving is inspectable: `dirty_reducers` vs the
/// retained round's reducer count, `delta_pairs` vs its `kv_pairs`.
#[derive(Debug, Clone)]
pub struct DeltaMetrics {
    /// Reducers whose input list changed (and were therefore re-executed).
    pub dirty_reducers: u64,
    /// Live reducers after the delta (the full-run equivalent count).
    pub total_reducers: u64,
    /// Inputs the delta added.
    pub inputs_added: u64,
    /// Inputs the delta removed.
    pub inputs_removed: u64,
    /// Key-value pairs the delta routed: `Σ |assign(i)|` over the
    /// *changed* inputs only — the delta-shuffle volume, vs the full
    /// run's `kv_pairs` over the whole instance.
    pub delta_pairs: u64,
    /// Outputs retracted (everything the dirty reducers had emitted).
    pub outputs_retracted: u64,
    /// Outputs added (everything the dirty reducers re-emitted).
    pub outputs_added: u64,
    /// The routing, a sort of the changed inputs by reducer, priced as a
    /// round: exactly what the engine would measure for a round that
    /// shuffles each change to its reducers and re-emits it, shuffle
    /// statistics included. Its `kv_pairs` and `outputs` are both
    /// `delta_pairs`, its `reducers` is `dirty_reducers`, its `loads` are
    /// per-dirty-reducer change counts.
    pub routing: RoundMetrics,
    /// Wall-clock time of the whole application (execution metadata).
    pub wall: Duration,
}

/// The visible effect of applying one [`Delta`]: output retractions and
/// additions, plus [`DeltaMetrics`]. Untouched (clean) reducers
/// contribute to neither list — their retained outputs stand.
#[derive(Debug, Clone)]
pub struct DeltaOutcome<O> {
    /// Outputs withdrawn from the result (the dirty reducers' previous
    /// emissions, in ascending reducer order, emission order within a
    /// reducer).
    pub retracted: Vec<O>,
    /// Outputs entering the result (the dirty reducers' recomputed
    /// emissions, same order).
    pub added: Vec<O>,
    /// The [`Seq`] ids assigned to `delta.added`, in order.
    pub added_seqs: Range<Seq>,
    /// What the application measured.
    pub metrics: DeltaMetrics,
}

/// What a delta *will* do, predicted from the schema's assignment alone —
/// the same census arithmetic `mr-plan` prices plans with. Exact by
/// obliviousness: [`DeltaJob::apply`] measures precisely these numbers,
/// so running the application under `post_q` as the reducer budget is the
/// delta analogue of `Plan::execute`'s self-check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaPrediction {
    /// Reducers the delta will dirty.
    pub dirty_reducers: u64,
    /// Key-value pairs the delta will route.
    pub delta_pairs: u64,
    /// Maximum reducer load after the delta (over all reducers, clean
    /// ones included) — the post-delta effective `q`.
    pub post_q: u64,
    /// Live reducers after the delta.
    pub post_reducers: u64,
}

/// Resolves a delta's removal ids to the inputs they name, in order —
/// the one validation every delta path shares. An id that `live` does not
/// know (never existed, already removed, out of range) or that repeats
/// within `removed` is refused with [`DeltaError::UnknownSeq`].
fn resolve_removals<'a, I>(
    removed: &[Seq],
    live: impl Fn(Seq) -> Option<&'a I>,
) -> Result<Vec<&'a I>, DeltaError> {
    let mut seen: BTreeSet<Seq> = BTreeSet::new();
    removed
        .iter()
        .map(|&seq| match live(seq) {
            Some(value) if seen.insert(seq) => Ok(value),
            _ => Err(DeltaError::UnknownSeq(seq)),
        })
        .collect()
}

/// Predicts what applying a delta will measure, from the schema's
/// assignment alone: resolves `removed` against `live`, folds the leaving
/// and entering inputs into [`LoadTable`]s, and prices them against the
/// current loads (`load_of` per reducer, `histogram` over all of them)
/// with [`price_change`]. [`DeltaJob::predict`] reads its retained state
/// through this; the registry's delta census reads a base instance
/// through it — same arithmetic, same refusal of a malformed removal.
pub fn predict_delta<'a, I: 'a, O, S>(
    schema: &S,
    load_of: impl Fn(ReducerId) -> u64,
    histogram: &LoadHistogram,
    live: impl Fn(Seq) -> Option<&'a I>,
    removed: &[Seq],
    added: impl IntoIterator<Item = &'a I>,
) -> Result<DeltaPrediction, DeltaError>
where
    S: SchemaJob<I, O> + ?Sized,
{
    let removed = resolve_removals(removed, live)?;
    Ok(price_change(
        load_of,
        histogram,
        &LoadTable::of(schema, removed),
        &LoadTable::of(schema, added),
    ))
}

/// A dirty reducer staged for commit: its id, the range of the apply's
/// shared columns holding its post-delta input list, its prior output count.
type Staged = (ReducerId, Range<usize>, usize);

/// One live reducer's retained state: its input list (seq-sorted, the
/// order a full run delivers) and the outputs it emitted for that list.
#[derive(Debug, Clone)]
struct ReducerState<I, O> {
    seqs: Vec<Seq>,
    values: Vec<I>,
    outputs: Vec<O>,
}

/// A [`SchemaJob`] held resident for incremental execution: the schema,
/// the live instance, and every reducer's input list and outputs.
///
/// Build one with [`run_schema_retained`] (or [`DeltaJob::new`] for an
/// empty instance), then feed it [`Delta`]s via [`apply`](DeltaJob::apply).
/// [`outputs`](DeltaJob::outputs) and [`metrics`](DeltaJob::metrics) always
/// equal what a fresh [`run_schema`](crate::run_schema) of the live
/// instance would produce.
///
/// Reducer state sits in one hash map from reducer id to state, holding
/// live reducers only, so an apply looks each dirty reducer up once. On
/// commit a reducer that stays live is overwritten in place and keeps
/// its buffers; one that empties is removed. A load histogram of the live
/// reducers is kept beside it, so [`predict`](DeltaJob::predict) prices a
/// delta without visiting the clean reducers.
#[derive(Debug, Clone)]
pub struct DeltaJob<I, O, S> {
    schema: S,
    config: EngineConfig,
    next_seq: Seq,
    live: BTreeMap<Seq, I>,
    /// Live reducer → its retained state.
    reducers: HashMap<ReducerId, ReducerState<I, O>, BuildHasherDefault<FingerprintHasher>>,
    /// Live reducers by load.
    histogram: LoadHistogram,
}

/// The retained-state mode of [`run_schema`](crate::run_schema): executes
/// the schema over `inputs`, keeping per-reducer input lists and reduce
/// outputs resident for incremental re-execution. Inputs receive [`Seq`]
/// ids `0..inputs.len()` in order. The [`Pipeline`] argument is unread.
///
/// Equivalent to `DeltaJob::new` followed by an all-additions
/// [`apply`](DeltaJob::apply); the budget `q` (if configured) is enforced
/// with the batch path's offender semantics.
pub fn run_schema_retained<I, O, S>(
    inputs: &[I],
    schema: S,
    _pipeline: Pipeline,
    config: &EngineConfig,
) -> Result<DeltaJob<I, O, S>, DeltaError>
where
    I: Clone + Send + Sync,
    O: Clone + Send,
    S: SchemaJob<I, O>,
{
    let mut job = DeltaJob::new(schema, config.clone());
    job.apply(&Delta::add(inputs.to_vec()))?;
    Ok(job)
}

impl<I, O, S> DeltaJob<I, O, S>
where
    I: Clone + Send + Sync,
    O: Clone + Send,
    S: SchemaJob<I, O>,
{
    /// A retained job over the **empty** instance. `config`'s budget and
    /// worker count govern every subsequent [`apply`](DeltaJob::apply).
    pub fn new(schema: S, config: EngineConfig) -> Self {
        DeltaJob {
            schema,
            config,
            next_seq: 0,
            live: BTreeMap::new(),
            reducers: HashMap::default(),
            histogram: LoadHistogram::default(),
        }
    }

    /// The current load of reducer `rid` (0 if it is not live).
    fn load_of(&self, rid: ReducerId) -> u64 {
        self.reducers
            .get(&rid)
            .map_or(0, |state| state.seqs.len() as u64)
    }

    /// Applies one [`Delta`]: routes the changed inputs to their
    /// reducers by one sort, re-executes exactly the dirty reducers
    /// against their updated input lists, and merges the result into the
    /// retained state.
    ///
    /// Bookkeeping costs one sort of the `|Δ|·r` routing triples plus the
    /// dirty reducers' input lists: each dirty reducer is looked up once
    /// and staged in two columns the whole apply shares. Its allocations
    /// grow with the changes and the reducers that appear, not with the
    /// dirty count.
    ///
    /// On `Err` — an unknown removal [`Seq`], or a post-delta reducer
    /// load over the configured budget `q` (reported with the batch
    /// path's smallest-offender semantics) — and on a panic in `reduce`,
    /// the retained state is **unchanged**: validation, the budget check
    /// and the re-reduce all run against staged copies before anything
    /// commits.
    pub fn apply(&mut self, delta: &Delta<I>) -> Result<DeltaOutcome<O>, DeltaError> {
        let start = Instant::now();
        let _apply_span = mr_obs::span("delta.apply");

        // Route the changed inputs by one sort of `(rid, is_add, seq)`
        // triples. A removal's *value* names its reducers: by obliviousness,
        // the ones its insertion used. The sorted runs are the dirty
        // reducers, and the round that would shuffle each change to its
        // reducers as a `(seq, is_add)` value is priced from them.
        let leaving = resolve_removals(&delta.removed, |seq| self.live.get(&seq))?;
        let added_seqs = self.next_seq..self.next_seq + delta.added.len() as Seq;
        let routing_span = mr_obs::span("delta.routing");
        let schema = &self.schema;
        let mut routed: Vec<(ReducerId, bool, Seq)> = Vec::with_capacity(delta.changes());
        for (&seq, value) in delta.removed.iter().zip(leaving) {
            schema.assign_into(value, &mut |rid| routed.push((rid, false, seq)));
        }
        for (seq, value) in added_seqs.clone().zip(&delta.added) {
            schema.assign_into(value, &mut |rid| routed.push((rid, true, seq)));
        }
        routed.sort_unstable();
        let workers = self.config.effective_workers();
        let runs = routed.chunk_by(|a, b| a.0 == b.0);
        let groups = runs.clone().map(|run| (run[0].0, run.len() as u64));
        let routing = price_round::<(Seq, bool)>(delta.changes(), groups, routed.len(), workers);
        drop(routing_span);

        // Stage every dirty reducer's post-delta input list in two shared
        // columns, looking each up once. Each run holds its removals
        // first and its additions in seq order, so appending them keeps
        // the seq-sorted invariant (fresh seqs exceed all retained ones).
        let (mut seqs, mut values): (Vec<Seq>, Vec<I>) = (Vec::new(), Vec::new());
        let mut staged: Vec<Staged> = Vec::with_capacity(routing.reducers as usize);
        let mut appearing = 0;
        for run in runs {
            let (removes, adds) = run.split_at(run.partition_point(|&(_, is_add, _)| !is_add));
            let (rid, start) = (run[0].0, seqs.len());
            let prior_outputs = match self.reducers.get(&rid) {
                Some(state) => {
                    // Every removal is held here and both lists ascend:
                    // copy the runs between the removals. An input `assign`
                    // names twice is held twice and removed twice, so each
                    // removal takes the first copy still at or past `from`.
                    let mut from = 0;
                    for (_, _, seq) in removes {
                        let at = from + state.seqs[from..].partition_point(|s| s < seq);
                        // Cannot fire: assignment is oblivious (§2.2), so a
                        // removed input maps to the reducers its insertion
                        // did; and nothing has been mutated yet if it does.
                        assert!(
                            state.seqs.get(at) == Some(seq),
                            "a removal is held by every reducer it maps to: {seq}"
                        );
                        seqs.extend_from_slice(&state.seqs[from..at]);
                        values.extend_from_slice(&state.values[from..at]);
                        from = at + 1;
                    }
                    seqs.extend_from_slice(&state.seqs[from..]);
                    values.extend_from_slice(&state.values[from..]);
                    state.outputs.len()
                }
                None => {
                    appearing += 1;
                    0
                }
            };
            for &(_, _, seq) in adds {
                seqs.push(seq);
                values.push(delta.added[(seq - added_seqs.start) as usize].clone());
            }
            staged.push((rid, start..seqs.len(), prior_outputs));
        }

        // Post-delta budget check, before anything commits. Clean
        // reducers are within budget by invariant (every commit checked
        // them while dirty), so the smallest over-budget *staged* reducer
        // is the globally smallest — the same offender a full run of the
        // post-delta instance reports.
        if let Some(limit) = self.config.max_reducer_inputs {
            if let Some((key, range, _)) = staged.iter().find(|s| s.1.len() as u64 > limit) {
                let (key, load) = (*key, range.len() as u64);
                return Err(EngineError::ReducerOverflow { key, load, limit }.into());
            }
        }

        // Re-execute exactly the dirty reducers that stay live, at most
        // `workers` chunks of them at a time, each chunk into one output
        // `Vec` plus its reducers' output counts. Chunk order in, chunk
        // order out: deterministic at every worker count, and the chunks'
        // outputs concatenated are the additions.
        let rereduce_span = mr_obs::span("delta.rereduce");
        // `max(1)`: nothing staged is no chunks, but `chunks` needs a size.
        let chunks: Vec<&[Staged]> = staged
            .chunks(staged.len().div_ceil(workers).max(1))
            .collect();
        let mut reduced = fan_out(workers, chunks, |chunk| {
            let mut out = Vec::with_capacity(chunk.iter().map(|(_, _, prior)| prior).sum());
            let counts: Vec<usize> = chunk
                .iter()
                .map(|(rid, range, _)| {
                    let before = out.len();
                    if !range.is_empty() {
                        schema.reduce(*rid, &values[range.clone()], &mut |o| out.push(o));
                    }
                    out.len() - before
                })
                .collect();
            (out, counts)
        })
        .into_iter();
        let (mut added, mut counts) = reduced.next().unwrap_or_default();
        for (out, chunk_counts) in reduced {
            added.extend(out);
            counts.extend(chunk_counts);
        }
        drop(rereduce_span);

        // Commit. A dirty reducer that stays live keeps its buffers: its
        // old outputs drain into the retractions and its input list and
        // outputs are overwritten from the shared columns. One that
        // empties is removed; only one that appears gets fresh buffers.
        self.reducers.reserve(appearing);
        let mut retracted: Vec<O> = Vec::with_capacity(staged.iter().map(|s| s.2).sum());
        let mut from = 0;
        for ((rid, range, _), count) in staged.into_iter().zip(counts) {
            let outputs = &added[from..from + count];
            from += count;
            if range.is_empty() {
                if let Some(old) = self.reducers.remove(&rid) {
                    self.histogram.remove(old.seqs.len() as u64);
                    retracted.extend(old.outputs);
                }
                continue;
            }
            // Insert before removing, so an unchanged load keeps its level.
            self.histogram.insert(range.len() as u64);
            match self.reducers.entry(rid) {
                Entry::Occupied(entry) => {
                    let state = entry.into_mut();
                    self.histogram.remove(state.seqs.len() as u64);
                    retracted.append(&mut state.outputs);
                    state.seqs.clear();
                    state.seqs.extend_from_slice(&seqs[range.clone()]);
                    state.values.clear();
                    state.values.extend_from_slice(&values[range]);
                    state.outputs.extend_from_slice(outputs);
                }
                Entry::Vacant(entry) => {
                    entry.insert(ReducerState {
                        seqs: seqs[range.clone()].to_vec(),
                        values: values[range].to_vec(),
                        outputs: outputs.to_vec(),
                    });
                }
            }
        }
        for seq in &delta.removed {
            self.live.remove(seq);
        }
        let entering = added_seqs.clone().zip(delta.added.iter().cloned());
        self.live.extend(entering);
        self.next_seq = added_seqs.end;

        delta_counters().applies.incr();
        delta_counters().dirty_reducers.add(routing.reducers);
        let metrics = DeltaMetrics {
            dirty_reducers: routing.reducers,
            total_reducers: self.reducers.len() as u64,
            inputs_added: delta.added.len() as u64,
            inputs_removed: delta.removed.len() as u64,
            delta_pairs: routing.kv_pairs,
            outputs_retracted: retracted.len() as u64,
            outputs_added: added.len() as u64,
            routing,
            wall: start.elapsed(),
        };
        Ok(DeltaOutcome {
            retracted,
            added,
            added_seqs,
            metrics,
        })
    }

    /// Predicts what [`apply`](DeltaJob::apply) will measure for `delta`,
    /// from the schema's assignment alone — no reducer runs. Exact by
    /// obliviousness; see [`DeltaPrediction`].
    ///
    /// Fails with [`DeltaError::UnknownSeq`] on the same invalid removals
    /// `apply` would reject. The prediction does **not** consult the
    /// budget: callers use `post_q` to *choose* one (run the application
    /// under `post_q` and an under-prediction aborts loudly).
    pub fn predict(&self, delta: &Delta<I>) -> Result<DeltaPrediction, DeltaError> {
        predict_delta(
            &self.schema,
            |rid| self.load_of(rid),
            &self.histogram,
            |seq| self.live.get(&seq),
            &delta.removed,
            &delta.added,
        )
    }

    /// The retained result: what a fresh
    /// [`run_schema`](crate::run_schema) of the live instance would
    /// output, byte for byte — ascending reducer order, emission order
    /// within a reducer.
    pub fn outputs(&self) -> Vec<O> {
        let mut order: Vec<(&ReducerId, &ReducerState<I, O>)> = self.reducers.iter().collect();
        order.sort_unstable_by_key(|&(rid, _)| *rid);
        let total = order.iter().map(|(_, state)| state.outputs.len()).sum();
        let mut outputs = Vec::with_capacity(total);
        for (_, state) in order {
            outputs.extend(state.outputs.iter().cloned());
        }
        outputs
    }

    /// Full-run-equivalent [`RoundMetrics`] of the retained state: equal
    /// (under `RoundMetrics`' semantic equality) to what a fresh
    /// [`run_schema`](crate::run_schema) of the live instance would
    /// measure. The [`ShuffleStats`] are left empty — execution metadata
    /// describes a run, and the retained state may be the work of many.
    pub fn metrics(&self) -> RoundMetrics {
        let mut loads: Vec<u64> = Vec::with_capacity(self.reducers.len());
        loads.extend(self.histogram.loads());
        let outputs: u64 = self
            .reducers
            .values()
            .map(|state| state.outputs.len() as u64)
            .sum();
        RoundMetrics {
            inputs: self.live.len() as u64,
            kv_pairs: loads.iter().sum(),
            reducers: loads.len() as u64,
            outputs,
            load: LoadStats::from_sorted(&loads),
            loads,
            shuffle: ShuffleStats::default(),
        }
    }

    /// The live instance in [`Seq`] order — exactly the input slice a
    /// full run reproducing this state would be given.
    pub fn inputs(&self) -> Vec<I> {
        self.live.values().cloned().collect()
    }

    /// The live [`Seq`] ids in ascending order.
    pub fn seqs(&self) -> Vec<Seq> {
        self.live.keys().copied().collect()
    }

    /// Number of live inputs.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether the instance is empty.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Number of live (non-empty) reducers.
    pub fn num_reducers(&self) -> u64 {
        self.reducers.len() as u64
    }

    /// The schema this job retains state for.
    pub fn schema(&self) -> &S {
        &self.schema
    }

    /// The engine configuration (budget, workers) applications run under.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_schema;

    /// All-pairs similarity toy schema: input `x` goes to reducer `x / 2`,
    /// reducers emit every ordered pair they hold.
    struct PairUp;

    impl SchemaJob<u32, (u32, u32)> for PairUp {
        fn assign_into(&self, input: &u32, emit: &mut dyn FnMut(ReducerId)) {
            emit((*input / 2) as ReducerId)
        }
        fn reduce(&self, _r: ReducerId, inputs: &[u32], emit: &mut dyn FnMut((u32, u32))) {
            for i in 0..inputs.len() {
                for j in (i + 1)..inputs.len() {
                    emit((inputs[i], inputs[j]));
                }
            }
        }
    }

    /// Replicating schema: every input goes to `c` reducers (r = c).
    struct Replicate(u64);

    impl SchemaJob<u32, u64> for Replicate {
        fn assign_into(&self, input: &u32, emit: &mut dyn FnMut(ReducerId)) {
            for g in 0..self.0 {
                emit(g * 100 + (*input as u64 % 10));
            }
        }
        fn reduce(&self, r: ReducerId, inputs: &[u32], emit: &mut dyn FnMut(u64)) {
            emit(r * 1_000_000 + inputs.iter().map(|&x| x as u64).sum::<u64>());
        }
    }

    fn assert_matches_full_run<S: SchemaJob<u32, (u32, u32)>>(
        job: &DeltaJob<u32, (u32, u32), S>,
        config: &EngineConfig,
    ) {
        let live = job.inputs();
        let (full_out, full_m) = run_schema(&live, job.schema(), config).unwrap();
        assert_eq!(job.outputs(), full_out, "retained outputs diverged");
        assert_eq!(job.metrics(), full_m, "retained metrics diverged");
    }

    #[test]
    fn retained_init_matches_full_run() {
        let inputs: Vec<u32> = (0..40).collect();
        for workers in [1usize, 4] {
            let cfg = EngineConfig::parallel(workers);
            let job = run_schema_retained(&inputs, PairUp, Pipeline::Columnar, &cfg).unwrap();
            assert_eq!(job.len(), 40);
            assert_eq!(job.seqs(), (0..40).collect::<Vec<Seq>>());
            assert_matches_full_run(&job, &cfg);
        }
    }

    #[test]
    fn mixed_delta_matches_full_rerun() {
        let inputs: Vec<u32> = (0..30).collect();
        for workers in [1usize, 4] {
            let cfg = EngineConfig::parallel(workers);
            let mut job = run_schema_retained(&inputs, PairUp, Pipeline::Columnar, &cfg).unwrap();
            let delta = Delta::new(vec![100, 101, 7], vec![4, 5, 17]);
            let outcome = job.apply(&delta).unwrap();
            // Removals dirty reducers {2, 8} (values 4, 5, 17);
            // additions dirty {50, 3} (values 100, 101, 7).
            assert_eq!(outcome.metrics.dirty_reducers, 4);
            assert_eq!(outcome.metrics.delta_pairs, 6);
            assert_eq!(outcome.added_seqs, 30..33);
            assert_matches_full_run(&job, &cfg);
        }
    }

    #[test]
    fn removal_retracts_and_drops_emptied_reducers() {
        let mut job = run_schema_retained(
            &[0u32, 1, 2, 3],
            PairUp,
            Pipeline::Columnar,
            &EngineConfig::sequential(),
        )
        .unwrap();
        assert_eq!(job.num_reducers(), 2);
        // Remove both inputs of reducer 0 (seqs 0 and 1 hold values 0, 1).
        let outcome = job.apply(&Delta::remove(vec![0, 1])).unwrap();
        assert_eq!(outcome.retracted, vec![(0, 1)]);
        assert!(outcome.added.is_empty());
        assert_eq!(outcome.metrics.dirty_reducers, 1);
        assert_eq!(job.num_reducers(), 1);
        assert_eq!(job.outputs(), vec![(2, 3)]);
        assert_matches_full_run(&job, &EngineConfig::sequential());
    }

    #[test]
    fn clean_reducers_are_not_reexecuted() {
        let inputs: Vec<u32> = (0..100).collect();
        let mut job = run_schema_retained(
            &inputs,
            PairUp,
            Pipeline::Columnar,
            &EngineConfig::sequential(),
        )
        .unwrap();
        // One added input dirties exactly one of the 50 reducers.
        let outcome = job.apply(&Delta::add(vec![42])).unwrap();
        assert_eq!(outcome.metrics.dirty_reducers, 1);
        assert_eq!(outcome.metrics.total_reducers, 50);
        assert_eq!(outcome.metrics.delta_pairs, 1);
        assert_eq!(outcome.retracted, vec![(42, 43)]);
        assert_eq!(outcome.added, vec![(42, 43), (42, 42), (43, 42)]);
        assert_matches_full_run(&job, &EngineConfig::sequential());
    }

    #[test]
    fn empty_delta_is_a_noop() {
        let mut job = run_schema_retained(
            &[0u32, 1, 2],
            PairUp,
            Pipeline::Columnar,
            &EngineConfig::sequential(),
        )
        .unwrap();
        let before = job.outputs();
        let outcome = job.apply(&Delta::empty()).unwrap();
        assert!(outcome.retracted.is_empty() && outcome.added.is_empty());
        assert_eq!(outcome.metrics.dirty_reducers, 0);
        assert_eq!(outcome.metrics.delta_pairs, 0);
        assert_eq!(job.outputs(), before);
    }

    #[test]
    fn unknown_and_repeated_seqs_are_rejected_without_side_effects() {
        let mut job = run_schema_retained(
            &[0u32, 1, 2, 3],
            PairUp,
            Pipeline::Columnar,
            &EngineConfig::sequential(),
        )
        .unwrap();
        let before = job.outputs();
        assert_eq!(
            job.apply(&Delta::remove(vec![99])).unwrap_err(),
            DeltaError::UnknownSeq(99)
        );
        assert_eq!(
            job.apply(&Delta::remove(vec![1, 1])).unwrap_err(),
            DeltaError::UnknownSeq(1)
        );
        // A failed delta must not half-apply: seq 1 is still live.
        assert_eq!(job.outputs(), before);
        assert_eq!(job.len(), 4);
        job.apply(&Delta::remove(vec![1])).unwrap();
        assert_eq!(job.len(), 3);
    }

    #[test]
    fn budget_abort_reports_the_full_run_offender_and_preserves_state() {
        let cfg = EngineConfig::sequential().with_max_reducer_inputs(2);
        let inputs: Vec<u32> = (0..8).collect();
        let mut job = run_schema_retained(&inputs, PairUp, Pipeline::Columnar, &cfg).unwrap();
        let before = job.outputs();
        // Adding 4 and 9 would push reducers 2 and 4 to load 3 each; the
        // smallest offender in key order is reducer 2 — exactly what a
        // full run of the post-delta instance reports.
        let delta = Delta::add(vec![4, 9]);
        let err = job.apply(&delta).unwrap_err();
        let mut post = inputs.clone();
        post.extend([4, 9]);
        let full_err = run_schema(&post, &PairUp, &cfg).unwrap_err();
        assert_eq!(err, DeltaError::Engine(full_err));
        match err {
            DeltaError::Engine(EngineError::ReducerOverflow { key, load, limit }) => {
                assert_eq!(key, 2);
                assert_eq!(load, 3);
                assert_eq!(limit, 2);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Abort left the state untouched; an in-budget delta still works.
        assert_eq!(job.outputs(), before);
        job.apply(&Delta::remove(vec![0])).unwrap();
        assert_matches_full_run(&job, &cfg);
    }

    /// Every input lands on reducer 0, so `q` = the live instance size.
    struct Funnel;

    impl SchemaJob<u32, u32> for Funnel {
        fn assign_into(&self, _input: &u32, emit: &mut dyn FnMut(ReducerId)) {
            emit(0)
        }
        fn reduce(&self, _r: ReducerId, inputs: &[u32], emit: &mut dyn FnMut(u32)) {
            emit(inputs.iter().sum())
        }
    }

    #[test]
    fn under_predicted_post_q_aborts_loudly() {
        // The honesty contract itself: budget the retained job one unit
        // below the true post-delta q and the apply must abort with the
        // overflow — and leave the retained state untouched.
        let base: Vec<u32> = vec![1, 2, 3];
        let grow = Delta::add(vec![4, 5]); // post-q = 5
        let exact = EngineConfig::sequential().with_max_reducer_inputs(5);
        let mut job = run_schema_retained(&base, Funnel, Pipeline::Columnar, &exact).unwrap();
        let predicted = job.predict(&grow).unwrap();
        assert_eq!(predicted.post_q, 5);

        let short = EngineConfig::sequential().with_max_reducer_inputs(4);
        let mut starved = run_schema_retained(&base, Funnel, Pipeline::Columnar, &short).unwrap();
        let err = starved.apply(&grow).unwrap_err();
        assert_eq!(
            err,
            DeltaError::Engine(EngineError::ReducerOverflow {
                key: 0,
                load: 5,
                limit: 4,
            })
        );
        assert_eq!(starved.outputs(), vec![6]); // state preserved

        // Under the exact predicted budget the same delta lands.
        let outcome = job.apply(&grow).unwrap();
        assert_eq!(outcome.metrics.dirty_reducers, 1);
        assert_eq!(job.outputs(), vec![15]);
    }

    #[test]
    fn a_reducer_overwritten_in_place_tracks_its_live_inputs() {
        // Reducer 0 stays live through every apply, so each commit
        // overwrites its buffers in place: shrinking, growing, then both.
        let cfg = EngineConfig::sequential();
        let mut job = run_schema_retained(&[1u32, 2, 3], Funnel, Pipeline::Columnar, &cfg).unwrap();
        let deltas = [
            Delta::remove(vec![0, 1]),
            Delta::add(vec![4, 5, 6]),
            Delta::new(vec![7], vec![2, 4]),
        ];
        let mut before = vec![6];
        for delta in &deltas {
            let predicted = job.predict(delta).unwrap();
            let outcome = job.apply(delta).unwrap();
            let (out, m) = run_schema(&job.inputs(), &Funnel, &cfg).unwrap();
            assert_eq!(outcome.retracted, before);
            assert_eq!(outcome.added, out);
            assert_eq!(job.outputs(), out);
            assert_eq!(job.metrics(), m);
            assert_eq!(predicted.post_q, m.load.max);
            before = out;
        }
        assert_eq!(before, vec![17]);
    }

    #[test]
    fn prediction_is_exact() {
        let inputs: Vec<u32> = (0..60).collect();
        let mut job = run_schema_retained(
            &inputs,
            Replicate(3),
            Pipeline::Columnar,
            &EngineConfig::sequential(),
        )
        .unwrap();
        let delta = Delta::new(vec![100, 103, 105], vec![2, 7, 19]);
        let predicted = job.predict(&delta).unwrap();
        let outcome = job.apply(&delta).unwrap();
        assert_eq!(predicted.dirty_reducers, outcome.metrics.dirty_reducers);
        assert_eq!(predicted.delta_pairs, outcome.metrics.delta_pairs);
        assert_eq!(predicted.post_reducers, outcome.metrics.total_reducers);
        assert_eq!(predicted.post_q, job.metrics().load.max);
        // And the promised self-check: re-applying an identical-shape
        // delta under the predicted q as a hard budget succeeds.
        let mut budgeted_job = DeltaJob::new(
            Replicate(3),
            EngineConfig::sequential().with_max_reducer_inputs(predicted.post_q),
        );
        budgeted_job.apply(&Delta::add(job.inputs())).unwrap();
    }

    #[test]
    fn seqs_stay_monotonic_across_applies() {
        let mut job = DeltaJob::new(PairUp, EngineConfig::sequential());
        let first = job.apply(&Delta::add(vec![0, 1])).unwrap();
        assert_eq!(first.added_seqs, 0..2);
        job.apply(&Delta::remove(vec![0])).unwrap();
        // A removed seq is never reused.
        let second = job.apply(&Delta::add(vec![5])).unwrap();
        assert_eq!(second.added_seqs, 2..3);
        assert_eq!(job.seqs(), vec![1, 2]);
    }

    #[test]
    fn repeated_values_are_distinct_inputs() {
        // The same value twice is two inputs (multiset semantics); seqs
        // disambiguate removal.
        let mut job = run_schema_retained(
            &[6u32, 6, 7],
            PairUp,
            Pipeline::Columnar,
            &EngineConfig::sequential(),
        )
        .unwrap();
        assert_eq!(job.outputs(), vec![(6, 6), (6, 7), (6, 7)]);
        job.apply(&Delta::remove(vec![0])).unwrap();
        assert_eq!(job.outputs(), vec![(6, 7)]);
        assert_matches_full_run(&job, &EngineConfig::sequential());
    }

    #[test]
    fn full_churn_replaces_the_instance() {
        let inputs: Vec<u32> = (0..20).collect();
        let cfg = EngineConfig::sequential();
        let mut job = run_schema_retained(&inputs, PairUp, Pipeline::Columnar, &cfg).unwrap();
        let replacement: Vec<u32> = (40..60).collect();
        let delta = Delta::new(replacement.clone(), job.seqs());
        job.apply(&delta).unwrap();
        assert_eq!(job.inputs(), replacement);
        assert_matches_full_run(&job, &cfg);
    }
}
