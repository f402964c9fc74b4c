//! Executing an abstract *mapping schema* as a map-reduce job.
//!
//! §2.2 defines a mapping schema as an assignment of inputs to reducers
//! subject to the reducer-size bound `q` and the coverage condition. A
//! schema says nothing about what the reducers compute; [`SchemaJob`]
//! supplies the missing pieces — the assignment function and the reduce
//! logic — and [`run_schema`] executes them on the engine, so that the
//! *measured* replication rate and maximum reducer load of any schema can
//! be compared with the paper's bounds.
//!
//! §2.2 also makes `q`, `r`, the pair count and the reducer count nothing
//! more than folds over the assignment, so they can be had **without**
//! running the engine: [`LoadTable::of`] is the one place the workspace
//! folds [`SchemaJob::assign`] into per-reducer loads, and
//! [`price_change`] the one place a `(removed, added)` change is priced
//! against such loads and their [`LoadHistogram`]. The registry's census,
//! its delta census and [`DeltaJob::predict`](crate::DeltaJob::predict)
//! are all readers of these.

use crate::columnar::FingerprintHasher;
use crate::delta::DeltaPrediction;
use crate::engine::{run_round, EngineConfig, EngineError};
use crate::mapper::{FnMapper, FnReducer, Mapper, Reducer};
use crate::metrics::RoundMetrics;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hash};
use std::iter;

/// Identifier of a reducer in a mapping schema.
pub type ReducerId = u64;

/// A mapping schema plus reduce logic for a concrete problem.
pub trait SchemaJob<I, O>: Sync {
    /// The reducers that input `i` must be sent to (§2.2's assignment).
    /// An input may be assigned to several reducers; each assignment
    /// contributes one key-value pair of communication.
    fn assign(&self, input: &I) -> Vec<ReducerId>;

    /// Computes the outputs a reducer is responsible for, given every
    /// input assigned to it. `reducer` is the id from [`assign`], and
    /// `inputs` arrive in input order.
    ///
    /// Implementations must respect the *covering* discipline: when an
    /// output is covered by multiple reducers, only one should emit it
    /// (e.g. the one given by a tie-breaking rule, as in §5.4.2).
    ///
    /// [`assign`]: SchemaJob::assign
    fn reduce(&self, reducer: ReducerId, inputs: &[I], emit: &mut dyn FnMut(O));
}

/// A borrowed schema is a schema — so a boxed `dyn SchemaJob` can be lent
/// to the entry points that take their schema by value or by `&S`.
impl<I, O, S: SchemaJob<I, O> + ?Sized> SchemaJob<I, O> for &S {
    fn assign(&self, input: &I) -> Vec<ReducerId> {
        (**self).assign(input)
    }

    fn reduce(&self, reducer: ReducerId, inputs: &[I], emit: &mut dyn FnMut(O)) {
        (**self).reduce(reducer, inputs, emit)
    }
}

/// The §2.2 assignment folded over a set of inputs: how many of them each
/// reducer receives, and how many key-value pairs that is in total.
///
/// The engine's semantic load metrics depend only on assignments, so a
/// table's [`max_load`](LoadTable::max_load), [`reducers`](LoadTable::reducers)
/// and [`pairs`](LoadTable::pairs) are **exactly** what a round over the
/// same inputs measures — with no shuffle and no reduce work. The key type
/// is a schema's [`ReducerId`] by default; [`DagJob::census`](crate::DagJob::census)
/// folds a mapper's emitted keys of any type into the same table.
///
/// Loads are counted under the data plane's deterministic fingerprint
/// hasher: one multiply per key where SipHash costs more than shuffling
/// and reducing a many-small-reducer round outright. Keys are reducer
/// ids a schema or mapper of this program computes, never outside input,
/// so the seeded hasher's collision protection is not what is given up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadTable<K: Hash + Eq = ReducerId> {
    loads: HashMap<K, u64, BuildHasherDefault<FingerprintHasher>>,
    pairs: u64,
}

impl<K: Hash + Eq> Default for LoadTable<K> {
    fn default() -> Self {
        LoadTable {
            loads: HashMap::default(),
            pairs: 0,
        }
    }
}

impl<K: Hash + Eq> LoadTable<K> {
    /// Counts one key-value pair shuffled to `key`.
    pub fn record(&mut self, key: K) {
        *self.loads.entry(key).or_insert(0) += 1;
        self.pairs += 1;
    }

    /// The largest reducer load — the effective `q` (0 for an empty table).
    pub fn max_load(&self) -> u64 {
        self.loads.values().copied().max().unwrap_or(0)
    }

    /// Number of distinct reducers the assignment touches.
    pub fn reducers(&self) -> u64 {
        self.loads.len() as u64
    }

    /// Total key-value pairs, `Σᵢ |assign(i)|`.
    pub fn pairs(&self) -> u64 {
        self.pairs
    }

    /// The load of `key` (0 for a reducer the assignment never touches).
    pub fn load(&self, key: &K) -> u64 {
        self.loads.get(key).copied().unwrap_or(0)
    }

    /// The table's loads with the keys forgotten.
    pub fn histogram(&self) -> LoadHistogram {
        let mut histogram = LoadHistogram::default();
        for &load in self.loads.values() {
            histogram.insert(load);
        }
        histogram
    }

    /// The table's three totals as the census of one round.
    pub fn census(&self) -> RoundCensus {
        RoundCensus {
            q: self.max_load(),
            pairs: self.pairs,
            reducers: self.reducers(),
        }
    }
}

impl LoadTable {
    /// Folds `schema`'s assignment over `inputs`.
    pub fn of<'a, I: 'a, O, S>(schema: &S, inputs: impl IntoIterator<Item = &'a I>) -> Self
    where
        S: SchemaJob<I, O> + ?Sized,
    {
        let mut table = LoadTable::default();
        for input in inputs {
            for rid in schema.assign(input) {
                table.record(rid);
            }
        }
        table
    }

    /// Every touched reducer with its load, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (ReducerId, u64)> + '_ {
        self.loads.iter().map(|(&rid, &load)| (rid, load))
    }
}

/// How many live reducers hold each load — a load picture with the
/// reducer ids forgotten, small (one entry per distinct load) and cheap
/// to keep current: a reducer whose load changes moves between two
/// levels. [`price_change`] reads the clean maximum off its top levels
/// instead of visiting every live reducer. Built from a table by
/// [`LoadTable::histogram`]; a [`DeltaJob`](crate::DeltaJob) keeps its
/// own current at every apply.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadHistogram {
    /// Load → reducers at that load; neither is ever zero.
    levels: BTreeMap<u64, u64>,
    reducers: u64,
}

impl LoadHistogram {
    /// Counts one reducer at `load`.
    ///
    /// # Panics
    /// Panics if `load` is zero: a reducer with no inputs is not live.
    pub(crate) fn insert(&mut self, load: u64) {
        assert!(load > 0, "a live reducer holds at least one input");
        *self.levels.entry(load).or_insert(0) += 1;
        self.reducers += 1;
    }

    /// Forgets one reducer at `load`.
    ///
    /// # Panics
    /// Panics if no reducer is counted at `load`.
    pub(crate) fn remove(&mut self, load: u64) {
        match self.levels.get_mut(&load) {
            Some(1) => {
                self.levels.remove(&load);
            }
            Some(count) => *count -= 1,
            // Cannot fire from `DeltaJob`: it removes only the load of a
            // state it holds, which it inserted at that load.
            None => panic!("no live reducer holds load {load}"),
        }
        self.reducers -= 1;
    }

    /// Number of reducers counted.
    pub(crate) fn reducers(&self) -> u64 {
        self.reducers
    }

    /// Every counted reducer's load, ascending.
    pub(crate) fn loads(&self) -> impl Iterator<Item = u64> + '_ {
        self.levels
            .iter()
            .flat_map(|(&load, &count)| iter::repeat_n(load, count as usize))
    }
}

/// What one round measures that depends on the assignment alone — the
/// numbers a plan prices a round by. Read off a [`LoadTable`] without
/// running the round, or off the [`RoundMetrics`] of a round that ran;
/// the two agree exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundCensus {
    /// Maximum reducer load.
    pub q: u64,
    /// Key-value pairs shuffled into the round.
    pub pairs: u64,
    /// Distinct reducers.
    pub reducers: u64,
}

impl From<&RoundMetrics> for RoundCensus {
    fn from(m: &RoundMetrics) -> Self {
        RoundCensus {
            q: m.load.max,
            pairs: m.kv_pairs,
            reducers: m.reducers,
        }
    }
}

/// Prices a change against the current loads: `load_of` gives a
/// reducer's current load (0 if it is not live) and `histogram` counts
/// every live reducer by load; `removed` and `added` are the tables of
/// the inputs leaving and entering. Exact by obliviousness — an input's
/// assignment never depends on the rest of the instance.
///
/// Costs `O(|Δ|·r)` plus the histogram levels it walks, never a visit
/// per live reducer: the clean reducers' maximum is the highest level
/// the dirty reducers do not wholly occupy, and the post-change reducer
/// count is the histogram's, less the dirty reducers that empty, plus
/// those that appear.
///
/// # Panics
/// Panics if `removed` takes more from a reducer than `load_of` says it
/// holds — the removed inputs were not part of the instance the loads
/// describe. Callers resolve removals against their live instance
/// first, so this is an internal invariant, checked identically in debug
/// and release builds.
pub fn price_change(
    load_of: impl Fn(ReducerId) -> u64,
    histogram: &LoadHistogram,
    removed: &LoadTable,
    added: &LoadTable,
) -> DeltaPrediction {
    // Per dirty reducer: (removals, additions).
    let mut dirty: HashMap<ReducerId, (u64, u64), BuildHasherDefault<FingerprintHasher>> =
        HashMap::with_capacity_and_hasher(
            removed.loads.len() + added.loads.len(),
            Default::default(),
        );
    for (rid, n) in removed.iter() {
        dirty.entry(rid).or_default().0 = n;
    }
    for (rid, n) in added.iter() {
        dirty.entry(rid).or_default().1 = n;
    }
    let (mut post_q, mut post_reducers) = (0u64, histogram.reducers());
    // The current loads of the live dirty reducers: the histogram entries
    // this change moves.
    let mut moved: Vec<u64> = Vec::with_capacity(dirty.len());
    for (&rid, &(removals, additions)) in &dirty {
        let current = load_of(rid);
        // Cannot fire: removals are resolved against the live instance,
        // and by obliviousness (§2.2) each is held by every reducer it maps to.
        let kept = current.checked_sub(removals).unwrap_or_else(|| {
            panic!(
                "reducer {rid} loses {removals} inputs but holds {current}: \
                 the removed inputs are not in the load table"
            )
        });
        let post = kept + additions;
        post_q = post_q.max(post);
        match (current > 0, post > 0) {
            (true, false) => post_reducers -= 1,
            (false, true) => post_reducers += 1,
            _ => {}
        }
        if current > 0 {
            moved.push(current);
        }
    }
    // Walk the levels from the top: the first one holding a reducer the
    // change does not move is the clean maximum.
    moved.sort_unstable_by(|a, b| b.cmp(a));
    let mut moved = moved.into_iter().peekable();
    for (&level, &count) in histogram.levels.iter().rev() {
        let mut dirty_here = 0;
        while moved.next_if_eq(&level).is_some() {
            dirty_here += 1;
        }
        if dirty_here < count {
            post_q = post_q.max(level);
            break;
        }
    }
    DeltaPrediction {
        dirty_reducers: dirty.len() as u64,
        delta_pairs: removed.pairs + added.pairs,
        post_q,
        post_reducers,
    }
}

/// A schema as one round's mapper and reducer — the single place the
/// workspace turns §2.2's assignment into emissions: input `i` is sent,
/// whole, to every reducer `assign(i)` names, and reducer `r` runs
/// `reduce(r, ..)` over what arrived.
pub(crate) fn schema_round<'s, I, O, S>(
    schema: &'s S,
) -> (
    impl Mapper<I, ReducerId, I> + 's,
    impl Reducer<ReducerId, I, O> + 's,
)
where
    I: Clone,
    S: SchemaJob<I, O> + ?Sized,
{
    (
        FnMapper(move |input: &I, emit: &mut dyn FnMut(ReducerId, I)| {
            for r in schema.assign(input) {
                emit(r, input.clone());
            }
        }),
        FnReducer(move |rid: &ReducerId, vs: &[I], emit: &mut dyn FnMut(O)| {
            schema.reduce(*rid, vs, emit)
        }),
    )
}

/// Executes a [`SchemaJob`] on the engine.
///
/// Returns the outputs plus the round metrics; the metrics'
/// [`replication_rate`](RoundMetrics::replication_rate) is exactly the
/// schema's `Σ qᵢ / |I|` from §2.2 evaluated on the given instance.
pub fn run_schema<I, O, S>(
    inputs: &[I],
    schema: &S,
    config: &EngineConfig,
) -> Result<(Vec<O>, RoundMetrics), EngineError>
where
    I: Clone + Send + Sync,
    O: Send,
    S: SchemaJob<I, O>,
{
    let (mapper, reducer) = schema_round(schema);
    run_round(inputs, &mapper, &reducer, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy all-pairs similarity schema: inputs are small integers, each
    /// goes to reducer `x / 2`, and reducers emit every pair they hold.
    struct PairUp;

    impl SchemaJob<u32, (u32, u32)> for PairUp {
        fn assign(&self, input: &u32) -> Vec<ReducerId> {
            vec![(*input / 2) as ReducerId]
        }
        fn reduce(&self, _r: ReducerId, inputs: &[u32], emit: &mut dyn FnMut((u32, u32))) {
            for i in 0..inputs.len() {
                for j in (i + 1)..inputs.len() {
                    emit((inputs[i], inputs[j]));
                }
            }
        }
    }

    #[test]
    fn schema_runs_and_measures() {
        let inputs: Vec<u32> = (0..8).collect();
        let (out, m) = run_schema(&inputs, &PairUp, &EngineConfig::sequential()).unwrap();
        assert_eq!(out, vec![(0, 1), (2, 3), (4, 5), (6, 7)]);
        assert_eq!(m.reducers, 4);
        assert!((m.replication_rate() - 1.0).abs() < 1e-12);
        assert_eq!(m.load.max, 2);
    }

    /// Replicating schema: every input goes to `c` reducers.
    struct Replicate(u64);

    impl SchemaJob<u32, u32> for Replicate {
        fn assign(&self, input: &u32) -> Vec<ReducerId> {
            (0..self.0)
                .map(|g| g * 100 + (*input as u64 % 10))
                .collect()
        }
        fn reduce(&self, _r: ReducerId, _inputs: &[u32], _emit: &mut dyn FnMut(u32)) {}
    }

    #[test]
    fn replication_rate_equals_assignments_per_input() {
        let inputs: Vec<u32> = (0..100).collect();
        for c in [1u64, 2, 5] {
            let (_, m) = run_schema(&inputs, &Replicate(c), &EngineConfig::sequential()).unwrap();
            assert!(
                (m.replication_rate() - c as f64).abs() < 1e-12,
                "c={c} gave r={}",
                m.replication_rate()
            );
        }
    }

    #[test]
    fn load_table_predicts_the_round_and_prices_a_change_exactly() {
        let schema = Replicate(3);
        let inputs: Vec<u32> = (0..100).collect();
        let table = LoadTable::of(&schema, &inputs);
        let (_, m) = run_schema(&inputs, &schema, &EngineConfig::sequential()).unwrap();
        assert_eq!(
            (table.max_load(), table.reducers(), table.pairs()),
            (m.load.max, m.reducers, m.kv_pairs)
        );
        // Swap the first 15 inputs for 5 new ones: the priced change is
        // the table of the post-change instance.
        let (gone, kept) = inputs.split_at(15);
        let fresh: Vec<u32> = (200..205).collect();
        let (removed, added) = (LoadTable::of(&schema, gone), LoadTable::of(&schema, &fresh));
        let priced = price_change(|rid| table.load(&rid), &table.histogram(), &removed, &added);
        let post = LoadTable::of(&schema, kept.iter().chain(&fresh));
        assert_eq!(priced.post_q, post.max_load());
        assert_eq!(priced.post_reducers, post.reducers());
        assert_eq!(priced.delta_pairs, removed.pairs() + added.pairs());
        assert_eq!(priced.dirty_reducers, 30);
    }

    #[test]
    #[should_panic(expected = "not in the load table")]
    fn pricing_a_removal_the_table_does_not_hold_is_refused_not_wrapped() {
        // Reducer 0 holds one input; taking two from it must not wrap
        // around to a load near u64::MAX in release builds.
        let held = LoadTable::of(&PairUp, &[0u32]);
        let taken = LoadTable::of(&PairUp, &[0u32, 1]);
        price_change(
            |rid| held.load(&rid),
            &held.histogram(),
            &taken,
            &LoadTable::default(),
        );
    }

    /// Input `x` goes to reducer `x / 10`, so an instance spells out its
    /// loads: reducer `r` holds the inputs in `10r..10r + 10`.
    struct Tens;

    impl SchemaJob<u32, u32> for Tens {
        fn assign(&self, input: &u32) -> Vec<ReducerId> {
            vec![(*input / 10) as ReducerId]
        }
        fn reduce(&self, _r: ReducerId, _inputs: &[u32], _emit: &mut dyn FnMut(u32)) {}
    }

    #[test]
    fn price_change_matches_a_brute_force_post_change_table_on_the_edges() {
        // (name, base, removed values, added values)
        type Case = (&'static str, Vec<u32>, Vec<u32>, Vec<u32>);
        let cases: [Case; 9] = [
            (
                "unique max shrinks",
                vec![0, 1, 2, 3, 4, 10, 11, 12, 20],
                vec![0, 1, 2],
                vec![],
            ),
            (
                "tie at max, one dirty",
                vec![0, 1, 2, 10, 11, 12, 20],
                vec![0],
                vec![],
            ),
            (
                "tie at max, both dirty",
                vec![0, 1, 2, 10, 11, 12, 20],
                vec![0, 10],
                vec![],
            ),
            (
                "max drops to zero",
                vec![0, 1, 2, 10, 20],
                vec![0, 1, 2],
                vec![],
            ),
            (
                "a reducer appears",
                vec![0, 1, 10],
                vec![],
                vec![30, 31, 32],
            ),
            (
                "a dirty reducer grows past max",
                vec![0, 1, 10],
                vec![10],
                vec![11, 12, 13],
            ),
            ("empty base", vec![], vec![], vec![5, 6, 15]),
            ("empty delta", vec![0, 1, 2, 10], vec![], vec![]),
            (
                "full churn to empty",
                vec![0, 1, 10, 20],
                vec![0, 1, 10, 20],
                vec![],
            ),
        ];
        for (name, base, gone, fresh) in cases {
            let table = LoadTable::of(&Tens, &base);
            let (removed, added) = (LoadTable::of(&Tens, &gone), LoadTable::of(&Tens, &fresh));
            let priced = price_change(|rid| table.load(&rid), &table.histogram(), &removed, &added);
            let mut post = base.clone();
            for value in &gone {
                let at = post
                    .iter()
                    .position(|v| v == value)
                    .expect("removed from base");
                post.remove(at);
            }
            post.extend(&fresh);
            let post = LoadTable::of(&Tens, &post);
            let dirty: std::collections::BTreeSet<ReducerId> = removed
                .iter()
                .chain(added.iter())
                .map(|(rid, _)| rid)
                .collect();
            let truth = DeltaPrediction {
                dirty_reducers: dirty.len() as u64,
                delta_pairs: (gone.len() + fresh.len()) as u64,
                post_q: post.max_load(),
                post_reducers: post.reducers(),
            };
            assert_eq!(priced, truth, "{name}");
        }
    }

    #[test]
    fn histogram_tracks_moves_between_levels() {
        let mut histogram = LoadTable::of(&Tens, &[0u32, 1, 10, 20, 21, 22]).histogram();
        assert_eq!(histogram.loads().collect::<Vec<_>>(), vec![1, 2, 3]);
        histogram.remove(3);
        histogram.insert(1);
        assert_eq!(histogram.loads().collect::<Vec<_>>(), vec![1, 1, 2]);
        assert_eq!(histogram.reducers(), 3);
        for load in [1, 1, 2] {
            histogram.remove(load);
        }
        assert_eq!(histogram, LoadHistogram::default());
    }

    #[test]
    fn schema_deterministic_across_worker_counts() {
        // The schema runner rides on run_round, so the partitioned shuffle
        // must be invisible here too: identical outputs and metrics for
        // every worker count.
        let inputs: Vec<u32> = (0..200).collect();
        let (seq_out, seq_m) = run_schema(&inputs, &PairUp, &EngineConfig::sequential()).unwrap();
        for workers in [2usize, 3, 8, 16] {
            let (out, m) = run_schema(&inputs, &PairUp, &EngineConfig::parallel(workers)).unwrap();
            assert_eq!(seq_out, out, "outputs diverged at workers={workers}");
            assert_eq!(seq_m, m, "metrics diverged at workers={workers}");
        }
    }

    #[test]
    fn schema_respects_q_budget() {
        let inputs: Vec<u32> = (0..30).collect();
        let cfg = EngineConfig::sequential().with_max_reducer_inputs(2);
        // PairUp sends 2 inputs per reducer: exactly at budget.
        assert!(run_schema(&inputs, &PairUp, &cfg).is_ok());
        let cfg1 = EngineConfig::sequential().with_max_reducer_inputs(1);
        assert!(run_schema(&inputs, &PairUp, &cfg1).is_err());
    }
}
