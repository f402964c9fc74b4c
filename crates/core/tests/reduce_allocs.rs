//! The distance-`d` Splitting reducer allocates nothing per candidate
//! pair; `assign_into` — what the engine's map, the census and a delta's
//! routing call per input — allocates nothing for the Splitting,
//! multiset-partition, bucket-pair and Shares schemas, so a census
//! allocates per reducer, never per input; a Shares reducer makes one
//! allocation however many tuples it joins; a retained delta apply makes
//! a quarter of an allocation per change, never one per change or per
//! dirty reducer; and the multiset-partition `assign`
//! allocates only the `Vec` it returns; and a round over wide inputs
//! allocates at most one reduce block of them more than the same round
//! over narrow ones — all pinned as counts, so the properties cannot
//! silently rot.
//!
//! This binary installs its own counting `#[global_allocator]`; it is a
//! separate integration test so that no other test runs under it. Counts
//! are per thread (the harness's other threads allocate at will), and an
//! allocation count, unlike a timing, repeats exactly.

use mr_core::model::Problem;
use mr_core::problems::hamming::splitting::DistanceDSplittingSchema;
use mr_core::problems::join::{MultiwayJoinProblem, Query, SharesSchema};
use mr_core::problems::sample_graph::MultisetPartitionSchema;
use mr_core::problems::two_path::BucketPairSchema;
use mr_graph::{patterns, Graph};
use mr_sim::engine::BLOCK;
use mr_sim::schema::{ReducerId, SchemaJob};
use mr_sim::{
    run_schema, run_schema_retained, Delta, EngineConfig, FnSchema, LoadTable, Pipeline, Seq,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (`alloc` and `realloc` calls) made by this thread.
    /// Const-initialised and without a destructor, so touching it from
    /// inside the allocator allocates nothing itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread asked for: each `alloc`'s size and each
    /// `realloc`'s new size.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + new_size as u64));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations the calling thread makes while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Bytes the calling thread allocates while `f` runs.
fn bytes_during(f: impl FnOnce()) -> u64 {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

/// Every `b`-bit string the schema sends to `reducer`, in input order.
fn full_reducer(schema: &DistanceDSplittingSchema, reducer: ReducerId) -> Vec<u64> {
    (0..1u64 << schema.b)
        .filter(|w| SchemaJob::assign(schema, w).contains(&reducer))
        .collect()
}

#[test]
fn the_counter_sees_an_allocation() {
    let n = allocations_during(|| drop(std::hint::black_box(Vec::<u64>::with_capacity(8))));
    assert_eq!(n, 1);
}

#[test]
fn splitting_reduce_allocates_nothing() {
    // (b, k, d, q): d = 1 is the `hamming_join` shape with its 8-input
    // reducers; d = 2 pads owners and has 16-input reducers; k = 1 is one
    // reducer of 256 strings whose 1,024 pairs flush the kernel's
    // candidate block many times over.
    for (b, k, d, q) in [(18, 6, 1, 8), (12, 6, 2, 16), (8, 1, 1, 256)] {
        let schema = DistanceDSplittingSchema::new(b, k, d);
        // One reducer from every group a string belongs to.
        for reducer in SchemaJob::assign(&schema, &(0x2_B3A5 & ((1 << b) - 1))) {
            let inputs = full_reducer(&schema, reducer);
            assert_eq!(inputs.len(), q, "b={b} k={k} d={d}: reducer {reducer}");
            let mut emitted = 0u64;
            let n = allocations_during(|| {
                schema.reduce(reducer, &inputs, &mut |pair| {
                    std::hint::black_box(pair);
                    emitted += 1;
                })
            });
            assert_eq!(n, 0, "b={b} k={k} d={d}: reducer {reducer} allocated");
            assert!(emitted > 0, "b={b} k={k} d={d}: reducer {reducer} is idle");
        }
    }
}

#[test]
fn delta_apply_allocates_per_change_not_per_dirty_reducer() {
    // All 2^12 strings at d = 1: 6 · 2^10 reducers of 4 inputs each.
    let (b, churn) = (12, 64);
    let schema = DistanceDSplittingSchema::new(b, 6, 1);
    let inputs: Vec<u64> = (0..1u64 << b).collect();
    let mut job = run_schema_retained(
        &inputs,
        schema,
        Pipeline::Columnar,
        &EngineConfig::sequential(),
    )
    .expect("no budget to exceed");
    let reducers = job.num_reducers();
    // String w is input w, so its first seq is w. Step s removes the
    // strings k · 1031 mod 2^b for k in s·churn..(s + 1)·churn (an odd
    // stride: never a string twice) and re-adds the previous step's, as
    // `steady_churn` does; step 0 only removes.
    let mut seq_of: Vec<Seq> = inputs.clone();
    let strings = |step: u64| (step * churn..(step + 1) * churn).map(|k| k * 1031 % (1 << b));
    for step in 0..3 {
        let removed = strings(step).map(|w| seq_of[w as usize]).collect();
        let added = if step == 0 {
            Vec::new()
        } else {
            strings(step - 1).collect()
        };
        let delta = Delta::new(added, removed);
        let mut outcome = None;
        let n = allocations_during(|| outcome = Some(job.apply(&delta).expect("valid delta")));
        let outcome = outcome.expect("apply ran");
        for (w, seq) in delta.added.iter().zip(outcome.added_seqs.clone()) {
            seq_of[*w as usize] = seq;
        }
        assert_eq!(
            job.num_reducers(),
            reducers,
            "step {step}: a reducer emptied"
        );
        if step > 0 {
            // Routing calls `assign_into`, which allocates nothing, so
            // what grows with the changes is the ordered maps' nodes (the
            // live instance, the removal check) and the apply's buffers
            // doubling: 68 allocations for 128 changes over 768 dirty
            // reducers. One per change, or per dirty reducer, fails.
            let (changes, dirty) = (delta.changes() as u64, outcome.metrics.dirty_reducers);
            assert!(
                n < changes / 4 + 40,
                "step {step}: {n} allocations for {changes} changes over {dirty} dirty reducers"
            );
        }
    }
}

#[test]
fn multiset_assign_allocates_only_its_vec() {
    // The triangle (s = 3), C4 (s = 4) and matching(2) (s = 4, two
    // components) at several group counts: one allocation per call, the
    // returned `Vec`, however many multisets an edge joins.
    for (pattern, n, k) in [
        (patterns::triangle(), 24, 1),
        (patterns::triangle(), 24, 6),
        (patterns::cycle(4), 10, 4),
        (patterns::matching(2), 12, 5),
    ] {
        let schema = MultisetPartitionSchema::new(pattern, n, k);
        for e in Graph::complete(n as usize).edges() {
            let mut ids = Vec::new();
            let count = allocations_during(|| ids = SchemaJob::assign(&schema, e));
            assert_eq!(
                count,
                1,
                "s={} k={k}: edge {e} joins {} reducers",
                schema.s,
                ids.len()
            );
        }
    }
}

/// The multiset-partition shapes the pins run: the triangle (s = 3) at
/// one and at six groups, C4 (s = 4) and matching(2) (s = 4, two
/// components).
fn multiset_shapes() -> [MultisetPartitionSchema; 4] {
    [
        MultisetPartitionSchema::new(patterns::triangle(), 24, 1),
        MultisetPartitionSchema::new(patterns::triangle(), 24, 6),
        MultisetPartitionSchema::new(patterns::cycle(4), 10, 4),
        MultisetPartitionSchema::new(patterns::matching(2), 12, 5),
    ]
}

#[test]
fn splitting_assign_into_allocates_nothing() {
    // The engine's map chunk, the census and a delta's routing pass every
    // input through `assign_into`: no allocation, whatever `d` is.
    for (b, k, d) in [(18, 6, 1), (12, 6, 2), (8, 1, 1)] {
        let schema = DistanceDSplittingSchema::new(b, k, d);
        for w in [0, 0x2_B3A5 & ((1 << b) - 1), (1 << b) - 1] {
            let mut reducers = 0;
            let n = allocations_during(|| {
                schema.assign_into(&w, &mut |r| {
                    std::hint::black_box(r);
                    reducers += 1;
                })
            });
            assert_eq!(n, 0, "b={b} k={k} d={d}: string {w} allocated");
            assert_eq!(reducers, schema.replication(), "b={b} k={k} d={d}");
        }
    }
}

#[test]
fn multiset_assign_into_allocates_nothing() {
    for schema in multiset_shapes() {
        for e in Graph::complete(schema.n as usize).edges() {
            let mut reducers = 0;
            let n = allocations_during(|| {
                schema.assign_into(e, &mut |r| {
                    std::hint::black_box(r);
                    reducers += 1;
                })
            });
            assert_eq!(n, 0, "s={} k={}: edge {e} allocated", schema.s, schema.k);
            assert_eq!(reducers, SchemaJob::assign(&schema, e).len());
        }
    }
}

#[test]
fn bucket_pair_assign_into_allocates_nothing() {
    // §5.4.2's 2(k − 1) reducers per edge come out already ascending, so
    // no edge builds, sorts or dedups a list of them.
    for k in [2, 3, 6] {
        let schema = BucketPairSchema::new(12, k);
        for e in Graph::complete(12).edges() {
            let mut reducers = 0;
            let n = allocations_during(|| {
                schema.assign_into(e, &mut |r| {
                    std::hint::black_box(r);
                    reducers += 1;
                })
            });
            assert_eq!(n, 0, "k={k}: edge {e} allocated");
            assert_eq!(reducers as f64, schema.nominal_replication(), "k={k}");
        }
    }
}

/// The Shares shapes the pins run, each with the complete instance its
/// grid partitions: the 3-cycle, chain N=3 and the 6-variable star N=3.
fn shares_shapes() -> [(SharesSchema, MultiwayJoinProblem); 3] {
    let shape = |query: Query, shares: Vec<u64>, n| {
        let problem = MultiwayJoinProblem::new(query.clone(), n);
        (SharesSchema::new(query, shares), problem)
    };
    [
        shape(Query::cycle(3), vec![2, 3, 2], 6),
        shape(Query::chain(3), vec![1, 2, 3, 1], 6),
        shape(Query::star(3), vec![2, 1, 2, 1, 3, 1], 4),
    ]
}

#[test]
fn shares_assign_into_allocates_nothing() {
    // The free coordinates are counted through in place: no list of
    // fixed coordinates, no bucket vector.
    for (schema, problem) in shares_shapes() {
        for tuple in problem.inputs() {
            let mut reducers = 0;
            let n = allocations_during(|| {
                schema.assign_into(&tuple, &mut |r| {
                    std::hint::black_box(r);
                    reducers += 1;
                })
            });
            assert_eq!(n, 0, "{:?}: tuple {tuple:?} allocated", schema.shares());
            assert_eq!(reducers, schema.replication_of_atom(tuple.0 as usize));
        }
    }
}

#[test]
fn shares_reduce_allocates_once_whatever_its_tuple_count() {
    // A reducer joins over its borrowed tuples through one sorted index
    // of them and emits its rows as it meets them, already ascending:
    // exactly 1 allocation per non-empty reducer, at the domain that
    // fills every grid cell and at twice it, from 21 tuples to 408.
    for (schema, problem) in shares_shapes() {
        for n in [6, 12] {
            let inputs = MultiwayJoinProblem::new(problem.query.clone(), n).inputs();
            for reducer in [0, schema.num_reducers() - 1] {
                let local: Vec<_> = inputs
                    .iter()
                    .filter(|t| SchemaJob::assign(&schema, t).contains(&reducer))
                    .cloned()
                    .collect();
                let mut rows = 0;
                let count = allocations_during(|| {
                    schema.reduce(reducer, &local, &mut |row| {
                        std::hint::black_box(row);
                        rows += 1;
                    })
                });
                assert!(
                    rows > 0,
                    "{:?} n={n}: reducer {reducer} is idle",
                    schema.shares()
                );
                assert_eq!(
                    count,
                    1,
                    "{:?} n={n}: reducer {reducer} of {} tuples",
                    schema.shares(),
                    local.len()
                );
            }
        }
    }
}

#[test]
fn load_table_allocates_per_reducer_not_per_input() {
    // Folding an instance twice over touches no new reducer on the second
    // pass, so it allocates exactly what folding it once does: the
    // table's own growth, with nothing per input.
    fn assert_per_reducer<I, O, S: SchemaJob<I, O>>(label: &str, schema: &S, inputs: &[I]) {
        let mut once = LoadTable::default();
        let n_once = allocations_during(|| once = LoadTable::of(schema, inputs));
        let mut twice = LoadTable::default();
        let n_twice =
            allocations_during(|| twice = LoadTable::of(schema, inputs.iter().chain(inputs)));
        assert_eq!(twice.pairs(), 2 * once.pairs(), "{label}");
        assert_eq!(twice.reducers(), once.reducers(), "{label}");
        assert_eq!(
            n_twice,
            n_once,
            "{label}: {} more inputs cost {} more allocations",
            inputs.len(),
            n_twice - n_once
        );
    }
    let strings: Vec<u64> = (0..1u64 << 12).collect();
    for d in [1, 2] {
        let schema = DistanceDSplittingSchema::new(12, 6, d);
        assert_per_reducer(&format!("splitting d={d}"), &schema, &strings);
    }
    for schema in multiset_shapes() {
        let edges = Graph::complete(schema.n as usize).edges().to_vec();
        let label = format!("multiset s={} k={}", schema.s, schema.k);
        assert_per_reducer(&label, &schema, &edges);
    }
    // The `join-cycle3` family's instance and grid at the default scale.
    let problem = MultiwayJoinProblem::new(Query::cycle(3), 6);
    for s in [1, 2, 3, 6] {
        let schema = SharesSchema::new(problem.query.clone(), vec![s, s, s]);
        assert_per_reducer(&format!("join-cycle3 s={s}"), &schema, &problem.inputs());
    }
}

#[test]
fn a_wide_round_allocates_at_most_one_block_more_than_a_narrow_one() {
    // One round, the same assignment, over `[u64; 8]` inputs and over
    // `u64` inputs. Pairs carry an input's position, not the input, so the
    // two rounds' columns, grouped runs and outputs are the same size; the
    // only buffer of inputs is the reduce phase's gather, at most `BLOCK`
    // of them per reduce chunk. The round runs inline (one chunk), so this
    // thread makes every allocation.
    fn round_bytes<I: Clone + Send + Sync>(inputs: &[I], key: fn(&I) -> u64) -> u64 {
        let schema = FnSchema(
            move |x: &I, emit: &mut dyn FnMut(ReducerId)| {
                emit(key(x) % 512);
                emit(1_000 + key(x) % 509);
            },
            |r: ReducerId, xs: &[I], emit: &mut dyn FnMut(u64)| emit(r + xs.len() as u64),
        );
        let mut outputs = Vec::new();
        let bytes = bytes_during(|| {
            outputs = run_schema(inputs, &schema, &EngineConfig::sequential())
                .expect("no q bound set")
                .0;
        });
        assert_eq!(outputs.len(), 512 + 509);
        bytes
    }
    let narrow: Vec<u64> = (0..4_096).collect();
    let wide: Vec<[u64; 8]> = narrow.iter().map(|&x| [x; 8]).collect();
    // A first round pays the engine's one-time set-up (its counters).
    round_bytes(&narrow, |&x| x);
    let narrow_bytes = round_bytes(&narrow, |&x| x);
    let wide_bytes = round_bytes(&wide, |x| x[0]);
    let chunks = 1;
    let bound = (BLOCK * std::mem::size_of::<[u64; 8]>() * chunks) as u64;
    assert!(
        wide_bytes <= narrow_bytes + bound,
        "the wide round allocated {wide_bytes} B, the narrow one {narrow_bytes} B: \
         {} B more, above one block of wide inputs ({bound} B)",
        wide_bytes - narrow_bytes.min(wide_bytes)
    );
}
