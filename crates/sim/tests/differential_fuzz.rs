//! The unified differential fuzz loop (ROADMAP item 1): random workloads
//! and budgets cross-check every execution path the crate offers —
//! columnar vs the naive oracle from `mr-oracle` vs the retained delta
//! path — in one battery.
//!
//! The fixed adversarial fixtures (Zipf hubs, all-one-key, concurrent
//! offenders) stay in
//! `columnar_oracle.rs` / `shuffle_battery.rs`; this file owns all the
//! *randomised* cross-checks those suites used to duplicate per file,
//! plus the delta battery: `full_run(I ∪ ΔI) == apply(delta_run(ΔI),
//! retained)` byte-identically for random deltas (adds, removes, mixed,
//! empty, full-churn) at every worker count 1–16.

use mr_oracle::DIGEST_PLANES;
use mr_oracle::{digest_round_naive, indexed, run_schema_naive, DigestFan};
use mr_sim::{
    run_schema, run_schema_retained, DagJob, Delta, EngineConfig, FnSchema, Pipeline, ReducerId,
    RoundCensus, SchemaJob, Seq,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

// -----------------------------------------------------------------
// Shared oblivious schema for the delta battery: input x lands on
// `reps` distinct reducers derived from x alone (§2.2 obliviousness),
// and each reducer emits an order-sensitive digest of its input list.
// -----------------------------------------------------------------

#[derive(Clone)]
struct ModFan {
    groups: u64,
    reps: u64,
}

impl ModFan {
    /// The `reps` reducers `x` maps to, repeats included.
    fn fan(&self, x: u64) -> impl Iterator<Item = u64> + '_ {
        (0..self.reps).map(move |j| x.wrapping_mul(2 * j + 7).wrapping_add(j) % self.groups)
    }
}

impl SchemaJob<u64, (u64, u64, u64)> for ModFan {
    fn assign_into(&self, x: &u64, emit: &mut dyn FnMut(ReducerId)) {
        let set: BTreeSet<u64> = self.fan(*x).collect();
        set.into_iter().for_each(emit);
    }

    fn reduce(&self, r: u64, inputs: &[u64], emit: &mut dyn FnMut((u64, u64, u64))) {
        emit((
            r,
            inputs.len() as u64,
            inputs.iter().fold(0u64, |acc, v| acc.rotate_left(9) ^ v),
        ))
    }
}

/// `ModFan` with its repeats kept: an assignment may name one reducer
/// more than once, and each naming sends the input there once more (the
/// `SchemaJob::assign_into` contract). Over five groups with three reps, every
/// `x ≡ 2 (mod 5)` names one reducer three times.
#[derive(Clone)]
struct RepeatFan(ModFan);

impl SchemaJob<u64, (u64, u64, u64)> for RepeatFan {
    fn assign_into(&self, x: &u64, emit: &mut dyn FnMut(ReducerId)) {
        self.0.fan(*x).for_each(emit);
    }

    fn reduce(&self, r: u64, inputs: &[u64], emit: &mut dyn FnMut((u64, u64, u64))) {
        self.0.reduce(r, inputs, emit)
    }
}

/// Runs a retained job through `deltas` in order — its state carried
/// from each apply into the next — and asserts before every apply that
/// the map-side prediction is exact, and after it that the retained
/// result equals a fresh full run of the live instance byte-identically:
/// outputs *and* semantic metrics.
fn assert_deltas_match_full_runs<S: SchemaJob<u64, (u64, u64, u64)> + Clone>(
    name: &str,
    schema: &S,
    base: &[u64],
    deltas: &[Delta<u64>],
    config: &EngineConfig,
) {
    let mut job = run_schema_retained(base, schema.clone(), Pipeline::Columnar, config)
        .expect("unbudgeted retained init cannot fail");
    for (step, delta) in deltas.iter().enumerate() {
        let at = format!(
            "[{name}] step {step} (workers={})",
            config.effective_workers()
        );
        let predicted = job.predict(delta).expect("well-formed delta");
        let outcome = job.apply(delta).expect("unbudgeted apply cannot fail");
        let live = job.inputs();
        let (full_out, full_m) = run_schema(&live, schema, config).expect("no q bound set");
        assert_eq!(
            job.outputs(),
            full_out,
            "{at}: retained outputs diverged from the full run"
        );
        assert_eq!(
            job.metrics(),
            full_m,
            "{at}: retained metrics diverged from the full run"
        );
        assert_eq!(
            outcome.metrics.dirty_reducers, predicted.dirty_reducers,
            "{at}"
        );
        assert_eq!(outcome.metrics.delta_pairs, predicted.delta_pairs, "{at}");
        assert_eq!(
            outcome.metrics.total_reducers, predicted.post_reducers,
            "{at}"
        );
        assert_eq!(job.num_reducers(), predicted.post_reducers, "{at}");
        assert_eq!(job.metrics().load.max, predicted.post_q, "{at}");
    }
}

/// Turns random picks into a well-formed delta sequence over a base of
/// `base_len` inputs: step `i` adds `steps[i].0` and removes the live
/// inputs `steps[i].1` points at (modulo the live count, repeats
/// dropped, in pick order), tracking seqs the way `DeltaJob` assigns
/// them.
fn delta_sequence(base_len: usize, steps: &[(Vec<u64>, Vec<usize>)]) -> Vec<Delta<u64>> {
    let mut live: Vec<Seq> = (0..base_len as Seq).collect();
    let mut next = base_len as Seq;
    steps
        .iter()
        .map(|(adds, picks)| {
            let mut seen = BTreeSet::new();
            let removed: Vec<Seq> = if live.is_empty() {
                Vec::new()
            } else {
                picks
                    .iter()
                    .map(|&p| live[p % live.len()])
                    .filter(|&seq| seen.insert(seq))
                    .collect()
            };
            live.retain(|seq| !seen.contains(seq));
            live.extend(next..next + adds.len() as Seq);
            next += adds.len() as Seq;
            Delta::new(adds.clone(), removed)
        })
        .collect()
}

// -----------------------------------------------------------------
// The delta battery, exhaustive axes: every delta kind × every worker
// count 1–16.
// -----------------------------------------------------------------

/// One delta of each kind over a base of 200 inputs (seqs `0..200`).
fn delta_kinds() -> Vec<(&'static str, Delta<u64>)> {
    vec![
        ("empty", Delta::empty()),
        ("adds", Delta::add((1_000..1_040).collect())),
        (
            "removes",
            Delta::remove((0..60).map(|i| i * 3 as Seq).collect()),
        ),
        (
            "mixed",
            Delta::new(
                (1_000..1_020).collect(),
                (0..40).map(|i| i * 5 as Seq).collect(),
            ),
        ),
        (
            "full-churn",
            Delta::new((2_000..2_200).collect(), (0..200 as Seq).collect()),
        ),
    ]
}

#[test]
fn delta_kinds_match_full_runs_at_every_worker_count() {
    let schema = ModFan {
        groups: 37,
        reps: 3,
    };
    let base: Vec<u64> = (0..200u64).map(|i| i * 13 + 7).collect();
    for workers in 1..=16usize {
        let cfg = EngineConfig::parallel(workers);
        for (name, delta) in &delta_kinds() {
            assert_deltas_match_full_runs(name, &schema, &base, std::slice::from_ref(delta), &cfg);
        }
    }
}

/// An input that `assign` sends to one reducer several times is held
/// there once per naming, and removing it removes every copy.
#[test]
fn repeated_assignments_match_full_runs_at_every_worker_count() {
    let schema = RepeatFan(ModFan { groups: 5, reps: 3 });
    let base: Vec<u64> = (0..200u64).map(|i| i * 13 + 7).collect();
    assert!(base.iter().any(|x| {
        let ids = schema.assign(x);
        ids.iter().collect::<BTreeSet<_>>().len() < ids.len()
    }));
    for workers in 1..=16usize {
        let cfg = EngineConfig::parallel(workers);
        for (name, delta) in &delta_kinds() {
            assert_deltas_match_full_runs(name, &schema, &base, std::slice::from_ref(delta), &cfg);
        }
    }
}

/// Applies `delta` to a job retained over `base` and asserts that its
/// priced `routing` equals what a routing round measures through
/// `run_schema`: each change, as its `(seq, is_add)`, sent to the
/// reducers its value's assignment names, and re-emitted there.
fn assert_routing_is_priced_exactly<S: SchemaJob<u64, (u64, u64, u64)> + Clone>(
    at: &str,
    schema: &S,
    base: &[u64],
    delta: &Delta<u64>,
    config: &EngineConfig,
) {
    let removed = delta.removed.iter().map(|&seq| (seq, false));
    let added = (base.len() as Seq..)
        .take(delta.added.len())
        .map(|seq| (seq, true));
    let changed: Vec<(Seq, bool)> = removed.chain(added).collect();
    let value = |seq: Seq| match base.get(seq as usize) {
        Some(v) => v,
        None => &delta.added[seq as usize - base.len()],
    };
    let routing = FnSchema(
        |&(seq, _): &(Seq, bool), emit: &mut dyn FnMut(ReducerId)| {
            schema.assign_into(value(seq), emit)
        },
        |rid: ReducerId, ops: &[(Seq, bool)], emit: &mut dyn FnMut((u64, Seq, bool))| {
            for &(seq, is_add) in ops {
                emit((rid, seq, is_add));
            }
        },
    );
    let (_, round) = run_schema(&changed, &routing, config).expect("no q bound set");
    let mut job = run_schema_retained(base, schema.clone(), Pipeline::Columnar, config)
        .expect("unbudgeted retained init cannot fail");
    let priced = job
        .apply(delta)
        .expect("unbudgeted apply cannot fail")
        .metrics
        .routing;
    // `RoundMetrics::eq` compares the semantic fields and skips `shuffle`;
    // `ShuffleStats::eq` compares every one of its fields.
    assert_eq!(priced, round, "{at}: semantic routing metrics");
    assert_eq!(priced.shuffle, round.shuffle, "{at}: shuffle statistics");
    assert!(round.shuffle.bytes_moved.is_some(), "{at}");
}

/// The routing an apply prices from its sorted keys is the routing round
/// it no longer runs, field for field — partitions, partition loads and
/// bytes moved included — for every delta kind, with and without
/// repeated assignments, at every worker count.
#[test]
fn priced_routing_equals_the_routing_round_at_every_worker_count() {
    let base: Vec<u64> = (0..200u64).map(|i| i * 13 + 7).collect();
    let distinct = ModFan {
        groups: 37,
        reps: 3,
    };
    let repeated = RepeatFan(ModFan { groups: 5, reps: 3 });
    for workers in 1..=16usize {
        let cfg = EngineConfig::parallel(workers);
        for (name, delta) in &delta_kinds() {
            let at = format!("{name} (workers={workers})");
            assert_routing_is_priced_exactly(
                &format!("ModFan {at}"),
                &distinct,
                &base,
                delta,
                &cfg,
            );
            assert_routing_is_priced_exactly(
                &format!("RepeatFan {at}"),
                &repeated,
                &base,
                delta,
                &cfg,
            );
        }
    }
}

/// `n` inputs that a one-rep `ModFan` over ten groups sends to one
/// reducer: `x ↦ 7x mod 10` depends only on `x mod 10`, so each `class`
/// is a reducer (class 0 → reducer 0, 1 → 7, 4 → 8, 5 → 5, 9 → 3).
fn class(class: u64, n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| 100 + 10 * i + class)
}

/// Multi-step sequences at the edges of the retained state's load
/// histogram and reducer map, through every worker count.
#[test]
fn retained_state_edges_match_full_runs_across_applies() {
    let schema = ModFan {
        groups: 10,
        reps: 1,
    };
    // (name, base, deltas applied in order)
    type Sequence = (&'static str, Vec<u64>, Vec<Delta<u64>>);
    let cases: Vec<Sequence> = vec![
        (
            // Loads 5/3/1 (seqs 0..5, 5..8, 8): the max reducer drops to
            // 2, then the old runner-up falls into a three-way tie.
            "unique max shrinks",
            class(0, 5).chain(class(1, 3)).chain(class(2, 1)).collect(),
            vec![
                Delta::remove(vec![2, 0, 1]),
                Delta::new(class(2, 1).map(|x| x + 500).collect(), vec![5]),
            ],
        ),
        (
            // Loads 3/3/1 (seqs 0..3, 3..6, 6): one of the tied max
            // reducers is dirty, then the other too.
            "tie at max with one dirty",
            class(0, 3).chain(class(1, 3)).chain(class(2, 1)).collect(),
            vec![Delta::remove(vec![0]), Delta::remove(vec![3])],
        ),
        (
            // Reducer 0 empties and leaves the map; reducer 8 appears;
            // reducer 0 then comes back. Reducers arrive as 7, 8, 0 and
            // still export in rid order 0, 7, 8.
            "removed reducer re-added, arriving out of rid order",
            class(0, 2).chain(class(1, 2)).collect(),
            vec![
                Delta::remove(vec![1, 0]),
                Delta::add(class(4, 3).collect()),
                Delta::add(class(0, 1).collect()),
            ],
        ),
        (
            "full churn to empty and back",
            (0..10).flat_map(|c| class(c, 2)).collect(),
            vec![
                Delta::remove((0..20).rev().collect()),
                Delta::add((0..10).flat_map(|c| class(c, 3)).collect()),
                Delta::new(class(5, 2).collect(), vec![20, 25, 49]),
            ],
        ),
    ];
    for (name, base, deltas) in &cases {
        for workers in 1..=16usize {
            let cfg = EngineConfig::parallel(workers);
            assert_deltas_match_full_runs(name, &schema, base, deltas, &cfg);
        }
    }
}

// -----------------------------------------------------------------
// The DAG topology fuzz runs `mr_oracle::DigestFan` rounds: the same
// fan shape as `ModFan`, closed over `u64` (DAG rounds feed outputs
// back in as inputs), with an order-sensitive digest in every output.
// -----------------------------------------------------------------

/// Builds a random-topology [`DagJob`] over [`DigestFan`] rounds: node
/// `i`'s dependencies are the earlier nodes selected by the bits of
/// `masks[i]` (no bits set → a source node reading the external
/// inputs), and each node gets its own fan shape derived from `i`.
fn random_dag(masks: &[u64]) -> DagJob<u64> {
    let mut dag = DagJob::new();
    for (i, &mask) in masks.iter().enumerate() {
        let deps: Vec<usize> = (0..i).filter(|j| (mask >> j) & 1 == 1).collect();
        let schema = DigestFan {
            groups: 3 + (7 * i as u64) % 23,
            reps: 1 + (i as u64) % 3,
        };
        dag.add_round(format!("n{i}"), deps, schema);
    }
    dag
}

// -----------------------------------------------------------------
// Randomised cross-checks (the reusable fuzz loop).
// -----------------------------------------------------------------

/// Sends each [`indexed`] `(position, key)` input to reducer `key`;
/// reducers emit nothing. A budget's verdict is all a run of it shows.
fn budget_probe() -> impl SchemaJob<(u64, u64), ()> {
    FnSchema(
        |&(_, key): &(u64, u64), emit: &mut dyn FnMut(ReducerId)| emit(key),
        |_: ReducerId, _: &[(u64, u64)], _: &mut dyn FnMut(())| {},
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random workloads: the columnar engine and the naive oracle are
    /// indistinguishable (outputs and semantic metrics) at any worker
    /// count — covering both "parallel == sequential" and
    /// "columnar == naive" in one loop.
    #[test]
    fn random_workloads_agree_across_planes_and_workers(
        keys in proptest::collection::vec(0u64..5_000, 0..600),
        workers in 1usize..17,
    ) {
        let inputs = indexed(&keys);
        let (truth_out, truth_m) = digest_round_naive(&inputs, &EngineConfig::sequential());
        let cfg = EngineConfig::parallel(workers);
        for (plane, round) in DIGEST_PLANES {
            let (out, m) = round(&inputs, &cfg);
            prop_assert_eq!(&truth_out, &out, "{} diverged", plane);
            prop_assert_eq!(&truth_m, &m, "{} metrics diverged", plane);
        }
    }

    /// Random budgets: the overflow verdict is identical across the
    /// planes — both succeed, or both fail with the same offender (the
    /// smallest over-budget key in key order), at any worker count.
    #[test]
    fn random_budget_verdicts_agree_across_planes(
        keys in proptest::collection::vec(0u64..40, 1..300),
        q in 1u64..12,
        workers in 1usize..17,
    ) {
        let inputs = indexed(&keys);
        let cfg = EngineConfig::parallel(workers).with_max_reducer_inputs(q);
        let naive = run_schema_naive(&inputs, &budget_probe(), &cfg);
        let col = run_schema(&inputs, &budget_probe(), &cfg);
        match (naive, col) {
            (Ok((no, nm)), Ok((co, cm))) => {
                prop_assert_eq!(no, co);
                prop_assert_eq!(nm, cm);
            }
            (Err(ne), Err(ce)) => prop_assert_eq!(ne, ce),
            (n, c) => prop_assert!(
                false,
                "verdicts diverged: naive ok={} columnar ok={}",
                n.is_ok(),
                c.is_ok()
            ),
        }
    }

    /// Random deltas through the retained path: arbitrary base,
    /// adds, and removal picks — the retained result must equal a fresh
    /// full run of the live instance byte-identically, with the
    /// prediction exact. Degenerate shapes (empty base, empty delta,
    /// full churn) fall out of the generators.
    #[test]
    fn random_deltas_match_full_runs(
        base in proptest::collection::vec(0u64..10_000, 0..120),
        adds in proptest::collection::vec(0u64..10_000, 0..40),
        rm_picks in proptest::collection::vec(0usize..120, 0..40),
        groups in 1u64..40,
        reps in 1u64..4,
        workers in 1usize..17,
    ) {
        let schema = ModFan { groups, reps };
        let removed: Vec<Seq> = if base.is_empty() {
            Vec::new()
        } else {
            let set: BTreeSet<Seq> =
                rm_picks.iter().map(|&p| (p % base.len()) as Seq).collect();
            set.into_iter().collect()
        };
        let delta = Delta::new(adds, removed);
        let cfg = EngineConfig::parallel(workers);
        assert_deltas_match_full_runs("random", &schema, &base, std::slice::from_ref(&delta), &cfg);
    }

    /// Random delta *sequences* through one retained job: 2–12 applies
    /// in a row, each removing random live inputs in random order and
    /// adding fresh ones, so slots empty and refill and loads move
    /// between histogram levels. Before every apply the prediction is
    /// exact; after it the job equals a fresh full run.
    #[test]
    fn random_delta_sequences_match_full_runs(
        base in proptest::collection::vec(0u64..10_000, 0..120),
        steps in proptest::collection::vec(
            (
                proptest::collection::vec(0u64..10_000, 0..30),
                proptest::collection::vec(0usize..1_000, 0..30),
            ),
            2..13,
        ),
        groups in 1u64..40,
        reps in 1u64..4,
        workers in 1usize..17,
    ) {
        let schema = ModFan { groups, reps };
        let deltas = delta_sequence(base.len(), &steps);
        let cfg = EngineConfig::parallel(workers);
        assert_deltas_match_full_runs("sequence", &schema, &base, &deltas, &cfg);
    }

    /// The pool-vs-inline arm: for random workloads at any worker count,
    /// a run on the resident pool is indistinguishable from the inline
    /// `workers = 1` run (outputs and semantic metrics) on both data
    /// planes.
    #[test]
    fn random_workloads_agree_across_executors(
        keys in proptest::collection::vec(0u64..5_000, 0..600),
        workers in 1usize..17,
    ) {
        let inputs = indexed(&keys);
        let truth = digest_round_naive(&inputs, &EngineConfig::sequential());
        let cfg = EngineConfig::parallel(workers);
        for (plane, round) in DIGEST_PLANES {
            let got = round(&inputs, &cfg);
            prop_assert_eq!(&truth, &got, "{} diverged at workers={}", plane, workers);
        }
    }

    /// The pool-vs-inline arm for budgets: the overflow verdict — both
    /// succeed, or both fail with the same smallest offender — is the
    /// inline run's at any worker count.
    #[test]
    fn random_budget_verdicts_agree_across_executors(
        keys in proptest::collection::vec(0u64..40, 1..300),
        q in 1u64..12,
        workers in 1usize..17,
    ) {
        let inputs = indexed(&keys);
        let cfg = |w: usize| EngineConfig::parallel(w).with_max_reducer_inputs(q);
        let inline = run_schema(&inputs, &budget_probe(), &cfg(1));
        let pooled = run_schema(&inputs, &budget_probe(), &cfg(workers));
        match (inline, pooled) {
            (Ok((io, im)), Ok((po, pm))) => {
                prop_assert_eq!(io, po);
                prop_assert_eq!(im, pm);
            }
            (Err(ie), Err(pe)) => prop_assert_eq!(ie, pe),
            (i, p) => prop_assert!(
                false,
                "verdicts diverged: inline ok={} pooled ok={}",
                i.is_ok(),
                p.is_ok()
            ),
        }
    }

    /// Random DAG topologies: whatever shape the round graph takes —
    /// fan-out, diamonds, disconnected sources, linear chains, all fall
    /// out of the mask generator — a staged parallel execution is
    /// byte-identical to the sequential one in outputs *and* per-round
    /// metrics, at every worker count 1–16.
    #[test]
    fn random_dag_topologies_are_worker_count_independent(
        masks in proptest::collection::vec(0u64..32, 1..6),
        inputs in proptest::collection::vec(0u64..5_000, 0..200),
        workers in 1usize..17,
    ) {
        let dag = random_dag(&masks);
        let (truth_out, truth_m) = dag
            .run(&inputs, &EngineConfig::sequential())
            .expect("no budget set");
        let (out, m) = dag
            .run(&inputs, &EngineConfig::parallel(workers))
            .expect("no budget set");
        prop_assert_eq!(&truth_out, &out, "outputs diverged at workers={}", workers);
        prop_assert_eq!(&truth_m, &m, "metrics diverged at workers={}", workers);
        // Pricing without executing: the census walk — which reduces only
        // the nodes another node reads from — reports, node for node,
        // what the run measured, on multi-dependency nodes and empty
        // inputs alike.
        let measured: Vec<RoundCensus> = truth_m.rounds.iter().map(RoundCensus::from).collect();
        prop_assert_eq!(dag.census(&inputs).expect("no budget applies"), measured);
    }

    /// The degenerate single-round DAG *is* `run_schema`: one schema
    /// node must reproduce its outputs and its round metrics
    /// field-for-field, at any worker count.
    #[test]
    fn single_round_dag_degenerates_to_run_schema(
        inputs in proptest::collection::vec(0u64..5_000, 0..300),
        groups in 1u64..40,
        reps in 1u64..4,
        workers in 1usize..17,
    ) {
        let schema = DigestFan { groups, reps };
        let cfg = EngineConfig::parallel(workers);
        let (flat_out, flat_m) = run_schema(&inputs, &schema, &cfg).expect("no budget set");
        let mut dag = DagJob::new();
        dag.add_round("only", vec![], schema);
        let (dag_out, dag_m) = dag.run(&inputs, &cfg).expect("no budget set");
        prop_assert_eq!(flat_out, dag_out);
        prop_assert_eq!(vec![flat_m], dag_m.rounds);
    }

    /// The recorder arm (invariant #12): random workloads run under
    /// `mr_obs::record` are byte-identical — outputs and semantic
    /// metrics — to the disabled run, on both data planes at any worker
    /// count, and every collected trace is structurally well-formed.
    #[test]
    fn random_workloads_are_recorder_invariant(
        keys in proptest::collection::vec(0u64..5_000, 0..600),
        workers in 1usize..17,
    ) {
        let inputs = indexed(&keys);
        let cfg = EngineConfig::parallel(workers);
        for (plane, round) in DIGEST_PLANES {
            let truth = round(&inputs, &cfg);
            let (recorded, trace) = mr_obs::record(|| round(&inputs, &cfg));
            prop_assert_eq!(
                &truth,
                &recorded,
                "recorder perturbed {} at workers={}",
                plane,
                workers
            );
            prop_assert!(trace.check_well_formed().is_ok(), "malformed trace");
        }
    }

    /// Random budgets through the retained path: initialising a
    /// `DeltaJob` under a reducer budget gives exactly the full-run
    /// verdict — same success (and outputs), or same offender.
    #[test]
    fn random_budget_verdicts_agree_with_the_retained_path(
        base in proptest::collection::vec(0u64..200, 0..100),
        q in 1u64..10,
        groups in 1u64..20,
        workers in 1usize..17,
    ) {
        let schema = ModFan { groups, reps: 2 };
        let cfg = EngineConfig::parallel(workers).with_max_reducer_inputs(q);
        let full = run_schema(&base, &schema, &cfg);
        let retained = run_schema_retained(&base, schema.clone(), Pipeline::Columnar, &cfg);
        match (full, retained) {
            (Ok((fo, fm)), Ok(job)) => {
                prop_assert_eq!(fo, job.outputs());
                prop_assert_eq!(fm, job.metrics());
            }
            (Err(fe), Err(re)) => prop_assert_eq!(mr_sim::DeltaError::Engine(fe), re),
            (f, r) => prop_assert!(
                false,
                "verdicts diverged: full ok={} retained ok={}",
                f.is_ok(),
                r.is_ok()
            ),
        }
    }
}
