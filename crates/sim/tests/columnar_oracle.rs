//! Oracle battery: the columnar radix-partitioned data plane against the
//! naive `BTreeMap` pipeline.
//!
//! `mr_oracle::naive` is the pre-columnar shuffle, kept precisely so this
//! suite can exist: for any workload and any worker count, the columnar
//! engine must produce byte-identical outputs, equal semantic metrics,
//! and the same overflow verdict (down to the reported offender key). The
//! battery drives that equivalence over the four adversarial key
//! distributions (uniform, Zipf-skewed via `mr-graph`'s Chung–Lu
//! generator, all-one-key, all-distinct) and the concurrent-offender
//! fixture; the *randomised* cross-checks (workloads, budgets, deltas)
//! live in the unified `differential_fuzz.rs` battery.

use mr_oracle::{digest, digest_round, digest_round_naive, indexed, run_schema_naive, DigestRow};
use mr_sim::engine::BLOCK;
use mr_sim::{run_schema, EngineConfig, FnSchema, ReducerId, RoundMetrics, SchemaJob};
use proptest::test_runner::TestRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Worker counts the battery sweeps on both paths.
const WORKER_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// The core assertion: the columnar engine is indistinguishable from the
/// naive oracle at every worker count — on both engines' own worker
/// sweeps, pinned to the naive sequential run as ground truth.
fn assert_oracle_case(name: &str, keys: &[u64]) {
    let inputs = indexed(keys);
    let (oracle_out, oracle_m) = digest_round_naive(&inputs, &EngineConfig::sequential());
    for workers in WORKER_COUNTS {
        let cfg = EngineConfig::parallel(workers);
        let (col_out, col_m) = digest_round(&inputs, &cfg);
        assert_eq!(
            oracle_out, col_out,
            "[{name}] columnar outputs diverged from the oracle at workers={workers}"
        );
        assert_eq!(
            oracle_m, col_m,
            "[{name}] columnar metrics diverged from the oracle at workers={workers}"
        );
        // The oracle itself is worker-count independent too — the two
        // pipelines must agree at *matching* worker counts, not just
        // against the sequential baseline.
        let (naive_out, naive_m) = digest_round_naive(&inputs, &cfg);
        assert_eq!(oracle_out, naive_out, "[{name}] oracle drifted");
        assert_eq!(oracle_m, naive_m, "[{name}] oracle metrics drifted");
    }
}

#[test]
fn uniform_keys_match_the_oracle() {
    let mut rng = TestRng::deterministic("columnar-oracle-uniform");
    let keys: Vec<u64> = (0..6_000).map(|_| rng.below(1_024)).collect();
    assert_oracle_case("uniform", &keys);
}

#[test]
fn zipf_skewed_keys_match_the_oracle() {
    // Chung–Lu power-law edge endpoints: a few heavy hub keys and a long
    // thin tail — the §1.4 skew regime, where the columnar path's radix
    // buckets fill very unevenly.
    let g = mr_graph::gen::power_law(400, 2.2, 40.0, 7);
    let keys: Vec<u64> = g
        .edges()
        .iter()
        .flat_map(|e| [u64::from(e.u), u64::from(e.v)])
        .collect();
    assert!(keys.len() > 300, "degenerate power-law instance");
    assert_oracle_case("zipf", &keys);
}

#[test]
fn one_key_workloads_match_the_oracle() {
    // Every pair in one group: a single radix bucket carries everything
    // and the open-addressing table holds exactly one entry.
    let keys = vec![17u64; 4_000];
    assert_oracle_case("one-key", &keys);
}

#[test]
fn all_distinct_keys_match_the_oracle() {
    // Reversed so arrival order and key order disagree; every group has
    // exactly one value, maximising directory-sort work.
    let keys: Vec<u64> = (0..4_000u64).rev().collect();
    assert_oracle_case("all-distinct", &keys);
}

#[test]
fn full_64_bit_keys_match_the_oracle() {
    // Keys spanning the whole u64 range (including u64::MAX) exercise the
    // fingerprint path far from the small-integer regime of the other
    // cases.
    let mut rng = TestRng::deterministic("columnar-oracle-wide");
    let mut keys: Vec<u64> = (0..3_000).map(|_| rng.next_u64()).collect();
    keys.push(u64::MAX);
    keys.push(0);
    assert_oracle_case("wide", &keys);
}

#[test]
fn overflow_offender_parity_on_scattered_hot_keys() {
    // 64 hot keys spread across the key space so, at 16 workers, many
    // partitions hold an over-budget key at once. Both pipelines must
    // report the *same* offender — the smallest in key order — and they
    // must agree at every worker count.
    let mut keys: Vec<u64> = Vec::new();
    for hot in 0..64u64 {
        keys.extend(std::iter::repeat_n(hot * 1_000_003 + 11, 8));
    }
    keys.extend((0..500u64).map(|x| x * 17 + 3));
    let inputs = indexed(&keys);
    let schema = FnSchema(
        |&(_, key): &(u64, u64), emit: &mut dyn FnMut(ReducerId)| emit(key),
        |_: ReducerId, _: &[(u64, u64)], _: &mut dyn FnMut(u64)| {
            panic!("reducer must not run on an over-budget round")
        },
    );
    let cfg = |w: usize| EngineConfig::parallel(w).with_max_reducer_inputs(5);
    let oracle_err = run_schema_naive(&inputs, &schema, &cfg(1)).unwrap_err();
    for workers in WORKER_COUNTS {
        let col_err = run_schema(&inputs, &schema, &cfg(workers)).unwrap_err();
        assert_eq!(
            oracle_err, col_err,
            "offender diverged at workers={workers}"
        );
        let naive_err = run_schema_naive(&inputs, &schema, &cfg(workers)).unwrap_err();
        assert_eq!(oracle_err, naive_err, "oracle offender drifted");
    }
}

/// Inputs `(position, key, reps)`: each input is sent `reps` times to
/// reducer `key`, so a case controls which map chunks emit at all; each
/// reducer emits the [`digest`] of the positions it received.
fn routed_round(
    inputs: &[(u64, u64, u64)],
    config: &EngineConfig,
    naive: bool,
) -> (Vec<DigestRow>, RoundMetrics) {
    let schema = FnSchema(
        |&(_, key, reps): &(u64, u64, u64), emit: &mut dyn FnMut(ReducerId)| {
            for _ in 0..reps {
                emit(key);
            }
        },
        |r: ReducerId, inputs: &[(u64, u64, u64)], emit: &mut dyn FnMut(DigestRow)| {
            emit(digest(r, inputs.iter().map(|&(position, ..)| position)))
        },
    );
    if naive {
        run_schema_naive(inputs, &schema, config)
    } else {
        run_schema(inputs, &schema, config)
    }
    .expect("no q bound set")
}

/// The one-route claim: every map chunk routes straight into
/// `(partition, bucket)` columns and each bucket concatenates its chunks'
/// segments in chunk order, so outputs and metrics equal the naive
/// oracle and the `workers = 1` run at every worker count.
fn assert_routing_case(name: &str, inputs: &[(u64, u64, u64)]) {
    let (oracle_out, oracle_m) = routed_round(inputs, &EngineConfig::sequential(), true);
    let (seq_out, seq_m) = routed_round(inputs, &EngineConfig::sequential(), false);
    assert_eq!(
        oracle_out, seq_out,
        "[{name}] workers=1 diverged from naive"
    );
    assert_eq!(oracle_m, seq_m, "[{name}] workers=1 metrics diverged");
    for workers in [2usize, 3, 4, 7, 16] {
        let (out, m) = routed_round(inputs, &EngineConfig::parallel(workers), false);
        let at = format!("[{name}] workers={workers}");
        assert_eq!(oracle_out, out, "{at}: outputs diverged from naive");
        assert_eq!(seq_out, out, "{at}: outputs diverged from workers=1");
        assert_eq!(oracle_m, m, "{at}: metrics diverged from naive");
        assert_eq!(seq_m, m, "{at}: metrics diverged from workers=1");
    }
}

#[test]
fn routed_chunks_match_the_oracle_at_every_worker_count() {
    let mut rng = TestRng::deterministic("columnar-oracle-routing");
    let with_reps = |keys: &[u64], reps: &dyn Fn(usize) -> u64| -> Vec<(u64, u64, u64)> {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| (i as u64, k, reps(i)))
            .collect()
    };
    // Enough pairs that every partition splits into several buckets.
    let uniform: Vec<u64> = (0..12_000).map(|_| rng.below(3_000)).collect();
    assert_routing_case("uniform", &with_reps(&uniform, &|i| 1 + (i % 3) as u64));
    // Fewer inputs than p²: at 4, 7 and 16 workers the chunks hold one or
    // two inputs each, and most (partition, bucket) columns stay empty.
    assert_routing_case("tiny", &with_reps(&[5, 3, 5, 9, 3, 5, 1, 9, 9, 2], &|_| 2));
    // Chunks that emit nothing: only the middle third and the last input
    // emit, so whole chunks (first, last-but-one, …) contribute no pairs.
    let n = uniform.len();
    assert_routing_case(
        "silent-chunks",
        &with_reps(&uniform, &|i| {
            u64::from((n / 3..2 * n / 3).contains(&i) || i == n - 1) * 2
        }),
    );
    // One key fed by every chunk: its bucket is every chunk's segment
    // concatenated, so value order across segments is the arrival order
    // the digest pins.
    let mut one_key = vec![77u64; 6_000];
    one_key.extend((0..3_000u64).map(|x| x * 13 + 1));
    assert_routing_case(
        "one-key-every-chunk",
        &with_reps(&one_key, &|i| 1 + (i % 2) as u64),
    );
    // The engine sizes its columns from the input count. Every input
    // emitting 100–106 pairs makes that ≥ 100× too low, so the columns
    // grow mid-chunk; 1 input in 100 emitting makes it ≈ 100× too high.
    let heavy: Vec<u64> = (0..400).map(|_| rng.below(700)).collect();
    assert_routing_case("heavy", &with_reps(&heavy, &|i| 100 + (i % 7) as u64));
    assert_routing_case(
        "sparse",
        &with_reps(&uniform, &|i| u64::from(i % 100 == 37)),
    );
}

/// One distinct-reducer round whose reducer `k` emits `fanout(k)`
/// outputs, checked against the columnar sequential run and the naive
/// oracle at workers 1–16. `item` builds the `j`-th
/// output of key `k`, so the same shapes run with a zero-sized `O`.
fn assert_assembly_case<O: PartialEq + std::fmt::Debug + Send>(
    name: &str,
    fanout: impl Fn(u64) -> u64 + Sync,
    item: impl Fn(u64, u64) -> O + Sync,
) {
    const KEYS: u64 = 320;
    let inputs = indexed(&(0..KEYS).rev().collect::<Vec<_>>());
    let schema = FnSchema(
        |&(_, key): &(u64, u64), emit: &mut dyn FnMut(ReducerId)| emit(key),
        |k: ReducerId, _: &[(u64, u64)], emit: &mut dyn FnMut(O)| {
            for j in 0..fanout(k) {
                emit(item(k, j));
            }
        },
    );
    let (seq_out, seq_m) =
        run_schema(&inputs, &schema, &EngineConfig::sequential()).expect("no q bound set");
    assert_eq!(seq_out.len() as u64, (0..KEYS).map(&fanout).sum::<u64>());
    let (naive_out, naive_m) =
        run_schema_naive(&inputs, &schema, &EngineConfig::sequential()).expect("no q bound set");
    assert_eq!(
        naive_out, seq_out,
        "[{name}] sequential diverged from naive"
    );
    assert_eq!(naive_m, seq_m, "[{name}] sequential metrics diverged");
    for workers in 1..=16 {
        let cfg = EngineConfig::parallel(workers);
        let (out, m) = run_schema(&inputs, &schema, &cfg).expect("no q bound set");
        assert_eq!(
            seq_out, out,
            "[{name}] outputs diverged at workers={workers}"
        );
        assert_eq!(seq_m, m, "[{name}] metrics diverged at workers={workers}");
    }
}

#[test]
fn uneven_chunk_outputs_assemble_like_the_oracle() {
    // The parallel reduce returns one output buffer per chunk of the key
    // order and the engine assembles them. These fan-outs leave chunks
    // empty, make the first chunk (whose buffer the assembly grows) the
    // empty one, leave every chunk empty, and put almost everything in
    // one chunk — at every chunking workers 1–16 produce over 320 keys.
    type Fanout = fn(u64) -> u64;
    let shapes: [(&str, Fanout); 6] = [
        ("all-empty", |_| 0),
        ("one-each", |_| 1),
        ("first-half-empty", |k| u64::from(k >= 160) * 3),
        ("last-key-only", |k| u64::from(k == 319) * 2_000),
        ("first-key-only", |k| u64::from(k == 0) * 2_000),
        ("wildly-uneven", |k| {
            [0, 1, 0, 700, 0, 0, 2, 35][k as usize % 8]
        }),
    ];
    for (name, fanout) in shapes {
        assert_assembly_case(name, fanout, |k, j| (k, j));
        // `O = ()` is what the registry's count-only rounds reduce into:
        // nothing to copy, only a length to get right.
        assert_assembly_case(&format!("{name}/unit"), fanout, |_, _| ());
    }
}

/// An input that owns heap data, so the reduce phase's gather clones and
/// drops real allocations: its reducer, an optional second reducer, and a
/// `String` naming it.
type Owned = (ReducerId, Option<ReducerId>, String);

/// Group sizes in reducer order that put a group of every size around
/// the reduce phase's block boundary — 1, `BLOCK − 1`, `BLOCK`,
/// `BLOCK + 1` and `3·BLOCK` — among many one-to-eight-input groups, once
/// each after runs of small groups of differing lengths (so each starts
/// at a different offset in its block) and once all back to back.
fn block_edge_sizes() -> Vec<usize> {
    let mut rng = TestRng::deterministic("columnar-oracle-block");
    let edges = [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK];
    let mut small =
        |count: usize| -> Vec<usize> { (0..count).map(|_| 1 + rng.below(8) as usize).collect() };
    let mut sizes = Vec::new();
    for (i, &edge) in edges.iter().enumerate() {
        sizes.extend(small(40 + 37 * i));
        sizes.push(edge);
    }
    sizes.extend(edges);
    sizes.extend(small(300));
    sizes
}

/// The inputs of [`block_edge_sizes`]: group `g` is reducer `3g + 1`, and
/// the first input of every small group is also sent to reducer `3g + 2`
/// (so some positions are gathered twice), in a scrambled input order so
/// a group's positions are scattered over the input slice.
fn block_edge_inputs() -> Vec<Owned> {
    let mut inputs: Vec<Owned> = Vec::new();
    for (g, &size) in block_edge_sizes().iter().enumerate() {
        let rid = 3 * g as u64 + 1;
        for j in 0..size {
            let second = (size <= 8 && j == 0).then_some(rid + 1);
            inputs.push((rid, second, format!("reducer {rid} input {j}")));
        }
    }
    let mut rng = TestRng::deterministic("columnar-oracle-block-order");
    for i in (1..inputs.len()).rev() {
        inputs.swap(i, rng.below(i as u64 + 1) as usize);
    }
    inputs
}

/// Sends an [`Owned`] input to its reducer and its second reducer; each
/// reducer emits everything it received, in order, unless `panics_at`
/// names it.
fn owned_schema(panics_at: &[ReducerId]) -> impl SchemaJob<Owned, (ReducerId, Vec<String>)> + '_ {
    FnSchema(
        |(rid, second, _): &Owned, emit: &mut dyn FnMut(ReducerId)| {
            emit(*rid);
            if let Some(second) = second {
                emit(*second);
            }
        },
        move |r: ReducerId, xs: &[Owned], emit: &mut dyn FnMut((ReducerId, Vec<String>))| {
            if panics_at.contains(&r) {
                panic!("reducer {r} refused its {} inputs", xs.len());
            }
            emit((r, xs.iter().map(|(_, _, s)| s.clone()).collect()))
        },
    )
}

#[test]
fn block_boundary_groups_gather_like_the_oracle() {
    let inputs = block_edge_inputs();
    let schema = owned_schema(&[]);
    let (oracle_out, oracle_m) =
        run_schema_naive(&inputs, &schema, &EngineConfig::sequential()).expect("no q bound set");
    for edge in [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK] {
        assert!(
            oracle_m.loads.contains(&(edge as u64)),
            "no group of {edge} inputs"
        );
    }
    assert!(oracle_m.reducers > 1_000, "too few small groups");
    for workers in 1..=8 {
        let (out, m) =
            run_schema(&inputs, &schema, &EngineConfig::parallel(workers)).expect("no q bound set");
        assert_eq!(
            oracle_out, out,
            "outputs diverged from the oracle at workers={workers}"
        );
        assert_eq!(
            oracle_m, m,
            "metrics diverged from the oracle at workers={workers}"
        );
    }
}

#[test]
fn a_reducer_panic_after_the_first_block_raises_the_inline_panic() {
    // Two reducers panic, both in groups the reduce phase reaches only
    // after its first block of pairs: the one right after the first
    // `3·BLOCK` group, and the last. The inline run raises the first, so
    // every worker count must too, with the gathered inputs of the block
    // dropped on the way out.
    let inputs = block_edge_inputs();
    let sizes = block_edge_sizes();
    let after_big = sizes
        .iter()
        .position(|&size| size == 3 * BLOCK)
        .expect("a 3·BLOCK group")
        + 1;
    let first = 3 * after_big as u64 + 1;
    let last = 3 * (sizes.len() as u64 - 1) + 1;
    let panics_at = [last, first];
    let schema = owned_schema(&panics_at);
    let message = |workers: usize| -> String {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_schema(&inputs, &schema, &EngineConfig::parallel(workers))
        }));
        let payload = caught.expect_err("the round must panic");
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(_) => "<payload is not a String>".to_string(),
        }
    };
    let inline = message(1);
    assert_eq!(
        inline,
        format!("reducer {first} refused its {} inputs", sizes[after_big])
    );
    for workers in 2..=8 {
        assert_eq!(inline, message(workers), "panic at workers={workers}");
    }
}
