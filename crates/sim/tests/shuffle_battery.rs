//! Determinism and overflow battery for the hash-partitioned shuffle.
//!
//! The engine's contract is that the parallel shuffle is invisible: for
//! any key distribution and any worker count, outputs and metrics equal
//! the sequential run's. This suite drives that contract over the four
//! adversarial distributions (uniform, Zipf-skewed via `mr-graph`'s
//! Chung–Lu generator, all-one-key, all-distinct) and concurrent
//! multi-partition overflows; the *randomised* cross-checks (workloads,
//! budgets, deltas) live in the unified `differential_fuzz.rs` battery.

use mr_oracle::{digest_round, indexed};
use mr_sim::{run_schema, EngineConfig, EngineError, FnSchema, ReducerId};
use proptest::test_runner::TestRng;

/// Worker counts the battery sweeps, per the shuffle acceptance criteria.
const WORKER_COUNTS: [usize; 5] = [1, 2, 3, 8, 16];

fn assert_battery_case(name: &str, keys: &[u64]) {
    let inputs = indexed(keys);
    let (seq_out, seq_m) = digest_round(&inputs, &EngineConfig::sequential());
    for workers in WORKER_COUNTS {
        let (out, m) = digest_round(&inputs, &EngineConfig::parallel(workers));
        assert_eq!(
            seq_out, out,
            "[{name}] outputs diverged at workers={workers}"
        );
        assert_eq!(seq_m, m, "[{name}] metrics diverged at workers={workers}");
    }
}

#[test]
fn uniform_keys_shuffle_identically() {
    let mut rng = TestRng::deterministic("shuffle-battery-uniform");
    let keys: Vec<u64> = (0..6_000).map(|_| rng.below(1_024)).collect();
    assert_battery_case("uniform", &keys);
}

#[test]
fn zipf_skewed_keys_shuffle_identically() {
    // Chung–Lu power-law graph: node i carries weight ∝ (i+1)^(-1/(γ-1)),
    // so low-numbered hub nodes appear on far more edges than the tail.
    // Using every edge endpoint as a key yields the Zipf-like skew of the
    // paper's §1.4 discussion — a few very heavy keys, a long thin tail.
    let g = mr_graph::gen::power_law(400, 2.2, 40.0, 7);
    let keys: Vec<u64> = g
        .edges()
        .iter()
        .flat_map(|e| [u64::from(e.u), u64::from(e.v)])
        .collect();
    assert!(keys.len() > 300, "degenerate power-law instance");
    // Sanity: the distribution is actually skewed (hubs dominate).
    let (_, m) = digest_round(&indexed(&keys), &EngineConfig::sequential());
    assert!(
        m.load.skew() > 3.0,
        "expected a heavy hub, got {}",
        m.load.skew()
    );
    assert_battery_case("zipf", &keys);
}

#[test]
fn all_one_key_shuffles_identically() {
    let keys = vec![17u64; 4_000];
    assert_battery_case("all-one-key", &keys);
}

#[test]
fn all_distinct_keys_shuffle_identically() {
    // Reversed so input order and key order disagree — a shuffle that
    // leaked arrival order into key order would be caught here.
    let keys: Vec<u64> = (0..4_000u64).rev().collect();
    assert_battery_case("all-distinct", &keys);
}

#[test]
fn concurrent_overflows_report_the_sequential_offender() {
    // 64 hot keys scattered across the key space, each receiving 8 values
    // — with up to 16 partitions, many partitions contain an over-budget
    // key simultaneously. The parallel path must still report exactly the
    // offender the sequential in-key-order scan finds: the smallest one.
    let mut keys: Vec<u64> = Vec::new();
    for hot in 0..64u64 {
        keys.extend(std::iter::repeat_n(hot * 1_000_003 + 11, 8));
    }
    // A thin tail of distinct keys so partitions also hold innocent keys.
    keys.extend((0..500u64).map(|x| x * 17 + 3));
    let inputs = indexed(&keys);
    let schema = FnSchema(
        |&(_, key): &(u64, u64), emit: &mut dyn FnMut(ReducerId)| emit(key),
        |_: ReducerId, _: &[(u64, u64)], _: &mut dyn FnMut(u64)| {
            panic!("reducer must not run on an over-budget round")
        },
    );
    let cfg = |w: usize| EngineConfig::parallel(w).with_max_reducer_inputs(5);
    let seq_err = run_schema(&inputs, &schema, &cfg(1)).unwrap_err();
    // The smallest over-budget key in key order is hot key 11 (hot = 0).
    let EngineError::ReducerOverflow { key, load, limit } = &seq_err;
    assert_eq!(*key, 11);
    assert_eq!(*load, 8);
    assert_eq!(*limit, 5);
    for workers in [2usize, 3, 8, 16] {
        let par_err = run_schema(&inputs, &schema, &cfg(workers)).unwrap_err();
        assert_eq!(seq_err, par_err, "offender diverged at workers={workers}");
    }
}
