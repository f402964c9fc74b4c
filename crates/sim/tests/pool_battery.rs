//! Pool parity battery: the resident [`WorkerPool`] against the inline
//! run.
//!
//! [`fan_out`] runs everything inline on the calling thread at width 1
//! and as one pool batch otherwise, so the `workers = 1` run is the
//! pool's twin: for every execution surface the crate offers — raw
//! rounds (columnar, and the naive oracle from `mr-oracle`), retained
//! deltas, staged DAG levels — the pooled execution must produce
//! byte-identical outputs, equal semantic metrics, the same overflow
//! verdict (down to the reported offender key) and the same panic
//! payload at every worker count 1–16. The battery also pins the
//! worker-count clamp contract through the pooled path: `workers: 0` and
//! absurdly large worker counts are behavioural no-ops.
//!
//! [`fan_out`]'s own contract (item order, exactly-once, the inline rule,
//! nesting) and its panic contract (the inline run's panic, whatever the
//! schedule) are pinned here too.

use mr_oracle::{
    digest_round, digest_round_naive, indexed, run_schema_naive, DigestFan, DIGEST_PLANES,
};
use mr_sim::{
    fan_out, run_schema, run_schema_retained, DagJob, Delta, DeltaError, DeltaJob, DeltaPrediction,
    EngineConfig, EngineError, FnSchema, Pipeline, ReducerId, RoundMetrics, SchemaJob, Seq,
    WorkerPool,
};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Duration;

/// Worker counts the battery sweeps.
const WORKER_COUNTS: [usize; 6] = [1, 2, 3, 4, 8, 16];

/// A mixed-skew key workload: a few heavy hubs plus a long distinct tail,
/// so radix buckets fill unevenly and morsel sizes differ across workers.
fn mixed_keys() -> Vec<u64> {
    let mut keys: Vec<u64> = Vec::new();
    for hot in 0..8u64 {
        keys.extend(std::iter::repeat_n(hot * 1_000_003 + 11, 300));
    }
    keys.extend((0..2_000u64).map(|x| x * 17 + 3));
    keys
}

#[test]
fn fan_out_honours_its_contract() {
    /// An item that cannot be copied: whoever ran it, consumed it.
    struct Token(usize);
    let caller = std::thread::current().id();
    for width in [0usize, 1, 2, 3, 16, 100_000] {
        for n in [0usize, 1, 2, 7, 1_000] {
            let case = format!("width={width} items={n}");
            let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let threads: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
            let items: Vec<Token> = (0..n).map(Token).collect();
            let results = fan_out(width, items, |Token(i)| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                threads
                    .lock()
                    .expect("no task panics while recording")
                    .insert(std::thread::current().id());
                i * 3 + 1
            });
            let expect: Vec<usize> = (0..n).map(|i| i * 3 + 1).collect();
            assert_eq!(results, expect, "{case}: results out of item order");
            assert!(
                runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                "{case}: an item ran more or less than once"
            );
            let threads = threads.into_inner().expect("no task panicked");
            if width <= 1 || n < 2 {
                assert!(
                    threads.iter().all(|&t| t == caller),
                    "{case}: must run inline on the calling thread"
                );
            }
        }
    }
    // A fan-out issued from inside a fan-out task completes: the
    // submitting task drains its own batch, so nesting cannot starve even
    // with every worker busy in the outer one.
    let sums = fan_out(4, (0..4u64).collect(), |i| {
        fan_out(3, (0..5u64).collect(), |j| i * 10 + j)
            .iter()
            .sum::<u64>()
    });
    assert_eq!(sums, vec![10, 60, 110, 160]);
}

/// The message a caught panic carried, whether it was raised with a
/// literal or with format arguments.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(message) => message.to_string(),
            Err(_) => "<payload is not a string>".to_string(),
        },
    }
}

#[test]
fn a_panicking_task_raises_the_sequential_panic() {
    // Two of a hundred tasks panic, and the lower one is slow: raised
    // first in time it is not. The inline run reports it anyway, so every
    // worker count must too. The sleep is not a synchronisation the
    // assertion leans on - lowest-index-wins holds under any schedule -
    // it only keeps a first-in-time implementation from passing by luck.
    let boom = |x: u64| {
        if x == 10 {
            std::thread::sleep(Duration::from_millis(30));
        }
        if x == 10 || x == 90 {
            panic!("boom {x}");
        }
    };
    let inputs: Vec<u64> = (0..100).collect();
    let bad_assign = |x: &u64, emit: &mut dyn FnMut(ReducerId)| {
        boom(*x);
        emit(*x);
    };
    let good_assign = |x: &u64, emit: &mut dyn FnMut(ReducerId)| emit(*x);
    let bad_reduce = |r: ReducerId, xs: &[u64], emit: &mut dyn FnMut(u64)| {
        boom(r);
        emit(xs[0]);
    };
    let good_reduce = |_: ReducerId, xs: &[u64], emit: &mut dyn FnMut(u64)| emit(xs[0]);
    for workers in [1usize, 2, 3, 8, 16] {
        let cfg = EngineConfig::parallel(workers);
        let in_reduce = catch_unwind(AssertUnwindSafe(|| {
            run_schema(&inputs, &FnSchema(good_assign, bad_reduce), &cfg)
        }));
        let in_map = catch_unwind(AssertUnwindSafe(|| {
            run_schema(&inputs, &FnSchema(bad_assign, good_reduce), &cfg)
        }));
        for (phase, caught) in [("reducer", in_reduce), ("assignment", in_map)] {
            let payload = caught.expect_err("the round must panic");
            assert_eq!(
                panic_message(payload),
                "boom 10",
                "{phase} panic at workers={workers}"
            );
        }
    }
    // The resident pool took those panicking batches and is still whole.
    let cfg = EngineConfig::parallel(4);
    let good = FnSchema(good_assign, good_reduce);
    let (out, _) = run_schema(&inputs, &good, &cfg).expect("no q bound set");
    assert_eq!(out, inputs);
}

/// A panic payload whose `Drop` panics too.
struct Bomb(usize);

impl Drop for Bomb {
    fn drop(&mut self) {
        panic!("bomb {} went off in drop", self.0);
    }
}

#[test]
fn a_payload_whose_drop_panics_stays_inside_the_pool() {
    // Every task panics with a `Bomb`, so every payload but the kept one
    // is discarded, and each discard panics again. The caller must still
    // get task 0's payload, and the pool must still run the next batch.
    // The batches run on a helper thread under a deadline: a worker killed
    // by a discard never counts its task down, and the caller would wait
    // for it forever.
    let (done, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let pool = WorkerPool::with_workers(2);
        let bombs: Vec<Box<dyn FnOnce() + Send>> = (0..8usize)
            .map(|i| Box::new(move || std::panic::panic_any(Bomb(i))) as Box<dyn FnOnce() + Send>)
            .collect();
        let payload =
            catch_unwind(AssertUnwindSafe(|| pool.run(bombs))).expect_err("every task panicked");
        let kept = match payload.downcast::<Bomb>() {
            Ok(bomb) => {
                let index = bomb.0;
                let _ = catch_unwind(AssertUnwindSafe(move || drop(bomb)));
                Ok(index)
            }
            Err(other) => Err(panic_message(other)),
        };
        let next = pool.run(
            (0..8u64)
                .map(|i| Box::new(move || i * 3) as Box<_>)
                .collect(),
        );
        let _ = done.send((kept, next));
    });
    let (kept, next) = outcome
        .recv_timeout(Duration::from_secs(60))
        .expect("the pool lost a task to a panicking discard and never finished the batch");
    assert_eq!(kept, Ok(0), "the re-thrown payload");
    assert_eq!(next, (0..8u64).map(|i| i * 3).collect::<Vec<_>>());
}

#[test]
fn raw_rounds_are_executor_independent_on_both_pipelines() {
    let inputs = indexed(&mixed_keys());
    let truth = digest_round_naive(&inputs, &EngineConfig::sequential());
    for workers in WORKER_COUNTS {
        let cfg = EngineConfig::parallel(workers);
        for (plane, round) in DIGEST_PLANES {
            assert_eq!(
                truth,
                round(&inputs, &cfg),
                "{plane} diverged at workers={workers}"
            );
        }
    }
}

#[test]
fn overflow_offenders_are_executor_independent() {
    // Many concurrently over-budget keys: every worker count must report
    // the *same* offender as the inline run — the smallest in key order.
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
    let truth = run_schema(&inputs, &schema, &cfg(1)).unwrap_err();
    for workers in WORKER_COUNTS {
        let planes = [
            ("columnar", run_schema(&inputs, &schema, &cfg(workers))),
            ("naive", run_schema_naive(&inputs, &schema, &cfg(workers))),
        ];
        for (plane, result) in planes {
            assert_eq!(
                truth,
                result.unwrap_err(),
                "offender diverged on {plane} at workers={workers}"
            );
        }
    }
}

#[test]
fn retained_deltas_are_executor_independent() {
    // The full retained lifecycle — init, mixed churn, full-churn — must
    // be byte-identical to the inline run: routing fan-outs and the dirty
    // re-reduce both ride the pool.
    let schema = DigestFan {
        groups: 37,
        reps: 3,
    };
    let base: Vec<u64> = (0..400u64).map(|i| i * 13 + 7).collect();
    let deltas: Vec<(&str, Delta<u64>)> = vec![
        ("empty", Delta::empty()),
        ("adds", Delta::add((10_000..10_080).collect())),
        (
            "mixed",
            Delta::new(
                (10_000..10_040).collect(),
                (0..80).map(|i| i * 5 as Seq).collect(),
            ),
        ),
        (
            "full-churn",
            Delta::new((20_000..20_400).collect(), (0..400 as Seq).collect()),
        ),
    ];
    // Inline ground truth per delta kind.
    for (name, delta) in &deltas {
        let truth_cfg = EngineConfig::sequential();
        let mut truth_job =
            run_schema_retained(&base, schema, Pipeline::Columnar, &truth_cfg).unwrap();
        truth_job.apply(delta).unwrap();
        let (truth_out, truth_m) = (truth_job.outputs(), truth_job.metrics());
        for workers in WORKER_COUNTS {
            let cfg = EngineConfig::parallel(workers);
            let mut job = run_schema_retained(&base, schema, Pipeline::Columnar, &cfg).unwrap();
            job.apply(delta).unwrap();
            assert_eq!(
                truth_out,
                job.outputs(),
                "[{name}] delta outputs diverged at workers={workers}"
            );
            assert_eq!(
                truth_m,
                job.metrics(),
                "[{name}] delta metrics diverged at workers={workers}"
            );
        }
    }
}

/// The input whose first reducer [`Poisoned`] refuses to reduce.
const POISON: u64 = 666_666;

/// [`DigestFan`] with one bad reducer: `reduce` panics on the first
/// reducer [`POISON`] maps to once `POISON` is among its inputs — so a
/// retained job builds cleanly and fails only on the delta that adds it.
#[derive(Clone, Copy)]
struct Poisoned(DigestFan);

impl SchemaJob<u64, u64> for Poisoned {
    fn assign_into(&self, x: &u64, emit: &mut dyn FnMut(ReducerId)) {
        self.0.assign_into(x, emit)
    }

    fn reduce(&self, r: u64, inputs: &[u64], emit: &mut dyn FnMut(u64)) {
        if inputs.contains(&POISON) && r == self.0.assign(&POISON)[0] {
            panic!("reducer {r} cannot digest the poison input");
        }
        self.0.reduce(r, inputs, emit)
    }
}

/// Everything a retained job exposes, plus its price for `follow_up`.
type Snapshot = (
    Vec<u64>,
    RoundMetrics,
    Vec<u64>,
    Vec<Seq>,
    u64,
    DeltaPrediction,
);

fn snapshot(job: &DeltaJob<u64, u64, Poisoned>, follow_up: &Delta<u64>) -> Snapshot {
    (
        job.outputs(),
        job.metrics(),
        job.inputs(),
        job.seqs(),
        job.num_reducers(),
        job.predict(follow_up)
            .expect("the follow-up is well-formed"),
    )
}

#[test]
fn a_failed_apply_leaves_the_retained_job_unchanged() {
    // Three ways an apply fails after it has started staging: a removal
    // naming no live input (after a valid one), a post-delta load over
    // the budget, and a reduce that panics on one dirty reducer. Each
    // must leave the job exactly as a clone taken before it, at 1, 2 and
    // 4 workers, and the next valid apply must proceed as if the failure
    // never happened.
    let schema = Poisoned(DigestFan {
        groups: 37,
        reps: 3,
    });
    let base: Vec<u64> = (0..200u64).map(|i| i * 13 + 7).collect();
    let base_q = run_schema(&base, &schema, &EngineConfig::sequential())
        .unwrap()
        .1
        .load
        .max;
    let budget = base_q + 2;
    // Values congruent mod `groups` share all their reducers, so this
    // many of them overflow every one.
    let crowd: Vec<u64> = (0..=budget).map(|i| 37 * (1_000 + i)).collect();
    let follow_up = Delta::new(vec![5_000, 5_001], vec![3, 4, 150]);
    let failures: [(&str, Delta<u64>); 3] = [
        ("unknown seq", Delta::new(vec![9_000], vec![0, 999_999])),
        ("overflow", Delta::new(crowd, vec![1])),
        ("panicking reduce", Delta::new(vec![POISON, 7_777], vec![2])),
    ];
    for workers in [1usize, 2, 4] {
        let cfg = EngineConfig::parallel(workers).with_max_reducer_inputs(budget);
        let case = |name: &str| format!("[{name}] workers={workers}");
        let mut job = run_schema_retained(&base, schema, Pipeline::Columnar, &cfg).unwrap();
        let mut pristine = job.clone();
        let before = snapshot(&pristine, &follow_up);
        for (name, delta) in &failures {
            let result = catch_unwind(AssertUnwindSafe(|| job.apply(delta)));
            match (*name, result) {
                ("unknown seq", Ok(Err(DeltaError::UnknownSeq(999_999)))) => {}
                ("overflow", Ok(Err(DeltaError::Engine(EngineError::ReducerOverflow { .. })))) => {}
                ("panicking reduce", Err(payload)) => {
                    assert!(panic_message(payload).contains("poison"), "{}", case(name))
                }
                (_, other) => panic!("{}: unexpected result {other:?}", case(name)),
            }
            assert!(
                snapshot(&job, &follow_up) == before,
                "{}: the failed apply changed the retained job",
                case(name)
            );
        }
        let outcome = job.apply(&follow_up).unwrap();
        let expected = pristine.apply(&follow_up).unwrap();
        assert_eq!(outcome.added_seqs, 200..202, "{}", case("follow-up"));
        assert_eq!(outcome.added_seqs, expected.added_seqs);
        assert_eq!(outcome.retracted, expected.retracted);
        assert_eq!(outcome.added, expected.added);
        let (out, m) = run_schema(&job.inputs(), &schema, &cfg).unwrap();
        assert_eq!(job.outputs(), out, "{}", case("follow-up"));
        assert_eq!(job.metrics(), m, "{}", case("follow-up"));
    }
}

/// A diamond-with-tail DAG over [`DigestFan`] rounds: two independent
/// sources (a real same-level fan-out for the staged levels), a join
/// node reading both, and a tail round — deep enough that pooled DAG
/// staging nests pool-backed rounds inside pool-backed level fan-outs.
fn diamond_dag() -> DagJob<u64> {
    let mut dag = DagJob::new();
    let a = dag.add_round(
        "a",
        vec![],
        DigestFan {
            groups: 11,
            reps: 2,
        },
    );
    let b = dag.add_round(
        "b",
        vec![],
        DigestFan {
            groups: 17,
            reps: 3,
        },
    );
    let join = dag.add_round(
        "join",
        vec![a, b],
        DigestFan {
            groups: 23,
            reps: 2,
        },
    );
    dag.add_round("tail", vec![join], DigestFan { groups: 7, reps: 1 });
    dag
}

#[test]
fn dag_levels_are_executor_independent() {
    let dag = diamond_dag();
    let inputs: Vec<u64> = (0..600u64).map(|i| i * 31 + 5).collect();
    let truth = dag
        .run(&inputs, &EngineConfig::sequential())
        .expect("no budget set");
    for workers in WORKER_COUNTS {
        let got = dag
            .run(&inputs, &EngineConfig::parallel(workers))
            .expect("no budget set");
        assert_eq!(truth.0, got.0, "DAG outputs diverged at workers={workers}");
        assert_eq!(truth.1, got.1, "DAG metrics diverged at workers={workers}");
    }
}

/// The key [`panicking_dag`]'s `right` node cannot reduce.
const BAD_KEY: u64 = 3;

/// A DAG whose level 1 holds two nodes reading one source: `left`, a
/// healthy [`DigestFan`] round, and `right`, whose reduce panics on
/// [`BAD_KEY`]. At `workers > 1` that panic is raised in a reduce-phase
/// fan-out nested inside the level's node fan-out, both on the pool.
fn panicking_dag() -> DagJob<u64> {
    let mut dag = DagJob::new();
    let src = dag.add_round(
        "src",
        vec![],
        DigestFan {
            groups: 17,
            reps: 2,
        },
    );
    dag.add_round(
        "left",
        vec![src],
        DigestFan {
            groups: 11,
            reps: 2,
        },
    );
    dag.add_round(
        "right",
        vec![src],
        FnSchema(
            |x: &u64, emit: &mut dyn FnMut(ReducerId)| emit(x % 5),
            |r: ReducerId, xs: &[u64], emit: &mut dyn FnMut(u64)| {
                if r == BAD_KEY {
                    panic!("node right cannot reduce key {r}");
                }
                emit(xs.iter().fold(0u64, |acc, x| acc.wrapping_add(*x)))
            },
        ),
    );
    dag
}

#[test]
fn a_panicking_dag_node_raises_the_inline_panic() {
    let dag = panicking_dag();
    let inputs: Vec<u64> = (0..600u64).map(|i| i * 31 + 5).collect();
    let caught = |workers: usize| {
        let run = catch_unwind(AssertUnwindSafe(|| {
            dag.run(&inputs, &EngineConfig::parallel(workers))
        }));
        panic_message(run.expect_err("node right must panic"))
    };
    let inline = caught(1);
    assert_eq!(inline, format!("node right cannot reduce key {BAD_KEY}"));
    for workers in 2..=16 {
        assert_eq!(
            inline,
            caught(workers),
            "panic payload at workers={workers}"
        );
    }
    // The pool took those nested panics and still runs the next DAG
    // exactly like the inline run.
    let healthy = diamond_dag();
    let truth = healthy
        .run(&inputs, &EngineConfig::sequential())
        .expect("no budget set");
    let pooled = healthy
        .run(&inputs, &EngineConfig::parallel(4))
        .expect("no budget set");
    assert_eq!(truth, pooled, "the DAG after the panics diverged");
}

#[test]
fn worker_count_clamps_identically_through_the_pool() {
    // Satellite regression: `workers: 0` (the degenerate sequential clamp)
    // and worker counts far above both the morsel count and the machine's
    // core count must be behavioural no-ops on the pooled path — same
    // outputs, same semantic metrics, no panic, no deadlock.
    let inputs = indexed(&mixed_keys());
    let schema = DigestFan {
        groups: 29,
        reps: 2,
    };
    let schema_inputs: Vec<u64> = (0..800u64).map(|i| i * 7 + 1).collect();
    let truth_cfg = EngineConfig::parallel(1);
    let truth_round = digest_round(&inputs, &truth_cfg);
    let truth_schema = run_schema(&schema_inputs, &schema, &truth_cfg).unwrap();
    for workers in [0usize, 1, 4_096, 1 << 20] {
        let cfg = EngineConfig::parallel(workers);
        assert_eq!(cfg.effective_workers(), workers.max(1));
        let got = digest_round(&inputs, &cfg);
        assert_eq!(truth_round, got, "clamp visible at workers={workers}");
        let got_schema = run_schema(&schema_inputs, &schema, &cfg).unwrap();
        assert_eq!(
            truth_schema, got_schema,
            "schema clamp visible at workers={workers}"
        );
    }
}

#[test]
fn the_global_pool_survives_the_whole_battery() {
    // After everything above has pushed thousands of batches through the
    // resident pool, it is still the same live singleton: workers parked,
    // nothing leaked, and a fresh batch still runs. (A pool that silently
    // lost workers would deadlock here, not just slow down.)
    let pool = WorkerPool::global();
    let doubled = pool.run(
        (0..64u64)
            .map(|i| Box::new(move || i * 2) as Box<dyn FnOnce() -> u64 + Send>)
            .collect(),
    );
    assert_eq!(doubled, (0..64u64).map(|i| i * 2).collect::<Vec<_>>());
    assert!(pool.workers() >= 1);
}
