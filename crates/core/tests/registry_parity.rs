//! Schema/engine parity battery for the family registry.
//!
//! On a *complete* model instance, exhaustive schema validation
//! ([`mr_core::model::validate_schema`] — counting assignments over every
//! potential input) and an actual engine round
//! ([`mr_sim::run_schema`] under [`mr_core::family::DynFamily::run`])
//! must agree exactly: the same replication rate `Σ qᵢ / |I|` and the
//! same maximum reducer load. This pins the §2.3 "all inputs present"
//! assumption through the registry's type-erased interface for **every**
//! family at once — any family whose round dropped, duplicated, or
//! rerouted an assignment would split the two numbers apart.

use mr_core::family::{
    extended_registry, family_by_name, registry_at, sparse_scenarios, DeltaCensus, DeltaSpec,
    FamilyPoint, Scale,
};
use mr_sim::{DeltaError, EngineConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn validation_and_engine_agree_for_every_family_at_small_scale() {
    for fam in registry_at(Scale::Small) {
        let grid = fam.grid();
        assert!(!grid.is_empty(), "{}: empty grid", fam.name());
        for (pi, gp) in grid.iter().enumerate() {
            let report = fam
                .validate(pi)
                .unwrap_or_else(|| panic!("{}: complete family must validate", fam.name()));
            assert!(
                report.is_valid(),
                "{} / {}: invalid schema {report:?}",
                fam.name(),
                gp.schema
            );
            let run = fam.run(pi, &EngineConfig::sequential()).unwrap();
            assert_eq!(
                report.max_load,
                run.q,
                "{} / {}: validated max load differs from engine-measured q",
                fam.name(),
                gp.schema
            );
            assert!(
                (report.replication_rate - run.r).abs() < 1e-12,
                "{} / {}: validated r={} vs engine r={}",
                fam.name(),
                gp.schema,
                report.replication_rate,
                run.r
            );
            // The §2.2 coverage condition showed up in is_valid(); the
            // engine side must also have emitted every output exactly
            // once, so the counts agree too.
            assert_eq!(
                report.num_outputs,
                run.outputs,
                "{} / {}: engine outputs differ from the model's |O|",
                fam.name(),
                gp.schema
            );
        }
    }
}

#[test]
fn parity_holds_across_engine_worker_counts() {
    // The registry's round rides the engine's determinism contract: the same
    // numbers at any worker count. One family per instance type suffices
    // here (the full cross-product lives in the engine's own batteries).
    let semantic = |p: &FamilyPoint| (p.algorithm.clone(), p.q, p.r, p.load_skew, p.outputs);
    for fam in registry_at(Scale::Small) {
        let baseline = fam.run(0, &EngineConfig::sequential()).unwrap();
        for workers in [2usize, 4] {
            let par = fam.run(0, &EngineConfig::parallel(workers)).unwrap();
            assert_eq!(semantic(&baseline), semantic(&par), "{}", fam.name());
        }
    }
}

#[test]
fn sparse_scenarios_have_no_exhaustive_validation() {
    // Sparse instances measure one data graph, not the model's potential
    // inputs; exhaustive validation would be a category error and the
    // registry must refuse it rather than validate the wrong thing.
    for fam in sparse_scenarios(Scale::Small) {
        for pi in 0..fam.grid().len() {
            assert!(fam.validate(pi).is_none(), "{} point {pi}", fam.name());
        }
    }
}

/// Renders everything the registry exposes at [`Scale::Small`] as one
/// line-oriented table: per family its identity, per grid point the
/// declared budget, the census, the engine-measured output count, and
/// the census of the canonical tail-churn delta.
fn render_small_registry() -> String {
    let mut table = String::new();
    for fam in extended_registry(Scale::Small) {
        let n = fam.num_inputs();
        let params: Vec<String> = fam
            .params()
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        table += &format!(
            "family {} | {} | params {} | inputs {n}\n",
            fam.name(),
            fam.instance(),
            params.join(",")
        );
        let churn = DeltaSpec::tail_churn(n);
        for (pi, gp) in fam.grid().iter().enumerate() {
            let census = fam.census(pi);
            let r = census.pairs as f64 / n as f64;
            let run = fam.run(pi, &EngineConfig::sequential()).unwrap();
            let DeltaCensus { base, delta: d } = fam.delta_census(pi, &churn);
            table += &format!(
                "  {} | q_declared {} | census q={} r={:?} pairs={} reducers={} | outputs {} | \
                 validates {} | churn base(q={} pairs={} reducers={}) dirty={} delta_pairs={} \
                 post(q={} reducers={})\n",
                gp.schema,
                gp.q_declared,
                census.q,
                r,
                census.pairs,
                census.reducers,
                run.outputs,
                fam.validate(pi).is_some(),
                base.q,
                base.pairs,
                base.reducers,
                d.dirty_reducers,
                d.delta_pairs,
                d.post_q,
                d.post_reducers,
            );
        }
    }
    table
}

#[test]
fn small_registry_matches_the_golden_table() {
    // The batteries above check that census, engine and validation agree
    // with *each other*; this pins the absolute numbers, so a change that
    // shifts all three together still fails. The table is a checked-in
    // artifact — a diff here is a behaviour change to be explained, not
    // a file to regenerate.
    let rendered = render_small_registry();
    let golden = include_str!("registry_small.golden");
    for (line, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "golden table line {} differs", line + 1);
    }
    assert_eq!(
        rendered.lines().count(),
        golden.lines().count(),
        "golden table length differs; rendered table:\n{rendered}"
    );
}

#[test]
fn a_malformed_delta_spec_is_refused_by_name_in_every_profile() {
    // `remove` holds positions within `base`, each at most once. Pricing
    // a repeated or out-of-range position would subtract an input the
    // base never held: at best a silently wrong census, at worst `u64`
    // arithmetic that panics bare in debug builds and wraps to
    // `post_q ≈ u64::MAX` in release builds. The shared primitive refuses
    // both — the way `DeltaJob::predict` refuses an unknown seq — naming
    // family, point and offending position. CI runs this test under
    // `cargo test` and `cargo test --release` alike.
    let fam = family_by_name("two-path", Scale::Small).unwrap();
    let n = fam.num_inputs();
    for (remove, offender) in [(vec![3, 5, 3], 3), (vec![0, n], n)] {
        let spec = DeltaSpec {
            base: (0..n).collect(),
            remove,
            add: vec![],
        };
        let refused = catch_unwind(AssertUnwindSafe(|| fam.delta_census(1, &spec)))
            .expect_err("a malformed spec must not be priced");
        let message = refused
            .downcast_ref::<String>()
            .expect("the refusal carries a formatted message");
        for needle in [
            "two-path".to_string(),
            "point 1".to_string(),
            DeltaError::UnknownSeq(offender as u64).to_string(),
        ] {
            assert!(message.contains(&needle), "'{needle}' missing: {message}");
        }
    }
}
