//! The registry-wide delta battery — the headline acceptance test for
//! incremental execution: `full_run(I ∪ ΔI) == apply(delta_run(ΔI),
//! retained)` **byte-identically** (outputs and semantic metrics) for
//! every registry family, every delta kind (adds, removes, mixed, empty,
//! full-churn), every worker count 1–16 — with the map-side census exact
//! and a small delta re-executing strictly fewer reducers than a full run
//! uses.

use mr_core::family::{extended_registry, DeltaSpec, DynFamily, Scale};
use mr_sim::EngineConfig;

/// The delta shapes the battery drives per family. `n` is the family's
/// instance size; every shape keeps indices in `0..n`.
fn delta_kinds(n: usize) -> Vec<(&'static str, DeltaSpec)> {
    let split = n - n / 5; // hold out ~20% of the instance
    vec![
        (
            "empty",
            DeltaSpec {
                base: (0..n).collect(),
                remove: vec![],
                add: vec![],
            },
        ),
        (
            "adds",
            DeltaSpec {
                base: (0..split).collect(),
                remove: vec![],
                add: (split..n).collect(),
            },
        ),
        (
            "removes",
            DeltaSpec {
                base: (0..n).collect(),
                remove: (0..n).step_by(5).collect(),
                add: vec![],
            },
        ),
        ("mixed", DeltaSpec::tail_churn(n)),
        (
            "full-churn",
            DeltaSpec {
                base: (0..split).collect(),
                remove: (0..split).collect(),
                add: (split..n).collect(),
            },
        ),
    ]
}

/// One family × one spec × one engine: assert the two
/// verdicts the typed layer computes (byte-identity against the fresh
/// full run, census exactness) plus the census-bound on dirty reducers.
fn assert_family_delta(
    fam: &dyn DynFamily,
    point: usize,
    kind: &str,
    spec: &DeltaSpec,
    engine: &EngineConfig,
) {
    let census = fam.delta_census(point, spec);
    let report = fam.delta_run(point, engine, spec);
    let label = format!(
        "{} [{kind}] workers={}",
        fam.name(),
        engine.effective_workers()
    );
    assert!(
        report.matches_full_run,
        "{label}: retained result diverged from the full run"
    );
    assert!(
        report.prediction_exact,
        "{label}: census mispredicted the delta"
    );
    assert_eq!(report.census, census, "{label}: census drifted");
    assert!(
        report.metrics.dirty_reducers <= census.delta.dirty_reducers,
        "{label}: dirty {} above the census bound {}",
        report.metrics.dirty_reducers,
        census.delta.dirty_reducers
    );
}

#[test]
fn every_family_every_kind_every_worker_count() {
    for fam in extended_registry(Scale::Small) {
        let n = fam.num_inputs();
        for (kind, spec) in delta_kinds(n) {
            for workers in 1..=16usize {
                let engine = EngineConfig::parallel(workers);
                assert_family_delta(fam.as_ref(), 0, kind, &spec, &engine);
            }
        }
    }
}

#[test]
fn deltas_also_land_on_every_grid_point() {
    // Worker-count and kind coverage above; here the grid axis — every
    // point of every family, one mixed churn.
    let engine = EngineConfig::parallel(4);
    for fam in extended_registry(Scale::Small) {
        let spec = DeltaSpec::tail_churn(fam.num_inputs());
        for point in 0..fam.grid().len() {
            assert_family_delta(fam.as_ref(), point, "mixed", &spec, &engine);
        }
    }
}

#[test]
fn small_deltas_beat_full_runs_on_reducer_count_and_shuffle_volume() {
    // The acceptance criterion's strict clause: a delta touching k ≪ n
    // inputs re-executes strictly fewer reducers than the full run uses
    // and ships strictly fewer pairs — measured at each family's
    // most-partitioned grid point.
    for fam in extended_registry(Scale::Small) {
        let n = fam.num_inputs();
        let point = (0..fam.grid().len())
            .max_by_key(|&p| fam.census(p).reducers)
            .unwrap();
        let spec = DeltaSpec {
            base: (0..n).collect(),
            remove: vec![0, n / 2],
            add: vec![],
        };
        let report = fam.delta_run(point, &EngineConfig::sequential(), &spec);
        assert!(
            report.matches_full_run && report.prediction_exact,
            "{}",
            fam.name()
        );
        let (m, full) = (&report.metrics, &report.full);
        assert!(
            m.dirty_reducers < full.reducers,
            "{}: dirty {} not strictly below full {}",
            fam.name(),
            m.dirty_reducers,
            full.reducers
        );
        assert!(
            m.delta_pairs < full.pairs,
            "{}: delta shuffle {} not strictly below full {}",
            fam.name(),
            m.delta_pairs,
            full.pairs
        );
    }
}
