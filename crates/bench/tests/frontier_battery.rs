//! Integration battery for the empirical frontier sweep (`repro
//! frontier`): the sweep's determinism contract across *both* worker
//! dimensions, and the per-family measured-vs-analytic ordering. Family
//! lists come from the registry ([`mr_core::family`]) — the battery has
//! no family knowledge of its own, so a family added to the registry is
//! automatically under test.

use mr_bench::sweep::{sweep_all, sweep_families, SweepConfig};
use mr_core::family::{registry, sparse_scenarios, Scale};
use mr_sim::EngineConfig;

fn config(sweep_workers: usize, engine: EngineConfig) -> SweepConfig {
    SweepConfig {
        sweep_workers,
        engine,
        ..SweepConfig::default()
    }
}

#[test]
fn semantic_output_is_byte_identical_across_sweep_worker_counts() {
    let baseline = sweep_all(&config(1, EngineConfig::sequential())).semantic_json();
    for sweep_workers in [2usize, 3, 8, 32] {
        let got = sweep_all(&config(sweep_workers, EngineConfig::sequential())).semantic_json();
        assert_eq!(
            baseline, got,
            "sweep output diverged at sweep_workers={sweep_workers}"
        );
    }
}

#[test]
fn semantic_output_is_byte_identical_across_engine_worker_counts() {
    // The engine's own determinism contract, surfaced at sweep level: the
    // per-point rounds compute identical metrics whether each round runs
    // sequentially or on a partitioned shuffle. Every round runs through
    // `DynFamily::run`, the registry's erasure boundary, so this also pins
    // that its count-only `run_schema` round is worker-independent end to
    // end.
    let baseline = sweep_all(&config(2, EngineConfig::sequential())).semantic_json();
    for engine_workers in [2usize, 4] {
        let got = sweep_all(&config(2, EngineConfig::parallel(engine_workers))).semantic_json();
        assert_eq!(
            baseline, got,
            "sweep output diverged at engine_workers={engine_workers}"
        );
    }
}

#[test]
fn every_family_dominates_its_analytic_bound() {
    // One assertion per family so a regression names the family, not just
    // the point. The expected names pin the registry's contents: adding a
    // family without updating this list is a deliberate test failure, not
    // silence.
    let report = sweep_all(&config(4, EngineConfig::sequential()));
    let expect: Vec<&str> = registry().iter().map(|f| f.name()).collect();
    assert_eq!(
        expect,
        vec![
            "hamming-d1",
            "triangles",
            "sample-c4",
            "two-path",
            "join-cycle3",
            "matmul",
        ],
        "registry contents changed — update the battery's expectations"
    );
    assert_eq!(
        report.families.iter().map(|f| f.family).collect::<Vec<_>>(),
        expect
    );
    for family in expect {
        let fam = report
            .families
            .iter()
            .find(|f| f.family == family)
            .unwrap_or_else(|| panic!("family {family} missing from sweep"));
        assert!(!fam.points.is_empty(), "{family}: empty grid");
        for p in &fam.points {
            assert!(
                p.r >= p.bound - 1e-9,
                "{family} / {}: measured r={} below analytic bound={}",
                p.algorithm,
                p.r,
                p.bound
            );
        }
        // Non-vacuity: the clamp replaces sub-1 bounds by the trivial
        // r ≥ 1, which any valid schema meets by construction. Every
        // family's grid must contain at least one point where the
        // *unclamped* bound bites, or the r ≥ bound check above tests
        // nothing for that family.
        assert!(
            fam.points.iter().any(|p| p.bound > 1.0 + 1e-9),
            "{family}: clamped bound is 1 at every grid point — the r ≥ bound check is vacuous"
        );
    }
}

#[test]
fn sparse_scenarios_dominate_their_clamped_bounds() {
    // The §4.2/§5.3 edge-budget variants: seeded G(n, m) data graphs
    // through the same schemas. The §2.4 argument is instance-generic —
    // g bounds any reducer's coverage and every present occurrence must
    // be covered — so measured r ≥ the clamped bound with |I| = m and
    // |O| = the instance's occurrence count, at every grid point.
    let scenarios = sparse_scenarios(Scale::Default);
    assert_eq!(
        scenarios.iter().map(|f| f.name()).collect::<Vec<_>>(),
        vec!["triangles-gnm", "sample-c4-gnm"]
    );
    let report = sweep_families(&scenarios, &config(4, EngineConfig::sequential()));
    for fam in &report.families {
        assert!(!fam.points.is_empty(), "{}: empty grid", fam.family);
        for p in &fam.points {
            assert!(
                p.r >= p.bound - 1e-9,
                "{} / {}: measured r={} below clamped bound={}",
                fam.family,
                p.algorithm,
                p.r,
                p.bound
            );
            assert!(p.gap >= 1.0 - 1e-9);
            assert!(
                p.q <= p.q_declared,
                "{} / {}: sparse load {} exceeds the complete-instance budget {}",
                fam.family,
                p.algorithm,
                p.q,
                p.q_declared
            );
        }
        // Every grid point of a scenario found the same occurrences —
        // the output count is a property of the instance, not of k.
        let outputs: Vec<u64> = fam.points.iter().map(|p| p.outputs).collect();
        assert!(
            outputs.windows(2).all(|w| w[0] == w[1]),
            "{}: output count varies across the grid: {outputs:?}",
            fam.family
        );
    }
    // And the sparse sweep is deterministic too (seeded instances).
    let again = sweep_families(
        &sparse_scenarios(Scale::Default),
        &config(2, EngineConfig::sequential()),
    );
    assert_eq!(report.semantic_json(), again.semantic_json());
}

#[test]
fn full_json_adds_only_execution_metadata() {
    // The full serialisation must agree with the semantic one on every
    // semantic field — stripping the execution-metadata keys yields the
    // semantic document exactly.
    let report = sweep_all(&config(2, EngineConfig::sequential()));
    let full = report.full_json();
    let semantic = report.semantic_json();
    let stripped: String = full
        .lines()
        .filter(|l| !l.trim_start().starts_with("\"engine_workers\""))
        .map(|l| {
            let mut l = l.to_string();
            if let Some(at) = l.find(", \"partition_skew\"") {
                let tail_at = l.rfind('}').expect("point lines end with a brace");
                let tail = l[tail_at..].to_string();
                l.truncate(at);
                l.push_str(&tail);
            }
            l
        })
        .collect::<Vec<_>>()
        .join("\n");
    // Allow for the final trailing newline lost by lines().
    assert_eq!(semantic.trim_end(), stripped.trim_end());
}

#[test]
fn small_scale_registry_sweeps_deterministically() {
    // The scale presets ride the same fan-out/merge: byte-identical
    // semantic output across sweep worker counts at Small scale too.
    let families = mr_core::family::registry_at(Scale::Small);
    let baseline = sweep_families(&families, &config(1, EngineConfig::sequential()));
    let par = sweep_families(&families, &config(8, EngineConfig::sequential()));
    assert_eq!(baseline.semantic_json(), par.semantic_json());
    for fam in &baseline.families {
        for p in &fam.points {
            assert!(p.r >= p.bound - 1e-9, "{} / {}", fam.family, p.algorithm);
        }
    }
}
