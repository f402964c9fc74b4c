//! Empirical `(q, r)` frontier sweep: every problem family's constructive
//! mapping schemas executed through the mr-sim engine over a q-grid, with
//! the measured curve checked against the §2.4 lower-bound recipe.
//!
//! The analytic frontiers in [`mr_core::frontier`] come from *exhaustive
//! validation* — counting assignments over the space of potential inputs.
//! This module closes the loop with the *execution* layer. Since the
//! registry refactor it no longer knows any family by name: it asks
//! [`mr_core::family::registry`] for the implemented families as
//! `Box<dyn DynFamily>`, fans their grid points out over worker threads,
//! and merges the measured points back in grid order. Each point is the
//! [`FamilyPoint`] the family's [`run`](DynFamily::run) returned,
//! unchanged:
//!
//! * the measured reducer size `q` (max load) and replication rate `r`,
//!   and the outputs the round emitted,
//! * the reducer-load skew and the shuffle's partition skew, bytes moved,
//!   and per-partition occupancy histogram
//!   ([`ShuffleStats`](mr_sim::ShuffleStats)),
//! * the round's wall-clock time, and
//! * the family's analytic lower bound `max(1, q·|O|/(g(q)·|I|))` at the
//!   measured `q`, plus the gap ratio `r / bound`.
//!
//! Because the default instances are complete, the §2.4 theorem applies
//! verbatim: **measured `r ≥ bound` must hold at every grid point**, and
//! the test suite asserts it. Families whose algorithms are exactly
//! optimal (Hamming splitting, matrix multiplication, the 2-path `q = n`
//! point) show `gap = 1`; the others show the constant-factor daylight
//! the paper proves is all that remains. The sparse `G(n, m)` scenarios
//! ([`mr_core::family::sparse_scenarios`], selectable via
//! `repro frontier triangles-gnm`) run the same schemas on seeded random
//! data graphs, where the instance-counted bound still holds but is
//! weak — the §4.2 rescaling story.
//!
//! # Parallelism and determinism
//!
//! Grid points are independent, so the driver hands them to one
//! [`mr_sim::fan_out`] — a single batch on the resident
//! [`WorkerPool`](mr_sim::WorkerPool), whose work-stealing
//! injector gives dynamic load balancing (point costs vary by orders of
//! magnitude across the grid). Results come back in grid order whichever
//! worker ran what, so the sweep's semantic output is **byte-identical
//! for every worker count** — the same contract the engine itself makes.
//! Four per-point fields depend on how a sweep was executed rather than
//! what it computed: wall-clock and the shuffle's execution picture
//! (partition skew, bytes moved, occupancy histogram).
//! [`SweepReport::semantic_json`] excludes them (and is what the
//! determinism tests compare); [`SweepReport::full_json`] includes them
//! for human consumption.

use crate::json;
use crate::table::{fmt, Table};
use mr_core::family::{extended_registry, registry, DynFamily, FamilyPoint, Scale};
use mr_sim::{fan_out, EngineConfig, Executor};

/// Configuration of one sweep run.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Width of the grid fan-out. `0` and `1` both run the grid
    /// sequentially on the calling thread; the semantic results are
    /// identical for every value.
    pub sweep_workers: usize,
    /// Engine configuration for each grid point's round. The default is
    /// sequential: the sweep parallelises *across* grid points, which
    /// dominates intra-round parallelism for the small model instances.
    pub engine: EngineConfig,
    /// Unread and one-valued: the grid always fans out through
    /// [`mr_sim::fan_out`]. Kept only because the perf ledger's
    /// `plan_and_sweep` workload spells the field out; the follow-up to
    /// ROADMAP item 1(e) deletes it.
    pub executor: Executor,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            sweep_workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            engine: EngineConfig::sequential(),
            executor: Executor::Pool,
        }
    }
}

/// A family's measured frontier: grid points sorted by ascending `q`.
#[derive(Debug, Clone)]
pub struct FamilyCurve {
    /// Family identifier (stable, used by tests and JSON consumers).
    pub family: &'static str,
    /// Human-readable description of the model instance swept.
    pub instance: String,
    /// Measured points, ascending in `q`.
    pub points: Vec<FamilyPoint>,
}

/// The result of a whole sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Engine worker count each grid point ran with.
    pub engine_workers: usize,
    /// One curve per problem family.
    pub families: Vec<FamilyCurve>,
}

/// Sweeps the given families over their q-grids.
///
/// This is the whole executor: one item per `(family, grid point)` pair,
/// fanned out [`SweepConfig::sweep_workers`] wide, regrouped per family,
/// and sorted by `(q, algorithm)` so the presentation order is total and
/// worker-count independent. All family knowledge — instances, schemas,
/// recipes — lives behind [`DynFamily`].
pub fn sweep_families(families: &[Box<dyn DynFamily>], config: &SweepConfig) -> SweepReport {
    let engine = &config.engine;
    let grid: Vec<(usize, usize)> = families
        .iter()
        .enumerate()
        .flat_map(|(fi, fam)| (0..fam.grid().len()).map(move |pi| (fi, pi)))
        .collect();
    let points = fan_out(config.sweep_workers, grid, |(fi, pi)| {
        let point = families[fi]
            .run(pi, engine)
            .expect("a sweep round overflowed the caller-supplied reducer budget");
        (fi, point)
    });

    let mut curves: Vec<FamilyCurve> = families
        .iter()
        .map(|f| FamilyCurve {
            family: f.name(),
            instance: f.instance(),
            points: Vec::new(),
        })
        .collect();
    for (fi, p) in points {
        curves[fi].points.push(p);
    }
    for fam in &mut curves {
        // Present each curve in ascending q (ties broken by name so the
        // order is total and worker-count independent).
        fam.points
            .sort_by(|a, b| a.q.cmp(&b.q).then_with(|| a.algorithm.cmp(&b.algorithm)));
    }
    SweepReport {
        engine_workers: config.engine.effective_workers(),
        families: curves,
    }
}

/// Sweeps every implemented problem family over its q-grid — the
/// [`registry`] at default scale through [`sweep_families`].
///
/// The returned curves are fully deterministic in everything except the
/// four execution-metadata fields (wall-clock, partition skew, shuffle
/// bytes, occupancy histogram): same results for any `sweep_workers`, and
/// the semantic fields are also identical for any engine worker count
/// (the engine's own contract).
///
/// # Panics
/// Panics if `config.engine` carries a `max_reducer_inputs` budget
/// smaller than some grid point's load. The sweep exists to *measure*
/// reducer loads, so run it without a budget (the default); budget
/// enforcement has its own tests in `mr-sim`.
pub fn sweep_all(config: &SweepConfig) -> SweepReport {
    sweep_families(&registry(), config)
}

impl SweepReport {
    fn json(&self, execution_metadata: bool) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"subsystem\": \"frontier_sweep\",\n");
        if execution_metadata {
            out.push_str(&format!("  \"engine_workers\": {},\n", self.engine_workers));
        }
        out.push_str("  \"families\": [\n");
        for (fi, fam) in self.families.iter().enumerate() {
            out.push_str(&format!(
                "    {{\n      \"family\": \"{}\",\n      \"instance\": \"{}\",\n      \"points\": [\n",
                json::escape(fam.family),
                json::escape(&fam.instance)
            ));
            for (pi, p) in fam.points.iter().enumerate() {
                let mut obj = json::Obj::new();
                obj.str("algorithm", &p.algorithm)
                    .int("q_declared", p.q_declared)
                    .int("q", p.q)
                    .num("r", p.r)
                    .num("bound", p.bound)
                    .num("gap", p.gap)
                    .num("load_skew", p.load_skew)
                    .int("outputs", p.outputs);
                if execution_metadata {
                    let histogram = p
                        .bucket_loads
                        .iter()
                        .map(|l| l.to_string())
                        .collect::<Vec<_>>()
                        .join(", ");
                    obj.num("partition_skew", p.partition_skew)
                        .int("shuffle_bytes", p.shuffle_bytes)
                        .raw("bucket_loads", format!("[{histogram}]"))
                        .raw("wall_ms", format!("{:.3}", p.wall.as_secs_f64() * 1e3));
                }
                out.push_str("        ");
                out.push_str(&obj.compact());
                if pi + 1 < fam.points.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str("      ]\n    }");
            if fi + 1 < self.families.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The deterministic JSON serialisation: everything the sweep
    /// *computed*, nothing about how it was executed. Byte-identical for
    /// every sweep worker count and every engine worker count.
    pub fn semantic_json(&self) -> String {
        self.json(false)
    }

    /// The full JSON serialisation: the semantic fields plus the four
    /// per-point execution-metadata fields (`partition_skew`,
    /// `shuffle_bytes`, `bucket_loads`, `wall_ms`) and the engine worker
    /// count. The extra fields describe one particular execution and vary
    /// run to run.
    pub fn full_json(&self) -> String {
        self.json(true)
    }

    /// Renders the measured-vs-analytic comparison table.
    pub fn table(&self) -> String {
        let mut t = Table::new(&[
            "family",
            "algorithm",
            "q(decl)",
            "q",
            "r",
            "bound",
            "gap",
            "skew",
            "outputs",
            "shuffle(KiB)",
            "wall(ms)",
        ]);
        for fam in &self.families {
            for p in &fam.points {
                t.row(vec![
                    fam.family.to_string(),
                    p.algorithm.clone(),
                    p.q_declared.to_string(),
                    p.q.to_string(),
                    fmt(p.r),
                    fmt(p.bound),
                    fmt(p.gap),
                    fmt(p.load_skew),
                    p.outputs.to_string(),
                    format!("{:.1}", p.shuffle_bytes as f64 / 1024.0),
                    format!("{:.3}", p.wall.as_secs_f64() * 1e3),
                ]);
            }
        }
        t.render()
    }
}

/// Formats a report with the standard frontier prose.
fn render(report: &SweepReport) -> String {
    format!(
        "Empirical (q, r) frontier sweep — every family's constructive schemas \
         executed\nthrough the engine on its complete model instance, versus the \
         §2.4 lower bound.\ngap = measured r / analytic bound (≥ 1 for every valid \
         schema; 1 = optimal).\n\n{}\nJSON (semantic curve — deterministic across \
         runs and worker counts; wall-clock\nand partition skew are execution \
         metadata, see the table / SweepReport::full_json):\n\n{}",
        report.table(),
        report.semantic_json()
    )
}

/// The `repro frontier` report: the comparison table (wall-clock column
/// included) plus the *semantic* JSON.
///
/// The JSON block is deliberately [`semantic_json`](SweepReport::semantic_json):
/// the repro binary's long-standing contract is byte-identical output
/// across runs, and only the table's human-facing `wall(ms)` column is
/// exempt. The four per-point execution-metadata fields (`wall_ms`,
/// `partition_skew`, `shuffle_bytes`, `bucket_loads`) and
/// `engine_workers` are available programmatically via
/// [`SweepReport::full_json`].
pub fn report() -> String {
    let report = sweep_all(&SweepConfig::default());
    render(&report)
}

/// The family names selectable in `repro frontier` (complete families
/// plus sparse scenarios, in registry order).
///
/// Kept as a static list so CLI token validation never constructs the
/// registry's instance data (complete bit-string universes, seeded
/// graphs with subgraph counting…) just to read eight names; the
/// `selector_vocabulary_is_consistent` test pins it to the actual
/// [`extended_registry`] contents.
pub fn available_families() -> Vec<&'static str> {
    vec![
        "hamming-d1",
        "triangles",
        "sample-c4",
        "two-path",
        "join-cycle3",
        "matmul",
        "triangles-gnm",
        "sample-c4-gnm",
    ]
}

/// True when `token` is something `repro frontier` can consume: a family
/// name or a scale keyword.
pub fn is_selector(token: &str) -> bool {
    crate::selectors::scale_token(token).is_some() || available_families().contains(&token)
}

/// The `repro frontier` report for a selection: family names filter the
/// extended registry (complete + sparse), an optional scale token picks
/// the instance-size preset. No selectors at all reproduces [`report`]
/// byte-for-byte.
///
/// Returns `Err` with a message listing the valid selectors when a token
/// is unknown or two scales are named.
pub fn report_for(selectors: &[String]) -> Result<String, String> {
    let mut scale: Option<Scale> = None;
    let mut picked: Vec<&'static str> = Vec::new();
    let names = available_families();
    for tok in selectors {
        if let Some(sc) = crate::selectors::scale_token(tok) {
            crate::selectors::set_scale(&mut scale, sc)?;
        } else if !crate::selectors::pick_family(&names, tok, &mut picked) {
            return Err(format!(
                "unknown frontier selector '{tok}'; families: {}; scales: {}",
                names.join(", "),
                crate::selectors::scale_names(", ")
            ));
        }
    }
    if scale.is_none() && picked.is_empty() {
        return Ok(report());
    }
    let scale = scale.unwrap_or_default();
    let families: Vec<Box<dyn DynFamily>> = extended_registry(scale)
        .into_iter()
        .filter(|f| picked.is_empty() || picked.contains(&f.name()))
        .collect();
    let report = sweep_families(&families, &SweepConfig::default());
    Ok(format!(
        "Selection: scale={}, families={}.\n\n{}",
        scale.name(),
        if picked.is_empty() {
            "all".to_string()
        } else {
            picked.join(", ")
        },
        render(&report)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_core::frontier::bound_gap;

    fn quick_config(sweep_workers: usize) -> SweepConfig {
        SweepConfig {
            sweep_workers,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn all_families_present_with_nonempty_grids() {
        let rep = sweep_all(&quick_config(2));
        let names: Vec<&str> = rep.families.iter().map(|f| f.family).collect();
        assert_eq!(
            names,
            vec![
                "hamming-d1",
                "triangles",
                "sample-c4",
                "two-path",
                "join-cycle3",
                "matmul"
            ]
        );
        for fam in &rep.families {
            assert!(
                fam.points.len() >= 3,
                "{}: grid too small ({} points)",
                fam.family,
                fam.points.len()
            );
        }
    }

    #[test]
    fn measured_r_dominates_bound_everywhere() {
        // The acceptance gate: on the complete instance the §2.4 theorem
        // guarantees r ≥ bound at every grid point.
        let rep = sweep_all(&quick_config(4));
        for fam in &rep.families {
            for p in &fam.points {
                assert!(
                    p.r >= p.bound - 1e-9,
                    "{} / {}: measured r={} below bound={}",
                    fam.family,
                    p.algorithm,
                    p.r,
                    p.bound
                );
                assert!(p.gap >= 1.0 - 1e-9);
                assert!((p.gap - bound_gap(p.r, p.bound)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn curves_ascend_in_q_and_respect_declared_budgets() {
        let rep = sweep_all(&quick_config(3));
        for fam in &rep.families {
            for w in fam.points.windows(2) {
                assert!(w[1].q >= w[0].q, "{}: curve not sorted by q", fam.family);
            }
            for p in &fam.points {
                assert!(
                    p.q <= p.q_declared,
                    "{} / {}: measured load {} exceeds declared budget {}",
                    fam.family,
                    p.algorithm,
                    p.q,
                    p.q_declared
                );
            }
        }
    }

    #[test]
    fn optimal_families_sit_exactly_on_the_bound() {
        let rep = sweep_all(&quick_config(2));
        // Hamming splitting and one-phase matmul are exactly optimal at
        // every grid point; the 2-path per-node point is too.
        for family in ["hamming-d1", "matmul"] {
            let fam = rep.families.iter().find(|f| f.family == family).unwrap();
            for p in &fam.points {
                assert!(
                    (p.gap - 1.0).abs() < 1e-9,
                    "{family} / {}: gap {} ≠ 1",
                    p.algorithm,
                    p.gap
                );
            }
        }
        let two_path = rep
            .families
            .iter()
            .find(|f| f.family == "two-path")
            .unwrap();
        let per_node = two_path
            .points
            .iter()
            .find(|p| p.algorithm.starts_with("per-node"))
            .unwrap();
        assert!((per_node.gap - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table_renders_every_point() {
        let rep = sweep_all(&quick_config(2));
        let t = rep.table();
        assert!(t.contains("wall(ms)"));
        assert!(t.contains("shuffle(KiB)"));
        let total: usize = rep.families.iter().map(|f| f.points.len()).sum();
        // Header + separator + one line per point.
        assert_eq!(t.lines().count(), 2 + total);
    }

    #[test]
    fn json_shapes() {
        let rep = sweep_all(&quick_config(2));
        let semantic = rep.semantic_json();
        let full = rep.full_json();
        assert!(semantic.contains("\"frontier_sweep\""));
        assert!(!semantic.contains("wall_ms"));
        assert!(!semantic.contains("partition_skew"));
        assert!(!semantic.contains("shuffle_bytes"));
        assert!(!semantic.contains("bucket_loads"));
        assert!(full.contains("wall_ms"));
        assert!(full.contains("partition_skew"));
        assert!(full.contains("shuffle_bytes"));
        assert!(full.contains("bucket_loads"));
        assert!(full.contains("engine_workers"));
        // Balanced braces/brackets — cheap well-formedness check given
        // the serializer never emits braces inside strings.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                semantic.matches(open).count(),
                semantic.matches(close).count()
            );
        }
    }

    #[test]
    fn shuffle_execution_metadata_is_populated() {
        // Every default grid point shuffles something, so the bytes-moved
        // figure and occupancy histogram must be live, the histogram must
        // total the round's pair count (bytes = pairs × a fixed per-pair
        // width), and a sequential engine means exactly one partition.
        let rep = sweep_all(&quick_config(2));
        for fam in &rep.families {
            for p in &fam.points {
                let pairs: u64 = p.bucket_loads.iter().sum();
                assert!(
                    pairs > 0,
                    "{} / {}: empty histogram",
                    fam.family,
                    p.algorithm
                );
                assert!(p.shuffle_bytes > 0, "{} / {}", fam.family, p.algorithm);
                assert_eq!(
                    p.shuffle_bytes % pairs,
                    0,
                    "{} / {}: bytes not a multiple of pairs",
                    fam.family,
                    p.algorithm
                );
                assert_eq!(
                    p.bucket_loads.len(),
                    1,
                    "{} / {}: sequential engine must report one partition",
                    fam.family,
                    p.algorithm
                );
            }
        }
    }

    #[test]
    fn selector_vocabulary_is_consistent() {
        // The static token list must match the registry exactly — it
        // exists only so token validation is free of instance building.
        let registry_names: Vec<&str> = extended_registry(Scale::Default)
            .iter()
            .map(|f| f.name())
            .collect();
        assert_eq!(available_families(), registry_names);
        for fam in available_families() {
            assert!(is_selector(fam), "{fam} must be selectable");
        }
        for scale in Scale::ALL {
            assert!(is_selector(scale.name()));
        }
        assert!(!is_selector("fig1"));
        assert!(!is_selector("nonsense"));
    }

    #[test]
    fn report_for_rejects_unknown_and_double_scale() {
        let err = report_for(&["bogus".to_string()]).unwrap_err();
        assert!(
            err.contains("hamming-d1"),
            "error must list families: {err}"
        );
        assert!(err.contains("small"), "error must list scales: {err}");
        let err2 = report_for(&["small".to_string(), "full".to_string()]).unwrap_err();
        assert!(err2.contains("at most one scale"));
    }

    #[test]
    fn report_for_selects_families_and_scale() {
        let out = report_for(&["small".to_string(), "matmul".to_string()]).unwrap();
        assert!(out.starts_with("Selection: scale=small, families=matmul."));
        assert!(out.contains("one-phase(n=4, s=1)"));
        assert!(!out.contains("hamming"), "unselected family leaked in");
    }

    #[test]
    fn report_for_empty_selection_is_the_default_report() {
        // No selectors → the legacy byte-identical report shape: no
        // "Selection:" banner, all six default families. (Comparing two
        // runs' full text would trip on the wall-clock column.)
        let out = report_for(&[]).unwrap();
        assert!(out.starts_with("Empirical (q, r) frontier sweep"));
        assert!(!out.contains("Selection:"));
        for fam in registry().iter().map(|f| f.name()) {
            assert!(
                out.contains(fam),
                "family {fam} missing from default report"
            );
        }
    }
}
