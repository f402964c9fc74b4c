//! **`repro delta`** — incremental execution end to end: hold each
//! registry family resident, apply a deterministic churn (remove every
//! 7th base input, add a held-out tail), and print the delta path's
//! dirty-reducer count and delta-shuffle volume next to the full-run
//! equivalents, with the byte-identity and census-exactness verdicts.
//!
//! Arguments: family names filter the registry, a scale token
//! (`small`/`default`/`full`) picks the instance preset, and `--trace`
//! records the run with [`mr_obs`], appending a span summary after the
//! semantic JSON (which stays byte-identical either way). The churn is a
//! pure function of the instance size ([`DeltaSpec::tail_churn`]), so
//! everything but wall-clock is deterministic across runs.

use crate::json;
use crate::selection::Selection;
use crate::sweep::available_families;
use crate::table::{fmt, Table};
use mr_core::family::{family_by_name, DeltaReport, DeltaSpec, Scale};

/// One family's measured delta run, plus the labels the report prints.
struct Row {
    family: &'static str,
    schema: String,
    report: DeltaReport,
}

/// Runs the churn on the named family's most-partitioned grid point —
/// the point where incremental execution has the most reducers to save.
fn churn_family(family: &'static str, scale: Scale) -> Row {
    let fam = family_by_name(family, scale).expect("selector vocabulary matches the registry");
    let point = (0..fam.grid().len())
        .max_by_key(|&p| fam.census(p).reducers)
        .expect("grids are non-empty");
    let schema = fam.grid()[point].schema.clone();
    let spec = DeltaSpec::tail_churn(fam.num_inputs());
    let report = fam.delta_run(point, &mr_sim::EngineConfig::parallel(4), &spec);
    Row {
        family,
        schema,
        report,
    }
}

/// The `repro delta` runner: every registry family unless families are
/// named.
pub fn run(sel: &Selection) -> Result<String, String> {
    let picked = match sel.families.as_slice() {
        [] => available_families(),
        named => named.to_vec(),
    };
    let scale = sel.scale.unwrap_or_default();
    let compute = || -> Vec<Row> { picked.iter().map(|f| churn_family(f, scale)).collect() };
    let (rows, trace_report) = if sel.trace {
        let (rows, tr) = mr_obs::record(compute);
        (rows, Some(tr))
    } else {
        (compute(), None)
    };

    let mut out = String::from(
        "Incremental (delta) execution: each family held resident, then churned —\n\
         every 7th base input removed, a held-out tail added. Only the reducers the\n\
         changed inputs map to re-execute (§2.2 obliviousness); `match` asserts the\n\
         retained result equals a fresh full run byte-identically, `census` that the\n\
         map-side prediction of dirty reducers / delta pairs / post-q was exact.\n\
         The delta runs under the predicted post-q as a hard reducer budget.\n\n",
    );

    let mut t = Table::new(&[
        "family",
        "schema",
        "base",
        "+add/-rm",
        "dirty/full reducers",
        "Δpairs/full",
        "retract/add out",
        "match",
        "census",
        "wall Δ/full (ms)",
    ]);
    for r in &rows {
        let (rep, m) = (&r.report, &r.report.metrics);
        t.row(vec![
            r.family.to_string(),
            r.schema.clone(),
            rep.base_inputs.to_string(),
            format!("+{}/-{}", m.inputs_added, m.inputs_removed),
            format!("{}/{}", m.dirty_reducers, rep.full.reducers),
            format!("{}/{}", m.delta_pairs, rep.full.pairs),
            format!("{}/{}", m.outputs_retracted, m.outputs_added),
            if rep.matches_full_run { "yes" } else { "NO" }.to_string(),
            if rep.prediction_exact { "exact" } else { "OFF" }.to_string(),
            format!(
                "{}/{}",
                fmt(m.wall.as_secs_f64() * 1e3),
                fmt(rep.wall_full.as_secs_f64() * 1e3)
            ),
        ]);
    }
    out.push_str(&t.render());

    out.push_str(
        "\nJSON (semantic — deterministic across runs; wall-clock is execution metadata,\n\
         see the table):\n\n",
    );
    out.push_str(&semantic_json(scale, &rows));
    if let Some(tr) = &trace_report {
        out.push_str(&super::trace::trace_section(tr));
    }
    Ok(out)
}

/// The deterministic JSON serialisation of a delta run (no wall-clock).
fn semantic_json(scale: Scale, rows: &[Row]) -> String {
    let mut out = String::from("{\n  \"subsystem\": \"delta\",\n");
    out.push_str(&format!(
        "  \"scale\": \"{}\",\n  \"runs\": [\n",
        scale.name()
    ));
    for (i, r) in rows.iter().enumerate() {
        let (rep, m) = (&r.report, &r.report.metrics);
        let mut obj = json::Obj::new();
        obj.str("family", r.family)
            .str("schema", &r.schema)
            .int("base_inputs", rep.base_inputs)
            .int("added", m.inputs_added)
            .int("removed", m.inputs_removed)
            .int("dirty_reducers", m.dirty_reducers)
            .int("full_reducers", rep.full.reducers)
            .int("delta_pairs", m.delta_pairs)
            .int("full_pairs", rep.full.pairs)
            .int("outputs_retracted", m.outputs_retracted)
            .int("outputs_added", m.outputs_added)
            .int("outputs_total", rep.outputs_total)
            .int("post_q", rep.census.delta.post_q)
            .raw("matches_full_run", rep.matches_full_run.to_string())
            .raw("prediction_exact", rep.prediction_exact.to_string());
        out.push_str("    ");
        out.push_str(&obj.compact());
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(tokens: &[&str]) -> Result<String, String> {
        crate::experiments::run_one("delta", tokens)
    }

    #[test]
    fn default_report_churns_every_family() {
        let out = run(&["small"]).unwrap();
        for family in available_families() {
            assert!(out.contains(family), "{family} missing:\n{out}");
        }
        assert!(out.contains("\"subsystem\": \"delta\""));
        assert!(!out.contains(" NO "), "a family diverged:\n{out}");
        assert!(!out.contains(" OFF "), "a census mispredicted:\n{out}");
    }

    #[test]
    fn family_and_scale_selectors_filter_the_run() {
        let out = run(&["small", "triangles"]).unwrap();
        assert!(out.contains("triangles"));
        assert!(!out.contains("matmul"));
        assert!(out.contains("\"scale\": \"small\""));
    }

    #[test]
    fn bad_tokens_are_reported_with_the_vocabulary() {
        let out = run(&["bogus"]).unwrap_err();
        assert!(out.contains("unknown experiment(s) [\"bogus\"]"), "{out}");
        let refused = run(&["join-agg"]).unwrap_err();
        assert!(
            refused.contains("unknown delta selector 'join-agg'"),
            "{refused}"
        );
        assert!(refused.contains("hamming-d1"));
        let out2 = run(&["small", "full"]).unwrap_err();
        assert!(out2.contains("at most one scale"));
    }

    #[test]
    fn semantic_json_is_byte_identical_across_runs() {
        let json = |_: ()| {
            let out = run(&["small", "two-path"]).unwrap();
            out.split("JSON").nth(1).unwrap().to_string()
        };
        assert_eq!(json(()), json(()));
    }

    #[test]
    fn trace_flag_appends_a_trace_section_without_touching_the_json() {
        let with = run(&["small", "two-path", "--trace"]).unwrap();
        let without = run(&["small", "two-path"]).unwrap();
        let json_of = |s: &str| {
            s.split("JSON")
                .nth(1)
                .unwrap()
                .split("\nTrace (")
                .next()
                .unwrap()
                .to_string()
        };
        assert_eq!(json_of(&with), json_of(&without));
        assert!(with.contains("span tree: well-formed"), "{with}");
        assert!(with.contains("delta.apply"), "{with}");
        assert!(with.contains("delta.routing"), "{with}");
    }
}
