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
use crate::table::{fmt, Table};
use mr_core::family::{family_by_name, DeltaReport, DeltaSpec, Scale};
use mr_sim::Pipeline;

/// Parses the experiment's tokens through the shared
/// [`crate::selectors`] helpers (the same ones frontier and plan use).
fn parse(args: &[String]) -> Result<(Vec<&'static str>, Scale, bool), String> {
    let names = crate::sweep::available_families();
    let mut picked: Vec<&'static str> = Vec::new();
    let mut scale: Option<Scale> = None;
    let mut trace = false;
    for tok in args {
        if tok == super::trace::TRACE_FLAG {
            trace = true;
        } else if let Some(sc) = crate::selectors::scale_token(tok) {
            crate::selectors::set_scale(&mut scale, sc)?;
        } else if !crate::selectors::pick_family(&names, tok, &mut picked) {
            return Err(format!(
                "unknown delta selector '{tok}'; families: {}; scales: {}",
                names.join(", "),
                crate::selectors::scale_names(", ")
            ));
        }
    }
    if picked.is_empty() {
        picked = names;
    }
    Ok((picked, scale.unwrap_or_default(), trace))
}

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
    let report = fam.delta_run(
        point,
        &mr_sim::EngineConfig::parallel(4),
        Pipeline::Columnar,
        &spec,
    );
    Row {
        family,
        schema,
        report,
    }
}

/// The `repro delta` runner. `Err` is a selection it refuses (an unknown
/// family, a second scale) with the vocabulary; `repro` prints it on
/// stderr and exits non-zero.
pub fn run(args: &[String]) -> Result<String, String> {
    let (picked, scale, trace) = parse(args)?;
    let compute = || -> Vec<Row> { picked.iter().map(|f| churn_family(f, scale)).collect() };
    let (rows, trace_report) = if trace {
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
        let rep = &r.report;
        t.row(vec![
            r.family.to_string(),
            r.schema.clone(),
            rep.base_inputs.to_string(),
            format!("+{}/-{}", rep.added, rep.removed),
            format!("{}/{}", rep.dirty_reducers, rep.full_reducers),
            format!("{}/{}", rep.delta_pairs, rep.full_pairs),
            format!("{}/{}", rep.outputs_retracted, rep.outputs_added),
            if rep.matches_full_run { "yes" } else { "NO" }.to_string(),
            if rep.prediction_exact { "exact" } else { "OFF" }.to_string(),
            format!(
                "{}/{}",
                fmt(rep.wall_delta.as_secs_f64() * 1e3),
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
        let rep = &r.report;
        let mut obj = json::Obj::new();
        obj.str("family", r.family)
            .str("schema", &r.schema)
            .int("base_inputs", rep.base_inputs)
            .int("added", rep.added)
            .int("removed", rep.removed)
            .int("dirty_reducers", rep.dirty_reducers)
            .int("full_reducers", rep.full_reducers)
            .int("delta_pairs", rep.delta_pairs)
            .int("full_pairs", rep.full_pairs)
            .int("outputs_retracted", rep.outputs_retracted)
            .int("outputs_added", rep.outputs_added)
            .int("outputs_total", rep.outputs_total)
            .int("post_q", rep.census.post_q)
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

    fn args(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn default_report_churns_every_family() {
        let out = run(&args(&["small"])).unwrap();
        for family in crate::sweep::available_families() {
            assert!(out.contains(family), "{family} missing:\n{out}");
        }
        assert!(out.contains("\"subsystem\": \"delta\""));
        assert!(!out.contains(" NO "), "a family diverged:\n{out}");
        assert!(!out.contains(" OFF "), "a census mispredicted:\n{out}");
    }

    #[test]
    fn family_and_scale_selectors_filter_the_run() {
        let out = run(&args(&["small", "triangles"])).unwrap();
        assert!(out.contains("triangles"));
        assert!(!out.contains("matmul"));
        assert!(out.contains("\"scale\": \"small\""));
    }

    #[test]
    fn bad_tokens_are_reported_with_the_vocabulary() {
        let out = run(&args(&["bogus"])).unwrap_err();
        assert!(out.contains("unknown delta selector 'bogus'"));
        assert!(out.contains("hamming-d1"));
        let out2 = run(&args(&["small", "full"])).unwrap_err();
        assert!(out2.contains("at most one scale"));
    }

    #[test]
    fn semantic_json_is_byte_identical_across_runs() {
        let json = |_: ()| {
            let out = run(&args(&["small", "two-path"])).unwrap();
            out.split("JSON").nth(1).unwrap().to_string()
        };
        assert_eq!(json(()), json(()));
    }

    #[test]
    fn trace_flag_appends_a_trace_section_without_touching_the_json() {
        let with = run(&args(&["small", "two-path", "--trace"])).unwrap();
        let without = run(&args(&["small", "two-path"])).unwrap();
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
