//! **`repro trace`** — record one workload under the `mr-obs` span
//! recorder and export the trace: a per-span aggregate table, an
//! aggregated JSON snapshot (the [`crate::json`] dialect, so it parses
//! back through [`crate::json::parse`]), and the Chrome `trace_event`
//! JSON loadable in Perfetto or `chrome://tracing`.
//!
//! Arguments: one workload token — a registry family (`hamming-d1`,
//! `triangles`, …) or a DAG workload (`join-agg`, …); unique prefixes
//! work (`hamming` → `hamming-d1`), and families win name ties. A scale
//! token (`small`/`default`/`full`) picks the instance preset;
//! `--out PATH` writes the Chrome JSON to a file instead of stdout.
//!
//! Tracing is execution metadata by contract (determinism invariant #12):
//! the recorded run's outputs and semantic metrics are byte-identical to
//! an untraced run — `crates/sim/tests/obs_battery.rs` proves it.

use crate::json;
use crate::selection::Selection;
use crate::table::Table;
use mr_core::family::family_by_name;
use mr_plan::ClusterSpec;
use mr_sim::EngineConfig;

/// Refuses a second workload: one run is recorded.
pub fn check(sel: &Selection) -> Result<(), String> {
    match sel
        .families
        .iter()
        .copied()
        .chain(sel.dag_only_workloads())
        .nth(1)
    {
        Some(extra) => Err(format!(
            "at most one workload may be traced (extra: '{extra}')"
        )),
        None => Ok(()),
    }
}

/// The human-readable trace summary shared by this experiment and the
/// `--trace` flag on `repro plan`/`dag`/`delta`: well-formedness
/// verdict, lane/event counts, and the per-span aggregate table.
pub fn trace_section(trace: &mr_obs::Trace) -> String {
    let mut out = String::from(
        "\nTrace (execution metadata — timings vary run to run; the semantic output\n\
         above is byte-identical with tracing on or off):\n",
    );
    match trace.check_well_formed() {
        Ok(()) => {
            out.push_str("  span tree: well-formed (every span closed, nested or disjoint)\n")
        }
        Err(e) => out.push_str(&format!("  span tree: MALFORMED — {e}\n")),
    }
    out.push_str(&format!(
        "  lanes: {}, events: {}\n\n",
        trace.lanes.len(),
        trace.total_events()
    ));
    let mut t = Table::new(&["span", "count", "total(ms)", "max(ms)"]);
    for (name, agg) in trace.aggregate() {
        t.row(vec![
            name,
            agg.count.to_string(),
            format!("{:.3}", agg.total.as_secs_f64() * 1e3),
            format!("{:.3}", agg.max.as_secs_f64() * 1e3),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// The aggregated snapshot in the repro JSON dialect: span aggregates
/// plus the global metrics-hub counters, round-trippable through
/// [`json::parse`]. Timings make it execution metadata, not semantic
/// output.
fn snapshot_json(workload: &str, workers: usize, trace: &mr_obs::Trace) -> String {
    let mut out = String::from("{\n  \"subsystem\": \"trace\",\n");
    out.push_str(&format!(
        "  \"workload\": \"{}\",\n  \"workers\": {},\n  \"events\": {},\n  \"spans\": [\n",
        json::escape(workload),
        workers,
        trace.total_events()
    ));
    let aggregates = trace.aggregate();
    for (i, (name, agg)) in aggregates.iter().enumerate() {
        let mut obj = json::Obj::new();
        obj.str("name", name)
            .int("count", agg.count)
            .num("total_us", agg.total.as_secs_f64() * 1e6)
            .num("max_us", agg.max.as_secs_f64() * 1e6);
        out.push_str("    ");
        out.push_str(&obj.compact());
        if i + 1 < aggregates.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n  \"counters\": ");
    let mut counters = json::Obj::new();
    for (name, value) in mr_obs::global().counters() {
        counters.int(&name, value);
    }
    out.push_str(&counters.compact());
    out.push_str("\n}\n");
    out
}

/// The `repro trace` runner: the named family (`hamming-d1` when none
/// is named) or, failing one, the named DAG workload. `Err` is a failed
/// run or an `--out` file it cannot write; `repro` prints it on stderr
/// and exits non-zero.
pub fn run(sel: &Selection) -> Result<String, String> {
    let scale = sel.scale.unwrap_or_default();
    let workers = 4;
    let engine = EngineConfig::parallel(workers);
    // With no family named, every named workload is a DAG-only one.
    let (label, trace) = match sel.workloads.first().filter(|_| sel.families.is_empty()) {
        None => {
            let name = sel.families.first().copied().unwrap_or("hamming-d1");
            let fam = family_by_name(name, scale).expect("trace vocabulary matches the registry");
            // The most-partitioned grid point, like `repro delta`: the
            // point with the most per-partition work to make visible.
            let point = (0..fam.grid().len())
                .max_by_key(|&p| fam.census(p).reducers)
                .expect("grids are non-empty");
            let schema = fam.grid()[point].schema.clone();
            let (fp, trace) = mr_obs::record(|| fam.run(point, &engine));
            let fp = fp.map_err(|e| e.to_string())?;
            (
                format!(
                    "family {name} / {schema} — {} inputs, q={}, r={:.3}",
                    fam.num_inputs(),
                    fp.q,
                    fp.r
                ),
                trace,
            )
        }
        Some(&w) => {
            let cluster = ClusterSpec::default();
            let (outcome, trace) = mr_obs::record(|| {
                mr_plan::plan_dag(w, &cluster, scale)
                    .map_err(|e| e.to_string())
                    .and_then(|plan| plan.execute_with(&engine).map_err(|e| e.to_string()))
            });
            let report = outcome?;
            (
                format!(
                    "dag workload {} / {} — {} rounds, depth {}, {} outputs",
                    w.name(),
                    report.plan.schema,
                    report.plan.dag.rounds.len(),
                    report.plan.dag.depth(),
                    report.outputs
                ),
                trace,
            )
        }
    };

    let workload = label.split(" — ").next().unwrap_or(&label).to_string();
    let mut out = format!(
        "Structured trace (mr-obs): one recorded run, exported three ways.\n\
         Recorded: {label}; engine: {workers} workers on the resident pool.\n\
         Everything below is execution metadata — the run's outputs and semantic\n\
         metrics are byte-identical with the recorder on or off (invariant #12).\n",
    );
    out.push_str(&trace_section(&trace));

    out.push_str("\nAggregated JSON snapshot (parses back through mr_bench::json::parse):\n\n");
    out.push_str(&snapshot_json(&workload, workers, &trace));

    let chrome = trace.chrome_json();
    match &sel.out {
        Some(path) => {
            std::fs::write(path, &chrome).map_err(|e| format!("cannot write {path}: {e}"))?;
            out.push_str(&format!(
                "\nChrome trace_event JSON written to {path} ({} bytes).\n\
                 Open it at https://ui.perfetto.dev (Open trace file) or chrome://tracing.\n",
                chrome.len()
            ));
        }
        None => {
            out.push_str(
                "\nChrome trace_event JSON (save to a file, or re-run with --out PATH;\n\
                 open in https://ui.perfetto.dev or chrome://tracing):\n\n",
            );
            out.push_str(&chrome);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::OUT_FLAG;

    fn run(tokens: &[&str]) -> Result<String, String> {
        crate::experiments::run_one("trace", tokens)
    }

    #[test]
    fn hamming_prefix_traces_the_whole_execution_stack() {
        let out = run(&["hamming", "small"]).unwrap();
        assert!(out.contains("family hamming-d1"), "{out}");
        assert!(out.contains("span tree: well-formed"), "{out}");
        for span in ["engine.map", "engine.shuffle", "engine.reduce"] {
            assert!(out.contains(span), "{span} missing:\n{out}");
        }
        assert!(out.contains("\"traceEvents\""), "{out}");
    }

    #[test]
    fn dag_workloads_are_traceable_too() {
        let out = run(&["join-agg", "small"]).unwrap();
        assert!(out.contains("dag workload join-agg"), "{out}");
        assert!(out.contains("dag.execute"), "{out}");
        assert!(out.contains("dag.run"), "{out}");
    }

    #[test]
    fn snapshot_json_parses_back() {
        let out = run(&["triangles", "small"]).unwrap();
        let start = out.find("{\n  \"subsystem\": \"trace\"").expect("snapshot");
        let snapshot = &out[start..out[start..].find("\n}\n").unwrap() + start + 3];
        let value = json::parse(snapshot).expect("snapshot is valid JSON");
        assert_eq!(
            value.get("subsystem").and_then(|v| v.as_str()),
            Some("trace")
        );
        assert!(value.get("spans").is_some());
        assert!(value.get("counters").is_some());
    }

    #[test]
    fn chrome_json_lands_in_the_out_file() {
        let path = std::env::temp_dir().join("mr-obs-trace-test.json");
        let path_str = path.to_string_lossy().to_string();
        let out = run(&["two-path", "small", OUT_FLAG, &path_str]).unwrap();
        assert!(out.contains("written to"), "{out}");
        let written = std::fs::read_to_string(&path).expect("file written");
        assert!(written.contains("\"traceEvents\""));
        assert!(json::parse(&written).is_ok(), "chrome JSON must parse");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_tokens_are_reported_with_the_vocabulary() {
        let out = run(&["bogus"]).unwrap_err();
        assert!(out.contains("unknown trace workload 'bogus'"), "{out}");
        assert!(out.contains("hamming-d1"), "{out}");
        let out2 = run(&[OUT_FLAG]).unwrap_err();
        assert!(out2.contains("requires a path"), "{out2}");
        let out3 = run(&["hamming-d1", "triangles"]).unwrap_err();
        assert!(out3.contains("at most one workload"), "{out3}");
    }
}
