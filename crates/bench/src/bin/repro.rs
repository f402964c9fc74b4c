//! Regenerates every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p mr-bench --bin repro            # everything
//! cargo run --release -p mr-bench --bin repro -- fig1    # one artifact
//! cargo run --release -p mr-bench --bin repro -- frontier # empirical sweep
//! cargo run --release -p mr-bench --bin repro -- frontier hamming-d1 matmul
//! cargo run --release -p mr-bench --bin repro -- frontier triangles-gnm full
//! cargo run --release -p mr-bench --bin repro -- plan     # cost-based planner
//! cargo run --release -p mr-bench --bin repro -- plan matmul --q-budget 32
//! cargo run --release -p mr-bench --bin repro -- delta    # incremental execution
//! cargo run --release -p mr-bench --bin repro -- delta triangles small
//! cargo run --release -p mr-bench --bin repro -- dag      # round-structure search
//! cargo run --release -p mr-bench --bin repro -- dag matmul --q-budget 8
//! cargo run --release -p mr-bench --bin repro -- trace hamming-d1     # record a run
//! cargo run --release -p mr-bench --bin repro -- trace join-agg --out t.json
//! cargo run --release -p mr-bench --bin repro -- plan --trace  # traced planner run
//! cargo run --release -p mr-bench --bin repro -- list    # ids + descriptions
//! ```
//!
//! Tokens after `frontier`/`plan`-style selectors: any token naming an
//! experiment id selects that experiment; any token naming a family (or a
//! scale preset `small`/`default`/`full`) selects within the `frontier`
//! experiment — or within `plan`/`delta`/`dag`/`trace` when one of those
//! is chosen — and implies `frontier` otherwise. A DAG-workload token
//! like `join-agg` that no registry family answers to implies `dag`.
//! `--q-budget N` belongs to `plan` (or `dag` when that is chosen) and
//! implies `plan` otherwise. `--trace` asks `plan`/`dag`/`delta` to
//! record themselves with mr-obs (implying `plan` when none is chosen);
//! `--out PATH` belongs to `trace` and implies it. Unknown tokens abort
//! with the full vocabulary; a selection an experiment refuses
//! (`--q-budget abc`, two scales, `--out` without a path) is
//! `<id> selection error: …` on stderr with nothing for that experiment
//! on stdout. Either way the exit code is non-zero.

use mr_bench::experiments::{self, plan, Experiment};
use mr_bench::sweep;
use mr_core::family::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = experiments::all();

    if args.first().map(String::as_str) == Some("list") {
        println!("available experiments:");
        let width = all.iter().map(|e| e.id.len()).max().unwrap_or(0);
        for e in &all {
            println!("  {:width$}  {}", e.id, e.description);
        }
        return;
    }

    // Partition tokens: experiment ids, shared family/scale selectors,
    // plan-only flags. Unknown tokens are an error that prints the whole
    // vocabulary.
    let mut ids: Vec<&str> = Vec::new();
    let mut selectors: Vec<String> = Vec::new();
    let mut plan_extra: Vec<String> = Vec::new();
    let mut out_extra: Vec<String> = Vec::new();
    let mut trace_flag = false;
    let mut unknown: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if all.iter().any(|e| e.id == a.as_str()) {
            ids.push(a);
        } else if a == experiments::trace::TRACE_FLAG {
            trace_flag = true;
        } else if a == experiments::trace::OUT_FLAG {
            out_extra.push(a.clone());
            if let Some(value) = args.get(i + 1) {
                out_extra.push(value.clone());
                i += 1;
            }
        } else if plan::is_plan_flag(a) {
            plan_extra.push(a.clone());
            if let Some(value) = args.get(i + 1) {
                plan_extra.push(value.clone());
                i += 1;
            }
        } else if sweep::is_selector(a) || experiments::dag::is_dag_workload(a) {
            selectors.push(a.clone());
        } else {
            unknown.push(a);
        }
        i += 1;
    }
    // The trace experiment resolves its own workload vocabulary (unique
    // prefixes like `hamming` included), so when it is chosen the
    // leftover tokens are its to judge, not ours to reject.
    if ids.contains(&"trace") {
        selectors.extend(unknown.drain(..).map(str::to_string));
    }
    if !unknown.is_empty() {
        eprintln!("unknown experiment(s) {unknown:?}");
        eprintln!(
            "available experiments: {}",
            all.iter().map(|e| e.id).collect::<Vec<_>>().join(", ")
        );
        eprintln!(
            "frontier selectors: {} (scales: {})",
            sweep::available_families().join(", "),
            Scale::ALL.map(Scale::name).join(", ")
        );
        eprintln!(
            "plan flags: {} N; trace flags: {}, {} PATH",
            plan::Q_BUDGET_FLAG,
            experiments::trace::TRACE_FLAG,
            experiments::trace::OUT_FLAG
        );
        std::process::exit(1);
    }
    // A budget flag implies the plan experiment; a dag-only workload
    // token (`join-agg`) implies the dag experiment; `--out` implies the
    // trace experiment; `--trace` asks a chosen plan/dag/delta run to
    // record itself and implies plan when none is chosen; bare
    // family/scale selectors imply the frontier experiment unless
    // plan/dag/delta/trace claimed them.
    if selectors
        .iter()
        .any(|s| experiments::dag::is_dag_workload(s) && !sweep::is_selector(s))
        && !ids.contains(&"dag")
        && !ids.contains(&"trace")
    {
        ids.push("dag");
    }
    if !out_extra.is_empty() && !ids.contains(&"trace") {
        ids.push("trace");
    }
    if !plan_extra.is_empty() && !ids.contains(&"plan") && !ids.contains(&"dag") {
        ids.push("plan");
    }
    if trace_flag && !ids.contains(&"plan") && !ids.contains(&"dag") && !ids.contains(&"delta") {
        ids.push("plan");
    }
    if !selectors.is_empty()
        && !ids.contains(&"plan")
        && !ids.contains(&"frontier")
        && !ids.contains(&"delta")
        && !ids.contains(&"dag")
        && !ids.contains(&"trace")
    {
        ids.push("frontier");
    }

    let selected: Vec<&Experiment> = if ids.is_empty() {
        all.iter().collect()
    } else {
        all.iter().filter(|e| ids.contains(&e.id)).collect()
    };

    let with_trace = |mut tokens: Vec<String>| {
        if trace_flag {
            tokens.push(experiments::trace::TRACE_FLAG.to_string());
        }
        tokens
    };
    for e in selected {
        let extra: Vec<String> = match e.id {
            "frontier" => selectors.clone(),
            "delta" => with_trace(selectors.clone()),
            "plan" | "dag" => {
                with_trace(selectors.iter().chain(plan_extra.iter()).cloned().collect())
            }
            "trace" => selectors.iter().chain(out_extra.iter()).cloned().collect(),
            _ => Vec::new(),
        };
        let report = e.run(&extra).unwrap_or_else(|err| {
            eprintln!("{} selection error: {err}", e.id);
            std::process::exit(1);
        });
        println!("================================================================");
        println!("[{}]", e.id);
        println!("================================================================");
        println!("{report}");
    }
}
