//! **`repro dag`** — the round-structure search end to end: for a
//! cluster spec, search each workload's multi-round DAG shapes
//! (`mr-plan::dag`), execute the winner with each round's predicted `q`
//! as that round's hard budget, and print the chosen DAG with per-round
//! predicted vs measured `(q, r)` and the total cost.
//!
//! Arguments: workload names (`matmul`, `hamming-d1`, `join-agg`) filter
//! the searched workloads, a scale token (`small`/`default`/`full`)
//! picks the instance preset, and `--q-budget N` bounds every round's
//! reducer load — the knob that demonstrates the §6.3 crossover being
//! *found* by the search rather than special-cased. `--trace` records
//! the run with [`mr_obs`] and appends a span summary after the
//! semantic JSON (which stays byte-identical either way).

use crate::json;
use crate::selectors::Q_BUDGET_FLAG;
use crate::table::{fmt, Table};
use mr_core::family::Scale;
use mr_plan::{CacheStats, ClusterSpec, DagPlanReport, DagWorkload, PlanCache, PlanError};
use mr_sim::EngineError;

/// Parses the experiment's tokens into a selection. Scale and budget
/// tokens work exactly as in `repro plan`; workload tokens name the
/// searchable workloads (a superset view: `join-agg` is the join
/// pipeline workload over the `join-cycle3` registry instance).
fn parse(args: &[String]) -> Result<(Vec<DagWorkload>, Scale, ClusterSpec, bool), String> {
    let names = DagWorkload::ALL.map(|w| w.name());
    let mut picked: Vec<&'static str> = Vec::new();
    let mut scale: Option<Scale> = None;
    let mut cluster = ClusterSpec::default();
    let mut trace = false;
    let mut it = args.iter();
    while let Some(tok) = it.next() {
        if tok == super::trace::TRACE_FLAG {
            trace = true;
        } else if tok == Q_BUDGET_FLAG {
            cluster.reducer_capacity = Some(crate::selectors::q_budget(it.next())?);
        } else if let Some(sc) = crate::selectors::scale_token(tok) {
            crate::selectors::set_scale(&mut scale, sc)?;
        } else if !crate::selectors::pick_family(&names, tok, &mut picked) {
            return Err(format!(
                "unknown dag selector '{tok}'; workloads: {}; scales: {}; \
                 budget: {Q_BUDGET_FLAG} N",
                names.join(", "),
                crate::selectors::scale_names(", ")
            ));
        }
    }
    if picked.is_empty() {
        picked = names.to_vec();
    }
    let by_name = |name: &str| DagWorkload::ALL.into_iter().find(|w| w.name() == name);
    let picked = picked.into_iter().filter_map(by_name).collect();
    Ok((picked, scale.unwrap_or_default(), cluster, trace))
}

/// One workload's outcome: a measured report, an honest refusal, or an
/// execution abort (a round that overflowed its own prediction — a
/// planner bug, reported rather than panicked).
enum Outcome {
    Planned(Box<DagPlanReport>),
    Refused(&'static str, PlanError),
    Aborted(&'static str, EngineError),
}

/// The `repro dag` runner. `Err` is a selection it refuses (an unknown
/// workload, a second scale, a malformed `--q-budget`) with the
/// vocabulary; `repro` prints it on stderr and exits non-zero.
pub fn run(args: &[String]) -> Result<String, String> {
    let (picked, scale, cluster, trace) = parse(args)?;
    // As in `repro plan`: a resident PlanCache fronts the round-structure
    // search. The first pass populates (all misses, used for execution);
    // the second pass proves a repeated request skips the search.
    let compute = || {
        let cache = PlanCache::new();
        let outcomes: Vec<Outcome> = picked
            .iter()
            .map(|w| match cache.plan_dag(*w, &cluster, scale) {
                Ok(plan) => match plan.execute() {
                    Ok(report) => Outcome::Planned(Box::new(report)),
                    Err(e) => Outcome::Aborted(w.name(), e),
                },
                Err(e) => Outcome::Refused(w.name(), e),
            })
            .collect();
        for w in &picked {
            let _ = cache.plan_dag(*w, &cluster, scale);
        }
        (outcomes, cache.stats())
    };
    let ((outcomes, cache_stats), trace_report) = if trace {
        let (result, tr) = mr_obs::record(compute);
        (result, Some(tr))
    } else {
        (compute(), None)
    };

    let mut out = format!(
        "Round-structure search (mr-plan::dag): the cheapest DAG of rounds per workload.\n\
         Cluster: {}.\n\
         Cost = Σ rounds (a·r + b·q + c·q²) + ℓ·depth; every candidate DAG is priced\n\
         per round (closed forms for matmul, a map-side census for the rest — only\n\
         reducers a later round reads from run), and the winner runs with each round's\n\
         predicted q as that round's hard budget — an undershot prediction aborts it.\n\n",
        cluster.describe()
    );

    let mut t = Table::new(&[
        "workload",
        "chosen DAG",
        "rounds",
        "depth",
        "cost(pred)",
        "cost(meas)",
        "outputs",
        "wall(ms)",
    ]);
    for o in &outcomes {
        if let Outcome::Planned(rep) = o {
            t.row(vec![
                rep.plan.workload.name().to_string(),
                rep.plan.schema.clone(),
                rep.plan.dag.rounds.len().to_string(),
                rep.plan.dag.depth().to_string(),
                fmt(rep.plan.predicted_cost),
                fmt(rep.measured_cost),
                rep.outputs.to_string(),
                format!("{:.3}", rep.wall.as_secs_f64() * 1e3),
            ]);
        }
    }
    out.push_str(&t.render());

    out.push_str("\nPer-round predicted vs measured (q, r):\n");
    for o in &outcomes {
        if let Outcome::Planned(rep) = o {
            let mut rt = Table::new(&[
                "workload", "round", "q(pred)", "q(meas)", "r(pred)", "r(meas)", "skew",
            ]);
            for obs in &rep.rounds {
                rt.row(vec![
                    rep.plan.workload.name().to_string(),
                    obs.name.clone(),
                    obs.predicted_q.to_string(),
                    obs.measured_q.to_string(),
                    fmt(obs.predicted_r),
                    fmt(obs.measured_r),
                    format!("{:.2}", obs.partition_skew),
                ]);
            }
            out.push_str(&rt.render());
            out.push('\n');
        }
    }

    out.push_str("Rationale:\n");
    for o in &outcomes {
        match o {
            Outcome::Planned(rep) => out.push_str(&format!(
                "  {}: {}\n",
                rep.plan.workload.name(),
                rep.plan.rationale
            )),
            Outcome::Refused(w, e) => out.push_str(&format!("  {w}: REFUSED — {e}\n")),
            Outcome::Aborted(w, e) => out.push_str(&format!("  {w}: ABORTED — {e}\n")),
        }
    }

    out.push_str(&format!(
        "\nPlan cache: {} hits, {} misses over two planning passes (a repeated\n\
         request is answered from the resident cache without re-running the\n\
         round-structure search; refusals are never cached).\n",
        cache_stats.hits, cache_stats.misses
    ));

    out.push_str(
        "\nJSON (semantic — deterministic across runs; wall-clock is execution metadata,\n\
         see the table):\n\n",
    );
    out.push_str(&semantic_json(&cluster, &outcomes, cache_stats));
    if let Some(tr) = &trace_report {
        out.push_str(&super::trace::trace_section(tr));
    }
    Ok(out)
}

/// The deterministic JSON serialisation of a dag run (no wall-clock).
fn semantic_json(cluster: &ClusterSpec, outcomes: &[Outcome], cache: CacheStats) -> String {
    let mut out = String::from("{\n  \"subsystem\": \"dag-planner\",\n");
    out.push_str(&format!(
        "  \"cluster\": \"{}\",\n  \"plans\": [\n",
        json::escape(&cluster.describe())
    ));
    for (i, o) in outcomes.iter().enumerate() {
        let mut obj = json::Obj::new();
        match o {
            Outcome::Planned(rep) => {
                let rounds = rep
                    .rounds
                    .iter()
                    .map(|r| {
                        let mut ro = json::Obj::new();
                        ro.str("name", &r.name)
                            .int("q_pred", r.predicted_q)
                            .int("q_meas", r.measured_q)
                            .num("r_pred", r.predicted_r)
                            .num("r_meas", r.measured_r);
                        ro.compact()
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                obj.str("workload", rep.plan.workload.name())
                    .str("schema", &rep.plan.schema)
                    .int("rounds", rep.plan.dag.rounds.len() as u64)
                    .int("depth", rep.plan.dag.depth() as u64)
                    .num("cost_pred", rep.plan.predicted_cost)
                    .num("cost_meas", rep.measured_cost)
                    .int("outputs", rep.outputs)
                    .raw("per_round", format!("[{rounds}]"))
                    .str("rationale", &rep.plan.rationale);
            }
            Outcome::Refused(w, e) => {
                obj.str("workload", w).str("error", &e.to_string());
            }
            Outcome::Aborted(w, e) => {
                obj.str("workload", w).str("error", &e.to_string());
            }
        }
        out.push_str("    ");
        out.push_str(&obj.compact());
        if i + 1 < outcomes.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"plan_cache\": {{\"hits\": {}, \"misses\": {}}}\n}}\n",
        cache.hits, cache.misses
    ));
    out
}

/// True when `token` selects a dag workload that is *not* also a shared
/// family selector (today only `join-agg`) — the repro driver uses this
/// to accept such tokens on the command line.
pub fn is_dag_workload(token: &str) -> bool {
    DagWorkload::ALL.iter().any(|w| w.name() == token)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn default_report_covers_every_workload() {
        let out = run(&args(&["small"])).unwrap();
        for w in DagWorkload::ALL {
            assert!(out.contains(w.name()), "{} missing:\n{out}", w.name());
        }
        assert!(out.contains("Rationale:"));
        assert!(out.contains("\"subsystem\": \"dag-planner\""));
        assert!(!out.contains("REFUSED"));
        assert!(!out.contains("ABORTED"));
    }

    #[test]
    fn q_budget_flips_matmul_to_a_multi_round_tree() {
        // Small scale: n = 4, n² = 16.
        let out = run(&args(&["small", "matmul", "--q-budget", "8"])).unwrap();
        assert!(out.contains("two-phase(n=4"), "{out}");
        assert!(out.contains("q-budget=8"));
        let out2 = run(&args(&["small", "matmul", "--q-budget", "16"])).unwrap();
        assert!(out2.contains("one-phase(n=4"), "{out2}");
    }

    #[test]
    fn per_round_observations_are_printed_for_every_round() {
        let out = run(&args(&["small", "join-agg"])).unwrap();
        // The pushed pipeline has a join round and an aggregate round at
        // minimum; both must appear in the per-round table.
        assert!(out.contains("q(pred)"), "{out}");
        assert!(out.contains("\"per_round\""), "{out}");
    }

    #[test]
    fn impossible_budget_is_refused_not_planned() {
        let out = run(&args(&["small", "matmul", "--q-budget", "1"])).unwrap();
        assert!(out.contains("REFUSED"), "{out}");
    }

    #[test]
    fn bad_tokens_are_reported_with_the_vocabulary() {
        let out = run(&args(&["bogus"])).unwrap_err();
        assert!(out.contains("unknown dag selector 'bogus'"));
        assert!(out.contains("join-agg"));
        let out2 = run(&args(&["--q-budget"])).unwrap_err();
        assert!(out2.contains("requires a value"));
        let out3 = run(&args(&["small", "full"])).unwrap_err();
        assert!(out3.contains("at most one scale"));
    }

    #[test]
    fn plan_cache_counters_land_in_the_semantic_json() {
        // Two planning passes over the full workload set: all three plan
        // cleanly on the default cluster, so first pass misses, second hits.
        let n = DagWorkload::ALL.len() as u64;
        let out = run(&args(&["small"])).unwrap();
        let expected = format!("\"plan_cache\": {{\"hits\": {n}, \"misses\": {n}}}");
        assert!(out.contains(&expected), "{out}");
    }

    #[test]
    fn semantic_json_is_byte_identical_across_runs() {
        let json = |_: ()| {
            let out = run(&args(&["small"])).unwrap();
            out.split("JSON").nth(1).unwrap().to_string()
        };
        assert_eq!(json(()), json(()));
    }

    #[test]
    fn trace_flag_appends_a_trace_section_without_touching_the_json() {
        let with = run(&args(&["small", "join-agg", "--trace"])).unwrap();
        let without = run(&args(&["small", "join-agg"])).unwrap();
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
        assert!(with.contains("dag.execute"), "{with}");
        // The per-round table carries the observed partition skew.
        assert!(with.contains("skew"), "{with}");
    }
}
