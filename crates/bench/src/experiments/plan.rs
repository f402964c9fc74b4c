//! **`repro plan`** — the cost-based planner end to end: for a cluster
//! spec, pick the cheapest algorithm per family (`mr-plan`), execute the
//! pick on the engine, and print predicted vs measured `(q, r, cost)`
//! with the planner's rationale.
//!
//! Arguments: family names filter the plannable families, a scale token
//! (`small`/`default`/`full`) picks the instance preset, and
//! `--q-budget N` sets the cluster's per-reducer memory budget — the
//! knob that flips the §6 matmul planner from one-phase to two-phase as
//! soon as `N < n²`.

use crate::json;
use crate::table::{fmt, Table};
use mr_core::family::Scale;
use mr_plan::{plannable_families, CacheStats, ClusterSpec, PlanCache, PlanError, PlanReport};
use mr_sim::EngineError;

pub use crate::selectors::Q_BUDGET_FLAG;

/// Parses the experiment's tokens into a selection. Family/scale tokens
/// go through the shared [`crate::selectors`] helpers (the same ones the
/// frontier experiment uses), the budget flag through the one shared
/// with `repro dag`.
fn parse(args: &[String]) -> Result<(Vec<&'static str>, Scale, ClusterSpec, bool), String> {
    let names = plannable_families();
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
                "unknown plan selector '{tok}'; families: {}; scales: small, default, full; \
                 budget: {Q_BUDGET_FLAG} N",
                names.join(", ")
            ));
        }
    }
    if picked.is_empty() {
        picked = names;
    }
    Ok((picked, scale.unwrap_or_default(), cluster, trace))
}

/// One family's outcome: a measured report, an honest refusal, or an
/// execution abort (a plan that overflowed its own predicted budget —
/// a planner bug, reported rather than panicked).
enum Outcome {
    Planned(Box<PlanReport>),
    Refused(&'static str, PlanError),
    Aborted(&'static str, EngineError),
}

/// The `repro plan` runner. `Err` is a selection it refuses (an unknown
/// or unplannable family, a second scale, a malformed `--q-budget`) with
/// the vocabulary; `repro` prints it on stderr and exits non-zero.
pub fn run(args: &[String]) -> Result<String, String> {
    let (picked, scale, cluster, trace) = parse(args)?;
    // All planning goes through a resident PlanCache, the way the future
    // mr-serve daemon would hold one: the first pass over the families
    // populates it (all misses), and a second pass demonstrates that a
    // repeated request skips the census/LP entirely (all hits, except for
    // refused plans, which are deliberately never cached).
    let compute = || {
        let cache = PlanCache::new();
        let outcomes: Vec<Outcome> = picked
            .iter()
            .map(|family| match cache.plan_family(family, &cluster, scale) {
                Ok(plan) => match plan.execute() {
                    Ok(report) => Outcome::Planned(Box::new(report)),
                    Err(e) => Outcome::Aborted(family, e),
                },
                Err(e) => Outcome::Refused(family, e),
            })
            .collect();
        for family in &picked {
            let _ = cache.plan_family(family, &cluster, scale);
        }
        let stats = cache.stats();
        (outcomes, stats)
    };
    // Recording never perturbs semantics (invariant #12), so the traced
    // report's semantic JSON stays byte-identical to the untraced one.
    let ((outcomes, cache_stats), trace_report) = if trace {
        let (result, tr) = mr_obs::record(compute);
        (result, Some(tr))
    } else {
        (compute(), None)
    };

    let mut out = format!(
        "Cost-based planner (mr-plan): the cheapest algorithm per family for a cluster.\n\
         Cluster: {}.\n\
         Predictions are exact (map-side census / closed forms / Shares-exponent LP);\n\
         every plan executes under its own predicted q as a hard reducer budget, so\n\
         pred ≠ meas would abort the round rather than print a happy number.\n\n",
        cluster.describe()
    );

    let mut t = Table::new(&[
        "family",
        "chosen schema",
        "q(pred)",
        "q(meas)",
        "r(pred)",
        "r(meas)",
        "cost(pred)",
        "cost(meas)",
        "outputs",
        "skew",
        "wall(ms)",
    ]);
    for o in &outcomes {
        if let Outcome::Planned(rep) = o {
            t.row(vec![
                rep.plan.family.to_string(),
                rep.plan.schema.clone(),
                rep.plan.predicted_q.to_string(),
                rep.measured_q.to_string(),
                fmt(rep.plan.predicted_r),
                fmt(rep.measured_r),
                fmt(rep.plan.predicted_cost),
                fmt(rep.measured_cost),
                rep.outputs.to_string(),
                format!("{:.2}", rep.partition_skew),
                format!("{:.3}", rep.wall.as_secs_f64() * 1e3),
            ]);
        }
    }
    out.push_str(&t.render());

    out.push_str("\nRationale:\n");
    for o in &outcomes {
        match o {
            Outcome::Planned(rep) => {
                out.push_str(&format!("  {}: {}\n", rep.plan.family, rep.plan.rationale))
            }
            Outcome::Refused(family, e) => out.push_str(&format!("  {family}: REFUSED — {e}\n")),
            Outcome::Aborted(family, e) => out.push_str(&format!("  {family}: ABORTED — {e}\n")),
        }
    }

    out.push_str(&format!(
        "\nPlan cache: {} hits, {} misses over two planning passes (a repeated\n\
         request is answered from the resident cache without re-running the\n\
         census or the LP; refusals are never cached).\n",
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

/// The deterministic JSON serialisation of a plan run (no wall-clock).
fn semantic_json(cluster: &ClusterSpec, outcomes: &[Outcome], cache: CacheStats) -> String {
    let mut out = String::from("{\n  \"subsystem\": \"planner\",\n");
    out.push_str(&format!(
        "  \"cluster\": \"{}\",\n  \"plans\": [\n",
        json::escape(&cluster.describe())
    ));
    for (i, o) in outcomes.iter().enumerate() {
        let mut obj = json::Obj::new();
        match o {
            Outcome::Planned(rep) => {
                obj.str("family", rep.plan.family)
                    .str("schema", &rep.plan.schema)
                    .int("q_pred", rep.plan.predicted_q)
                    .int("q_meas", rep.measured_q)
                    .num("r_pred", rep.plan.predicted_r)
                    .num("r_meas", rep.measured_r)
                    .num("cost_pred", rep.plan.predicted_cost)
                    .num("cost_meas", rep.measured_cost)
                    .int("outputs", rep.outputs)
                    .str("rationale", &rep.plan.rationale);
            }
            Outcome::Refused(family, e) => {
                obj.str("family", family).str("error", &e.to_string());
            }
            Outcome::Aborted(family, e) => {
                obj.str("family", family).str("error", &e.to_string());
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

/// True when `token` is something `repro plan` can consume *besides* the
/// shared family/scale selectors: today only the budget flag (its numeric
/// value is validated by [`run`]).
pub fn is_plan_flag(token: &str) -> bool {
    token == Q_BUDGET_FLAG
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn default_report_plans_every_family() {
        let out = run(&args(&["small"])).unwrap();
        for family in plannable_families() {
            assert!(out.contains(family), "{family} missing:\n{out}");
        }
        assert!(out.contains("Rationale:"));
        assert!(out.contains("\"subsystem\": \"planner\""));
        assert!(!out.contains("REFUSED"));
    }

    #[test]
    fn q_budget_flips_matmul_to_two_phase() {
        // Small scale: n = 4, n² = 16.
        let out = run(&args(&["small", "matmul", "--q-budget", "8"])).unwrap();
        assert!(out.contains("two-phase(n=4"), "{out}");
        assert!(out.contains("q-budget=8"));
        let out2 = run(&args(&["small", "matmul", "--q-budget", "16"])).unwrap();
        assert!(out2.contains("one-phase(n=4"), "{out2}");
    }

    #[test]
    fn impossible_budget_is_refused_not_planned() {
        let out = run(&args(&["small", "triangles", "--q-budget", "1"])).unwrap();
        assert!(out.contains("REFUSED"), "{out}");
        assert!(out.contains("no schema fits"));
    }

    #[test]
    fn bad_tokens_are_reported_with_the_vocabulary() {
        let out = run(&args(&["bogus"])).unwrap_err();
        assert!(out.contains("unknown plan selector 'bogus'"));
        assert!(out.contains("hamming-d1"));
        let out2 = run(&args(&["--q-budget"])).unwrap_err();
        assert!(out2.contains("requires a value"));
        let out3 = run(&args(&["--q-budget", "zero"])).unwrap_err();
        assert!(out3.contains("is not a number"));
        let out4 = run(&args(&["small", "full"])).unwrap_err();
        assert!(out4.contains("at most one scale"));
    }

    #[test]
    fn semantic_json_is_byte_identical_across_runs() {
        let json = |_: ()| {
            let out = run(&args(&["small"])).unwrap();
            out.split("JSON").nth(1).unwrap().to_string()
        };
        // Everything after the JSON marker excludes wall-clock, so two
        // runs must agree byte for byte.
        assert_eq!(json(()), json(()));
    }

    #[test]
    fn plan_cache_counters_land_in_the_semantic_json() {
        // Two planning passes over n families: the first all misses, the
        // second all hits (every family plans cleanly on the default
        // cluster, so nothing is excluded from the cache).
        let n = plannable_families().len() as u64;
        let out = run(&args(&["small"])).unwrap();
        let expected = format!("\"plan_cache\": {{\"hits\": {n}, \"misses\": {n}}}");
        assert!(out.contains(&expected), "{out}");
    }

    #[test]
    fn refused_plans_keep_missing_the_cache() {
        // triangles with q-budget 1 is refused, and refusals are never
        // cached: both passes miss.
        let out = run(&args(&["small", "triangles", "--q-budget", "1"])).unwrap();
        assert!(
            out.contains("\"plan_cache\": {\"hits\": 0, \"misses\": 2}"),
            "{out}"
        );
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
        // The semantic JSON is byte-identical with tracing on or off.
        assert_eq!(json_of(&with), json_of(&without));
        assert!(with.contains("span tree: well-formed"), "{with}");
        assert!(with.contains("plan.execute"), "{with}");
        assert!(!without.contains("span tree"), "{without}");
    }

    #[test]
    fn partition_skew_lands_in_the_table() {
        let out = run(&args(&["small"])).unwrap();
        assert!(out.contains("skew"), "{out}");
    }

    #[test]
    fn sparse_families_are_not_plannable() {
        let out = run(&args(&["triangles-gnm"])).unwrap_err();
        assert!(
            out.contains("unknown plan selector 'triangles-gnm'"),
            "{out}"
        );
    }
}
