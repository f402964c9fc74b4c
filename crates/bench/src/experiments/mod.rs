//! One module per paper artifact. See `EXPERIMENTS.md` for the index.

pub mod dag;
pub mod delta;
pub mod e12_cost_model;
pub mod e14_skew;
pub mod e35_weight_ddim;
pub mod e36_distance_d;
pub mod e42_sparse_triangles;
pub mod e52_sample_graphs;
pub mod e54_two_paths;
pub mod e55_joins;
pub mod e71_join_aggregate;
pub mod fig1_hamming;
pub mod fig2_weight;
pub mod plan;
pub mod t6_matmul;
pub mod table1;
pub mod table2;
pub mod trace;

use crate::selection::{families_only, Selection};

/// An experiment: stable id, one-line description (shown by
/// `repro list`), and how it checks and runs a [`Selection`].
pub struct Experiment {
    /// Stable id, as typed on the `repro` command line.
    pub id: &'static str,
    /// One-line description of what the experiment reproduces.
    pub description: &'static str,
    /// `Err` is a selection the experiment refuses (a family or
    /// workload it does not run, two workloads to trace), with its
    /// reason. `repro` checks every selected experiment before it runs
    /// any.
    pub check: fn(&Selection) -> Result<(), String>,
    /// Produces the report for a checked selection; `Err` is a run that
    /// failed (`trace` could not write its `--out` file).
    pub run: fn(&Selection) -> Result<String, String>,
}

/// All experiments in presentation order.
pub fn all() -> Vec<Experiment> {
    fn simple(
        id: &'static str,
        description: &'static str,
        run: fn(&Selection) -> Result<String, String>,
    ) -> Experiment {
        Experiment {
            id,
            description,
            check: |_| Ok(()),
            run,
        }
    }
    vec![
        simple(
            "table1",
            "Table 1 (§2.5): lower bounds on replication rate for every family",
            |_| Ok(table1::report()),
        ),
        simple(
            "table2",
            "Table 2: upper bounds — every constructive algorithm measured on the engine",
            |_| Ok(table2::report()),
        ),
        simple(
            "fig1",
            "Figure 1 (§3.2): Hamming-d1 tradeoff — splitting points on the b/log2(q) bound",
            |_| Ok(fig1_hamming::report()),
        ),
        simple(
            "fig2",
            "Figure 2 / §3.4: weight-partition algorithm at large q",
            |_| Ok(fig2_weight::report()),
        ),
        simple(
            "e35",
            "§3.5: d-dimensional weight partition, replication 1 + d/k",
            |_| Ok(e35_weight_ddim::report()),
        ),
        simple(
            "e36",
            "§3.6: larger Hamming distances — generalised splitting and Ball-2",
            |_| Ok(e36_distance_d::report()),
        ),
        simple(
            "e42",
            "§4.2: triangles on sparse graphs vs the rescaled sqrt(m/q) bound",
            |_| Ok(e42_sparse_triangles::report()),
        ),
        simple(
            "e52",
            "§5.1–5.3: Alon-class sample graphs vs the edge-form bound",
            |_| Ok(e52_sample_graphs::report()),
        ),
        simple(
            "e54",
            "§5.4: 2-paths — per-node and bucket-pair algorithms vs 2n/q",
            |_| Ok(e54_two_paths::report()),
        ),
        simple(
            "e55",
            "§5.5: multiway joins — rho by LP, chain and star joins under Shares",
            |_| Ok(e55_joins::report()),
        ),
        simple(
            "table6",
            "§6 (Table 6): matmul one-phase vs two-phase communication crossover",
            |_| Ok(t6_matmul::report()),
        ),
        simple(
            "e71",
            "§7.1 extension: join-then-aggregate plans, naive vs early aggregation",
            |_| Ok(e71_join_aggregate::report()),
        ),
        simple(
            "e12",
            "§1.2 / Ex. 1.1: measured r = f(q) frontiers minimising cluster cost",
            |_| Ok(e12_cost_model::report()),
        ),
        simple(
            "e14",
            "§1.4 caveat: reducer-load skew on power-law vs uniform graphs",
            |_| Ok(e14_skew::report()),
        ),
        Experiment {
            id: "frontier",
            description: "§2.4 vs §§3–6: empirical (q, r) sweep over the family registry; \
                 args select families/scale (e.g. `frontier hamming-d1 matmul`, `frontier small`)",
            check: |sel| families_only("frontier", sel),
            run: crate::sweep::report_for,
        },
        Experiment {
            id: "plan",
            description: "mr-plan: cost-based planner — cheapest algorithm per family for a \
                 cluster spec, predicted vs measured (q, r, cost); args select \
                 families/scale and `--q-budget N` (e.g. `plan matmul --q-budget 32`)",
            check: plan::check,
            run: plan::run,
        },
        Experiment {
            id: "dag",
            description: "mr-plan::dag: round-structure search — cheapest DAG of rounds per \
                 workload, per-round predicted vs measured (q, r) and total cost; args select \
                 workloads/scale and `--q-budget N` (e.g. `dag matmul --q-budget 8`)",
            check: dag::check,
            run: dag::run,
        },
        Experiment {
            id: "delta",
            description: "incremental execution: churn each resident family, dirty-reducer \
                 count and delta-shuffle volume vs the full run; args select \
                 families/scale (e.g. `delta triangles small`)",
            check: |sel| families_only("delta", sel),
            run: delta::run,
        },
        Experiment {
            id: "trace",
            description: "mr-obs: record one workload end to end — span summary, metrics \
                 snapshot, and Chrome trace_event JSON for Perfetto; args pick a \
                 family or dag workload, a scale, and `--out PATH` \
                 (e.g. `trace hamming-d1 --out trace.json`)",
            check: trace::check,
            run: trace::run,
        },
    ]
}

/// `repro <id> <tokens…>` narrowed to the one experiment `id`: the
/// selection the tokens parse to, checked and run by `id`, or the
/// message `repro` prints instead.
#[cfg(test)]
pub(crate) fn run_one(id: &str, tokens: &[&str]) -> Result<String, String> {
    let args: Vec<String> = std::iter::once(id)
        .chain(tokens.iter().copied())
        .map(String::from)
        .collect();
    let selection = Selection::parse(&args).map_err(|e| e.to_string())?;
    let experiment = all().into_iter().find(|e| e.id == id).expect("a known id");
    (experiment.check)(&selection)?;
    (experiment.run)(&selection)
}
