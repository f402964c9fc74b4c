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

/// How an experiment's report is produced.
pub enum Runner {
    /// A fixed report: most experiments take no parameters.
    Simple(fn() -> String),
    /// A parameterised report: the runner receives the experiment's
    /// extra command-line tokens (family/scale selectors and flags) and
    /// returns `Err` with the vocabulary when it cannot accept them.
    WithArgs(fn(&[String]) -> Result<String, String>),
}

/// An experiment: stable id, one-line description (shown by
/// `repro list`), and its report runner.
pub struct Experiment {
    /// Stable id, as typed on the `repro` command line.
    pub id: &'static str,
    /// One-line description of what the experiment reproduces.
    pub description: &'static str,
    /// The report producer.
    pub runner: Runner,
}

impl Experiment {
    /// Produces the report; `args` are the experiment's extra tokens
    /// (ignored by [`Runner::Simple`] experiments). `Err` is a selection
    /// the experiment refuses, with its reason.
    pub fn run(&self, args: &[String]) -> Result<String, String> {
        match self.runner {
            Runner::Simple(f) => Ok(f()),
            Runner::WithArgs(f) => f(args),
        }
    }
}

/// All experiments in presentation order.
pub fn all() -> Vec<Experiment> {
    fn simple(id: &'static str, description: &'static str, f: fn() -> String) -> Experiment {
        Experiment {
            id,
            description,
            runner: Runner::Simple(f),
        }
    }
    vec![
        simple(
            "table1",
            "Table 1 (§2.5): lower bounds on replication rate for every family",
            table1::report,
        ),
        simple(
            "table2",
            "Table 2: upper bounds — every constructive algorithm measured on the engine",
            table2::report,
        ),
        simple(
            "fig1",
            "Figure 1 (§3.2): Hamming-d1 tradeoff — splitting points on the b/log2(q) bound",
            fig1_hamming::report,
        ),
        simple(
            "fig2",
            "Figure 2 / §3.4: weight-partition algorithm at large q",
            fig2_weight::report,
        ),
        simple(
            "e35",
            "§3.5: d-dimensional weight partition, replication 1 + d/k",
            e35_weight_ddim::report,
        ),
        simple(
            "e36",
            "§3.6: larger Hamming distances — generalised splitting and Ball-2",
            e36_distance_d::report,
        ),
        simple(
            "e42",
            "§4.2: triangles on sparse graphs vs the rescaled sqrt(m/q) bound",
            e42_sparse_triangles::report,
        ),
        simple(
            "e52",
            "§5.1–5.3: Alon-class sample graphs vs the edge-form bound",
            e52_sample_graphs::report,
        ),
        simple(
            "e54",
            "§5.4: 2-paths — per-node and bucket-pair algorithms vs 2n/q",
            e54_two_paths::report,
        ),
        simple(
            "e55",
            "§5.5: multiway joins — rho by LP, chain and star joins under Shares",
            e55_joins::report,
        ),
        simple(
            "table6",
            "§6 (Table 6): matmul one-phase vs two-phase communication crossover",
            t6_matmul::report,
        ),
        simple(
            "e71",
            "§7.1 extension: join-then-aggregate plans, naive vs early aggregation",
            e71_join_aggregate::report,
        ),
        simple(
            "e12",
            "§1.2 / Ex. 1.1: measured r = f(q) frontiers minimising cluster cost",
            e12_cost_model::report,
        ),
        simple(
            "e14",
            "§1.4 caveat: reducer-load skew on power-law vs uniform graphs",
            e14_skew::report,
        ),
        Experiment {
            id: "frontier",
            description: "§2.4 vs §§3–6: empirical (q, r) sweep over the family registry; \
                 args select families/scale (e.g. `frontier hamming-d1 matmul`, `frontier small`)",
            runner: Runner::WithArgs(crate::sweep::report_for),
        },
        Experiment {
            id: "plan",
            description: "mr-plan: cost-based planner — cheapest algorithm per family for a \
                 cluster spec, predicted vs measured (q, r, cost); args select \
                 families/scale and `--q-budget N` (e.g. `plan matmul --q-budget 32`)",
            runner: Runner::WithArgs(crate::experiments::plan::run),
        },
        Experiment {
            id: "dag",
            description: "mr-plan::dag: round-structure search — cheapest DAG of rounds per \
                 workload, per-round predicted vs measured (q, r) and total cost; args select \
                 workloads/scale and `--q-budget N` (e.g. `dag matmul --q-budget 8`)",
            runner: Runner::WithArgs(crate::experiments::dag::run),
        },
        Experiment {
            id: "delta",
            description: "incremental execution: churn each resident family, dirty-reducer \
                 count and delta-shuffle volume vs the full run; args select \
                 families/scale (e.g. `delta triangles small`)",
            runner: Runner::WithArgs(crate::experiments::delta::run),
        },
        Experiment {
            id: "trace",
            description: "mr-obs: record one workload end to end — span summary, metrics \
                 snapshot, and Chrome trace_event JSON for Perfetto; args pick a \
                 family or dag workload, a scale, and `--out PATH` \
                 (e.g. `trace hamming-d1 --out trace.json`)",
            runner: Runner::WithArgs(crate::experiments::trace::run),
        },
    ]
}
