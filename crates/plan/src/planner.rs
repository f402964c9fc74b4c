//! Per-family planners: closed forms where the paper gives them, the
//! share-exponent LP for joins, and exact census pricing everywhere.
//!
//! A plan is made in two steps. [`Planner::price`] is cluster-independent:
//! it builds the family's instance, census-prices every grid point (and,
//! for matmul, collects the multi-round trees) into a [`PricedFamily`].
//! [`PricedFamily::choose`] reads that table against one [`ClusterSpec`].
//! [`PlanCache`](crate::PlanCache) keeps the table per `(family, scale)`,
//! so any number of cluster profiles pay for one pricing.

use crate::cluster::{ClusterSpec, COSTS_ARE_NUMBERS};
use crate::dag::{enumerate_dag_candidates, DagCandidate, DagStructure, DagWorkload};
use crate::plan::{Choice, Plan};
use mr_core::family::{family_by_name, AssignCensus, DynFamily, Scale};
use mr_lp::cover::share_exponents;
use mr_lp::{Hypergraph, LpError};

/// Why a plan could not be made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The family name matches no planner.
    UnknownFamily {
        /// The name that failed to resolve.
        family: String,
        /// The plannable vocabulary.
        known: Vec<&'static str>,
    },
    /// No schema in the family fits the cluster's reducer budget.
    NoFeasiblePoint {
        /// The family whose whole grid overflowed.
        family: &'static str,
        /// The budget that excluded everything.
        budget: u64,
    },
    /// The Shares exponent LP failed (degenerate query shape).
    Lp(LpError),
    /// A cost weight of the [`ClusterSpec`] is NaN, infinite or negative,
    /// so no candidate can be priced under it.
    InvalidCluster {
        /// The offending `ClusterSpec` field.
        weight: &'static str,
        /// Its value, rendered (`f64` is not `Eq`).
        value: String,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UnknownFamily { family, known } => write!(
                f,
                "no planner for family '{family}'; plannable families: {}",
                known.join(", ")
            ),
            PlanError::NoFeasiblePoint { family, budget } => write!(
                f,
                "{family}: no schema fits the reducer budget q ≤ {budget}"
            ),
            PlanError::Lp(e) => write!(f, "share-exponent LP failed: {e}"),
            PlanError::InvalidCluster { weight, value } => write!(
                f,
                "cluster {weight} = {value}: cost weights must be finite and non-negative"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<LpError> for PlanError {
    fn from(e: LpError) -> Self {
        PlanError::Lp(e)
    }
}

/// A cost-based planner for one problem family.
///
/// Planning must be **pure**: same cluster and scale, same plan. The
/// returned [`Plan`] carries exact predictions (census- or closed-form
/// priced), so [`Plan::execute`] runs under `predicted_q` as a hard
/// budget and cannot overflow unless the planner itself is wrong.
pub trait Planner: Send + Sync {
    /// The registry family this planner covers.
    fn family(&self) -> &'static str;

    /// The cluster-independent step: every candidate of the family at
    /// `scale` with its exact census. For families with multi-round
    /// structures (matmul), candidates from the round-structure search
    /// in [`crate::dag`] are priced alongside the grid, so the §6 phase
    /// crossover is *found* by [`PricedFamily::choose`], not
    /// special-cased.
    fn price(&self, scale: Scale) -> Result<PricedFamily, PlanError>;

    /// Produces the cheapest plan for `cluster` at `scale` — cheapest
    /// among the family's candidates under the cluster's cost weights:
    /// [`price`](Planner::price), then [`PricedFamily::choose`].
    fn plan(&self, cluster: &ClusterSpec, scale: Scale) -> Result<Plan, PlanError> {
        cluster.check()?;
        self.price(scale)?.choose(cluster)
    }
}

/// Compact deterministic number formatting for rationale strings.
fn fmt(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x}")
    } else {
        format!("{x:.4}")
    }
}

/// Builds a registry family by name at the given scale.
fn registry_family(name: &'static str, scale: Scale) -> Box<dyn DynFamily> {
    family_by_name(name, scale).unwrap_or_else(|| panic!("family {name} not in the registry"))
}

/// Reads one of the family's declared instance parameters.
fn param(fam: &dyn DynFamily, key: &str) -> u64 {
    fam.params()
        .iter()
        .find(|(k, _)| *k == key)
        .unwrap_or_else(|| panic!("{}: missing parameter {key}", fam.name()))
        .1
}

/// A family's candidates at one scale with their exact censuses — what
/// [`Planner::price`] produces and [`choose`](PricedFamily::choose) reads.
/// Nothing in it depends on a cluster.
#[derive(Debug, Clone)]
pub struct PricedFamily {
    family: &'static str,
    scale: Scale,
    /// The family's closed-form story, leading a grid plan's rationale.
    closed_form: String,
    /// Every registry grid point, in grid order: schema name and census.
    grid: Vec<(String, AssignCensus)>,
    /// Multi-round candidates competing with the grid (matmul's
    /// aggregation trees; empty for every other family).
    trees: Vec<DagCandidate>,
}

/// The shared price step: build the family's instance — just the one,
/// via [`family_by_name`], instance construction being the expensive part
/// of the registry — and census every grid point.
fn price_grid(
    family: &'static str,
    scale: Scale,
    closed_form: impl FnOnce(&dyn DynFamily) -> Result<String, PlanError>,
) -> Result<PricedFamily, PlanError> {
    let _span = mr_obs::span("plan.family.price");
    let fam = registry_family(family, scale);
    let closed_form = closed_form(&*fam)?;
    let grid = fam
        .grid()
        .iter()
        .enumerate()
        .map(|(point, gp)| (gp.schema.clone(), fam.census(point)))
        .collect();
    Ok(PricedFamily {
        family,
        scale,
        closed_form,
        grid,
        trees: Vec::new(),
    })
}

impl PricedFamily {
    /// The choose step: the cheapest candidate `cluster` admits. Callers
    /// have run [`ClusterSpec::check`] (as [`Planner::plan`] does), so
    /// every cost compared here is a number.
    ///
    /// The grid and the trees are priced under the *same* per-round model
    /// `Σ rounds (a·r + b·q + c·q²) + ℓ·depth` (see [`crate::dag`]). A cost
    /// **tie breaks toward the multi-round structure** — equal money, but
    /// its per-round reducers are smaller, which is the resource the
    /// budget actually constrains.
    pub fn choose(&self, cluster: &ClusterSpec) -> Result<Plan, PlanError> {
        let _span = mr_obs::span("plan.family.choose");
        // First wins ties — candidate order is fixed.
        let tree = self
            .trees
            .iter()
            .filter(|c| c.dag.admitted_by(cluster))
            .map(|c| (c, c.dag.cost(cluster)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect(COSTS_ARE_NUMBERS));
        match (tree, self.cheapest_grid_plan(cluster)) {
            (Some((tree, cost)), Ok(grid)) if cost <= grid.predicted_cost => {
                Ok(tree_plan(tree, cost, cluster, Some(grid.predicted_cost)))
            }
            (Some((tree, cost)), Err(_)) => Ok(tree_plan(tree, cost, cluster, None)),
            (_, grid) => grid,
        }
    }

    /// The grid path: keep the admissible points, pick the cheapest
    /// (first wins ties — grid order is fixed), and package the plan with
    /// the family's closed-form story in front.
    fn cheapest_grid_plan(&self, cluster: &ClusterSpec) -> Result<Plan, PlanError> {
        let mut best: Option<(usize, f64)> = None;
        let mut feasible = 0usize;
        for (point, (_, census)) in self.grid.iter().enumerate() {
            if !cluster.admits(census.q) {
                continue;
            }
            feasible += 1;
            // A grid point is one round, so it pays the per-round latency
            // charge exactly once (a no-op at the default ℓ = 0) — the same
            // model multi-round DAG candidates are priced under.
            let cost = cluster.cost(census.q as f64, census.r) + cluster.round_latency;
            if best.is_none_or(|(_, b)| cost < b) {
                best = Some((point, cost));
            }
        }
        let (point, cost) = best.ok_or(PlanError::NoFeasiblePoint {
            family: self.family,
            budget: cluster.reducer_capacity.unwrap_or(0),
        })?;
        let (schema, census) = &self.grid[point];
        let rationale = format!(
            "{}. Census-priced {} grid points ({} within budget); cheapest: {} \
             with exact (q={}, r={}) → cost {}.",
            self.closed_form,
            self.grid.len(),
            feasible,
            schema,
            census.q,
            fmt(census.r),
            fmt(cost),
        );
        Ok(Plan {
            family: self.family,
            schema: schema.clone(),
            choice: Choice::Registry {
                scale: self.scale,
                point,
            },
            cluster: cluster.clone(),
            predicted_q: census.q,
            predicted_r: census.r,
            predicted_pairs: census.pairs,
            predicted_cost: cost,
            rationale,
        })
    }
}

/// Packages a winning matmul tree candidate as a [`Plan`].
fn tree_plan(
    tree: &DagCandidate,
    cost: f64,
    cluster: &ClusterSpec,
    grid_cost: Option<f64>,
) -> Plan {
    let DagStructure::MatMulTree { n, s, t, fanin } = tree.structure else {
        unreachable!("only matmul prices tree candidates");
    };
    let against = match grid_cost {
        Some(g) => format!("beats the cheapest one-phase grid point ({})", fmt(g)),
        None => "no one-phase grid point fits the budget".to_string(),
    };
    Plan {
        family: "matmul",
        schema: tree.structure.name(),
        choice: Choice::MatMulTree { n, s, t, fanin },
        cluster: cluster.clone(),
        predicted_q: tree.dag.max_q(),
        predicted_r: tree.dag.replication(),
        predicted_pairs: tree.dag.total_pairs(),
        predicted_cost: cost,
        rationale: format!(
            "§6 crossover found by round-structure search: {} at per-round cost {} \
             {}. Rounds [{}]; total communication {}, max reducer load {}.",
            tree.structure.name(),
            fmt(cost),
            against,
            tree.dag.describe(),
            tree.dag.total_pairs(),
            tree.dag.max_q(),
        ),
    }
}

// ---------------------------------------------------------------------
// Per-family planners.
// ---------------------------------------------------------------------

/// The planner of a family whose whole candidate set is its registry
/// grid: census-price every point, with the paper's closed form for the
/// family — evaluated at the instance's parameters — leading the
/// rationale.
pub struct GridPlanner {
    family: &'static str,
    closed_form: fn(&dyn DynFamily) -> String,
}

impl Planner for GridPlanner {
    fn family(&self) -> &'static str {
        self.family
    }

    fn price(&self, scale: Scale) -> Result<PricedFamily, PlanError> {
        price_grid(self.family, scale, |fam| Ok((self.closed_form)(fam)))
    }
}

/// Hamming distance 1 (§3): the Theorem 3.2 hyperbola at divisor points.
const HAMMING: GridPlanner = GridPlanner {
    family: "hamming-d1",
    closed_form: |fam| {
        format!(
            "Thm 3.2: every algorithm obeys r ≥ b/log₂q (b={}); splitting sits exactly \
             on that hyperbola at the divisor points q=2^(b/k), r=k",
            param(fam, "b")
        )
    },
};

/// Triangles (§4): node partition against the `n/√(2q)` bound.
const TRIANGLES: GridPlanner = GridPlanner {
    family: "triangles",
    closed_form: |fam| {
        format!(
            "§4.1: r ≥ n/√(2q) (n={}); node partition into k groups achieves r ≈ k at \
             q ≈ 3(n/k choose 2) — within the constant factor 3 of the bound",
            param(fam, "n")
        )
    },
};

/// Sample graphs (§5.1–5.3): the 4-cycle pattern under multiset partition.
const SAMPLE_GRAPH: GridPlanner = GridPlanner {
    family: "sample-c4",
    closed_form: |fam| {
        format!(
            "§5.3: Alon-class sample graph with s={} nodes (n={}), g(q) = q^(s/2); \
             multiset partition over k groups trades r ~ k^(s-2) against q",
            param(fam, "s"),
            param(fam, "n")
        )
    },
};

/// 2-paths (§5.4): per-node vs the bucket-pair refinement.
const TWO_PATH: GridPlanner = GridPlanner {
    family: "two-path",
    closed_form: |fam| {
        format!(
            "§5.4: r ≥ 2n/q (n={}); per-node (q=n, r=2) is bound-optimal, bucket-pair \
             buys q ≈ 2n/k at r = 2(k−1)",
            param(fam, "n")
        )
    },
};

/// Multiway joins (§5.5): symmetric Shares with LP-derived exponents.
pub struct JoinPlanner;

impl Planner for JoinPlanner {
    fn family(&self) -> &'static str {
        "join-cycle3"
    }

    fn price(&self, scale: Scale) -> Result<PricedFamily, PlanError> {
        price_grid(self.family(), scale, |fam| {
            let atoms = param(fam, "atoms") as usize;
            // The Shares exponents x_v (s_v = p^{x_v}) by simplex — in the
            // spirit of Abo Khamis–Ngo–Suciu's fractional-cover machinery.
            // For the symmetric cycle the LP proves the symmetric grid the
            // registry sweeps is the right shape.
            let (tau, x) = share_exponents(&Hypergraph::cycle(atoms))?;
            let exps = x.iter().map(|&xi| fmt(xi)).collect::<Vec<_>>().join(", ");
            Ok(format!(
                "§5.5/LP: share exponents x = [{exps}] (τ = {}), so the optimal grid is \
                 symmetric (s_v = p^(1/{atoms})) with per-atom replication p^(1−τ)",
                fmt(tau)
            ))
        })
    }
}

/// Matrix multiplication (§6): the round-structure search decides the
/// number of phases.
///
/// **Contract of the phase dispatch.** One-phase tiling, the flat §6.3
/// two-phase method, and the deeper recursive aggregation trees are all
/// priced under the *same* per-round model
/// `Σ rounds (a·r + b·q + c·q²) + ℓ·depth` (see [`crate::dag`]), and the
/// cheapest admissible structure wins. The §6.3 crossover at `q = n²`
/// falls out of this search rather than being special-cased: below the
/// boundary no one-phase point fits the budget, so the flat tree wins;
/// at and above it the one-phase grid is cheaper under
/// communication-leaning weights; ties go to the multi-round structure
/// (see [`PricedFamily::choose`]). (Exactly at the crossover the flat
/// tree and the one-phase point tie in communication, so the boundary
/// stays at `q = n²`.)
pub struct MatMulPlanner;

impl Planner for MatMulPlanner {
    fn family(&self) -> &'static str {
        "matmul"
    }

    fn price(&self, scale: Scale) -> Result<PricedFamily, PlanError> {
        let mut priced = price_grid(self.family(), scale, |fam| {
            Ok(format!(
                "§6.1–6.2: one-phase square tiling sits exactly on r = 2n²/q (n={}), and \
                 under this cluster it prices below every §6.3-style multi-round \
                 aggregation tree the round-structure search enumerated",
                param(fam, "n")
            ))
        })?;
        priced.trees = enumerate_dag_candidates(DagWorkload::MatMul, scale)
            .into_iter()
            .filter(|c| matches!(c.structure, DagStructure::MatMulTree { .. }))
            .collect();
        Ok(priced)
    }
}

// ---------------------------------------------------------------------
// The planner registry.
// ---------------------------------------------------------------------

/// All per-family planners, in registry order.
pub fn planners() -> Vec<Box<dyn Planner>> {
    vec![
        Box::new(HAMMING),
        Box::new(TRIANGLES),
        Box::new(SAMPLE_GRAPH),
        Box::new(TWO_PATH),
        Box::new(JoinPlanner),
        Box::new(MatMulPlanner),
    ]
}

/// The family names [`plan_family`] accepts, in registry order.
pub fn plannable_families() -> Vec<&'static str> {
    planners().iter().map(|p| p.family()).collect()
}

/// The planner of one family by name.
pub(crate) fn planner_for(family: &str) -> Result<Box<dyn Planner>, PlanError> {
    planners()
        .into_iter()
        .find(|p| p.family() == family)
        .ok_or_else(|| PlanError::UnknownFamily {
            family: family.to_string(),
            known: plannable_families(),
        })
}

/// Plans one family by name.
pub fn plan_family(family: &str, cluster: &ClusterSpec, scale: Scale) -> Result<Plan, PlanError> {
    planner_for(family)?.plan(cluster, scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_core::family::registry;

    #[test]
    fn planners_cover_the_registry_exactly() {
        let expected: Vec<&str> = registry().iter().map(|f| f.name()).collect();
        assert_eq!(plannable_families(), expected);
    }

    #[test]
    fn unknown_family_lists_the_vocabulary() {
        let err = plan_family("nonsense", &ClusterSpec::default(), Scale::Small).unwrap_err();
        match err {
            PlanError::UnknownFamily { family, known } => {
                assert_eq!(family, "nonsense");
                assert_eq!(known, plannable_families());
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn comm_heavy_picks_bigger_reducers_than_compute_heavy() {
        for family in plannable_families() {
            let big = plan_family(family, &ClusterSpec::comm_heavy(), Scale::Small).unwrap();
            let small = plan_family(family, &ClusterSpec::compute_heavy(), Scale::Small).unwrap();
            assert!(
                big.predicted_q >= small.predicted_q,
                "{family}: comm-heavy q={} < compute-heavy q={}",
                big.predicted_q,
                small.predicted_q
            );
            assert!(
                big.predicted_r <= small.predicted_r + 1e-9,
                "{family}: comm-heavy r={} > compute-heavy r={}",
                big.predicted_r,
                small.predicted_r
            );
        }
    }

    #[test]
    fn plans_respect_the_reducer_budget() {
        for family in plannable_families() {
            let cluster = ClusterSpec::default().with_q_budget(30);
            match plan_family(family, &cluster, Scale::Small) {
                Ok(plan) => assert!(
                    plan.predicted_q <= 30,
                    "{family}: chose q={} over budget",
                    plan.predicted_q
                ),
                Err(PlanError::NoFeasiblePoint { .. }) => {} // honest refusal
                Err(other) => panic!("{family}: {other}"),
            }
        }
    }

    #[test]
    fn impossible_budget_is_an_error_not_a_bad_plan() {
        let cluster = ClusterSpec::default().with_q_budget(1);
        let err = plan_family("triangles", &cluster, Scale::Small).unwrap_err();
        assert!(matches!(err, PlanError::NoFeasiblePoint { budget: 1, .. }));
        assert!(err.to_string().contains("q ≤ 1"));
    }

    #[test]
    fn matmul_crossover_is_exactly_at_n_squared() {
        // Small scale: n = 4, n² = 16. Below 16 the plan must be
        // two-phase; at and above 16 (and unbounded) one-phase.
        for budget in [4u64, 8, 12, 15] {
            let plan = plan_family(
                "matmul",
                &ClusterSpec::default().with_q_budget(budget),
                Scale::Small,
            )
            .unwrap();
            assert!(
                matches!(plan.choice, Choice::MatMulTree { .. }),
                "budget {budget}: expected two-phase, got {}",
                plan.schema
            );
            assert!(plan.predicted_q <= budget);
        }
        for budget in [16u64, 17, 32, 1000] {
            let plan = plan_family(
                "matmul",
                &ClusterSpec::default().with_q_budget(budget),
                Scale::Small,
            )
            .unwrap();
            assert!(
                matches!(plan.choice, Choice::Registry { .. }),
                "budget {budget}: expected one-phase, got {}",
                plan.schema
            );
        }
        let unbounded = plan_family("matmul", &ClusterSpec::default(), Scale::Small).unwrap();
        assert!(matches!(unbounded.choice, Choice::Registry { .. }));
    }

    #[test]
    fn join_rationale_carries_the_lp_exponents() {
        let plan = plan_family("join-cycle3", &ClusterSpec::default(), Scale::Small).unwrap();
        assert!(
            plan.rationale.contains("0.3333"),
            "LP exponents missing: {}",
            plan.rationale
        );
        assert!(plan.rationale.contains("τ = 0.6667"), "{}", plan.rationale);
    }

    #[test]
    fn predicted_pairs_match_the_census() {
        // The pairs prediction (the execution path's pairs_hint) is exact
        // for grid choices: it is the census's pair count, re-derivable
        // from the chosen point. Two-phase matmul plans carry the §6.3
        // closed-form total instead, which is nonzero by construction.
        for family in plannable_families() {
            let plan = plan_family(family, &ClusterSpec::default(), Scale::Small).unwrap();
            assert!(plan.predicted_pairs > 0, "{family}: zero pairs predicted");
            if let Choice::Registry { scale, point } = plan.choice {
                let fam = registry_family(plan.family, scale);
                assert_eq!(
                    plan.predicted_pairs,
                    fam.census(point).pairs,
                    "{family}: pairs prediction diverged from the census"
                );
            }
        }
    }

    #[test]
    fn planning_is_deterministic() {
        for family in plannable_families() {
            let a = plan_family(family, &ClusterSpec::default(), Scale::Small).unwrap();
            let b = plan_family(family, &ClusterSpec::default(), Scale::Small).unwrap();
            assert_eq!(a.schema, b.schema);
            assert_eq!(a.predicted_q, b.predicted_q);
            assert_eq!(a.rationale, b.rationale);
        }
    }
}
