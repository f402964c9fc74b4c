//! Per-family planning: closed forms where the paper gives them, the
//! share-exponent LP for joins, and exact census pricing everywhere.
//!
//! A plan is made in two steps. The **price** step is cluster-independent:
//! it builds the family's instance, census-prices every grid point as a
//! one-round [`RoundDag`] (and, for matmul, collects the multi-round
//! trees) into a [`PricedFamily`] ([`price_family`]). The **choose** step
//! ([`PricedFamily::choose`]) reads that table against one
//! [`ClusterSpec`] through the crate's one `pick`, the same one
//! [`plan_dag`](crate::plan_dag) reads its candidates with. A caller that
//! plans one family under many cluster profiles prices it once and
//! chooses per profile; [`PlanCache`](crate::PlanCache) keeps the table
//! per `(family, scale)` for the same reason.

use crate::cluster::ClusterSpec;
use crate::dag::{
    enumerate_dag_candidates, fmt, pick, DagCandidate, DagStructure, DagWorkload, RoundDag,
};
use crate::plan::{Choice, Plan};
use mr_core::family::{family_by_name, DynFamily, Scale};
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

impl PlanError {
    /// The refusal for a cluster that admits none of `family`'s candidates.
    pub(crate) fn infeasible(family: &'static str, cluster: &ClusterSpec) -> Self {
        PlanError::NoFeasiblePoint {
            family,
            budget: cluster.reducer_capacity.unwrap_or(0),
        }
    }
}

/// Builds a registry family by name at the given scale.
pub(crate) fn registry_family(name: &'static str, scale: Scale) -> Box<dyn DynFamily> {
    family_by_name(name, scale).unwrap_or_else(|| panic!("family {name} not in the registry"))
}

/// Reads one of the family's declared instance parameters.
pub(crate) fn param(fam: &dyn DynFamily, key: &str) -> u64 {
    fam.params()
        .iter()
        .find(|(k, _)| *k == key)
        .unwrap_or_else(|| panic!("{}: missing parameter {key}", fam.name()))
        .1
}

/// One plannable family: its registry name, the paper's closed form for
/// it — evaluated at the instance's parameters, leading a grid plan's
/// rationale — and whether matmul's aggregation trees compete with its
/// grid.
struct FamilyEntry {
    name: &'static str,
    /// Fallible: the join's closed form is the Shares exponent LP.
    closed_form: fn(&dyn DynFamily) -> Result<String, PlanError>,
    trees: bool,
}

/// Every plannable family, in registry order.
static FAMILIES: [FamilyEntry; 6] = [
    // Hamming distance 1 (§3): the Theorem 3.2 hyperbola at divisor points.
    FamilyEntry {
        name: "hamming-d1",
        closed_form: |fam| {
            Ok(format!(
                "Thm 3.2: every algorithm obeys r ≥ b/log₂q (b={}); splitting sits exactly \
                 on that hyperbola at the divisor points q=2^(b/k), r=k",
                param(fam, "b")
            ))
        },
        trees: false,
    },
    // Triangles (§4): node partition against the `n/√(2q)` bound.
    FamilyEntry {
        name: "triangles",
        closed_form: |fam| {
            Ok(format!(
                "§4.1: r ≥ n/√(2q) (n={}); node partition into k groups achieves r ≈ k at \
                 q ≈ 3(n/k choose 2) — within the constant factor 3 of the bound",
                param(fam, "n")
            ))
        },
        trees: false,
    },
    // Sample graphs (§5.1–5.3): the 4-cycle pattern under multiset partition.
    FamilyEntry {
        name: "sample-c4",
        closed_form: |fam| {
            Ok(format!(
                "§5.3: Alon-class sample graph with s={} nodes (n={}), g(q) = q^(s/2); \
                 multiset partition over k groups trades r ~ k^(s-2) against q",
                param(fam, "s"),
                param(fam, "n")
            ))
        },
        trees: false,
    },
    // 2-paths (§5.4): per-node vs the bucket-pair refinement.
    FamilyEntry {
        name: "two-path",
        closed_form: |fam| {
            Ok(format!(
                "§5.4: r ≥ 2n/q (n={}); per-node (q=n, r=2) is bound-optimal, bucket-pair \
                 buys q ≈ 2n/k at r = 2(k−1)",
                param(fam, "n")
            ))
        },
        trees: false,
    },
    // Multiway joins (§5.5): symmetric Shares with LP-derived exponents.
    FamilyEntry {
        name: "join-cycle3",
        closed_form: |fam| {
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
        },
        trees: false,
    },
    // Matrix multiplication (§6): one-phase tiling, the flat §6.3
    // two-phase method and the deeper aggregation trees are all priced
    // under the same per-round model, so the `q = n²` crossover falls out
    // of the pick rather than being special-cased: below it no one-phase
    // point fits the budget, at and above it the grid is cheaper under
    // communication-leaning weights (exactly at it the flat tree and the
    // one-phase point tie in communication, so the boundary stays at
    // `q = n²`). A cost tie goes to the tree.
    FamilyEntry {
        name: "matmul",
        closed_form: |fam| {
            Ok(format!(
                "§6.1–6.2: one-phase square tiling sits exactly on r = 2n²/q (n={}), and \
                 under this cluster it prices below every §6.3-style multi-round \
                 aggregation tree the round-structure search enumerated",
                param(fam, "n")
            ))
        },
        trees: true,
    },
];

impl FamilyEntry {
    /// The price step: build the family's instance — just the one, via
    /// [`family_by_name`], instance construction being the expensive part
    /// of the registry — census every grid point, and collect the trees.
    fn price(&self, scale: Scale) -> Result<PricedFamily, PlanError> {
        let _span = mr_obs::span("plan.family.price");
        let fam = registry_family(self.name, scale);
        let closed_form = (self.closed_form)(&*fam)?;
        let grid = fam
            .grid()
            .into_iter()
            .enumerate()
            .map(|(point, gp)| {
                let census = fam.census(point);
                let mut dag = RoundDag::new(fam.num_inputs() as u64);
                dag.push(gp.schema, vec![], census.q, census.pairs);
                dag
            })
            .collect();
        let trees = if self.trees {
            enumerate_dag_candidates(DagWorkload::MatMul, scale)
                .into_iter()
                .filter(|c| matches!(c.structure, DagStructure::MatMulTree { .. }))
                .collect()
        } else {
            Vec::new()
        };
        Ok(PricedFamily {
            family: self.name,
            scale,
            closed_form,
            grid,
            trees,
        })
    }
}

/// A family's candidates at one scale with their exact censuses — what
/// [`price_family`] produces and [`choose`](PricedFamily::choose) reads.
/// Nothing in it depends on a cluster, so one priced table serves every
/// cluster profile.
#[derive(Debug, Clone)]
pub struct PricedFamily {
    family: &'static str,
    scale: Scale,
    /// The family's closed-form story, leading a grid plan's rationale.
    closed_form: String,
    /// Every registry grid point, in grid order, as a one-round DAG whose
    /// round is named after the point's schema.
    grid: Vec<RoundDag>,
    /// Multi-round candidates competing with the grid (matmul's
    /// aggregation trees; empty for every other family).
    trees: Vec<DagCandidate>,
}

impl PricedFamily {
    /// The choose step: the cheapest candidate `cluster` admits, as the
    /// [`Plan`] [`plan_family`] would return for the same family, cluster
    /// and scale. Fails with [`PlanError::InvalidCluster`] when
    /// [`ClusterSpec::check`] refuses `cluster`, and with
    /// [`PlanError::NoFeasiblePoint`] when no candidate fits its budget.
    ///
    /// The grid and the trees are priced under the *same* per-round model
    /// `Σ rounds (a·r + b·q + c·q²) + ℓ·depth` (see [`crate::dag`]), and
    /// the trees go first in the pick, so a cost **tie breaks toward the
    /// multi-round structure** — equal money, but its per-round reducers
    /// are smaller, which is the resource the budget actually constrains.
    pub fn choose(&self, cluster: &ClusterSpec) -> Result<Plan, PlanError> {
        let _span = mr_obs::span("plan.family.choose");
        cluster.check()?;
        let trees = self.trees.iter().map(|c| &c.dag);
        let best = pick(trees.chain(&self.grid), cluster)
            .ok_or_else(|| PlanError::infeasible(self.family, cluster))?;
        let grid = pick(&self.grid, cluster);
        let (dag, schema, choice, rationale) = match self.trees.get(best.index) {
            Some(tree) => {
                let against = match grid {
                    Some(g) => format!("beats the cheapest one-phase grid point ({})", fmt(g.cost)),
                    None => "no one-phase grid point fits the budget".to_string(),
                };
                let rationale = format!(
                    "§6 crossover found by round-structure search: {} at per-round cost {} \
                     {}. Rounds [{}]; total communication {}, max reducer load {}.",
                    tree.structure.name(),
                    fmt(best.cost),
                    against,
                    tree.dag.describe(),
                    tree.dag.total_pairs(),
                    tree.dag.max_q(),
                );
                let choice = Choice::Tree {
                    structure: tree.structure,
                    rounds: tree.dag.clone(),
                };
                (&tree.dag, tree.structure.name(), choice, rationale)
            }
            None => {
                let grid = grid.expect("a grid point won, so the grid has a pick");
                let point = best.index - self.trees.len();
                let dag = &self.grid[point];
                let schema = dag.rounds[0].name.clone();
                let rationale = format!(
                    "{}. Census-priced {} grid points ({} within budget); cheapest: {} \
                     with exact (q={}, r={}) → cost {}.",
                    self.closed_form,
                    self.grid.len(),
                    grid.feasible,
                    schema,
                    dag.max_q(),
                    fmt(dag.replication()),
                    fmt(best.cost),
                );
                let choice = Choice::Registry {
                    scale: self.scale,
                    point,
                };
                (dag, schema, choice, rationale)
            }
        };
        Ok(Plan {
            family: self.family,
            schema,
            choice,
            cluster: cluster.clone(),
            predicted_q: dag.max_q(),
            predicted_r: dag.replication(),
            predicted_pairs: dag.total_pairs(),
            predicted_cost: best.cost,
            rationale,
        })
    }
}

/// The family names [`plan_family`] accepts, in registry order.
pub fn plannable_families() -> Vec<&'static str> {
    FAMILIES.iter().map(|f| f.name).collect()
}

/// The price step of one family by name: builds its instance at `scale`
/// and census-prices every candidate, independently of any cluster.
/// [`PricedFamily::choose`] then plans it under each cluster profile
/// without pricing again. Fails with [`PlanError::UnknownFamily`] on a
/// name [`plannable_families`] does not list, and with
/// [`PlanError::Lp`] when a join's share-exponent LP fails.
pub fn price_family(family: &str, scale: Scale) -> Result<PricedFamily, PlanError> {
    let entry = FAMILIES.iter().find(|f| f.name == family);
    entry
        .ok_or_else(|| PlanError::UnknownFamily {
            family: family.to_string(),
            known: plannable_families(),
        })?
        .price(scale)
}

/// Plans one family by name: the cheapest of its candidates under
/// `cluster`'s cost weights, with exact predictions — so
/// [`Plan::execute`] runs under `predicted_q` as a hard budget and cannot
/// overflow unless the planner itself is wrong. Planning is **pure**:
/// same family, cluster and scale, same plan.
///
/// [`price_family`] then [`PricedFamily::choose`]; an invalid `cluster`
/// is refused before anything is priced.
pub fn plan_family(family: &str, cluster: &ClusterSpec, scale: Scale) -> Result<Plan, PlanError> {
    cluster.check()?;
    price_family(family, scale)?.choose(cluster)
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
    fn both_choose_steps_refuse_a_cluster_that_cannot_price() {
        // The choose steps are public, so they check the cluster
        // themselves rather than trust the caller to have.
        let nan_comm = ClusterSpec::new(4, f64::NAN, 0.05);
        let priced = price_family("matmul", Scale::Small).unwrap();
        let candidates = enumerate_dag_candidates(DagWorkload::Hamming, Scale::Small);
        let refusals = [
            priced.choose(&nan_comm).err(),
            crate::DagPlan::choose(DagWorkload::Hamming, &candidates, &nan_comm, Scale::Small)
                .err(),
        ];
        for refusal in refusals {
            match refusal {
                Some(PlanError::InvalidCluster { weight, .. }) => {
                    assert_eq!(weight, "comm_weight")
                }
                other => panic!("expected InvalidCluster, got {other:?}"),
            }
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
                matches!(plan.choice, Choice::Tree { .. }),
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
        // The pairs prediction is exact for grid choices: it is the
        // census's pair count, re-derivable from the chosen point.
        // Two-phase matmul plans carry the §6.3 closed-form total
        // instead, which is nonzero by construction.
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
