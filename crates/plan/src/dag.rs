//! Multi-round plans: a DAG of rounds with per-round `(q, r)` accounting
//! and a cost-driven **round-structure search**.
//!
//! [`plan_family`](crate::plan_family) picks a point on one schema
//! family's `(q, r)` frontier. This module generalises the
//! *shape* of the plan itself: a [`RoundDag`] is a DAG whose nodes are
//! MapReduce rounds, each carrying a census-exact predicted `(q, r)`, and
//! whose cost is the §1.2 money model summed per round plus a fixed
//! latency charge per critical-path level:
//!
//! ```text
//! cost = Σ_rounds (a·r_i + b·q_i + c·q_i²) + ℓ·depth
//! ```
//!
//! With one round and `ℓ = 0` this is exactly
//! [`ClusterSpec::cost`], so every single-round plan is a degenerate case
//! of the same model. [`plan_dag`] enumerates a workload's round
//! structures — one-phase **and** flat two-phase **and** deeper
//! aggregation trees for matrix multiplication, so the §6.3 crossover at
//! `q = n²` is *reproduced by the search* rather than special-cased —
//! prices each candidate, and returns the cheapest as an executable
//! [`DagPlan`]. Executing the plan stages the corresponding
//! [`DagJob`] under each round's own predicted `q` as a hard budget and
//! reports per-round predicted-vs-measured `(q, r)` — the one lowering a
//! matmul-tree [`Plan`](crate::Plan) executes through too.
//!
//! Three workloads have multi-round structures to search
//! ([`DagWorkload`]):
//!
//! * **matmul** — one-phase tiling, the flat §6.3 two-phase method, and
//!   recursive aggregation trees of any fan-in (3+ rounds); candidates
//!   are priced by [`RecursiveMatMul::round_specs`]'s closed forms;
//! * **hamming-d1** — one-round Splitting, the per-segment parallel
//!   split (same totals, structure the search must reject), and a
//!   depth-2 consolidation variant;
//! * **join-agg** — the experiment-`e71` join→`COUNT(*) GROUP BY A₀`
//!   pipeline: naive two-round, partial-count push-down, and a
//!   three-round partial-merge tree.
//!
//! Planning is two steps. **Pricing** ([`enumerate_dag_candidates`]) is
//! cluster-independent: every candidate gets its per-round census, from
//! closed forms for matmul and from [`DagJob::census`] for Hamming and
//! join — a fold over each round's map-side assignment (§2.2
//! obliviousness), where the only reducers that run are those whose
//! output a later round has to read. **Choosing** reads a priced table
//! against one [`ClusterSpec`]: admit, cost, pick — through the crate's
//! one cost comparison, the `pick` [`plan_family`](crate::plan_family)
//! chooses with too. [`plan_dag`] is the two in sequence;
//! [`PlanCache`](crate::PlanCache) keeps the priced table per
//! `(workload, scale)`, so any number of cluster profiles pay for one
//! pricing. Executing a candidate for its numbers survives only as the
//! batteries' oracle.

use crate::cluster::ClusterSpec;
use crate::planner::{param, registry_family, PlanError};
use mr_core::family::{matmul_instance, Scale};
use mr_core::problems::hamming::{
    all_strings, parallel_split_dag, split_consolidate_dag, split_dag,
};
use mr_core::problems::join::{
    naive_count_dag, pushed_count_dag, tagged_inputs, Database, Query, SharesSchema,
};
use mr_core::problems::matmul::{MatToken, RecursiveMatMul};
use mr_sim::{DagJob, EngineConfig, EngineError, JobMetrics};
use std::time::{Duration, Instant};

/// One round of a [`RoundDag`]: its position in the DAG and its
/// census-exact predictions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundSpec {
    /// Display name (matches the executed [`DagJob`] node name).
    pub name: String,
    /// Indices of the rounds whose outputs this round consumes (empty =
    /// reads the plan's external inputs).
    pub deps: Vec<usize>,
    /// Predicted maximum reducer load of this round.
    pub q: u64,
    /// Predicted key-value pairs shuffled **into** this round — the
    /// intermediate-data volume crossing the network on this round's
    /// inbound edges.
    pub pairs: u64,
}

/// A DAG of rounds with per-round `(q, r)` accounting.
///
/// `r` for a round is its shuffled pairs over the *plan's* input count
/// `|I|` — so a one-round DAG's `r` is the paper's replication rate, and
/// the sum over rounds prices total communication in the same unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundDag {
    /// `|I|`: number of external inputs the DAG reads.
    pub inputs: u64,
    /// The rounds, in node order (dependencies precede dependents).
    pub rounds: Vec<RoundSpec>,
}

impl RoundDag {
    /// An empty DAG over `inputs` external inputs.
    pub fn new(inputs: u64) -> Self {
        RoundDag {
            inputs,
            rounds: Vec::new(),
        }
    }

    /// Appends a round; `deps` must point at earlier rounds.
    pub fn push(&mut self, name: impl Into<String>, deps: Vec<usize>, q: u64, pairs: u64) -> usize {
        let idx = self.rounds.len();
        assert!(
            deps.iter().all(|&d| d < idx),
            "round {idx} depends on a later round"
        );
        self.rounds.push(RoundSpec {
            name: name.into(),
            deps,
            q,
            pairs,
        });
        idx
    }

    /// ASAP level of every round (0 for rounds reading external inputs).
    fn levels(&self) -> Vec<usize> {
        let mut levels = vec![0usize; self.rounds.len()];
        for (i, r) in self.rounds.iter().enumerate() {
            levels[i] = r.deps.iter().map(|&d| levels[d] + 1).max().unwrap_or(0);
        }
        levels
    }

    /// Critical-path length in rounds — what the per-round latency term
    /// `ℓ` multiplies. Independent rounds share a level.
    pub fn depth(&self) -> usize {
        self.levels().iter().map(|&l| l + 1).max().unwrap_or(0)
    }

    /// The DAG's edges `(from, to)`; the volume crossing each edge is
    /// recorded on the destination's [`RoundSpec::pairs`].
    pub fn edges(&self) -> Vec<(usize, usize)> {
        self.rounds
            .iter()
            .enumerate()
            .flat_map(|(i, r)| r.deps.iter().map(move |&d| (d, i)))
            .collect()
    }

    /// `pairs / |I|`; an empty instance replicates nothing, so it reads
    /// 0 rather than `0/0` — the convention of the registry's census.
    pub(crate) fn per_input(&self, pairs: u64) -> f64 {
        if self.inputs == 0 {
            0.0
        } else {
            pairs as f64 / self.inputs as f64
        }
    }

    /// Predicted replication rate of round `i`: `pairs_i / |I|`.
    pub fn round_r(&self, i: usize) -> f64 {
        self.per_input(self.rounds[i].pairs)
    }

    /// The largest per-round reducer load — the plan's effective `q`.
    pub fn max_q(&self) -> u64 {
        self.rounds.iter().map(|r| r.q).max().unwrap_or(0)
    }

    /// Total predicted communication across all rounds: exact whenever
    /// it fits a `u64`, and `u64::MAX` when it does not (as
    /// [`binomial`](mr_core::recipe::binomial) saturates), so an
    /// overflowing DAG prices as the most expensive, never the cheapest.
    pub fn total_pairs(&self) -> u64 {
        self.rounds.iter().fold(0, |t, r| t.saturating_add(r.pairs))
    }

    /// Total communication over `|I|` — the multi-round generalisation of
    /// the replication rate.
    pub fn replication(&self) -> f64 {
        self.per_input(self.total_pairs())
    }

    /// The plan cost under `cluster`:
    /// `Σ_rounds cluster.cost(q_i, r_i) + round_latency · depth`. A
    /// single round at `round_latency = 0` reduces to
    /// [`ClusterSpec::cost`] exactly.
    pub fn cost(&self, cluster: &ClusterSpec) -> f64 {
        let rounds = self.rounds.iter().enumerate();
        cluster.rounds_cost(rounds.map(|(i, r)| (r.q, self.round_r(i))), self.depth())
    }

    /// Whether every round's predicted load fits the cluster's budget.
    pub fn admitted_by(&self, cluster: &ClusterSpec) -> bool {
        self.rounds.iter().all(|r| cluster.admits(r.q))
    }

    /// Compact deterministic description: `name(q=…, r=…)` per round.
    pub fn describe(&self) -> String {
        self.rounds
            .iter()
            .enumerate()
            .map(|(i, r)| format!("{}(q={}, r={})", r.name, r.q, fmt(self.round_r(i))))
            .collect::<Vec<_>>()
            .join("; ")
    }

    /// Per-round predicted-vs-measured numbers of one execution of this
    /// DAG (`metrics` in node order).
    pub(crate) fn observe(&self, metrics: &JobMetrics) -> Vec<RoundObservation> {
        self.rounds
            .iter()
            .enumerate()
            .zip(&metrics.rounds)
            .map(|((i, spec), m)| RoundObservation {
                name: spec.name.clone(),
                predicted_q: spec.q,
                measured_q: m.load.max,
                predicted_r: self.round_r(i),
                measured_r: self.per_input(m.kv_pairs),
                partition_skew: m.shuffle.partition_skew(),
                shuffle_bytes: m.shuffle.bytes_moved.unwrap_or(0),
            })
            .collect()
    }

    /// The cluster cost of an execution's per-round observations — the
    /// same formula as [`cost`](RoundDag::cost), over measured `(q, r)`.
    pub(crate) fn measured_cost(&self, cluster: &ClusterSpec, rounds: &[RoundObservation]) -> f64 {
        let measured = rounds.iter().map(|r| (r.measured_q, r.measured_r));
        cluster.rounds_cost(measured, self.depth())
    }
}

/// Compact deterministic number formatting for rationale strings.
pub(crate) fn fmt(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x}")
    } else {
        format!("{x:.4}")
    }
}

/// The winner of a [`pick`] and what a rationale reports about the field.
pub(crate) struct Pick {
    /// The winner's position in the candidate order.
    pub index: usize,
    /// Its cost under the cluster.
    pub cost: f64,
    /// How many candidates the cluster admits.
    pub feasible: usize,
    /// The cheapest admitted loser: its position and cost.
    pub runner_up: Option<(usize, f64)>,
}

/// The crate's one cost comparison: the cheapest of `candidates` that
/// `cluster` admits, or `None` when it admits none. Strict `<` keeps the
/// first of equal-cost candidates — enumerations put multi-round
/// structures first, so a tie breaks toward the smaller per-round
/// reducers — and the runner-up is the first cheapest of the rest.
/// Callers have run [`ClusterSpec::check`], so every cost is a number.
pub(crate) fn pick<'a>(
    candidates: impl IntoIterator<Item = &'a RoundDag>,
    cluster: &ClusterSpec,
) -> Option<Pick> {
    let admitted: Vec<(usize, f64)> = (candidates.into_iter().enumerate())
        .filter(|(_, dag)| dag.admitted_by(cluster))
        .map(|(index, dag)| (index, dag.cost(cluster)))
        .collect();
    let cheapest = |except: Option<usize>| {
        let mut best: Option<(usize, f64)> = None;
        for &(index, cost) in admitted.iter().filter(|(index, _)| Some(*index) != except) {
            if best.is_none_or(|(_, least)| cost < least) {
                best = Some((index, cost));
            }
        }
        best
    };
    let (index, cost) = cheapest(None)?;
    Some(Pick {
        index,
        cost,
        feasible: admitted.len(),
        runner_up: cheapest(Some(index)),
    })
}

/// The round structure a [`DagPlan`] commits to, in lowerable form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DagStructure {
    /// One-phase matmul tiling (§6.2): a single round with row/column
    /// bands of `s`.
    MatMulOnePhase {
        /// Matrix side length.
        n: u32,
        /// Band size (divides `n`).
        s: u32,
    },
    /// The recursive-aggregation matmul chain: `fanin = n/t` is the flat
    /// §6.3 two-phase method, smaller fan-ins give deeper trees.
    MatMulTree {
        /// Matrix side length.
        n: u32,
        /// Row/column block side (divides `n`).
        s: u32,
        /// j-dimension block depth (divides `n`).
        t: u32,
        /// Aggregation-tree fan-in.
        fanin: u32,
    },
    /// One-round Hamming splitting with `k` segments (§3.3).
    HammingSplit {
        /// String length.
        b: u32,
        /// Segment count (divides `b`).
        k: u32,
    },
    /// The splitting groups as `k` independent depth-1 nodes.
    HammingParallelSplit {
        /// String length.
        b: u32,
        /// Segment count (divides `b`).
        k: u32,
    },
    /// Parallel split plus a depth-2 consolidation round.
    HammingSplitConsolidate {
        /// String length.
        b: u32,
        /// Segment count (divides `b`).
        k: u32,
    },
    /// Naive join→count: full Shares join, then hot-key aggregation.
    JoinAggNaive {
        /// Domain size of the complete chain-join instance.
        n: u32,
        /// Middle-variable share count.
        s: u32,
    },
    /// Push-down join→count: partial counts at the join reducers, merged
    /// in one round (`fanout = 1`) or through a bucket tree
    /// (`fanout ≥ 2`, three rounds).
    JoinAggPushed {
        /// Domain size of the complete chain-join instance.
        n: u32,
        /// Middle-variable share count.
        s: u32,
        /// Partial-merge bucket count.
        fanout: u32,
    },
}

impl DagStructure {
    /// Deterministic display name.
    pub fn name(&self) -> String {
        match *self {
            DagStructure::MatMulOnePhase { n, s } => format!("one-phase(n={n}, s={s})"),
            DagStructure::MatMulTree { n, s, t, fanin } => {
                if fanin as u64 >= ((n / t) as u64).max(1) {
                    format!("two-phase(n={n}, s={s}, t={t})")
                } else {
                    format!("recursive(n={n}, s={s}, t={t}, fanin={fanin})")
                }
            }
            DagStructure::HammingSplit { b, k } => format!("split(b={b}, k={k})"),
            DagStructure::HammingParallelSplit { b, k } => {
                format!("parallel-split(b={b}, k={k})")
            }
            DagStructure::HammingSplitConsolidate { b, k } => {
                format!("split+consolidate(b={b}, k={k})")
            }
            DagStructure::JoinAggNaive { n, s } => format!("naive-count(n={n}, s={s})"),
            DagStructure::JoinAggPushed { n, s, fanout } => {
                format!("pushed-count(n={n}, s={s}, fanout={fanout})")
            }
        }
    }
}

/// A workload whose round structure [`plan_dag`] searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DagWorkload {
    /// Square matrix multiplication (§6) at the registry's `matmul`
    /// scale.
    MatMul,
    /// Hamming distance 1 (§3) at the registry's `hamming-d1` scale.
    Hamming,
    /// The `e71` join→aggregate pipeline on the complete chain(2)
    /// instance at the registry's `join-cycle3` domain size.
    JoinAgg,
}

impl DagWorkload {
    /// Every searchable workload, in display order.
    pub const ALL: [DagWorkload; 3] = [
        DagWorkload::MatMul,
        DagWorkload::Hamming,
        DagWorkload::JoinAgg,
    ];

    /// The workload's display name (also the `repro dag` row key).
    pub fn name(&self) -> &'static str {
        match self {
            DagWorkload::MatMul => "matmul",
            DagWorkload::Hamming => "hamming-d1",
            DagWorkload::JoinAgg => "join-agg",
        }
    }

    /// The workload's size parameter (`n`, `b`, or the join domain) at
    /// `scale`, read from the registry family whose instance it is, so
    /// DAG plans and single-round plans describe the same instances.
    pub fn size(&self, scale: Scale) -> u32 {
        let (family, key) = match self {
            DagWorkload::MatMul => ("matmul", "n"),
            DagWorkload::Hamming => ("hamming-d1", "b"),
            DagWorkload::JoinAgg => ("join-cycle3", "n"),
        };
        param(&*registry_family(family, scale), key) as u32
    }
}

/// One enumerated round structure with its priced [`RoundDag`].
#[derive(Debug, Clone)]
pub struct DagCandidate {
    /// The lowerable structure.
    pub structure: DagStructure,
    /// Its per-round census predictions.
    pub dag: RoundDag,
}

/// Builds a [`RoundDag`] from the candidate's [`DagJob::census`] — exact
/// by §2.2 obliviousness, with no sink reduced and nothing shuffled — and
/// its topology from [`DagJob::rounds`].
fn priced_round_dag<T: Clone + Send + Sync + 'static>(dag: &DagJob<T>, inputs: &[T]) -> RoundDag {
    let census = dag
        .census(inputs)
        .expect("pricing applies no budget, so no round can overflow one");
    let mut rd = RoundDag::new(inputs.len() as u64);
    for ((name, deps), c) in dag.rounds().zip(census) {
        rd.push(name, deps.to_vec(), c.q, c.pairs);
    }
    rd
}

/// The divisors of `n`, ascending.
fn divisors(n: u32) -> Vec<u32> {
    (1..=n).filter(|d| n.is_multiple_of(*d)).collect()
}

/// A [`RecursiveMatMul`] as a candidate: its shape, and its
/// [`round_specs`](RecursiveMatMul::round_specs) chain as a [`RoundDag`].
fn matmul_tree(rm: RecursiveMatMul) -> DagCandidate {
    let RecursiveMatMul { n, s, t, fanin } = rm;
    let mut rd = RoundDag::new(2 * n as u64 * n as u64);
    let mut prev = None;
    for (i, (q, pairs)) in rm.round_specs().into_iter().enumerate() {
        let name = if i == 0 {
            "phase-1".to_string()
        } else {
            format!("aggregate-{i}")
        };
        let deps = prev.map(|p| vec![p]).unwrap_or_default();
        prev = Some(rd.push(name, deps, q, pairs));
    }
    DagCandidate {
        structure: DagStructure::MatMulTree { n, s, t, fanin },
        dag: rd,
    }
}

/// The complete chain(2) join→aggregate instance at domain size `n`.
fn join_instance(n: u32) -> (Query, Database) {
    let query = Query::chain(2);
    let db = Database::complete(&query, n);
    (query, db)
}

/// Enumerates every round structure the search considers for `workload`
/// at `scale`, in deterministic order: **multi-round candidates first**,
/// so a cost tie breaks toward the structure with the smaller per-round
/// reducers (first-wins under strict `<`).
///
/// This is the **price** step of planning: cluster-independent, and the
/// only part of [`plan_dag`] whose cost grows with the instance.
pub fn enumerate_dag_candidates(workload: DagWorkload, scale: Scale) -> Vec<DagCandidate> {
    let _span = mr_obs::span("plan.dag.price");
    let size = workload.size(scale);
    let mut out = Vec::new();
    match workload {
        DagWorkload::MatMul => {
            let n = size;
            let divs = divisors(n);
            // Flat two-phase shapes (fanin = n/t), lexicographic (s, t).
            for &s in &divs {
                for &t in &divs {
                    out.push(matmul_tree(RecursiveMatMul::flat(n, s, t)));
                }
            }
            // Deeper trees: fan-in strictly below n/t (3+ rounds).
            for &s in &divs {
                for &t in &divs {
                    for fanin in 2..n / t {
                        out.push(matmul_tree(RecursiveMatMul::new(n, s, t, fanin)));
                    }
                }
            }
            // One-phase tiling: phase 1 at t = n, the round
            // `RecursiveMatMul::one_phase` stages.
            for &s in &divs {
                let (q, pairs) = RecursiveMatMul::new(n, s, n, 1).round_specs()[0];
                let mut rd = RoundDag::new(2 * n as u64 * n as u64);
                rd.push("one-phase", vec![], q, pairs);
                out.push(DagCandidate {
                    structure: DagStructure::MatMulOnePhase { n, s },
                    dag: rd,
                });
            }
        }
        DagWorkload::Hamming => {
            let b = size;
            let strings = all_strings(b);
            for k in divisors(b) {
                if k >= 2 {
                    let consolidate = priced_round_dag(&split_consolidate_dag(b, k), &strings);
                    // `split_consolidate_dag` is `parallel_split_dag` plus
                    // one round, so its first `k` priced rounds *are* the
                    // parallel split's: the shared prefix is priced once.
                    let mut parallel = consolidate.clone();
                    parallel.rounds.truncate(k as usize);
                    out.push(DagCandidate {
                        structure: DagStructure::HammingParallelSplit { b, k },
                        dag: parallel,
                    });
                    out.push(DagCandidate {
                        structure: DagStructure::HammingSplitConsolidate { b, k },
                        dag: consolidate,
                    });
                }
                out.push(DagCandidate {
                    structure: DagStructure::HammingSplit { b, k },
                    dag: priced_round_dag(&split_dag(b, k), &strings),
                });
            }
        }
        DagWorkload::JoinAgg => {
            let n = size;
            let (query, db) = join_instance(n);
            let inputs = tagged_inputs(&db);
            let schema = |s: u32| SharesSchema::new(query.clone(), vec![1, s as u64, 1]);
            for s in 1..=n {
                // Bucket-tree merges first (3 rounds), then the 2-round
                // push-down, then naive — multi-round-first tie order.
                for fanout in 2..s {
                    out.push(DagCandidate {
                        structure: DagStructure::JoinAggPushed { n, s, fanout },
                        dag: priced_round_dag(&pushed_count_dag(schema(s), fanout), &inputs),
                    });
                }
                out.push(DagCandidate {
                    structure: DagStructure::JoinAggPushed { n, s, fanout: 1 },
                    dag: priced_round_dag(&pushed_count_dag(schema(s), 1), &inputs),
                });
                out.push(DagCandidate {
                    structure: DagStructure::JoinAggNaive { n, s },
                    dag: priced_round_dag(&naive_count_dag(schema(s)), &inputs),
                });
            }
        }
    }
    out
}

/// A costed, runnable multi-round decision.
#[derive(Debug, Clone)]
pub struct DagPlan {
    /// The workload the plan is for.
    pub workload: DagWorkload,
    /// The chosen round structure.
    pub structure: DagStructure,
    /// The chosen structure's display name.
    pub schema: String,
    /// Per-round census predictions.
    pub dag: RoundDag,
    /// The cluster the plan was made for.
    pub cluster: ClusterSpec,
    /// Instance-size preset.
    pub scale: Scale,
    /// Predicted cost: `Σ rounds (a·r + b·q + c·q²) + ℓ·depth`.
    pub predicted_cost: f64,
    /// Why this structure: candidates priced, winner, runner-up.
    pub rationale: String,
}

/// Per-round predicted-vs-measured numbers from executing a [`DagPlan`].
#[derive(Debug, Clone)]
pub struct RoundObservation {
    /// Round name.
    pub name: String,
    /// Planner-predicted maximum reducer load.
    pub predicted_q: u64,
    /// Engine-measured maximum reducer load.
    pub measured_q: u64,
    /// Planner-predicted `pairs / |I|`.
    pub predicted_r: f64,
    /// Engine-measured `pairs / |I|`.
    pub measured_r: f64,
    /// Engine-observed shuffle-partition skew of the round, `max
    /// partition load / mean` (0 when the round was not partitioned).
    /// Execution metadata, excluded from semantic comparisons.
    pub partition_skew: f64,
    /// Engine-observed shuffle volume of the round in bytes. Execution
    /// metadata, like `partition_skew`.
    pub shuffle_bytes: u64,
}

/// The result of executing a [`DagPlan`].
#[derive(Debug, Clone)]
pub struct DagPlanReport {
    /// The executed plan.
    pub plan: DagPlan,
    /// Per-round predicted-vs-measured `(q, r)`, in node order.
    pub rounds: Vec<RoundObservation>,
    /// Cluster cost of the measured per-round census (same formula as
    /// the prediction).
    pub measured_cost: f64,
    /// Outputs the final stage emitted.
    pub outputs: u64,
    /// Wall-clock time (execution metadata, varies run to run).
    pub wall: Duration,
}

/// Searches the workload's round structures and returns the cheapest
/// admissible one as an executable plan: [`enumerate_dag_candidates`]
/// prices, [`DagPlan::choose`] reads the priced table against `cluster`.
/// An invalid `cluster` is refused before anything is priced.
pub fn plan_dag(
    workload: DagWorkload,
    cluster: &ClusterSpec,
    scale: Scale,
) -> Result<DagPlan, PlanError> {
    cluster.check()?;
    DagPlan::choose(
        workload,
        &enumerate_dag_candidates(workload, scale),
        cluster,
        scale,
    )
}

impl DagPlan {
    /// The **choose** step: the cheapest of `candidates` — the
    /// workload's priced table at `scale`, as [`enumerate_dag_candidates`]
    /// returns it — that `cluster` admits, as the plan [`plan_dag`] would
    /// return for the same workload, cluster and scale. A caller that
    /// plans one workload under many cluster profiles prices it once and
    /// chooses per profile. Fails with [`PlanError::InvalidCluster`] when
    /// [`ClusterSpec::check`] refuses `cluster`, and with
    /// [`PlanError::NoFeasiblePoint`] when no candidate fits its budget.
    pub fn choose(
        workload: DagWorkload,
        candidates: &[DagCandidate],
        cluster: &ClusterSpec,
        scale: Scale,
    ) -> Result<DagPlan, PlanError> {
        let _span = mr_obs::span("plan.dag.choose");
        cluster.check()?;
        let best = pick(candidates.iter().map(|c| &c.dag), cluster)
            .ok_or_else(|| PlanError::infeasible(workload.name(), cluster))?;
        let chosen = &candidates[best.index];
        let runner_up = best
            .runner_up
            .map(|(i, cost)| {
                let name = candidates[i].structure.name();
                format!(" Runner-up: {name} → cost {}.", fmt(cost))
            })
            .unwrap_or_default();
        let rationale = format!(
            "Round-structure search: {} candidate DAGs ({} with every round within \
             budget); cheapest: {} — depth {}, rounds [{}] → cost {}.{}",
            candidates.len(),
            best.feasible,
            chosen.structure.name(),
            chosen.dag.depth(),
            chosen.dag.describe(),
            fmt(best.cost),
            runner_up,
        );
        Ok(DagPlan {
            workload,
            structure: chosen.structure,
            schema: chosen.structure.name(),
            dag: chosen.dag.clone(),
            cluster: cluster.clone(),
            scale,
            predicted_cost: best.cost,
            rationale,
        })
    }

    /// Stages the chosen structure's [`DagJob`] with each round's
    /// predicted `q` as that round's hard budget, runs it on the
    /// cluster's engine, and reports per-round predicted-vs-measured
    /// `(q, r)`.
    ///
    /// Errors are the engine's: a round that overflows its own
    /// prediction surfaces as
    /// [`EngineError::ReducerOverflow`] — a planner bug by definition,
    /// reported, not panicked.
    pub fn execute(&self) -> Result<DagPlanReport, EngineError> {
        self.execute_with(&self.cluster.engine())
    }

    /// [`execute`](DagPlan::execute) on an explicit engine configuration.
    pub fn execute_with(&self, engine: &EngineConfig) -> Result<DagPlanReport, EngineError> {
        let _span = mr_obs::span("dag.execute");
        let (outputs, metrics, wall) = self.structure.run(&self.dag, u64::MAX, engine)?;
        let rounds = self.dag.observe(&metrics);
        Ok(DagPlanReport {
            plan: self.clone(),
            measured_cost: self.dag.measured_cost(&self.cluster, &rounds),
            rounds,
            outputs,
            wall,
        })
    }
}

impl DagStructure {
    /// The one budgeted execution of a plan: stages the structure's
    /// [`DagJob`] on its workload's instance, sets each round's budget to
    /// its `rounds` prediction capped at `cap`, and runs it. Returns the
    /// final stage's output count, the per-round metrics and the
    /// wall-clock time.
    pub(crate) fn run(
        &self,
        rounds: &RoundDag,
        cap: u64,
        engine: &EngineConfig,
    ) -> Result<(u64, JobMetrics, Duration), EngineError> {
        match *self {
            DagStructure::MatMulOnePhase { n, s } | DagStructure::MatMulTree { n, s, .. } => {
                let dag = match *self {
                    DagStructure::MatMulTree { t, fanin, .. } => {
                        RecursiveMatMul::new(n, s, t, fanin).dag()
                    }
                    _ => RecursiveMatMul::one_phase(n, s),
                };
                let tokens: Vec<MatToken> = matmul_instance(n)
                    .into_iter()
                    .map(MatToken::Entry)
                    .collect();
                run_budgeted(dag, &tokens, rounds, cap, engine)
            }
            DagStructure::HammingSplit { b, k }
            | DagStructure::HammingParallelSplit { b, k }
            | DagStructure::HammingSplitConsolidate { b, k } => {
                let dag = match *self {
                    DagStructure::HammingSplit { .. } => split_dag(b, k),
                    DagStructure::HammingParallelSplit { .. } => parallel_split_dag(b, k),
                    _ => split_consolidate_dag(b, k),
                };
                run_budgeted(dag, &all_strings(b), rounds, cap, engine)
            }
            DagStructure::JoinAggNaive { n, s } | DagStructure::JoinAggPushed { n, s, .. } => {
                let (query, db) = join_instance(n);
                let schema = SharesSchema::new(query, vec![1, s as u64, 1]);
                let dag = match *self {
                    DagStructure::JoinAggPushed { fanout, .. } => pushed_count_dag(schema, fanout),
                    _ => naive_count_dag(schema),
                };
                run_budgeted(dag, &tagged_inputs(&db), rounds, cap, engine)
            }
        }
    }
}

/// [`DagStructure::run`] once the job and its inputs are built.
fn run_budgeted<T: Clone + Send + Sync + 'static>(
    mut dag: DagJob<T>,
    inputs: &[T],
    rounds: &RoundDag,
    cap: u64,
    engine: &EngineConfig,
) -> Result<(u64, JobMetrics, Duration), EngineError> {
    assert_eq!(dag.num_rounds(), rounds.rounds.len());
    for (i, spec) in rounds.rounds.iter().enumerate() {
        dag.set_budget(i, spec.q.min(cap));
    }
    let start = Instant::now();
    let (out, metrics) = dag.run(inputs, engine)?;
    Ok((out.len() as u64, metrics, start.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_single_round_dag_prices_like_the_single_round_model() {
        let cluster = ClusterSpec::default();
        let mut rd = RoundDag::new(64);
        rd.push("only", vec![], 8, 128); // r = 2
        assert_eq!(rd.depth(), 1);
        assert!((rd.cost(&cluster) - cluster.cost(8.0, 2.0)).abs() < 1e-12);
        // With round latency the same DAG costs exactly ℓ more.
        let slow = ClusterSpec::default().with_round_latency(0.5);
        assert!((rd.cost(&slow) - (cluster.cost(8.0, 2.0) + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn an_empty_instance_prices_to_a_number() {
        // 0 pairs over 0 inputs is "nothing replicated", not NaN.
        let mut rd = RoundDag::new(0);
        rd.push("only", vec![], 0, 0);
        assert_eq!(rd.round_r(0), 0.0);
        assert_eq!(rd.replication(), 0.0);
        assert_eq!(rd.cost(&ClusterSpec::default()), 0.0);
    }

    #[test]
    fn depth_counts_levels_not_rounds() {
        let mut rd = RoundDag::new(10);
        let a = rd.push("a", vec![], 1, 10);
        let b = rd.push("b", vec![], 1, 10);
        rd.push("c", vec![a, b], 1, 10);
        assert_eq!(rd.depth(), 2); // a and b share a level
        assert_eq!(rd.edges(), vec![(0, 2), (1, 2)]);
        assert_eq!(rd.max_q(), 1);
        assert_eq!(rd.total_pairs(), 30);
    }

    #[test]
    fn total_pairs_saturates_instead_of_wrapping() {
        // u64::MAX + 2 pairs wrapped to 1 in release builds.
        let mut rd = RoundDag::new(1);
        rd.push("a", vec![], 1, u64::MAX);
        rd.push("b", vec![0], 1, 2);
        assert_eq!(rd.total_pairs(), u64::MAX);
        assert_eq!(rd.replication(), u64::MAX as f64);
    }

    #[test]
    fn matmul_search_reproduces_the_crossover() {
        // Small scale: n = 4, n² = 16. Below n² the generic search lands
        // on the flat two-phase structure; at and above (and unbounded)
        // on one-phase — §6.3 found by costing, not special-cased.
        for budget in [4u64, 8, 12, 15] {
            let plan = plan_dag(
                DagWorkload::MatMul,
                &ClusterSpec::default().with_q_budget(budget),
                Scale::Small,
            )
            .unwrap();
            assert!(
                matches!(
                    plan.structure,
                    DagStructure::MatMulTree { n: 4, fanin, t, .. } if fanin == 4 / t
                ),
                "budget {budget}: expected flat two-phase, got {}",
                plan.schema
            );
            assert!(plan.dag.max_q() <= budget);
        }
        for budget in [16u64, 17, 32, 1000] {
            let plan = plan_dag(
                DagWorkload::MatMul,
                &ClusterSpec::default().with_q_budget(budget),
                Scale::Small,
            )
            .unwrap();
            assert!(
                matches!(plan.structure, DagStructure::MatMulOnePhase { .. }),
                "budget {budget}: expected one-phase, got {}",
                plan.schema
            );
        }
        let unbounded =
            plan_dag(DagWorkload::MatMul, &ClusterSpec::default(), Scale::Small).unwrap();
        assert!(matches!(
            unbounded.structure,
            DagStructure::MatMulOnePhase { .. }
        ));
    }

    #[test]
    fn round_latency_makes_the_deep_tree_win() {
        // A strongly latency-weighted cluster (c = 1 on q², ℓ = 0.05 per
        // round): big reducers are ruinous, so the fan-in-2 tree's three
        // small rounds beat every flatter shape *including* paying two
        // extra rounds of latency — the §6-style "when does another
        // phase pay" question answered by the search.
        let cluster = ClusterSpec::new(4, 1.0, 0.1)
            .with_latency_weight(1.0)
            .with_round_latency(0.05);
        let plan = plan_dag(DagWorkload::MatMul, &cluster, Scale::Small).unwrap();
        assert_eq!(
            plan.structure,
            DagStructure::MatMulTree {
                n: 4,
                s: 1,
                t: 1,
                fanin: 2
            },
            "got {}",
            plan.schema
        );
        assert_eq!(plan.dag.rounds.len(), 3);
        assert_eq!(plan.dag.depth(), 3);
        assert!(
            (plan.predicted_cost - 19.75).abs() < 1e-9,
            "{}",
            plan.predicted_cost
        );
    }

    #[test]
    fn hamming_search_rejects_the_multi_round_variants() {
        // The parallel and consolidate variants shuffle the same volume
        // (or more) while adding per-round charges, so the one-round
        // split must win under the default weights — but only after the
        // search actually priced the alternatives.
        let candidates = enumerate_dag_candidates(DagWorkload::Hamming, Scale::Small);
        assert!(candidates
            .iter()
            .any(|c| matches!(c.structure, DagStructure::HammingParallelSplit { .. })));
        assert!(candidates
            .iter()
            .any(|c| matches!(c.structure, DagStructure::HammingSplitConsolidate { .. })));
        let plan = plan_dag(DagWorkload::Hamming, &ClusterSpec::default(), Scale::Small).unwrap();
        assert_eq!(
            plan.structure,
            DagStructure::HammingSplit { b: 6, k: 2 },
            "got {}",
            plan.schema
        );
    }

    #[test]
    fn join_agg_search_prefers_the_push_down() {
        let plan = plan_dag(DagWorkload::JoinAgg, &ClusterSpec::default(), Scale::Small).unwrap();
        assert!(
            matches!(plan.structure, DagStructure::JoinAggPushed { .. }),
            "got {}",
            plan.schema
        );
        // The naive structure was priced and lost.
        assert!(plan.rationale.contains("candidate DAGs"));
    }

    #[test]
    fn execution_matches_the_per_round_predictions_exactly() {
        for workload in DagWorkload::ALL {
            let plan = plan_dag(workload, &ClusterSpec::default(), Scale::Small).unwrap();
            let report = plan.execute().unwrap();
            assert_eq!(report.rounds.len(), plan.dag.rounds.len());
            for r in &report.rounds {
                assert_eq!(
                    r.measured_q, r.predicted_q,
                    "{}: round {} q diverged",
                    plan.schema, r.name
                );
                assert!(
                    (r.measured_r - r.predicted_r).abs() < 1e-12,
                    "{}: round {} r diverged",
                    plan.schema,
                    r.name
                );
            }
            assert!(report.outputs > 0);
            assert!((report.measured_cost - plan.predicted_cost).abs() < 1e-9);
        }
    }

    #[test]
    fn one_phase_execution_is_a_true_degenerate_case() {
        // The forced one-phase structure (unbounded default cluster)
        // must reproduce the registry one-phase census: q = 2sn,
        // r = n/s.
        let plan = plan_dag(DagWorkload::MatMul, &ClusterSpec::default(), Scale::Small).unwrap();
        let DagStructure::MatMulOnePhase { n, s } = plan.structure else {
            panic!("expected one-phase, got {}", plan.schema);
        };
        let report = plan.execute().unwrap();
        assert_eq!(report.rounds.len(), 1);
        assert_eq!(report.rounds[0].measured_q, 2 * s as u64 * n as u64);
        assert!((report.rounds[0].measured_r - n as f64 / s as f64).abs() < 1e-12);
        assert_eq!(report.outputs, n as u64 * n as u64);
    }

    #[test]
    fn planning_is_deterministic() {
        for workload in DagWorkload::ALL {
            let a = plan_dag(workload, &ClusterSpec::default(), Scale::Small).unwrap();
            let b = plan_dag(workload, &ClusterSpec::default(), Scale::Small).unwrap();
            assert_eq!(a.schema, b.schema);
            assert_eq!(a.dag, b.dag);
            assert_eq!(a.rationale, b.rationale);
        }
    }

    #[test]
    fn budget_excluding_everything_is_an_error() {
        let err = plan_dag(
            DagWorkload::Hamming,
            &ClusterSpec::default().with_q_budget(1),
            Scale::Small,
        )
        .unwrap_err();
        assert!(matches!(err, PlanError::NoFeasiblePoint { budget: 1, .. }));
    }
}
