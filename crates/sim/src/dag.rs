//! A DAG of map-reduce rounds over one token type.
//!
//! §6.3's two-phase method chains two rounds: the first round's reduce
//! output is the second round's map input. Planners need the general
//! form: a **DAG** whose nodes are rounds, whose edges say "this round's
//! reduce output is (part of) that round's map input", and whose
//! per-node execution can be budgeted and measured individually.
//! [`DagJob`] is that executor, and the crate's one way to chain rounds
//! (a linear chain is the DAG with one node per level). Every round
//! shares a single *token* type `T` (an enum in practice), which is what
//! lets arbitrary topologies be built at run time — the plan layer's
//! round-structure search enumerates these.
//!
//! Execution contract (the same one every other path in this crate
//! obeys):
//!
//! * **Determinism** — outputs and semantic [`RoundMetrics`] are
//!   byte-identical at every worker count, because each round runs on the
//!   engine's order-insensitive shuffle and the staging below is fixed by
//!   the topology, not by thread timing.
//! * **Budget aborts** — each node may carry its own reducer budget;
//!   within a round the engine reports the smallest over-budget key
//!   (its smallest-offender contract), and when several nodes of one
//!   stage fail, the error of the smallest node index is returned, so
//!   multi-node failures are deterministic too.
//! * **Staging** — nodes execute in ASAP levels (a node runs as soon as
//!   all its dependencies have), each level one [`fan_out`] — a batch
//!   on the resident [`WorkerPool`](crate::WorkerPool) — as wide as the
//!   level, with concurrently-running nodes collected in index order.

use crate::engine::{run_round, EngineConfig, EngineError};
use crate::mapper::{Mapper, Reducer};
use crate::metrics::{JobMetrics, RoundMetrics};
use crate::pool::fan_out;
use crate::schema::{schema_round, LoadTable, RoundCensus, SchemaJob};
use std::borrow::Cow;
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::Arc;

type NodeFn<T> =
    Box<dyn Fn(&[T], &EngineConfig) -> Result<(Vec<T>, RoundMetrics), EngineError> + Sync>;

/// A round's map-side census over an input stream: its mapper's emitted
/// keys folded into a [`LoadTable`], nothing shuffled or reduced.
type CensusFn<T> = Box<dyn Fn(&[T]) -> RoundCensus + Sync>;

/// One round of a [`DagJob`]: a name, the rounds feeding it, an optional
/// reducer budget overriding the base configuration's, and the round
/// body.
struct DagNode<T> {
    name: String,
    deps: Vec<usize>,
    budget: Option<u64>,
    run: NodeFn<T>,
    census: CensusFn<T>,
}

/// A DAG of map-reduce rounds over a uniform token type `T`.
///
/// Nodes are added in topological order (every dependency index must be
/// smaller than the node's own index). Nodes without dependencies read
/// the external inputs; a node with dependencies reads the concatenation
/// of its dependencies' outputs in declaration order. The job's outputs
/// are the concatenated outputs of every *sink* (a node no other node
/// depends on), in node order.
pub struct DagJob<T> {
    nodes: Vec<DagNode<T>>,
}

impl<T: Clone + Send + Sync + 'static> Default for DagJob<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone + Send + Sync + 'static> DagJob<T> {
    /// An empty DAG.
    pub fn new() -> Self {
        DagJob { nodes: Vec::new() }
    }

    fn push_node(
        &mut self,
        name: String,
        deps: Vec<usize>,
        run: NodeFn<T>,
        census: CensusFn<T>,
    ) -> usize {
        let idx = self.nodes.len();
        assert!(
            deps.iter().all(|&d| d < idx),
            "node {idx}: dependencies must point at earlier nodes (got {deps:?})"
        );
        self.nodes.push(DagNode {
            name,
            deps,
            budget: None,
            run,
            census,
        });
        idx
    }

    /// Adds a mapper/reducer round, returning its node index.
    ///
    /// # Panics
    /// Panics unless every dependency index refers to an earlier node.
    pub fn add_round<K, V, M, R>(
        &mut self,
        name: impl Into<String>,
        deps: Vec<usize>,
        mapper: M,
        reducer: R,
    ) -> usize
    where
        K: Ord + Hash + Debug + Send + Sync + 'static,
        V: Send + Sync + 'static,
        M: Mapper<T, K, V> + Send + 'static,
        R: Reducer<K, V, T> + 'static,
    {
        let mapper = Arc::new(mapper);
        let census_mapper = Arc::clone(&mapper);
        self.push_node(
            name.into(),
            deps,
            Box::new(move |inputs, cfg| run_round(inputs, &*mapper, &reducer, cfg)),
            Box::new(move |inputs| {
                let mut table = LoadTable::<K>::default();
                for input in inputs {
                    census_mapper.map(input, &mut |key, _| table.record(key));
                }
                table.census()
            }),
        )
    }

    /// Adds a round executing a [`SchemaJob`] — the DAG-shaped view of
    /// [`run_schema`](crate::run_schema), byte-identical to it (the
    /// degenerate single-node DAG *is* `run_schema`).
    ///
    /// # Panics
    /// Panics unless every dependency index refers to an earlier node.
    pub fn add_schema_round<S>(
        &mut self,
        name: impl Into<String>,
        deps: Vec<usize>,
        schema: S,
    ) -> usize
    where
        S: SchemaJob<T, T> + Send + 'static,
    {
        let schema = Arc::new(schema);
        let census_schema = Arc::clone(&schema);
        self.push_node(
            name.into(),
            deps,
            Box::new(move |inputs, cfg| {
                let (mapper, reducer) = schema_round(&*schema);
                run_round(inputs, &mapper, &reducer, cfg)
            }),
            Box::new(move |inputs| LoadTable::of(&*census_schema, inputs).census()),
        )
    }

    /// Sets a per-node reducer budget: the node's round runs with
    /// `max_reducer_inputs = q`, overriding the base configuration's
    /// budget for that round only.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn set_budget(&mut self, node: usize, q: u64) {
        self.nodes[node].budget = Some(q);
    }

    /// Number of rounds (nodes) in the DAG.
    pub fn num_rounds(&self) -> usize {
        self.nodes.len()
    }

    /// The node names, in node order.
    pub fn round_names(&self) -> Vec<&str> {
        self.nodes.iter().map(|n| n.name.as_str()).collect()
    }

    /// ASAP level of every node: 0 for source nodes, else one more than
    /// the deepest dependency.
    fn levels(&self) -> Vec<usize> {
        let mut levels = vec![0usize; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            levels[i] = node.deps.iter().map(|&d| levels[d] + 1).max().unwrap_or(0);
        }
        levels
    }

    /// Critical-path length: the number of sequential stages execution
    /// needs (1 for a single round, `num_rounds` for a linear chain).
    pub fn depth(&self) -> usize {
        self.levels().iter().map(|&l| l + 1).max().unwrap_or(0)
    }

    /// Executes the DAG. See the module docs for the staging, output,
    /// and error contracts.
    pub fn run(
        &self,
        inputs: &[T],
        config: &EngineConfig,
    ) -> Result<(Vec<T>, JobMetrics), EngineError> {
        let _dag_span = mr_obs::span("dag.run");
        let levels = self.levels();
        let max_level = levels.iter().copied().max().unwrap_or(0);
        let mut results: Vec<Option<(Vec<T>, RoundMetrics)>> = Vec::new();
        results.resize_with(self.nodes.len(), || None);

        for level in 0..=max_level {
            let _level_span = mr_obs::span_with(|| format!("dag.level.{level}"));
            let stage: Vec<usize> = (0..self.nodes.len())
                .filter(|&i| levels[i] == level)
                .collect();
            // Each stage node's input stream, fixed up front.
            let staged: Vec<(usize, Cow<[T]>)> = stage
                .iter()
                .map(|&i| (i, self.node_input(i, inputs, &results)))
                .collect();

            // A level is as wide as its nodes, whatever the rounds inside
            // are configured to use; a one-node level runs on the caller.
            let outcomes = fan_out(staged.len(), staged, |(i, input)| {
                (i, self.run_node(i, &input, config))
            });

            // Deterministic multi-failure contract: the smallest failing
            // node index wins (mirroring the engine's smallest-offender
            // rule within a round). Outcomes come back in node order, so
            // that is the first failure met.
            for (i, outcome) in outcomes {
                results[i] = Some(outcome?);
            }
        }

        // Sinks in node order carry the job's outputs.
        let consumed = self.consumed();
        let mut outputs = Vec::new();
        let mut rounds = Vec::with_capacity(self.nodes.len());
        for (i, slot) in results.into_iter().enumerate() {
            // Cannot fire: every level ran each of its nodes, and a
            // failing level returned above.
            let (out, metrics) = slot.expect("every node ran");
            if !consumed[i] {
                outputs.extend(out);
            }
            rounds.push(metrics);
        }
        Ok((outputs, JobMetrics { rounds }))
    }

    /// Prices every round without executing the DAG: per node, the
    /// `(q, pairs, reducers)` that [`run`](Self::run) would measure there.
    ///
    /// §2.2 obliviousness makes those numbers a fold over the round's
    /// map-side assignment, so a node built by
    /// [`add_round`](Self::add_round) /
    /// [`add_schema_round`](Self::add_schema_round) is priced by folding
    /// its mapper's emitted keys into a [`LoadTable`]; nothing is
    /// shuffled, grouped or reduced for it. A node's reducers run **only
    /// when another node consumes its output** (that output is the
    /// consumer's input, and only the reducers can say what it is) —
    /// sinks never reduce. Consumed nodes run sequentially on the engine
    /// and are read off their measured metrics.
    ///
    /// Pricing asks what a round *would* load, so per-node budgets are
    /// not applied, to a sink or to a consumed node.
    pub fn census(&self, inputs: &[T]) -> Result<Vec<RoundCensus>, EngineError> {
        let consumed = self.consumed();
        let config = EngineConfig::sequential();
        let mut results: Vec<Option<(Vec<T>, RoundMetrics)>> = Vec::new();
        results.resize_with(self.nodes.len(), || None);
        let mut priced = Vec::with_capacity(self.nodes.len());
        // Node order is a topological order: dependencies point backwards.
        for (i, node) in self.nodes.iter().enumerate() {
            let _span = mr_obs::span_with(|| format!("dag.census.{}", node.name));
            let input = self.node_input(i, inputs, &results);
            if consumed[i] {
                let ran = (node.run)(&input, &config)?;
                priced.push(RoundCensus::from(&ran.1));
                results[i] = Some(ran);
            } else {
                priced.push((node.census)(&input));
            }
        }
        Ok(priced)
    }

    /// Which nodes feed another node (the rest are sinks).
    fn consumed(&self) -> Vec<bool> {
        let mut consumed = vec![false; self.nodes.len()];
        for node in &self.nodes {
            for &d in &node.deps {
                consumed[d] = true;
            }
        }
        consumed
    }

    /// Node `i`'s input stream: the external inputs for a source node,
    /// else its dependencies' outputs concatenated in declaration order.
    fn node_input<'a>(
        &self,
        i: usize,
        inputs: &'a [T],
        results: &[Option<(Vec<T>, RoundMetrics)>],
    ) -> Cow<'a, [T]> {
        let deps = &self.nodes[i].deps;
        if deps.is_empty() {
            return Cow::Borrowed(inputs);
        }
        // Cannot fire: `add_round` admits only earlier nodes as
        // dependencies, so each sits on an earlier level, which has run.
        deps.iter()
            .flat_map(|&d| {
                results[d]
                    .as_ref()
                    .expect("dependency ran earlier")
                    .0
                    .iter()
            })
            .cloned()
            .collect()
    }

    /// Runs one node under the base configuration, with the node's
    /// budget, if it has one, in place of the base budget.
    fn run_node(
        &self,
        i: usize,
        input: &[T],
        config: &EngineConfig,
    ) -> Result<(Vec<T>, RoundMetrics), EngineError> {
        let node = &self.nodes[i];
        let _span = mr_obs::span_with(|| format!("dag.node.{}", node.name));
        let mut cfg = config.clone();
        cfg.max_reducer_inputs = node.budget.or(config.max_reducer_inputs);
        (node.run)(input, &cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{FnMapper, FnReducer};
    use crate::schema::{run_schema, ReducerId};

    /// Sum tokens by residue class: one keyed round.
    fn sum_round(dag: &mut DagJob<u64>, name: &str, deps: Vec<usize>, modulus: u64) -> usize {
        dag.add_round(
            name,
            deps,
            FnMapper(move |x: &u64, emit: &mut dyn FnMut(u64, u64)| emit(x % modulus, *x)),
            FnReducer(|k: &u64, vs: &[u64], emit: &mut dyn FnMut(u64)| {
                emit(k * 1_000_000 + vs.iter().sum::<u64>())
            }),
        )
    }

    #[test]
    fn linear_chain_matches_sequential_rounds() {
        // DAG a → b must equal round a, then round b over a's outputs.
        let mut dag: DagJob<u64> = DagJob::new();
        let a = sum_round(&mut dag, "a", vec![], 3);
        sum_round(&mut dag, "b", vec![a], 2);
        assert_eq!(dag.num_rounds(), 2);
        assert_eq!(dag.depth(), 2);
        let inputs: Vec<u64> = (0..30).collect();
        let cfg = EngineConfig::sequential();
        let (out, m) = dag.run(&inputs, &cfg).unwrap();

        let sum = FnReducer(|k: &u64, vs: &[u64], emit: &mut dyn FnMut(u64)| {
            emit(k * 1_000_000 + vs.iter().sum::<u64>())
        });
        let by = |modulus: u64| {
            FnMapper(move |x: &u64, emit: &mut dyn FnMut(u64, u64)| emit(x % modulus, *x))
        };
        let (mid, first) = run_round(&inputs, &by(3), &sum, &cfg).unwrap();
        let (last, second) = run_round(&mid, &by(2), &sum, &cfg).unwrap();
        assert_eq!(out, last);
        assert_eq!(m.rounds, vec![first, second]);
        assert_eq!(m.total_communication(), 30 + 3);
    }

    #[test]
    fn diamond_topology_is_worker_independent() {
        // fan-out → two parallel branches → join: the canonical diamond.
        let build = || {
            let mut dag: DagJob<u64> = DagJob::new();
            let src = sum_round(&mut dag, "src", vec![], 7);
            let left = sum_round(&mut dag, "left", vec![src], 3);
            let right = sum_round(&mut dag, "right", vec![src], 5);
            sum_round(&mut dag, "join", vec![left, right], 2);
            dag
        };
        assert_eq!(build().depth(), 3);
        let inputs: Vec<u64> = (0..200).map(|i| i * 13 + 1).collect();
        let (seq, ms) = build().run(&inputs, &EngineConfig::sequential()).unwrap();
        for workers in [1usize, 2, 4, 8, 16] {
            let (par, mp) = build()
                .run(&inputs, &EngineConfig::parallel(workers))
                .unwrap();
            assert_eq!(seq, par, "workers={workers}");
            assert_eq!(ms, mp, "workers={workers}");
        }
    }

    #[test]
    fn multiple_sinks_concatenate_in_node_order() {
        let mut dag: DagJob<u64> = DagJob::new();
        let src = sum_round(&mut dag, "src", vec![], 4);
        sum_round(&mut dag, "sink-a", vec![src], 2);
        sum_round(&mut dag, "sink-b", vec![src], 3);
        let (out, m) = dag
            .run(&(0..20).collect::<Vec<_>>(), &EngineConfig::sequential())
            .unwrap();
        assert_eq!(m.rounds.len(), 3);
        // sink-a's outputs come first, then sink-b's.
        let (a_out, _) = {
            let mut d: DagJob<u64> = DagJob::new();
            let s = sum_round(&mut d, "src", vec![], 4);
            sum_round(&mut d, "sink-a", vec![s], 2);
            d.run(&(0..20).collect::<Vec<_>>(), &EngineConfig::sequential())
                .unwrap()
        };
        assert_eq!(&out[..a_out.len()], &a_out[..]);
    }

    #[test]
    fn per_node_budget_aborts_with_the_offending_round() {
        let mut dag: DagJob<u64> = DagJob::new();
        let a = sum_round(&mut dag, "a", vec![], 10);
        let b = sum_round(&mut dag, "b", vec![a], 1); // funnels into 1 key
        dag.set_budget(b, 2);
        let err = dag
            .run(&(0..30).collect::<Vec<_>>(), &EngineConfig::sequential())
            .unwrap_err();
        assert!(
            matches!(err, EngineError::ReducerOverflow { load: 10, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn node_budget_overrides_the_base_config() {
        let mut dag: DagJob<u64> = DagJob::new();
        let n = sum_round(&mut dag, "only", vec![], 1); // all 30 on one key
        dag.set_budget(n, 64);
        // Base budget of 2 would abort; the node override lifts it.
        let cfg = EngineConfig::sequential().with_max_reducer_inputs(2);
        let (out, _) = dag.run(&(0..30).collect::<Vec<_>>(), &cfg).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn base_budget_aborts_the_second_level() {
        // No node override: the base budget q = 3 admits level 0 (ten
        // keys of three) and aborts level 1, which funnels its ten
        // inputs into one key.
        let mut dag: DagJob<u64> = DagJob::new();
        let a = sum_round(&mut dag, "a", vec![], 10);
        sum_round(&mut dag, "b", vec![a], 1);
        let cfg = EngineConfig::sequential().with_max_reducer_inputs(3);
        let err = dag.run(&(0..30).collect::<Vec<_>>(), &cfg).unwrap_err();
        assert_eq!(
            err,
            EngineError::ReducerOverflow {
                key: "0".into(),
                load: 10,
                limit: 3
            }
        );
    }

    #[test]
    fn concurrent_failures_report_the_smallest_node() {
        // Two same-stage nodes both overflow; node index 1 must win.
        let build = || {
            let mut dag: DagJob<u64> = DagJob::new();
            let src = sum_round(&mut dag, "src", vec![], 16);
            let b = sum_round(&mut dag, "b", vec![src], 1);
            let c = sum_round(&mut dag, "c", vec![src], 1);
            dag.set_budget(b, 3);
            dag.set_budget(c, 2);
            dag
        };
        let inputs: Vec<u64> = (0..64).collect();
        for workers in [1usize, 4, 8] {
            let err = build()
                .run(&inputs, &EngineConfig::parallel(workers))
                .unwrap_err();
            // Node b (budget 3) fails with load 16; node c would fail
            // with budget 2 — but b has the smaller index.
            assert!(
                matches!(err, EngineError::ReducerOverflow { limit: 3, .. }),
                "workers={workers}: {err:?}"
            );
        }
    }

    #[test]
    fn single_schema_node_equals_run_schema() {
        #[derive(Clone)]
        struct Fan;
        impl SchemaJob<u64, u64> for Fan {
            fn assign(&self, x: &u64) -> Vec<ReducerId> {
                vec![x % 5, x % 7]
            }
            fn reduce(&self, r: ReducerId, inputs: &[u64], emit: &mut dyn FnMut(u64)) {
                emit(r * 1_000 + inputs.len() as u64);
            }
        }
        let inputs: Vec<u64> = (0..100).collect();
        let (expect, expect_m) = run_schema(&inputs, &Fan, &EngineConfig::sequential()).unwrap();
        let mut dag: DagJob<u64> = DagJob::new();
        dag.add_schema_round("fan", vec![], Fan);
        assert_eq!(dag.depth(), 1);
        let (out, m) = dag.run(&inputs, &EngineConfig::parallel(4)).unwrap();
        assert_eq!(out, expect);
        assert_eq!(m.rounds, vec![expect_m]);
    }

    #[test]
    fn census_reduces_consumed_nodes_once_and_sinks_never() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // src feeds left and right; left feeds join; right and join are
        // sinks. Every reducer call is counted per node.
        let calls: Arc<[AtomicUsize; 4]> = Arc::default();
        let mut dag: DagJob<u64> = DagJob::new();
        let mut counted = |name: &str, deps: Vec<usize>, modulus: u64| {
            let calls = Arc::clone(&calls);
            let node = dag.num_rounds();
            dag.add_round(
                name,
                deps,
                FnMapper(move |x: &u64, emit: &mut dyn FnMut(u64, u64)| emit(x % modulus, *x)),
                FnReducer(move |k: &u64, vs: &[u64], emit: &mut dyn FnMut(u64)| {
                    calls[node].fetch_add(1, Ordering::Relaxed);
                    emit(k * 1_000_000 + vs.iter().sum::<u64>())
                }),
            )
        };
        let src = counted("src", vec![], 7);
        let left = counted("left", vec![src], 3);
        counted("right", vec![src], 5);
        counted("join", vec![left], 2);
        let inputs: Vec<u64> = (0..200).map(|i| i * 13 + 1).collect();

        let priced = dag.census(&inputs).unwrap();
        let reduced: Vec<usize> = calls.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        // A consumed node ran each of its reducers exactly once — however
        // many nodes read it — and no sink ran any.
        assert_eq!(reduced, vec![7, 3, 0, 0]);

        let (_, measured) = dag.run(&inputs, &EngineConfig::sequential()).unwrap();
        let measured: Vec<RoundCensus> = measured.rounds.iter().map(RoundCensus::from).collect();
        assert_eq!(priced, measured);
    }

    /// Neither way of pricing a node — folding a sink's assignment,
    /// running a consumed node, whose body only a run can see through —
    /// applies the node's budget.
    #[test]
    fn census_prices_an_opaque_body_by_running_it_without_its_budget() {
        let mut dag: DagJob<u64> = DagJob::new();
        let halves = |dag: &mut DagJob<u64>, name: &str, deps: Vec<usize>| {
            let node = dag.add_round(
                name,
                deps,
                FnMapper(|x: &u64, emit: &mut dyn FnMut(u64, u64)| emit(x % 2, *x)),
                FnReducer(|_: &u64, vs: &[u64], emit: &mut dyn FnMut(u64)| emit(vs[0])),
            );
            dag.set_budget(node, 1);
            node
        };
        let inputs: Vec<u64> = (0..10).collect();
        let over_budget = RoundCensus {
            q: 5,
            pairs: 10,
            reducers: 2,
        };
        // As a sink: priced by folding its mapper's keys.
        let first = halves(&mut dag, "first", vec![]);
        assert!(dag.run(&inputs, &EngineConfig::sequential()).is_err());
        assert_eq!(dag.census(&inputs).unwrap(), vec![over_budget]);
        // Consumed: priced by running it, so that `second` has an input.
        halves(&mut dag, "second", vec![first]);
        assert!(dag.run(&inputs, &EngineConfig::sequential()).is_err());
        assert_eq!(
            dag.census(&inputs).unwrap(),
            vec![
                over_budget,
                RoundCensus {
                    q: 1,
                    pairs: 2,
                    reducers: 2
                }
            ]
        );
    }

    #[test]
    #[should_panic(expected = "dependencies must point at earlier nodes")]
    fn forward_dependencies_are_rejected() {
        let mut dag: DagJob<u64> = DagJob::new();
        sum_round(&mut dag, "bad", vec![3], 2);
    }
}
