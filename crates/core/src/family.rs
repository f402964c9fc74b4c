//! The type-erased problem-family registry.
//!
//! The paper's thesis is that **one model** — potential inputs/outputs, a
//! mapping schema, the §2.4 recipe — covers every family it analyses,
//! from Hamming distance to Shares joins. This module makes the
//! *execution* side match: every family is a [`DynFamily`] — a name, an
//! instance description, a grid of [`GridPoint`]s (declared budget,
//! schema name, lower-bound recipe), and a type-erased
//! [`run`](DynFamily::run) entry that executes one grid point through the
//! engine. [`registry`] returns all implemented families as boxed trait
//! objects, so consumers (the frontier sweep, the `repro` driver, the
//! test batteries) iterate families without ever naming a concrete input
//! or output type.
//!
//! [`DynFamily`] is the erasure boundary. Below it each family keeps its
//! typed instance inputs and typed [`SchemaJob`]s, and
//! [`run`](DynFamily::run) executes a grid point with
//! [`mr_sim::run_schema`] over those very values, counting the schema's
//! outputs instead of keeping them. Above it nothing names an input or
//! output type. This module only decides *which* schema runs on *which*
//! instance.
//!
//! # Scales and scenarios
//!
//! Each family exposes three [`Scale`] presets. [`Scale::Default`] is the
//! grid the `repro frontier` experiment and its byte-identical-output
//! tests pin down; [`Scale::Small`] keeps exhaustive validation cheap
//! (the validation-vs-engine parity tests run here); [`Scale::Full`]
//! stretches the instances for benchmarking. Beyond the six
//! complete-instance families, [`sparse_scenarios`] adds the §4.2/§5.3
//! edge-budget variants: seeded `G(n, m)` random data graphs where the
//! recipe's `|I|` and `|O|` are the *instance's* edge and occurrence
//! counts rather than the complete model's.
//!
//! # One census, one record per quantity
//!
//! §2.2 makes `q`, `r`, the pair count and the reducer count folds over a
//! schema's input→reducer assignment. That fold exists once, in
//! [`mr_sim::LoadTable`]; pricing a `(removed, added)` change against a
//! load table exists once, in [`mr_sim::price_change`]. Their results are
//! stored in one record type per quantity: a predicted round is a
//! [`RoundCensus`], a priced change a [`DeltaPrediction`], a measured
//! round or apply the engine's [`RoundMetrics`](mr_sim::RoundMetrics) /
//! [`DeltaMetrics`], and a measured grid point one [`FamilyPoint`].
//! [`DeltaCensus`] and [`DeltaReport`] hold those records, not copies of
//! their fields, so prediction and measurement compare as values.
//!
//! # Adding a family
//!
//! A family is a **constructor plus a grid**: a function that builds the
//! instance inputs and one `Point` per schema parameterisation — declared
//! budget, display name, the §2.4 recipe, the schema itself (any
//! [`SchemaJob`]), and, for complete model instances, the problem to
//! validate it against — and returns them as the module's single generic
//! `Family` adaptor. Every [`DynFamily`] method is implemented once, on
//! that adaptor. Add a match arm in [`family_by_name`] and the name in
//! the registry order, and nothing else changes: the sweep, `repro
//! frontier`, the planners and the batteries pick the new family up from
//! the registry. The README's "adding a new problem family" walkthrough
//! shows a worked example.

use crate::frontier::bound_gap;
use crate::model::{validate_schema, MappingSchema, Problem, SchemaReport};
use crate::problems::hamming::{DistanceDSplittingSchema, HammingProblem};
use crate::problems::join::problem::{MultiwayJoinProblem, SharesOverDomain};
use crate::problems::join::query::Query;
use crate::problems::join::shares::SharesSchema;
use crate::problems::matmul::problem::{numeric_inputs, NumericEntry};
use crate::problems::matmul::{MatMulProblem, Matrix, OnePhaseSchema};
use crate::problems::sample_graph::{MultisetPartitionSchema, SampleGraphProblem};
use crate::problems::triangle::{g_triangles, TriangleProblem};
use crate::problems::two_path::{BucketPairSchema, PerNodeSchema, TwoPathProblem};
use crate::recipe::LowerBoundRecipe;
use mr_graph::{gen, patterns, subgraph, Graph};
use mr_sim::schema::{ReducerId, SchemaJob};
use mr_sim::{
    predict_delta, run_schema, run_schema_retained, Delta, DeltaMetrics, DeltaPrediction,
    EngineConfig, EngineError, LoadTable, Pipeline, RoundCensus, Seq,
};
use std::time::{Duration, Instant};

/// Instance-size preset of the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Instances small enough for exhaustive schema validation in tests.
    Small,
    /// The grid `repro frontier` pins down byte-for-byte.
    #[default]
    Default,
    /// Stretched instances for benchmarking.
    Full,
}

impl Scale {
    /// Every preset, smallest first.
    pub const ALL: [Scale; 3] = [Scale::Small, Scale::Default, Scale::Full];

    /// The preset's selector token (`small`/`default`/`full`).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Default => "default",
            Scale::Full => "full",
        }
    }
}

/// One declared point of a family's schema grid: the §2.2 design budget,
/// the schema's display name, and the family's §2.4 recipe evaluated at
/// that point.
#[derive(Clone)]
pub struct GridPoint {
    /// The schema's declared reducer budget (its design `q`; the measured
    /// load never exceeds it).
    pub q_declared: u64,
    /// Schema name with its grid parameter, e.g. `splitting-d(b=10, k=5, d=1)`.
    pub schema: String,
    /// The family's §2.4 lower-bound recipe.
    pub recipe: LowerBoundRecipe,
}

/// An index-based delta request crossing the erased registry boundary:
/// which of a family's instance inputs form the retained **base**, which
/// base positions a delta removes, and which further instance inputs it
/// adds.
///
/// Indices in `base` and `add` address the family's instance input slice
/// (`0..num_inputs`); entries of `remove` are *positions within `base`*
/// (equivalently, the [`Seq`] ids the retained run assigned,
/// since the base receives seqs `0..base.len()` in order). Specs must be
/// well-formed — in-range indices, no repeated removal position;
/// [`DynFamily::delta_census`] refuses a malformed `remove` by name, the
/// way [`mr_sim::DeltaJob::predict`] refuses an unknown [`Seq`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaSpec {
    /// Instance-input indices forming the retained base, in order.
    pub base: Vec<usize>,
    /// Positions within `base` to remove.
    pub remove: Vec<usize>,
    /// Instance-input indices to add.
    pub add: Vec<usize>,
}

impl DeltaSpec {
    /// Number of changed inputs.
    pub fn changes(&self) -> usize {
        self.remove.len() + self.add.len()
    }

    /// The deterministic churn `repro delta` executes on an instance of
    /// `num_inputs` inputs: the first ~90% form the retained base, every
    /// 7th base position is removed, and the held-out tail is added.
    /// No randomness — the spec (and so the whole report) is a pure
    /// function of the instance size.
    pub fn tail_churn(num_inputs: usize) -> DeltaSpec {
        let split = num_inputs - num_inputs / 10;
        DeltaSpec {
            base: (0..split).collect(),
            remove: (0..split).step_by(7).collect(),
            add: (split..num_inputs).collect(),
        }
    }
}

/// What a [`DeltaSpec`] *will* touch, computed from the schema's
/// assignment function alone — no engine, no reduce work: the base
/// instance's census and the priced change. Exact by §2.2 obliviousness,
/// so [`delta_run`](DynFamily::delta_run) executes under `delta.post_q`
/// as a hard reducer budget and an under-prediction aborts loudly (the
/// planner layer's honesty contract, extended to deltas).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaCensus {
    /// The retained base instance's census.
    pub base: RoundCensus,
    /// What the delta does to it.
    pub delta: DeltaPrediction,
}

/// The result of one incremental execution through
/// [`delta_run`](DynFamily::delta_run): the delta path's measurements next
/// to the census of a full run, plus the two correctness verdicts the
/// battery asserts per family.
#[derive(Debug, Clone)]
pub struct DeltaReport {
    /// Inputs in the retained base.
    pub base_inputs: u64,
    /// What the delta application measured — its `dirty_reducers` and
    /// `delta_pairs` against [`full`](DeltaReport::full)'s `reducers` and
    /// `pairs` for the saving; its `wall` is execution metadata.
    pub metrics: DeltaMetrics,
    /// The census of a full run of the post-delta instance.
    pub full: RoundCensus,
    /// Outputs of the post-delta instance.
    pub outputs_total: u64,
    /// Whether the retained result equals the full run of the post-delta
    /// instance **byte-identically** (outputs and semantic metrics) —
    /// `full_run(I ∪ ΔI) == apply(delta_run(ΔI), retained)`.
    pub matches_full_run: bool,
    /// Whether the census's [`DeltaPrediction`] equals the one the
    /// application measured.
    pub prediction_exact: bool,
    /// The census the run was priced (and budgeted) with.
    pub census: DeltaCensus,
    /// Wall-clock of the oracle full run (execution metadata).
    pub wall_full: Duration,
}

/// The result of executing one grid point through the engine.
#[derive(Debug, Clone)]
pub struct FamilyPoint {
    /// Schema name with its grid parameter, e.g. `splitting-d(b=10, k=5, d=1)`.
    pub algorithm: String,
    /// The schema's declared reducer budget (its design `q`).
    pub q_declared: u64,
    /// Measured maximum reducer load — the point's effective `q`.
    pub q: u64,
    /// Measured replication rate `(shuffled pairs) / (inputs)`.
    pub r: f64,
    /// The family's clamped §2.4 lower bound evaluated at the measured `q`.
    pub bound: f64,
    /// Gap ratio `r / bound` (≥ 1 for every valid schema).
    pub gap: f64,
    /// Reducer-load skew `max / mean` (1.0 when perfectly balanced).
    pub load_skew: f64,
    /// Shuffle partition skew (execution metadata; 1 partition when the
    /// engine runs sequentially, so 1.0 or 0.0 there).
    pub partition_skew: f64,
    /// Bytes the columnar shuffle moved — `pairs × (fingerprint + key +
    /// value width)`, the value being one of the family's typed inputs:
    /// the paper's communication cost in bytes rather than pairs.
    /// Execution metadata, like `wall`.
    pub shuffle_bytes: u64,
    /// Per-partition shuffle occupancy histogram (raw pair count of each
    /// hash partition, in partition order) — execution metadata: its
    /// length is the engine's partition count.
    pub bucket_loads: Vec<u64>,
    /// Outputs the round emitted.
    pub outputs: u64,
    /// Wall-clock time of the engine round (execution metadata).
    pub wall: Duration,
}

/// A problem family with everything needed to measure its `(q, r)`
/// frontier, behind a type-erased interface.
///
/// Implementations own their instance data (built once at registry
/// construction) and are `Sync`, so a sweep can fan grid points out
/// across threads sharing `&dyn DynFamily`.
pub trait DynFamily: Send + Sync {
    /// Stable family identifier (used by tests, JSON consumers, and the
    /// `repro frontier` selector).
    fn name(&self) -> &'static str;

    /// Human-readable description of the instance swept.
    fn instance(&self) -> String;

    /// The family's schema grid, cheapest-`q` parameterisations first or
    /// in any fixed order — consumers sort measured points by `(q, name)`.
    fn grid(&self) -> Vec<GridPoint>;

    /// Executes grid point `point` through the engine.
    ///
    /// # Errors
    /// [`EngineError::ReducerOverflow`] if `engine` carries a
    /// `max_reducer_inputs` budget smaller than the point's load — how a
    /// planner's under-prediction surfaces (`Plan::execute` runs every
    /// plan under its own predicted `q`).
    ///
    /// # Panics
    /// Panics if `point` is out of range for [`grid`](DynFamily::grid).
    fn run(&self, point: usize, engine: &EngineConfig) -> Result<FamilyPoint, EngineError>;

    /// Exhaustively validates grid point `point` against the family's
    /// §2 problem ([`validate_schema`]), where that is meaningful:
    /// complete-instance families return `Some`, instance-specific
    /// scenarios (sparse random graphs) return `None`.
    fn validate(&self, point: usize) -> Option<SchemaReport>;

    /// Exact map-side prediction of grid point `point`: the census
    /// [`run`](DynFamily::run) will measure, read off the point's
    /// [`LoadTable`]. Costs one pass of the assignment function over the
    /// instance; never runs the engine. The point's `r` is `pairs` over
    /// [`num_inputs`](DynFamily::num_inputs) (0 for an empty instance).
    ///
    /// # Panics
    /// Panics if `point` is out of range for [`grid`](DynFamily::grid).
    fn census(&self, point: usize) -> RoundCensus;

    /// The instance's defining parameters as `(name, value)` pairs — the
    /// type-erased hook the planner layer uses to evaluate the paper's
    /// closed forms. Every family exposes `n` (or `b` for Hamming); e.g.
    /// matmul's `n` lets a planner place the §6 one- vs two-phase
    /// crossover at `q = n²`.
    fn params(&self) -> Vec<(&'static str, u64)>;

    /// Number of inputs in the family's instance — the index space
    /// [`DeltaSpec`]s address.
    fn num_inputs(&self) -> usize;

    /// Map-side prediction of what `spec` will touch at grid point
    /// `point`: the base's [`RoundCensus`] and the change's
    /// [`DeltaPrediction`] — see [`DeltaCensus`]. Never runs the engine.
    ///
    /// # Panics
    /// Panics if `point` is out of range, if `spec.base`/`spec.add` hold
    /// out-of-range instance indices, or — naming the family, the point
    /// and the offending position, identically in debug and release
    /// builds — if `spec.remove` holds a position outside `base` or
    /// repeats one.
    fn delta_census(&self, point: usize, spec: &DeltaSpec) -> DeltaCensus;

    /// Executes `spec` incrementally at grid point `point`: retains the
    /// base, applies the delta
    /// (re-executing only the dirty reducers, under the census-predicted
    /// post-`q` as a hard budget), runs the full-instance oracle, and
    /// reports both sides — see [`DeltaReport`].
    ///
    /// # Panics
    /// Panics if `point`/`spec` are out of range, if `spec.remove`
    /// repeats a position, or if the census-predicted budget overflows
    /// (a prediction bug by definition).
    fn delta_run(&self, point: usize, engine: &EngineConfig, spec: &DeltaSpec) -> DeltaReport;
}

// ---------------------------------------------------------------------
// The one adaptor: a family is its instance inputs plus a grid of points.
// ---------------------------------------------------------------------

/// One grid point of a [`Family`]: what [`DynFamily::grid`] declares, the
/// executable schema behind it, and — for complete model instances — the
/// exhaustive §2 validation of that schema.
struct Point<I, O> {
    declared: GridPoint,
    job: Box<dyn SchemaJob<I, O> + Send>,
    validate: Option<Box<dyn Fn() -> SchemaReport + Send + Sync>>,
}

impl<I, O> Point<I, O> {
    /// A point with an explicit budget and name, and no validator.
    fn new(
        q_declared: u64,
        schema: String,
        recipe: &LowerBoundRecipe,
        job: impl SchemaJob<I, O> + Send + 'static,
    ) -> Self {
        Point {
            declared: GridPoint {
                q_declared,
                schema,
                recipe: recipe.clone(),
            },
            job: Box::new(job),
            validate: None,
        }
    }

    /// A point whose budget and name are the ones `schema` declares as a
    /// [`MappingSchema`] of problem `P`.
    fn of<P, S>(schema: S, recipe: &LowerBoundRecipe) -> Self
    where
        P: Problem,
        S: MappingSchema<P> + SchemaJob<I, O> + Send + 'static,
    {
        let (q, name) = (schema.max_inputs_per_reducer(), schema.name());
        Point::new(q, name, recipe, schema)
    }

    /// Adds exhaustive validation of `mapping` against `problem`.
    fn validated<P, M>(mut self, problem: P, mapping: M) -> Self
    where
        P: Problem + Send + Sync + 'static,
        M: MappingSchema<P> + Send + Sync + 'static,
    {
        self.validate = Some(Box::new(move || validate_schema(&problem, &mapping)));
        self
    }
}

/// The generic [`DynFamily`]: instance inputs plus a grid of [`Point`]s.
/// Every registry family is a constructor function returning one of
/// these; every trait method below is the same few lines for all of them.
struct Family<I, O> {
    name: &'static str,
    instance: String,
    params: Vec<(&'static str, u64)>,
    inputs: Vec<I>,
    grid: Vec<Point<I, O>>,
}

impl<I, O> Family<I, O> {
    /// The schema behind grid point `point`, lendable wherever a
    /// `SchemaJob` is taken by value or by reference.
    fn job(&self, point: usize) -> &dyn SchemaJob<I, O> {
        &*self.grid[point].job
    }
}

/// A schema whose outputs are counted, not kept: it emits `()` for each
/// output the wrapped schema emits, so a registry round materialises a
/// length and nothing else.
struct CountOutputs<'a, I, O>(&'a dyn SchemaJob<I, O>);

impl<I, O> SchemaJob<I, ()> for CountOutputs<'_, I, O> {
    fn assign(&self, input: &I) -> Vec<ReducerId> {
        self.0.assign(input)
    }

    fn reduce(&self, reducer: ReducerId, inputs: &[I], emit: &mut dyn FnMut(())) {
        self.0.reduce(reducer, inputs, &mut |_| emit(()))
    }
}

impl<I, O> DynFamily for Family<I, O>
where
    I: Clone + Send + Sync,
    O: Clone + Send + PartialEq,
{
    fn name(&self) -> &'static str {
        self.name
    }

    fn instance(&self) -> String {
        self.instance.clone()
    }

    fn grid(&self) -> Vec<GridPoint> {
        self.grid.iter().map(|p| p.declared.clone()).collect()
    }

    /// The single seam between the registry and the engine: the typed
    /// schema runs through [`run_schema`] over the typed inputs, its
    /// outputs counted. `wall` times that call and nothing else.
    fn run(&self, point: usize, engine: &EngineConfig) -> Result<FamilyPoint, EngineError> {
        let declared = &self.grid[point].declared;
        let start = Instant::now();
        let (_, metrics) = run_schema(&self.inputs, &CountOutputs(self.job(point)), engine)?;
        let wall = start.elapsed();
        let (q, r) = (metrics.load.max, metrics.replication_rate());
        let bound = declared.recipe.clamped_lower_bound(q as f64);
        Ok(FamilyPoint {
            algorithm: declared.schema.clone(),
            q_declared: declared.q_declared,
            q,
            r,
            bound,
            gap: bound_gap(r, bound),
            load_skew: metrics.load.skew(),
            partition_skew: metrics.shuffle.partition_skew(),
            // Registry rounds always run the real engine, which fills the
            // byte count; `unwrap_or(0)` only guards a hypothetical synthetic
            // stats path.
            shuffle_bytes: metrics.shuffle.bytes_moved.unwrap_or(0),
            bucket_loads: metrics.shuffle.bucket_loads,
            outputs: metrics.outputs,
            wall,
        })
    }

    fn validate(&self, point: usize) -> Option<SchemaReport> {
        self.grid[point]
            .validate
            .as_ref()
            .map(|validate| validate())
    }

    fn census(&self, point: usize) -> RoundCensus {
        LoadTable::of(self.job(point), &self.inputs).census()
    }

    fn params(&self) -> Vec<(&'static str, u64)> {
        self.params.clone()
    }

    fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Prices `spec` with assignment passes alone: the base's
    /// [`LoadTable`] for the census `delta_run` budgets the retained run
    /// with, and [`predict_delta`] — the arithmetic and the
    /// malformed-removal refusal [`mr_sim::DeltaJob::predict`] uses — for
    /// what the delta does to it, against the table's loads and its
    /// histogram (built once here; a `DeltaJob` keeps its own resident).
    /// Removal positions are the base's [`Seq`] ids.
    fn delta_census(&self, point: usize, spec: &DeltaSpec) -> DeltaCensus {
        let inputs = &self.inputs;
        let base = LoadTable::of(self.job(point), spec.base.iter().map(|&ix| &inputs[ix]));
        let removed: Vec<Seq> = spec.remove.iter().map(|&pos| pos as Seq).collect();
        let delta = predict_delta(
            self.job(point),
            |rid| base.load(&rid),
            &base.histogram(),
            |seq| spec.base.get(seq as usize).map(|&ix| &inputs[ix]),
            &removed,
            spec.add.iter().map(|&ix| &inputs[ix]),
        )
        .unwrap_or_else(|e| {
            panic!(
                "{} / {} (point {point}): malformed DeltaSpec — {e} \
                 (`remove` holds positions within `base`, each at most once)",
                self.name, self.grid[point].declared.schema
            )
        });
        DeltaCensus {
            base: base.census(),
            delta,
        }
    }

    /// Runs `spec` through the retained incremental path and the full-run
    /// oracle, and packages the comparison.
    fn delta_run(&self, point: usize, engine: &EngineConfig, spec: &DeltaSpec) -> DeltaReport {
        let inputs = &self.inputs;
        let census = self.delta_census(point, spec);
        let base: Vec<I> = spec.base.iter().map(|&ix| inputs[ix].clone()).collect();
        // Removals can pull the maximum load below the base's, so the
        // retained run is budgeted at the larger of the two censuses: tight
        // enough to keep the honesty contract, loose enough that the base
        // itself fits.
        let retained_cfg = engine
            .clone()
            .with_max_reducer_inputs(census.base.q.max(census.delta.post_q));
        let mut job =
            run_schema_retained(&base, self.job(point), Pipeline::Columnar, &retained_cfg)
                .expect("a census-budgeted base run cannot overflow");

        let delta = Delta::new(
            spec.add.iter().map(|&ix| inputs[ix].clone()).collect(),
            spec.remove.iter().map(|&pos| pos as Seq).collect(),
        );
        let metrics = job
            .apply(&delta)
            .expect("a census-budgeted delta cannot overflow")
            .metrics;

        // Oracle: a fresh full run of the post-delta instance, budgeted at
        // the census-predicted post-q — an under-prediction aborts here.
        let live = job.inputs();
        let full_cfg = engine.clone().with_max_reducer_inputs(census.delta.post_q);
        let start = Instant::now();
        let (full_out, full_m) = run_schema(&live, job.schema(), &full_cfg)
            .expect("the census-predicted post-delta q cannot overflow");
        let wall_full = start.elapsed();

        let retained_m = job.metrics();
        let matches_full_run = retained_m == full_m && job.outputs() == full_out;
        let prediction_exact = census.delta
            == DeltaPrediction {
                dirty_reducers: metrics.dirty_reducers,
                delta_pairs: metrics.delta_pairs,
                post_q: retained_m.load.max,
                post_reducers: metrics.total_reducers,
            };

        DeltaReport {
            base_inputs: spec.base.len() as u64,
            metrics,
            full: RoundCensus::from(&full_m),
            outputs_total: full_out.len() as u64,
            matches_full_run,
            prediction_exact,
            census,
            wall_full,
        }
    }
}

/// Per-scale instance sizes. Default values are pinned by the
/// byte-identical `repro frontier` contract; change them only with a
/// matching baseline update.
struct Sizes {
    hamming_b: u32,
    triangle_n: u32,
    sample_n: u32,
    two_path_n: u32,
    join_n: u32,
    matmul_n: u32,
}

impl Scale {
    fn sizes(self) -> Sizes {
        match self {
            Scale::Small => Sizes {
                hamming_b: 6,
                triangle_n: 8,
                sample_n: 6,
                two_path_n: 8,
                join_n: 3,
                matmul_n: 4,
            },
            Scale::Default => Sizes {
                hamming_b: 10,
                triangle_n: 16,
                sample_n: 8,
                two_path_n: 16,
                join_n: 6,
                matmul_n: 8,
            },
            Scale::Full => Sizes {
                hamming_b: 12,
                triangle_n: 24,
                sample_n: 10,
                two_path_n: 24,
                join_n: 8,
                matmul_n: 12,
            },
        }
    }
}

// ---------------------------------------------------------------------
// The families: each a constructor that builds its instance and its grid.
// ---------------------------------------------------------------------

/// Hamming distance 1 (§3): splitting at every divisor of `b`.
fn hamming_d1(b: u32) -> Box<dyn DynFamily> {
    let problem = HammingProblem::distance_one(b);
    let recipe = problem.recipe();
    Box::new(Family {
        name: "hamming-d1",
        instance: format!("all {b}-bit strings (|I| = {})", 1u64 << b),
        params: vec![("b", b as u64)],
        inputs: (0..(1u64 << b)).collect(),
        grid: (1..=b)
            .filter(|k| b.is_multiple_of(*k))
            .map(|k| {
                let schema = DistanceDSplittingSchema::new(b, k, 1);
                Point::of::<HammingProblem, _>(schema.clone(), &recipe).validated(problem, schema)
            })
            .collect(),
    })
}

/// Triangles (§4): node partition — the multiset partition over the
/// triangle pattern — at divisor group counts.
fn triangles(n: u32) -> Box<dyn DynFamily> {
    let problem = TriangleProblem::new(n);
    let recipe = problem.recipe();
    let graph = Graph::complete(n as usize);
    Box::new(Family {
        name: "triangles",
        instance: format!("complete graph K_{n} ({} edges)", graph.num_edges()),
        params: vec![("n", n as u64)],
        inputs: graph.edges().to_vec(),
        grid: (1..=n)
            .filter(|k| n.is_multiple_of(*k) && *k <= n / 2)
            .map(|k| {
                let schema = MultisetPartitionSchema::new(patterns::triangle(), n, k);
                Point::of::<TriangleProblem, _>(schema.clone(), &recipe).validated(problem, schema)
            })
            .collect(),
    })
}

/// Sample graphs (§5.1–5.3): 4-cycle pattern, multiset partition over `k`
/// groups. The `k = n` point (one node per group) pushes the measured
/// load below `|O|/|I|`, where the unclamped `g(q) = q^{s/2}` bound
/// exceeds 1 — so the family's `r ≥ bound` check has teeth.
fn sample_c4(n: u32) -> Box<dyn DynFamily> {
    let pattern = patterns::cycle(4);
    let problem = SampleGraphProblem::new(pattern.clone(), n);
    let recipe = problem.recipe();
    let graph = Graph::complete(n as usize);
    Box::new(Family {
        name: "sample-c4",
        instance: format!("4-cycle pattern in K_{n} ({} edges)", graph.num_edges()),
        params: vec![("n", n as u64), ("s", pattern.num_nodes() as u64)],
        inputs: graph.edges().to_vec(),
        grid: [1, 2, 3, 4, n]
            .into_iter()
            .map(|k| {
                let schema = MultisetPartitionSchema::new(pattern.clone(), n, k);
                Point::of::<SampleGraphProblem, _>(schema.clone(), &recipe)
                    .validated(problem.clone(), schema)
            })
            .collect(),
    })
}

/// 2-paths (§5.4): the per-node `q = n` point plus the bucket-pair
/// refinement at power-of-two bucket counts — two schema types, one grid.
fn two_path(n: u32) -> Box<dyn DynFamily> {
    let problem = TwoPathProblem::new(n);
    let recipe = problem.recipe();
    let graph = Graph::complete(n as usize);
    let per_node = PerNodeSchema { n };
    let mut grid =
        vec![Point::of::<TwoPathProblem, _>(per_node, &recipe).validated(problem, per_node)];
    grid.extend([2, 4, 8].into_iter().map(|k| {
        let schema = BucketPairSchema::new(n, k);
        Point::of::<TwoPathProblem, _>(schema, &recipe).validated(problem, schema)
    }));
    Box::new(Family {
        name: "two-path",
        instance: format!("complete graph K_{n} ({} edges)", graph.num_edges()),
        params: vec![("n", n as u64)],
        inputs: graph.edges().to_vec(),
        grid,
    })
}

/// Multiway joins (§5.5): the cycle query `R(A,B) ⋈ S(B,C) ⋈ T(C,A)` under
/// symmetric Shares grids, `g(q) = q^ρ` by AGM (§5.5.1). The `s = n` grid
/// (one domain value per bucket) drives `q` low enough that the unclamped
/// `n/(3√q)` bound exceeds 1 — the non-vacuous point of this family's
/// `r ≥ bound` check. The engine runs the [`SharesSchema`]; budget and
/// validation come from its [`SharesOverDomain`] view of the model.
fn join_cycle3(n: u32) -> Box<dyn DynFamily> {
    let problem = MultiwayJoinProblem::new(Query::cycle(3), n);
    let recipe = problem.recipe();
    let inputs = problem.inputs();
    let mut ss: Vec<u64> = vec![1, 2, 3, n as u64];
    ss.dedup();
    Box::new(Family {
        name: "join-cycle3",
        instance: format!(
            "cycle query, complete instance on domain {n} ({} tuples)",
            inputs.len()
        ),
        params: vec![("n", n as u64), ("atoms", problem.query.atoms.len() as u64)],
        inputs,
        grid: ss
            .into_iter()
            .map(|s| {
                let schema = SharesSchema::new(problem.query.clone(), vec![s, s, s]);
                let model = SharesOverDomain::new(schema.clone(), n);
                let name = format!("shares(cycle3, s={s})");
                Point::new(model.cell_budget(), name, &recipe, schema)
                    .validated(problem.clone(), model)
            })
            .collect(),
    })
}

/// The registry's `n×n` matmul instance as engine inputs: `R` and `S`
/// drawn with seeds 3 and 4. Every matmul plan — a one-round grid point
/// or a multi-round aggregation tree — runs on it, so their measurements
/// are directly comparable.
pub fn matmul_instance(n: u32) -> Vec<NumericEntry> {
    numeric_inputs(
        &Matrix::random(n as usize, 3),
        &Matrix::random(n as usize, 4),
    )
}

/// Matrix multiplication (§6): one-phase tiling at every divisor tile
/// size. `r = 2n²/q` exactly — the bound is tight.
fn matmul(n: u32) -> Box<dyn DynFamily> {
    let problem = MatMulProblem::new(n);
    let recipe = problem.recipe();
    let inputs = matmul_instance(n);
    Box::new(Family {
        name: "matmul",
        instance: format!("{n}×{n} dense pair (|I| = {})", inputs.len()),
        params: vec![("n", n as u64)],
        inputs,
        grid: (1..=n)
            .filter(|s| n.is_multiple_of(*s))
            .map(|s| {
                let schema = OnePhaseSchema::new(n, s);
                Point::of::<MatMulProblem, _>(schema, &recipe).validated(problem, schema)
            })
            .collect(),
    })
}

// Sparse scenarios — the §4.2/§5.3 edge-budget variants: seeded G(n, m)
// random data graphs instead of complete model instances. The §2.4
// argument still applies per instance (g bounds any reducer's coverage,
// every present output must be covered), so measured r ≥ the clamped
// bound with |I| = m and |O| = the instance's occurrence count. The
// bounds are weak — that is §4.2's point: a schema designed for budget
// q on the complete instance sees only ~q·2m/n(n−1) real inputs.
// Exhaustive validation is a complete-instance notion, so these points
// carry no validator; their declared budget is the complete-instance
// load, an upper bound on what the sparse instance can deliver.

/// Fixed seed of the sparse scenario graphs — part of the reproducible
/// surface (`repro` output must be byte-identical across runs).
const SPARSE_SEED: u64 = 42;

/// Triangles on a sparse `G(n, m)` graph (§4.2).
fn triangles_gnm(n: u32, m: usize) -> Box<dyn DynFamily> {
    let graph = gen::gnm(n as usize, m, SPARSE_SEED);
    let triangles = subgraph::triangle_count(&graph);
    let recipe = LowerBoundRecipe::new(g_triangles, graph.num_edges() as f64, triangles as f64);
    Box::new(Family {
        name: "triangles-gnm",
        instance: format!(
            "sparse G(n={n}, m={}) random graph, seed {SPARSE_SEED} ({triangles} triangles)",
            graph.num_edges()
        ),
        params: vec![("n", n as u64), ("m", graph.num_edges() as u64)],
        inputs: graph.edges().to_vec(),
        grid: [1, 2, 3, 4, 6]
            .into_iter()
            .map(|k| {
                let schema = MultisetPartitionSchema::new(patterns::triangle(), n, k);
                Point::of::<TriangleProblem, _>(schema, &recipe)
            })
            .collect(),
    })
}

/// The 4-cycle pattern on a sparse `G(n, m)` graph (§5.3).
fn sample_c4_gnm(n: u32, m: usize) -> Box<dyn DynFamily> {
    let pattern = patterns::cycle(4);
    let graph = gen::gnm(n as usize, m, SPARSE_SEED);
    let instances = subgraph::instances(&pattern, &graph);
    // g(q) = q^{s/2} = q² for the 4-node Alon-class cycle.
    let recipe = LowerBoundRecipe::new(|q| q * q, graph.num_edges() as f64, instances as f64);
    Box::new(Family {
        name: "sample-c4-gnm",
        instance: format!(
            "4-cycle pattern in sparse G(n={n}, m={}), seed {SPARSE_SEED} ({instances} instances)",
            graph.num_edges()
        ),
        params: vec![
            ("n", n as u64),
            ("m", graph.num_edges() as u64),
            ("s", pattern.num_nodes() as u64),
        ],
        inputs: graph.edges().to_vec(),
        grid: [1, 2, 3, 4]
            .into_iter()
            .map(|k| {
                let schema = MultisetPartitionSchema::new(pattern.clone(), n, k);
                Point::of::<SampleGraphProblem, _>(schema, &recipe)
            })
            .collect(),
    })
}

// ---------------------------------------------------------------------
// Registry constructors.
// ---------------------------------------------------------------------

/// All complete-instance problem families at [`Scale::Default`] — the
/// grid `repro frontier` and the frontier sweep execute.
pub fn registry() -> Vec<Box<dyn DynFamily>> {
    registry_at(Scale::Default)
}

/// The complete-instance family names, in the paper's presentation
/// order: Hamming (§3), triangles (§4), sample graphs (§5.1–5.3),
/// 2-paths (§5.4), joins (§5.5), matmul (§6). With
/// [`SPARSE_FAMILIES`] this is every name [`family_by_name`] answers
/// to, readable without building any instance.
pub const COMPLETE_FAMILIES: [&str; 6] = [
    "hamming-d1",
    "triangles",
    "sample-c4",
    "two-path",
    "join-cycle3",
    "matmul",
];

/// The sparse-scenario names, in presentation order.
pub const SPARSE_FAMILIES: [&str; 2] = ["triangles-gnm", "sample-c4-gnm"];

/// Builds **one** family by name at the given scale — without
/// constructing any other family's instance data. Returns `None` for an
/// unknown name.
///
/// Instance construction is the expensive part of the registry (complete
/// bit-string universes, complete join databases, seeded sparse graphs
/// with subgraph counting), so consumers that want a single family — the
/// planner layer above all — should come through here rather than
/// filtering [`registry_at`] / [`extended_registry`].
pub fn family_by_name(name: &str, scale: Scale) -> Option<Box<dyn DynFamily>> {
    let s = scale.sizes();
    let (tri, c4) = sparse_sizes(scale);
    Some(match name {
        "hamming-d1" => hamming_d1(s.hamming_b),
        "triangles" => triangles(s.triangle_n),
        "sample-c4" => sample_c4(s.sample_n),
        "two-path" => two_path(s.two_path_n),
        "join-cycle3" => join_cycle3(s.join_n),
        "matmul" => matmul(s.matmul_n),
        "triangles-gnm" => triangles_gnm(tri.0, tri.1),
        "sample-c4-gnm" => sample_c4_gnm(c4.0, c4.1),
        _ => return None,
    })
}

/// All complete-instance problem families at the given scale, in the
/// paper's presentation order (see [`family_by_name`] for single-family
/// construction).
pub fn registry_at(scale: Scale) -> Vec<Box<dyn DynFamily>> {
    COMPLETE_FAMILIES
        .iter()
        .map(|n| family_by_name(n, scale).expect("complete family names are constructible"))
        .collect()
}

/// Per-scale `(n, m)` sizes of the sparse `G(n, m)` scenarios.
fn sparse_sizes(scale: Scale) -> ((u32, usize), (u32, usize)) {
    match scale {
        Scale::Small => ((12, 30), (10, 22)),
        Scale::Default => ((24, 72), (16, 44)),
        Scale::Full => ((40, 200), (24, 90)),
    }
}

/// The §4.2/§5.3 sparse-instance scenarios: seeded `G(n, m)` data graphs
/// run through the same schemas, with the recipe's `|I|`/`|O|` counted on
/// the instance.
pub fn sparse_scenarios(scale: Scale) -> Vec<Box<dyn DynFamily>> {
    SPARSE_FAMILIES
        .iter()
        .map(|n| family_by_name(n, scale).expect("sparse family names are constructible"))
        .collect()
}

/// Complete families plus sparse scenarios — everything `repro frontier`
/// can select from.
pub fn extended_registry(scale: Scale) -> Vec<Box<dyn DynFamily>> {
    let mut fams = registry_at(scale);
    fams.extend(sparse_scenarios(scale));
    fams
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_and_order_are_stable() {
        let names: Vec<&str> = registry().iter().map(|f| f.name()).collect();
        assert_eq!(
            names,
            vec![
                "hamming-d1",
                "triangles",
                "sample-c4",
                "two-path",
                "join-cycle3",
                "matmul"
            ]
        );
        let extended: Vec<&str> = extended_registry(Scale::Default)
            .iter()
            .map(|f| f.name())
            .collect();
        assert_eq!(&extended[..6], &names[..]);
        assert_eq!(&extended[6..], &["triangles-gnm", "sample-c4-gnm"]);
    }

    #[test]
    fn default_grids_match_the_pinned_sweep_shape() {
        // 4 + 4 + 5 + 4 + 4 + 4 = the 25-point default grid.
        let lens: Vec<usize> = registry().iter().map(|f| f.grid().len()).collect();
        assert_eq!(lens, vec![4, 4, 5, 4, 4, 4]);
    }

    #[test]
    fn every_scale_has_nonempty_deduplicated_grids() {
        for scale in Scale::ALL {
            for fam in extended_registry(scale) {
                let grid = fam.grid();
                assert!(
                    grid.len() >= 3,
                    "{} at {scale:?}: grid too small ({})",
                    fam.name(),
                    grid.len()
                );
                let mut names: Vec<&str> = grid.iter().map(|p| p.schema.as_str()).collect();
                names.sort_unstable();
                names.dedup();
                assert_eq!(
                    names.len(),
                    grid.len(),
                    "{} at {scale:?}: duplicate grid points",
                    fam.name()
                );
            }
        }
    }

    #[test]
    fn run_respects_declared_budget_and_bound() {
        // Small-scale smoke over every family, sparse included.
        for fam in extended_registry(Scale::Small) {
            for (p, gp) in fam.grid().iter().enumerate() {
                let fp = fam.run(p, &EngineConfig::sequential()).unwrap();
                assert!(
                    fp.q <= fp.q_declared,
                    "{} / {}: load {} exceeds declared {}",
                    fam.name(),
                    gp.schema,
                    fp.q,
                    fp.q_declared
                );
                assert!(
                    fp.r >= fp.bound - 1e-9,
                    "{} / {}: r={} below bound={}",
                    fam.name(),
                    gp.schema,
                    fp.r,
                    fp.bound
                );
                assert_eq!(fp.algorithm, gp.schema);
            }
        }
    }

    #[test]
    fn sparse_scenarios_refuse_exhaustive_validation() {
        for fam in sparse_scenarios(Scale::Small) {
            assert!(fam.validate(0).is_none(), "{}", fam.name());
        }
    }

    #[test]
    fn sparse_triangle_outputs_match_serial_baseline() {
        // The engine round must find exactly the instance's triangles —
        // the sparse scenario measures a real execution, not a model.
        let fam = triangles_gnm(12, 30);
        let expected = subgraph::triangle_count(&gen::gnm(12, 30, SPARSE_SEED));
        assert!(expected > 0, "test instance must contain triangles");
        for p in 0..fam.grid().len() {
            let fp = fam.run(p, &EngineConfig::sequential()).unwrap();
            assert_eq!(fp.outputs, expected, "point {p}");
        }
    }

    #[test]
    fn census_predicts_engine_measurement_exactly() {
        // The planner hook's whole contract: a map-side census and a full
        // engine round agree on q and r at every grid point, complete and
        // sparse families alike.
        for fam in extended_registry(Scale::Small) {
            for (p, gp) in fam.grid().iter().enumerate() {
                let census = fam.census(p);
                let fp = fam.run(p, &EngineConfig::sequential()).unwrap();
                assert_eq!(
                    census.q,
                    fp.q,
                    "{} / {}: census q diverged",
                    fam.name(),
                    gp.schema
                );
                let r = census.pairs as f64 / fam.num_inputs() as f64;
                assert_eq!(
                    r.to_bits(),
                    fp.r.to_bits(),
                    "{} / {}: census r={r} vs measured {}",
                    fam.name(),
                    gp.schema,
                    fp.r
                );
                assert!(census.reducers > 0);
                assert!(census.pairs >= census.q, "pairs can't undercut max load");
            }
        }
    }

    #[test]
    fn family_by_name_covers_the_registries_and_rejects_unknowns() {
        for scale in Scale::ALL {
            for fam in extended_registry(scale) {
                let single = family_by_name(fam.name(), scale)
                    .unwrap_or_else(|| panic!("{} not constructible alone", fam.name()));
                assert_eq!(single.name(), fam.name());
                assert_eq!(single.instance(), fam.instance());
                assert_eq!(single.grid().len(), fam.grid().len());
            }
        }
        assert!(family_by_name("nonsense", Scale::Small).is_none());
    }

    #[test]
    fn every_family_exposes_its_size_parameter() {
        for fam in extended_registry(Scale::Small) {
            let params = fam.params();
            assert!(
                params.iter().any(|(k, _)| *k == "n" || *k == "b"),
                "{}: params {:?} lack a size parameter",
                fam.name(),
                params
            );
            for (_, v) in params {
                assert!(v > 0, "{}: zero-valued parameter", fam.name());
            }
        }
    }

    #[test]
    fn census_of_empty_instance_is_all_zero() {
        struct Nowhere;
        impl SchemaJob<u64, u64> for Nowhere {
            fn assign(&self, _input: &u64) -> Vec<u64> {
                vec![]
            }
            fn reduce(&self, _r: u64, _inputs: &[u64], _emit: &mut dyn FnMut(u64)) {}
        }
        let recipe = LowerBoundRecipe::new(|q| q, 1.0, 1.0);
        let fam = Family {
            name: "nowhere",
            instance: String::new(),
            params: vec![],
            inputs: Vec::<u64>::new(),
            grid: vec![Point::new(1, "nowhere".into(), &recipe, Nowhere)],
        };
        let zero = RoundCensus {
            q: 0,
            pairs: 0,
            reducers: 0,
        };
        assert_eq!(fam.census(0), zero);
        assert_eq!(fam.num_inputs(), 0);
    }

    #[test]
    fn run_reads_its_point_off_the_engine_round() {
        // A family point is the round's own measurement: the same schema
        // run directly measures the same q, r, skew and outputs, and on
        // the complete instance exhaustive validation agrees on (q, r).
        let fam = triangles(12);
        let s = MultisetPartitionSchema::new(patterns::triangle(), 12, 3);
        let name = MappingSchema::<TriangleProblem>::name(&s);
        let point = fam.grid().iter().position(|gp| gp.schema == name);
        let fp = fam
            .run(point.unwrap(), &EngineConfig::sequential())
            .unwrap();
        let edges = Graph::complete(12).edges().to_vec();
        let (_, m) = run_schema(&edges, &s, &EngineConfig::sequential()).unwrap();
        assert_eq!((fp.q, fp.outputs), (m.load.max, m.outputs));
        assert_eq!(fp.r.to_bits(), m.replication_rate().to_bits());
        assert_eq!(fp.load_skew.to_bits(), m.load.skew().to_bits());
        assert!(fp.load_skew >= 1.0);
        let report = validate_schema(&TriangleProblem::new(12), &s);
        assert_eq!(fp.q, report.max_load);
        assert!((fp.r - report.replication_rate).abs() < 1e-12);
    }

    #[test]
    fn counting_outputs_measures_the_typed_round_exactly() {
        // Reducer `x % 7` emits every pair it holds: outputs, order and
        // loads all depend on what arrives where.
        struct Pairs;
        impl SchemaJob<u64, (u64, u64)> for Pairs {
            fn assign(&self, input: &u64) -> Vec<ReducerId> {
                vec![input % 7]
            }
            fn reduce(&self, _r: ReducerId, inputs: &[u64], emit: &mut dyn FnMut((u64, u64))) {
                for (i, a) in inputs.iter().enumerate() {
                    for b in &inputs[i + 1..] {
                        emit((*a, *b));
                    }
                }
            }
        }
        for inputs in [(0..90).map(|i| i * 37 % 90).collect(), Vec::new()] {
            let typed = run_schema(&inputs, &Pairs, &EngineConfig::sequential()).unwrap();
            for workers in [1, 3, 8] {
                let cfg = EngineConfig::parallel(workers);
                let (counted, m) = run_schema(&inputs, &CountOutputs(&Pairs), &cfg).unwrap();
                assert_eq!(counted.len(), typed.0.len(), "workers={workers}");
                assert_eq!(m, typed.1, "workers={workers}");
            }
        }
        let over = EngineConfig::sequential().with_max_reducer_inputs(12);
        let inputs: Vec<u64> = (0..90).collect();
        assert!(run_schema(&inputs, &CountOutputs(&Pairs), &over).is_err());
    }

    #[test]
    fn delta_run_matches_full_run_for_every_family() {
        // The erased delta seam end to end: for each registry family, a
        // mixed tail-churn delta at grid point 0 must reproduce the full
        // post-delta run byte-identically, with the census exact.
        for fam in extended_registry(Scale::Small) {
            let spec = DeltaSpec::tail_churn(fam.num_inputs());
            assert!(spec.changes() > 0, "{}: degenerate spec", fam.name());
            let census = fam.delta_census(0, &spec);
            let report = fam.delta_run(0, &EngineConfig::parallel(4), &spec);
            assert!(
                report.matches_full_run,
                "{}: retained result diverged from the full run",
                fam.name()
            );
            assert!(
                report.prediction_exact,
                "{}: census mispredicted the delta",
                fam.name()
            );
            assert_eq!(report.census, census, "{}", fam.name());
            let m = &report.metrics;
            assert_eq!(m.dirty_reducers, census.delta.dirty_reducers);
            assert!(m.dirty_reducers <= report.full.reducers);
            assert!(m.delta_pairs <= report.full.pairs);
            assert_eq!(report.full.q, census.delta.post_q);
        }
    }

    #[test]
    fn small_deltas_touch_strictly_fewer_reducers_than_a_full_run() {
        // The point of the whole subsystem: a delta touching k ≪ n
        // inputs re-executes strictly fewer reducers than a full run
        // uses. Measured at each family's most-partitioned grid point.
        for fam in extended_registry(Scale::Small) {
            let n = fam.num_inputs();
            let point = (0..fam.grid().len())
                .max_by_key(|&p| fam.census(p).reducers)
                .unwrap();
            let spec = DeltaSpec {
                base: (0..n).collect(),
                remove: vec![0],
                add: vec![],
            };
            let report = fam.delta_run(point, &EngineConfig::sequential(), &spec);
            assert!(
                report.matches_full_run && report.prediction_exact,
                "{}",
                fam.name()
            );
            let (m, full) = (&report.metrics, &report.full);
            assert!(
                m.dirty_reducers < full.reducers,
                "{}: dirty {} not strictly below full {}",
                fam.name(),
                m.dirty_reducers,
                full.reducers
            );
            assert!(
                m.delta_pairs < full.pairs,
                "{}: delta shuffle {} not below full {}",
                fam.name(),
                m.delta_pairs,
                full.pairs
            );
        }
    }

    #[test]
    fn grid_recipes_evaluate_like_family_bounds() {
        for fam in registry_at(Scale::Small) {
            for gp in fam.grid() {
                let b = gp.recipe.clamped_lower_bound(gp.q_declared as f64);
                assert!(
                    b >= 1.0,
                    "{} / {}: clamped bound {b}",
                    fam.name(),
                    gp.schema
                );
            }
        }
    }
}
