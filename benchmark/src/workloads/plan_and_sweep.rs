//! `plan_and_sweep` — the control plane.
//!
//! Each iteration takes a fresh `PlanCache` and, for four `ClusterSpec`
//! profiles (communication-heavy, compute-heavy, a reducer budget of 48,
//! a round latency of 50), plans all six families and all three DAG
//! workloads at `Scale::Full`, executes every plan under its own
//! predicted `q`, re-plans each family once against the warm cache, and
//! then sweeps the extended registry's whole `q` grid. That is hundreds
//! of tiny rounds; the DAG search's reference-execution pricing is
//! predicted to be the largest layer, and changes to the engine's data
//! plane are predicted to move this workload by less than 2 %.

use super::{Size, Spans, Step, Workload, WARMUP_STEPS};
use crate::metrics::Layers;
use crate::reference::Reference;
use crate::stats::median;
use mr_bench::{sweep_families, SweepConfig};
use mr_core::family::{extended_registry, family_by_name, Scale};
use mr_lp::{fractional_edge_cover, share_exponents, Hypergraph};
use mr_plan::{
    enumerate_dag_candidates, plannable_families, ClusterSpec, DagPlanReport, DagWorkload,
    PlanCache, PlanReport,
};
use mr_sim::{EngineConfig, Executor};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of the census and LP probes.
const PROBE_REPS: usize = 9;

/// Largest difference between a predicted and a measured replication
/// rate that still counts as equal (both are ratios of the same exact
/// integers, computed along different paths).
const R_TOLERANCE: f64 = 1e-9;

/// See the [module docs](self).
pub struct PlanAndSweep {
    clusters: Vec<ClusterSpec>,
    families: Vec<&'static str>,
    scale: Scale,
    sweep: SweepConfig,
    /// The first iteration's semantic output; every later one must
    /// reproduce it byte for byte.
    reference: Option<String>,
    outputs: u64,
    max_q: u64,
    bytes_moved: u64,
    partition_skew: f64,
    sweep_points: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// What the timed region of one iteration produced, checked afterwards.
struct Produced {
    plans: Vec<PlanReport>,
    dags: Vec<DagPlanReport>,
    sweep: mr_bench::SweepReport,
    sweep_inputs: Vec<usize>,
    failed_calls: usize,
}

impl PlanAndSweep {
    fn run(&self, cache: &PlanCache) -> Produced {
        let (mut plans, mut dags, mut failed_calls) = (Vec::new(), Vec::new(), 0);
        for cluster in &self.clusters {
            for family in &self.families {
                let plan = {
                    let _span = mr_obs::span("out.plan.planner.search");
                    cache.plan_family(family, cluster, self.scale)
                };
                let report = plan.ok().and_then(|plan| {
                    let _span = mr_obs::span("out.plan.planner.execute");
                    plan.execute().ok()
                });
                match report {
                    Some(report) => plans.push(report),
                    None => failed_calls += 1,
                }
            }
            for workload in DagWorkload::ALL {
                let plan = {
                    let _span = mr_obs::span("out.plan.dag.search");
                    cache.plan_dag(workload, cluster, self.scale)
                };
                let report = plan.ok().and_then(|plan| {
                    let _span = mr_obs::span("out.plan.dag.execute");
                    plan.execute().ok()
                });
                match report {
                    Some(report) => dags.push(report),
                    None => failed_calls += 1,
                }
            }
            for family in &self.families {
                let _span = mr_obs::span("out.plan.cache.hit");
                if cache.plan_family(family, cluster, self.scale).is_err() {
                    failed_calls += 1;
                }
            }
        }
        let registry = {
            let _span = mr_obs::span("out.core.family.instance");
            extended_registry(self.scale)
        };
        let sweep = {
            let _span = mr_obs::span("out.bench.sweep");
            sweep_families(&registry, &self.sweep)
        };
        Produced {
            plans,
            dags,
            sweep,
            sweep_inputs: registry.iter().map(|f| f.num_inputs()).collect(),
            failed_calls,
        }
    }
}

impl Workload for PlanAndSweep {
    const NAME: &'static str = "plan_and_sweep";
    const COUNT_WINDOW: usize = 1;

    fn setup(_seed: u64, workers: usize, size: Size) -> Self {
        // Every instance here is one of the paper's complete model
        // instances, so there is nothing for the seed to draw.
        let profile = |mut cluster: ClusterSpec| {
            cluster.workers = workers;
            cluster
        };
        let mut me = PlanAndSweep {
            clusters: vec![
                profile(ClusterSpec::comm_heavy()),
                profile(ClusterSpec::compute_heavy()),
                profile(ClusterSpec::default().with_q_budget(48)),
                profile(ClusterSpec::default().with_round_latency(50.0)),
            ],
            families: plannable_families(),
            scale: match size {
                Size::Full => Scale::Full,
                Size::Smoke => Scale::Small,
            },
            sweep: SweepConfig {
                sweep_workers: workers,
                engine: EngineConfig::sequential(),
                executor: Executor::Pool,
            },
            reference: None,
            outputs: 0,
            max_q: 0,
            bytes_moved: 0,
            partition_skew: 0.0,
            sweep_points: 0,
            cache_hits: 0,
            cache_misses: 0,
        };
        for _ in 0..WARMUP_STEPS {
            me.step();
        }
        me
    }

    fn step(&mut self) -> Step {
        let cache = PlanCache::new();
        let start = Instant::now();
        let produced = black_box(self.run(&cache));
        let wall = start.elapsed();

        let mut ok = produced.failed_calls == 0;
        let mut pairs = 0u64;
        let mut semantic = String::new();
        let (mut outputs, mut max_q, mut bytes, mut skew) = (0u64, 0u64, 0u64, 0f64);
        for report in &produced.plans {
            ok &= report.measured_q == report.plan.predicted_q
                && (report.measured_r - report.plan.predicted_r).abs() < R_TOLERANCE;
            pairs += report.plan.predicted_pairs;
            outputs += report.outputs;
            max_q = max_q.max(report.measured_q);
            bytes += report.shuffle_bytes;
            skew = skew.max(report.partition_skew);
            semantic += &format!(
                "{}|{}|{}|{}\n",
                report.plan.family, report.plan.schema, report.measured_q, report.measured_r
            );
        }
        for report in &produced.dags {
            for (round, spec) in report.rounds.iter().zip(&report.plan.dag.rounds) {
                ok &= round.measured_q == round.predicted_q
                    && (round.measured_r - round.predicted_r).abs() < R_TOLERANCE;
                pairs += spec.pairs;
                max_q = max_q.max(round.measured_q);
                bytes += round.shuffle_bytes;
                skew = skew.max(round.partition_skew);
            }
            outputs += report.outputs;
            semantic += &format!("{}|{}\n", report.plan.workload.name(), report.plan.schema);
        }
        for (curve, inputs) in produced.sweep.families.iter().zip(&produced.sweep_inputs) {
            for point in &curve.points {
                pairs += (point.r * *inputs as f64).round() as u64;
                outputs += point.outputs;
                max_q = max_q.max(point.q);
                bytes += point.shuffle_bytes;
                skew = skew.max(point.partition_skew);
            }
        }
        semantic += &produced.sweep.semantic_json();
        match &self.reference {
            Some(reference) => ok &= *reference == semantic,
            None => self.reference = Some(semantic),
        }
        self.outputs = outputs;
        self.max_q = max_q;
        self.bytes_moved = bytes;
        self.partition_skew = skew;
        self.sweep_points = produced
            .sweep
            .families
            .iter()
            .map(|c| c.points.len())
            .sum::<usize>() as u64;
        let stats = cache.stats();
        (self.cache_hits, self.cache_misses) = (stats.hits, stats.misses);
        Step { wall, pairs, ok }
    }

    fn counts(&self, layers: &mut Layers) {
        layers.set("sim.engine.outputs", self.outputs as f64);
        layers.set("sim.engine.max_q", self.max_q as f64);
        layers.set("sim.engine.bytes_moved", self.bytes_moved as f64);
        layers.set("sim.engine.partition_skew", self.partition_skew);
        layers.set("bench.sweep.points", self.sweep_points as f64);
        layers.set("plan.cache.hits", self.cache_hits as f64);
        layers.set("plan.cache.misses", self.cache_misses as f64);
        let candidates: usize = DagWorkload::ALL
            .iter()
            .map(|w| enumerate_dag_candidates(*w, self.scale).len())
            .sum();
        layers.set("plan.dag.candidates", candidates as f64);
    }

    /// The planner's two pricing primitives, called directly: the
    /// map-side census of every grid point of every family, and the
    /// Shares and edge-cover LPs on the three query shapes the join
    /// planner meets.
    fn probes(&mut self, reference: &mut Reference, layers: &mut Layers) {
        let families: Vec<_> = self
            .families
            .iter()
            .map(|name| family_by_name(name, self.scale).expect("a registry family"))
            .collect();
        let grid_points: usize = families.iter().map(|f| f.grid().len()).sum();
        let census = reference.time(PROBE_REPS, || {
            for family in &families {
                for point in 0..family.grid().len() {
                    black_box(family.census(point));
                }
            }
        });
        layers.set("core.family.census_ms", median(&census));
        layers.set("core.family.grid_points", grid_points as f64);

        let shapes = [
            Hypergraph::cycle(3),
            Hypergraph::chain(3),
            Hypergraph::clique(4),
        ];
        let mut time = |solve: &dyn Fn(&Hypergraph) -> bool| {
            median(&reference.time(PROBE_REPS, || {
                for shape in &shapes {
                    assert!(solve(black_box(shape)), "the LP has an optimum");
                }
            }))
        };
        layers.set("lp.shares_ms", time(&|h| share_exponents(h).is_ok()));
        layers.set("lp.cover_ms", time(&|h| fractional_edge_cover(h).is_ok()));
    }

    fn derive(spans: &Spans, _untraced_ms: &[f64], layers: &mut Layers) -> f64 {
        let hits = spans.count("out.plan.cache.hit");
        if hits > 0.0 {
            layers.set(
                "plan.cache.hit_us",
                spans.ms("out.plan.cache.hit") * 1e3 / hits,
            );
        }
        [
            "out.plan.planner.search",
            "out.plan.planner.execute",
            "out.plan.dag.search",
            "out.plan.dag.execute",
            "out.plan.cache.hit",
            "out.core.family.instance",
            "out.bench.sweep",
        ]
        .iter()
        .map(|name| spans.ms(name))
        .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_iteration_executes_every_plan_under_its_own_prediction() {
        for workers in [1, 2] {
            let mut w = PlanAndSweep::setup(0, workers, Size::Smoke);
            let first = w.step();
            let second = w.step();
            assert!(first.ok && second.ok);
            assert_eq!(first.pairs, second.pairs);
            assert!(first.pairs > 0);
            // 4 profiles × (6 families + 3 DAG workloads) planned once,
            // then 4 × 6 warm re-plans.
            assert_eq!((w.cache_misses, w.cache_hits), (36, 24));
        }
    }

    #[test]
    fn a_changed_semantic_output_fails_the_iteration() {
        let mut w = PlanAndSweep::setup(0, 1, Size::Smoke);
        w.reference = Some("something else".to_string());
        assert!(!w.step().ok);
    }
}
