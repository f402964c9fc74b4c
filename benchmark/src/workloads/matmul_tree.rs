//! `matmul_tree` — §6.3's multi-round matrix multiplication.
//!
//! `RecursiveMatMul::new(128, 8, 4, 4).run(..)`: one phase-1 round and a
//! three-round aggregation tree, 1,212,416 pairs in all, with `u64`
//! keys in phase 1 and `(u32, u32, u32)` tuple keys carrying whole
//! `MatToken` values in the aggregation rounds. It drives the same data
//! plane as `hamming_join` quite differently — wide values, the
//! comparison-sort descriptor path, medium groups, materialisation
//! between rounds — so map, scatter, group and shuffle are predicted to
//! dominate here. A data-plane gain must show on this workload and must
//! not cost `hamming_join`.

use super::{engine_config, Size, Spans, Step, Workload, WARMUP_STEPS};
use crate::metrics::Layers;
use crate::stats::Rng;
use mr_core::problems::matmul::{Matrix, RecursiveMatMul};
use mr_sim::{EngineConfig, JobMetrics};
use std::hint::black_box;
use std::time::Instant;

/// Largest entry-wise error the engine's product may show against the
/// serial product.
const TOLERANCE: f64 = 1e-9;

/// See the [module docs](self).
pub struct MatmulTree {
    job: RecursiveMatMul,
    a: Matrix,
    b: Matrix,
    expected: Matrix,
    config: EngineConfig,
    last: JobMetrics,
}

impl Workload for MatmulTree {
    const NAME: &'static str = "matmul_tree";
    const COUNT_WINDOW: usize = 1;

    fn setup(seed: u64, workers: usize, size: Size) -> Self {
        let job = match size {
            Size::Full => RecursiveMatMul::new(128, 8, 4, 4),
            Size::Smoke => RecursiveMatMul::new(16, 4, 2, 2),
        };
        let mut rng = Rng::new(seed);
        let a = Matrix::random(job.n as usize, rng.next_u64());
        let b = Matrix::random(job.n as usize, rng.next_u64());
        let mut me = MatmulTree {
            job,
            expected: a.multiply(&b),
            a,
            b,
            config: engine_config(workers),
            last: JobMetrics::default(),
        };
        for _ in 0..WARMUP_STEPS {
            me.step();
        }
        me
    }

    fn step(&mut self) -> Step {
        let start = Instant::now();
        let result = self
            .job
            .run(black_box(&self.a), black_box(&self.b), &self.config);
        let wall = start.elapsed();
        let Ok((product, metrics)) = result else {
            return Step {
                wall,
                pairs: 0,
                ok: false,
            };
        };
        let pairs = metrics.total_communication();
        let ok = product.max_abs_diff(&self.expected) < TOLERANCE
            && pairs as f64 == self.job.predicted_communication()
            && metrics.rounds.len() == self.job.num_rounds() as usize;
        self.last = metrics;
        Step { wall, pairs, ok }
    }

    fn counts(&self, layers: &mut Layers) {
        let rounds = &self.last.rounds;
        let sum = |f: fn(&mr_sim::RoundMetrics) -> u64| rounds.iter().map(f).sum::<u64>() as f64;
        layers.set("sim.dag.rounds", rounds.len() as f64);
        layers.set("sim.engine.reducers", sum(|m| m.reducers));
        layers.set("sim.engine.outputs", sum(|m| m.outputs));
        layers.set("sim.engine.max_q", self.last.max_reducer_load() as f64);
        layers.set(
            "sim.engine.bytes_moved",
            sum(|m| m.shuffle.bytes_moved.unwrap_or(0)),
        );
        layers.set(
            "sim.engine.partition_skew",
            rounds
                .iter()
                .map(|m| m.shuffle.partition_skew())
                .fold(0.0, f64::max),
        );
    }

    fn derive(spans: &Spans, _untraced_ms: &[f64], layers: &mut Layers) -> f64 {
        // Every round of this workload runs inside `dag.run`, one node
        // per level, so what `dag.run` spends outside its rounds is the
        // DAG executor's own staging.
        let stage_self = (spans.ms("dag.run") - spans.ms("engine.round")).max(0.0);
        layers.set("sim.dag.level_ms", spans.ms_with_prefix("dag.level."));
        layers.set("sim.dag.stage_self_ms", stage_self);
        spans.ms("engine.map") + spans.ms("engine.shuffle") + spans.ms("engine.reduce") + stage_self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_instance_passes_its_oracle_at_one_and_two_workers() {
        for workers in [1, 2] {
            let mut w = MatmulTree::setup(11, workers, Size::Smoke);
            let step = w.step();
            assert!(step.ok);
            assert_eq!(step.pairs as f64, w.job.predicted_communication());
        }
    }

    #[test]
    fn the_seed_drives_the_matrices() {
        let a = MatmulTree::setup(1, 1, Size::Smoke);
        let b = MatmulTree::setup(1, 1, Size::Smoke);
        let c = MatmulTree::setup(2, 1, Size::Smoke);
        assert_eq!(a.a.max_abs_diff(&b.a), 0.0);
        assert!(a.a.max_abs_diff(&c.a) > 0.0);
    }
}
