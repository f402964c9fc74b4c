//! `steady_churn` — the `hamming_join` instance held resident in a
//! retained `DeltaJob` and changed a little at a time.
//!
//! Each step removes 64 live inputs drawn by the seeded generator and
//! re-adds the 64 that the previous step removed, so the instance size
//! never drifts and about 768 of the 196,608 reducers are dirty. The
//! rounds are tiny and frequent: delta staging and merging and the pool's
//! dispatch dominate, and the shuffle does almost nothing. This is the
//! one latency-shaped workload, and the one where the parallel path can
//! be slower than the sequential one — which `seq_iter_ms_p50` beside
//! `iter_ms_p50` exists to show.

use super::hamming_join::{all_strings, shape};
use super::{engine_config, Size, Spans, Step, Workload, WARMUP_STEPS};
use crate::metrics::Layers;
use crate::reference::Reference;
use crate::stats::{median, ms, percentile, Rng};
use mr_core::problems::hamming::DistanceDSplittingSchema;
use mr_sim::{run_schema, run_schema_retained, Delta, DeltaJob, EngineConfig, Pipeline, Seq};
use mr_sim::{RoundMetrics, WorkerPool};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Empty-batch submissions the pool-dispatch probe takes its median over.
const DISPATCH_SAMPLES: usize = 2000;
/// `DeltaJob::predict` calls the prediction probe takes its median over.
const PREDICT_SAMPLES: usize = 40;
/// Repetitions of the whole-result probes (`outputs`, full re-run).
const FULL_REPS: usize = 5;
/// Sequential steps behind the base of `sim.delta.speedup_vs_full_x`,
/// and how many of them share one reference sample.
const SEQUENTIAL_STEPS: usize = 300;
const SEQUENTIAL_BLOCK: usize = 100;

type Job = DeltaJob<u64, (u64, u64), DistanceDSplittingSchema>;

/// See the [module docs](self).
pub struct SteadyChurn {
    job: Job,
    /// Every live input with the `Seq` the job knows it by.
    live: Vec<(Seq, u64)>,
    /// The values the previous step removed, re-added by the next one.
    parked: Vec<u64>,
    rng: Rng,
    churn: usize,
    workers: usize,
    seed: u64,
    size: Size,
    build: Duration,
    steps: u64,
    dirty_reducers: u64,
    delta_pairs: u64,
    last_routing: RoundMetrics,
}

impl SteadyChurn {
    /// Draws this step's removals and pairs them with the parked values.
    fn next_delta(&mut self) -> (Delta<u64>, Vec<u64>) {
        let mut seqs = Vec::with_capacity(self.churn);
        let mut values = Vec::with_capacity(self.churn);
        for _ in 0..self.churn {
            let (seq, value) = self.live.swap_remove(self.rng.below(self.live.len()));
            seqs.push(seq);
            values.push(value);
        }
        (Delta::new(std::mem::take(&mut self.parked), seqs), values)
    }
}

impl Workload for SteadyChurn {
    const NAME: &'static str = "steady_churn";
    const COUNT_WINDOW: usize = 64;

    fn setup(seed: u64, workers: usize, size: Size) -> Self {
        let (b, k) = shape(size);
        let inputs = all_strings(b, seed);
        let config: EngineConfig = engine_config(workers);
        let start = Instant::now();
        let job = run_schema_retained(
            &inputs,
            DistanceDSplittingSchema::new(b, k, 1),
            Pipeline::Columnar,
            &config,
        )
        .expect("no reducer budget is configured");
        let build = start.elapsed();
        let mut me = SteadyChurn {
            job,
            live: inputs
                .into_iter()
                .enumerate()
                .map(|(i, v)| (i as Seq, v))
                .collect(),
            parked: Vec::new(),
            // A different stream from the one that ordered the inputs.
            rng: Rng::new(seed ^ 0x5eed_c0de),
            churn: match size {
                Size::Full => 64,
                Size::Smoke => 8,
            },
            workers,
            seed,
            size,
            build,
            steps: 0,
            dirty_reducers: 0,
            delta_pairs: 0,
            last_routing: RoundMetrics::default(),
        };
        // The first step has nothing parked and only removes; from the
        // second on every step removes and re-adds the same number.
        for _ in 0..WARMUP_STEPS + 1 {
            me.step();
        }
        (me.steps, me.dirty_reducers, me.delta_pairs) = (0, 0, 0);
        me
    }

    fn step(&mut self) -> Step {
        let (delta, removed_values) = self.next_delta();
        let changes = delta.changes() as u64;
        let start = Instant::now();
        let result = self.job.apply(black_box(&delta));
        let wall = start.elapsed();
        let Ok(outcome) = result else {
            return Step {
                wall,
                pairs: 0,
                ok: false,
            };
        };
        self.live
            .extend(outcome.added_seqs.clone().zip(delta.added.iter().copied()));
        self.parked = removed_values;
        let m = outcome.metrics;
        let ok = m.delta_pairs == changes * self.job.schema().replication()
            && m.dirty_reducers <= m.delta_pairs
            && self.job.len() == self.live.len();
        self.steps += 1;
        self.dirty_reducers += m.dirty_reducers;
        self.delta_pairs += m.delta_pairs;
        self.last_routing = m.routing;
        Step {
            wall,
            pairs: m.delta_pairs,
            ok,
        }
    }

    /// The retained result must equal a fresh run of the live instance.
    fn finish(&mut self) -> bool {
        let Ok((outputs, metrics)) = run_schema(
            &self.job.inputs(),
            self.job.schema(),
            &EngineConfig::sequential(),
        ) else {
            return false;
        };
        self.job.outputs() == outputs && self.job.metrics() == metrics
    }

    fn counts(&self, layers: &mut Layers) {
        let steps = self.steps.max(1) as f64;
        layers.set(
            "sim.delta.dirty_reducers",
            self.dirty_reducers as f64 / steps,
        );
        layers.set("sim.delta.delta_pairs", self.delta_pairs as f64 / steps);
        let retained = self.job.metrics();
        layers.set("sim.engine.reducers", retained.reducers as f64);
        layers.set("sim.engine.outputs", retained.outputs as f64);
        layers.set("sim.engine.max_q", retained.load.max as f64);
        let routing = &self.last_routing.shuffle;
        layers.set(
            "sim.engine.bytes_moved",
            routing.bytes_moved.unwrap_or(0) as f64,
        );
        layers.set("sim.engine.partition_skew", routing.partition_skew());
    }

    fn probes(&mut self, reference: &mut Reference, layers: &mut Layers) {
        // The build ran before any reference sample and outlasts the
        // machine's few-second swings, so it gets the run's median.
        layers.set(
            "sim.delta.build_ms",
            ms(self.build) / median(reference.slowdowns()),
        );

        // What one fan-out costs before any work is done: a batch of
        // `workers` empty tasks through the resident pool.
        let pool = WorkerPool::global();
        let dispatch = reference.time(DISPATCH_SAMPLES, || {
            let tasks: Vec<Box<dyn FnOnce() + Send>> =
                (0..self.workers).map(|_| Box::new(|| ()) as _).collect();
            pool.run(tasks)
        });
        layers.set("sim.pool.dispatch_us", median(&dispatch) * 1e3);

        // Pricing a delta without applying it.
        let delta = Delta::new(
            self.parked.clone(),
            self.live[..self.churn]
                .iter()
                .map(|&(seq, _)| seq)
                .collect(),
        );
        let predict = reference.time(PREDICT_SAMPLES, || self.job.predict(&delta));
        layers.set("sim.delta.predict_us", median(&predict) * 1e3);

        let outputs: Vec<f64> = (0..FULL_REPS)
            .flat_map(|_| reference.time(1, || self.job.outputs()))
            .collect();
        layers.set("sim.delta.outputs_ms", median(&outputs));

        // The alternative to a retained job: run the whole live
        // instance again on every change. Both sides sequential, the
        // engine's default.
        let inputs = self.job.inputs();
        let full: Vec<f64> = (0..FULL_REPS)
            .flat_map(|_| {
                reference.time(1, || {
                    run_schema(&inputs, self.job.schema(), &EngineConfig::sequential())
                })
            })
            .collect();
        let mut sequential = SteadyChurn::setup(self.seed, 1, self.size);
        let mut applies = Vec::with_capacity(SEQUENTIAL_STEPS);
        for _ in 0..SEQUENTIAL_STEPS / SEQUENTIAL_BLOCK {
            let slowdown = reference.slowdown();
            applies.extend((0..SEQUENTIAL_BLOCK).map(|_| ms(sequential.step().wall) / slowdown));
        }
        layers.set("sim.delta.full_rerun_ms", median(&full));
        layers.set(
            "sim.delta.speedup_vs_full_x",
            median(&full) / median(&applies),
        );
    }

    fn derive(spans: &Spans, untraced_ms: &[f64], layers: &mut Layers) -> f64 {
        layers.set("sim.delta.apply_ms_p99", percentile(untraced_ms, 99.0));
        let apply = spans.ms("delta.apply");
        let own = (apply - spans.ms("delta.routing") - spans.ms("delta.rereduce")).max(0.0);
        layers.set("sim.delta.self_ms", own);
        apply
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_keeps_the_instance_size_and_matches_a_fresh_run() {
        for workers in [1, 2] {
            let mut w = SteadyChurn::setup(9, workers, Size::Smoke);
            let resident = w.job.len();
            assert_eq!(resident, 4096 - 8);
            for _ in 0..20 {
                let step = w.step();
                assert!(step.ok);
                assert_eq!(step.pairs, 16 * 6);
                assert_eq!(w.job.len(), resident);
            }
            assert!(w.finish());
        }
    }

    #[test]
    fn removals_are_drawn_from_the_whole_instance_not_its_tail() {
        let mut w = SteadyChurn::setup(4, 1, Size::Smoke);
        let (delta, _) = w.next_delta();
        assert!(delta.removed.iter().any(|&seq| seq < 2048));
        assert_eq!(delta.added.len(), delta.removed.len());
    }

    #[test]
    fn a_step_notices_when_the_job_and_the_bookkeeping_disagree() {
        let mut w = SteadyChurn::setup(9, 1, Size::Smoke);
        assert!(w.finish());
        w.live.pop();
        assert!(!w.step().ok);
    }
}
