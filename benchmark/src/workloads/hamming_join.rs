//! `hamming_join` — §3's Hamming-distance-1 problem on every `b`-bit
//! string, at the small-`q` end of the paper's Fig. 1 tradeoff.
//!
//! `DistanceDSplittingSchema::new(18, 6, 1)` through `run_schema`:
//! `q = 8`, `r = 6`, so 1,572,864 pairs fan out to 196,608 tiny reducers
//! that emit 2,359,296 outputs. Reduce and output materialisation do
//! most of the work, which makes this the workload where
//! `sim.engine.reduce_ms` and `mr-core`'s reducer code are predicted to
//! dominate.

use super::{engine_config, Size, Spans, Step, Workload, WARMUP_STEPS};
use crate::metrics::Layers;
use crate::reference::Reference;
use crate::stats::{ms, Digest, Rng};
use mr_core::problems::hamming::DistanceDSplittingSchema;
use mr_sim::{run_schema, EngineConfig, RoundMetrics, SchemaJob};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of the direct `assign` / `reduce` probe.
const PROBE_REPS: usize = 7;

/// The `(b, k)` of the splitting schema at each size.
pub(super) fn shape(size: Size) -> (u32, u32) {
    match size {
        Size::Full => (18, 6),
        Size::Smoke => (12, 6),
    }
}

/// Every `b`-bit string, in an order drawn from `seed`.
pub(super) fn all_strings(b: u32, seed: u64) -> Vec<u64> {
    let mut strings: Vec<u64> = (0..1u64 << b).collect();
    Rng::new(seed).shuffle(&mut strings);
    strings
}

/// The serial oracle: every pair of `b`-bit strings at distance 1, by
/// flipping each bit of each string.
pub(super) fn brute_force_digest(b: u32) -> Digest {
    let mut digest = Digest::default();
    for u in 0..1u64 << b {
        for bit in 0..b {
            let v = u ^ (1 << bit);
            if u < v {
                digest.add_pair(u, v);
            }
        }
    }
    digest
}

/// See the [module docs](self).
pub struct HammingJoin {
    inputs: Vec<u64>,
    schema: DistanceDSplittingSchema,
    config: EngineConfig,
    expected: Digest,
    last: RoundMetrics,
}

impl Workload for HammingJoin {
    const NAME: &'static str = "hamming_join";
    const COUNT_WINDOW: usize = 1;

    fn setup(seed: u64, workers: usize, size: Size) -> Self {
        let (b, k) = shape(size);
        let mut me = HammingJoin {
            inputs: all_strings(b, seed),
            schema: DistanceDSplittingSchema::new(b, k, 1),
            config: engine_config(workers),
            expected: brute_force_digest(b),
            last: RoundMetrics::default(),
        };
        for _ in 0..WARMUP_STEPS {
            me.step();
        }
        me
    }

    fn step(&mut self) -> Step {
        let start = Instant::now();
        let result = run_schema(black_box(&self.inputs), &self.schema, &self.config);
        let wall = start.elapsed();
        let Ok((outputs, metrics)) = result else {
            return Step {
                wall,
                pairs: 0,
                ok: false,
            };
        };
        let mut digest = Digest::default();
        for &(u, v) in &outputs {
            digest.add_pair(u, v);
        }
        let ok = digest == self.expected
            && metrics.kv_pairs == self.inputs.len() as u64 * self.schema.replication()
            && metrics.load.max == self.schema.q();
        let pairs = metrics.kv_pairs;
        self.last = metrics;
        Step { wall, pairs, ok }
    }

    fn counts(&self, layers: &mut Layers) {
        let m = &self.last;
        layers.set("sim.engine.reducers", m.reducers as f64);
        layers.set("sim.engine.outputs", m.outputs as f64);
        layers.set("sim.engine.max_q", m.load.max as f64);
        layers.set(
            "sim.engine.bytes_moved",
            m.shuffle.bytes_moved.unwrap_or(0) as f64,
        );
        layers.set("sim.engine.partition_skew", m.shuffle.partition_skew());
    }

    /// Calls the schema's `assign` and `reduce` directly over the
    /// instance, with no engine in between: the floor under
    /// `sim.engine.map_ms` and `sim.engine.reduce_ms`.
    fn probes(&mut self, reference: &mut Reference, layers: &mut Layers) {
        let schema = &self.schema;
        let (mut assign_ms, mut reduce_ms) = (Vec::new(), Vec::new());
        for _ in 0..PROBE_REPS {
            let slowdown = reference.slowdown();
            let start = Instant::now();
            let mut routed: Vec<(u64, u64)> = Vec::with_capacity(self.last.kv_pairs as usize);
            for &input in &self.inputs {
                for reducer in SchemaJob::assign(schema, black_box(&input)) {
                    routed.push((reducer, input));
                }
            }
            assign_ms.push(ms(start.elapsed()) / slowdown);

            // Grouping belongs to neither probe: the engine's shuffle
            // does it, and `sim.engine.shuffle_ms` times that.
            routed.sort_unstable();
            let values: Vec<u64> = routed.iter().map(|&(_, input)| input).collect();
            let mut groups: Vec<(u64, std::ops::Range<usize>)> = Vec::new();
            for (i, &(reducer, _)) in routed.iter().enumerate() {
                match groups.last_mut() {
                    Some((last, range)) if *last == reducer => range.end = i + 1,
                    _ => groups.push((reducer, i..i + 1)),
                }
            }

            let slowdown = reference.slowdown();
            let start = Instant::now();
            let mut emitted = 0u64;
            for (reducer, range) in &groups {
                SchemaJob::reduce(schema, *reducer, &values[range.clone()], &mut |pair| {
                    black_box(pair);
                    emitted += 1;
                });
            }
            reduce_ms.push(ms(start.elapsed()) / slowdown);
            assert_eq!(emitted, self.expected.count, "direct reduce output count");
        }
        layers.set("core.problems.assign_ms", crate::stats::median(&assign_ms));
        layers.set("core.problems.reduce_ms", crate::stats::median(&reduce_ms));
    }

    fn derive(spans: &Spans, _untraced_ms: &[f64], _layers: &mut Layers) -> f64 {
        spans.ms("engine.map") + spans.ms("engine.shuffle") + spans.ms("engine.reduce")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_counts_b_times_two_to_the_b_minus_one_pairs() {
        for b in [1u32, 4, 9] {
            assert_eq!(brute_force_digest(b).count, u64::from(b) << (b - 1));
        }
    }

    #[test]
    fn instance_is_a_seeded_permutation_of_every_string() {
        let a = all_strings(8, 5);
        assert_eq!(a, all_strings(8, 5));
        assert_ne!(a, all_strings(8, 6));
        let mut sorted = a;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..256).collect::<Vec<u64>>());
    }

    #[test]
    fn smoke_instance_passes_its_oracle_at_one_and_two_workers() {
        for workers in [1, 2] {
            let mut w = HammingJoin::setup(3, workers, Size::Smoke);
            let step = w.step();
            assert!(step.ok);
            assert_eq!(step.pairs, 4096 * 6);
        }
    }
}
