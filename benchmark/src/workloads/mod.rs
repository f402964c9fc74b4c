//! The four workloads and the interface the harness drives them through.
//!
//! Each workload calls only entry points the repository's README and
//! examples already use, checks every iteration against a serial oracle
//! outside the timed region, and generates its inputs from the seed.

mod hamming_join;
mod matmul_tree;
mod plan_and_sweep;
mod steady_churn;

pub use hamming_join::HammingJoin;
pub use matmul_tree::MatmulTree;
pub use plan_and_sweep::PlanAndSweep;
pub use steady_churn::SteadyChurn;

use crate::metrics::Layers;
use crate::reference::Reference;
use mr_obs::Trace;
use mr_sim::EngineConfig;
use std::collections::BTreeMap;
use std::time::Duration;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    HammingJoin::NAME,
    MatmulTree::NAME,
    SteadyChurn::NAME,
    PlanAndSweep::NAME,
];

/// Untimed iterations every set-up ends with, so that caches, the
/// allocator and the resident pool are warm before the first sample.
pub const WARMUP_STEPS: usize = 2;

/// Instance sizes: the paper-scale instances the numbers are recorded
/// on, or tiny ones for `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The recorded instances.
    Full,
    /// Tiny instances; the whole set runs in seconds.
    Smoke,
}

/// The engine configuration for `workers` threads: the engine's
/// sequential default for one, its pooled parallel path otherwise.
pub fn engine_config(workers: usize) -> EngineConfig {
    if workers <= 1 {
        EngineConfig::sequential()
    } else {
        EngineConfig::parallel(workers)
    }
}

/// One timed iteration.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Wall time of the call into the program (the oracle check runs
    /// after the clock stops).
    pub wall: Duration,
    /// Key-value pairs the iteration moved through the shuffle — the
    /// paper's communication cost.
    pub pairs: u64,
    /// The call returned `Ok` and its result matched the oracle.
    pub ok: bool,
}

/// A workload: set up from a seed, then stepped by the harness.
pub trait Workload: Sized {
    /// The name `--workload` selects it by.
    const NAME: &'static str;

    /// Iterations after set-up over which the traced pass takes its
    /// exact counts. Fixed, so that a count repeats for a given seed no
    /// matter how many iterations the time budget then allows.
    const COUNT_WINDOW: usize;

    /// Generates the instance from `seed`, builds any retained state for
    /// `workers` engine threads, and runs [`WARMUP_STEPS`] iterations.
    /// The harness times this call as `setup_s`.
    fn setup(seed: u64, workers: usize, size: Size) -> Self;

    /// Runs one iteration and checks it.
    fn step(&mut self) -> Step;

    /// The end-of-run oracle check, for state a single step cannot
    /// vouch for.
    fn finish(&mut self) -> bool {
        true
    }

    /// Exact counts over every step since set-up (the harness calls
    /// this right after the count window).
    fn counts(&self, layers: &mut Layers);

    /// `[out]` measurements taken outside the main loop: public calls
    /// into single layers that an iteration does not make by itself.
    /// Each timing follows a run of `reference` and is divided by the
    /// slowdown it reports, like every other time.
    fn probes(&mut self, _reference: &mut Reference, _layers: &mut Layers) {}

    /// Fills the layer metrics that are derived from several spans or
    /// from the untraced blocks' wall times, and returns the
    /// milliseconds per iteration that the workload's layers account
    /// for — a set of spans that do not overlap, so that their sum over
    /// the iteration's wall time is the layer coverage.
    fn derive(spans: &Spans, untraced_ms: &[f64], layers: &mut Layers) -> f64;
}

/// Span totals of the traced blocks, per traced iteration, in
/// milliseconds scaled by each block's machine-speed slowdown.
#[derive(Debug, Default)]
pub struct Spans {
    totals: BTreeMap<String, (f64, u64)>,
    events: u64,
    iterations: u64,
}

impl Spans {
    /// Adds one traced block of `iterations` iterations, recorded while
    /// the machine ran `slowdown` times slower than nominal.
    pub fn add(&mut self, trace: &Trace, iterations: u64, slowdown: f64) {
        for (name, agg) in trace.aggregate() {
            let entry = self.totals.entry(name).or_default();
            entry.0 += crate::stats::ms(agg.total) / slowdown;
            entry.1 += agg.count;
        }
        self.events += trace.total_events() as u64;
        self.iterations += iterations;
    }

    fn per_iteration(&self, total: f64) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            total / self.iterations as f64
        }
    }

    /// Milliseconds per iteration spent in spans named `name`; 0 for a
    /// name the trace does not hold.
    pub fn ms(&self, name: &str) -> f64 {
        self.per_iteration(self.totals.get(name).map_or(0.0, |t| t.0))
    }

    /// Milliseconds per iteration over every span whose name starts
    /// with `prefix` (the DAG executor labels levels `dag.level.<n>`).
    pub fn ms_with_prefix(&self, prefix: &str) -> f64 {
        let total: f64 = self
            .totals
            .range(prefix.to_string()..)
            .take_while(|(name, _)| name.starts_with(prefix))
            .map(|(_, t)| t.0)
            .sum();
        self.per_iteration(total)
    }

    /// Spans named `name` per iteration.
    pub fn count(&self, name: &str) -> f64 {
        let count = self.totals.get(name).map_or(0, |t| t.1);
        self.per_iteration(count as f64)
    }

    /// Recorded events of any kind per iteration.
    pub fn events_per_iteration(&self) -> f64 {
        self.per_iteration(self.events as f64)
    }

    /// Iterations traced so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_average_over_iterations_and_read_absent_names_as_zero() {
        let (_, trace) = mr_obs::record(|| {
            for _ in 0..4 {
                let _a = mr_obs::span("t.outer");
                let _b = mr_obs::span("t.level.0");
                let _c = mr_obs::span("t.level.1");
            }
        });
        let mut spans = Spans::default();
        spans.add(&trace, 2, 1.0);
        spans.add(&Trace::default(), 2, 1.0);
        assert_eq!(spans.iterations(), 4);
        assert_eq!(spans.count("t.outer"), 1.0);
        // The recorder is process-wide, so a test running beside this one
        // may add events of its own; it cannot add spans with these names.
        assert!(spans.events_per_iteration() >= 3.0);
        assert_eq!(spans.ms("t.absent"), 0.0);
        assert_eq!(spans.count("t.absent"), 0.0);
        let levels = spans.ms_with_prefix("t.level.");
        assert!((levels - spans.ms("t.level.0") - spans.ms("t.level.1")).abs() < 1e-12);
        assert!(spans.ms("t.outer") >= spans.ms("t.level.0"));
    }
}
