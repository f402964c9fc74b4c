//! The two passes a workload is measured by.
//!
//! Load shape: a closed loop with one client in one process — the next
//! iteration starts when the previous one returns. The parallel passes
//! use `W = min(nproc, 4)` engine workers on the program's own resident
//! pool; every workload also runs a sequential pass, because sequential
//! is the engine's default configuration.
//!
//! * [`end_to_end`] runs with the recorder off and yields the bounded
//!   metrics.
//! * [`traced`] alternates untraced and recorded blocks of iterations
//!   and yields the per-layer metrics, the recorder's overhead among
//!   them.

use crate::metrics::{Layers, Source, END_TO_END, PER_LAYER};
use crate::reference::{Reference, NOMINAL_MS};
use crate::stats::{median, ms, peak_rss_mib, percentile};
use crate::workloads::{Size, Spans, Step, Workload};
use mr_bench::json::Obj;
use std::time::{Duration, Instant};

/// Set-ups timed per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Share of the traced pass's budget spent in the alternating blocks;
/// the count window before them and the probes after them are sized by
/// fixed repetition counts.
const TRACED_SHARE: f64 = 0.7;
/// Target length of one block of iterations; an eighth of the budget
/// when that is shorter, so that a `--smoke` run still alternates.
const BLOCK: Duration = Duration::from_millis(500);

/// `W`: the engine workers of the parallel passes.
pub fn parallel_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// What one invocation measures.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub budget: Duration,
    /// Instance sizes.
    pub size: Size,
}

/// One pass's result: the contract's four keys.
#[derive(Debug)]
pub struct Outcome {
    /// Iterations and end-of-run checks attempted.
    pub attempted: u64,
    /// Those that returned an error or failed their oracle.
    pub failed: u64,
    /// `(name, unit, value)` for every metric of the pass.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    /// The single-line JSON object the benchmark prints last.
    pub fn json(&self) -> String {
        let mut metrics = Obj::new();
        for (name, unit, value) in &self.metrics {
            let mut metric = Obj::new();
            metric.num("value", *value).str("unit", unit);
            metrics.raw(name, metric.compact());
        }
        let mut out = Obj::new();
        out.raw("correct", (self.failed == 0).to_string())
            .int("attempted", self.attempted)
            .int("failed", self.failed)
            .raw("metrics", metrics.compact());
        out.compact()
    }
}

/// Wall times and checks of a run of iterations.
#[derive(Debug, Default)]
struct Tally {
    walls_ms: Vec<f64>,
    pairs: u64,
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Records a step, its wall time divided by `slowdown`.
    fn add(&mut self, step: Step, slowdown: f64) {
        self.walls_ms.push(ms(step.wall) / slowdown);
        self.pairs += step.pairs;
        self.check(step.ok);
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Steps until `budget` has passed, at least once.
    fn run_for<W: Workload>(&mut self, workload: &mut W, budget: Duration, slowdown: f64) {
        let start = Instant::now();
        loop {
            self.add(workload.step(), slowdown);
            if start.elapsed() >= budget {
                return;
            }
        }
    }
}

/// The untraced pass: set-up several times, then half-second blocks of
/// iterations at `W` and sequential blocks in turn — so that both see
/// the whole run's conditions — and the end-of-run oracle of both.
///
/// Every block is preceded by a run of the machine-speed [`Reference`],
/// and its wall times are divided by how much slower than nominal the
/// reference ran; a set-up, which can outlast one of the machine's
/// swings, is divided by the mean of the samples on either side of it.
/// Counts and memory are reported as they are.
pub fn end_to_end<W: Workload>(run: Run) -> Outcome {
    let workers = parallel_workers();
    let mut reference = Reference::default();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    let mut before = reference.slowdown();
    for _ in 0..SETUP_REPEATS {
        drop(workload.take());
        let start = Instant::now();
        workload = Some(W::setup(run.seed, workers, run.size));
        let elapsed = start.elapsed().as_secs_f64();
        let after = reference.slowdown();
        setups.push(elapsed / ((before + after) / 2.0));
        before = after;
    }
    let mut sides = [
        (
            workload.expect("SETUP_REPEATS is positive"),
            Tally::default(),
        ),
        (W::setup(run.seed, 1, run.size), Tally::default()),
    ];

    let block = BLOCK.min(run.budget / 8);
    let start = Instant::now();
    while start.elapsed() < run.budget {
        for (workload, tally) in &mut sides {
            let slowdown = reference.slowdown();
            tally.run_for(workload, block, slowdown);
        }
    }
    for (workload, tally) in &mut sides {
        let finished = workload.finish();
        tally.check(finished);
    }
    let [(_, parallel), (_, sequential)] = sides;

    let slowdown = median(reference.slowdowns());
    println!(
        "{{\"reference\": {{\"nominal_ms\": {NOMINAL_MS}, \"samples\": {}, \"slowdown_p50\": {slowdown}}}}}",
        reference.slowdowns().len(),
    );
    let timed_s = parallel.walls_ms.iter().sum::<f64>() / 1e3;
    let value = |name: &str| match name {
        "iter_ms_p50" => median(&parallel.walls_ms),
        "seq_iter_ms_p50" => median(&sequential.walls_ms),
        "pairs_per_s" => parallel.pairs as f64 / timed_s,
        "comm_pairs" => parallel.pairs as f64 / parallel.walls_ms.len() as f64,
        "peak_rss_mib" => peak_rss_mib(),
        "setup_s" => median(&setups),
        other => unreachable!("{other} has no measurement"),
    };
    Outcome {
        attempted: parallel.attempted + sequential.attempted,
        failed: parallel.failed + sequential.failed,
        metrics: END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, value(m.name)))
            .collect(),
    }
}

/// The program's always-on counters the traced pass reads.
const COUNTERS: [(&str, &str); 4] = [
    ("sim.engine.rounds", "engine.rounds"),
    ("sim.engine.kv_pairs", "engine.kv_pairs"),
    ("sim.pool.batches", "pool.batches"),
    ("sim.pool.tasks", "pool.tasks"),
];

fn counters() -> [u64; 4] {
    COUNTERS.map(|(_, counter)| mr_obs::global().counter_value(counter))
}

/// The traced pass: exact counts over a fixed window of iterations,
/// then alternating untraced and recorded blocks at `W`, then the
/// workload's probes. Its times are scaled by the machine-speed
/// [`Reference`] like the untraced pass's, so that a layer's time can be
/// read against an end-to-end one.
pub fn traced<W: Workload>(run: Run) -> Outcome {
    let workers = parallel_workers();
    let mut layers = Layers::default();
    let mut workload = W::setup(run.seed, workers, run.size);
    let mut tally = Tally::default();

    let mut reference = Reference::default();
    let slowdown = reference.slowdown();
    let before = counters();
    for _ in 0..W::COUNT_WINDOW {
        tally.add(workload.step(), slowdown);
    }
    let after = counters();
    for (i, (metric, _)) in COUNTERS.iter().enumerate() {
        let per_iteration = (after[i] - before[i]) as f64 / W::COUNT_WINDOW as f64;
        layers.set(metric, per_iteration);
    }
    workload.counts(&mut layers);

    let per_step = median(&tally.walls_ms).max(1e-3);
    let block_steps = ((ms(BLOCK.min(run.budget / 8)) / per_step).round() as usize).max(1);
    let budget = run.budget.mul_f64(TRACED_SHARE);
    let mut spans = Spans::default();
    let mut untraced = Tally::default();
    let mut recorded = Tally::default();
    let start = Instant::now();
    loop {
        // One sample for the pair of blocks: the recorder's overhead is
        // read from their ratio, which a second sample would blur.
        let slowdown = reference.slowdown();
        for _ in 0..block_steps {
            untraced.add(workload.step(), slowdown);
        }
        let ((), trace) = mr_obs::record(|| {
            for _ in 0..block_steps {
                recorded.add(workload.step(), slowdown);
            }
        });
        spans.add(&trace, block_steps as u64, slowdown);
        if start.elapsed() >= budget {
            break;
        }
    }

    for metric in &PER_LAYER {
        if let Source::Span(name) = metric.source {
            layers.set(metric.name, spans.ms(name));
        }
    }
    let covered = W::derive(&spans, &untraced.walls_ms, &mut layers);
    let traced_mean = recorded.walls_ms.iter().sum::<f64>() / recorded.walls_ms.len() as f64;
    let (off, on) = (median(&untraced.walls_ms), median(&recorded.walls_ms));
    // The recorder's cost is far smaller than the swings of a shared
    // machine, so it is read block by block: each recorded block
    // against the untraced block that ran just before it.
    let overheads: Vec<f64> = untraced
        .walls_ms
        .chunks(block_steps)
        .zip(recorded.walls_ms.chunks(block_steps))
        .map(|(off, on)| 100.0 * (median(on) - median(off)) / median(off))
        .collect();
    layers.set("layer_coverage_pct", 100.0 * covered / traced_mean);
    layers.set("obs.traced_overhead_pct", median(&overheads));
    layers.set("obs.iter_ms_p50_untraced", off);
    layers.set(
        "obs.iter_ms_p90_untraced",
        percentile(&untraced.walls_ms, 90.0),
    );
    layers.set("obs.iter_ms_p50_traced", on);
    layers.set("obs.traced_iters", spans.iterations() as f64);
    layers.set("obs.events_per_iter", spans.events_per_iteration());

    workload.probes(&mut reference, &mut layers);
    let finished = workload.finish();
    tally.check(finished);

    Outcome {
        attempted: tally.attempted + untraced.attempted + recorded.attempted,
        failed: tally.failed + untraced.failed + recorded.failed,
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, layers.get(m.name)))
            .collect(),
    }
}
