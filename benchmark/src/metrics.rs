//! The metric tables: every name the benchmark prints, with its unit,
//! direction and (end-to-end only) regression bound. `BENCHMARK.json` at
//! the repository root lists the same names; a test below keeps the two
//! in step.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: measured with the recorder off, and bounded —
/// `bound` is the share of the reference value by which the metric may
/// worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Allowed relative worsening.
    pub bound: f64,
}

/// The end-to-end metrics, reported by every workload.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "iter_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "seq_iter_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "pairs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "comm_pairs",
        unit: "count",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Where a per-layer metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Total time of the named span (one of the program's own `[obs]`
    /// families, or a benchmark-owned `out.*` span around a public
    /// call), in milliseconds per traced iteration. A span the trace
    /// does not hold reads 0.
    Span(&'static str),
    /// An exact count (`[cnt]`), taken over a fixed window of
    /// iterations: it repeats exactly for a given seed.
    Count,
    /// Set by the harness or the workload: an `[out]` probe timed
    /// outside the main loop, or a value derived from several spans.
    /// A metric the workload does not exercise reads 0.
    Set,
}

/// One per-layer metric: measured in the traced pass, unbounded.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Origin of the value.
    pub source: Source,
}

const fn span(name: &'static str, span: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ms",
        better: Better::Lower,
        source: Source::Span(span),
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::Count,
    }
}

const fn set(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::Set,
    }
}

/// The per-layer metrics, reported by every workload's traced pass.
pub const PER_LAYER: [PerLayer; 57] = [
    // mr-sim engine: the round's three phases are wall intervals on the
    // calling thread; group and scatter are summed over the pool tasks
    // that ran them (busy time, which can exceed the phase's wall).
    span("sim.engine.map_ms", "engine.map"),
    span("sim.engine.shuffle_ms", "engine.shuffle"),
    span("sim.engine.group_ms", "engine.group.partition"),
    span("sim.columnar.scatter_ms", "columnar.scatter"),
    span("sim.engine.reduce_ms", "engine.reduce"),
    count("sim.engine.rounds", "count", Better::Lower),
    count("sim.engine.kv_pairs", "count", Better::Lower),
    count("sim.engine.reducers", "count", Better::Lower),
    count("sim.engine.outputs", "count", Better::Lower),
    count("sim.engine.max_q", "count", Better::Lower),
    count("sim.engine.bytes_moved", "B", Better::Lower),
    count("sim.engine.partition_skew", "x", Better::Lower),
    // mr-sim pool.
    set("sim.pool.dispatch_us", "us", Better::Lower),
    span("sim.pool.queue_wait_ms", "pool.queue_wait"),
    span("sim.pool.task_ms", "pool.task"),
    span("sim.pool.caller_ms", "pool.caller"),
    count("sim.pool.batches", "count", Better::Lower),
    count("sim.pool.tasks", "count", Better::Lower),
    // mr-sim delta.
    set("sim.delta.build_ms", "ms", Better::Lower),
    span("sim.delta.routing_ms", "delta.routing"),
    span("sim.delta.rereduce_ms", "delta.rereduce"),
    set("sim.delta.self_ms", "ms", Better::Lower),
    set("sim.delta.predict_us", "us", Better::Lower),
    set("sim.delta.outputs_ms", "ms", Better::Lower),
    set("sim.delta.apply_ms_p99", "ms", Better::Lower),
    count("sim.delta.dirty_reducers", "count", Better::Lower),
    count("sim.delta.delta_pairs", "count", Better::Lower),
    set("sim.delta.full_rerun_ms", "ms", Better::Lower),
    set("sim.delta.speedup_vs_full_x", "x", Better::Higher),
    // mr-sim DAG executor.
    span("sim.dag.run_ms", "dag.run"),
    set("sim.dag.level_ms", "ms", Better::Lower),
    set("sim.dag.stage_self_ms", "ms", Better::Lower),
    count("sim.dag.rounds", "count", Better::Lower),
    // mr-core problems and family registry.
    set("core.problems.assign_ms", "ms", Better::Lower),
    set("core.problems.reduce_ms", "ms", Better::Lower),
    span("core.family.instance_ms", "out.core.family.instance"),
    set("core.family.census_ms", "ms", Better::Lower),
    count("core.family.grid_points", "count", Better::Lower),
    // mr-plan.
    span("plan.dag.search_ms", "out.plan.dag.search"),
    span("plan.dag.execute_ms", "out.plan.dag.execute"),
    count("plan.dag.candidates", "count", Better::Lower),
    span("plan.planner.search_ms", "out.plan.planner.search"),
    span("plan.planner.execute_ms", "out.plan.planner.execute"),
    set("plan.cache.hit_us", "us", Better::Lower),
    count("plan.cache.hits", "count", Better::Higher),
    count("plan.cache.misses", "count", Better::Lower),
    // mr-lp.
    set("lp.shares_ms", "ms", Better::Lower),
    set("lp.cover_ms", "ms", Better::Lower),
    // mr-bench frontier sweep.
    span("bench.sweep.ms", "out.bench.sweep"),
    count("bench.sweep.points", "count", Better::Lower),
    // The traced pass itself.
    set("obs.traced_overhead_pct", "%", Better::Lower),
    set("obs.events_per_iter", "count", Better::Lower),
    set("obs.iter_ms_p50_traced", "ms", Better::Lower),
    set("obs.iter_ms_p50_untraced", "ms", Better::Lower),
    set("obs.iter_ms_p90_untraced", "ms", Better::Lower),
    set("obs.traced_iters", "count", Better::Higher),
    set("layer_coverage_pct", "%", Better::Higher),
];

/// Per-layer values collected during a traced pass, keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Records `value` for the per-layer metric `name`.
    ///
    /// # Panics
    /// Panics if `name` is not in [`PER_LAYER`] — a misspelt name would
    /// otherwise silently report 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// The recorded value, or 0 for a metric this workload left unset.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_bench::json::{parse, Value};

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{key} missing in {entry:?}"))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn manifest_lists_exactly_these_end_to_end_metrics() {
        let doc = manifest();
        let listed = doc.get("end_to_end").and_then(Value::as_array).unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, metric) in listed.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name"), metric.name);
            assert_eq!(field(entry, "unit"), metric.unit, "{}", metric.name);
            assert_eq!(
                field(entry, "better"),
                metric.better.name(),
                "{}",
                metric.name
            );
            let bound = entry.get("bound").and_then(Value::as_f64).unwrap();
            assert_eq!(bound, metric.bound, "{}", metric.name);
            assert!(bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn manifest_lists_exactly_these_per_layer_metrics() {
        let doc = manifest();
        let listed = doc.get("per_layer").and_then(Value::as_array).unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, metric) in listed.iter().zip(PER_LAYER) {
            assert_eq!(field(entry, "name"), metric.name);
            assert_eq!(field(entry, "unit"), metric.unit, "{}", metric.name);
            assert_eq!(
                field(entry, "better"),
                metric.better.name(),
                "{}",
                metric.name
            );
        }
    }

    #[test]
    fn manifest_lists_the_four_workloads() {
        let doc = manifest();
        let listed = doc.get("workloads").and_then(Value::as_array).unwrap();
        let names: Vec<&str> = listed.iter().map(|w| field(w, "name")).collect();
        assert_eq!(names, crate::workloads::NAMES);
        for w in listed {
            let why = field(w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn unset_layers_read_zero_and_unknown_names_are_rejected() {
        let mut layers = Layers::default();
        assert_eq!(layers.get("sim.dag.rounds"), 0.0);
        layers.set("sim.dag.rounds", 4.0);
        assert_eq!(layers.get("sim.dag.rounds"), 4.0);
        assert!(std::panic::catch_unwind(move || layers.set("no.such.metric", 1.0)).is_err());
    }
}
