//! The original `BTreeMap`-centric shuffle, retained as a **test-only
//! regression oracle** for the columnar data plane.
//!
//! This module is a faithful copy of the engine's pre-columnar pipeline
//! over a schema: map workers send each input to the reducers its
//! assignment names, scattering `(reducer, input)` pairs into
//! `P = min(workers, inputs)` hash buckets (routed by a byte-at-a-time
//! FxHash-style hasher and a modulo), each partition is grouped into its
//! own `BTreeMap`, and the per-partition sorted runs are merged by
//! smallest head reducer. It is comparison-bound and allocation-heavy —
//! that is the point: the columnar engine in [`mr_sim::engine`] must
//! produce byte-identical outputs and semantic metrics on every workload
//! at every worker count, including the same smallest-reducer overflow
//! offender, and the `columnar_oracle` battery asserts exactly that
//! against this module. It shares nothing with the engine but the
//! [`SchemaJob`] it runs and the worker pool. Do **not** use it in
//! production paths.

use mr_sim::{fan_out, EngineConfig, EngineError, LoadStats, RoundMetrics, ShuffleStats};
use mr_sim::{ReducerId, SchemaJob};
use std::collections::BTreeMap;
use std::hash::Hasher;

/// Reducer-sorted groups: one `(reducer, inputs)` entry per distinct
/// reducer, ascending by id, inputs in arrival order.
type Groups<V> = Vec<(ReducerId, Vec<V>)>;

/// Bytes one `(reducer id, input)` pair — §2.2's key-value pair —
/// occupies in the columnar shuffle: `mr-sim`'s unit behind
/// [`ShuffleStats::bytes_moved`], which this oracle reports too.
fn pair_bytes<V>() -> u64 {
    (std::mem::size_of::<ReducerId>() + std::mem::size_of::<V>()) as u64
}

/// The pre-columnar deterministic, seed-free multiply-rotate hasher
/// (FxHash-style byte loop) used for partition routing.
struct PartitionHasher(u64);

impl Hasher for PartitionHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The hash partition (in `0..partitions`) that owns reducer `rid`, by
/// modulo on the byte-loop hash — the old routing function.
fn partition_of(rid: ReducerId, partitions: usize) -> usize {
    let mut h = PartitionHasher(0);
    h.write(&rid.to_ne_bytes());
    (h.finish() % partitions as u64) as usize
}

/// Executes one schema round through the naive `BTreeMap` pipeline. Same
/// contract as [`mr_sim::run_schema`]: outputs in ascending reducer
/// order, emission order within a reducer, identical at every worker
/// count.
pub fn run_schema_naive<I, O, S>(
    inputs: &[I],
    schema: &S,
    config: &EngineConfig,
) -> Result<(Vec<O>, RoundMetrics), EngineError>
where
    I: Clone + Send + Sync,
    O: Send,
    S: SchemaJob<I, O> + ?Sized,
{
    let workers = config.effective_workers();
    if workers <= 1 {
        run_sequential(inputs, schema, config)
    } else {
        run_partitioned(inputs, schema, config, workers)
    }
}

/// The fully sequential naive path: one `BTreeMap`, everything on the
/// calling thread.
fn run_sequential<I, O, S>(
    inputs: &[I],
    schema: &S,
    config: &EngineConfig,
) -> Result<(Vec<O>, RoundMetrics), EngineError>
where
    I: Clone,
    S: SchemaJob<I, O> + ?Sized,
{
    let mut pairs = Vec::new();
    for input in inputs {
        schema.assign_into(input, &mut |rid| pairs.push((rid, input.clone())));
    }
    let kv_pairs = pairs.len() as u64;
    let mut shuffle_stats = ShuffleStats::from_partition_loads(&[kv_pairs]);
    shuffle_stats.bytes_moved = Some(kv_pairs * pair_bytes::<I>());
    let groups = shuffle(pairs);

    if let Some(q) = config.max_reducer_inputs {
        for (rid, vs) in &groups {
            if vs.len() as u64 > q {
                return Err(EngineError::ReducerOverflow {
                    key: *rid,
                    load: vs.len() as u64,
                    limit: q,
                });
            }
        }
    }

    let entries: Groups<I> = groups.into_iter().collect();
    let mut outputs = Vec::new();
    for (rid, vs) in &entries {
        schema.reduce(*rid, vs, &mut |o| outputs.push(o));
    }
    let metrics = round_metrics(
        inputs.len(),
        kv_pairs,
        &entries,
        outputs.len(),
        shuffle_stats,
    );
    Ok((outputs, metrics))
}

/// The parallel naive path: map-scatter → per-partition `BTreeMap`
/// group/check → reducer-order merge → chunked reduce.
fn run_partitioned<I, O, S>(
    inputs: &[I],
    schema: &S,
    config: &EngineConfig,
    workers: usize,
) -> Result<(Vec<O>, RoundMetrics), EngineError>
where
    I: Clone + Send + Sync,
    O: Send,
    S: SchemaJob<I, O> + ?Sized,
{
    let p = workers.min(inputs.len()).max(1);
    let partitions = map_scatter_phase(inputs, schema, workers, p);
    let kv_pairs: u64 = partitions.iter().map(|p| p.len() as u64).sum();
    let (entries, mut shuffle_stats) = shuffle_partitioned(partitions, config.max_reducer_inputs)?;
    shuffle_stats.bytes_moved = Some(kv_pairs * pair_bytes::<I>());
    let outputs = naive_reduce_phase(&entries, schema, workers);
    let metrics = round_metrics(
        inputs.len(),
        kv_pairs,
        &entries,
        outputs.len(),
        shuffle_stats,
    );
    Ok((outputs, metrics))
}

/// Assembles [`RoundMetrics`] from reducer-sorted groups.
fn round_metrics<V>(
    inputs: usize,
    kv_pairs: u64,
    entries: &[(ReducerId, Vec<V>)],
    outputs: usize,
    shuffle: ShuffleStats,
) -> RoundMetrics {
    let loads: Vec<u64> = entries.iter().map(|(_, vs)| vs.len() as u64).collect();
    RoundMetrics {
        inputs: inputs as u64,
        kv_pairs,
        reducers: entries.len() as u64,
        outputs: outputs as u64,
        load: LoadStats::from_loads(loads.clone()),
        loads: {
            let mut l = loads;
            l.sort_unstable();
            l
        },
        shuffle,
    }
}

/// Runs the map phase, scattering emissions into `p` hash buckets as they
/// are produced — including the unhinted, zero-capacity bucket `Vec`s
/// whose growth reallocations the columnar plane was built to eliminate.
fn map_scatter_phase<I, O, S>(
    inputs: &[I],
    schema: &S,
    workers: usize,
    p: usize,
) -> Vec<Vec<(ReducerId, I)>>
where
    I: Clone + Send + Sync,
    S: SchemaJob<I, O> + ?Sized,
{
    let mut partitions: Vec<Vec<(ReducerId, I)>> = (0..p).map(|_| Vec::new()).collect();
    if inputs.is_empty() {
        return partitions;
    }
    let map_workers = workers.min(inputs.len());
    let chunk = inputs.len().div_ceil(map_workers);
    let chunks: Vec<&[I]> = inputs.chunks(chunk).collect();
    let per_worker = fan_out(workers, chunks, |c| {
        let mut buckets: Vec<Vec<(ReducerId, I)>> = (0..p).map(|_| Vec::new()).collect();
        for input in c {
            schema.assign_into(input, &mut |rid| {
                buckets[partition_of(rid, p)].push((rid, input.clone()));
            });
        }
        buckets
    });
    for worker_buckets in per_worker {
        for (pi, mut bucket) in worker_buckets.into_iter().enumerate() {
            partitions[pi].append(&mut bucket);
        }
    }
    partitions
}

/// Group-sorts and budget-checks every partition concurrently in its own
/// `BTreeMap`, then merges the per-partition sorted runs by smallest head
/// key. On overflow, reports the globally smallest over-budget reducer.
fn shuffle_partitioned<V: Send>(
    partitions: Vec<Vec<(ReducerId, V)>>,
    q: Option<u64>,
) -> Result<(Groups<V>, ShuffleStats), EngineError> {
    let partition_loads: Vec<u64> = partitions.iter().map(|p| p.len() as u64).collect();
    let stats = ShuffleStats::from_partition_loads(&partition_loads);

    let lanes = partitions.len();
    let grouped: Vec<(BTreeMap<ReducerId, Vec<V>>, bool)> = fan_out(lanes, partitions, |pairs| {
        let mut groups: BTreeMap<ReducerId, Vec<V>> = BTreeMap::new();
        for (k, v) in pairs {
            groups.entry(k).or_default().push(v);
        }
        let over_budget = q.is_some_and(|q| groups.values().any(|vs| vs.len() as u64 > q));
        (groups, over_budget)
    });

    if let Some(q) = q {
        if grouped.iter().any(|(_, over)| *over) {
            let mut worst: Option<(&ReducerId, u64)> = None;
            for (groups, over) in &grouped {
                if !over {
                    continue;
                }
                if let Some((k, vs)) = groups.iter().find(|(_, vs)| vs.len() as u64 > q) {
                    if worst.is_none_or(|(wk, _)| k < wk) {
                        worst = Some((k, vs.len() as u64));
                    }
                }
            }
            let (k, load) = worst.expect("a flagged partition must contain an offender");
            return Err(EngineError::ReducerOverflow {
                key: *k,
                load,
                limit: q,
            });
        }
    }

    // P-way merge of the ascending per-partition runs. Keys are disjoint
    // across partitions, so picking the smallest head each step yields the
    // exact sequence a single global BTreeMap would have produced.
    let expected: usize = grouped.iter().map(|(g, _)| g.len()).sum();
    let mut iters: Vec<_> = grouped.into_iter().map(|(g, _)| g.into_iter()).collect();
    let mut heads: Vec<Option<(ReducerId, Vec<V>)>> =
        iters.iter_mut().map(|it| it.next()).collect();
    let mut entries: Groups<V> = Vec::with_capacity(expected);
    loop {
        let mut best: Option<usize> = None;
        for (i, head) in heads.iter().enumerate() {
            if let Some((k, _)) = head {
                best = Some(match best {
                    None => i,
                    Some(b) => {
                        let (bk, _) = heads[b].as_ref().expect("best head is occupied");
                        if k < bk {
                            i
                        } else {
                            b
                        }
                    }
                });
            }
        }
        let Some(b) = best else { break };
        entries.push(heads[b].take().expect("selected head is occupied"));
        heads[b] = iters[b].next();
    }
    Ok((entries, stats))
}

/// Groups emissions by reducer, preserving emission order within each
/// reducer — the single-partition shuffle used by the sequential naive
/// path.
fn shuffle<V>(pairs: Vec<(ReducerId, V)>) -> BTreeMap<ReducerId, Vec<V>> {
    let mut groups: BTreeMap<ReducerId, Vec<V>> = BTreeMap::new();
    for (k, v) in pairs {
        groups.entry(k).or_default().push(v);
    }
    groups
}

/// Runs the reduce phase over reducer-sorted groups, concatenating
/// outputs in ascending reducer order.
fn naive_reduce_phase<I, O, S>(
    entries: &[(ReducerId, Vec<I>)],
    schema: &S,
    workers: usize,
) -> Vec<O>
where
    I: Sync,
    O: Send,
    S: SchemaJob<I, O> + ?Sized,
{
    if workers <= 1 || entries.len() < 2 {
        let mut outputs = Vec::new();
        for (rid, vs) in entries {
            schema.reduce(*rid, vs, &mut |o| outputs.push(o));
        }
        return outputs;
    }
    let workers = workers.min(entries.len());
    let chunk = entries.len().div_ceil(workers);
    let chunks: Vec<&[(ReducerId, Vec<I>)]> = entries.chunks(chunk).collect();
    let results = fan_out(workers, chunks, |c| {
        let mut outputs = Vec::new();
        for (rid, vs) in c {
            schema.reduce(*rid, vs, &mut |o| outputs.push(o));
        }
        outputs
    });
    results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_sim::FnSchema;

    #[test]
    fn naive_path_still_works_standalone() {
        // The oracle must stay healthy on its own, or oracle-vs-columnar
        // comparisons would be vacuous. Word count over word occurrences:
        // each goes to the reducer of its first letter.
        let words = ["a", "b", "a", "b", "c", "a"];
        let count = FnSchema(
            |w: &&str, emit: &mut dyn FnMut(ReducerId)| emit(u64::from(w.as_bytes()[0])),
            |_: ReducerId, ws: &[&str], emit: &mut dyn FnMut((String, usize))| {
                emit((ws[0].to_string(), ws.len()))
            },
        );
        let (seq, seq_m) = run_schema_naive(&words, &count, &EngineConfig::sequential()).unwrap();
        assert_eq!(seq, vec![("a".into(), 3), ("b".into(), 2), ("c".into(), 1)]);
        for workers in [2usize, 3, 8] {
            let (par, par_m) =
                run_schema_naive(&words, &count, &EngineConfig::parallel(workers)).unwrap();
            assert_eq!(seq, par);
            assert_eq!(seq_m, par_m);
        }
    }
}
