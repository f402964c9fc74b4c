//! Multi-round Hamming-distance-1 structures for the round-structure
//! search.
//!
//! The one-round Splitting algorithm (§3.3, [`DistanceDSplittingSchema`]
//! at `d = 1`) sits
//! exactly on the Theorem 3.2 hyperbola: `k` segments give `q = 2^{b/k}`,
//! `r = k`. This module re-expresses it as a [`DagJob`] and adds the two
//! multi-round variants the planner enumerates:
//!
//! * [`split_dag`] — the classic one-round schema: one node, every string
//!   replicated to its `k` group reducers (`r = k`, `q = 2^{b/k}`);
//! * [`parallel_split_dag`] — `k` *source* nodes, one per held-out
//!   segment, each sending a string to its reducer in that segment's
//!   group only. Per-node `r = 1`
//!   and `q = 2^{b/k}`; the totals match the one-round schema exactly
//!   (`k` rounds of `2^b` pairs each), so under cost
//!   `Σ rounds (a·r + b·q)` the extra per-round `b·q` charges make it
//!   strictly worse whenever `b > 0` — a structure the search must
//!   *consider and reject*, and the depth stays 1 because the nodes run
//!   in one stage;
//! * [`split_consolidate_dag`] — the parallel split feeding a
//!   consolidation round that re-keys every found pair by the top bits of
//!   its smaller endpoint (depth 2). The extra round only costs, so it
//!   documents where deeper Hamming structures stop paying.
//!
//! Every variant emits each distance-1 pair exactly once (a pair's single
//! differing bit lies in exactly one segment), as
//! [`HammingProblem`](super::problem::HammingProblem)
//! requires, so the variants are interchangeable up to output order.

use super::splitting::{near_pairs, DistanceDSplittingSchema};
use crate::model::ReducerId;
use mr_sim::schema::SchemaJob;
use mr_sim::{DagJob, FnSchema};
use std::ops::Range;

/// The uniform token a Hamming [`DagJob`] flows between rounds: input
/// strings in, found pairs out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HamToken {
    /// A `b`-bit input string.
    Str(u64),
    /// A found pair at Hamming distance 1, smaller endpoint first.
    Pair(u64, u64),
}

/// All `2^b` strings as tokens — the instance every Hamming DAG runs on
/// (the §3 problem takes the full cube as input).
pub fn all_strings(b: u32) -> Vec<HamToken> {
    (0..(1u64 << b)).map(HamToken::Str).collect()
}

/// The string a split round's token carries.
fn string(token: &HamToken) -> u64 {
    let HamToken::Str(w) = *token else {
        unreachable!("split rounds consume strings only");
    };
    w
}

/// A split round: each string goes to its reducers in `groups` of the
/// Splitting schema at `d = 1` — group `i` deletes segment `i` — and
/// each reducer emits the distance-1 pairs among its strings, smaller
/// endpoint first, in scan order over its input slice: the Splitting
/// reducer's kernel, [`near_pairs`], at `d = 1`.
struct SplitRound {
    schema: DistanceDSplittingSchema,
    groups: Range<usize>,
}

impl SchemaJob<HamToken, HamToken> for SplitRound {
    fn assign_into(&self, token: &HamToken, emit: &mut dyn FnMut(ReducerId)) {
        let w = string(token);
        for group in self.groups.clone() {
            emit(self.schema.group_reducer(w, group));
        }
    }

    fn reduce(&self, _: ReducerId, inputs: &[HamToken], emit: &mut dyn FnMut(HamToken)) {
        near_pairs(inputs, string, 1, |i, j| {
            let (a, b) = (string(&inputs[i]), string(&inputs[j]));
            emit(HamToken::Pair(a.min(b), a.max(b)));
        });
    }
}

/// The one-round Splitting algorithm as a single-node DAG: string `w`
/// goes to the `k` reducers obtained by deleting one segment, exactly as
/// [`DistanceDSplittingSchema`] at `d = 1` sends it.
///
/// # Panics
/// Panics on a shape `DistanceDSplittingSchema::new(b, k, 1)` refuses.
pub fn split_dag(b: u32, k: u32) -> DagJob<HamToken> {
    let schema = DistanceDSplittingSchema::new(b, k, 1);
    let mut dag = DagJob::new();
    let groups = 0..k as usize;
    dag.add_round(
        format!("split(k={k})"),
        vec![],
        SplitRound { schema, groups },
    );
    dag
}

/// The splitting groups as `k` independent DAG nodes, one per held-out
/// segment: node `i` sends every string to its group-`i` reducer only
/// (per-node `r = 1`), and all nodes are sinks.
///
/// # Panics
/// Panics on a shape `DistanceDSplittingSchema::new(b, k, 1)` refuses.
pub fn parallel_split_dag(b: u32, k: u32) -> DagJob<HamToken> {
    let schema = DistanceDSplittingSchema::new(b, k, 1);
    let mut dag = DagJob::new();
    for i in 0..k as usize {
        let round = SplitRound {
            schema: schema.clone(),
            groups: i..i + 1,
        };
        dag.add_round(format!("split-seg-{i}"), vec![], round);
    }
    dag
}

/// [`parallel_split_dag`] feeding a depth-2 consolidation round that
/// buckets every found pair by the top two bits of its smaller endpoint
/// and re-emits it — the "collect the answer somewhere" round a real
/// pipeline would append before writing output.
pub fn split_consolidate_dag(b: u32, k: u32) -> DagJob<HamToken> {
    let mut dag = parallel_split_dag(b, k);
    let deps: Vec<usize> = (0..k as usize).collect();
    let shift = b.saturating_sub(2);
    let consolidate = FnSchema(
        move |token: &HamToken, emit: &mut dyn FnMut(ReducerId)| {
            let HamToken::Pair(u, _) = token else {
                unreachable!("the consolidation round consumes pairs only");
            };
            emit(u >> shift);
        },
        |_: ReducerId, inputs: &[HamToken], emit: &mut dyn FnMut(HamToken)| {
            inputs.iter().copied().for_each(emit)
        },
    );
    dag.add_round("consolidate", deps, consolidate);
    dag
}

#[cfg(test)]
mod tests {
    use super::super::problem::hamming_distance;
    use super::*;
    use mr_sim::EngineConfig;

    /// Ground truth: serial all-pairs scan.
    fn expected_pairs(b: u32) -> Vec<(u64, u64)> {
        let n = 1u64 << b;
        let mut out = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if hamming_distance(u, v) == 1 {
                    out.push((u, v));
                }
            }
        }
        out
    }

    fn found_pairs(dag: &DagJob<HamToken>, b: u32, cfg: &EngineConfig) -> Vec<(u64, u64)> {
        let (out, _) = dag.run(&all_strings(b), cfg).unwrap();
        let mut pairs: Vec<(u64, u64)> = out
            .into_iter()
            .map(|t| match t {
                HamToken::Pair(u, v) => (u, v),
                HamToken::Str(_) => panic!("strings in the output"),
            })
            .collect();
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn every_variant_finds_every_pair_exactly_once() {
        let b = 6;
        let expected = expected_pairs(b);
        assert_eq!(expected.len() as u64, (b as u64) << (b - 1)); // b·2^(b−1)
        let cfg = EngineConfig::sequential();
        for k in [1u32, 2, 3, 6] {
            assert_eq!(
                found_pairs(&split_dag(b, k), b, &cfg),
                expected,
                "split k={k}"
            );
        }
        for k in [2u32, 3, 6] {
            assert_eq!(
                found_pairs(&parallel_split_dag(b, k), b, &cfg),
                expected,
                "parallel k={k}"
            );
            assert_eq!(
                found_pairs(&split_consolidate_dag(b, k), b, &cfg),
                expected,
                "consolidate k={k}"
            );
        }
    }

    #[test]
    fn census_matches_the_splitting_closed_forms() {
        let b = 6;
        let k = 3;
        let n = 1u64 << b;
        let cfg = EngineConfig::sequential();
        // One round: q = 2^{b/k}, pairs = k·2^b.
        let (_, m) = split_dag(b, k).run(&all_strings(b), &cfg).unwrap();
        assert_eq!(m.rounds.len(), 1);
        assert_eq!(m.rounds[0].load.max, 1 << (b / k));
        assert_eq!(m.rounds[0].kv_pairs, k as u64 * n);
        // Parallel: k rounds of q = 2^{b/k}, pairs = 2^b each — identical
        // totals, spread over nodes.
        let (_, mp) = parallel_split_dag(b, k).run(&all_strings(b), &cfg).unwrap();
        assert_eq!(mp.rounds.len(), k as usize);
        for r in &mp.rounds {
            assert_eq!(r.load.max, 1 << (b / k));
            assert_eq!(r.kv_pairs, n);
        }
    }

    #[test]
    fn parallel_split_runs_in_one_stage_and_consolidate_in_two() {
        assert_eq!(parallel_split_dag(6, 3).depth(), 1);
        assert_eq!(split_consolidate_dag(6, 3).depth(), 2);
    }

    #[test]
    fn split_dag_emits_the_splitting_schemas_sequence() {
        use crate::problems::hamming::splitting::DistanceDSplittingSchema;
        use mr_sim::run_schema;
        // One kernel: the DAG's reducers and the schema's at d = 1 emit the
        // same pairs in the same order, element for element.
        for b in [8u32, 12] {
            let strings: Vec<u64> = (0..1u64 << b).collect();
            for k in (1..=b).filter(|k| b % k == 0) {
                let schema = DistanceDSplittingSchema::new(b, k, 1);
                for workers in [1usize, 4] {
                    let cfg = EngineConfig::parallel(workers);
                    let (tokens, _) = split_dag(b, k).run(&all_strings(b), &cfg).unwrap();
                    let dag: Vec<(u64, u64)> = tokens
                        .into_iter()
                        .map(|t| match t {
                            HamToken::Pair(u, v) => (u, v),
                            HamToken::Str(_) => panic!("strings in the output"),
                        })
                        .collect();
                    let (pairs, _) = run_schema(&strings, &schema, &cfg).unwrap();
                    assert_eq!(dag, pairs, "b={b} k={k} workers={workers}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit a ReducerId")]
    fn split_dag_refuses_group_ids_that_alias() {
        // 64 groups of one bit each: group 2's id would shift 2 past bit 63.
        split_dag(64, 64);
    }

    #[test]
    fn variants_are_worker_count_independent() {
        let b = 6;
        for build in [
            split_dag as fn(u32, u32) -> DagJob<HamToken>,
            parallel_split_dag,
            split_consolidate_dag,
        ] {
            let dag = build(b, 2);
            let (seq, ms) = dag
                .run(&all_strings(b), &EngineConfig::sequential())
                .unwrap();
            for workers in [1usize, 4, 16] {
                let (par, mp) = dag
                    .run(&all_strings(b), &EngineConfig::parallel(workers))
                    .unwrap();
                assert_eq!(seq, par, "workers={workers}");
                assert_eq!(ms, mp, "workers={workers}");
            }
        }
    }
}
