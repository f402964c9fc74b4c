//! Join→aggregate pipelines as DAGs of rounds (§7.1's suggested
//! direction).
//!
//! The paper closes by asking whether the §6.3 two-round analysis extends
//! to "SQL statements that require two phases of map-reduce, e.g., joins
//! followed by aggregations". The canonical instance, experiment `e71`'s —
//! `SELECT A₀, COUNT(*) FROM (chain join) GROUP BY A₀` — is expressed over
//! a uniform [`JoinToken`] so the round structure becomes a searchable
//! [`DagJob`]:
//!
//! * [`naive_count_dag`] — round 1 computes the full Shares join, round 2
//!   shuffles every result row to its `A₀` aggregator (the *hot-key*
//!   round: one reducer per distinct `A₀` swallows the whole output
//!   blow-up);
//! * [`pushed_count_dag`] with `fanout = 1` — round-1 reducers fold their
//!   local join to per-`A₀` partial counts before anything leaves
//!   (§6.3's pre-aggregation trick applied to SQL), round 2 merges;
//! * [`pushed_count_dag`] with `fanout ≥ 2` — a three-round variant that
//!   merges partials per `(A₀, bucket)` first and only then per `A₀`,
//!   trading an extra round (latency) for a smaller final-round reducer —
//!   the join-side analogue of the recursive matmul aggregation tree.
//!
//! All variants produce identical counts; they differ only in where the
//! communication and the reducer sizes land, which is exactly what the
//! plan layer's round-structure search prices. The partial-count trick is
//! the §6.3 mechanism (associative aggregation lets phase-1 reducers
//! pre-combine), and the measured gap mirrors the matrix-multiplication
//! result: push-down never loses and usually wins by the join's output
//! blow-up factor.

use super::query::Database;
use super::shares::SharesSchema;
use super::tuple::{TaggedTuple, Tuple};
use crate::model::ReducerId;
use mr_sim::schema::SchemaJob;
use mr_sim::{DagJob, FnSchema};
use std::collections::BTreeMap;

/// The uniform token a join→aggregate [`DagJob`] flows between rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinToken {
    /// An input tuple tagged with its atom.
    Tuple(TaggedTuple),
    /// A full join-result row (naive plan's intermediate).
    Row(Tuple),
    /// A partial count for `a0`, tagged with the merge bucket it belongs
    /// to on its way up the aggregation tree.
    Partial {
        /// The group-by value.
        a0: u32,
        /// Merge bucket (derived from the originating reducer).
        bucket: u32,
        /// Rows counted so far.
        count: u64,
    },
    /// A final `(a0, count)` result.
    Count(u32, u64),
}

impl JoinToken {
    /// The tagged tuple the join round reads.
    fn tagged(&self) -> &TaggedTuple {
        let JoinToken::Tuple(t) = self else {
            unreachable!("the join round consumes tuples only");
        };
        t
    }

    /// The group-by value and how many rows it stands for, of a row (one)
    /// or a partial count: what the merge rounds read.
    fn counted(&self) -> (u32, u64) {
        match *self {
            JoinToken::Row(row) => (row[0], 1),
            JoinToken::Partial { a0, count, .. } => (a0, count),
            _ => unreachable!("the merge rounds consume rows or partials"),
        }
    }
}

/// The database as tokens, in the same atom-major order
/// [`SharesSchema::run`] uses.
pub fn tagged_inputs(db: &Database) -> Vec<JoinToken> {
    db.tagged().into_iter().map(JoinToken::Tuple).collect()
}

/// Adds the Shares join round: tuples shuffled to the schema's reducer
/// grid and joined where they meet, over the reducer's borrowed inputs.
/// Without a `fanout` a reducer emits its rows; with one it emits its
/// per-`A₀` partial counts, in merge bucket `reducer id mod fanout`.
fn add_join_round(dag: &mut DagJob<JoinToken>, schema: SharesSchema, fanout: Option<u32>) -> usize {
    let assign_schema = schema.clone();
    dag.add_round(
        "join",
        vec![],
        FnSchema(
            move |token: &JoinToken, emit: &mut dyn FnMut(ReducerId)| {
                assign_schema.assign_into(token.tagged(), emit);
            },
            move |rid: ReducerId, inputs: &[JoinToken], emit: &mut dyn FnMut(JoinToken)| {
                let (query, tuples) = (schema.query(), inputs.iter().map(JoinToken::tagged));
                let Some(fanout) = fanout else {
                    return query.join_tagged(tuples, &mut |row| emit(JoinToken::Row(row)));
                };
                let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
                query.join_tagged(tuples, &mut |row| *counts.entry(row[0]).or_insert(0) += 1);
                let bucket = (rid % u64::from(fanout)) as u32;
                for (a0, count) in counts {
                    emit(JoinToken::Partial { a0, bucket, count });
                }
            },
        ),
    )
}

/// Adds the final merge round: everything for one `a0` meets at reducer
/// `a0` and the counts are summed.
fn add_final_merge(dag: &mut DagJob<JoinToken>, dep: usize) {
    dag.add_round(
        "merge",
        vec![dep],
        FnSchema(
            |token: &JoinToken, emit: &mut dyn FnMut(ReducerId)| {
                emit(u64::from(token.counted().0));
            },
            |a0: ReducerId, inputs: &[JoinToken], emit: &mut dyn FnMut(JoinToken)| {
                let total = inputs.iter().map(|t| t.counted().1).sum();
                emit(JoinToken::Count(a0 as u32, total));
            },
        ),
    );
}

/// The naive two-round pipeline: full join, then hot-key aggregation.
pub fn naive_count_dag(schema: SharesSchema) -> DagJob<JoinToken> {
    let mut dag = DagJob::new();
    let join = add_join_round(&mut dag, schema, None);
    add_final_merge(&mut dag, join);
    dag
}

/// The pushed pipeline: join reducers emit per-`A₀` partial counts. With
/// `fanout = 1` the partials merge in one round (two rounds total); with
/// `fanout ≥ 2` an intermediate round first merges per
/// `(A₀, reducer-id mod fanout)` bucket (three rounds total).
///
/// # Panics
/// Panics if `fanout` is 0.
pub fn pushed_count_dag(schema: SharesSchema, fanout: u32) -> DagJob<JoinToken> {
    assert!(fanout >= 1, "fanout must be positive");
    let mut dag = DagJob::new();
    let join = add_join_round(&mut dag, schema, Some(fanout));
    let mut prev = join;
    if fanout >= 2 {
        // Reducer `a0 << 32 | bucket`: ids order like `(a0, bucket)`.
        prev = dag.add_round(
            "merge-buckets",
            vec![join],
            FnSchema(
                |token: &JoinToken, emit: &mut dyn FnMut(ReducerId)| {
                    let JoinToken::Partial { a0, bucket, .. } = token else {
                        unreachable!("the bucket round consumes partials only");
                    };
                    emit(u64::from(*a0) << 32 | u64::from(*bucket));
                },
                |key: ReducerId, inputs: &[JoinToken], emit: &mut dyn FnMut(JoinToken)| {
                    emit(JoinToken::Partial {
                        a0: (key >> 32) as u32,
                        bucket: key as u32,
                        count: inputs.iter().map(|t| t.counted().1).sum(),
                    });
                },
            ),
        );
    }
    add_final_merge(&mut dag, prev);
    dag
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::join::query::Query;
    use mr_sim::EngineConfig;

    fn setup() -> (SharesSchema, Database) {
        let query = Query::chain(2);
        let db = Database::complete(&query, 6);
        (SharesSchema::new(query, vec![1, 3, 1]), db)
    }

    /// A sparse random chain-3 instance beside [`setup`]'s complete one.
    fn random_chain3() -> (SharesSchema, Database) {
        let query = Query::chain(3);
        let db = Database::random(&query, 16, 200, 5);
        (SharesSchema::new(query, vec![1, 2, 2, 1]), db)
    }

    fn counts_of(dag: &DagJob<JoinToken>, db: &Database, cfg: &EngineConfig) -> Vec<(u32, u64)> {
        let (out, _) = dag.run(&tagged_inputs(db), cfg).unwrap();
        out.into_iter()
            .map(|t| match t {
                JoinToken::Count(a0, c) => (a0, c),
                other => panic!("non-count output {other:?}"),
            })
            .collect()
    }

    /// Ground truth from the serial join.
    fn serial_counts(schema: &SharesSchema, db: &Database) -> Vec<(u32, u64)> {
        let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
        for row in db.join(schema.query()) {
            *counts.entry(row[0]).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    #[test]
    fn all_variants_compute_the_same_counts() {
        let (schema, db) = setup();
        let expected = serial_counts(&schema, &db);
        let cfg = EngineConfig::sequential();
        assert_eq!(
            counts_of(&naive_count_dag(schema.clone()), &db, &cfg),
            expected
        );
        assert_eq!(
            counts_of(&pushed_count_dag(schema.clone(), 1), &db, &cfg),
            expected
        );
        assert_eq!(
            counts_of(&pushed_count_dag(schema.clone(), 2), &db, &cfg),
            expected
        );
    }

    #[test]
    fn both_plans_compute_the_same_counts() {
        let (schema, db) = random_chain3();
        let expected = serial_counts(&schema, &db);
        let cfg = EngineConfig::sequential();
        assert_eq!(
            counts_of(&naive_count_dag(schema.clone()), &db, &cfg),
            expected
        );
        assert_eq!(counts_of(&pushed_count_dag(schema, 1), &db, &cfg), expected);
    }

    #[test]
    fn round_counts_and_depths() {
        let (schema, _) = setup();
        assert_eq!(naive_count_dag(schema.clone()).num_rounds(), 2);
        assert_eq!(pushed_count_dag(schema.clone(), 1).num_rounds(), 2);
        let tree = pushed_count_dag(schema, 2);
        assert_eq!(tree.num_rounds(), 3);
        assert_eq!(tree.depth(), 3);
    }

    #[test]
    fn pushed_communicates_less_than_naive_after_round_one() {
        let (schema, db) = setup();
        let cfg = EngineConfig::sequential();
        let (_, naive) = naive_count_dag(schema.clone())
            .run(&tagged_inputs(&db), &cfg)
            .unwrap();
        let (_, pushed) = pushed_count_dag(schema, 1)
            .run(&tagged_inputs(&db), &cfg)
            .unwrap();
        assert_eq!(naive.rounds[0].kv_pairs, pushed.rounds[0].kv_pairs);
        assert!(pushed.rounds[1].kv_pairs < naive.rounds[1].kv_pairs);
    }

    #[test]
    fn push_down_never_communicates_more() {
        let (schema, db) = random_chain3();
        let cfg = EngineConfig::sequential();
        let (_, naive) = naive_count_dag(schema.clone())
            .run(&tagged_inputs(&db), &cfg)
            .unwrap();
        let (_, pushed) = pushed_count_dag(schema, 1)
            .run(&tagged_inputs(&db), &cfg)
            .unwrap();
        // Round 1 (join shuffle) is identical; round 2 differs.
        assert_eq!(naive.rounds[0].kv_pairs, pushed.rounds[0].kv_pairs);
        assert!(
            pushed.rounds[1].kv_pairs <= naive.rounds[1].kv_pairs,
            "pushed {} > naive {}",
            pushed.rounds[1].kv_pairs,
            naive.rounds[1].kv_pairs
        );
        assert!(pushed.total_communication() <= naive.total_communication());
    }

    #[test]
    fn push_down_wins_by_the_output_blowup() {
        // On the complete instance the join output is n^m — far larger
        // than the domain — so push-down should save orders of magnitude.
        let query = Query::chain(2);
        let db = Database::complete(&query, 8); // join = 8³ = 512 rows
        let schema = SharesSchema::new(query, vec![1, 4, 1]);
        let cfg = EngineConfig::sequential();
        let (_, naive) = naive_count_dag(schema.clone())
            .run(&tagged_inputs(&db), &cfg)
            .unwrap();
        let (_, pushed) = pushed_count_dag(schema, 1)
            .run(&tagged_inputs(&db), &cfg)
            .unwrap();
        assert_eq!(naive.rounds[1].kv_pairs, 512);
        // Pushed round 2: at most reducers × distinct A0 = 4 × 8.
        assert!(pushed.rounds[1].kv_pairs <= 32);
        assert!(pushed.total_communication() < naive.total_communication());
    }

    #[test]
    fn pipelines_are_worker_count_independent() {
        let (schema, db) = setup();
        for dag in [
            naive_count_dag(schema.clone()),
            pushed_count_dag(schema.clone(), 1),
            pushed_count_dag(schema, 3),
        ] {
            let (seq, ms) = dag
                .run(&tagged_inputs(&db), &EngineConfig::sequential())
                .unwrap();
            for workers in [1usize, 4, 16] {
                let (par, mp) = dag
                    .run(&tagged_inputs(&db), &EngineConfig::parallel(workers))
                    .unwrap();
                assert_eq!(seq, par, "workers={workers}");
                assert_eq!(ms, mp, "workers={workers}");
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let (schema, db) = random_chain3();
        let dag = pushed_count_dag(schema, 1);
        let (a, ma) = dag
            .run(&tagged_inputs(&db), &EngineConfig::sequential())
            .unwrap();
        let (b, mb) = dag
            .run(&tagged_inputs(&db), &EngineConfig::parallel(4))
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(ma, mb);
    }
}
