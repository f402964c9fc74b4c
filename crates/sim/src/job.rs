//! Multi-round map-reduce pipelines.
//!
//! §6.3 of the paper analyses a **two-phase** matrix-multiplication job in
//! which the first round's reduce output (partial sums `x_ijk` grouped per
//! `(i,k)`) becomes the second round's map input. [`Job`] models exactly
//! this chaining: a `Job<I, O>` consumes inputs of type `I` and produces
//! outputs of type `O` after one or more rounds, accumulating
//! [`RoundMetrics`] per round so total communication can be compared across
//! strategies.

use crate::engine::{run_round, EngineConfig, EngineError};
use crate::mapper::{Mapper, Reducer};
use crate::metrics::{JobMetrics, RoundMetrics};
use std::fmt::Debug;
use std::hash::Hash;

type RunFn<I, O> =
    Box<dyn Fn(Vec<I>, &EngineConfig) -> Result<(Vec<O>, Vec<RoundMetrics>), EngineError> + Sync>;

/// A chain of one or more map-reduce rounds taking `I` inputs to `O`
/// outputs.
pub struct Job<I, O> {
    run_fn: RunFn<I, O>,
    rounds: usize,
}

impl<I: Sync + 'static, O: Send + 'static> Job<I, O> {
    /// A single-round job from a mapper and reducer.
    pub fn single<K, V, M, R>(mapper: M, reducer: R) -> Job<I, O>
    where
        K: Ord + Hash + Debug + Send + Sync + 'static,
        V: Send + Sync + 'static,
        M: Mapper<I, K, V> + 'static,
        R: Reducer<K, V, O> + 'static,
    {
        Job {
            run_fn: Box::new(move |inputs, cfg| {
                let (out, m) = run_round(&inputs, &mapper, &reducer, cfg)?;
                Ok((out, vec![m]))
            }),
            rounds: 1,
        }
    }

    /// A job from an arbitrary run function reporting `rounds` rounds —
    /// the adapter that lets run-time-shaped executors (a
    /// [`DagJob`](crate::DagJob) picked by the planner's round-structure
    /// search) present themselves through the `Job` interface. The
    /// function must uphold the crate's contracts itself: deterministic
    /// outputs/metrics at every worker count, and exactly `rounds`
    /// entries of metrics on success.
    pub fn from_fn(
        rounds: usize,
        run_fn: impl Fn(Vec<I>, &EngineConfig) -> Result<(Vec<O>, Vec<RoundMetrics>), EngineError>
            + Sync
            + 'static,
    ) -> Job<I, O> {
        Job {
            run_fn: Box::new(run_fn),
            rounds,
        }
    }

    /// Appends another round: this job's outputs become the next round's
    /// map inputs.
    pub fn then<K2, V2, O2, M, R>(self, mapper: M, reducer: R) -> Job<I, O2>
    where
        O: Sync,
        K2: Ord + Hash + Debug + Send + Sync + 'static,
        V2: Send + Sync + 'static,
        O2: Send + 'static,
        M: Mapper<O, K2, V2> + 'static,
        R: Reducer<K2, V2, O2> + 'static,
    {
        let prev = self.run_fn;
        let rounds = self.rounds + 1;
        Job {
            run_fn: Box::new(move |inputs, cfg| {
                let (mid, mut metrics) = prev(inputs, cfg)?;
                let (out, m) = run_round(&mid, &mapper, &reducer, cfg)?;
                metrics.push(m);
                Ok((out, metrics))
            }),
            rounds,
        }
    }

    /// Number of rounds in the chain.
    pub fn num_rounds(&self) -> usize {
        self.rounds
    }

    /// Executes the job.
    pub fn run(
        &self,
        inputs: Vec<I>,
        config: &EngineConfig,
    ) -> Result<(Vec<O>, JobMetrics), EngineError> {
        let (out, rounds) = (self.run_fn)(inputs, config)?;
        Ok((out, JobMetrics { rounds }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{FnMapper, FnReducer};

    /// Two-round job: round 1 computes per-group sums, round 2 finds the
    /// global max of the sums — a miniature of the paper's
    /// "join followed by aggregation" example (§7.1).
    #[test]
    fn two_round_pipeline() {
        let job: Job<(u32, u32), u32> = Job::single(
            FnMapper(|&(g, x): &(u32, u32), emit: &mut dyn FnMut(u32, u32)| emit(g, x)),
            FnReducer(|g: &u32, vs: &[u32], emit: &mut dyn FnMut((u32, u32))| {
                emit((*g, vs.iter().sum()))
            }),
        )
        .then(
            FnMapper(|&(_, s): &(u32, u32), emit: &mut dyn FnMut(u8, u32)| emit(0, s)),
            FnReducer(|_: &u8, vs: &[u32], emit: &mut dyn FnMut(u32)| {
                emit(*vs.iter().max().unwrap())
            }),
        );
        assert_eq!(job.num_rounds(), 2);
        let inputs = vec![(0, 5), (1, 7), (0, 2), (1, 1), (2, 4)];
        let (out, metrics) = job.run(inputs, &EngineConfig::sequential()).unwrap();
        assert_eq!(out, vec![8]); // group 1 sums to 8
        assert_eq!(metrics.rounds.len(), 2);
        assert_eq!(metrics.rounds[0].inputs, 5);
        assert_eq!(metrics.rounds[1].inputs, 3); // three group sums
        assert_eq!(metrics.total_communication(), 5 + 3);
    }

    #[test]
    fn single_round_job_matches_run_round() {
        let job: Job<u32, u32> = Job::single(
            FnMapper(|x: &u32, emit: &mut dyn FnMut(u32, u32)| emit(*x % 3, *x)),
            FnReducer(|_: &u32, vs: &[u32], emit: &mut dyn FnMut(u32)| emit(vs.iter().sum())),
        );
        let (out, m) = job
            .run((0..9).collect(), &EngineConfig::sequential())
            .unwrap();
        assert_eq!(out, vec![9, 12, 15]); // per-residue sums mod 3
        assert_eq!(m.rounds.len(), 1);
        assert_eq!(m.max_reducer_load(), 3);
    }

    #[test]
    fn budget_enforced_in_later_rounds() {
        // Round 2 funnels everything to one key, violating q=2.
        let job: Job<u32, u32> = Job::single(
            FnMapper(|x: &u32, emit: &mut dyn FnMut(u32, u32)| emit(*x, *x)),
            FnReducer(|_: &u32, vs: &[u32], emit: &mut dyn FnMut(u32)| emit(vs[0])),
        )
        .then(
            FnMapper(|x: &u32, emit: &mut dyn FnMut(u8, u32)| emit(0, *x)),
            FnReducer(|_: &u8, vs: &[u32], emit: &mut dyn FnMut(u32)| emit(vs.iter().sum())),
        );
        let cfg = EngineConfig::sequential().with_max_reducer_inputs(2);
        let err = job.run((0..5).collect(), &cfg).unwrap_err();
        assert!(matches!(err, EngineError::ReducerOverflow { load: 5, .. }));
    }

    #[test]
    fn parallel_pipeline_is_deterministic() {
        let build = || -> Job<u32, (u32, u32)> {
            Job::single(
                FnMapper(|x: &u32, emit: &mut dyn FnMut(u32, u32)| {
                    emit(*x % 10, *x);
                    emit((*x + 1) % 10, *x);
                }),
                FnReducer(|k: &u32, vs: &[u32], emit: &mut dyn FnMut((u32, u32))| {
                    emit((*k, vs.iter().sum()))
                }),
            )
        };
        let inputs: Vec<u32> = (0..1000).collect();
        let (seq, ms) = build()
            .run(inputs.clone(), &EngineConfig::sequential())
            .unwrap();
        let (par, mp) = build().run(inputs, &EngineConfig::parallel(4)).unwrap();
        assert_eq!(seq, par);
        assert_eq!(ms, mp);
    }
}
