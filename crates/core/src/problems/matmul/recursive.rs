//! Recursive multi-round matrix multiplication — the §6.3 two-phase
//! method generalised to an aggregation *tree*.
//!
//! Phase 1 is exactly the two-phase method's first round: the `(i, j, k)`
//! cube is tiled into `s × s × t` blocks and each block reducer emits
//! partial sums for its `s²` cells, one partial per j-block. That leaves
//! `m = n/t` partials per output cell, tagged with their j-block *group*.
//! Instead of funnelling all `m` partials into one reducer (the two-phase
//! method's second round), the aggregation proceeds in rounds of fan-in
//! `f`: each round merges up to `f` adjacent groups per cell, so round
//! `j` has reducer size `min(f, m_{j-1})` and after
//! `d = ⌈log_f m⌉` rounds a single group — the final cell — remains.
//!
//! The flat case `f ≥ m` (one aggregation round) **is** the two-phase
//! method, byte-for-byte — `flat_recursive_is_two_phase_byte_for_byte`
//! below proves it against the independent
//! [`TwoPhaseMatMul`](super::TwoPhaseMatMul) implementation, two plain
//! rounds run one after the other. Deeper trees trade strictly more
//! rounds (latency) and communication for smaller per-round reducers,
//! which is exactly the trade the plan layer's round-structure search
//! prices (§7's open multi-round question). At `t = n` phase 1 alone is
//! the §6.2 one-phase tiling ([`RecursiveMatMul::one_phase`]), so every
//! matmul structure the search can pick stages from this one module.

use super::matrix::Matrix;
use super::problem::{assemble, numeric_inputs, Cubes, MatMulProblem, NumericEntry};
use mr_sim::{DagJob, EngineConfig, EngineError, FnMapper, FnReducer, JobMetrics};

/// The uniform token a recursive-matmul [`DagJob`] flows between rounds:
/// matrix entries in, tagged partial cells between and out of rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatToken {
    /// An input matrix entry.
    Entry(NumericEntry),
    /// A partial sum for cell `(i, k)`: the group tag identifies which
    /// contiguous run of j-blocks it covers, halving the aggregation
    /// frontier every `log₂ f` rounds.
    Partial {
        /// Output row.
        i: u32,
        /// Output column.
        k: u32,
        /// Aggregation group (j-block index divided by `fᵈ` after `d`
        /// aggregation rounds).
        group: u32,
        /// The partial sum's `f64` bits (big-endian, like
        /// [`Cell`](super::problem::Cell)).
        bits: [u8; 8],
    },
}

/// Recursive matrix multiplication: one §6.3 phase-1 round followed by an
/// aggregation tree of fan-in `fanin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecursiveMatMul {
    /// Matrix side length.
    pub n: u32,
    /// Row/column block side (must divide `n`).
    pub s: u32,
    /// j-dimension block depth (must divide `n`).
    pub t: u32,
    /// Aggregation fan-in `f ≥ 2` (or 1 when a single partial per cell
    /// makes the tree trivial; never 0).
    pub fanin: u32,
}

impl RecursiveMatMul {
    /// Creates the job description.
    ///
    /// # Panics
    /// Panics unless `s` and `t` divide `n`, and `fanin ≥ 2` (fan-in 1 is
    /// admitted only in the trivial `t = n` case of one partial per
    /// cell; fan-in 0 never).
    pub fn new(n: u32, s: u32, t: u32, fanin: u32) -> Self {
        assert!(
            s >= 1 && s <= n && n.is_multiple_of(s),
            "s={s} must divide n={n}"
        );
        assert!(
            t >= 1 && t <= n && n.is_multiple_of(t),
            "t={t} must divide n={n}"
        );
        assert!(
            fanin > 0,
            "fanin=0: an aggregation round merges at least one group"
        );
        assert!(
            fanin >= 2 || n / t == 1,
            "fanin={fanin} must be at least 2 when m = n/t = {} partials need merging",
            n / t
        );
        RecursiveMatMul { n, s, t, fanin }
    }

    /// The flat (single aggregation round) shape: fan-in `m = n/t`, i.e.
    /// the classic §6.3 two-phase method.
    pub fn flat(n: u32, s: u32, t: u32) -> Self {
        RecursiveMatMul::new(n, s, t, (n / t).max(1))
    }

    /// Partials per output cell after phase 1, `m = n/t`.
    fn m(&self) -> u64 {
        (self.n / self.t) as u64
    }

    /// Number of aggregation rounds `d = ⌈log_fanin m⌉` (at least 1 —
    /// even a single partial is copied through one aggregation round,
    /// matching the two-phase method's round count).
    pub fn agg_rounds(&self) -> u32 {
        let mut groups = self.m();
        let mut d = 0;
        loop {
            groups = groups.div_ceil(self.fanin as u64);
            d += 1;
            if groups <= 1 {
                return d;
            }
        }
    }

    /// Total number of rounds, `1 + agg_rounds()`.
    pub fn num_rounds(&self) -> u32 {
        1 + self.agg_rounds()
    }

    /// Closed-form per-round `(q, kv_pairs)`, phase 1 first — the
    /// census the planner prices without executing. Phase 1:
    /// `q = 2st`, pairs `2n²·(n/s)`. Aggregation round `j` (with
    /// `m_0 = n/t` groups shrinking by `fanin` each round):
    /// `q = min(fanin, m_{j-1})`, pairs `n²·m_{j-1}`.
    pub fn round_specs(&self) -> Vec<(u64, u64)> {
        let n = self.n as u64;
        let mut specs = vec![(
            2 * self.s as u64 * self.t as u64,
            2 * n * n * (n / self.s as u64),
        )];
        let mut groups = self.m();
        loop {
            specs.push((groups.min(self.fanin as u64), n * n * groups));
            groups = groups.div_ceil(self.fanin as u64);
            if groups <= 1 {
                return specs;
            }
        }
    }

    /// Predicted total communication, `Σ` of the per-round pairs.
    pub fn predicted_communication(&self) -> f64 {
        self.round_specs().iter().map(|&(_, p)| p as f64).sum()
    }

    /// The §6.2 one-phase tiling as a single-round [`DagJob`] whose node
    /// is named `one-phase`: phase 1 at `t = n`, where each cube is one
    /// pair of `s`-row and `s`-column bands and its reducer emits finished
    /// product cells (as group-0 partials).
    ///
    /// # Panics
    /// Panics unless `s` divides `n`.
    pub fn one_phase(n: u32, s: u32) -> DagJob<MatToken> {
        let mut dag = DagJob::new();
        RecursiveMatMul::new(n, s, n, 1).add_phase1(&mut dag, "one-phase");
        dag
    }

    /// Adds the phase-1 round — block products over the `s × s × t`
    /// cubes — to `dag` as an input-reading node called `name`.
    fn add_phase1(&self, dag: &mut DagJob<MatToken>, name: &str) -> usize {
        let cubes = Cubes::new(MatMulProblem::new(self.n), self.s, self.s, self.t);
        let phase1_map = FnMapper(
            move |input: &MatToken, emit: &mut dyn FnMut(u64, MatToken)| {
                for cube in cubes.assign(&entry_of(input).0) {
                    emit(cube, *input);
                }
            },
        );
        let phase1_reduce = FnReducer(
            move |cube: &u64, inputs: &[MatToken], emit: &mut dyn FnMut(MatToken)| {
                let group = cubes.j_block(*cube);
                cubes.product(*cube, inputs.iter().map(entry_of), |(i, k, bits)| {
                    emit(MatToken::Partial { i, k, group, bits })
                });
            },
        );
        dag.add_round(name, vec![], phase1_map, phase1_reduce)
    }

    /// Builds the round chain as a [`DagJob`] over [`MatToken`]s — the
    /// executable the plan layer stages, budgets, and measures per round.
    pub fn dag(&self) -> DagJob<MatToken> {
        let f = self.fanin;
        let mut dag = DagJob::new();
        let mut prev = self.add_phase1(&mut dag, "phase-1");

        for round in 0..self.agg_rounds() {
            let agg_map = FnMapper(
                move |token: &MatToken, emit: &mut dyn FnMut((u32, u32, u32), MatToken)| {
                    let MatToken::Partial { i, k, group, .. } = token else {
                        unreachable!("aggregation rounds consume partials only");
                    };
                    emit((*i, *k, group / f), *token);
                },
            );
            let agg_reduce = FnReducer(
                move |key: &(u32, u32, u32),
                      partials: &[MatToken],
                      emit: &mut dyn FnMut(MatToken)| {
                    let sum: f64 = partials
                        .iter()
                        .map(|token| {
                            let MatToken::Partial { bits, .. } = token else {
                                unreachable!("aggregation rounds consume partials only");
                            };
                            f64::from_bits(u64::from_be_bytes(*bits))
                        })
                        .sum();
                    emit(MatToken::Partial {
                        i: key.0,
                        k: key.1,
                        group: key.2,
                        bits: sum.to_bits().to_be_bytes(),
                    });
                },
            );
            prev = dag.add_round(
                format!("aggregate-{}", round + 1),
                vec![prev],
                agg_map,
                agg_reduce,
            );
        }
        dag
    }

    /// Runs the multiplication end to end.
    pub fn run(
        &self,
        r: &Matrix,
        s_mat: &Matrix,
        config: &EngineConfig,
    ) -> Result<(Matrix, JobMetrics), EngineError> {
        let tokens: Vec<MatToken> = numeric_inputs(r, s_mat)
            .into_iter()
            .map(MatToken::Entry)
            .collect();
        let (tokens, metrics) = self.dag().run(&tokens, config)?;
        let cells = tokens.into_iter().map(|token| {
            let MatToken::Partial { i, k, bits, .. } = token else {
                unreachable!("the final aggregation round emits partials only");
            };
            (i, k, bits)
        });
        let n = r.n();
        Ok((assemble(n, n, cells), metrics))
    }
}

/// The matrix entry a phase-1 token carries.
fn entry_of(token: &MatToken) -> &NumericEntry {
    let MatToken::Entry(entry) = token else {
        unreachable!("phase 1 consumes matrix entries only");
    };
    entry
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::matmul::problem::run_one_phase;
    use crate::problems::matmul::{OnePhaseSchema, TwoPhaseMatMul};

    /// Every entry's `f64` bits, row-major.
    fn bits(m: &Matrix) -> Vec<u64> {
        let n = m.n();
        (0..n * n).map(|c| m[(c / n, c % n)].to_bits()).collect()
    }

    #[test]
    fn one_phase_round_is_the_one_phase_schema_bit_for_bit() {
        // Phase 1 at t = n is the §6.2 band tiling: same cubes, same
        // emission order, same accumulation — so the same product bits
        // and the same round metrics as `run_one_phase`.
        let n = 8u32;
        let a = Matrix::random(n as usize, 61);
        let b = Matrix::random(n as usize, 62);
        let tokens: Vec<MatToken> = numeric_inputs(&a, &b)
            .into_iter()
            .map(MatToken::Entry)
            .collect();
        for s in [1u32, 2, 4, 8] {
            let dag = RecursiveMatMul::one_phase(n, s);
            assert_eq!(dag.round_names(), vec!["one-phase"]);
            for workers in [1usize, 4] {
                let cfg = EngineConfig::parallel(workers);
                let (want, round) =
                    run_one_phase(&a, &b, &OnePhaseSchema::new(n, s), &cfg).unwrap();
                let (cells, metrics) = dag.run(&tokens, &cfg).unwrap();
                let mut got = Matrix::zeros(n as usize);
                for token in cells {
                    let MatToken::Partial { i, k, group, bits } = token else {
                        panic!("one-phase emits product cells only");
                    };
                    assert_eq!(group, 0, "s={s}: one j-block, one group");
                    got[(i as usize, k as usize)] = f64::from_bits(u64::from_be_bytes(bits));
                }
                assert_eq!(bits(&got), bits(&want), "s={s}, workers={workers}: product");
                assert_eq!(
                    metrics.rounds,
                    vec![round],
                    "s={s}, workers={workers}: metrics"
                );
            }
        }
    }

    #[test]
    fn flat_recursive_is_two_phase_byte_for_byte() {
        // The flat shape, staged as a DAG, must reproduce the independent
        // two-phase implementation — two plain rounds run one after the
        // other — exactly: every product bit and every round's metrics.
        let n = 8u32;
        let a = Matrix::random(n as usize, 21);
        let b = Matrix::random(n as usize, 22);
        for (s, t) in [(2u32, 1u32), (4, 2), (2, 2), (8, 4)] {
            let flat = RecursiveMatMul::flat(n, s, t);
            assert_eq!(flat.num_rounds(), 2, "(s={s},t={t})");
            for workers in [1usize, 4] {
                let cfg = EngineConfig::parallel(workers);
                let (two, m2) = TwoPhaseMatMul::new(n, s, t).run(&a, &b, &cfg).unwrap();
                let (tree, mr) = flat.run(&a, &b, &cfg).unwrap();
                assert_eq!(bits(&two), bits(&tree), "(s={s},t={t}) product");
                assert_eq!(m2, mr, "(s={s},t={t}) metrics");
            }
        }
    }

    #[test]
    fn deep_trees_compute_the_correct_product() {
        let n = 12usize;
        let a = Matrix::random(n, 31);
        let b = Matrix::random(n, 32);
        let expected = a.multiply(&b);
        for (s, t, f) in [
            (2u32, 1u32, 2u32),
            (2, 1, 3),
            (4, 2, 2),
            (3, 1, 2),
            (12, 12, 1),
        ] {
            let alg = RecursiveMatMul::new(n as u32, s, t, f);
            let (got, metrics) = alg.run(&a, &b, &EngineConfig::sequential()).unwrap();
            assert!(
                got.max_abs_diff(&expected) < 1e-9,
                "(s={s},t={t},f={f}): wrong product"
            );
            assert_eq!(
                metrics.rounds.len(),
                alg.num_rounds() as usize,
                "(s={s},t={t},f={f})"
            );
        }
    }

    #[test]
    fn round_specs_match_measured_census_exactly() {
        let n = 8usize;
        let a = Matrix::random(n, 41);
        let b = Matrix::random(n, 42);
        for (s, t, f) in [(2u32, 1u32, 2u32), (4, 2, 2), (2, 2, 4), (1, 1, 3)] {
            let alg = RecursiveMatMul::new(n as u32, s, t, f);
            let (_, metrics) = alg.run(&a, &b, &EngineConfig::sequential()).unwrap();
            let specs = alg.round_specs();
            assert_eq!(specs.len(), metrics.rounds.len(), "(s={s},t={t},f={f})");
            for (round, (&(q, pairs), measured)) in specs.iter().zip(&metrics.rounds).enumerate() {
                assert_eq!(measured.load.max, q, "(s={s},t={t},f={f}) round {round} q");
                assert_eq!(
                    measured.kv_pairs, pairs,
                    "(s={s},t={t},f={f}) round {round} pairs"
                );
            }
        }
    }

    #[test]
    fn tree_depth_follows_the_fanin() {
        // m = 8 partials: fan-in 8 → 1 round, 3 → 2, 2 → 3.
        assert_eq!(RecursiveMatMul::new(8, 1, 1, 8).agg_rounds(), 1);
        assert_eq!(RecursiveMatMul::new(8, 1, 1, 3).agg_rounds(), 2);
        assert_eq!(RecursiveMatMul::new(8, 1, 1, 2).agg_rounds(), 3);
        // m = 1: the trivial copy-through round.
        assert_eq!(RecursiveMatMul::new(8, 2, 8, 1).agg_rounds(), 1);
    }

    #[test]
    fn parallel_tree_is_deterministic() {
        let n = 8usize;
        let a = Matrix::random(n, 51);
        let b = Matrix::random(n, 52);
        let alg = RecursiveMatMul::new(n as u32, 2, 1, 2);
        let (seq, m1) = alg.run(&a, &b, &EngineConfig::sequential()).unwrap();
        for workers in [1usize, 2, 4, 8, 16] {
            let (par, m2) = alg.run(&a, &b, &EngineConfig::parallel(workers)).unwrap();
            assert_eq!(seq, par, "workers={workers}");
            assert_eq!(m1, m2, "workers={workers}");
        }
    }

    #[test]
    #[should_panic(expected = "must be at least 2")]
    fn rejects_fanin_one_with_work_to_merge() {
        RecursiveMatMul::new(8, 2, 2, 1);
    }

    #[test]
    #[should_panic(expected = "fanin=0")]
    fn rejects_fanin_zero_even_with_one_partial_per_cell() {
        // t = n leaves m = 1 partial per cell, which fan-in 1 admits;
        // fan-in 0 would divide by zero building the tree.
        RecursiveMatMul::new(8, 2, 8, 0);
    }
}
