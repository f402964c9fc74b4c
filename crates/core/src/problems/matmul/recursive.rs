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
//! The flat case `f ≥ m` (one aggregation round,
//! [`RecursiveMatMul::flat`]) **is** the two-phase method:
//! `flat_recursive_is_two_phase_byte_for_byte` below pins it
//! byte-for-byte against a reference kept inside that test, the two
//! phases as two plain rounds run one after the other. Its total
//! communication is `2n³/s + n³/t`; under the reducer budget `q = 2st`
//! the Lagrangean optimum is `s = 2t` (aspect ratio 2:1), i.e. `s = √q`,
//! `t = √q/2`, giving [`two_phase_communication`]'s `4n³/√q` — less than
//! the one-phase `4n⁴/q` whenever `q < n²`.
//! [`RecursiveMatMul::flat_for_budget`] picks, among the divisor pairs
//! of `n` within the budget, the one that communicates least.
//!
//! Deeper trees trade strictly more rounds (latency) and communication
//! for smaller per-round reducers, which is exactly the trade the plan
//! layer's round-structure search prices (§7's open multi-round
//! question). At `t = n` phase 1 alone is the §6.2 one-phase tiling
//! ([`RecursiveMatMul::one_phase`]), so every matmul structure the
//! search can pick stages from this one module.

use super::matrix::Matrix;
use super::problem::{assemble, assert_shapes, numeric_inputs, Cubes, MatMulProblem, NumericEntry};
use crate::model::ReducerId;
use mr_sim::{DagJob, EngineConfig, EngineError, FnSchema, JobMetrics};

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
    /// Panics unless `2n³` fits a `u64` (`n < 2²¹`) — every closed-form
    /// term of [`round_specs`](Self::round_specs) is at most `2n³` — `s`
    /// and `t` divide `n`, and `fanin ≥ 2` (fan-in 1 is admitted only in
    /// the trivial `t = n` case of one partial per cell; fan-in 0 never).
    pub fn new(n: u32, s: u32, t: u32, fanin: u32) -> Self {
        assert!(
            n < 1 << 21,
            "n={n}: the phase-1 communication 2n³ does not fit a u64"
        );
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

    /// The §6.3-optimal flat shape for a budget `q = 2st`: among the
    /// divisor pairs of `n` with `2st ≤ q`, the first with the least
    /// communication `2n³/s + n³/t` — near `s = √q`, `t = √q/2`.
    ///
    /// # Panics
    /// Panics if `q < 2`: the smallest phase-1 reducer, `s = t = 1`,
    /// holds one entry of each matrix.
    pub fn flat_for_budget(n: u32, q: u64) -> Self {
        assert!(
            q >= 2,
            "q={q} is below 2, the smallest two-phase budget (s = t = 1 gives 2st = 2)"
        );
        let divisors: Vec<u32> = (1..=n).filter(|d| n.is_multiple_of(*d)).collect();
        let mut best: Option<(f64, RecursiveMatMul)> = None;
        for &s in &divisors {
            for &t in &divisors {
                if 2 * (s as u64) * (t as u64) > q {
                    continue;
                }
                let flat = RecursiveMatMul::flat(n, s, t);
                let comm = flat.predicted_communication();
                if best.is_none_or(|(c, _)| comm < c) {
                    best = Some((comm, flat));
                }
            }
        }
        best.expect("s = t = 1 is always feasible").1
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
        let phase1 = FnSchema(
            move |input: &MatToken, emit: &mut dyn FnMut(ReducerId)| {
                cubes.assign(&entry_of(input).0).for_each(emit)
            },
            move |cube: ReducerId, inputs: &[MatToken], emit: &mut dyn FnMut(MatToken)| {
                let group = cubes.j_block(cube);
                cubes.product(cube, inputs.iter().map(entry_of), |(i, k, bits)| {
                    emit(MatToken::Partial { i, k, group, bits })
                });
            },
        );
        dag.add_round(name, vec![], phase1)
    }

    /// Builds the round chain as a [`DagJob`] over [`MatToken`]s — the
    /// executable the plan layer stages, budgets, and measures per round.
    pub fn dag(&self) -> DagJob<MatToken> {
        let f = self.fanin;
        let mut dag = DagJob::new();
        let mut prev = self.add_phase1(&mut dag, "phase-1");

        for round in 0..self.agg_rounds() {
            // Partial `(i, k, group)` goes to the reducer of cell `(i, k)`
            // and merged group `group / f`, packed as
            // `i << 42 | k << 21 | group / f`: every field is below
            // `n < 2²¹` (`new` asserts it), so ids order like the triples.
            let aggregate = FnSchema(
                move |token: &MatToken, emit: &mut dyn FnMut(ReducerId)| {
                    let MatToken::Partial { i, k, group, .. } = *token else {
                        unreachable!("aggregation rounds consume partials only");
                    };
                    emit(u64::from(i) << 42 | u64::from(k) << 21 | u64::from(group / f));
                },
                |cell: ReducerId, partials: &[MatToken], emit: &mut dyn FnMut(MatToken)| {
                    let sum: f64 = partials
                        .iter()
                        .map(|token| {
                            let MatToken::Partial { bits, .. } = token else {
                                unreachable!("aggregation rounds consume partials only");
                            };
                            f64::from_bits(u64::from_be_bytes(*bits))
                        })
                        .sum();
                    const FIELD: u64 = (1 << 21) - 1;
                    emit(MatToken::Partial {
                        i: (cell >> 42) as u32,
                        k: (cell >> 21 & FIELD) as u32,
                        group: (cell & FIELD) as u32,
                        bits: sum.to_bits().to_be_bytes(),
                    });
                },
            );
            prev = dag.add_round(format!("aggregate-{}", round + 1), vec![prev], aggregate);
        }
        dag
    }

    /// Runs the multiplication end to end.
    ///
    /// # Panics
    /// Panics unless `R` and `S` are both `n×n`.
    pub fn run(
        &self,
        r: &Matrix,
        s_mat: &Matrix,
        config: &EngineConfig,
    ) -> Result<(Matrix, JobMetrics), EngineError> {
        assert_shapes(MatMulProblem::new(self.n), r, s_mat);
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

/// §6.3: total communication of the optimal two-phase method, `4n³/√q`.
pub fn two_phase_communication(n: u32, q: f64) -> f64 {
    4.0 * (n as f64).powi(3) / q.sqrt()
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
    use crate::problems::matmul::problem::{run_one_phase, Cell};
    use crate::problems::matmul::OnePhaseSchema;
    use mr_sim::run_schema;

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
            assert!(dag.rounds().eq([("one-phase", &[][..])]));
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

    /// §6.3's two-phase method as two plain rounds run one after the
    /// other, outside any [`DagJob`]: phase 1 over the `s × s × t` cubes,
    /// then phase 2 summing each cell's partials. The reference the flat
    /// tree is pinned against.
    fn two_plain_rounds(
        (n, s, t): (u32, u32, u32),
        a: &Matrix,
        b: &Matrix,
        config: &EngineConfig,
    ) -> (Matrix, JobMetrics) {
        let cubes = Cubes::new(MatMulProblem::new(n), s, s, t);
        let phase1 = FnSchema(
            move |input: &NumericEntry, emit: &mut dyn FnMut(ReducerId)| {
                cubes.assign(&input.0).for_each(emit)
            },
            move |cube: ReducerId, inputs: &[NumericEntry], emit: &mut dyn FnMut(Cell)| {
                cubes.product(cube, inputs, emit)
            },
        );
        // Each partial goes to the reducer of its cell, `i << 32 | k`.
        let phase2 = FnSchema(
            |&(i, k, _): &Cell, emit: &mut dyn FnMut(ReducerId)| {
                emit(u64::from(i) << 32 | u64::from(k))
            },
            |cell: ReducerId, partials: &[Cell], emit: &mut dyn FnMut(Cell)| {
                let sum: f64 = partials
                    .iter()
                    .map(|(_, _, bits)| f64::from_bits(u64::from_be_bytes(*bits)))
                    .sum();
                emit((
                    (cell >> 32) as u32,
                    cell as u32,
                    sum.to_bits().to_be_bytes(),
                ));
            },
        );
        let inputs = numeric_inputs(a, b);
        let (partials, phase1) = run_schema(&inputs, &phase1, config).unwrap();
        let (cells, phase2) = run_schema(&partials, &phase2, config).unwrap();
        let rounds = vec![phase1, phase2];
        (assemble(a.n(), a.n(), cells), JobMetrics { rounds })
    }

    #[test]
    fn flat_recursive_is_two_phase_byte_for_byte() {
        // The flat shape, staged as a DAG, must reproduce the two-phase
        // method run as two plain rounds one after the other exactly:
        // every product bit and every round's metrics.
        let n = 8u32;
        let a = Matrix::random(n as usize, 21);
        let b = Matrix::random(n as usize, 22);
        for (s, t) in [(2u32, 1u32), (4, 2), (2, 2), (8, 4)] {
            let flat = RecursiveMatMul::flat(n, s, t);
            assert_eq!(flat.num_rounds(), 2, "(s={s},t={t})");
            for workers in [1usize, 4] {
                let cfg = EngineConfig::parallel(workers);
                let (two, m2) = two_plain_rounds((n, s, t), &a, &b, &cfg);
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
    #[should_panic(expected = "n=2097152: the phase-1 communication 2n³ does not fit a u64")]
    fn rejects_a_shape_whose_communication_overflows_a_u64() {
        // 2·(2²¹)³ = 2⁶⁴: unchecked, phase 1's pairs wrap to 0 in release.
        RecursiveMatMul::new(1 << 21, 1, 1 << 21, 1);
    }

    #[test]
    #[should_panic(expected = "R is 4×4 and S is 4×4, but the schema multiplies 8×8 by 8×8")]
    fn run_rejects_matrices_of_another_size() {
        let m = Matrix::random(4, 1);
        let _ = RecursiveMatMul::new(8, 2, 2, 2).run(&m, &m, &EngineConfig::sequential());
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
