//! Two-phase matrix multiplication (§6.3).
//!
//! Phase 1 tiles the `(i, j, k)` cube into blocks of `s` rows × `s`
//! columns × `t` j-values; each block reducer computes partial sums
//! `Σ_{j∈block} r_ij·s_jk` for its `s²` output cells. Phase 2 groups the
//! partials by `(i, k)` and adds them. Total communication is
//! `2n³/s + n³/t`; under the reducer budget `q = 2st` the Lagrangean
//! optimum is `s = 2t` (aspect ratio 2:1), i.e. `s = √q`, `t = √q/2`,
//! giving `4n³/√q` — less than the one-phase `4n⁴/q` whenever `q < n²`.

use super::matrix::Matrix;
use super::problem::{assemble, numeric_inputs, Cell, Cubes, MatMulProblem, NumericEntry};
use mr_sim::{run_round, EngineConfig, EngineError, FnMapper, FnReducer, JobMetrics};

/// The two-phase algorithm with first-phase blocks of `s × s × t`.
#[derive(Debug, Clone, Copy)]
pub struct TwoPhaseMatMul {
    /// Matrix side length.
    pub n: u32,
    /// Row/column block side (must divide `n`).
    pub s: u32,
    /// j-dimension block depth (must divide `n`).
    pub t: u32,
}

impl TwoPhaseMatMul {
    /// Creates the job description.
    ///
    /// # Panics
    /// Panics unless `s` and `t` both divide `n`.
    pub fn new(n: u32, s: u32, t: u32) -> Self {
        assert!(
            s >= 1 && s <= n && n.is_multiple_of(s),
            "s={s} must divide n={n}"
        );
        assert!(
            t >= 1 && t <= n && n.is_multiple_of(t),
            "t={t} must divide n={n}"
        );
        TwoPhaseMatMul { n, s, t }
    }

    /// Picks the §6.3-optimal `(s, t)` for a budget `q = 2st`: the
    /// divisors of `n` closest to `s = √q`, `t = √q/2` subject to
    /// `2st ≤ q`.
    ///
    /// # Panics
    /// Panics if `q < 2`: the smallest phase-1 reducer, `s = t = 1`,
    /// holds one entry of each matrix.
    pub fn for_budget(n: u32, q: u64) -> Self {
        assert!(
            q >= 2,
            "q={q} is below 2, the smallest two-phase budget (s = t = 1 gives 2st = 2)"
        );
        let divisors: Vec<u32> = (1..=n).filter(|d| n.is_multiple_of(*d)).collect();
        let mut best: Option<(f64, u32, u32)> = None;
        for &s in &divisors {
            for &t in &divisors {
                if 2 * (s as u64) * (t as u64) > q {
                    continue;
                }
                let comm = self_comm(n, s, t);
                if best.is_none_or(|(c, _, _)| comm < c) {
                    best = Some((comm, s, t));
                }
            }
        }
        let (_, s, t) = best.expect("s = t = 1 is always feasible");
        TwoPhaseMatMul::new(n, s, t)
    }

    /// First-phase reducer size `q = 2st`.
    pub fn q(&self) -> u64 {
        2 * self.s as u64 * self.t as u64
    }

    /// Predicted total communication `2n³/s + n³/t`.
    pub fn predicted_communication(&self) -> f64 {
        self_comm(self.n, self.s, self.t)
    }

    /// Runs the two-phase multiplication end to end: phase 1, then
    /// phase 2 over phase 1's partial cells — two plain rounds.
    pub fn run(
        &self,
        r: &Matrix,
        s_mat: &Matrix,
        config: &EngineConfig,
    ) -> Result<(Matrix, JobMetrics), EngineError> {
        let cubes = Cubes::new(MatMulProblem::new(self.n), self.s, self.s, self.t);
        let phase1_map = FnMapper(
            move |input: &NumericEntry, emit: &mut dyn FnMut(u64, NumericEntry)| {
                for cube in cubes.assign(&input.0) {
                    emit(cube, *input);
                }
            },
        );
        let phase1_reduce = FnReducer(
            move |cube: &u64, inputs: &[NumericEntry], emit: &mut dyn FnMut(Cell)| {
                cubes.product(*cube, inputs, emit)
            },
        );

        let phase2_map = FnMapper(
            move |cell: &Cell, emit: &mut dyn FnMut((u32, u32), [u8; 8])| {
                emit((cell.0, cell.1), cell.2);
            },
        );

        let phase2_reduce = FnReducer(
            move |key: &(u32, u32), partials: &[[u8; 8]], emit: &mut dyn FnMut(Cell)| {
                let sum: f64 = partials
                    .iter()
                    .map(|bits| f64::from_bits(u64::from_be_bytes(*bits)))
                    .sum();
                emit((key.0, key.1, sum.to_bits().to_be_bytes()));
            },
        );

        let inputs = numeric_inputs(r, s_mat);
        let (partials, phase1) = run_round(&inputs, &phase1_map, &phase1_reduce, config)?;
        let (cells, phase2) = run_round(&partials, &phase2_map, &phase2_reduce, config)?;
        let n = r.n();
        Ok((
            assemble(n, n, cells),
            JobMetrics {
                rounds: vec![phase1, phase2],
            },
        ))
    }
}

fn self_comm(n: u32, s: u32, t: u32) -> f64 {
    let n = n as f64;
    2.0 * n.powi(3) / s as f64 + n.powi(3) / t as f64
}

/// §6.3: total communication of the optimal two-phase method, `4n³/√q`.
pub fn two_phase_communication(n: u32, q: f64) -> f64 {
    4.0 * (n as f64).powi(3) / q.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::matmul::problem::one_phase_communication;

    #[test]
    fn two_phase_computes_correct_product() {
        let n = 12;
        let a = Matrix::random(n, 7);
        let b = Matrix::random(n, 8);
        let expected = a.multiply(&b);
        for (s, t) in [(2u32, 1u32), (4, 2), (6, 3), (3, 4)] {
            let alg = TwoPhaseMatMul::new(n as u32, s, t);
            let (got, _) = alg.run(&a, &b, &EngineConfig::sequential()).unwrap();
            assert!(
                got.max_abs_diff(&expected) < 1e-9,
                "(s={s}, t={t}): wrong product"
            );
        }
    }

    #[test]
    fn communication_matches_prediction_exactly() {
        let n = 12u32;
        let a = Matrix::random(n as usize, 1);
        let b = Matrix::random(n as usize, 2);
        for (s, t) in [(4u32, 2u32), (2, 2), (6, 3)] {
            let alg = TwoPhaseMatMul::new(n, s, t);
            let (_, metrics) = alg.run(&a, &b, &EngineConfig::sequential()).unwrap();
            // Phase 1: 2n²·(n/s); phase 2: n³/t.
            let p1 = 2 * (n as u64).pow(2) * (n as u64 / s as u64);
            let p2 = (n as u64).pow(3) / t as u64;
            assert_eq!(metrics.rounds[0].kv_pairs, p1, "(s={s},t={t}) phase 1");
            assert_eq!(metrics.rounds[1].kv_pairs, p2, "(s={s},t={t}) phase 2");
            assert_eq!(metrics.total_communication(), p1 + p2);
            assert!((alg.predicted_communication() - (p1 + p2) as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn first_phase_reducer_size_is_2st() {
        let n = 8u32;
        let a = Matrix::random(n as usize, 3);
        let b = Matrix::random(n as usize, 4);
        let alg = TwoPhaseMatMul::new(n, 4, 2);
        let (_, metrics) = alg.run(&a, &b, &EngineConfig::sequential()).unwrap();
        assert_eq!(metrics.rounds[0].load.max, alg.q());
        // Every phase-1 reducer is exactly full: s·t R-entries + t·s S.
        assert_eq!(metrics.rounds[0].load.min, alg.q());
    }

    #[test]
    fn aspect_ratio_2_to_1_is_optimal() {
        // Among (s, t) with equal budget 2st, s = 2t minimises
        // communication (§6.3's Lagrangean result).
        let n = 32u32;
        // Budget q = 2·8·4 = 64: candidates (s,t) with st = 32.
        let candidates = [(8u32, 4u32), (4, 8), (2, 16), (16, 2)];
        let comms: Vec<f64> = candidates
            .iter()
            .map(|&(s, t)| TwoPhaseMatMul::new(n, s, t).predicted_communication())
            .collect();
        let best = comms.iter().cloned().fold(f64::INFINITY, f64::min);
        assert_eq!(comms[0], best, "s=2t should win: {comms:?}");
    }

    #[test]
    fn two_phase_beats_one_phase_below_n_squared() {
        let n = 64u32;
        for q in [128.0, 512.0, 2048.0] {
            assert!(q < (n * n) as f64);
            assert!(
                two_phase_communication(n, q) < one_phase_communication(n, q),
                "q={q}"
            );
        }
        // At q = n² they tie.
        let q = (n * n) as f64;
        let one = one_phase_communication(n, q);
        let two = two_phase_communication(n, q);
        assert!((one - two).abs() / one < 1e-9);
    }

    #[test]
    fn for_budget_respects_q_and_picks_good_shape() {
        let n = 24u32;
        for q in [16u64, 64, 256] {
            let alg = TwoPhaseMatMul::for_budget(n, q);
            assert!(alg.q() <= q, "q={q}: got 2st = {}", alg.q());
            // Within a factor 2 of the analytic optimum 4n³/√q (divisor
            // rounding costs a constant).
            let ideal = two_phase_communication(n, q as f64);
            assert!(
                alg.predicted_communication() <= 2.5 * ideal,
                "q={q}: {} vs ideal {ideal}",
                alg.predicted_communication()
            );
        }
    }

    #[test]
    fn parallel_two_phase_is_deterministic() {
        let n = 8;
        let a = Matrix::random(n, 11);
        let b = Matrix::random(n, 12);
        let alg = TwoPhaseMatMul::new(n as u32, 2, 2);
        let (seq, m1) = alg.run(&a, &b, &EngineConfig::sequential()).unwrap();
        let (par, m2) = alg.run(&a, &b, &EngineConfig::parallel(4)).unwrap();
        assert_eq!(seq, par);
        assert_eq!(m1, m2);
    }

    #[test]
    #[should_panic(expected = "smallest two-phase budget")]
    fn for_budget_rejects_a_budget_below_two() {
        TwoPhaseMatMul::for_budget(8, 1);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_non_divisor_s() {
        TwoPhaseMatMul::new(10, 3, 2);
    }
}
