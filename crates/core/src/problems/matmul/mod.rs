//! Matrix multiplication (§6).
//!
//! Multiplying `n×n` matrices `R` and `S` has `|I| = 2n²` inputs and
//! `|O| = n²` outputs, each output depending on `2n` inputs (a row of `R`
//! and a column of `S`). §6.1 shows a reducer's covered outputs form a
//! *rectangle* maximised by a square, giving `g(q) = q²/(4n²)` and the
//! lower bound `r ≥ 2n²/q`; §6.2 matches it by square tiling; §6.3 shows
//! a **two-phase** method with total communication `4n³/√q` (optimal
//! first-phase blocks have aspect ratio 2:1 — `s = √q`, `t = √q/2`),
//! beating the one-phase `4n⁴/q` whenever `q < n²`.
//!
//! * [`matrix`] — dense matrices and the serial product baseline;
//! * [`problem`] — the model instance and its bounds for `m×n · n×p`
//!   (the square case is `m = n = p`), the one-phase schema, and the cube
//!   tiling every entry-reading round shares;
//! * [`recursive`] — §6.3's two-phase method as the flat case of an
//!   aggregation tree ([`RecursiveMatMul::flat`], with its communication
//!   accounting), and the deeper trees the planner's round-structure
//!   search enumerates.

pub mod matrix;
pub mod problem;
pub mod recursive;

pub use matrix::Matrix;
pub use problem::{
    lower_bound_r, one_phase_communication, rect_lower_bound, MatEntry, MatMulProblem,
    OnePhaseSchema,
};
pub use recursive::{two_phase_communication, MatToken, RecursiveMatMul};

/// §6.3's two-phase method, tested as the flat aggregation tree
/// ([`RecursiveMatMul::flat`] and [`RecursiveMatMul::flat_for_budget`]).
#[cfg(test)]
mod two_phase {
    mod tests {
        use crate::problems::matmul::{
            one_phase_communication, two_phase_communication, Matrix, RecursiveMatMul,
        };
        use mr_sim::EngineConfig;

        #[test]
        fn two_phase_computes_correct_product() {
            let n = 12;
            let a = Matrix::random(n, 7);
            let b = Matrix::random(n, 8);
            let expected = a.multiply(&b);
            for (s, t) in [(2u32, 1u32), (4, 2), (6, 3), (3, 4)] {
                let alg = RecursiveMatMul::flat(n as u32, s, t);
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
                let alg = RecursiveMatMul::flat(n, s, t);
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
            let (s, t) = (4u64, 2u64);
            let alg = RecursiveMatMul::flat(n, s as u32, t as u32);
            assert_eq!(alg.round_specs()[0].0, 2 * s * t);
            let (_, metrics) = alg.run(&a, &b, &EngineConfig::sequential()).unwrap();
            assert_eq!(metrics.rounds[0].load.max, 2 * s * t);
            // Every phase-1 reducer is exactly full: s·t R-entries + t·s S.
            assert_eq!(metrics.rounds[0].load.min, 2 * s * t);
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
                .map(|&(s, t)| RecursiveMatMul::flat(n, s, t).predicted_communication())
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
            let divisors: Vec<u32> = (1..=n).filter(|d| n.is_multiple_of(*d)).collect();
            for q in [2u64, 16, 64, 256, 2 * 24 * 24] {
                let alg = RecursiveMatMul::flat_for_budget(n, q);
                assert_eq!(alg.num_rounds(), 2, "q={q}: a flat tree");
                let (s, t) = (alg.s as u64, alg.t as u64);
                assert!(2 * s * t <= q, "q={q}: got 2st = {}", 2 * s * t);
                // The first divisor pair, s-major, with the least
                // 2n³/s + n³/t among those with 2st ≤ q.
                let n3 = (n as f64).powi(3);
                let want = divisors
                    .iter()
                    .flat_map(|&s| divisors.iter().map(move |&t| (s, t)))
                    .filter(|&(s, t)| 2 * s as u64 * t as u64 <= q)
                    .map(|(s, t)| (2.0 * n3 / s as f64 + n3 / t as f64, s, t))
                    .reduce(|best, c| if c.0 < best.0 { c } else { best })
                    .unwrap();
                assert_eq!((alg.s, alg.t), (want.1, want.2), "q={q}");
                assert_eq!(alg.predicted_communication(), want.0, "q={q}");
                // Within a factor 2.5 of the analytic optimum 4n³/√q
                // (divisor rounding costs a constant).
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
            let alg = RecursiveMatMul::flat(n as u32, 2, 2);
            let (seq, m1) = alg.run(&a, &b, &EngineConfig::sequential()).unwrap();
            let (par, m2) = alg.run(&a, &b, &EngineConfig::parallel(4)).unwrap();
            assert_eq!(seq, par);
            assert_eq!(m1, m2);
        }

        #[test]
        #[should_panic(expected = "smallest two-phase budget")]
        fn for_budget_rejects_a_budget_below_two() {
            RecursiveMatMul::flat_for_budget(8, 1);
        }

        #[test]
        #[should_panic(expected = "must divide")]
        fn rejects_non_divisor_s() {
            RecursiveMatMul::flat(10, 3, 2);
        }
    }
}
