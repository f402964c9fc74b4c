//! **§6** — matrix multiplication: one-phase vs two-phase total
//! communication across a `q` sweep, with the analytic crossover at
//! `q = n²`, all verified numerically against the serial product.

use crate::table::{fmt, Table};
use mr_core::problems::matmul::problem::run_one_phase;
use mr_core::problems::matmul::{
    one_phase_communication, two_phase_communication, Matrix, OnePhaseSchema, RecursiveMatMul,
};
use mr_sim::EngineConfig;

/// Measured comparison at one budget: `(one-phase comm, two-phase comm,
/// both numerically correct)`.
pub fn measure(n: u32, q: u64, a: &Matrix, b: &Matrix) -> (u64, u64, bool) {
    let expected = a.multiply(b);
    let s = {
        let cap = (q / (2 * n as u64)).max(1) as u32;
        (1..=cap.min(n))
            .rev()
            .find(|d| n.is_multiple_of(*d))
            .unwrap_or(1)
    };
    let one = OnePhaseSchema::new(n, s);
    let (p1, m1) = run_one_phase(a, b, &one, &EngineConfig::parallel(4)).unwrap();
    let two = RecursiveMatMul::flat_for_budget(n, q);
    let (p2, m2) = two.run(a, b, &EngineConfig::parallel(4)).unwrap();
    let correct = p1.max_abs_diff(&expected) < 1e-9 && p2.max_abs_diff(&expected) < 1e-9;
    (m1.kv_pairs, m2.total_communication(), correct)
}

/// Renders the §6 sweep.
pub fn report() -> String {
    let n = 32u32;
    let a = Matrix::random(n as usize, 61);
    let b = Matrix::random(n as usize, 62);
    let mut t = Table::new(&[
        "q",
        "1-phase (meas.)",
        "2-phase (meas.)",
        "1-phase 4n^4/q",
        "2-phase 4n^3/sqrt(q)",
        "winner",
        "correct",
    ]);
    for q in [128u64, 256, 512, 1024, 2048, 4096] {
        let (c1, c2, ok) = measure(n, q, &a, &b);
        t.row(vec![
            q.to_string(),
            c1.to_string(),
            c2.to_string(),
            fmt(one_phase_communication(n, q as f64)),
            fmt(two_phase_communication(n, q as f64)),
            if c2 < c1 { "two-phase" } else { "one-phase" }.into(),
            ok.to_string(),
        ]);
    }
    format!(
        "§6: one-phase vs two-phase matrix multiplication, n = {n} (n² = {})\n\
         Two-phase wins below q = n²; the analytic curves cross exactly there.\n\n{}",
        n * n,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_phase_wins_below_n_squared() {
        let n = 16u32;
        let a = Matrix::random(n as usize, 1);
        let b = Matrix::random(n as usize, 2);
        for q in [64u64, 128] {
            let (c1, c2, ok) = measure(n, q, &a, &b);
            assert!(ok, "q={q} incorrect product");
            assert!(c2 < c1, "q={q}: two-phase {c2} !< one-phase {c1}");
        }
    }

    #[test]
    fn analytic_crossover_at_n_squared() {
        let n = 64u32;
        let q = (n * n) as f64;
        let one = one_phase_communication(n, q);
        let two = two_phase_communication(n, q);
        assert!((one - two).abs() / one < 1e-9);
        assert!(one_phase_communication(n, 2.0 * q) < two_phase_communication(n, 2.0 * q));
    }
}
