//! The Hamming-distance-`d` problem instance and its closed-form bounds.

use crate::model::Problem;
use crate::recipe::{binomial, LowerBoundRecipe};

/// Hamming distance between two bit strings.
pub fn hamming_distance(u: u64, v: u64) -> u32 {
    (u ^ v).count_ones()
}

/// The problem of finding all pairs of `b`-bit strings at Hamming distance
/// exactly `d` (Example 2.3 for `d = 1`), or — with
/// [`within_distance`](HammingProblem::within_distance) — at distance
/// *at most* `d`, the fuzzy-join formulation of \[3\].
#[derive(Debug, Clone, Copy)]
pub struct HammingProblem {
    /// Bit-string length.
    pub b: u32,
    /// Target distance.
    pub d: u32,
    /// When true, outputs are pairs at distance `1..=d` rather than
    /// exactly `d`.
    pub cumulative: bool,
}

impl HammingProblem {
    /// The distance-1 problem of §3.
    ///
    /// # Panics
    /// Panics if `b` is 0 or exceeds 26 (the input enumeration would not
    /// fit in memory).
    pub fn distance_one(b: u32) -> Self {
        Self::new(b, 1)
    }

    /// The exact-distance-`d` problem (§3.6).
    ///
    /// # Panics
    /// Panics if `b` is 0, exceeds 26, or `d` is 0 or exceeds `b`.
    pub fn new(b: u32, d: u32) -> Self {
        assert!(b > 0 && b <= 26, "b={b} out of the supported range 1..=26");
        assert!(d > 0 && d <= b, "d={d} must be in 1..={b}");
        HammingProblem {
            b,
            d,
            cumulative: false,
        }
    }

    /// The fuzzy-join variant of \[3\]: all pairs at distance **at most**
    /// `d`. The distance-`d` splitting schema (§3.6) covers exactly this
    /// output set.
    ///
    /// # Panics
    /// Same domain restrictions as [`new`](HammingProblem::new).
    pub fn within_distance(b: u32, d: u32) -> Self {
        let mut p = Self::new(b, d);
        p.cumulative = true;
        p
    }

    /// `|I| = 2^b`.
    pub fn closed_form_inputs(&self) -> u64 {
        1u64 << self.b
    }

    /// `|O| = 2^b · C(b,d) / 2` for the exact problem — for `d = 1` this
    /// is the paper's `(b/2)·2^b` (Example 2.3). For the cumulative
    /// problem, the sum of those terms over `1..=d`.
    pub fn closed_form_outputs(&self) -> u64 {
        let per_distance = |dd: u64| (1u64 << self.b) * binomial(self.b as u64, dd) / 2;
        if self.cumulative {
            (1..=self.d as u64).map(per_distance).sum()
        } else {
            per_distance(self.d as u64)
        }
    }

    /// The §2.4 recipe ingredients for distance 1: Lemma 3.1's `g`, `|I|`,
    /// and `|O|`.
    ///
    /// # Panics
    /// Panics if `d != 1` (no tight `g(q)` is known for larger distances —
    /// §3.6 explains why the distance-2 bound degrades to `Ω(q²)`).
    pub fn recipe(&self) -> LowerBoundRecipe {
        assert_eq!(self.d, 1, "the tight recipe is only known for d = 1");
        LowerBoundRecipe::new(
            lemma31_g,
            self.closed_form_inputs() as f64,
            self.closed_form_outputs() as f64,
        )
    }
}

impl Problem for HammingProblem {
    type Input = u64;
    type Output = (u64, u64);

    fn inputs(&self) -> Vec<u64> {
        (0..(1u64 << self.b)).collect()
    }

    fn outputs(&self) -> Vec<(u64, u64)> {
        // Enumerate masks of the relevant weights once, then apply to
        // every string, keeping the canonical orientation u < v.
        let mut masks = Vec::new();
        let lo = if self.cumulative { 1 } else { self.d };
        for dd in lo..=self.d {
            masks.extend(weight_d_masks(self.b, dd));
        }
        let mut out = Vec::new();
        for u in 0..(1u64 << self.b) {
            for &m in &masks {
                let v = u ^ m;
                if u < v {
                    out.push((u, v));
                }
            }
        }
        out
    }

    fn inputs_of(&self, output: &(u64, u64)) -> Vec<u64> {
        vec![output.0, output.1]
    }

    fn num_inputs(&self) -> u64 {
        self.closed_form_inputs()
    }

    fn num_outputs(&self) -> u64 {
        self.closed_form_outputs()
    }
}

/// All `C(b,d)` bit masks of length `b` and weight `d`.
fn weight_d_masks(b: u32, d: u32) -> Vec<u64> {
    let mut masks = Vec::new();
    // Gosper's hack: iterate all d-weight masks below 2^b.
    if d == 0 {
        return vec![0];
    }
    let mut m: u64 = (1u64 << d) - 1;
    let limit = 1u64 << b;
    while m < limit {
        masks.push(m);
        let c = m & m.wrapping_neg();
        let r = m + c;
        m = (((r ^ m) >> 2) / c) | r;
        if c == 0 {
            break;
        }
    }
    masks
}

/// Lemma 3.1: a reducer with `q` inputs covers at most `(q/2)·log₂q`
/// distance-1 outputs.
pub fn lemma31_g(q: f64) -> f64 {
    if q <= 1.0 {
        0.0
    } else {
        q / 2.0 * q.log2()
    }
}

/// Theorem 3.2: `r ≥ b / log₂q` for the distance-1 problem.
pub fn theorem32_lower_bound(b: u32, q: f64) -> f64 {
    b as f64 / q.log2()
}

/// §3.4's estimate of the most populous cell of the 2-D weight partition
/// with bucket side `k`: `k²·2^b/(πb)`.
pub fn weight_2d_approx_q(b: u32, k: u32) -> f64 {
    let k = k as f64;
    let b = b as f64;
    k * k * 2f64.powf(b) / (std::f64::consts::PI * b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recipe::max_outputs_covered;

    #[test]
    fn distance_function() {
        assert_eq!(hamming_distance(0b1010, 0b1010), 0);
        assert_eq!(hamming_distance(0b1010, 0b1011), 1);
        assert_eq!(hamming_distance(0, 0b1111), 4);
    }

    #[test]
    fn output_count_matches_closed_form_d1() {
        for b in 1..=8 {
            let p = HammingProblem::distance_one(b);
            let outs = p.outputs();
            // (b/2)·2^b, exactly b·2^b / 2.
            assert_eq!(outs.len() as u64, (b as u64) * (1 << b) / 2);
            assert_eq!(outs.len() as u64, p.num_outputs());
        }
    }

    #[test]
    fn output_count_matches_closed_form_d2() {
        for b in 2..=8 {
            let p = HammingProblem::new(b, 2);
            assert_eq!(
                p.outputs().len() as u64,
                (1u64 << b) * binomial(b as u64, 2) / 2
            );
        }
    }

    #[test]
    fn outputs_are_canonical_distance_d_pairs() {
        let p = HammingProblem::new(5, 2);
        for (u, v) in p.outputs() {
            assert!(u < v);
            assert_eq!(hamming_distance(u, v), 2);
        }
    }

    #[test]
    fn lemma31_boundary_values() {
        // Basis of the induction: q=1 covers 0 outputs, q=2 covers 1.
        assert_eq!(lemma31_g(1.0), 0.0);
        assert_eq!(lemma31_g(2.0), 1.0);
        // q = 2^b covers all (b/2)2^b outputs with equality.
        let b = 6u32;
        let q = (1u64 << b) as f64;
        assert!((lemma31_g(q) - (b as f64 / 2.0) * q).abs() < 1e-9);
    }

    /// The heart of the reproduction of Lemma 3.1: on small instances,
    /// the *true* maximum number of outputs covered by any q-subset never
    /// exceeds (q/2)·log₂q — and subcubes achieve it exactly when q is a
    /// power of two.
    #[test]
    fn lemma31_dominates_empirical_g() {
        let p = HammingProblem::distance_one(4); // 16 inputs
        for q in 1..=16usize {
            let actual = max_outputs_covered(&p, q) as f64;
            let bound = lemma31_g(q as f64);
            assert!(
                actual <= bound + 1e-9,
                "q={q}: covered {actual} > Lemma 3.1 bound {bound}"
            );
        }
    }

    #[test]
    fn lemma31_tight_at_powers_of_two() {
        // A subcube of dimension k has q=2^k inputs and covers exactly
        // (q/2)·k outputs, meeting the bound.
        let p = HammingProblem::distance_one(4);
        for k in 0..=4u32 {
            let q = 1usize << k;
            let actual = max_outputs_covered(&p, q) as f64;
            assert!(
                (actual - lemma31_g(q as f64)).abs() < 1e-9,
                "q=2^{k}: covered {actual}, bound {}",
                lemma31_g(q as f64)
            );
        }
    }

    #[test]
    fn theorem32_extremes() {
        // q=2 → r ≥ b; q = 2^b → r ≥ 1 (§3.3's two simple cases).
        let b = 10;
        assert!((theorem32_lower_bound(b, 2.0) - b as f64).abs() < 1e-9);
        assert!((theorem32_lower_bound(b, (1u64 << b) as f64) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn recipe_matches_theorem32() {
        let p = HammingProblem::distance_one(8);
        let recipe = p.recipe();
        for log_q in [1u32, 2, 4, 8] {
            let q = (1u64 << log_q) as f64;
            assert!((recipe.replication_lower_bound(q) - theorem32_lower_bound(8, q)).abs() < 1e-9);
        }
        assert!(recipe.g_over_q_monotone(&[2.0, 4.0, 8.0, 256.0]));
    }

    #[test]
    fn within_distance_counts_and_contents() {
        let p = HammingProblem::within_distance(6, 2);
        let outs = p.outputs();
        assert_eq!(outs.len() as u64, p.closed_form_outputs());
        // |O| = 2^b(C(b,1)+C(b,2))/2 = 64·21/2 = 672.
        assert_eq!(outs.len(), 672);
        for (u, v) in outs {
            let d = hamming_distance(u, v);
            assert!(u < v && (1..=2).contains(&d));
        }
    }

    #[test]
    fn mask_enumeration_counts() {
        assert_eq!(weight_d_masks(6, 1).len(), 6);
        assert_eq!(weight_d_masks(6, 2).len(), 15);
        assert_eq!(weight_d_masks(6, 6).len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of the supported range")]
    fn oversized_b_rejected() {
        HammingProblem::distance_one(40);
    }
}
