//! The generic lower-bound recipe (§2.4).
//!
//! The paper derives every lower bound in four steps:
//!
//! 1. find `g(q)`, an upper bound on the number of outputs a reducer with
//!    `q` inputs can cover;
//! 2. count the total inputs `|I|` and outputs `|O|`;
//! 3. observe `Σᵢ g(qᵢ) ≥ |O|`;
//! 4. provided `g(q)/q` is monotonically increasing in `q`, conclude
//!    `r ≥ q·|O| / (g(q)·|I|)`.
//!
//! [`LowerBoundRecipe`] packages the three ingredients and evaluates step
//! 4; [`max_outputs_covered`] exhaustively probes the true `g(q)` on small
//! problem instances so tests can confirm the claimed `g` dominates
//! reality.

use crate::model::Problem;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The three inputs of the §2.4 recipe, with `g` supplied as a closure.
///
/// ```
/// use mr_core::LowerBoundRecipe;
/// // Hamming distance 1 on b-bit strings (Theorem 3.2): g = (q/2)·log₂q,
/// // |I| = 2^b, |O| = (b/2)·2^b gives r ≥ b / log₂ q.
/// let b = 12.0_f64;
/// let recipe = LowerBoundRecipe::new(
///     |q| q / 2.0 * q.log2(),
///     b.exp2(),
///     b / 2.0 * b.exp2(),
/// );
/// let bound = recipe.replication_lower_bound(16.0); // q = 2^4
/// assert!((bound - b / 4.0).abs() < 1e-9);
/// ```
#[derive(Clone)]
pub struct LowerBoundRecipe {
    /// `g(q)`: upper bound on outputs covered by a reducer with `q` inputs.
    g: Arc<dyn Fn(f64) -> f64 + Send + Sync>,
    /// `|I|`.
    pub num_inputs: f64,
    /// `|O|`.
    pub num_outputs: f64,
}

impl LowerBoundRecipe {
    /// Builds a recipe from `g(q)`, `|I|`, and `|O|`.
    pub fn new(
        g: impl Fn(f64) -> f64 + Send + Sync + 'static,
        num_inputs: f64,
        num_outputs: f64,
    ) -> Self {
        LowerBoundRecipe {
            g: Arc::new(g),
            num_inputs,
            num_outputs,
        }
    }

    /// Evaluates `g(q)`.
    pub fn g(&self, q: f64) -> f64 {
        (self.g)(q)
    }

    /// Step 4: the lower bound `r ≥ q·|O| / (g(q)·|I|)`.
    ///
    /// Returns at least 1.0 when clamped: a replication rate below 1 is
    /// meaningless (§5.4.1 replaces the bound by the trivial `r ≥ 1`).
    pub fn replication_lower_bound(&self, q: f64) -> f64 {
        q * self.num_outputs / (self.g(q) * self.num_inputs)
    }

    /// The §5.4.1-style clamped bound `max(1, q·|O|/(g(q)·|I|))`.
    pub fn clamped_lower_bound(&self, q: f64) -> f64 {
        self.replication_lower_bound(q).max(1.0)
    }

    /// Checks that `g(q)/q` is monotonically non-decreasing over the given
    /// sample points — the precondition for step 4's manipulation.
    pub fn g_over_q_monotone(&self, qs: &[f64]) -> bool {
        let ratios: Vec<f64> = qs.iter().map(|&q| self.g(q) / q).collect();
        ratios.windows(2).all(|w| w[1] >= w[0] - 1e-9)
    }
}

/// Exhaustively computes the true `g(q)` of a problem instance: the maximum
/// number of outputs covered by any `q`-subset of inputs.
///
/// Complexity is `C(|I|, q)` times the coverage check, so this is strictly
/// a test/validation tool for small instances.
///
/// # Panics
/// Panics if `C(|I|, q)` exceeds ~20 million subsets — a guard against
/// accidental exponential blow-up in tests.
pub fn max_outputs_covered<P: Problem>(problem: &P, q: usize) -> u64 {
    let inputs = problem.inputs();
    let n = inputs.len();
    assert!(q <= n, "q={q} exceeds the number of inputs {n}");
    let combos = binomial(n as u64, q as u64);
    assert!(
        combos <= 20_000_000,
        "C({n},{q}) = {combos} subsets is too many for exhaustive probing"
    );

    // Index inputs for set-membership checks.
    let index: BTreeMap<&P::Input, usize> =
        inputs.iter().enumerate().map(|(i, x)| (x, i)).collect();
    // Precompute each output's dependency indices.
    let outputs = problem.outputs();
    let deps: Vec<Vec<usize>> = outputs
        .iter()
        .map(|o| {
            problem
                .inputs_of(o)
                .iter()
                .map(|inp| *index.get(inp).expect("inputs_of returned unknown input"))
                .collect()
        })
        .collect();

    let mut best = 0u64;
    let mut subset: Vec<usize> = (0..q).collect();
    let mut member = vec![false; n];
    loop {
        for m in member.iter_mut() {
            *m = false;
        }
        for &i in &subset {
            member[i] = true;
        }
        let covered = deps.iter().filter(|d| d.iter().all(|&i| member[i])).count() as u64;
        best = best.max(covered);

        // Next combination in lexicographic order.
        let mut i = q;
        loop {
            if i == 0 {
                return best;
            }
            i -= 1;
            if subset[i] != i + n - q {
                break;
            }
            if i == 0 {
                return best;
            }
        }
        subset[i] += 1;
        for j in (i + 1)..q {
            subset[j] = subset[j - 1] + 1;
        }
    }
}

/// Binomial coefficient `C(n, k)`: exact whenever it fits a `u64`, and
/// `u64::MAX` when it does not (used for guardrails and closed forms).
pub fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    // `C(n, i) · (n − i) = C(n, i + 1) · (i + 1)`, so each step divides
    // exactly, and the product of a `u64` and a `u64` fits a `u128`. The
    // running `C(n, i)` only grows for `i ≤ k ≤ n/2`, so once it leaves
    // `u64` the answer has too.
    let mut result: u128 = 1;
    for i in 0..k {
        result = result * u128::from(n - i) / u128::from(i + 1);
        if result > u128::from(u64::MAX) {
            return u64::MAX;
        }
    }
    result as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Problem;

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(10, 0), 1);
        assert_eq!(binomial(10, 10), 1);
        assert_eq!(binomial(4, 5), 0);
        assert_eq!(binomial(52, 5), 2_598_960);
    }

    #[test]
    fn binomial_is_exact_until_it_saturates() {
        // Every C(n, k) with n ≤ 67 fits a u64 (C(67, 33) ≈ 1.42e19);
        // check each, and k past n, against a u128 Pascal triangle.
        let mut row: Vec<u128> = vec![1];
        for n in 0..=67u64 {
            for k in 0..=n + 1 {
                let want = row.get(k as usize).copied().unwrap_or(0);
                assert_eq!(u128::from(binomial(n, k)), want, "C({n}, {k})");
            }
            let mut next = vec![1u128; row.len() + 1];
            for i in 1..row.len() {
                next[i] = row[i - 1] + row[i];
            }
            row = next;
        }
        // Intermediate products that overflow a u64 used to corrupt these.
        assert_eq!(binomial(63, 31), 916_312_070_471_295_267);
        assert_eq!(binomial(64, 32), 1_832_624_140_942_590_534);
        assert_eq!(binomial(100, 50), u64::MAX);
    }

    #[test]
    fn recipe_evaluates_bound() {
        // Hamming-distance-1 shape: g(q) = (q/2)·log2 q, |I| = 2^b,
        // |O| = (b/2)·2^b. Bound must be b / log2 q.
        let b = 12.0f64;
        let recipe = LowerBoundRecipe::new(
            |q| q / 2.0 * q.log2(),
            (2.0f64).powf(b),
            b / 2.0 * (2.0f64).powf(b),
        );
        for log_q in [2.0, 3.0, 4.0, 6.0] {
            let q = (2.0f64).powf(log_q);
            let bound = recipe.replication_lower_bound(q);
            assert!(
                (bound - b / log_q).abs() < 1e-9,
                "q=2^{log_q}: got {bound}, want {}",
                b / log_q
            );
        }
    }

    #[test]
    fn clamping_applies_for_weak_bounds() {
        // 2-path shape where the bound dips below 1 for large q (§5.4.1).
        let n = 10.0f64;
        let recipe = LowerBoundRecipe::new(|q| q * q / 2.0, n * n / 2.0, n * n * n / 2.0);
        assert!(recipe.replication_lower_bound(4.0 * n) < 1.0);
        assert_eq!(recipe.clamped_lower_bound(4.0 * n), 1.0);
        assert!(recipe.clamped_lower_bound(2.0) > 1.0);
    }

    #[test]
    fn monotonicity_check() {
        let ok = LowerBoundRecipe::new(|q| q * q, 1.0, 1.0);
        assert!(ok.g_over_q_monotone(&[1.0, 2.0, 4.0, 100.0]));
        let bad = LowerBoundRecipe::new(|q| q.sqrt(), 1.0, 1.0);
        assert!(!bad.g_over_q_monotone(&[1.0, 4.0, 16.0]));
    }

    /// A triangle-ish toy problem for the prober: inputs are the 6 edges of
    /// K_4, outputs its 4 triangles.
    struct K4Triangles;

    impl Problem for K4Triangles {
        type Input = (u32, u32);
        type Output = (u32, u32, u32);

        fn inputs(&self) -> Vec<(u32, u32)> {
            let mut v = Vec::new();
            for i in 0..4 {
                for j in (i + 1)..4 {
                    v.push((i, j));
                }
            }
            v
        }
        fn outputs(&self) -> Vec<(u32, u32, u32)> {
            vec![(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        }
        fn inputs_of(&self, o: &(u32, u32, u32)) -> Vec<(u32, u32)> {
            vec![(o.0, o.1), (o.0, o.2), (o.1, o.2)]
        }
    }

    #[test]
    fn prober_finds_true_g() {
        let p = K4Triangles;
        // 3 edges cover at most 1 triangle.
        assert_eq!(max_outputs_covered(&p, 3), 1);
        // 5 edges cover at most 2 triangles (K_4 minus an edge).
        assert_eq!(max_outputs_covered(&p, 5), 2);
        // All 6 edges cover all 4 triangles.
        assert_eq!(max_outputs_covered(&p, 6), 4);
        // 2 edges cover nothing.
        assert_eq!(max_outputs_covered(&p, 2), 0);
    }

    #[test]
    fn prober_respects_triangle_g_bound() {
        // §4.1: g(q) = (√2/3)·q^{3/2}; the true maxima must not exceed it
        // (allowing for the k(k-1)(k-2)/6 discretisation at tiny q).
        let p = K4Triangles;
        for q in 3..=6usize {
            let actual = max_outputs_covered(&p, q) as f64;
            let k = (2.0 * q as f64).sqrt();
            let exact_bound = k * (k + 1.0) * (k + 2.0) / 6.0; // generous
            assert!(
                actual <= exact_bound,
                "q={q}: covered {actual} > bound {exact_bound}"
            );
        }
    }
}
