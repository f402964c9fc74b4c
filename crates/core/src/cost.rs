//! The cluster cost model of §1.2.
//!
//! Once the tradeoff curve `r = f(q)` is known for a problem, choosing an
//! algorithm for a specific cluster reduces to minimising a money/time
//! cost of the form
//!
//! ```text
//! cost(q) = a·f(q) + processing(q)
//! ```
//!
//! where `a` converts replication rate into communication dollars
//! (Example 1.1: EC2 transfer price × data size) and `processing(q)`
//! models the reducers' compute cost — e.g. `b·q` when per-reducer work is
//! quadratic (`O(q²)` work × `O(1/q)` reducers), plus an optional `c·q²`
//! wall-clock term for the single-reducer latency.

/// A cluster cost model over the `(q, r)` tradeoff.
pub struct CostModel {
    /// Communication price per unit of replication rate (the `a` of
    /// Example 1.1).
    pub comm_price: f64,
    /// Processing cost as a function of the reducer size `q`.
    pub processing: Box<dyn Fn(f64) -> f64 + Sync>,
}

impl CostModel {
    /// The linear model of Example 1.1: `a·r + b·q` — all-pairs reducers
    /// (`O(q²)` work each, `∝ 1/q` of them).
    pub fn linear(a: f64, b: f64) -> Self {
        CostModel {
            comm_price: a,
            processing: Box::new(move |q| b * q),
        }
    }

    /// The wall-clock-aware model of Example 1.1's footnote:
    /// `a·r + b·q + c·q²` (the `c·q²` term is the single-reducer
    /// execution time).
    pub fn with_wall_clock(a: f64, b: f64, c: f64) -> Self {
        CostModel {
            comm_price: a,
            processing: Box::new(move |q| b * q + c * q * q),
        }
    }

    /// Total cost at a `(q, r)` point.
    pub fn total(&self, q: f64, r: f64) -> f64 {
        self.comm_price * r + (self.processing)(q)
    }

    /// Scans a tradeoff frontier (a set of `(q, r)` points achieved by
    /// concrete algorithms) and returns the cheapest point
    /// `(q, r, total_cost)`.
    ///
    /// Points whose cost evaluates to NaN (a NaN coordinate, or a NaN
    /// produced by the processing closure) are skipped rather than
    /// poisoning the minimum. Returns `None` on an empty frontier — or
    /// one consisting entirely of NaN-cost points.
    ///
    /// ```
    /// use mr_core::cost::CostModel;
    /// let m = CostModel::linear(1.0, 1.0);
    /// assert_eq!(m.cheapest_point(&[]), None);
    /// // The NaN point is ignored; the finite one wins.
    /// let (q, r, cost) = m
    ///     .cheapest_point(&[(f64::NAN, 1.0), (4.0, 2.0)])
    ///     .unwrap();
    /// assert_eq!((q, r, cost), (4.0, 2.0, 6.0));
    /// ```
    pub fn cheapest_point(&self, frontier: &[(f64, f64)]) -> Option<(f64, f64, f64)> {
        frontier
            .iter()
            .map(|&(q, r)| (q, r, self.total(q, r)))
            .filter(|&(_, _, cost)| !cost.is_nan())
            .min_by(|a, b| a.2.partial_cmp(&b.2).expect("NaN costs were filtered"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_model_total() {
        let m = CostModel::linear(10.0, 2.0);
        assert!((m.total(100.0, 3.0) - (30.0 + 200.0)).abs() < 1e-12);
    }

    #[test]
    fn wall_clock_model_total() {
        let m = CostModel::with_wall_clock(1.0, 1.0, 0.5);
        assert!((m.total(4.0, 2.0) - (2.0 + 4.0 + 8.0)).abs() < 1e-12);
    }

    #[test]
    fn cheapest_point_on_frontier() {
        // Hamming-1 style frontier for b = 12: (q = 2^(b/c), r = c).
        let b = 12u32;
        let frontier: Vec<(f64, f64)> = [1u32, 2, 3, 4, 6, 12]
            .iter()
            .map(|&c| ((2.0f64).powf(b as f64 / c as f64), c as f64))
            .collect();
        // Expensive communication → prefer big reducers (small r).
        let comm_heavy = CostModel::linear(1000.0, 0.01);
        let (q, r, _) = comm_heavy.cheapest_point(&frontier).unwrap();
        assert_eq!(r, 1.0);
        assert_eq!(q, 4096.0);
        // Expensive processing → prefer small reducers (large r).
        let proc_heavy = CostModel::linear(0.01, 1000.0);
        let (q2, r2, _) = proc_heavy.cheapest_point(&frontier).unwrap();
        assert_eq!(r2, 12.0);
        assert_eq!(q2, 2.0);
    }

    #[test]
    fn empty_frontier_is_none() {
        let m = CostModel::linear(1.0, 1.0);
        assert!(m.cheapest_point(&[]).is_none());
    }

    #[test]
    fn nan_points_are_skipped_not_propagated() {
        let m = CostModel::linear(1.0, 1.0);
        // NaN q and NaN r must both be ignored; the finite minimum
        // survives.
        let frontier = [(f64::NAN, 1.0), (3.0, f64::NAN), (5.0, 2.0), (2.0, 4.0)];
        let (q, r, cost) = m.cheapest_point(&frontier).unwrap();
        assert_eq!((q, r), (2.0, 4.0));
        assert!((cost - 6.0).abs() < 1e-12);
    }

    #[test]
    fn all_nan_inputs_yield_none() {
        let m = CostModel::linear(1.0, 1.0);
        assert!(m.cheapest_point(&[(f64::NAN, 1.0)]).is_none());
    }
}
