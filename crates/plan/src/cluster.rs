//! The cluster description a plan is made *for*.

use crate::planner::PlanError;
use mr_sim::EngineConfig;

/// A cluster specification: how many workers execute, how much a reducer
/// may hold, and what communication and compute cost.
///
/// It is the workspace's one §1.2 money/time model `a·r + b·q (+ c·q²)`
/// ([`cost`](ClusterSpec::cost)), with the two operational facts a
/// planner also needs: the **reducer capacity** (a hard per-reducer
/// memory budget on `q`, the paper's design constraint) and the **worker
/// count** plans execute with.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Engine worker threads a plan executes with. Semantically inert —
    /// the engine's results are worker-count independent — but part of
    /// the spec because a real cluster has a size.
    pub workers: usize,
    /// Per-reducer memory budget: the largest `q` any schema may declare.
    /// `None` means unbounded (the planner may use the whole frontier).
    pub reducer_capacity: Option<u64>,
    /// Communication price per unit of replication rate (the `a` of
    /// Example 1.1).
    pub comm_weight: f64,
    /// Linear processing price per unit of reducer size (the `b` term:
    /// `O(q²)` work per reducer × `O(1/q)` reducers).
    pub compute_weight: f64,
    /// Wall-clock price on the square of the reducer size (the `c·q²`
    /// single-reducer latency term of Example 1.1's footnote).
    pub latency_weight: f64,
    /// Fixed price per sequential round of a multi-round plan (job
    /// start-up, barrier, shuffle spin-up — the reason §6.3 asks when a
    /// second phase *pays*). Charged once per level of a DAG's critical
    /// path; `0` (the default) reproduces the single-round model exactly.
    pub round_latency: f64,
}

impl Default for ClusterSpec {
    /// A balanced mid-size cluster: 4 workers, unbounded reducers,
    /// communication-leaning weights (`a = 1`, `b = 0.05`, `c = 0`) that
    /// place every family's optimum strictly inside its frontier.
    fn default() -> Self {
        ClusterSpec {
            workers: 4,
            reducer_capacity: None,
            comm_weight: 1.0,
            compute_weight: 0.05,
            latency_weight: 0.0,
            round_latency: 0.0,
        }
    }
}

impl ClusterSpec {
    /// A cluster with explicit cost weights and no capacity bound.
    pub fn new(workers: usize, comm_weight: f64, compute_weight: f64) -> Self {
        ClusterSpec {
            workers,
            reducer_capacity: None,
            comm_weight,
            compute_weight,
            latency_weight: 0.0,
            round_latency: 0.0,
        }
    }

    /// A communication-dominated profile (expensive shuffle, cheap CPU):
    /// pushes optima toward big reducers / small `r`.
    pub fn comm_heavy() -> Self {
        ClusterSpec::new(4, 100.0, 0.001)
    }

    /// A compute-dominated profile (cheap shuffle, expensive CPU): pushes
    /// optima toward small reducers / large `r`.
    pub fn compute_heavy() -> Self {
        ClusterSpec::new(4, 0.001, 10.0)
    }

    /// Sets the per-reducer memory budget.
    pub fn with_q_budget(mut self, q: u64) -> Self {
        self.reducer_capacity = Some(q);
        self
    }

    /// Sets the wall-clock `c·q²` weight.
    pub fn with_latency_weight(mut self, c: f64) -> Self {
        self.latency_weight = c;
        self
    }

    /// Sets the fixed per-round price `ℓ` charged per critical-path level
    /// of a multi-round plan.
    pub fn with_round_latency(mut self, l: f64) -> Self {
        self.round_latency = l;
        self
    }

    /// Refuses a cluster whose weights cannot price a plan: the fields are
    /// public `f64`s, so a NaN, an infinity or a negative price can be
    /// written into them, and a NaN cost is comparable with nothing. Run
    /// by every planning entry point before any candidate is priced, so
    /// every cost term the planners compare is in `[0, +∞]` — never NaN
    /// (a census `q` is a `u64`, its `r` a ratio of `u64`s with an empty
    /// instance read as 0).
    pub fn check(&self) -> Result<(), PlanError> {
        for (weight, value) in [
            ("comm_weight", self.comm_weight),
            ("compute_weight", self.compute_weight),
            ("latency_weight", self.latency_weight),
            ("round_latency", self.round_latency),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(PlanError::InvalidCluster {
                    weight,
                    value: value.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Total cost of a `(q, r)` point under this cluster's weights.
    pub fn cost(&self, q: f64, r: f64) -> f64 {
        self.comm_weight * r + self.compute_weight * q + self.latency_weight * q * q
    }

    /// The cheapest `(q, r, cost)` of a frontier of achieved `(q, r)`
    /// points: the first of equal-cost points, skipping NaN costs; `None`
    /// when no point is left.
    ///
    /// ```
    /// use mr_plan::ClusterSpec;
    /// let c = ClusterSpec::new(4, 1.0, 1.0);
    /// assert_eq!(c.cheapest_point(&[]), None);
    /// // The NaN point is ignored; the finite one wins.
    /// let (q, r, cost) = c.cheapest_point(&[(f64::NAN, 1.0), (4.0, 2.0)]).unwrap();
    /// assert_eq!((q, r, cost), (4.0, 2.0, 6.0));
    /// ```
    pub fn cheapest_point(&self, frontier: &[(f64, f64)]) -> Option<(f64, f64, f64)> {
        frontier
            .iter()
            .map(|&(q, r)| (q, r, self.cost(q, r)))
            .filter(|&(_, _, cost)| !cost.is_nan())
            .min_by(|a, b| a.2.partial_cmp(&b.2).expect("NaN costs were filtered"))
    }

    /// The cost of a plan whose rounds load `(q_i, r_i)`, with `depth`
    /// rounds on its critical path:
    /// `Σ_rounds cost(q_i, r_i) + round_latency · depth`. Predicted and
    /// measured costs — of a one-round grid point, a matmul tree or any
    /// [`RoundDag`](crate::RoundDag) — are all this one sum.
    pub(crate) fn rounds_cost(
        &self,
        rounds: impl IntoIterator<Item = (u64, f64)>,
        depth: usize,
    ) -> f64 {
        let per_round: f64 = rounds
            .into_iter()
            .map(|(q, r)| self.cost(q as f64, r))
            .sum();
        per_round + self.round_latency * depth as f64
    }

    /// Whether a reducer load `q` fits the memory budget.
    pub fn admits(&self, q: u64) -> bool {
        self.reducer_capacity.is_none_or(|cap| q <= cap)
    }

    /// The engine configuration plans execute with (budget enforcement is
    /// added per plan — each plan runs under its own predicted `q`).
    pub fn engine(&self) -> EngineConfig {
        EngineConfig::parallel(self.workers)
    }

    /// A deterministic one-line description for reports.
    pub fn describe(&self) -> String {
        format!(
            "workers={}, q-budget={}, cost = {}·r + {}·q{}",
            self.workers,
            match self.reducer_capacity {
                Some(q) => q.to_string(),
                None => "unbounded".to_string(),
            },
            self.comm_weight,
            self.compute_weight,
            if self.latency_weight != 0.0 {
                format!(" + {}·q²", self.latency_weight)
            } else {
                String::new()
            }
        ) + &if self.round_latency != 0.0 {
            format!(" + {}·rounds", self.round_latency)
        } else {
            String::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_core::frontier::{as_cost_points, matmul_frontier};

    #[test]
    fn cost_saturates_to_infinity_not_nan() {
        // The largest weights at the largest census `q`: every term is
        // non-negative, so the sum overflows to +∞ and never reaches the
        // NaN of ∞ − ∞.
        let c = ClusterSpec {
            comm_weight: f64::MAX,
            compute_weight: f64::MAX,
            latency_weight: f64::MAX,
            round_latency: f64::MAX,
            ..ClusterSpec::default()
        };
        let q = u64::MAX as f64;
        for r in [0.0, 1.0, q] {
            assert_eq!(c.cost(q, r), f64::INFINITY, "r = {r}");
        }
        assert_eq!(c.rounds_cost([(u64::MAX, 1.0)], 1), f64::INFINITY);
        // Equal (infinite) costs keep the first point.
        let (q1, r1, cost) = c.cheapest_point(&[(q, 3.0), (q, 1.0), (q, 2.0)]).unwrap();
        assert_eq!((q1, r1, cost), (q, 3.0, f64::INFINITY));
    }

    #[test]
    fn cost_model_integration() {
        let f = matmul_frontier(12);
        let pts = as_cost_points(&f);
        // Communication-dominated cost picks the largest-q point (r = 1).
        let comm = ClusterSpec {
            comm_weight: 1e6,
            compute_weight: 1e-6,
            ..ClusterSpec::default()
        };
        let (q, r, _) = comm.cheapest_point(&pts).unwrap();
        assert_eq!(r, 1.0);
        assert_eq!(q, 2.0 * 144.0);
        // Compute-dominated cost picks the smallest-q point.
        let cpu = ClusterSpec {
            comm_weight: 1e-6,
            compute_weight: 1e6,
            ..ClusterSpec::default()
        };
        let (q2, _, _) = cpu.cheapest_point(&pts).unwrap();
        assert_eq!(q2, f[0].q as f64);
    }

    #[test]
    fn capacity_gates_admission() {
        let unbounded = ClusterSpec::default();
        assert!(unbounded.admits(u64::MAX));
        let capped = ClusterSpec::default().with_q_budget(100);
        assert!(capped.admits(100));
        assert!(!capped.admits(101));
    }

    #[test]
    fn engine_carries_workers_but_no_budget() {
        let c = ClusterSpec::new(8, 1.0, 1.0).with_q_budget(5);
        let e = c.engine();
        assert_eq!(e.effective_workers(), 8);
        assert!(e.max_reducer_inputs.is_none());
    }

    #[test]
    fn describe_is_stable() {
        assert_eq!(
            ClusterSpec::default().describe(),
            "workers=4, q-budget=unbounded, cost = 1·r + 0.05·q"
        );
        assert_eq!(
            ClusterSpec::new(2, 2.0, 1.0)
                .with_q_budget(64)
                .with_latency_weight(0.5)
                .describe(),
            "workers=2, q-budget=64, cost = 2·r + 1·q + 0.5·q²"
        );
        assert_eq!(
            ClusterSpec::new(2, 2.0, 1.0)
                .with_round_latency(0.25)
                .describe(),
            "workers=2, q-budget=unbounded, cost = 2·r + 1·q + 0.25·rounds"
        );
    }
}
