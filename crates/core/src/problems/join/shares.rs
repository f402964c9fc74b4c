//! The Shares algorithm of Afrati–Ullman \[1\] as a mapping schema.
//!
//! Each join variable `v` receives a *share* `s_v`; reducers form a grid
//! with one coordinate per variable (`p = Π s_v` reducers). A tuple fixes
//! the coordinates of its own variables by hashing and is replicated over
//! all combinations of the remaining coordinates — so a tuple of atom `e`
//! is sent to `Π_{v ∉ e} s_v` reducers. Every potential join result maps
//! to exactly one reducer (the one agreeing with all its hashed
//! coordinates), which both guarantees coverage and makes emission
//! duplicate-free.

use super::query::{Database, Query};
use super::tuple::{TaggedTuple, Tuple, MAX_VARS};
use crate::model::ReducerId;
use mr_sim::schema::SchemaJob;
use mr_sim::{run_schema, EngineConfig, EngineError, RoundMetrics};

/// The Shares mapping schema for a query.
#[derive(Debug, Clone)]
pub struct SharesSchema {
    query: Query,
    shares: Vec<u64>,
    /// `strides[v] = Π_{u > v} s_u`: the weight of variable `v`'s
    /// coordinate in a reducer id, the mixed-radix number of the grid cell
    /// with variable 0 most significant.
    strides: Vec<u64>,
}

impl SharesSchema {
    /// Creates the schema.
    ///
    /// # Panics
    /// Panics if the share vector length differs from the variable count,
    /// any share is zero, or the grid has more cells than a `ReducerId`
    /// can number.
    pub fn new(query: Query, shares: Vec<u64>) -> Self {
        assert_eq!(shares.len(), query.num_vars, "one share per variable");
        assert!(shares.iter().all(|&s| s > 0), "shares must be positive");
        let cells = shares
            .iter()
            .try_fold(1u64, |cells, &s| cells.checked_mul(s));
        assert!(cells.is_some(), "grid {shares:?} does not fit a ReducerId");
        let mut strides = vec![1; shares.len()];
        for v in (1..shares.len()).rev() {
            strides[v - 1] = strides[v] * shares[v];
        }
        SharesSchema {
            query,
            shares,
            strides,
        }
    }

    /// The query being computed.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Share per variable; the reducer grid has `Π shares` cells.
    pub fn shares(&self) -> &[u64] {
        &self.shares
    }

    /// Total number of reducers `p = Π s_v`.
    pub fn num_reducers(&self) -> u64 {
        self.shares.iter().product()
    }

    /// The number of reducers a tuple of `atom` is replicated to:
    /// `Π_{v ∉ atom} s_v`.
    pub fn replication_of_atom(&self, atom: usize) -> u64 {
        let vars = &self.query.atoms[atom];
        (0..self.shares.len())
            .filter(|v| !vars.contains(v))
            .map(|v| self.shares[v])
            .product()
    }

    /// Runs the schema on a database instance via the simulator, returning
    /// the join result rows and the round metrics.
    pub fn run(
        &self,
        db: &Database,
        config: &EngineConfig,
    ) -> Result<(Vec<Tuple>, RoundMetrics), EngineError> {
        run_schema(&db.tagged(), self, config)
    }
}

impl SchemaJob<TaggedTuple, Tuple> for SharesSchema {
    fn assign_into(&self, (atom, tuple): &TaggedTuple, emit: &mut dyn FnMut(ReducerId)) {
        // The tuple fixes its own variables' coordinates by a modular hash
        // (adequate for the experiments' uniform domains, and
        // deterministic); `digits` counts through the others, the last
        // variable fastest, so the ids come out ascending.
        let mut free = [true; MAX_VARS];
        let mut id = 0;
        for (&v, &x) in self.query.atoms[*atom as usize].iter().zip(tuple.iter()) {
            free[v] = false;
            id += u64::from(x) % self.shares[v] * self.strides[v];
        }
        let mut digits = [0u64; MAX_VARS];
        'ids: loop {
            emit(id);
            for v in (0..self.shares.len()).rev().filter(|&v| free[v]) {
                if digits[v] + 1 < self.shares[v] {
                    digits[v] += 1;
                    id += self.strides[v];
                    continue 'ids;
                }
                id -= digits[v] * self.strides[v];
                digits[v] = 0;
            }
            return;
        }
    }

    fn reduce(&self, _reducer: ReducerId, inputs: &[TaggedTuple], emit: &mut dyn FnMut(Tuple)) {
        // Because the grid coordinates of a join result are determined by
        // its variable values, each result is produced at exactly one
        // reducer.
        self.query.join_tagged(inputs.iter(), emit);
    }
}

/// Predicted communication of a share vector:
/// `Σ_e |R_e| · Π_{v ∉ e} s_v` (the Afrati–Ullman cost expression).
pub fn predicted_communication(query: &Query, sizes: &[u64], shares: &[u64]) -> u64 {
    assert_eq!(sizes.len(), query.atoms.len());
    let schema = SharesSchema::new(query.clone(), shares.to_vec());
    sizes
        .iter()
        .enumerate()
        .map(|(a, &sz)| sz * schema.replication_of_atom(a))
        .sum()
}

/// Finds the power-of-two share vector with `Π s_v = p` (p rounded down
/// to a power of two) minimising the predicted communication — a discrete
/// version of the Lagrangean optimisation in \[1\]. The product constraint
/// is an *equality*: `p` is the cluster's parallelism target, and
/// minimising communication alone would always collapse to one reducer.
///
/// Power-of-two grids are within a constant factor of the fractional
/// optimum; ties break toward the lexicographically smallest vector for
/// determinism.
pub fn optimize_shares(query: &Query, sizes: &[u64], p: u64) -> Vec<u64> {
    assert!(p >= 1);
    let p = 1u64 << (63 - p.leading_zeros()); // round down to a power of 2
    let mut best: Option<(u64, Vec<u64>)> = None;
    let mut current = vec![1u64; query.num_vars];
    fn rec(
        query: &Query,
        sizes: &[u64],
        var: usize,
        budget: u64,
        current: &mut Vec<u64>,
        best: &mut Option<(u64, Vec<u64>)>,
    ) {
        if var == current.len() {
            if budget == 1 {
                // The product equals p exactly.
                let cost = predicted_communication(query, sizes, current);
                if best
                    .as_ref()
                    .is_none_or(|b| (cost, &*current) < (b.0, &b.1))
                {
                    *best = Some((cost, current.clone()));
                }
            }
            return;
        }
        let mut s = 1u64;
        while s <= budget {
            current[var] = s;
            rec(query, sizes, var + 1, budget / s, current, best);
            s *= 2;
        }
        current[var] = 1;
    }
    rec(query, sizes, 0, p, &mut current, &mut best);
    best.expect("the vector (p, 1, …, 1) is always feasible").1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bucket vector of reducer `id`.
    fn decode(s: &SharesSchema, id: ReducerId) -> Vec<u64> {
        s.strides
            .iter()
            .zip(&s.shares)
            .map(|(st, s)| id / st % s)
            .collect()
    }

    #[test]
    fn replication_of_atom_products() {
        let q = Query::chain(2); // vars A0,A1,A2; atoms {0,1},{1,2}
        let s = SharesSchema::new(q, vec![1, 4, 2]);
        // R1(A0,A1) replicated over A2's share = 2.
        assert_eq!(s.replication_of_atom(0), 2);
        // R2(A1,A2) replicated over A0's share = 1.
        assert_eq!(s.replication_of_atom(1), 1);
        assert_eq!(s.num_reducers(), 8);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let q = Query::chain(3);
        let s = SharesSchema::new(q, vec![2, 3, 4, 1]);
        for id in 0..s.num_reducers() {
            let buckets = decode(&s, id);
            assert!(buckets.iter().zip(&s.shares).all(|(b, s)| b < s));
            let encoded: u64 = buckets.iter().zip(&s.strides).map(|(b, st)| b * st).sum();
            assert_eq!(encoded, id);
        }
    }

    #[test]
    fn assignment_is_every_cell_agreeing_with_the_tuple_ascending() {
        // Distinct ids, as many as the atom's replication, each agreeing
        // with the tuple's buckets: exactly the cells the tuple fixes.
        for (query, shares) in [
            (Query::chain(3), vec![2, 3, 4, 1]),
            (Query::cycle(3), vec![3, 1, 2]),
            (Query::star(3), vec![2, 1, 3, 2, 1, 2]),
        ] {
            let schema = SharesSchema::new(query, shares);
            for (atom, tuple) in Database::random(&schema.query, 7, 20, 5).tagged() {
                let ids = SchemaJob::assign(&schema, &(atom, tuple));
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
                assert_eq!(ids.len() as u64, schema.replication_of_atom(atom as usize));
                for id in ids {
                    let buckets = decode(&schema, id);
                    for (&v, &x) in schema.query.atoms[atom as usize].iter().zip(tuple.iter()) {
                        assert_eq!(buckets[v], u64::from(x) % schema.shares[v]);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit a ReducerId")]
    fn shares_rejects_a_grid_wider_than_a_reducer_id() {
        // 2^32 · 2^32 · 4 = 2^66 cells: unchecked, the product wraps to 0
        // and the tuples (0, [2^30 + 5, 7]) and (0, [5, 7]) share reducers.
        SharesSchema::new(Query::chain(2), vec![1 << 32, 1 << 32, 4]);
    }

    #[test]
    fn shares_join_matches_serial_baseline() {
        // Chain N=3, and the 6-variable star: the widest query a tuple holds.
        for (q, shares) in [
            (Query::chain(3), vec![1, 2, 3, 1]),
            (Query::star(3), vec![2, 2, 2, 1, 2, 1]),
        ] {
            let db = Database::random(&q, 12, 60, 17);
            let expected = db.join(&q);
            assert!(!expected.is_empty(), "{q:?}");
            let schema = SharesSchema::new(q, shares);
            let (mut got, metrics) = schema.run(&db, &EngineConfig::sequential()).unwrap();
            got.sort_unstable();
            assert_eq!(got, expected);
            // Replication: R1 over s2·s3=3... sanity: r > 1.
            assert!(metrics.replication_rate() > 1.0);
        }
    }

    #[test]
    fn no_duplicate_join_results() {
        let q = Query::cycle(3);
        let db = Database::random(&q, 8, 30, 23);
        let schema = SharesSchema::new(q, vec![2, 2, 2]);
        let (got, _) = schema.run(&db, &EngineConfig::sequential()).unwrap();
        let mut sorted = got.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(got.len(), sorted.len(), "duplicate join rows emitted");
    }

    #[test]
    fn star_join_shares_fact_goes_to_one_reducer() {
        let q = Query::star(3);
        // Shares on fact attributes only (the [1] optimum shape).
        let shares = vec![2, 2, 2, 1, 1, 1];
        let s = SharesSchema::new(q, shares);
        // Fact atom covers vars 0,1,2 → replication over B_i shares = 1.
        assert_eq!(s.replication_of_atom(0), 1);
        // Dimension D_0(A_0,B_0): replicated over s(A_1)·s(A_2) = 4.
        assert_eq!(s.replication_of_atom(1), 4);
    }

    #[test]
    fn measured_replication_matches_prediction() {
        let q = Query::chain(2);
        let db = Database::random(&q, 16, 100, 31);
        let shares = vec![1, 4, 1];
        let schema = SharesSchema::new(q.clone(), shares.clone());
        let (_, metrics) = schema.run(&db, &EngineConfig::sequential()).unwrap();
        let predicted = predicted_communication(&q, &[100, 100], &shares);
        assert_eq!(metrics.kv_pairs, predicted);
    }

    #[test]
    fn optimizer_prefers_shared_variables() {
        // For R(A0,A1) ⋈ S(A1,A2), all budget should go to the shared A1:
        // sharing A0 or A2 replicates the other relation for nothing.
        let q = Query::chain(2);
        let shares = optimize_shares(&q, &[1000, 1000], 16);
        assert_eq!(shares, vec![1, 16, 1]);
    }

    #[test]
    fn optimizer_splits_chain5_interior() {
        // N=3 chain: optimum spreads between the two interior attributes.
        let q = Query::chain(3);
        let shares = optimize_shares(&q, &[1000, 1000, 1000], 16);
        assert_eq!(shares[0], 1);
        assert_eq!(shares[3], 1);
        assert_eq!(shares[1] * shares[2], 16);
        assert_eq!(shares[1], 4); // symmetric split
    }

    #[test]
    fn optimizer_star_puts_shares_on_fact() {
        let q = Query::star(2);
        // Fact is huge, dimensions small: shares go on fact attributes.
        let shares = optimize_shares(&q, &[100_000, 100, 100], 16);
        assert_eq!(shares[2], 1, "private attr B_0 must not be shared");
        assert_eq!(shares[3], 1, "private attr B_1 must not be shared");
        assert_eq!(shares[0] * shares[1], 16);
    }

    #[test]
    fn complete_instance_respects_agm_output_bound() {
        // Every reducer's local output ≤ q^ρ (§5.5.1 g(q) = q^ρ).
        let q = Query::cycle(3);
        let rho = q.rho();
        let db = Database::complete(&q, 4);
        let schema = SharesSchema::new(q, vec![2, 2, 1]);
        let (out, metrics) = schema.run(&db, &EngineConfig::sequential()).unwrap();
        assert_eq!(out.len() as u64, 4 * 4 * 4); // complete: n^m results
        let per_reducer_inputs = metrics.load.max as f64;
        let max_outputs_bound = per_reducer_inputs.powf(rho);
        // Outputs per reducer ≤ bound: total/num_reducers is an average,
        // use the max load estimate conservatively.
        assert!(
            (out.len() as f64 / metrics.reducers as f64) <= max_outputs_bound,
            "AGM violated?"
        );
    }
}
