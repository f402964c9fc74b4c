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
use crate::model::ReducerId;
use mr_sim::schema::SchemaJob;
use mr_sim::{run_schema, EngineConfig, EngineError, RoundMetrics};

/// A tagged tuple: `(atom index, tuple values)` — the simulator input type
/// for join jobs.
pub type TaggedTuple = (u32, Vec<u32>);

/// The Shares mapping schema for a query.
#[derive(Debug, Clone)]
pub struct SharesSchema {
    /// The query being computed.
    pub query: Query,
    /// Share per variable; the reducer grid has `Π shares` cells.
    pub shares: Vec<u64>,
}

impl SharesSchema {
    /// Creates the schema.
    ///
    /// # Panics
    /// Panics if the share vector length differs from the variable count
    /// or any share is zero.
    pub fn new(query: Query, shares: Vec<u64>) -> Self {
        assert_eq!(shares.len(), query.num_vars, "one share per variable");
        assert!(shares.iter().all(|&s| s > 0), "shares must be positive");
        SharesSchema { query, shares }
    }

    /// Total number of reducers `p = Π s_v`.
    pub fn num_reducers(&self) -> u64 {
        self.shares.iter().product()
    }

    /// Bucket of `value` in variable `v`'s dimension.
    fn bucket(&self, var: usize, value: u32) -> u64 {
        // Simple modular hash; adequate for the uniform domains of the
        // experiments and fully deterministic.
        value as u64 % self.shares[var]
    }

    /// Mixed-radix encoding of a full bucket vector.
    fn encode(&self, buckets: &[u64]) -> ReducerId {
        buckets
            .iter()
            .zip(&self.shares)
            .fold(0u64, |acc, (&b, &s)| acc * s + b)
    }

    /// Decodes a reducer id into its bucket vector.
    pub fn decode(&self, id: ReducerId) -> Vec<u64> {
        let mut buckets = vec![0u64; self.shares.len()];
        let mut rest = id;
        for (slot, &s) in buckets.iter_mut().zip(&self.shares).rev() {
            *slot = rest % s;
            rest /= s;
        }
        buckets
    }

    /// The number of reducers a tuple of `atom` is replicated to:
    /// `Π_{v ∉ atom} s_v`.
    pub fn replication_of_atom(&self, atom: usize) -> u64 {
        let in_atom: Vec<bool> = {
            let mut m = vec![false; self.query.num_vars];
            for &v in &self.query.atoms[atom] {
                m[v] = true;
            }
            m
        };
        self.shares
            .iter()
            .zip(&in_atom)
            .filter(|(_, &inside)| !inside)
            .map(|(&s, _)| s)
            .product()
    }

    /// Runs the schema on a database instance via the simulator, returning
    /// the join result rows and the round metrics.
    pub fn run(
        &self,
        db: &Database,
        config: &EngineConfig,
    ) -> Result<(Vec<Vec<u32>>, RoundMetrics), EngineError> {
        let inputs: Vec<TaggedTuple> = db
            .tuples
            .iter()
            .enumerate()
            .flat_map(|(a, ts)| ts.iter().map(move |t| (a as u32, t.clone())))
            .collect();
        run_schema(&inputs, self, config)
    }
}

impl SchemaJob<TaggedTuple, Vec<u32>> for SharesSchema {
    fn assign_into(&self, input: &TaggedTuple, emit: &mut dyn FnMut(ReducerId)) {
        let (atom, tuple) = input;
        let vars = &self.query.atoms[*atom as usize];
        // Fixed coordinates from the tuple's own variables.
        let mut fixed: Vec<Option<u64>> = vec![None; self.query.num_vars];
        for (pos, &v) in vars.iter().enumerate() {
            fixed[v] = Some(self.bucket(v, tuple[pos]));
        }
        // Enumerate the free coordinates.
        let mut buckets = vec![0u64; self.query.num_vars];
        fn rec(
            schema: &SharesSchema,
            var: usize,
            fixed: &[Option<u64>],
            buckets: &mut Vec<u64>,
            emit: &mut dyn FnMut(ReducerId),
        ) {
            if var == fixed.len() {
                emit(schema.encode(buckets));
                return;
            }
            match fixed[var] {
                Some(b) => {
                    buckets[var] = b;
                    rec(schema, var + 1, fixed, buckets, emit);
                }
                None => {
                    for b in 0..schema.shares[var] {
                        buckets[var] = b;
                        rec(schema, var + 1, fixed, buckets, emit);
                    }
                }
            }
        }
        rec(self, 0, &fixed, &mut buckets, emit);
    }

    fn reduce(&self, _reducer: ReducerId, inputs: &[TaggedTuple], emit: &mut dyn FnMut(Vec<u32>)) {
        // Local join over the tuples present at this reducer. Because the
        // grid coordinates of a join result are determined by its variable
        // values, each result is produced at exactly one reducer.
        let mut local = Database {
            tuples: vec![Vec::new(); self.query.atoms.len()],
        };
        for (atom, tuple) in inputs {
            local.tuples[*atom as usize].push(tuple.clone());
        }
        if local.tuples.iter().any(|t| t.is_empty()) {
            return; // some relation empty here: no results
        }
        for row in local.join(&self.query) {
            emit(row);
        }
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
            if budget != 1 {
                return; // product must equal p exactly
            }
            let cost = predicted_communication(query, sizes, current);
            let better = match best {
                None => true,
                Some((c, v)) => cost < *c || (cost == *c && current < v),
            };
            if better {
                *best = Some((cost, current.clone()));
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
            assert_eq!(s.encode(&s.decode(id)), id);
        }
    }

    #[test]
    fn shares_join_matches_serial_baseline() {
        let q = Query::chain(3);
        let db = Database::random(&q, 12, 60, 17);
        let expected = db.join(&q);
        let schema = SharesSchema::new(q, vec![1, 2, 3, 1]);
        let (mut got, metrics) = schema.run(&db, &EngineConfig::sequential()).unwrap();
        got.sort_unstable();
        assert_eq!(got, expected);
        // Replication: R1 over s2·s3=3... sanity: r > 1.
        assert!(metrics.replication_rate() > 1.0);
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
