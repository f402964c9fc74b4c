//! Paths of length two (§5.4) — the simplest sample graph *outside* the
//! Alon class.
//!
//! §5.4.1 derives the lower bound from `g(q) = (q 2)` (any two edges form
//! at most one 2-path): `r ≥ 2n/q`, clamped to the trivial `r ≥ 1` when
//! `q > 2n`. §5.4.2 gives two algorithms:
//!
//! * one reducer per node (`q = n`, `r = 2` — each edge sent to both
//!   endpoint reducers), and
//! * the bucket-pair refinement for `q < n`: hash nodes into `k` buckets;
//!   reducers are `[u, {i, j}]` pairs; edge `(a, b)` goes to the
//!   `2(k−1)` reducers `[b, {h(a), *}]` and `[a, {*, h(b)}]`, with the
//!   §5.4.2 tie-breaking rule so each 2-path is produced exactly once.

use crate::model::{MappingSchema, Problem, ReducerId};
use crate::recipe::LowerBoundRecipe;
use mr_graph::graph::Edge;
use mr_sim::schema::SchemaJob;

/// The 2-path problem on `n` nodes: inputs are the `(n 2)` possible edges,
/// outputs are ordered-middle triples `(mid, a, b)` with `a < b`.
#[derive(Debug, Clone, Copy)]
pub struct TwoPathProblem {
    /// Number of nodes.
    pub n: u32,
}

impl TwoPathProblem {
    /// Creates the problem.
    ///
    /// # Panics
    /// Panics if `n < 3`.
    pub fn new(n: u32) -> Self {
        assert!(n >= 3, "2-paths need at least 3 nodes");
        TwoPathProblem { n }
    }

    /// `|I| = (n 2)`.
    pub fn closed_form_inputs(&self) -> u64 {
        let n = self.n as u64;
        n * (n - 1) / 2
    }

    /// `|O| = 3·(n 3) = n(n−1)(n−2)/2` (§5.4.1: three 2-paths per node
    /// triple).
    pub fn closed_form_outputs(&self) -> u64 {
        let n = self.n as u64;
        n * (n - 1) * (n - 2) / 2
    }

    /// The §5.4.1 recipe: `g(q) = (q 2)`.
    pub fn recipe(&self) -> LowerBoundRecipe {
        LowerBoundRecipe::new(
            |q| q * (q - 1.0) / 2.0,
            self.closed_form_inputs() as f64,
            self.closed_form_outputs() as f64,
        )
    }
}

/// §5.4.1: the lower bound `r ≥ 2n/q` (use
/// [`LowerBoundRecipe::clamped_lower_bound`] for the `max(1, ·)` version).
pub fn lower_bound_r(n: u32, q: f64) -> f64 {
    2.0 * n as f64 / q
}

impl Problem for TwoPathProblem {
    type Input = (u32, u32);
    type Output = (u32, u32, u32);

    fn inputs(&self) -> Vec<(u32, u32)> {
        let mut v = Vec::new();
        for u in 0..self.n {
            for w in (u + 1)..self.n {
                v.push((u, w));
            }
        }
        v
    }

    fn outputs(&self) -> Vec<(u32, u32, u32)> {
        // (middle, a, b) with a < b, middle distinct from both.
        let mut v = Vec::new();
        for mid in 0..self.n {
            for a in 0..self.n {
                if a == mid {
                    continue;
                }
                for b in (a + 1)..self.n {
                    if b == mid {
                        continue;
                    }
                    v.push((mid, a, b));
                }
            }
        }
        v
    }

    fn inputs_of(&self, o: &(u32, u32, u32)) -> Vec<(u32, u32)> {
        let (mid, a, b) = *o;
        vec![(mid.min(a), mid.max(a)), (mid.min(b), mid.max(b))]
    }

    fn num_inputs(&self) -> u64 {
        self.closed_form_inputs()
    }

    fn num_outputs(&self) -> u64 {
        self.closed_form_outputs()
    }
}

/// The `q = n` algorithm: one reducer per node; each edge goes to its two
/// endpoint reducers, so `r = 2` — meeting the `2n/q` bound exactly.
#[derive(Debug, Clone, Copy)]
pub struct PerNodeSchema {
    /// Number of nodes.
    pub n: u32,
}

impl MappingSchema<TwoPathProblem> for PerNodeSchema {
    fn assign(&self, input: &(u32, u32)) -> Vec<ReducerId> {
        vec![input.0 as u64, input.1 as u64]
    }

    fn max_inputs_per_reducer(&self) -> u64 {
        self.n as u64 - 1
    }

    fn name(&self) -> String {
        format!("per-node(n={})", self.n)
    }
}

impl SchemaJob<Edge, (u32, u32, u32)> for PerNodeSchema {
    fn assign_into(&self, input: &Edge, emit: &mut dyn FnMut(ReducerId)) {
        emit(input.u as u64);
        emit(input.v as u64);
    }

    fn reduce(&self, reducer: ReducerId, inputs: &[Edge], emit: &mut dyn FnMut((u32, u32, u32))) {
        let mid = reducer as u32;
        let mut others: Vec<u32> = inputs.iter().map(|e| e.other(mid)).collect();
        others.sort_unstable();
        for i in 0..others.len() {
            for j in (i + 1)..others.len() {
                emit((mid, others[i], others[j]));
            }
        }
    }
}

/// The bucket-pair algorithm (§5.4.2) for `q < n`: reducers `[u, {i, j}]`
/// with `i < j` buckets; `r = 2(k−1)`.
#[derive(Debug, Clone, Copy)]
pub struct BucketPairSchema {
    /// Number of nodes.
    pub n: u32,
    /// Number of hash buckets (`k ≥ 2`).
    pub k: u32,
}

impl BucketPairSchema {
    /// Creates the schema.
    ///
    /// # Panics
    /// Panics if `k < 2` (use [`PerNodeSchema`] for the `q = n` point).
    pub fn new(n: u32, k: u32) -> Self {
        assert!(k >= 2, "bucket-pair needs k >= 2");
        BucketPairSchema { n, k }
    }

    /// The §5.4.2 hash: node → bucket.
    pub fn bucket(&self, u: u32) -> u32 {
        u % self.k
    }

    /// Encodes reducer `[u, {i, j}]` (`i < j`).
    fn encode(&self, u: u32, i: u32, j: u32) -> ReducerId {
        debug_assert!(i < j);
        let k = self.k as u64;
        (u as u64) * k * k + (i as u64) * k + j as u64
    }

    /// Decodes a reducer id into `(u, i, j)`.
    pub fn decode(&self, id: ReducerId) -> (u32, u32, u32) {
        let k = self.k as u64;
        (
            (id / (k * k)) as u32,
            ((id / k) % k) as u32,
            (id % k) as u32,
        )
    }

    /// Emits the reducers of edge `(a, b)`, `[b, {h(a), *}]` and
    /// `[a, {*, h(b)}]`, in ascending id order without repeats: the two
    /// centres' reducer sets are disjoint (id `u·k² + i·k + j` with
    /// `i·k + j < k²`), so the smaller centre goes first, and each
    /// centre's pairs `{h, *}` ascend as `*` does.
    fn edge_reducers(&self, a: u32, b: u32, emit: &mut dyn FnMut(ReducerId)) {
        let (lo, hi) = (a.min(b), a.max(b));
        for (centre, other) in [(lo, hi), (hi, lo)] {
            let h = self.bucket(other);
            for star in (0..self.k).filter(|&star| star != h) {
                emit(self.encode(centre, h.min(star), h.max(star)));
            }
        }
    }

    /// Replication rate `2(k−1)`: every edge reaches `k − 1` reducers
    /// at each endpoint, and no two of them coincide.
    pub fn nominal_replication(&self) -> f64 {
        2.0 * (self.k as f64 - 1.0)
    }

    /// The §5.4.2 emission rule for a 2-path `v−u−w` at reducer
    /// `[u, {i, j}]`: produce it iff `{h(v), h(w)} = {i, j}` (rule 1) or
    /// `h(v) = h(w) = i` and `j = i+1 (mod k)` (rule 2).
    fn owns(&self, reducer_i: u32, reducer_j: u32, hv: u32, hw: u32) -> bool {
        if hv != hw {
            let (lo, hi) = if hv < hw { (hv, hw) } else { (hw, hv) };
            lo == reducer_i && hi == reducer_j
        } else {
            let c = hv;
            let succ = (c + 1) % self.k;
            let (lo, hi) = if c < succ { (c, succ) } else { (succ, c) };
            reducer_i == lo && reducer_j == hi
        }
    }
}

impl MappingSchema<TwoPathProblem> for BucketPairSchema {
    fn assign(&self, input: &(u32, u32)) -> Vec<ReducerId> {
        let mut ids = Vec::with_capacity(2 * (self.k as usize - 1));
        self.edge_reducers(input.0, input.1, &mut |id| ids.push(id));
        ids
    }

    fn max_inputs_per_reducer(&self) -> u64 {
        // Reducer [u, {i,j}] receives edges from u to buckets i ∪ j:
        // at most 2·⌈n/k⌉.
        2 * self.n.div_ceil(self.k) as u64
    }

    fn name(&self) -> String {
        format!("bucket-pair(n={}, k={})", self.n, self.k)
    }
}

impl SchemaJob<Edge, (u32, u32, u32)> for BucketPairSchema {
    fn assign_into(&self, input: &Edge, emit: &mut dyn FnMut(ReducerId)) {
        self.edge_reducers(input.u, input.v, emit)
    }

    fn reduce(&self, reducer: ReducerId, inputs: &[Edge], emit: &mut dyn FnMut((u32, u32, u32))) {
        let (u, i, j) = self.decode(reducer);
        // Edges at this reducer that are incident to the centre u.
        let mut others: Vec<u32> = inputs
            .iter()
            .filter(|e| e.contains(u))
            .map(|e| e.other(u))
            .collect();
        others.sort_unstable();
        others.dedup();
        for a in 0..others.len() {
            for b in (a + 1)..others.len() {
                let (v, w) = (others[a], others[b]);
                if self.owns(i, j, self.bucket(v), self.bucket(w)) {
                    emit((u, v, w));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::validate_schema;
    use crate::recipe::max_outputs_covered;
    use mr_graph::{gen, subgraph, Graph};
    use mr_sim::{run_schema, EngineConfig};

    #[test]
    fn counts_match_closed_forms() {
        let p = TwoPathProblem::new(6);
        assert_eq!(p.inputs().len() as u64, p.num_inputs());
        assert_eq!(p.outputs().len() as u64, p.num_outputs());
        assert_eq!(p.num_outputs(), 6 * 5 * 4 / 2);
    }

    #[test]
    fn g_is_q_choose_2_exactly() {
        // §5.4.1: any two distinct edges form at most one 2-path — and a
        // star achieves exactly (q 2).
        let p = TwoPathProblem::new(6);
        for q in 2..=5usize {
            let actual = max_outputs_covered(&p, q);
            assert_eq!(
                actual,
                (q * (q - 1) / 2) as u64,
                "q={q}: star should achieve the bound exactly"
            );
        }
    }

    #[test]
    fn per_node_schema_meets_bound_exactly() {
        let n = 12;
        let p = TwoPathProblem::new(n);
        let s = PerNodeSchema { n };
        let report = validate_schema(&p, &s);
        assert!(report.is_valid(), "{report:?}");
        assert!((report.replication_rate - 2.0).abs() < 1e-9);
        // q = n−1 per reducer, bound 2n/q ≈ 2.
        let bound = lower_bound_r(n, report.max_load as f64);
        assert!(report.replication_rate >= bound - 0.5);
    }

    #[test]
    fn bucket_pair_schema_is_valid() {
        let n = 12;
        let p = TwoPathProblem::new(n);
        for k in [2u32, 3, 4, 6] {
            let s = BucketPairSchema::new(n, k);
            let report = validate_schema(&p, &s);
            assert!(report.is_valid(), "k={k}: {report:?}");
            // r = 2(k−1): no two of an edge's reducers coincide.
            assert!(
                (report.replication_rate - s.nominal_replication()).abs() < 1e-9,
                "k={k}: r={}",
                report.replication_rate
            );
        }
    }

    #[test]
    fn bucket_pair_reducers_ascend_without_repeats() {
        // The order and distinctness `edge_reducers` claims, so the
        // assignment needs no sort and no dedup: every edge of the
        // complete graph, against the §5.4.2 definition sorted, at two to
        // six buckets, through both the engine's and the model's form.
        let n = 13;
        for k in 2..=6 {
            let s = BucketPairSchema::new(n, k);
            for e in Graph::complete(n as usize).edges() {
                let mut expect = Vec::new();
                for (centre, other) in [(e.v, e.u), (e.u, e.v)] {
                    let h = s.bucket(other);
                    for star in (0..k).filter(|&star| star != h) {
                        expect.push(s.encode(centre, h.min(star), h.max(star)));
                    }
                }
                expect.sort_unstable();
                let ids = SchemaJob::assign(&s, e);
                assert!(
                    ids.windows(2).all(|w| w[0] < w[1]),
                    "k={k} edge {e}: {ids:?}"
                );
                assert_eq!(ids, expect, "k={k} edge {e}");
                for input in [(e.u, e.v), (e.v, e.u)] {
                    assert_eq!(MappingSchema::assign(&s, &input), expect, "k={k} {input:?}");
                }
            }
        }
    }

    #[test]
    fn bucket_pair_replication_factor_of_bound() {
        // §5.4.2: the algorithm achieves ~2k against bound 2n/q = k:
        // within a factor of ~2.
        let n = 60;
        let p = TwoPathProblem::new(n);
        for k in [3u32, 5, 6] {
            let s = BucketPairSchema::new(n, k);
            let report = validate_schema(&p, &s);
            assert!(report.is_valid());
            let bound = lower_bound_r(n, report.max_load as f64);
            let ratio = report.replication_rate / bound;
            assert!(
                (0.8..=2.5).contains(&ratio),
                "k={k}: r={} bound={bound} ratio={ratio}",
                report.replication_rate
            );
        }
    }

    #[test]
    fn simulator_emits_each_two_path_once() {
        let g = gen::gnm(30, 120, 11);
        let s = BucketPairSchema::new(30, 4);
        let (mut found, _) = run_schema(g.edges(), &s, &EngineConfig::sequential()).unwrap();
        found.sort_unstable();
        // Check against the serial baseline.
        let mut expected = subgraph::two_paths(&g);
        expected.sort_unstable();
        assert_eq!(found, expected, "bucket-pair output mismatch");
        // No duplicates.
        let mut dedup = found.clone();
        dedup.dedup();
        assert_eq!(found.len(), dedup.len());
    }

    #[test]
    fn per_node_simulator_matches_baseline() {
        let g = gen::gnm(25, 80, 13);
        let s = PerNodeSchema { n: 25 };
        let (mut found, metrics) = run_schema(g.edges(), &s, &EngineConfig::sequential()).unwrap();
        found.sort_unstable();
        let mut expected = subgraph::two_paths(&g);
        expected.sort_unstable();
        assert_eq!(found, expected);
        assert!((metrics.replication_rate() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn wraparound_rule_covers_same_bucket_paths() {
        // All three nodes in the top bucket exercises rule 2 including the
        // i = k−1 wraparound.
        let n = 9;
        let k = 3;
        let p = TwoPathProblem::new(n);
        let s = BucketPairSchema::new(n, k);
        let report = validate_schema(&p, &s);
        assert_eq!(report.uncovered_outputs, 0);
        // Direct probe: 2-path 2-5-8 (all bucket 2) must be owned by
        // exactly one reducer among [5, {0,2}] (succ of 2 is 0).
        assert!(s.owns(0, 2, 2, 2));
        assert!(!s.owns(1, 2, 2, 2));
    }

    #[test]
    fn lower_bound_clamps_to_one() {
        let p = TwoPathProblem::new(10);
        let recipe = p.recipe();
        // q = n²/2 = all inputs → bound must clamp to 1 (§5.4.1).
        assert_eq!(recipe.clamped_lower_bound(45.0), 1.0);
        // Small q: 2n/q shape (within discretisation slack).
        let b = recipe.replication_lower_bound(10.0);
        assert!((b - lower_bound_r(10, 10.0)).abs() < 0.5, "bound {b}");
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn bucket_pair_rejects_k1() {
        BucketPairSchema::new(10, 1);
    }
}
