//! Conjunctive queries, databases, the serial join baseline, and the
//! local join every Shares reducer runs.

use super::tuple::{TaggedTuple, Tuple, MAX_VARS};
use mr_lp::{fractional_edge_cover, Hypergraph};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;

/// A conjunctive query (natural multiway join): `num_vars` variables and
/// one atom per relation, each atom listing the variables it covers in
/// positional order.
#[derive(Debug, Clone)]
pub struct Query {
    /// Number of join variables (the paper's `m`).
    pub num_vars: usize,
    /// Variable indices of each relational atom (the paper's `s` atoms).
    pub atoms: Vec<Vec<usize>>,
}

impl Query {
    /// Creates a query, checking every atom references valid variables,
    /// numbered in the order the atoms first mention them: a join that
    /// binds atom after atom then binds them in ascending order.
    ///
    /// # Panics
    /// Panics on more than [`MAX_VARS`] variables, empty atoms,
    /// out-of-range variables, repeated variables within an atom, or a
    /// variable first mentioned before a lower one, or never.
    pub fn new(num_vars: usize, atoms: Vec<Vec<usize>>) -> Self {
        assert!(
            num_vars <= MAX_VARS,
            "{num_vars} variables exceed a tuple's {MAX_VARS}"
        );
        let mut seen = 0;
        for a in &atoms {
            assert!(!a.is_empty(), "atoms must be non-empty");
            let distinct: BTreeSet<_> = a.iter().collect();
            assert_eq!(distinct.len(), a.len(), "repeated variable in atom {a:?}");
            for &v in a {
                assert!(v < num_vars, "variable {v} out of range");
                assert!(v <= seen, "variable {v} is mentioned before {seen}");
                seen = seen.max(v + 1);
            }
        }
        assert_eq!(seen, num_vars, "variable {seen} is in no atom");
        Query { num_vars, atoms }
    }

    /// The chain join `R_1(A_0,A_1) ⋈ R_2(A_1,A_2) ⋈ … ⋈ R_N(A_{N−1},A_N)`
    /// (§5.5.2).
    pub fn chain(num_relations: usize) -> Self {
        assert!(num_relations >= 1);
        Query::new(
            num_relations + 1,
            (0..num_relations).map(|i| vec![i, i + 1]).collect(),
        )
    }

    /// The star join (§5.5.2): a fact table over attributes `A_0..A_{N−1}`
    /// joined with `N` dimension tables `D_i(A_i, B_i)`, each with one
    /// private attribute.
    pub fn star(num_dims: usize) -> Self {
        assert!(num_dims >= 1);
        let mut atoms = vec![(0..num_dims).collect::<Vec<_>>()];
        for i in 0..num_dims {
            atoms.push(vec![i, num_dims + i]);
        }
        Query::new(2 * num_dims, atoms)
    }

    /// The cycle query `R_1(A_0,A_1) ⋈ … ⋈ R_k(A_{k−1},A_0)`.
    pub fn cycle(k: usize) -> Self {
        assert!(k >= 3);
        Query::new(k, (0..k).map(|i| vec![i, (i + 1) % k]).collect())
    }

    /// The query hypergraph `G(q)` of §5.5.1.
    pub fn hypergraph(&self) -> Hypergraph {
        Hypergraph::from_edges(self.num_vars, self.atoms.clone())
    }

    /// The parameter `ρ`: the optimal fractional edge cover value,
    /// computed by LP (§5.5.1, after \[6\]).
    ///
    /// # Panics
    /// Panics if some variable appears in no atom (the cover LP is then
    /// infeasible), which `Query::new` prevents.
    pub fn rho(&self) -> f64 {
        fractional_edge_cover(&self.hypergraph())
            .expect("every variable appears in some atom")
            .0
    }

    /// Joins `tuples`, in any order, and emits every result row in
    /// ascending order: the serial join, and the local join at a Shares
    /// reducer over the inputs it borrows. Its one allocation is an index
    /// of the tuples, sorted by atom and value.
    pub(crate) fn join_tagged<'a>(
        &self,
        tuples: impl Iterator<Item = &'a TaggedTuple>,
        emit: &mut dyn FnMut(Tuple),
    ) {
        let mut index: Vec<&TaggedTuple> = tuples.collect();
        index.sort_unstable();
        self.extend(0, &index, [0; MAX_VARS], 0, emit);
    }

    /// Extends `row`, whose variables in the mask `bound` are set, by each
    /// consistent tuple of `atom` (the leading run of `index`) and recurses
    /// into the next atom. A run is ascending and the variables it binds
    /// are the next ones in order, so the rows come out ascending.
    fn extend(
        &self,
        atom: usize,
        index: &[&TaggedTuple],
        row: [u32; MAX_VARS],
        bound: u32,
        emit: &mut dyn FnMut(Tuple),
    ) {
        let Some(vars) = self.atoms.get(atom) else {
            return emit(row[..self.num_vars].iter().copied().collect());
        };
        let (run, rest) = index.split_at(index.partition_point(|t| t.0 as usize == atom));
        let now_bound = vars.iter().fold(bound, |mask, &v| mask | 1 << v);
        'tuples: for (_, tuple) in run {
            let mut next = row;
            for (&v, &x) in vars.iter().zip(tuple.iter()) {
                if bound & 1 << v != 0 && row[v] != x {
                    continue 'tuples;
                }
                next[v] = x;
            }
            self.extend(atom + 1, rest, next, now_bound, emit);
        }
    }
}

/// A database instance: one tuple list per atom. Tuple values are indexed
/// positionally, matching the atom's variable list.
#[derive(Debug, Clone)]
pub struct Database {
    /// `tuples[a]` = the tuples of atom `a`'s relation.
    pub tuples: Vec<Vec<Tuple>>,
}

impl Database {
    /// The *complete* instance over a domain of `n` values: every possible
    /// tuple in every relation — the instance the lower-bound analysis
    /// assumes (§2.3). Relation `a` gets `n^arity(a)` tuples.
    pub fn complete(query: &Query, n: u32) -> Self {
        let n = u64::from(n);
        let tuples = query
            .atoms
            .iter()
            .map(|atom| {
                let arity = atom.len() as u32;
                let digits =
                    |code: u64| (0..arity).rev().map(move |i| (code / n.pow(i) % n) as u32);
                (0..n.pow(arity))
                    .map(|code| digits(code).collect())
                    .collect()
            })
            .collect();
        Database { tuples }
    }

    /// A random instance: `per_relation` distinct tuples per relation over
    /// domain `0..n`, seeded.
    pub fn random(query: &Query, n: u32, per_relation: usize, seed: u64) -> Self {
        Self::random_with_sizes(query, n, &vec![per_relation; query.atoms.len()], seed)
    }

    /// A random instance with a distinct size per relation (e.g. a large
    /// fact table and small dimension tables, §5.5.2).
    ///
    /// # Panics
    /// Panics if `sizes.len()` differs from the atom count or a size
    /// exceeds the relation's tuple universe `n^arity`.
    pub fn random_with_sizes(query: &Query, n: u32, sizes: &[usize], seed: u64) -> Self {
        assert_eq!(sizes.len(), query.atoms.len(), "one size per relation");
        let mut rng = StdRng::seed_from_u64(seed);
        let tuples = query
            .atoms
            .iter()
            .zip(sizes)
            .map(|(atom, &per_relation)| {
                let arity = atom.len();
                let universe = (n as u64).pow(arity as u32);
                assert!(
                    per_relation as u64 <= universe,
                    "cannot draw {per_relation} distinct tuples from {universe}"
                );
                let mut chosen: BTreeSet<Tuple> = BTreeSet::new();
                while chosen.len() < per_relation {
                    chosen.insert((0..arity).map(|_| rng.random_range(0..n)).collect());
                }
                chosen.into_iter().collect()
            })
            .collect();
        Database { tuples }
    }

    /// Total number of tuples (the instance's `|I|`).
    pub fn num_tuples(&self) -> u64 {
        self.tuples.iter().map(|t| t.len() as u64).sum()
    }

    /// Every tuple tagged with its atom, atom by atom: the input of every
    /// join round and the join problem's inputs.
    pub(crate) fn tagged(&self) -> Vec<TaggedTuple> {
        self.tuples
            .iter()
            .zip(0..)
            .flat_map(|(ts, a)| ts.iter().map(move |&t| (a, t)))
            .collect()
    }

    /// Serial join baseline: every variable assignment satisfying every
    /// atom, sorted: `Query::join_tagged` over the whole instance.
    pub fn join(&self, query: &Query) -> Vec<Tuple> {
        let mut rows = Vec::new();
        query.join_tagged(self.tagged().iter(), &mut |row| rows.push(row));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_query_shape() {
        let q = Query::chain(3);
        assert_eq!(q.num_vars, 4);
        assert_eq!(q.atoms, vec![vec![0, 1], vec![1, 2], vec![2, 3]]);
    }

    #[test]
    fn star_query_shape() {
        let q = Query::star(3);
        assert_eq!(q.num_vars, 6);
        assert_eq!(q.atoms[0], vec![0, 1, 2]); // fact
        assert_eq!(q.atoms[1], vec![0, 3]);
        assert_eq!(q.atoms[3], vec![2, 5]);
    }

    #[test]
    fn rho_values_match_theory() {
        // Chain of N: ρ = ceil((N+1)/2); cycle k: ρ = k/2; star N: ρ = N.
        assert!((Query::chain(3).rho() - 2.0).abs() < 1e-6);
        assert!((Query::chain(5).rho() - 3.0).abs() < 1e-6);
        assert!((Query::cycle(3).rho() - 1.5).abs() < 1e-6);
        assert!((Query::star(3).rho() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn complete_database_sizes() {
        let q = Query::chain(2);
        let db = Database::complete(&q, 3);
        assert_eq!(db.tuples[0].len(), 9);
        assert_eq!(db.tuples[1].len(), 9);
        assert_eq!(db.num_tuples(), 18);
    }

    #[test]
    fn complete_database_join_is_full_cross() {
        // On the complete instance every assignment joins: n^m results.
        let q = Query::chain(2);
        let db = Database::complete(&q, 3);
        assert_eq!(db.join(&q).len(), 27);
    }

    #[test]
    fn join_on_instance_matches_hand_computation() {
        // R(A,B) = {(0,1),(1,2)}, S(B,C) = {(1,5),(2,6),(3,7)}:
        // join = {(0,1,5),(1,2,6)}.
        let q = Query::chain(2);
        let db = Database {
            tuples: vec![
                vec![Tuple::from_iter([0, 1]), Tuple::from_iter([1, 2])],
                vec![
                    Tuple::from_iter([1, 5]),
                    Tuple::from_iter([2, 6]),
                    Tuple::from_iter([3, 7]),
                ],
            ],
        };
        assert_eq!(
            db.join(&q),
            vec![Tuple::from_iter([0, 1, 5]), Tuple::from_iter([1, 2, 6])]
        );
    }

    #[test]
    fn triangle_join_counts_directed_triangles() {
        // Cycle query over the same relation contents: R=S=T={(0,1),(1,2),(2,0)}
        // has exactly the 3 rotations of the one directed triangle.
        let q = Query::cycle(3);
        let edges = vec![
            Tuple::from_iter([0, 1]),
            Tuple::from_iter([1, 2]),
            Tuple::from_iter([2, 0]),
        ];
        let db = Database {
            tuples: vec![edges.clone(), edges.clone(), edges],
        };
        let result = db.join(&q);
        assert_eq!(result.len(), 3);
    }

    #[test]
    fn random_database_is_deterministic() {
        let q = Query::chain(3);
        let a = Database::random(&q, 10, 20, 99);
        let b = Database::random(&q, 10, 20, 99);
        assert_eq!(a.tuples, b.tuples);
        assert_eq!(a.num_tuples(), 60);
    }

    #[test]
    #[should_panic(expected = "repeated variable")]
    fn rejects_repeated_variable() {
        Query::new(2, vec![vec![0, 0]]);
    }

    #[test]
    #[should_panic(expected = "7 variables exceed a tuple's 6")]
    fn rejects_more_variables_than_a_tuple_holds() {
        Query::chain(6);
    }

    #[test]
    #[should_panic(expected = "variable 2 is mentioned before 1")]
    fn rejects_variables_numbered_out_of_first_mention_order() {
        Query::new(3, vec![vec![0, 2], vec![1, 2]]);
    }

    #[test]
    #[should_panic(expected = "variable 2 is in no atom")]
    fn rejects_a_variable_in_no_atom() {
        Query::new(3, vec![vec![0, 1]]);
    }

    /// Every assignment over `0..n` whose projections lie in every
    /// relation, ascending: the join by its definition.
    fn brute_force(query: &Query, db: &Database, n: u32) -> Vec<Tuple> {
        let (n, m) = (u64::from(n), query.num_vars as u32);
        let digit = |code: u64, v: usize| (code / n.pow(m - 1 - v as u32) % n) as u32;
        (0..n.pow(m))
            .map(|code| (0..m as usize).map(|v| digit(code, v)).collect::<Tuple>())
            .filter(|row| {
                let project = |vars: &Vec<usize>| vars.iter().map(|&v| row[v]).collect();
                query
                    .atoms
                    .iter()
                    .zip(&db.tuples)
                    .all(|(vars, ts)| ts.contains(&project(vars)))
            })
            .collect()
    }

    #[test]
    fn join_matches_brute_force_in_any_input_order() {
        // Tuples arrive reversed. `(A0, A1) ⋈ (A2, A1)` binds a variable
        // ahead of an already bound one.
        for (query, n, per_relation) in [
            (Query::chain(3), 6, 20),
            (Query::cycle(3), 5, 15),
            (Query::star(3), 4, 12),
            (Query::new(3, vec![vec![0, 1], vec![2, 1]]), 6, 20),
        ] {
            let db = Database::random(&query, n, per_relation, 3);
            let expected = brute_force(&query, &db, n);
            assert!(!expected.is_empty(), "{query:?}");
            let mut rows = Vec::new();
            query.join_tagged(db.tagged().iter().rev(), &mut |row| rows.push(row));
            assert_eq!(rows, expected, "{query:?}");
            assert_eq!(db.join(&query), expected, "{query:?}");
        }
    }
}
