//! Finding instances of a fixed sample graph (§5.1–§5.3).
//!
//! The sample graph `S` (with `s` nodes) is fixed; the data graph is the
//! input. For sample graphs in the **Alon class** (§5.1 — decomposable
//! into single edges and odd Hamiltonian cycles), Alon's theorem bounds the
//! instances in an `m`-edge graph by `O(m^{s/2})`, so `g(q) = q^{s/2}` and
//! the recipe gives `r = Ω((n/√q)^{s−2})` (§5.2), or
//! `Ω((√(m/q))^{s−2})` in terms of edges (§5.3).
//!
//! The matching algorithm generalises §4's triangle node partition, and
//! is that schema at `s = 3`: nodes hashed into `k` groups, one reducer
//! per unordered group multiset of size `s`, each edge sent to every
//! multiset containing both endpoint groups. [`MultisetPartitionSchema`]
//! is the one type for both.
//!
//! Every reducer, and [`enumerate_instances`] over a whole graph, runs one
//! join: sorted adjacency over the edges at hand, pattern nodes matched in
//! BFS order from the intersection of their matched neighbours' lists —
//! the worst-case-optimal evaluation (generic join, Abo Khamis–Ngo–Suciu)
//! that §5.5's `g(q) = q^ρ` presumes. Constraints `img(v) < img(u)` taken
//! from the pattern's automorphisms find each instance once; a reducer
//! tests ownership on the matched nodes' groups before it builds an edge
//! list, and emits its instances sorted. `mr_graph::subgraph` counts
//! instances independently.

use crate::model::{MappingSchema, Problem, ReducerId};
use crate::problems::triangle::TriangleProblem;
use crate::recipe::LowerBoundRecipe;
use mr_graph::alon::is_alon_class;
use mr_graph::graph::{Edge, Graph};
use mr_graph::subgraph;
use mr_sim::schema::SchemaJob;

/// The problem of finding all instances of `pattern` in a data graph on
/// `n` nodes (all `(n 2)` edges potential).
///
/// An output is an instance: a set of data edges forming the pattern,
/// canonically represented by the sorted list of those edges.
#[derive(Debug, Clone)]
pub struct SampleGraphProblem {
    /// The sample graph being searched for.
    pub pattern: Graph,
    /// Number of data-graph nodes.
    pub n: u32,
}

impl SampleGraphProblem {
    /// Creates the problem.
    ///
    /// # Panics
    /// Panics if the pattern is trivial (fewer than 2 nodes) or larger than
    /// the data graph.
    pub fn new(pattern: Graph, n: u32) -> Self {
        assert!(
            pattern.num_nodes() >= 2,
            "pattern must have at least 2 nodes"
        );
        assert!(
            pattern.num_nodes() <= n as usize,
            "pattern larger than the data graph"
        );
        SampleGraphProblem { pattern, n }
    }

    /// Number of pattern nodes (`s`).
    pub fn s(&self) -> usize {
        self.pattern.num_nodes()
    }

    /// True if the pattern is in the Alon class, making the §5.2 bound
    /// applicable.
    pub fn pattern_is_alon(&self) -> bool {
        is_alon_class(&self.pattern)
    }

    /// `|I| = (n 2)`.
    pub fn closed_form_inputs(&self) -> u64 {
        let n = self.n as u64;
        n * (n - 1) / 2
    }

    /// The §5.2 recipe: `g(q) = q^{s/2}`, `|O| = Θ(n^s)` (we use the exact
    /// instance count on the complete graph).
    pub fn recipe(&self) -> LowerBoundRecipe {
        let s = self.s() as f64;
        let outputs = subgraph::instances(&self.pattern, &Graph::complete(self.n as usize));
        LowerBoundRecipe::new(
            move |q| q.powf(s / 2.0),
            self.closed_form_inputs() as f64,
            outputs as f64,
        )
    }
}

/// §5.2: lower bound in nodes, `r = Ω((n/√q)^{s−2})`.
pub fn lower_bound_nodes(n: u32, s: usize, q: f64) -> f64 {
    (n as f64 / q.sqrt()).powi(s as i32 - 2)
}

/// §5.3: lower bound in edges, `r = Ω((√(m/q))^{s−2})`.
pub fn lower_bound_edges(m: u64, s: usize, q: f64) -> f64 {
    (m as f64 / q).sqrt().powi(s as i32 - 2)
}

impl Problem for SampleGraphProblem {
    type Input = (u32, u32);
    type Output = Vec<(u32, u32)>;

    fn inputs(&self) -> Vec<(u32, u32)> {
        let mut v = Vec::new();
        for u in 0..self.n {
            for w in (u + 1)..self.n {
                v.push((u, w));
            }
        }
        v
    }

    fn outputs(&self) -> Vec<Vec<(u32, u32)>> {
        // Enumerate instances of the pattern in the complete graph via the
        // serial baseline, emitting each instance's edge set.
        enumerate_instances(&self.pattern, &Graph::complete(self.n as usize))
    }

    fn inputs_of(&self, output: &Vec<(u32, u32)>) -> Vec<(u32, u32)> {
        output.clone()
    }
}

/// Enumerates instances of `pattern` in `g` as canonical (sorted) edge
/// lists, sorted: the one reducer of the schema at `k = 1`, run over the
/// whole graph.
///
/// # Panics
/// Panics if a pattern node has no edge (an instance is its edge set).
pub fn enumerate_instances(pattern: &Graph, g: &Graph) -> Vec<Vec<(u32, u32)>> {
    let schema = MultisetPartitionSchema::new(pattern.clone(), g.num_nodes().max(1) as u32, 1);
    let mut out = Vec::new();
    schema.reduce(0, g.edges(), &mut |instance| out.push(instance));
    out
}

/// A pattern compiled for a worst-case-optimal join over sorted adjacency
/// (generic join, Abo Khamis–Ngo–Suciu): pattern nodes are matched in BFS
/// order, each from the intersection of its matched neighbours' lists —
/// from every node when none is matched yet, as in `matching(2)`.
///
/// Symmetry is broken up front (Grochow–Kellis): the first position that
/// some automorphism moves must map below the rest of its orbit, the
/// automorphisms are cut to those fixing it, and so on until only the
/// identity is left, so each instance is matched once. For the triangle
/// the constraints read `u < v < w`.
#[derive(Debug, Clone)]
struct PatternJoin {
    /// For each position, the earlier positions adjacent to it.
    back: Vec<Vec<usize>>,
    /// For each position, the earlier positions whose images it must
    /// exceed.
    above: Vec<Vec<usize>>,
    /// The pattern's edges as position pairs.
    edges: Vec<(usize, usize)>,
}

impl PatternJoin {
    /// Compiles `pattern`, finding its automorphisms as its matches in
    /// itself.
    ///
    /// # Panics
    /// Panics if a pattern node has no edge.
    fn new(pattern: &Graph) -> Self {
        let s = pattern.num_nodes();
        assert!(
            (0..s as u32).all(|u| pattern.degree(u) > 0),
            "every pattern node needs an edge: an instance is its edge set"
        );
        let mut order: Vec<u32> = Vec::with_capacity(s);
        for root in 0..s as u32 {
            let mut head = order.len();
            if !order.contains(&root) {
                order.push(root);
            }
            while let Some(&u) = order.get(head) {
                for &w in pattern.neighbors(u) {
                    if !order.contains(&w) {
                        order.push(w);
                    }
                }
                head += 1;
            }
        }
        let pos = |u: u32| order.iter().position(|&x| x == u).expect("ordered");
        let mut join = PatternJoin {
            back: (0..s)
                .map(|i| {
                    let adjacent = pattern.neighbors(order[i]).iter().map(|&w| pos(w));
                    adjacent.filter(|&j| j < i).collect()
                })
                .collect(),
            above: vec![Vec::new(); s],
            edges: pattern
                .edges()
                .iter()
                .map(|e| (pos(e.u), pos(e.v)))
                .collect(),
        };
        let mut automorphisms: Vec<Vec<u32>> = Vec::new();
        join.run(pattern, |img| automorphisms.push(img.to_vec()));
        for (i, &v) in order.iter().enumerate() {
            // The automorphisms left fix every earlier position, so v's
            // orbit lies at later ones.
            for u in (0..s as u32).filter(|&u| u != v) {
                if automorphisms.iter().any(|img| img[i] == u) {
                    join.above[pos(u)].push(i);
                }
            }
            automorphisms.retain(|img| img[i] == v);
        }
        join
    }

    /// Calls `visit` with every match of the pattern in `g` that meets the
    /// symmetry constraints, as the node of each position.
    fn run(&self, g: &Graph, mut visit: impl FnMut(&[u32])) {
        self.extend(g, &mut vec![0; self.back.len()], 0, &mut visit);
    }

    fn extend(&self, g: &Graph, img: &mut [u32], pos: usize, visit: &mut impl FnMut(&[u32])) {
        let Some(back) = self.back.get(pos) else {
            return visit(img);
        };
        let floor = self.above[pos]
            .iter()
            .map(|&j| img[j] + 1)
            .max()
            .unwrap_or(0);
        let list = back.first().map(|&j| g.neighbors(img[j]));
        let mut try_candidate = |c: u32| {
            let fits = !img[..pos].contains(&c)
                && back
                    .iter()
                    .skip(1)
                    .all(|&j| g.neighbors(img[j]).binary_search(&c).is_ok());
            if fits {
                img[pos] = c;
                self.extend(g, img, pos + 1, visit);
            }
        };
        match list {
            Some(list) => list[list.partition_point(|&c| c < floor)..]
                .iter()
                .for_each(|&c| try_candidate(c)),
            None => (floor..g.num_nodes() as u32).for_each(try_candidate),
        }
    }
}

/// The node-partition schema for any sample graph: reducers are unordered
/// multisets of `s` groups out of `k`; an edge goes to every multiset
/// containing both endpoint groups. Over `patterns::triangle()` it is
/// §4's triangle schema, and it is a [`MappingSchema`] of
/// [`TriangleProblem`] too.
#[derive(Debug, Clone)]
pub struct MultisetPartitionSchema {
    /// Number of data nodes.
    pub n: u32,
    /// Number of node groups.
    pub k: u32,
    /// Pattern size `s` (multiset arity).
    pub s: usize,
    join: PatternJoin,
    /// Every sorted multiset of `s − 2` groups (the "other groups" an
    /// edge is combined with), concatenated in ascending order.
    fills: Vec<u32>,
    num_fills: usize,
}

impl MultisetPartitionSchema {
    /// Creates the schema for a given pattern.
    ///
    /// # Panics
    /// Panics if `k` is 0 or exceeds `n`, if the pattern has fewer than 2
    /// nodes or a node with no edge, or if `kˢ` reducer ids do not fit a
    /// `u64` (distinct multisets would share an id).
    pub fn new(pattern: Graph, n: u32, k: u32) -> Self {
        assert!(k >= 1 && k <= n, "k={k} must be in 1..={n}");
        let s = pattern.num_nodes();
        assert!(s >= 2, "pattern too small");
        assert!(
            (k as u64).checked_pow(s as u32).is_some(),
            "k={k} groups of an s={s} node pattern need k^s reducer ids, more than a u64 holds"
        );
        let (mut fills, mut num_fills, mut fill) = (Vec::new(), 0, vec![0u32; s - 2]);
        loop {
            fills.extend_from_slice(&fill);
            num_fills += 1;
            // The next sorted multiset: bump the last digit below k − 1
            // and repeat it to the end.
            let Some(i) = (0..fill.len()).rev().find(|&i| fill[i] + 1 < k) else {
                break;
            };
            let g = fill[i] + 1;
            fill[i..].fill(g);
        }
        MultisetPartitionSchema {
            n,
            k,
            s,
            join: PatternJoin::new(&pattern),
            fills,
            num_fills,
        }
    }

    /// Group of a node.
    pub fn group(&self, u: u32) -> u32 {
        u % self.k
    }

    /// Passes `emit` the reducers of an edge: the base-`k` digits of each
    /// fill with the endpoint groups merged in. They come in ascending
    /// order, each once: adding the same two groups to distinct sorted
    /// fills keeps them distinct, and keeps their order (two sorted
    /// multisets of one size compare by the smallest element of their
    /// difference, which the added groups do not change).
    fn edge_reducers(&self, u: u32, v: u32, emit: &mut dyn FnMut(ReducerId)) {
        let (gu, gv) = (self.group(u), self.group(v));
        let (k, width) = (self.k as u64, self.s - 2);
        for i in 0..self.num_fills {
            let fill = &self.fills[i * width..(i + 1) * width];
            let mut pair = [gu.min(gv), gu.max(gv)].into_iter().peekable();
            let mut id = 0;
            for &g in fill {
                while let Some(x) = pair.next_if(|&x| x <= g) {
                    id = id * k + x as u64;
                }
                id = id * k + g as u64;
            }
            emit(pair.fold(id, |id, x| id * k + x as u64));
        }
    }

    /// [`edge_reducers`](Self::edge_reducers) collected into an exactly
    /// sized `Vec`: one allocation.
    fn edge_reducer_ids(&self, u: u32, v: u32) -> Vec<ReducerId> {
        let mut ids = Vec::with_capacity(self.num_fills);
        self.edge_reducers(u, v, &mut |id| ids.push(id));
        ids
    }

    /// The exact largest reducer load on the complete instance. A reducer
    /// (a multiset of `s` groups) holds `C(|g|, 2)` edges within each group
    /// of multiplicity ≥ 2 and `|g|·|h|` between each pair of distinct
    /// groups. Every term grows with group size, so among multisets of `t`
    /// distinct groups the largest takes the `t` largest groups (the
    /// first, under `u % k`) and doubles the largest `min(t, s − t)`.
    fn exact_max_load(&self) -> u64 {
        let size = |g: usize| ((self.n as usize - g - 1) / self.k as usize + 1) as u64;
        (1..=self.s.min(self.k as usize))
            .map(|t| {
                let within = (0..t.min(self.s - t)).map(|g| size(g) * (size(g) - 1) / 2);
                let cross = (0..t).flat_map(|g| (0..g).map(move |h| size(g) * size(h)));
                within.sum::<u64>() + cross.sum::<u64>()
            })
            .max()
            .unwrap_or(0)
    }

    /// The idealised replication rate: an edge with distinct endpoint
    /// groups joins `C(k+s-3, s-2)` multisets — `Θ(k^{s−2}/(s−2)!)`.
    pub fn approx_replication(&self) -> f64 {
        // Multisets of size s-2 over k symbols.
        let (k, s) = (self.k as u64, self.s as u64);
        crate::recipe::binomial(k + s - 3, s - 2) as f64
    }
}

impl MappingSchema<SampleGraphProblem> for MultisetPartitionSchema {
    fn assign(&self, input: &(u32, u32)) -> Vec<ReducerId> {
        self.edge_reducer_ids(input.0, input.1)
    }

    fn max_inputs_per_reducer(&self) -> u64 {
        // A reducer holds all edges whose endpoint groups fall inside its
        // multiset: at most C(s·⌈n/k⌉, 2).
        let span = self.s as u64 * self.n.div_ceil(self.k) as u64;
        span * (span - 1) / 2
    }

    fn name(&self) -> String {
        format!(
            "multiset-partition(n={}, k={}, s={})",
            self.n, self.k, self.s
        )
    }
}

/// §4's triangle schema is this schema over `patterns::triangle()`: it
/// declares the exact load and keeps §4's name.
impl MappingSchema<TriangleProblem> for MultisetPartitionSchema {
    fn assign(&self, input: &(u32, u32)) -> Vec<ReducerId> {
        self.edge_reducer_ids(input.0, input.1)
    }

    fn max_inputs_per_reducer(&self) -> u64 {
        self.exact_max_load()
    }

    fn name(&self) -> String {
        format!("node-partition(n={}, k={})", self.n, self.k)
    }
}

/// Running the schema on a real data graph: each reducer joins the
/// pattern over sorted adjacency of its own edges, and emits, sorted, the
/// instances it owns (those whose sorted node groups are its multiset).
impl SchemaJob<Edge, Vec<(u32, u32)>> for MultisetPartitionSchema {
    fn assign_into(&self, input: &Edge, emit: &mut dyn FnMut(ReducerId)) {
        self.edge_reducers(input.u, input.v, emit)
    }

    fn assign(&self, input: &Edge) -> Vec<ReducerId> {
        self.edge_reducer_ids(input.u, input.v)
    }

    fn reduce(&self, reducer: ReducerId, inputs: &[Edge], emit: &mut dyn FnMut(Vec<(u32, u32)>)) {
        // The reducer's nodes, renumbered 0.. in ascending order.
        let mut nodes: Vec<u32> = inputs.iter().flat_map(|e| [e.u, e.v]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let local = |u: u32| nodes.binary_search(&u).expect("an endpoint") as u32;
        let graph = Graph::from_edges(nodes.len(), inputs.iter().map(|e| (local(e.u), local(e.v))));
        let (mut groups, mut owned) = (Vec::with_capacity(self.s), Vec::new());
        self.join.run(&graph, |img| {
            groups.clear();
            groups.extend(img.iter().map(|&x| self.group(nodes[x as usize])));
            groups.sort_unstable();
            let owner = groups
                .iter()
                .fold(0, |id, &g| id * self.k as u64 + g as u64);
            if owner == reducer {
                let node = |j: usize| nodes[img[j] as usize];
                let mut edges: Vec<(u32, u32)> = self
                    .join
                    .edges
                    .iter()
                    .map(|&(a, b)| (node(a).min(node(b)), node(a).max(node(b))))
                    .collect();
                edges.sort_unstable();
                owned.push(edges);
            }
        });
        owned.sort_unstable();
        for instance in owned {
            emit(instance);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::validate_schema;
    use mr_graph::{gen, patterns};
    use mr_sim::{run_schema, EngineConfig};
    use std::collections::BTreeMap;

    /// The reference enumerator: backtracking over every node of `g` at
    /// every pattern position, then sorting away the automorphic copies.
    fn reference_instances(pattern: &Graph, g: &Graph) -> Vec<Vec<(u32, u32)>> {
        fn recurse(
            pattern: &Graph,
            g: &Graph,
            assignment: &mut Vec<u32>,
            out: &mut Vec<Vec<(u32, u32)>>,
        ) {
            let pos = assignment.len();
            if pos == pattern.num_nodes() {
                let mut edges: Vec<(u32, u32)> = pattern
                    .edges()
                    .iter()
                    .map(|e| {
                        let (a, b) = (assignment[e.u as usize], assignment[e.v as usize]);
                        (a.min(b), a.max(b))
                    })
                    .collect();
                edges.sort_unstable();
                out.push(edges);
                return;
            }
            for c in 0..g.num_nodes() as u32 {
                let fits = !assignment.contains(&c)
                    && pattern
                        .neighbors(pos as u32)
                        .iter()
                        .all(|&p| (p as usize) >= pos || g.has_edge(assignment[p as usize], c));
                if fits {
                    assignment.push(c);
                    recurse(pattern, g, assignment, out);
                    assignment.pop();
                }
            }
        }
        let mut out = Vec::new();
        recurse(pattern, g, &mut Vec::new(), &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The reference reducer: the reference enumerator over an `n`-node
    /// graph of the reducer's edges, keeping the instances whose sorted
    /// node groups encode to the reducer.
    struct Reference<'a>(&'a MultisetPartitionSchema, &'a Graph);

    impl SchemaJob<Edge, Vec<(u32, u32)>> for Reference<'_> {
        fn assign_into(&self, input: &Edge, emit: &mut dyn FnMut(ReducerId)) {
            self.0.assign_into(input, emit)
        }

        fn reduce(
            &self,
            reducer: ReducerId,
            inputs: &[Edge],
            emit: &mut dyn FnMut(Vec<(u32, u32)>),
        ) {
            let schema = self.0;
            let mut local = Graph::new(schema.n as usize);
            for e in inputs {
                local.add_edge(e.u, e.v);
            }
            local.finish();
            for instance in reference_instances(self.1, &local) {
                let mut nodes: Vec<u32> = instance.iter().flat_map(|&(a, b)| [a, b]).collect();
                nodes.sort_unstable();
                nodes.dedup();
                let mut groups: Vec<u32> = nodes.iter().map(|&u| schema.group(u)).collect();
                groups.sort_unstable();
                let id = groups
                    .iter()
                    .fold(0u64, |id, &g| id * schema.k as u64 + g as u64);
                if id == reducer {
                    emit(instance);
                }
            }
        }
    }

    /// Asserts that every reducer of `schema` on `g` emits exactly the
    /// reference's sequence, and so does the whole engine round.
    fn assert_matches_reference(pattern: &Graph, g: &Graph, k: u32, label: &str) {
        let schema = MultisetPartitionSchema::new(pattern.clone(), g.num_nodes() as u32, k);
        let reference = Reference(&schema, pattern);
        let mut reducers: BTreeMap<ReducerId, Vec<Edge>> = BTreeMap::new();
        for e in g.edges() {
            for r in SchemaJob::assign(&schema, e) {
                reducers.entry(r).or_default().push(*e);
            }
        }
        for (&r, inputs) in &reducers {
            let (mut ours, mut theirs) = (Vec::new(), Vec::new());
            schema.reduce(r, inputs, &mut |o| ours.push(o));
            reference.reduce(r, inputs, &mut |o| theirs.push(o));
            assert_eq!(ours, theirs, "{label} k={k}: reducer {r}");
        }
        let cfg = EngineConfig::sequential();
        let (ours, m1) = run_schema(g.edges(), &schema, &cfg).unwrap();
        let (theirs, m2) = run_schema(g.edges(), &reference, &cfg).unwrap();
        assert_eq!(ours, theirs, "{label} k={k}: round outputs");
        assert_eq!(m1, m2, "{label} k={k}: round metrics");
    }

    /// The seven sample graphs `e52` lists.
    fn e52_patterns() -> Vec<(&'static str, Graph)> {
        vec![
            ("triangle", patterns::triangle()),
            ("C4", patterns::cycle(4)),
            ("K4", patterns::clique(4)),
            ("path-2", patterns::path(2)),
            ("path-3", patterns::path(3)),
            ("star K1,3", patterns::star(3)),
            ("matching x2", patterns::matching(2)),
        ]
    }

    #[test]
    fn join_matches_the_reference_on_every_e52_pattern() {
        for (n, m, seed) in [(12, 30, 1), (14, 40, 2), (9, 36, 3)] {
            let g = gen::gnm(n, m, seed);
            for (name, pattern) in e52_patterns() {
                let label = format!("{name} on G({n}, {m}) seed {seed}");
                let ours = enumerate_instances(&pattern, &g);
                assert_eq!(ours, reference_instances(&pattern, &g), "{label}");
                assert_eq!(
                    ours.len() as u64,
                    subgraph::instances(&pattern, &g),
                    "{label}"
                );
                for k in 1..=4 {
                    assert_matches_reference(&pattern, &g, k, &label);
                }
            }
        }
    }

    #[test]
    fn c4_families_emit_the_reference_sequence_at_every_scale() {
        // The registry's sample-c4 (K_n) and sample-c4-gnm (seed 42) grids
        // at Small, Default and Full scale.
        for n in [6u32, 8, 10] {
            let g = Graph::complete(n as usize);
            for k in [1, 2, 3, 4, n] {
                assert_matches_reference(&patterns::cycle(4), &g, k, &format!("K_{n}"));
            }
        }
        for (n, m) in [(10, 22), (16, 44), (24, 90)] {
            let g = gen::gnm(n, m, 42);
            for k in 1..=4 {
                let label = format!("G({n}, {m})");
                assert_matches_reference(&patterns::cycle(4), &g, k, &label);
            }
        }
    }

    #[test]
    fn repeated_edges_count_once() {
        // A retained job may hold one edge twice; the reducer sees a
        // simple graph, as the reference's `Graph` does.
        let g = gen::gnm(10, 25, 4);
        let pattern = patterns::cycle(4);
        let schema = MultisetPartitionSchema::new(pattern.clone(), 10, 2);
        let reference = Reference(&schema, &pattern);
        let twice: Vec<Edge> = g.edges().iter().chain(g.edges()).copied().collect();
        let cfg = EngineConfig::sequential();
        let (ours, _) = run_schema(&twice, &schema, &cfg).unwrap();
        let (theirs, _) = run_schema(&twice, &reference, &cfg).unwrap();
        assert_eq!(ours, theirs);
    }

    #[test]
    #[should_panic(expected = "k=0 must be in 1..=10")]
    fn rejects_zero_groups() {
        MultisetPartitionSchema::new(patterns::triangle(), 10, 0);
    }

    #[test]
    #[should_panic(expected = "k=11 must be in 1..=10")]
    fn rejects_more_groups_than_nodes() {
        MultisetPartitionSchema::new(patterns::triangle(), 10, 11);
    }

    #[test]
    #[should_panic(expected = "k=10000 groups of an s=5 node pattern need k^s reducer ids")]
    fn rejects_reducer_ids_that_overflow_a_u64() {
        // 10,000⁵ = 10²⁰ > 2⁶⁴: unchecked, encode wraps and distinct
        // multisets share an id in release builds.
        MultisetPartitionSchema::new(patterns::path(4), 10_000, 10_000);
    }

    #[test]
    #[should_panic(expected = "every pattern node needs an edge")]
    fn rejects_a_pattern_node_without_an_edge() {
        MultisetPartitionSchema::new(Graph::from_edges(3, [(0, 1)]), 10, 2);
    }

    #[test]
    fn exact_load_matches_validation_beyond_triangles() {
        for pattern in [
            patterns::two_path(),
            patterns::cycle(4),
            patterns::matching(2),
        ] {
            for n in 4..=9 {
                let problem = SampleGraphProblem::new(pattern.clone(), n);
                for k in 1..=n {
                    let s = MultisetPartitionSchema::new(pattern.clone(), n, k);
                    let report = validate_schema(&problem, &s);
                    assert_eq!(report.max_load, s.exact_max_load(), "s={} n={n} k={k}", s.s);
                }
            }
        }
    }

    #[test]
    fn problem_counts_for_triangle_pattern() {
        let p = SampleGraphProblem::new(patterns::triangle(), 6);
        assert_eq!(p.num_inputs(), 15);
        assert_eq!(p.num_outputs(), 20); // C(6,3)
        assert!(p.pattern_is_alon());
    }

    #[test]
    fn instances_have_correct_edge_counts() {
        let p = SampleGraphProblem::new(patterns::cycle(4), 6);
        for inst in p.outputs() {
            assert_eq!(inst.len(), 4, "C4 instance must have 4 edges");
        }
        // 3·C(6,4) distinct 4-cycles.
        assert_eq!(p.num_outputs(), 45);
    }

    #[test]
    fn two_path_pattern_is_not_alon() {
        let p = SampleGraphProblem::new(patterns::two_path(), 5);
        assert!(!p.pattern_is_alon());
    }

    #[test]
    fn schema_valid_for_c4_and_k4() {
        for pattern in [patterns::cycle(4), patterns::clique(4)] {
            let n = 8;
            let problem = SampleGraphProblem::new(pattern.clone(), n);
            for k in [1u32, 2, 3] {
                let s = MultisetPartitionSchema::new(pattern.clone(), n, k);
                let report = validate_schema(&problem, &s);
                assert!(report.is_valid(), "k={k}: {report:?}");
            }
        }
    }

    #[test]
    fn schema_reduces_to_triangle_schema_for_k3_pattern() {
        let n = 10;
        let problem = SampleGraphProblem::new(patterns::triangle(), n);
        let s = MultisetPartitionSchema::new(patterns::triangle(), n, 3);
        let report = validate_schema(&problem, &s);
        assert!(report.is_valid());
        // Triangle: s=2+1, fill multisets of size 1 → ≤ k reducers/edge.
        assert!(report.replication_rate <= 3.0 + 1e-9);
    }

    #[test]
    fn replication_grows_like_k_to_s_minus_2() {
        let n = 24;
        let pattern = patterns::cycle(4); // s = 4
        let problem = SampleGraphProblem::new(pattern.clone(), n);
        let mut prev = 0.0;
        for k in [2u32, 3, 4] {
            let s = MultisetPartitionSchema::new(pattern.clone(), n, k);
            let report = validate_schema(&problem, &s);
            assert!(report.is_valid(), "k={k}");
            assert!(report.replication_rate > prev, "k={k} should increase r");
            prev = report.replication_rate;
            // Within a constant of C(k+1, 2) (multisets of size 2 over k).
            let ideal = s.approx_replication();
            assert!(
                report.replication_rate <= ideal + 1e-9,
                "k={k}: r={} ideal={ideal}",
                report.replication_rate
            );
        }
    }

    #[test]
    fn simulator_finds_all_c4_instances() {
        let g = gen::gnm(20, 60, 5);
        let pattern = patterns::cycle(4);
        let schema = MultisetPartitionSchema::new(pattern.clone(), 20, 3);
        let (mut found, _) = run_schema(g.edges(), &schema, &EngineConfig::sequential()).unwrap();
        found.sort_unstable();
        found.dedup();
        let expected = enumerate_instances(&pattern, &g);
        assert_eq!(found, expected);
    }

    #[test]
    fn no_duplicate_emissions() {
        let g = gen::gnm(16, 50, 9);
        let pattern = patterns::triangle();
        let schema = MultisetPartitionSchema::new(pattern.clone(), 16, 4);
        let (found, _) = run_schema(g.edges(), &schema, &EngineConfig::sequential()).unwrap();
        let mut sorted = found.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(found.len(), sorted.len(), "duplicate instances emitted");
    }

    #[test]
    fn edge_reducers_ascend_without_repeats() {
        // The order and distinctness `edge_reducers` claims, so the
        // assignment needs no sort and no dedup: every edge of the
        // complete graph, two-node to five-node patterns, one to six
        // groups.
        let shapes = [
            (patterns::path(1), 6),
            (patterns::triangle(), 12),
            (patterns::cycle(4), 10),
            (patterns::matching(2), 9),
            (patterns::clique(5), 7),
        ];
        for (pattern, n) in shapes {
            for k in 1..=6 {
                let schema = MultisetPartitionSchema::new(pattern.clone(), n, k);
                for e in Graph::complete(n as usize).edges() {
                    let ids = SchemaJob::assign(&schema, e);
                    assert!(
                        ids.windows(2).all(|w| w[0] < w[1]),
                        "s={} k={k} edge {e}: {ids:?}",
                        schema.s
                    );
                }
            }
        }
    }

    #[test]
    fn lower_bound_formulas() {
        // s = 3 reduces to the triangle bound shape n/√q.
        assert!((lower_bound_nodes(100, 3, 25.0) - 20.0).abs() < 1e-9);
        // s = 4, edges form: (√(m/q))².
        assert!((lower_bound_edges(1000, 4, 10.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn recipe_bound_matches_formula_shape() {
        let n = 12;
        let p = SampleGraphProblem::new(patterns::triangle(), n);
        let recipe = p.recipe();
        // For triangles the generic q^{s/2} recipe must be within a
        // constant of the §4.1 bound n/√(2q).
        for q in [6.0, 15.0, 30.0] {
            let generic = recipe.replication_lower_bound(q);
            let specific = crate::problems::triangle::lower_bound_r(n, q);
            let ratio = generic / specific;
            assert!(
                (0.1..=2.0).contains(&ratio),
                "q={q}: generic {generic} vs specific {specific}"
            );
        }
    }
}
