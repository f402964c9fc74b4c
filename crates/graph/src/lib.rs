#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Graph substrate for the map-reduce bounds reproduction.
//!
//! The paper (Afrati et al., *Upper and Lower Bounds on the Cost of a
//! Map-Reduce Computation*, VLDB 2013) analyses several graph problems:
//! triangle finding (§4), general sample graphs in the Alon class (§5.1–5.3),
//! and 2-paths (§5.4). This crate supplies everything those analyses need
//! as a substrate:
//!
//! * [`Graph`] — an undirected simple graph with O(1) amortised edge tests,
//! * [`gen`] — seeded random generators (Erdős–Rényi `G(n,m)` / `G(n,p)`,
//!   complete graphs, bipartite graphs, and a Chung–Lu power-law generator
//!   used for the skew experiments),
//! * [`subgraph`] — **serial baselines**: exact triangle / 2-path /
//!   general-pattern enumeration used to validate the distributed
//!   algorithms' outputs,
//! * [`alon`] — a decision procedure for membership in the *Alon class*
//!   of sample graphs (§5.1), together with Hamiltonian-cycle machinery,
//! * [`patterns`] — constructors for the small sample graphs the paper
//!   mentions (cycles, cliques, paths, stars, matchings).

pub mod alon;
pub mod gen;
pub mod graph;
pub mod labeled;
pub mod patterns;
pub mod subgraph;

pub use graph::Graph;
pub use labeled::LabeledGraph;
