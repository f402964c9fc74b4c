#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! The paper's contribution: a model of single-round map-reduce problems,
//! the generic lower-bound recipe, and matching constructive algorithms.
//!
//! *Upper and Lower Bounds on the Cost of a Map-Reduce Computation*
//! (Afrati, Das Sarma, Salihoglu, Ullman; VLDB 2013) models a problem as a
//! finite set of potential **inputs**, a finite set of potential
//! **outputs**, and a mapping from each output to the set of inputs it
//! depends on (§2). A **mapping schema** assigns inputs to reducers so that
//! no reducer exceeds `q` inputs and every output is *covered* by some
//! reducer holding all of its inputs (§2.2). The figure of merit is the
//! **replication rate** `r = Σᵢ qᵢ / |I|`.
//!
//! Crate layout:
//!
//! * [`model`] — the `Problem` and
//!   `MappingSchema` traits, exhaustive schema
//!   validation, and exact replication-rate accounting;
//! * [`recipe`] — the four-step lower-bound recipe of §2.4 plus an
//!   empirical `g(q)` prober used to validate each problem's claimed bound
//!   on small instances;
//! * [`frontier`] — measured `(q, r)` tradeoff curves, ready for the §1.2
//!   cost minimisation of `mr-plan`'s `ClusterSpec`;
//! * [`family`] — the type-erased problem-family registry: every family
//!   behind one `DynFamily` interface (grids, scale presets, sparse
//!   scenarios), so executors iterate families without naming their
//!   input/output types;
//! * [`problems`] — one module per problem family analysed in the paper:
//!   Hamming distance (§3), triangles (§4), general sample graphs (§5.1–5.3),
//!   2-paths (§5.4), multiway joins (§5.5), matrix multiplication (§6), and
//!   the illustrative model examples of §2.1.

pub mod family;
pub mod frontier;
pub mod model;
pub mod problems;
pub mod recipe;

pub use family::{registry, DynFamily, FamilyPoint, GridPoint, Scale};
pub use model::{validate_schema, MappingSchema, Problem, SchemaReport};
pub use recipe::LowerBoundRecipe;
