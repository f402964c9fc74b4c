//! The Hamming-distance problem (§3).
//!
//! Inputs are the `2^b` bit strings of length `b`; outputs are the pairs of
//! strings at Hamming distance exactly `d` (the paper's headline results
//! are for `d = 1`). Submodules provide the constructive algorithms:
//!
//! * [`problem`] — the [`Problem`](crate::model::Problem) instance and the
//!   closed-form bounds (`|O| = (b/2)·2^b` for `d=1`, Lemma 3.1's
//!   `g(q) = (q/2)·log₂q`, Theorem 3.2's `r ≥ b/log₂q`);
//! * [`splitting`] — the q=2 pairs schema and the distance-`d` Splitting
//!   schema (§3.6), whose `d = 1` case is the Splitting algorithm family
//!   (§3.3);
//! * [`weight`] — the `d`-dimensional weight-partition algorithm for
//!   large `q` (§3.5), whose `d = 2` case is §3.4's;
//! * [`ball`] — the Ball-2 schema for distance 2 (§3.6);
//! * [`multi_round`] — splitting re-expressed as DAGs of rounds (parallel
//!   per-segment nodes, depth-2 consolidation) for the planner's
//!   round-structure search.

pub mod ball;
pub mod multi_round;
pub mod problem;
pub mod splitting;
pub mod weight;

pub use ball::Ball2Schema;
pub use multi_round::{
    all_strings, parallel_split_dag, split_consolidate_dag, split_dag, HamToken,
};
pub use problem::{
    hamming_distance, lemma31_g, theorem32_lower_bound, weight_2d_approx_q, HammingProblem,
};
pub use splitting::{DistanceDSplittingSchema, PairsSchema};
pub use weight::WeightSchemaD;
