//! Matrix multiplication (§6).
//!
//! Multiplying `n×n` matrices `R` and `S` has `|I| = 2n²` inputs and
//! `|O| = n²` outputs, each output depending on `2n` inputs (a row of `R`
//! and a column of `S`). §6.1 shows a reducer's covered outputs form a
//! *rectangle* maximised by a square, giving `g(q) = q²/(4n²)` and the
//! lower bound `r ≥ 2n²/q`; §6.2 matches it by square tiling; §6.3 shows
//! a **two-phase** method with total communication `4n³/√q` (optimal
//! first-phase blocks have aspect ratio 2:1 — `s = √q`, `t = √q/2`),
//! beating the one-phase `4n⁴/q` whenever `q < n²`.
//!
//! * [`matrix`] — dense matrices and the serial product baseline;
//! * [`problem`] — the model instance and its bounds for `m×n · n×p`
//!   (the square case is `m = n = p`), the one-phase schema, and the cube
//!   tiling every entry-reading round shares;
//! * [`two_phase`] — the two-round job and its communication accounting;
//! * [`recursive`] — the multi-round aggregation-tree generalisation the
//!   planner's round-structure search enumerates (flat case ≡ two-phase,
//!   proven byte-for-byte).

pub mod matrix;
pub mod problem;
pub mod recursive;
pub mod two_phase;

pub use matrix::Matrix;
pub use problem::{
    lower_bound_r, one_phase_communication, rect_lower_bound, MatEntry, MatMulProblem,
    OnePhaseSchema,
};
pub use recursive::{MatToken, RecursiveMatMul};
pub use two_phase::{two_phase_communication, TwoPhaseMatMul};
