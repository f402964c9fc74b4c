#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Linear-programming substrate for the map-reduce bounds reproduction.
//!
//! §5.5.1 of the paper derives lower bounds for multiway joins from the
//! parameter `ρ`, the value of the **optimal fractional edge cover** of the
//! query hypergraph (Atserias–Grohe–Marx \[6\], Grohe–Marx \[10\]). Computing
//! `ρ` in general requires solving a small linear program, so this crate
//! provides:
//!
//! * [`simplex`] — a dense two-phase primal simplex solver with Bland's
//!   anti-cycling rule (`min cᵀx` subject to mixed `≤ / ≥ / =` constraints
//!   and `x ≥ 0`),
//! * [`cover`] — hypergraphs, the fractional edge cover LP, `ρ`, the
//!   AGM output-size bound `|O| ≤ Π_e |R_e|^{x_e}`, and the
//!   [`share_exponents`] LP the `mr-plan` layer
//!   uses to derive Shares grids (`s_v = p^{x_v}`).

pub mod cover;
pub mod simplex;

pub use cover::{agm_bound, fractional_edge_cover, share_exponents, Hypergraph};
pub use simplex::{Constraint, ConstraintOp, LinearProgram, LpError, LpSolution};
