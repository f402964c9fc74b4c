//! Multiway joins (§5.5).
//!
//! A multiway join of binary (or higher-arity) relations is viewed as
//! finding labeled sample graphs in a labeled data graph. §5.5.1 derives
//! the lower bound `r ≥ n^{m−2}/q^{ρ−1}` from the AGM bound
//! `g(q) = q^ρ`, where `ρ` is the optimal fractional edge cover of the
//! query hypergraph (computed here with `mr-lp`). §5.5.2 shows the Shares
//! algorithm of Afrati–Ullman \[1\] matches the bound for chain joins and
//! analyses star joins.
//!
//! * [`query`] — conjunctive queries, databases, and the serial join
//!   baseline;
//! * [`shares`] — the Shares mapping schema, share optimisation, and
//!   predicted communication;
//! * [`problem`] — the complete-instance join as a §2 [`Problem`](crate::model::Problem),
//!   so Shares grids validate exhaustively like every other family;
//! * [`bounds`] — the §5.5.1/§5.5.2 closed forms for chains and stars;
//! * [`pipeline`] — join-then-aggregate pipelines (§7.1's open direction)
//!   as [`DagJob`]s over a uniform token: with and without
//!   partial-aggregation push-down, and a three-round partial-merge tree
//!   for the planner's round-structure search.
//!
//! [`DagJob`]: mr_sim::DagJob

pub mod bounds;
pub mod pipeline;
pub mod problem;
pub mod query;
pub mod shares;

pub use bounds::{
    chain_lower_bound, chain_upper_bound, multiway_lower_bound, star_lower_bound, star_replication,
};
pub use pipeline::{naive_count_dag, pushed_count_dag, tagged_inputs, JoinToken};
pub use problem::{MultiwayJoinProblem, SharesOverDomain};
pub use query::{Database, Query};
pub use shares::{optimize_shares, predicted_communication, SharesSchema};
