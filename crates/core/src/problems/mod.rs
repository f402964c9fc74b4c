//! One module per problem family analysed in the paper.
//!
//! | Module | Paper section | Problem |
//! |---|---|---|
//! | [`hamming`] | §3 | bit strings at Hamming distance `d` |
//! | [`triangle`] | §4 | triangles in a data graph |
//! | [`sample_graph`] | §5.1–5.3 | Alon-class sample graphs |
//! | [`two_path`] | §5.4 | paths of length two (non-Alon) |
//! | [`join`] | §5.5 | multiway joins (chains, stars, Shares) |
//! | [`matmul`] | §6 | one- and two-phase matrix multiplication |
//! | [`examples`] | §2.1 | model warm-ups: natural join, word count, grouping |

pub mod examples;
pub mod hamming;
pub mod join;
pub mod matmul;
pub mod sample_graph;
pub mod triangle;
pub mod two_path;
