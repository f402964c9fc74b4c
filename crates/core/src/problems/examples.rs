//! The illustrative problems of §2.1: natural join (Example 2.1),
//! grouping/aggregation (Example 2.4), and word count (Example 2.5).
//!
//! These calibrate the model: all three admit replication rate 1 for a
//! suitable reducer size — they are "embarrassingly parallel" in the
//! paper's sense, with no `q`-vs-`r` tradeoff. They also demonstrate the
//! modelling subtleties the paper calls out: the word-count inputs are
//! *occurrences*, not documents, and a grouping output exists as soon as
//! *any* of its inputs is present.

use crate::model::{MappingSchema, Problem, ReducerId};
use mr_sim::schema::SchemaJob;

// ---------------------------------------------------------------------
// Example 2.1: natural join R(A,B) ⋈ S(B,C)
// ---------------------------------------------------------------------

/// One tuple of the join input: either `R(a, b)` or `S(b, c)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JoinTuple {
    /// A tuple of `R(A, B)`.
    R(u32, u32),
    /// A tuple of `S(B, C)`.
    S(u32, u32),
}

/// Example 2.1: the natural join `R(A,B) ⋈ S(B,C)` with finite domains of
/// sizes `na`, `nb`, `nc`.
#[derive(Debug, Clone, Copy)]
pub struct NaturalJoinProblem {
    /// `|A|` domain size.
    pub na: u32,
    /// `|B|` domain size.
    pub nb: u32,
    /// `|C|` domain size.
    pub nc: u32,
}

impl NaturalJoinProblem {
    /// `|I| = na·nb + nb·nc` (Example 2.1).
    pub fn closed_form_inputs(&self) -> u64 {
        (self.na as u64 * self.nb as u64) + (self.nb as u64 * self.nc as u64)
    }

    /// `|O| = na·nb·nc`.
    pub fn closed_form_outputs(&self) -> u64 {
        self.na as u64 * self.nb as u64 * self.nc as u64
    }
}

impl Problem for NaturalJoinProblem {
    type Input = JoinTuple;
    type Output = (u32, u32, u32);

    fn inputs(&self) -> Vec<JoinTuple> {
        let mut v = Vec::new();
        for a in 0..self.na {
            for b in 0..self.nb {
                v.push(JoinTuple::R(a, b));
            }
        }
        for b in 0..self.nb {
            for c in 0..self.nc {
                v.push(JoinTuple::S(b, c));
            }
        }
        v
    }

    fn outputs(&self) -> Vec<(u32, u32, u32)> {
        let mut v = Vec::new();
        for a in 0..self.na {
            for b in 0..self.nb {
                for c in 0..self.nc {
                    v.push((a, b, c));
                }
            }
        }
        v
    }

    fn inputs_of(&self, o: &(u32, u32, u32)) -> Vec<JoinTuple> {
        vec![JoinTuple::R(o.0, o.1), JoinTuple::S(o.1, o.2)]
    }

    fn num_inputs(&self) -> u64 {
        self.closed_form_inputs()
    }

    fn num_outputs(&self) -> u64 {
        self.closed_form_outputs()
    }
}

/// The classic hash-join schema: one reducer per `B`-value; `r = 1`.
#[derive(Debug, Clone, Copy)]
pub struct HashOnB {
    /// `|A|` domain size (for the `q` accounting).
    pub na: u32,
    /// `|C|` domain size.
    pub nc: u32,
}

impl MappingSchema<NaturalJoinProblem> for HashOnB {
    fn assign(&self, input: &JoinTuple) -> Vec<ReducerId> {
        match input {
            JoinTuple::R(_, b) | JoinTuple::S(b, _) => vec![*b as u64],
        }
    }

    fn max_inputs_per_reducer(&self) -> u64 {
        // Reducer b receives all R(·, b) and S(b, ·).
        self.na as u64 + self.nc as u64
    }

    fn name(&self) -> String {
        "hash-join-on-B".into()
    }
}

impl SchemaJob<JoinTuple, (u32, u32, u32)> for HashOnB {
    fn assign_into(&self, input: &JoinTuple, emit: &mut dyn FnMut(ReducerId)) {
        match input {
            JoinTuple::R(_, b) | JoinTuple::S(b, _) => emit(*b as u64),
        }
    }

    fn reduce(&self, _r: ReducerId, inputs: &[JoinTuple], emit: &mut dyn FnMut((u32, u32, u32))) {
        let mut rs = Vec::new();
        let mut ss = Vec::new();
        for t in inputs {
            match t {
                JoinTuple::R(a, b) => rs.push((*a, *b)),
                JoinTuple::S(b, c) => ss.push((*b, *c)),
            }
        }
        for &(a, b) in &rs {
            for &(b2, c) in &ss {
                debug_assert_eq!(b, b2, "hash partition groups by B");
                emit((a, b, c));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Example 2.4: grouping and aggregation
// ---------------------------------------------------------------------

/// Example 2.4: `SELECT A, SUM(B) FROM R GROUP BY A` over finite domains
/// of sizes `na` and `nb`. An output (one per `A`-value) depends on *all*
/// `nb` tuples with that `A`-value.
#[derive(Debug, Clone, Copy)]
pub struct GroupingProblem {
    /// `|A|` domain size.
    pub na: u32,
    /// `|B|` domain size.
    pub nb: u32,
}

impl Problem for GroupingProblem {
    type Input = (u32, u32);
    type Output = u32;

    fn inputs(&self) -> Vec<(u32, u32)> {
        let mut v = Vec::new();
        for a in 0..self.na {
            for b in 0..self.nb {
                v.push((a, b));
            }
        }
        v
    }

    fn outputs(&self) -> Vec<u32> {
        (0..self.na).collect()
    }

    fn inputs_of(&self, a: &u32) -> Vec<(u32, u32)> {
        (0..self.nb).map(|b| (*a, b)).collect()
    }
}

/// Hash-by-group schema for grouping: `r = 1`, `q = nb`.
#[derive(Debug, Clone, Copy)]
pub struct HashByGroup {
    /// `|B|` domain size (the per-group reducer load).
    pub nb: u32,
}

impl MappingSchema<GroupingProblem> for HashByGroup {
    fn assign(&self, input: &(u32, u32)) -> Vec<ReducerId> {
        vec![input.0 as u64]
    }

    fn max_inputs_per_reducer(&self) -> u64 {
        self.nb as u64
    }

    fn name(&self) -> String {
        "hash-by-group".into()
    }
}

// ---------------------------------------------------------------------
// Example 2.5: word count
// ---------------------------------------------------------------------

/// Example 2.5: word count with inputs modelled as *word occurrences*
/// `(word, position)` — the view under which replication rate is
/// identically 1 and the problem is embarrassingly parallel.
#[derive(Debug, Clone, Copy)]
pub struct WordCountProblem {
    /// Vocabulary size.
    pub words: u32,
    /// Occurrence slots per word.
    pub occurrences: u32,
}

impl Problem for WordCountProblem {
    type Input = (u32, u32);
    type Output = u32;

    fn inputs(&self) -> Vec<(u32, u32)> {
        let mut v = Vec::new();
        for w in 0..self.words {
            for o in 0..self.occurrences {
                v.push((w, o));
            }
        }
        v
    }

    fn outputs(&self) -> Vec<u32> {
        (0..self.words).collect()
    }

    fn inputs_of(&self, w: &u32) -> Vec<(u32, u32)> {
        (0..self.occurrences).map(|o| (*w, o)).collect()
    }
}

/// The standard word-count schema: occurrence → its word's reducer.
#[derive(Debug, Clone, Copy)]
pub struct WordCountSchema {
    /// Occurrence slots per word (the reducer load bound).
    pub occurrences: u32,
}

impl MappingSchema<WordCountProblem> for WordCountSchema {
    fn assign(&self, input: &(u32, u32)) -> Vec<ReducerId> {
        vec![input.0 as u64]
    }

    fn max_inputs_per_reducer(&self) -> u64 {
        self.occurrences as u64
    }

    fn name(&self) -> String {
        "word-count".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::validate_schema;
    use mr_sim::{run_schema, EngineConfig};

    #[test]
    fn natural_join_counts() {
        let p = NaturalJoinProblem {
            na: 3,
            nb: 4,
            nc: 5,
        };
        assert_eq!(p.num_inputs(), 12 + 20);
        assert_eq!(p.num_outputs(), 60);
        assert_eq!(p.inputs().len() as u64, p.num_inputs());
        assert_eq!(p.outputs().len() as u64, p.num_outputs());
    }

    #[test]
    fn hash_join_has_replication_one() {
        let p = NaturalJoinProblem {
            na: 3,
            nb: 4,
            nc: 5,
        };
        let s = HashOnB { na: 3, nc: 5 };
        let report = validate_schema(&p, &s);
        assert!(report.is_valid(), "{report:?}");
        assert!((report.replication_rate - 1.0).abs() < 1e-12);
        assert_eq!(report.num_reducers, 4);
        assert_eq!(report.max_load, 8); // na + nc
    }

    #[test]
    fn hash_join_computes_the_join() {
        // Instance: a sparse subset of tuples.
        let instance = vec![
            JoinTuple::R(0, 1),
            JoinTuple::R(2, 1),
            JoinTuple::R(1, 3),
            JoinTuple::S(1, 0),
            JoinTuple::S(1, 2),
            JoinTuple::S(2, 2),
        ];
        let s = HashOnB { na: 3, nc: 3 };
        let (mut out, m) = run_schema(&instance, &s, &EngineConfig::sequential()).unwrap();
        out.sort_unstable();
        assert_eq!(out, vec![(0, 1, 0), (0, 1, 2), (2, 1, 0), (2, 1, 2)]);
        assert!((m.replication_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn grouping_is_embarrassingly_parallel() {
        let p = GroupingProblem { na: 6, nb: 9 };
        let s = HashByGroup { nb: 9 };
        let report = validate_schema(&p, &s);
        assert!(report.is_valid(), "{report:?}");
        assert!((report.replication_rate - 1.0).abs() < 1e-12);
        assert_eq!(report.num_reducers, 6);
    }

    #[test]
    fn word_count_replication_is_one_for_any_q() {
        // Example 2.5's moral: viewed as occurrences, r ≡ 1 independent of
        // the reducer-size limit.
        for occ in [2u32, 8, 32] {
            let p = WordCountProblem {
                words: 5,
                occurrences: occ,
            };
            let s = WordCountSchema { occurrences: occ };
            let report = validate_schema(&p, &s);
            assert!(report.is_valid());
            assert!((report.replication_rate - 1.0).abs() < 1e-12);
            assert_eq!(report.max_load, occ as u64);
        }
    }
}
