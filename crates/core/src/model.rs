//! The input/output model and mapping schemas (§2).
//!
//! A [`Problem`] is a finite family of potential inputs and outputs with a
//! dependency map from each output to the inputs it needs. A
//! [`MappingSchema`] assigns every potential input to a set of reducers.
//! [`validate_schema`] checks the two §2.2 conditions exhaustively —
//! (1) no reducer receives more than `q` inputs, (2) every output is
//! covered — and computes the exact replication rate `Σ qᵢ / |I|`.
//!
//! Validation enumerates all potential inputs and outputs, which is
//! exactly what the paper's lower-bound analysis assumes (§2.3: bounds are
//! computed "pretend\[ing\] that we have an instance of the problem where
//! all inputs over the given domain are present").

pub use mr_sim::schema::ReducerId;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Debug;

/// A problem in the §2 model.
///
/// Implementations enumerate the *potential* inputs and outputs — every
/// input that could occur in an instance, not the inputs of one instance.
pub trait Problem {
    /// One potential input (e.g. a bit string, a graph edge, a matrix
    /// entry).
    type Input: Clone + Ord + Debug;
    /// One potential output (e.g. a close pair, a triangle, an output
    /// matrix cell).
    type Output: Clone + Ord + Debug;

    /// Enumerates every potential input.
    fn inputs(&self) -> Vec<Self::Input>;

    /// Enumerates every potential output.
    fn outputs(&self) -> Vec<Self::Output>;

    /// The set of inputs that `output` depends on.
    fn inputs_of(&self, output: &Self::Output) -> Vec<Self::Input>;

    /// `|I|`, the number of potential inputs.
    fn num_inputs(&self) -> u64 {
        self.inputs().len() as u64
    }

    /// `|O|`, the number of potential outputs.
    fn num_outputs(&self) -> u64 {
        self.outputs().len() as u64
    }
}

/// A mapping schema for some problem: the assignment of inputs to reducers
/// (§2.2). The schema must be *oblivious*: `assign` sees one input at a
/// time, mirroring the independence of mappers (§2.3).
pub trait MappingSchema<P: Problem> {
    /// The reducers that `input` is sent to.
    fn assign(&self, input: &P::Input) -> Vec<ReducerId>;

    /// The reducer-size bound `q` this schema is designed for (the maximum
    /// number of *potential* inputs any reducer may receive).
    fn max_inputs_per_reducer(&self) -> u64;

    /// Human-readable name for reports.
    fn name(&self) -> String {
        std::any::type_name::<Self>().to_string()
    }
}

/// The result of exhaustively validating a schema against a problem.
#[derive(Debug, Clone)]
pub struct SchemaReport {
    /// Number of potential inputs `|I|`.
    pub num_inputs: u64,
    /// Number of potential outputs `|O|`.
    pub num_outputs: u64,
    /// Number of distinct reducers that received at least one input.
    pub num_reducers: u64,
    /// Total input assignments `Σ qᵢ`.
    pub total_assignments: u64,
    /// Largest reducer load (the schema's *achieved* `q`).
    pub max_load: u64,
    /// Exact replication rate `Σ qᵢ / |I|`.
    pub replication_rate: f64,
    /// Outputs not covered by any reducer (empty for a valid schema).
    pub uncovered_outputs: u64,
    /// True when the declared `q` bound holds for every reducer.
    pub q_respected: bool,
}

impl SchemaReport {
    /// True when the schema satisfies both §2.2 conditions.
    pub fn is_valid(&self) -> bool {
        self.uncovered_outputs == 0 && self.q_respected
    }
}

/// Exhaustively validates `schema` against `problem`.
///
/// Enumerates every potential input to compute reducer loads, then checks
/// every potential output for coverage: some reducer must be assigned all
/// of the output's inputs.
pub fn validate_schema<P, S>(problem: &P, schema: &S) -> SchemaReport
where
    P: Problem,
    S: MappingSchema<P>,
{
    let inputs = problem.inputs();
    let mut loads: HashMap<ReducerId, u64> = HashMap::new();
    // Cache each input's reducer set for the coverage pass.
    let mut assignment: BTreeMap<P::Input, Vec<ReducerId>> = BTreeMap::new();
    let mut total_assignments = 0u64;
    for input in &inputs {
        let mut rs = schema.assign(input);
        rs.sort_unstable();
        rs.dedup();
        total_assignments += rs.len() as u64;
        for &r in &rs {
            *loads.entry(r).or_insert(0) += 1;
        }
        assignment.insert(input.clone(), rs);
    }

    let q = schema.max_inputs_per_reducer();
    let max_load = loads.values().copied().max().unwrap_or(0);
    let q_respected = max_load <= q;

    // Coverage: intersect the reducer sets of the output's inputs.
    let outputs = problem.outputs();
    let mut uncovered = 0u64;
    for output in &outputs {
        let deps = problem.inputs_of(output);
        debug_assert!(!deps.is_empty(), "outputs must depend on some input");
        let mut iter = deps.iter();
        let first = iter.next().expect("non-empty dependency set");
        let mut common: Vec<ReducerId> = assignment
            .get(first)
            .unwrap_or_else(|| panic!("inputs_of returned unknown input {first:?}"))
            .clone();
        for dep in iter {
            let rs = assignment
                .get(dep)
                .unwrap_or_else(|| panic!("inputs_of returned unknown input {dep:?}"));
            common.retain(|r| rs.binary_search(r).is_ok());
            if common.is_empty() {
                break;
            }
        }
        if common.is_empty() {
            uncovered += 1;
        }
    }

    SchemaReport {
        num_inputs: inputs.len() as u64,
        num_outputs: outputs.len() as u64,
        num_reducers: loads.len() as u64,
        total_assignments,
        max_load,
        replication_rate: total_assignments as f64 / inputs.len() as f64,
        uncovered_outputs: uncovered,
        q_respected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny test problem: inputs 0..n, outputs are adjacent pairs (i, i+1).
    struct AdjacentPairs {
        n: u32,
    }

    impl Problem for AdjacentPairs {
        type Input = u32;
        type Output = (u32, u32);

        fn inputs(&self) -> Vec<u32> {
            (0..self.n).collect()
        }
        fn outputs(&self) -> Vec<(u32, u32)> {
            (0..self.n - 1).map(|i| (i, i + 1)).collect()
        }
        fn inputs_of(&self, o: &(u32, u32)) -> Vec<u32> {
            vec![o.0, o.1]
        }
    }

    /// Overlapping blocks of size 2: input i goes to reducers i and i-1, so
    /// every adjacent pair shares reducer min(i, j).
    struct OverlappingBlocks;

    impl MappingSchema<AdjacentPairs> for OverlappingBlocks {
        fn assign(&self, input: &u32) -> Vec<ReducerId> {
            let i = *input as u64;
            if i == 0 {
                vec![0]
            } else {
                vec![i - 1, i]
            }
        }
        fn max_inputs_per_reducer(&self) -> u64 {
            2
        }
    }

    #[test]
    fn valid_schema_passes() {
        let p = AdjacentPairs { n: 10 };
        let report = validate_schema(&p, &OverlappingBlocks);
        assert!(report.is_valid(), "{report:?}");
        assert_eq!(report.num_inputs, 10);
        assert_eq!(report.num_outputs, 9);
        assert_eq!(report.max_load, 2);
        // Input 0 assigned once, inputs 1..9 twice: 1 + 18 = 19.
        assert_eq!(report.total_assignments, 19);
        assert!((report.replication_rate - 1.9).abs() < 1e-12);
    }

    /// A schema that forgets to co-locate pairs: each input to its own
    /// reducer.
    struct Isolating;

    impl MappingSchema<AdjacentPairs> for Isolating {
        fn assign(&self, input: &u32) -> Vec<ReducerId> {
            vec![*input as u64]
        }
        fn max_inputs_per_reducer(&self) -> u64 {
            1
        }
    }

    #[test]
    fn uncovered_outputs_detected() {
        let p = AdjacentPairs { n: 5 };
        let report = validate_schema(&p, &Isolating);
        assert!(!report.is_valid());
        assert_eq!(report.uncovered_outputs, 4); // all pairs uncovered
        assert!(report.q_respected);
    }

    /// A schema that overflows its declared budget.
    struct Monolithic;

    impl MappingSchema<AdjacentPairs> for Monolithic {
        fn assign(&self, _input: &u32) -> Vec<ReducerId> {
            vec![0]
        }
        fn max_inputs_per_reducer(&self) -> u64 {
            3 // but all n inputs land on reducer 0
        }
    }

    #[test]
    fn q_violation_detected() {
        let p = AdjacentPairs { n: 5 };
        let report = validate_schema(&p, &Monolithic);
        assert!(!report.is_valid());
        assert!(!report.q_respected);
        assert_eq!(report.max_load, 5);
        assert_eq!(report.uncovered_outputs, 0); // coverage is fine
    }

    #[test]
    fn duplicate_assignments_are_deduped() {
        struct Dup;
        impl MappingSchema<AdjacentPairs> for Dup {
            fn assign(&self, input: &u32) -> Vec<ReducerId> {
                let i = *input as u64;
                if i == 0 {
                    vec![0, 0, 0]
                } else {
                    vec![i, i - 1, i]
                }
            }
            fn max_inputs_per_reducer(&self) -> u64 {
                2
            }
        }
        let p = AdjacentPairs { n: 4 };
        let report = validate_schema(&p, &Dup);
        assert!(report.is_valid());
        assert_eq!(report.total_assignments, 7); // 1 + 2 + 2 + 2
    }
}
