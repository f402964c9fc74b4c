//! The multiway join as a §2 [`Problem`], so Shares grids can be
//! *exhaustively validated* like every other family.
//!
//! §5.5.1 analyses joins over the complete instance: every relation holds
//! every possible tuple over an `n`-value domain. [`MultiwayJoinProblem`]
//! enumerates exactly that — inputs are [`TaggedTuple`]s of the complete
//! database, outputs are the join's result rows, and a row depends on its
//! projection onto each atom. [`SharesOverDomain`] pairs a
//! [`SharesSchema`] with the domain size it runs over, which is what a
//! [`MappingSchema`] needs to declare its reducer budget (a Shares grid
//! cell holds at most `Σ_e Π_{v ∈ e} ⌈n/s_v⌉` complete-instance tuples).
//!
//! So [`validate_schema`](crate::model::validate_schema) covers the join
//! family too, and the registry's parity tests compare its exhaustive
//! replication rate with the engine's on the same complete instance.

use super::query::{Database, Query};
use super::shares::SharesSchema;
use super::tuple::{TaggedTuple, Tuple};
use crate::model::{MappingSchema, Problem, ReducerId};
use crate::recipe::LowerBoundRecipe;
use mr_sim::schema::SchemaJob;

/// A multiway join over the complete instance on a domain of `n` values
/// (§2.3's "all inputs present" assumption, specialised to §5.5).
#[derive(Debug, Clone)]
pub struct MultiwayJoinProblem {
    /// The conjunctive query.
    pub query: Query,
    /// Domain size per variable.
    pub n: u32,
}

impl MultiwayJoinProblem {
    /// Creates the problem.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(query: Query, n: u32) -> Self {
        assert!(n >= 1, "the domain must be non-empty");
        MultiwayJoinProblem { query, n }
    }

    /// The complete database instance this problem enumerates.
    pub fn database(&self) -> Database {
        Database::complete(&self.query, self.n)
    }

    /// The §5.5.1 recipe: `g(q) = q^ρ` by the AGM bound, with `|I|` and
    /// `|O|` counted on the complete instance.
    pub fn recipe(&self) -> LowerBoundRecipe {
        let rho = self.query.rho();
        let db = self.database();
        let outputs = db.join(&self.query).len() as f64;
        LowerBoundRecipe::new(move |q| q.powf(rho), db.num_tuples() as f64, outputs)
    }
}

impl Problem for MultiwayJoinProblem {
    type Input = TaggedTuple;
    type Output = Tuple;

    fn inputs(&self) -> Vec<TaggedTuple> {
        self.database().tagged()
    }

    fn outputs(&self) -> Vec<Tuple> {
        self.database().join(&self.query)
    }

    fn inputs_of(&self, output: &Tuple) -> Vec<TaggedTuple> {
        // A result row needs, from each relation, its projection onto
        // that atom's variables.
        self.query
            .atoms
            .iter()
            .enumerate()
            .map(|(a, vars)| (a as u32, vars.iter().map(|&v| output[v]).collect()))
            .collect()
    }
}

/// A [`SharesSchema`] bound to the domain it partitions, making it a
/// [`MappingSchema`] for [`MultiwayJoinProblem`].
///
/// The pairing exists because a schema's declared reducer budget depends
/// on the instance domain, which the bare grid does not know.
#[derive(Debug, Clone)]
pub struct SharesOverDomain {
    /// The Shares grid.
    pub schema: SharesSchema,
    /// Domain size per variable.
    pub n: u32,
}

impl SharesOverDomain {
    /// Creates the pairing.
    pub fn new(schema: SharesSchema, n: u32) -> Self {
        SharesOverDomain { schema, n }
    }

    /// The exact complete-instance budget of one grid cell:
    /// `Σ_e Π_{v ∈ e} ⌈n/s_v⌉` — each atom contributes every tuple whose
    /// hashed coordinates agree with the cell, and a bucket of variable
    /// `v` holds at most `⌈n/s_v⌉` domain values.
    pub fn cell_budget(&self) -> u64 {
        self.schema
            .query()
            .atoms
            .iter()
            .map(|atom| {
                atom.iter()
                    .map(|&v| (self.n as u64).div_ceil(self.schema.shares()[v]))
                    .product::<u64>()
            })
            .sum()
    }
}

impl MappingSchema<MultiwayJoinProblem> for SharesOverDomain {
    fn assign(&self, input: &TaggedTuple) -> Vec<ReducerId> {
        SchemaJob::assign(&self.schema, input)
    }

    fn max_inputs_per_reducer(&self) -> u64 {
        self.cell_budget()
    }

    fn name(&self) -> String {
        format!(
            "shares(vars={}, shares={:?})",
            self.schema.query().num_vars,
            self.schema.shares()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::validate_schema;
    use mr_sim::{run_schema, EngineConfig};

    #[test]
    fn complete_instance_counts() {
        let p = MultiwayJoinProblem::new(Query::cycle(3), 3);
        // 3 binary relations × n² tuples each; n³ result rows.
        assert_eq!(p.num_inputs(), 27);
        assert_eq!(p.num_outputs(), 27);
    }

    #[test]
    fn inputs_of_projects_onto_atoms() {
        let p = MultiwayJoinProblem::new(Query::cycle(3), 4);
        let deps = p.inputs_of(&Tuple::from_iter([1, 2, 3]));
        // Cycle atoms: (A0,A1), (A1,A2), (A2,A0).
        assert_eq!(
            deps,
            vec![
                (0, Tuple::from_iter([1, 2])),
                (1, Tuple::from_iter([2, 3])),
                (2, Tuple::from_iter([3, 1]))
            ]
        );
    }

    #[test]
    fn shares_schema_validates_on_complete_instance() {
        let query = Query::cycle(3);
        let p = MultiwayJoinProblem::new(query.clone(), 4);
        for s in [1u64, 2, 4] {
            let schema = SharesOverDomain::new(SharesSchema::new(query.clone(), vec![s, s, s]), 4);
            let report = validate_schema(&p, &schema);
            assert!(report.is_valid(), "s={s}: {report:?}");
        }
    }

    #[test]
    fn cell_budget_is_tight_when_shares_divide_n() {
        // s | n: buckets are perfectly balanced, so the declared budget is
        // exactly the achieved max load.
        let query = Query::cycle(3);
        let p = MultiwayJoinProblem::new(query.clone(), 4);
        let schema = SharesOverDomain::new(SharesSchema::new(query.clone(), vec![2, 2, 2]), 4);
        let report = validate_schema(&p, &schema);
        assert!(report.is_valid());
        assert_eq!(report.max_load, schema.cell_budget()); // 3 · 2²
    }

    #[test]
    fn validation_agrees_with_engine_measurement() {
        // The parity the registry tests generalise: exhaustive validation
        // and an engine round measure the same r and q on the complete
        // instance.
        let query = Query::cycle(3);
        let p = MultiwayJoinProblem::new(query.clone(), 3);
        let schema = SharesSchema::new(query, vec![3, 3, 3]);
        let report = validate_schema(&p, &SharesOverDomain::new(schema.clone(), 3));
        let inputs = p.inputs();
        let (_, metrics) = run_schema(&inputs, &schema, &EngineConfig::sequential()).unwrap();
        assert_eq!(report.max_load, metrics.load.max);
        assert!((report.replication_rate - metrics.replication_rate()).abs() < 1e-12);
    }

    #[test]
    fn recipe_bound_is_positive_and_clamped() {
        let p = MultiwayJoinProblem::new(Query::cycle(3), 4);
        let recipe = p.recipe();
        // ρ = 3/2 for the 3-cycle, so the bound is n/(3√q): at q = 1 it
        // is n/3 > 1, and at huge q the clamp takes over.
        assert!(recipe.replication_lower_bound(1.0) > 1.0);
        assert_eq!(recipe.clamped_lower_bound(1e9), 1.0);
    }
}
