//! Incremental (delta) planning: price a [`DeltaSpec`] before running it.
//!
//! [`Plan::execute`](crate::Plan::execute) proves the planner's full-run
//! predictions by executing under them as hard budgets. This module
//! extends that honesty contract to incremental execution:
//! [`plan_delta`] prices a delta with
//! [`DynFamily::delta_census`](mr_core::family::DynFamily::delta_census) —
//! exact by §2.2 obliviousness — and [`DeltaPlan::execute`] runs the
//! retained path budgeted at the predicted post-delta `q`
//! ([`DeltaCensus::post_q`]), so an under-prediction aborts loudly
//! instead of reporting a happy number.

use crate::cluster::ClusterSpec;
use mr_core::family::{family_by_name, DeltaCensus, DeltaReport, DeltaSpec, Scale};
use mr_sim::Pipeline;

/// A priced incremental step on a registry family's grid point: the
/// delta to apply and the exact map-side prediction its execution will
/// be budgeted with.
#[derive(Debug, Clone)]
pub struct DeltaPlan {
    /// Registry family the plan is for.
    pub family: String,
    /// Instance-size preset the plan was made for.
    pub scale: Scale,
    /// Index into the family's grid.
    pub point: usize,
    /// The delta to apply.
    pub spec: DeltaSpec,
    /// The exact prediction from
    /// [`DynFamily::delta_census`](mr_core::family::DynFamily::delta_census):
    /// execution runs under `census.post_q` as a hard reducer budget.
    pub census: DeltaCensus,
    /// The cluster the plan was made for (supplies the engine).
    pub cluster: ClusterSpec,
}

/// Prices the delta `spec` on grid point `point` of the named registry
/// family. Returns `None` for an unknown family name.
///
/// # Panics
/// Panics if `point` is out of range for the family's grid or `spec` is
/// malformed — out-of-range input indices, or a `remove` position that
/// is outside `base` or repeated (refused by
/// [`DynFamily::delta_census`](mr_core::family::DynFamily::delta_census),
/// naming the family, point and position).
pub fn plan_delta(
    family: &str,
    scale: Scale,
    point: usize,
    spec: DeltaSpec,
    cluster: &ClusterSpec,
) -> Option<DeltaPlan> {
    let fam = family_by_name(family, scale)?;
    let census = fam.delta_census(point, &spec);
    Some(DeltaPlan {
        family: family.to_string(),
        scale,
        point,
        spec,
        census,
        cluster: cluster.clone(),
    })
}

impl DeltaPlan {
    /// Predicted fraction of the post-delta instance's reducers the
    /// incremental path re-executes — the work saved vs a full re-run is
    /// `1 − dirty_fraction` (in reducer invocations).
    pub fn dirty_fraction(&self) -> f64 {
        if self.census.post_reducers == 0 {
            0.0
        } else {
            self.census.dirty_reducers as f64 / self.census.post_reducers as f64
        }
    }

    /// Executes the plan on the cluster's engine through the selected
    /// [`Pipeline`], under the census prediction as the reducer budget —
    /// the delta analogue of [`Plan::execute`](crate::Plan::execute)'s
    /// self-check. The returned report carries the verdicts
    /// (`matches_full_run`, `prediction_exact`) the battery asserts.
    ///
    /// # Panics
    /// Panics if the predicted budget overflows (a census bug by
    /// definition), or if the plan's family/point no longer exists.
    pub fn execute(&self, pipeline: Pipeline) -> DeltaReport {
        let fam = family_by_name(&self.family, self.scale)
            .unwrap_or_else(|| panic!("family {} not in the registry", self.family));
        fam.delta_run(self.point, &self.cluster.engine(), pipeline, &self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_sim::{run_schema_retained, Delta, DeltaError, EngineConfig, EngineError, SchemaJob};

    #[test]
    fn delta_plan_roundtrips_exactly() {
        let cluster = ClusterSpec::default();
        let spec = DeltaSpec::tail_churn(28); // K_8 has 28 edges
        let plan = plan_delta("triangles", Scale::Small, 0, spec, &cluster).unwrap();
        let report = plan.execute(Pipeline::Columnar);
        assert!(report.matches_full_run);
        assert!(report.prediction_exact);
        assert_eq!(report.census, plan.census);
        assert_eq!(report.dirty_reducers, plan.census.dirty_reducers);
        assert!(plan.dirty_fraction() > 0.0 && plan.dirty_fraction() <= 1.0);
    }

    #[test]
    fn unknown_family_is_rejected() {
        let cluster = ClusterSpec::default();
        assert!(plan_delta("nonsense", Scale::Small, 0, DeltaSpec::default(), &cluster).is_none());
    }

    /// Every input lands on reducer 0, so `q` = the live instance size.
    struct Funnel;
    impl SchemaJob<u32, u32> for Funnel {
        fn assign(&self, _input: &u32) -> Vec<u64> {
            vec![0]
        }
        fn reduce(&self, _r: u64, inputs: &[u32], emit: &mut dyn FnMut(u32)) {
            emit(inputs.iter().sum())
        }
    }

    #[test]
    fn under_predicted_post_q_aborts_loudly() {
        // The honesty contract itself: budget the retained job one unit
        // below the true post-delta q and the apply must abort with the
        // overflow — and leave the retained state untouched.
        let base: Vec<u32> = vec![1, 2, 3];
        let grow = Delta::add(vec![4, 5]); // post-q = 5
        let exact = EngineConfig::sequential().with_max_reducer_inputs(5);
        let mut job = run_schema_retained(&base, Funnel, Pipeline::Columnar, &exact).unwrap();
        let predicted = job.predict(&grow).unwrap();
        assert_eq!(predicted.post_q, 5);

        let short = EngineConfig::sequential().with_max_reducer_inputs(4);
        let mut starved = run_schema_retained(&base, Funnel, Pipeline::Columnar, &short).unwrap();
        let err = starved.apply(&grow).unwrap_err();
        assert_eq!(
            err,
            DeltaError::Engine(EngineError::ReducerOverflow {
                key: "0".into(),
                load: 5,
                limit: 4,
            })
        );
        assert_eq!(starved.outputs(), vec![6]); // state preserved

        // Under the exact predicted budget the same delta lands.
        let outcome = job.apply(&grow).unwrap();
        assert_eq!(outcome.metrics.dirty_reducers, 1);
        assert_eq!(job.outputs(), vec![15]);
    }
}
