//! The resident plan cache.
//!
//! Planning is pure — [`plan_family`](crate::plan_family) promises
//! *"same family, cluster and scale, same plan"* — yet every call pays
//! the full price again: the census enumeration over potential inputs,
//! the Shares LP for join exponents, the DAG round-structure search. A
//! resident process (the `mr-serve` daemon the roadmap points at)
//! re-plans the same handful of (family, cluster, scale) triples on
//! every request; [`PlanCache`] memoises them, the planning twin of the
//! execution substrate's resident [`WorkerPool`](mr_sim::WorkerPool).
//!
//! The cache key is the exact determinism domain of the planner: family
//! (or DAG workload) name, instance [`Scale`], and every field of the
//! [`ClusterSpec`] — the four `f64` cost weights keyed by their bit
//! patterns, so `0.1 + 0.2` and `0.3` are (correctly) different
//! clusters. Only successful plans are cached: a [`PlanError`] is
//! recomputed on the next call, which costs nothing extra in practice
//! (errors are rare and deterministic) and keeps the cache free of
//! negative-result invalidation questions.
//!
//! Under the plan memo sits a second one for the **price** step. A
//! candidate's census does not depend on the cluster, so the priced
//! tables — [`enumerate_dag_candidates`] per `(workload, scale)`, a
//! family's census-priced grid (plus matmul's trees) per
//! `(family, scale)` — are kept too, and a miss on a new cluster profile
//! only pays the choose step: the crate's one `pick` over the kept
//! table. Both memos are fields of the cache instance: a fresh cache
//! prices everything once.
//!
//! [`CacheStats`] hit/miss counters are surfaced in the `repro plan` /
//! `repro dag` semantic JSON — the first scrapeable operational stat for
//! the future daemon. The counters live in a per-cache
//! [`mr_obs::MetricsHub`] (keys `plan_cache.hits` /
//! `plan_cache.misses`, and beside them `plan_cache.priced` /
//! `plan_cache.priced_reused` for how many misses ran a pricing and how
//! many read a kept table), so the same registry the execution stack
//! reports into is the single source of truth; [`CacheStats`] is just a
//! snapshot of the first two.

use crate::cluster::ClusterSpec;
use crate::dag::{enumerate_dag_candidates, DagCandidate, DagPlan, DagWorkload};
use crate::plan::Plan;
use crate::planner::{price_family, PlanError, PricedFamily};
use mr_core::family::Scale;
use mr_obs::{Counter, MetricsHub};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Hit/miss counters of a [`PlanCache`], taken at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Calls answered from the cache.
    pub hits: u64,
    /// Calls that ran the underlying planner (including failed plans,
    /// which are never cached).
    pub misses: u64,
}

/// Priced tables by `name|scale` — the price step's memo.
type Priced<P> = Mutex<BTreeMap<String, Arc<P>>>;

/// A memoising front for [`plan_family`](crate::plan_family) and
/// [`plan_dag`](crate::plan_dag).
///
/// Thread-safe; clone-out semantics (a hit clones the cached plan, so
/// callers own their copy and the cache never hands out references into
/// its own storage). See the [module docs](self) for the key and the
/// only-cache-successes policy.
#[derive(Debug)]
pub struct PlanCache {
    plans: Mutex<BTreeMap<String, Plan>>,
    dags: Mutex<BTreeMap<String, DagPlan>>,
    priced_families: Priced<PricedFamily>,
    priced_dags: Priced<Vec<DagCandidate>>,
    /// Per-cache metrics registry holding the `plan_cache.*` counters
    /// (cached handles below).
    hub: MetricsHub,
    hits: Counter,
    misses: Counter,
    priced: Counter,
    priced_reused: Counter,
}

impl Default for PlanCache {
    fn default() -> Self {
        let hub = MetricsHub::new();
        PlanCache {
            plans: Mutex::default(),
            dags: Mutex::default(),
            priced_families: Mutex::default(),
            priced_dags: Mutex::default(),
            hits: hub.counter("plan_cache.hits"),
            misses: hub.counter("plan_cache.misses"),
            priced: hub.counter("plan_cache.priced"),
            priced_reused: hub.counter("plan_cache.priced_reused"),
            hub,
        }
    }
}

/// The cache key: every input the pure planners read, rendered to a
/// stable string. Float weights go in as hex bit patterns — bit-exact
/// equality is the right equivalence for memoising a pure function.
fn key_of(name: &str, cluster: &ClusterSpec, scale: Scale) -> String {
    format!(
        "{name}|{scale:?}|w={}|cap={:?}|a={:016x}|b={:016x}|c={:016x}|l={:016x}",
        cluster.workers,
        cluster.reducer_capacity,
        cluster.comm_weight.to_bits(),
        cluster.compute_weight.to_bits(),
        cluster.latency_weight.to_bits(),
        cluster.round_latency.to_bits(),
    )
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`plan_family`](crate::plan_family) through the cache.
    pub fn plan_family(
        &self,
        family: &str,
        cluster: &ClusterSpec,
        scale: Scale,
    ) -> Result<Plan, PlanError> {
        let key = key_of(family, cluster, scale);
        if let Some(plan) = self.plans.lock().expect("plan cache poisoned").get(&key) {
            self.hits.incr();
            return Ok(plan.clone());
        }
        self.misses.incr();
        cluster.check()?;
        let priced = self.priced(&self.priced_families, family, scale, || {
            price_family(family, scale)
        })?;
        let plan = priced.choose(cluster)?;
        self.plans
            .lock()
            .expect("plan cache poisoned")
            .insert(key, plan.clone());
        Ok(plan)
    }

    /// [`plan_dag`](crate::plan_dag) through the cache.
    pub fn plan_dag(
        &self,
        workload: DagWorkload,
        cluster: &ClusterSpec,
        scale: Scale,
    ) -> Result<DagPlan, PlanError> {
        let key = key_of(workload.name(), cluster, scale);
        if let Some(plan) = self.dags.lock().expect("plan cache poisoned").get(&key) {
            self.hits.incr();
            return Ok(plan.clone());
        }
        self.misses.incr();
        cluster.check()?;
        let priced = self.priced(&self.priced_dags, workload.name(), scale, || {
            Ok(enumerate_dag_candidates(workload, scale))
        })?;
        let plan = DagPlan::choose(workload, &priced, cluster, scale)?;
        self.dags
            .lock()
            .expect("plan cache poisoned")
            .insert(key, plan.clone());
        Ok(plan)
    }

    /// The priced table of `name` at `scale` out of `memo`, running
    /// `price` only when the cache has not kept one. The lock is not held
    /// while pricing; of two racing pricings the first stored is kept.
    fn priced<P>(
        &self,
        memo: &Priced<P>,
        name: &str,
        scale: Scale,
        price: impl FnOnce() -> Result<P, PlanError>,
    ) -> Result<Arc<P>, PlanError> {
        let key = format!("{name}|{scale:?}");
        if let Some(table) = memo.lock().expect("plan cache poisoned").get(&key) {
            self.priced_reused.incr();
            return Ok(Arc::clone(table));
        }
        let table = Arc::new(price()?);
        self.priced.incr();
        let mut memo = memo.lock().expect("plan cache poisoned");
        Ok(Arc::clone(memo.entry(key).or_insert(table)))
    }

    /// The counters so far — a snapshot of the `plan_cache.hits` /
    /// `plan_cache.misses` counters in [`metrics`](Self::metrics).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hub.counter_value("plan_cache.hits"),
            misses: self.hub.counter_value("plan_cache.misses"),
        }
    }

    /// The cache's metrics registry — the scrape surface the future
    /// `mr-serve` daemon reads, holding the same counters
    /// [`stats`](Self::stats) snapshots.
    pub fn metrics(&self) -> &MetricsHub {
        &self.hub
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::plan_dag;
    use crate::planner::{plan_family, plannable_families};

    #[test]
    fn repeat_plans_hit() {
        let cache = PlanCache::new();
        let cluster = ClusterSpec::default();
        let first = cache
            .plan_family("hamming-d1", &cluster, Scale::Small)
            .expect("plannable");
        let second = cache
            .plan_family("hamming-d1", &cluster, Scale::Small)
            .expect("plannable");
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        // The hit is the same plan, not a re-derivation.
        assert_eq!(first.choice, second.choice);
        assert_eq!(first.predicted_q, second.predicted_q);
        assert_eq!(first.predicted_cost, second.predicted_cost);
    }

    #[test]
    fn different_clusters_do_not_collide() {
        let cache = PlanCache::new();
        let a = ClusterSpec::comm_heavy();
        let b = ClusterSpec::compute_heavy();
        let plan_a = cache.plan_family("hamming-d1", &a, Scale::Small).unwrap();
        let plan_b = cache.plan_family("hamming-d1", &b, Scale::Small).unwrap();
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
        // Opposite cost regimes pick opposite frontier ends.
        assert!(plan_a.predicted_q >= plan_b.predicted_q);
    }

    #[test]
    fn q_budget_is_part_of_the_key() {
        let cache = PlanCache::new();
        let unbounded = ClusterSpec::default();
        let capped = ClusterSpec::default().with_q_budget(4);
        cache
            .plan_family("hamming-d1", &unbounded, Scale::Small)
            .unwrap();
        cache
            .plan_family("hamming-d1", &capped, Scale::Small)
            .unwrap();
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = PlanCache::new();
        let cluster = ClusterSpec::default();
        for _ in 0..2 {
            assert!(matches!(
                cache.plan_family("no-such-family", &cluster, Scale::Small),
                Err(PlanError::UnknownFamily { .. })
            ));
        }
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
    }

    #[test]
    fn cached_plans_match_direct_plans_for_every_family() {
        let cache = PlanCache::new();
        let cluster = ClusterSpec::default();
        for family in plannable_families() {
            let direct = plan_family(family, &cluster, Scale::Small).expect(family);
            let cached = cache
                .plan_family(family, &cluster, Scale::Small)
                .expect(family);
            assert_eq!(direct.choice, cached.choice, "{family}");
            assert_eq!(direct.predicted_cost, cached.predicted_cost, "{family}");
        }
    }

    #[test]
    fn a_priced_table_is_shared_across_cluster_profiles() {
        let cache = PlanCache::new();
        let profiles = [
            ClusterSpec::default(),
            ClusterSpec::comm_heavy(),
            ClusterSpec::default().with_q_budget(8),
        ];
        for cluster in &profiles {
            let cached = cache.plan_family("matmul", cluster, Scale::Small).unwrap();
            let direct = plan_family("matmul", cluster, Scale::Small).unwrap();
            assert_eq!(cached.rationale, direct.rationale);
            let cached = cache
                .plan_dag(DagWorkload::Hamming, cluster, Scale::Small)
                .unwrap();
            let direct = plan_dag(DagWorkload::Hamming, cluster, Scale::Small).unwrap();
            assert_eq!(cached.rationale, direct.rationale);
        }
        // Six misses, but only the first profile paid for a pricing.
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 6 });
        assert_eq!(cache.metrics().counter_value("plan_cache.priced"), 2);
        assert_eq!(cache.metrics().counter_value("plan_cache.priced_reused"), 4);
        // A different scale is a different table.
        cache
            .plan_dag(DagWorkload::Hamming, &profiles[0], Scale::Default)
            .unwrap();
        assert_eq!(cache.metrics().counter_value("plan_cache.priced"), 3);
    }

    #[test]
    fn a_cluster_that_cannot_price_is_refused_at_every_entry_point() {
        // The weights are public `f64`s. A NaN one used to reach
        // `partial_cmp(..).unwrap()` inside the search and panic there.
        let cache = PlanCache::new();
        let nan_comm = ClusterSpec::new(4, f64::NAN, 0.05);
        let inf_compute = ClusterSpec::new(4, 1.0, f64::INFINITY);
        let negative_latency = ClusterSpec::default().with_latency_weight(-1.0);
        let nan_round = ClusterSpec::default().with_round_latency(f64::NAN);
        for (weight, cluster) in [
            ("comm_weight", nan_comm),
            ("compute_weight", inf_compute),
            ("latency_weight", negative_latency),
            ("round_latency", nan_round),
        ] {
            let refusals = [
                plan_family("matmul", &cluster, Scale::Small).err(),
                cache.plan_family("matmul", &cluster, Scale::Small).err(),
                plan_dag(DagWorkload::Hamming, &cluster, Scale::Small).err(),
                cache
                    .plan_dag(DagWorkload::Hamming, &cluster, Scale::Small)
                    .err(),
            ];
            for refusal in refusals {
                match refusal {
                    Some(PlanError::InvalidCluster { weight: w, .. }) => assert_eq!(w, weight),
                    other => panic!("{weight}: expected InvalidCluster, got {other:?}"),
                }
            }
        }
        // Refused up front: nothing was priced on the way to the error.
        assert_eq!(cache.metrics().counter_value("plan_cache.priced"), 0);
        assert!(ClusterSpec::default().check().is_ok());
    }

    #[test]
    fn dag_plans_hit_too() {
        let cache = PlanCache::new();
        let cluster = ClusterSpec::default();
        let first = cache
            .plan_dag(DagWorkload::MatMul, &cluster, Scale::Small)
            .expect("plannable");
        let second = cache
            .plan_dag(DagWorkload::MatMul, &cluster, Scale::Small)
            .expect("plannable");
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(first.structure, second.structure);
    }
}
