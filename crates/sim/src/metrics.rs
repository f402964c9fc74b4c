//! Measurements collected by the engine.
//!
//! [`RoundMetrics`] captures one round's communication picture exactly:
//! inputs, shuffled key-value pairs (the paper's communication cost),
//! reducer count, per-reducer load statistics, and outputs.
//! [`JobMetrics`] aggregates rounds; §6.3's two-phase matrix multiplication
//! is compared to the one-phase method on
//! [`total_communication`](JobMetrics::total_communication).

/// Distribution statistics over per-reducer input counts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoadStats {
    /// Smallest reducer input count (0 when there are no reducers).
    pub min: u64,
    /// Largest reducer input count — the *effective* `q` of the run.
    pub max: u64,
    /// Mean input count.
    pub mean: f64,
    /// Median input count.
    pub p50: u64,
    /// 95th-percentile input count.
    pub p95: u64,
    /// Sum of all input counts (= shuffled pairs).
    pub total: u64,
}

impl LoadStats {
    /// Computes statistics from raw per-reducer loads.
    pub fn from_loads(mut loads: Vec<u64>) -> Self {
        loads.sort_unstable();
        Self::from_sorted(&loads)
    }

    /// Computes statistics from loads already sorted ascending — the
    /// engine sorts its load vector once and shares it between these
    /// statistics and [`RoundMetrics::loads`].
    pub(crate) fn from_sorted(loads: &[u64]) -> Self {
        debug_assert!(
            loads.windows(2).all(|w| w[0] <= w[1]),
            "loads must be sorted ascending"
        );
        if loads.is_empty() {
            return LoadStats::default();
        }
        let total: u64 = loads.iter().sum();
        let n = loads.len();
        let pct = |p: f64| -> u64 {
            let idx = ((n as f64 - 1.0) * p).round() as usize;
            loads[idx.min(n - 1)]
        };
        LoadStats {
            min: loads[0],
            max: loads[n - 1],
            mean: total as f64 / n as f64,
            p50: pct(0.50),
            p95: pct(0.95),
            total,
        }
    }

    /// Load skew: `max / mean` (1.0 for perfectly balanced loads, 0 when
    /// empty).
    pub fn skew(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.max as f64 / self.mean
        }
    }
}

/// Observability for the shuffle stage: how the engine spread the round's
/// key-value pairs over hash partitions.
///
/// A partition's *load* is the number of key-value pairs hashed to it. The
/// sequential engine has exactly one partition carrying every pair; the
/// parallel engine uses one partition per worker. The `max / mean` ratio
/// ([`partition_skew`](ShuffleStats::partition_skew)) is the engine-level
/// analogue of the paper's §1.4 data-skew caveat: keys are spread by hash,
/// so a heavy key (a §1.4 "hub") drags its whole partition with it and the
/// ratio rises above 1.
///
/// These numbers describe how a round was *executed*, not what it
/// *computed* — the same round at different worker counts yields different
/// `ShuffleStats` but identical outputs and semantic metrics. They are
/// therefore **excluded** from [`RoundMetrics`]' `PartialEq`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShuffleStats {
    /// Number of hash partitions the shuffle used (1 when sequential).
    pub partitions: u64,
    /// Smallest partition load (key-value pairs).
    pub min_partition_load: u64,
    /// Largest partition load (key-value pairs).
    pub max_partition_load: u64,
    /// Mean partition load.
    pub mean_partition_load: f64,
    /// Total bytes the shuffle's columns moved:
    /// `pairs × (8-byte fingerprint + size_of::<K>() + size_of::<V>())`.
    /// An in-process estimate of the paper's communication cost in bytes
    /// rather than pairs. `Some` only when the engine filled it — the
    /// pair width is known nowhere else, so
    /// [`from_partition_loads`](ShuffleStats::from_partition_loads)
    /// leaves it explicitly `None` (unknown) rather than a silent 0.
    pub bytes_moved: Option<u64>,
    /// Per-partition occupancy histogram: the raw pair count of every
    /// shuffle partition, in partition order. `partitions`, `min/max/mean`
    /// above are summaries of this vector; it is retained so skew is
    /// inspectable bucket by bucket (surfaced in `repro frontier`).
    pub bucket_loads: Vec<u64>,
}

impl ShuffleStats {
    /// Computes statistics from raw per-partition pair counts.
    /// `bytes_moved` is left `None` — only the engine knows the pair
    /// width, and an unknown must read as unknown, not as 0 bytes.
    pub fn from_partition_loads(loads: &[u64]) -> Self {
        if loads.is_empty() {
            return ShuffleStats::default();
        }
        let total: u64 = loads.iter().sum();
        // The `unwrap`s cannot fire: `loads` is not empty (checked above).
        ShuffleStats {
            partitions: loads.len() as u64,
            min_partition_load: *loads.iter().min().unwrap(),
            max_partition_load: *loads.iter().max().unwrap(),
            mean_partition_load: total as f64 / loads.len() as f64,
            bytes_moved: None,
            bucket_loads: loads.to_vec(),
        }
    }

    /// Partition skew: `max / mean` partition load (1.0 when perfectly
    /// balanced, 0 when the shuffle carried no pairs).
    pub fn partition_skew(&self) -> f64 {
        if self.mean_partition_load == 0.0 {
            0.0
        } else {
            self.max_partition_load as f64 / self.mean_partition_load
        }
    }
}

/// Exact measurements of one map-reduce round.
///
/// Equality compares the *semantic* fields only — inputs, pairs, reducers,
/// loads, outputs. The [`shuffle`](RoundMetrics::shuffle) execution
/// metadata varies with the worker count by design and is excluded, so the
/// determinism contract "sequential and parallel runs produce equal
/// metrics" stays assertable with `==`.
#[derive(Debug, Clone, Default)]
pub struct RoundMetrics {
    /// Number of map inputs.
    pub inputs: u64,
    /// Key-value pairs crossing the shuffle — the round's communication
    /// cost in the paper's unit (§2.3).
    pub kv_pairs: u64,
    /// Number of distinct reduce-keys (reducers in the paper's sense).
    pub reducers: u64,
    /// Number of outputs emitted by the reduce phase.
    pub outputs: u64,
    /// Per-reducer load distribution (summary statistics).
    pub load: LoadStats,
    /// Raw per-reducer input counts, sorted ascending. Retained so cost
    /// models can be evaluated exactly after the run.
    pub loads: Vec<u64>,
    /// How the shuffle distributed pairs over hash partitions (execution
    /// metadata; excluded from `PartialEq`).
    pub shuffle: ShuffleStats,
}

impl PartialEq for RoundMetrics {
    fn eq(&self, other: &Self) -> bool {
        self.inputs == other.inputs
            && self.kv_pairs == other.kv_pairs
            && self.reducers == other.reducers
            && self.outputs == other.outputs
            && self.load == other.load
            && self.loads == other.loads
    }
}

impl RoundMetrics {
    /// Replication rate `r = (shuffled pairs) / (inputs)` (§2.2). Returns
    /// `NaN` for an empty input set.
    pub fn replication_rate(&self) -> f64 {
        self.kv_pairs as f64 / self.inputs as f64
    }
}

/// Metrics for a (possibly multi-round) job.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobMetrics {
    /// Per-round measurements, in execution order.
    pub rounds: Vec<RoundMetrics>,
}

impl JobMetrics {
    /// Total communication across all rounds: the sum of shuffled key-value
    /// pairs. This is the quantity §6.3 compares between the one- and
    /// two-phase matrix-multiplication methods.
    pub fn total_communication(&self) -> u64 {
        self.rounds.iter().map(|r| r.kv_pairs).sum()
    }

    /// The largest reducer load over all rounds (the job's effective `q`).
    pub fn max_reducer_load(&self) -> u64 {
        self.rounds.iter().map(|r| r.load.max).max().unwrap_or(0)
    }

    /// Replication rate of the first round (the paper's `r` for one-round
    /// jobs).
    pub fn first_round_replication(&self) -> f64 {
        self.rounds
            .first()
            .map(RoundMetrics::replication_rate)
            .unwrap_or(f64::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_stats_basic() {
        let s = LoadStats::from_loads(vec![4, 1, 3, 2]);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert_eq!(s.total, 10);
        assert!((s.mean - 2.5).abs() < 1e-12);
        // Nearest-rank on an even count rounds up: index round(1.5) = 2.
        assert_eq!(s.p50, 3);
    }

    #[test]
    fn load_stats_empty() {
        let s = LoadStats::from_loads(vec![]);
        assert_eq!(s.max, 0);
        assert_eq!(s.skew(), 0.0);
    }

    #[test]
    fn load_stats_uniform_has_skew_one() {
        let s = LoadStats::from_loads(vec![5; 20]);
        assert!((s.skew() - 1.0).abs() < 1e-12);
        assert_eq!(s.p95, 5);
    }

    #[test]
    fn replication_rate() {
        let m = RoundMetrics {
            inputs: 100,
            kv_pairs: 250,
            ..Default::default()
        };
        assert!((m.replication_rate() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn shuffle_stats_from_loads() {
        let s = ShuffleStats::from_partition_loads(&[10, 30, 20, 0]);
        assert_eq!(s.partitions, 4);
        assert_eq!(s.min_partition_load, 0);
        assert_eq!(s.max_partition_load, 30);
        assert!((s.mean_partition_load - 15.0).abs() < 1e-12);
        assert!((s.partition_skew() - 2.0).abs() < 1e-12);
        // The raw histogram is retained in partition order; bytes are
        // *unknown* at this layer — explicitly None, never a silent 0.
        assert_eq!(s.bucket_loads, vec![10, 30, 20, 0]);
        assert_eq!(s.bytes_moved, None);
    }

    #[test]
    fn shuffle_stats_empty_and_balanced() {
        let empty = ShuffleStats::from_partition_loads(&[]);
        assert_eq!(empty.partitions, 0);
        assert_eq!(empty.partition_skew(), 0.0);
        let balanced = ShuffleStats::from_partition_loads(&[7; 8]);
        assert!((balanced.partition_skew() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shuffle_stats_are_excluded_from_round_equality() {
        // Execution metadata must not break the determinism contract: two
        // rounds that computed the same thing compare equal even if one
        // ran on 1 partition and the other on 8.
        let a = RoundMetrics {
            inputs: 10,
            kv_pairs: 20,
            shuffle: ShuffleStats::from_partition_loads(&[20]),
            ..Default::default()
        };
        let b = RoundMetrics {
            inputs: 10,
            kv_pairs: 20,
            shuffle: ShuffleStats::from_partition_loads(&[3, 2, 5, 10]),
            ..Default::default()
        };
        assert_eq!(a, b);
        let c = RoundMetrics {
            inputs: 11,
            ..b.clone()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn job_totals() {
        let j = JobMetrics {
            rounds: vec![
                RoundMetrics {
                    inputs: 10,
                    kv_pairs: 30,
                    load: LoadStats::from_loads(vec![10, 20]),
                    ..Default::default()
                },
                RoundMetrics {
                    inputs: 5,
                    kv_pairs: 5,
                    load: LoadStats::from_loads(vec![3]),
                    ..Default::default()
                },
            ],
        };
        assert_eq!(j.total_communication(), 35);
        assert_eq!(j.max_reducer_load(), 20);
        assert!((j.first_round_replication() - 3.0).abs() < 1e-12);
    }
}
