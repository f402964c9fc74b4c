//! The Splitting algorithm family (§3.3) and its distance-`d`
//! generalisation (§3.6), one type: [`DistanceDSplittingSchema`].
//!
//! For `c | b`, the Splitting algorithm cuts each `b`-bit string into `c`
//! segments of `b/c` bits. There are `c` groups of reducers; the Group-`i`
//! reducer for a string is obtained by deleting segment `i`. Strings at
//! distance 1 disagree in exactly one segment `i` and therefore meet at
//! their common Group-`i` reducer. Reducer size is `q = 2^{b/c}` and the
//! replication rate is exactly `c = b / log₂q` — *on* the Theorem 3.2
//! hyperbola (the dots of Figure 1). That is
//! `DistanceDSplittingSchema::new(b, c, 1)`.
//!
//! For distance `d ≤ k`, deleting every `d`-subset of `k` segments covers
//! all pairs at distance ≤ `d` with replication `C(k,d)` (§3.6).

use crate::model::{MappingSchema, ReducerId};
use crate::problems::hamming::problem::HammingProblem;
use crate::recipe::binomial;

/// The `q = 2` extreme (§3.3): one reducer per potential output pair; each
/// string goes to the `b` reducers of the pairs it belongs to, so `r = b`,
/// matching the lower bound `b / log₂2`.
#[derive(Debug, Clone, Copy)]
pub struct PairsSchema {
    /// Bit-string length.
    pub b: u32,
}

impl MappingSchema<HammingProblem> for PairsSchema {
    fn assign(&self, input: &u64) -> Vec<ReducerId> {
        let w = *input;
        (0..self.b)
            .map(|i| {
                let partner = w ^ (1u64 << i);
                let low = w.min(partner);
                low * self.b as u64 + i as u64
            })
            .collect()
    }

    fn max_inputs_per_reducer(&self) -> u64 {
        2
    }

    fn name(&self) -> String {
        format!("pairs(b={})", self.b)
    }
}

/// Deletes segment `seg` (of width `width` bits) from `w`.
pub(crate) fn remove_segment(w: u64, seg: u32, width: u32) -> u64 {
    let lo_bits = seg * width;
    let low = w & ((1u64 << lo_bits) - 1);
    // The top segment of a 64-bit string ends at bit 64: nothing is above it.
    let high = w.checked_shr(lo_bits + width).unwrap_or(0);
    low | (high << lo_bits)
}

/// Refuses the shapes the encodings cannot hold: strings are `u64`s, a
/// reducer's size `2^{(b/k)·d}` is reported as a `u64`, and a reducer id
/// packs the group index above the `b − (b/k)·d` surviving bits.
pub(crate) fn assert_encodable(b: u32, k: u32, d: u32) {
    assert!(b <= u64::BITS, "b={b} does not fit a 64-bit string");
    let deleted = b / k * d;
    assert!(
        deleted < u64::BITS,
        "reducer size 2^{deleted} (b={b}, k={k}, d={d}) does not fit a u64"
    );
    let residual_bits = b - deleted;
    assert!(
        (binomial(k as u64, d as u64) as u128) << residual_bits <= 1u128 << ReducerId::BITS,
        "reducer-id space C({k},{d})·2^{residual_bits} (b={b}) does not fit a ReducerId"
    );
}

/// Candidate pairs [`near_pairs`] buffers on the stack before handing them
/// on; a power of two, so a position below it indexes the block unchecked.
const CANDIDATE_BLOCK: usize = 64;

/// The near-pair kernel every Hamming reducer runs: calls `on_pair(i, j)`
/// for every `i < j` whose strings `word(&items[i])` and `word(&items[j])`
/// lie at Hamming distance `1..=d`, in the `i < j` scan's order.
///
/// The scan takes no branch that depends on the strings. Every pair's
/// positions, packed as `i << 32 | j`, are written to a fixed stack block,
/// whose length then grows by the distance test's 0 or 1:
/// `popcount(a ^ b).wrapping_sub(1) < d`, where distance 0 wraps to
/// `u32::MAX`. A full block, and the last partial one, is handed to
/// `on_pair` in order, so whatever the caller decides per pair runs on
/// candidates only.
///
/// # Panics
/// Panics on more than `2^32` items, whose positions do not pack.
// Inlined into each caller, so a constant `d` (the DAG reducers' 1) folds
// into the distance test: out of line it ran the general popcount.
#[inline]
pub(crate) fn near_pairs<T>(
    items: &[T],
    word: impl Fn(&T) -> u64,
    d: u32,
    mut on_pair: impl FnMut(usize, usize),
) {
    let n = items.len();
    assert!(
        n as u64 <= 1 << 32,
        "{n} strings in one reducer: positions pack in 32 bits"
    );
    let mut block = [0u64; CANDIDATE_BLOCK];
    let mut len = 0;
    let mut flush = |block: &[u64]| {
        for &pair in block {
            on_pair((pair >> 32) as usize, pair as u32 as usize);
        }
    };
    for (i, a) in items.iter().enumerate() {
        let a = word(a);
        let mut from = i + 1;
        while from < n {
            // The block has room for every pair up to `end`, so `len` stays
            // below `CANDIDATE_BLOCK` inside the scan and the index is in range.
            let end = n.min(from + CANDIDATE_BLOCK - len);
            let first = (i as u64) << 32 | from as u64;
            for (pair, b) in (first..).zip(&items[from..end]) {
                block[len % CANDIDATE_BLOCK] = pair;
                len += ((a ^ word(b)).count_ones().wrapping_sub(1) < d) as usize;
            }
            from = end;
            if len == CANDIDATE_BLOCK {
                flush(&block);
                len = 0;
            }
        }
    }
    flush(&block[..len]);
}

/// Deletes the segments set in the mask `segs`, each of `width` bits.
fn remove_segments(w: u64, mut segs: u64, width: u32) -> u64 {
    // Delete from the highest segment down so lower indices stay valid.
    let mut out = w;
    while segs != 0 {
        let s = u64::BITS - 1 - segs.leading_zeros();
        out = remove_segment(out, s, width);
        segs ^= 1 << s;
    }
    out
}

/// The distance-`d` generalisation (§3.6): split into `k` segments and
/// create one reducer group per `d`-subset of segments to delete. Two
/// strings at distance ≤ `d` disagree in at most `d` segments, so some
/// deletion subset hides all their differences. Replication is `C(k,d)`,
/// reducer size `2^{b·d/k}`.
#[derive(Debug, Clone)]
pub struct DistanceDSplittingSchema {
    /// Bit-string length.
    pub b: u32,
    /// Number of segments (must divide `b`).
    pub k: u32,
    /// Distance bound (number of segments deleted per reducer group).
    pub d: u32,
    /// Each group's deletion set as a mask of segment bits, in group order.
    groups: Vec<u64>,
    /// The segment each of the 64 bit positions lies in.
    segment_of: [u8; 64],
}

impl DistanceDSplittingSchema {
    /// Creates the schema.
    ///
    /// # Panics
    /// Panics unless `k` divides `b <= 64`, `1 <= d <= k`, and both the
    /// reducer size `2^{(b/k)·d}` and the id space
    /// `C(k,d) · 2^{b − (b/k)·d}` fit 64 bits.
    pub fn new(b: u32, k: u32, d: u32) -> Self {
        assert!(k >= 1 && k <= b, "k={k} must be in 1..={b}");
        assert_eq!(b % k, 0, "k={k} must divide b={b}");
        assert!(d >= 1 && d <= k, "d={d} must be in 1..={k}");
        assert_encodable(b, k, d);
        DistanceDSplittingSchema {
            b,
            k,
            d,
            groups: combinations(k, d)
                .iter()
                .map(|segs| segs.iter().fold(0, |mask, &seg| mask | 1 << seg))
                .collect(),
            segment_of: std::array::from_fn(|bit| (bit as u32 / (b / k)) as u8),
        }
    }

    /// Reducer size `q = 2^{b·d/k}` (the deleted bits are free).
    pub fn q(&self) -> u64 {
        1u64 << (self.b / self.k * self.d)
    }

    /// Replication rate `r = C(k,d)` (§3.6's `k^d/d!` approximation is the
    /// large-`k` asymptote of this).
    pub fn replication(&self) -> u64 {
        binomial(self.k as u64, self.d as u64)
    }

    /// String `w`'s reducer in group `group` (in `0..replication()`): the
    /// group index packed above `w` with the group's segments deleted.
    /// At `d = 1` group `i` deletes segment `i`.
    pub(crate) fn group_reducer(&self, w: u64, group: usize) -> ReducerId {
        let width = self.b / self.k;
        let residual_bits = self.b - width * self.d;
        (group as u64) << residual_bits | remove_segments(w, self.groups[group], width)
    }
}

/// All `d`-subsets of `0..k` in lexicographic order.
fn combinations(k: u32, d: u32) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut cur: Vec<u32> = (0..d).collect();
    loop {
        out.push(cur.clone());
        // Advance.
        let mut i = d as i64 - 1;
        while i >= 0 && cur[i as usize] == k - d + i as u32 {
            i -= 1;
        }
        if i < 0 {
            return out;
        }
        let i = i as usize;
        cur[i] += 1;
        for j in (i + 1)..d as usize {
            cur[j] = cur[j - 1] + 1;
        }
    }
}

impl MappingSchema<HammingProblem> for DistanceDSplittingSchema {
    fn assign(&self, input: &u64) -> Vec<ReducerId> {
        (0..self.groups.len())
            .map(|group| self.group_reducer(*input, group))
            .collect()
    }

    fn max_inputs_per_reducer(&self) -> u64 {
        self.q()
    }

    fn name(&self) -> String {
        format!("splitting-d(b={}, k={}, d={})", self.b, self.k, self.d)
    }
}

/// Running distance-`d` splitting on *instance* data (a fuzzy join, \[3\]):
/// each reducer compares its strings pairwise and emits pairs at Hamming
/// distance `1..=d`. A pair differing in segment set `D` (`|D| ≤ d`)
/// appears in every reducer group whose deletion set contains `D`; only
/// one of them — the pair's *owner* — emits it, so output is
/// duplicate-free.
///
/// The owner is `D` padded with the lowest-numbered segments not in it
/// until it has `d` members. Segment sets are subsets of `0..k` with
/// `k ≤ 64`, so the rule is mask arithmetic on a `u64`: map each set bit
/// of `u ^ v` to its segment through a 64-entry table built in `new`
/// (counting the distinct segments as they are set), set the mask's lowest
/// clear bit once per missing member, and compare with the reducer's
/// deletion mask, also precomputed per group.
///
/// The pairs come from `near_pairs`, the one kernel every Hamming
/// reducer runs (the `DagJob` variants in `multi_round` too): a
/// branch-free pass buffers the positions of the pairs at distance
/// `1..=d`, and the owner rule runs on those candidates only. Nothing is
/// allocated per pair, and a reducer's emit sequence is the `i < j` scan's
/// order exactly.
impl mr_sim::schema::SchemaJob<u64, (u64, u64)> for DistanceDSplittingSchema {
    fn assign_into(&self, input: &u64, emit: &mut dyn FnMut(ReducerId)) {
        for group in 0..self.groups.len() {
            emit(self.group_reducer(*input, group));
        }
    }

    /// Collected into an exactly sized `Vec`: one allocation.
    fn assign(&self, input: &u64) -> Vec<ReducerId> {
        MappingSchema::assign(self, input)
    }

    fn reduce(
        &self,
        reducer: crate::model::ReducerId,
        inputs: &[u64],
        emit: &mut dyn FnMut((u64, u64)),
    ) {
        let residual_bits = self.b - self.b / self.k * self.d;
        let group = self.groups[(reducer >> residual_bits) as usize];
        near_pairs(
            inputs,
            |&w| w,
            self.d,
            |i, j| {
                let (u, v) = (inputs[i].min(inputs[j]), inputs[i].max(inputs[j]));
                let (mut diff, mut owner, mut segments) = (u ^ v, 0u64, 0);
                while diff != 0 {
                    let segment = 1 << self.segment_of[diff.trailing_zeros() as usize];
                    segments += (owner & segment == 0) as u32;
                    owner |= segment;
                    diff &= diff - 1;
                }
                for _ in segments..self.d {
                    owner |= owner + 1;
                }
                if owner == group {
                    emit((u, v));
                }
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::validate_schema;
    use crate::problems::hamming::problem::{hamming_distance, theorem32_lower_bound};

    #[test]
    fn remove_segment_bit_surgery() {
        // w = 0b110_010_101, segments of width 3 (b=9).
        let w = 0b110_010_101u64;
        assert_eq!(remove_segment(w, 0, 3), 0b110_010);
        assert_eq!(remove_segment(w, 1, 3), 0b110_101);
        assert_eq!(remove_segment(w, 2, 3), 0b010_101);
        // The top segment of a 64-bit string ends exactly at bit 64.
        let w = 0xAB00_0000_0000_00CDu64;
        assert_eq!(remove_segment(w, 7, 8), 0xCD);
        assert_eq!(remove_segment(w, 0, 8), 0x00AB_0000_0000_0000);
        assert_eq!(remove_segment(w, 0, 64), 0);
    }

    #[test]
    fn remove_multiple_segments() {
        let w = 0b11_10_01_00u64; // b=8, width 2
        assert_eq!(remove_segments(w, 0b1001, 2), 0b10_01);
        assert_eq!(remove_segments(w, 0b0110, 2), 0b11_00);
    }

    #[test]
    fn pairs_schema_is_valid_and_matches_bound() {
        let b = 6;
        let p = HammingProblem::distance_one(b);
        let s = PairsSchema { b };
        let report = validate_schema(&p, &s);
        assert!(report.is_valid(), "{report:?}");
        assert_eq!(report.max_load, 2);
        // r = b exactly = lower bound at q = 2.
        assert!((report.replication_rate - b as f64).abs() < 1e-9);
        assert!((report.replication_rate - theorem32_lower_bound(b, 2.0)).abs() < 1e-9);
    }

    #[test]
    fn splitting_schema_valid_for_all_divisors() {
        let b = 8;
        let p = HammingProblem::distance_one(b);
        for c in [1u32, 2, 4, 8] {
            let s = DistanceDSplittingSchema::new(b, c, 1);
            let report = validate_schema(&p, &s);
            assert!(report.is_valid(), "c={c}: {report:?}");
            // Replication is exactly c — exactly on the hyperbola.
            assert!(
                (report.replication_rate - c as f64).abs() < 1e-9,
                "c={c}: r={}",
                report.replication_rate
            );
            assert_eq!(s.replication(), c as u64);
            // Reducer load is exactly 2^{b/c} for every reducer.
            assert_eq!(report.max_load, s.q());
            let bound = theorem32_lower_bound(b, s.q() as f64);
            assert!(
                (report.replication_rate - bound).abs() < 1e-9,
                "c={c}: r={} vs bound {bound}",
                report.replication_rate
            );
        }
    }

    #[test]
    fn splitting_c1_is_single_reducer() {
        let s = DistanceDSplittingSchema::new(6, 1, 1);
        let p = HammingProblem::distance_one(6);
        let report = validate_schema(&p, &s);
        assert!(report.is_valid());
        assert_eq!(report.num_reducers, 1);
        assert!((report.replication_rate - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn splitting_rejects_non_divisor() {
        DistanceDSplittingSchema::new(8, 3, 1);
    }

    #[test]
    #[should_panic(expected = "does not fit a 64-bit string")]
    fn splitting_rejects_strings_wider_than_64_bits() {
        DistanceDSplittingSchema::new(128, 2, 1);
    }

    #[test]
    #[should_panic(expected = "does not fit a ReducerId")]
    fn splitting_rejects_an_id_space_wider_than_a_reducer_id() {
        // 64 groups over 63 surviving bits: 2^69 ids.
        DistanceDSplittingSchema::new(64, 64, 1);
    }

    #[test]
    #[should_panic(expected = "does not fit a ReducerId")]
    fn distance_d_rejects_an_id_space_wider_than_a_reducer_id() {
        // C(32,2) = 496 groups over 60 surviving bits.
        DistanceDSplittingSchema::new(64, 32, 2);
    }

    #[test]
    #[should_panic(expected = "does not fit a u64")]
    fn distance_d_rejects_a_reducer_size_of_two_to_the_64() {
        DistanceDSplittingSchema::new(64, 8, 8);
    }

    #[test]
    fn combinations_enumeration() {
        assert_eq!(combinations(4, 2).len(), 6);
        assert_eq!(combinations(4, 2)[0], vec![0, 1]);
        assert_eq!(combinations(4, 2)[5], vec![2, 3]);
        assert_eq!(combinations(3, 3), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn distance_d_splitting_covers_distance_2() {
        let b = 8;
        let p = HammingProblem::new(b, 2);
        let s = DistanceDSplittingSchema::new(b, 4, 2);
        let report = validate_schema(&p, &s);
        assert!(report.is_valid(), "{report:?}");
        // r = C(4,2) = 6 exactly.
        assert!((report.replication_rate - 6.0).abs() < 1e-9);
        assert_eq!(report.max_load, s.q()); // 2^{8/4*2} = 16
    }

    #[test]
    fn distance_d_splitting_also_covers_smaller_distances() {
        // Deleting d segments hides up to d differing bits, so the schema
        // covers distance-1 pairs too.
        let b = 8;
        let p1 = HammingProblem::distance_one(b);
        let s = DistanceDSplittingSchema::new(b, 4, 2);
        let report = validate_schema(&p1, &s);
        assert_eq!(report.uncovered_outputs, 0);
    }

    #[test]
    fn distance_d_reduces_to_plain_splitting_when_d_is_1() {
        // §3.3's Splitting: string `w`'s Group-`i` reducer is `w` with
        // segment `i` deleted, the group index packed above the surviving
        // bits; `k` groups of `2^{b − b/k}` reducers, each of size `2^{b/k}`.
        let b = 8;
        let p = HammingProblem::distance_one(b);
        for k in [1u32, 2, 4, 8] {
            let s = DistanceDSplittingSchema::new(b, k, 1);
            let width = b / k;
            for w in 0..1u64 << b {
                let plain: Vec<ReducerId> = (0..k)
                    .map(|i| (i as u64) << (b - width) | remove_segment(w, i, width))
                    .collect();
                assert_eq!(MappingSchema::assign(&s, &w), plain, "k={k}, w={w}");
            }
            let report = validate_schema(&p, &s);
            assert_eq!(report.replication_rate, k as f64, "k={k}");
            assert_eq!(report.max_load, 1 << width, "k={k}");
            assert_eq!(report.num_reducers, (k as u64) << (b - width), "k={k}");
        }
    }

    #[test]
    fn splitting_covers_the_cumulative_fuzzy_join_problem() {
        // §3.6 / [3]: deleting d segments covers ALL pairs at distance
        // <= d, i.e. the within-distance problem.
        let p = HammingProblem::within_distance(8, 2);
        let s = DistanceDSplittingSchema::new(8, 4, 2);
        let report = validate_schema(&p, &s);
        assert!(report.is_valid(), "{report:?}");
    }

    #[test]
    fn fuzzy_join_on_instance_data_matches_serial_scan() {
        use mr_sim::{run_schema, EngineConfig};
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        // A random subset of 12-bit strings; find all pairs at distance
        // <= 2 via the distributed schema and a serial all-pairs scan.
        let b = 12u32;
        let d = 2u32;
        let mut rng = StdRng::seed_from_u64(77);
        let mut strings: Vec<u64> = (0..500).map(|_| rng.random_range(0..(1u64 << b))).collect();
        strings.sort_unstable();
        strings.dedup();

        let mut expected: Vec<(u64, u64)> = Vec::new();
        for i in 0..strings.len() {
            for j in (i + 1)..strings.len() {
                let dist = hamming_distance(strings[i], strings[j]);
                if dist >= 1 && dist <= d {
                    expected.push((strings[i], strings[j]));
                }
            }
        }
        expected.sort_unstable();

        let schema = DistanceDSplittingSchema::new(b, 4, d);
        for cfg in [EngineConfig::sequential(), EngineConfig::parallel(4)] {
            let (mut found, metrics) = run_schema(&strings, &schema, &cfg).unwrap();
            found.sort_unstable();
            assert_eq!(found, expected);
            // Replication is exactly C(k,d) = 6 per input.
            assert!((metrics.replication_rate() - 6.0).abs() < 1e-9);
        }
    }

    /// All pairs of `strings` (by position, so duplicates count) at
    /// distance `1..=d`, smaller string first, sorted.
    fn serial_scan(strings: &[u64], d: u32) -> Vec<(u64, u64)> {
        let mut pairs = Vec::new();
        for (i, &u) in strings.iter().enumerate() {
            for &v in &strings[i + 1..] {
                if (1..=d).contains(&hamming_distance(u, v)) {
                    pairs.push((u.min(v), u.max(v)));
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn sixty_four_bit_strings_match_serial_scan() {
        use mr_sim::{run_schema, EngineConfig};
        // Flips in the bottom, a middle and the top segment, plus the
        // complement (distance 64): the top segment's deletion shifts by
        // exactly 64 bits.
        let w = 0x9E37_79B9_7F4A_7C15u64;
        let strings = [w, w ^ 1, w ^ (1 << 40), w ^ (1 << 63), !w];
        let expected = serial_scan(&strings, 1);
        assert_eq!(expected.len(), 3);
        let schema = DistanceDSplittingSchema::new(64, 8, 1);
        for cfg in [EngineConfig::sequential(), EngineConfig::parallel(4)] {
            let (mut found, metrics) = run_schema(&strings, &schema, &cfg).unwrap();
            found.sort_unstable();
            assert_eq!(found, expected);
            assert!((metrics.replication_rate() - 8.0).abs() < 1e-9);
        }
    }

    /// The owner rule as it was before the mask kernel: the differing
    /// segments as a `Vec`, padded with the smallest absent segments,
    /// sorted and compared with the reducer's deletion set, one of
    /// `combos = combinations(k, d)`. Kept as the reference the mask
    /// version is tested against.
    fn reduce_reference(
        schema: &DistanceDSplittingSchema,
        combos: &[Vec<u32>],
        reducer: ReducerId,
        inputs: &[u64],
        emit: &mut dyn FnMut((u64, u64)),
    ) {
        let width = schema.b / schema.k;
        let residual_bits = schema.b - width * schema.d;
        let combo = &combos[(reducer >> residual_bits) as usize];
        let seg_mask = |seg: u32| (u64::MAX >> (64 - width)) << (seg * width);
        for i in 0..inputs.len() {
            for j in (i + 1)..inputs.len() {
                let (u, v) = (inputs[i].min(inputs[j]), inputs[i].max(inputs[j]));
                let dist = (u ^ v).count_ones();
                if dist == 0 || dist > schema.d {
                    continue;
                }
                let differing: Vec<u32> = (0..schema.k)
                    .filter(|&s| (u ^ v) & seg_mask(s) != 0)
                    .collect();
                let mut owner = differing.clone();
                for s in 0..schema.k {
                    if owner.len() == schema.d as usize {
                        break;
                    }
                    if !differing.contains(&s) {
                        owner.push(s);
                    }
                }
                owner.sort_unstable();
                if &owner == combo {
                    emit((u, v));
                }
            }
        }
    }

    #[test]
    fn mask_owner_rule_matches_the_vec_reference() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        use std::collections::BTreeMap;
        let mut rng = StdRng::seed_from_u64(0x0b17_a5c5);
        for case in 0..300 {
            let width: u32 = [1, 2, 3, 4, 8][rng.random_range(0..5usize)];
            let k = rng.random_range(1..=(64 / width).min(16));
            let d = rng.random_range(1..=k.min(3));
            let b = width * k;
            let schema = DistanceDSplittingSchema::new(b, k, d);
            let combos = combinations(k, d);
            let domain = u64::MAX >> (64 - b);

            // A multiset built to collide: a few bases, each with near
            // neighbours (1..=d+1 flipped bits), strings that differ from
            // it only inside <= d whole segments (same reducer, any
            // distance), and verbatim duplicates.
            let mut strings: Vec<u64> = Vec::new();
            for _ in 0..rng.random_range(1..4) {
                let base = rng.random::<u64>() & domain;
                strings.push(base);
                for _ in 0..rng.random_range(0..8) {
                    let mut w = base;
                    for _ in 0..rng.random_range(1..=d + 1) {
                        w ^= 1 << rng.random_range(0..b);
                    }
                    strings.push(w);
                }
                for _ in 0..rng.random_range(0..6) {
                    let mut w = base;
                    for _ in 0..rng.random_range(1..=d) {
                        let seg = rng.random_range(0..k);
                        let noise = rng.random::<u64>() & (u64::MAX >> (64 - width));
                        w ^= noise << (seg * width);
                    }
                    strings.push(w);
                }
            }
            for _ in 0..rng.random_range(0..4) {
                strings.push(strings[rng.random_range(0..strings.len())]);
            }

            // Route by hand (input order within a reducer, as the engine
            // delivers it) so the kernel is tested without the engine.
            let mut reducers: BTreeMap<ReducerId, Vec<u64>> = BTreeMap::new();
            for w in &strings {
                for id in MappingSchema::assign(&schema, w) {
                    reducers.entry(id).or_default().push(*w);
                }
            }
            let mut emitted = Vec::new();
            for (&id, inputs) in &reducers {
                let mut mask = Vec::new();
                let mut reference = Vec::new();
                mr_sim::schema::SchemaJob::reduce(&schema, id, inputs, &mut |p| mask.push(p));
                reduce_reference(&schema, &combos, id, inputs, &mut |p| reference.push(p));
                assert_eq!(
                    mask, reference,
                    "case {case}: b={b} k={k} d={d} reducer {id}: emit sequence differs"
                );
                emitted.extend(mask);
            }
            // Every pair at distance 1..=d is emitted by exactly one reducer.
            emitted.sort_unstable();
            assert_eq!(
                emitted,
                serial_scan(&strings, d),
                "case {case}: b={b} k={k} d={d}"
            );
        }
    }

    #[test]
    fn reducers_beyond_one_candidate_block_match_the_reference() {
        // One reducer of all 256 strings: 1,024 pairs at distance 1 for
        // (8, 1, 1), 4,608 at distance 1..=2 for (8, 2, 2), so the kernel
        // flushes full blocks before its last partial one. The strings come
        // ascending, then scrambled by an odd multiplier.
        for (b, k, d, pairs) in [(8u32, 1u32, 1u32, 1024usize), (8, 2, 2, 4608)] {
            let schema = DistanceDSplittingSchema::new(b, k, d);
            let combos = combinations(k, d);
            for stride in [1u64, 167] {
                let strings: Vec<u64> = (0..1u64 << b).map(|w| w * stride % (1 << b)).collect();
                let mut reducers = std::collections::BTreeSet::new();
                for w in &strings {
                    reducers.extend(MappingSchema::assign(&schema, w));
                }
                assert_eq!(reducers.len(), 1, "b={b} k={k} d={d}");
                let id = reducers.into_iter().next().unwrap();
                let mut kernel = Vec::new();
                let mut reference = Vec::new();
                mr_sim::schema::SchemaJob::reduce(&schema, id, &strings, &mut |p| kernel.push(p));
                reduce_reference(&schema, &combos, id, &strings, &mut |p| reference.push(p));
                assert_eq!(kernel.len(), pairs, "b={b} k={k} d={d}");
                assert!(pairs > CANDIDATE_BLOCK);
                assert_eq!(kernel, reference, "b={b} k={k} d={d} stride {stride}");
            }
        }
    }

    #[test]
    fn distance_3_coverage() {
        let b = 6;
        let p = HammingProblem::new(b, 3);
        let s = DistanceDSplittingSchema::new(b, 3, 3);
        // Deleting all 3 segments leaves one reducer per combo — i.e. one
        // reducer total per group, covering everything.
        let report = validate_schema(&p, &s);
        assert!(report.is_valid(), "{report:?}");
        assert!((report.replication_rate - 1.0).abs() < 1e-9);
    }
}
