//! Weight-partition algorithms for large `q` (§3.4, §3.5), one type:
//! [`WeightSchemaD`].
//!
//! These algorithms reach replication rates strictly below 2 — the region
//! between `log₂q = b/2` and `log₂q = b` in Figure 1 that the Splitting
//! family cannot reach.
//!
//! The `d`-dimensional version (§3.5) splits each string into `d` pieces,
//! buckets it by the tuple of piece weights, `k` consecutive weights per
//! bucket, and replicates across each of the `d` lower faces: strings whose
//! piece weight sits on the *lower border* of its bucket are replicated to
//! the neighbouring bucket so that flipping a 1→0 across the border is
//! still covered. `r = 1 + d/k`, `log₂q ≈ b − (d/2)·log₂b`.
//!
//! The 2-D version (§3.4) is `d = 2`: each string is halved, replication
//! is `1 + 2/k − O(1/k²)` (§3.4 approximates it as `1 + 2/k`), and the
//! most populous cell has about `k²·2^b/(πb)` strings
//! ([`weight_2d_approx_q`](super::problem::weight_2d_approx_q)).

use crate::model::{MappingSchema, ReducerId};
use crate::problems::hamming::problem::HammingProblem;
use crate::recipe::binomial;

/// Weight-bucket index for weight `w` with bucket side `k` and
/// `num_groups` buckets (the last bucket absorbs the top weight, §3.4).
fn group_of(w: u32, k: u32, num_groups: u32) -> u32 {
    (w / k).min(num_groups - 1)
}

/// True when weight `w` is the lowest weight of its bucket (and there is a
/// bucket below): such strings are replicated to the neighbouring bucket.
fn is_lower_border(w: u32, k: u32, num_groups: u32) -> bool {
    w > 0 && w.is_multiple_of(k) && w / k < num_groups
}

/// Per-bucket `(native, replica)` string counts for one dimension of
/// `piece`-bit halves/pieces: `native[g]` counts strings whose weight maps
/// to bucket `g`; `replica[g]` counts border strings of bucket `g+1`
/// replicated down into `g`.
fn dim_counts(piece: u32, k: u32, num_groups: u32) -> (Vec<u64>, Vec<u64>) {
    let mut native = vec![0u64; num_groups as usize];
    let mut replica = vec![0u64; num_groups as usize];
    for w in 0..=piece {
        let count = binomial(piece as u64, w as u64);
        native[group_of(w, k, num_groups) as usize] += count;
        if is_lower_border(w, k, num_groups) {
            replica[(w / k - 1) as usize] += count;
        }
    }
    (native, replica)
}

/// The `d`-dimensional weight-partition schema (§3.5): split into `d`
/// pieces of `b/d` bits, bucket each piece's weight, and replicate across
/// each lower face.
#[derive(Debug, Clone, Copy)]
pub struct WeightSchemaD {
    /// Bit-string length (must be divisible by `d`).
    pub b: u32,
    /// Number of pieces.
    pub d: u32,
    /// Bucket side (must divide `b/d`).
    pub k: u32,
}

impl WeightSchemaD {
    /// Creates the schema.
    ///
    /// # Panics
    /// Panics unless `d` divides `b` and `k` divides `b/d`.
    pub fn new(b: u32, d: u32, k: u32) -> Self {
        assert!(d >= 1 && d <= b, "d={d} must be in 1..={b}");
        assert_eq!(b % d, 0, "d={d} must divide b={b}");
        let piece = b / d;
        assert!(k >= 1 && k <= piece, "k={k} must be in 1..={piece}");
        assert_eq!(piece % k, 0, "k={k} must divide b/d={piece}");
        WeightSchemaD { b, d, k }
    }

    fn num_groups(&self) -> u32 {
        (self.b / self.d) / self.k
    }

    /// §3.5's replication approximation `1 + d/k`.
    pub fn approx_replication(&self) -> f64 {
        1.0 + self.d as f64 / self.k as f64
    }

    /// Exact replication rate: the fraction of `b/d`-bit pieces whose
    /// weight is a lower border, counted with binomials. Each piece is a
    /// lower border independently, so `E[replicas] = 1 + d·frac`.
    pub fn exact_replication(&self) -> f64 {
        let piece = self.b / self.d;
        let ng = self.num_groups();
        let border: u64 = (0..=piece)
            .filter(|&w| is_lower_border(w, self.k, ng))
            .map(|w| binomial(piece as u64, w as u64))
            .sum();
        let frac = border as f64 / (1u64 << piece) as f64;
        1.0 + self.d as f64 * frac
    }

    /// Exact maximum cell load over all group tuples. A cell's load is
    /// `Π_t N_{g_t} + Σ_t R_{g_t}·Π_{u≠t} N_{g_u}` (native strings plus
    /// single-dimension border replicas), maximised by brute force over
    /// the `ng^d` cells.
    pub fn exact_max_load(&self) -> u64 {
        let ng = self.num_groups() as usize;
        let d = self.d as usize;
        let (native, replica) = dim_counts(self.b / self.d, self.k, self.num_groups());
        let mut max = 0u64;
        let mut cell = vec![0usize; d];
        loop {
            let mut load: u64 = cell.iter().map(|&g| native[g]).product();
            for t in 0..d {
                // Replicas in dimension t multiply the native counts of
                // every other dimension.
                let others: u64 = cell
                    .iter()
                    .enumerate()
                    .filter(|&(u, _)| u != t)
                    .map(|(_, &g)| native[g])
                    .product();
                load += replica[cell[t]] * others;
            }
            max = max.max(load);
            // Advance the mixed-radix counter.
            let mut t = 0;
            loop {
                if t == d {
                    return max;
                }
                cell[t] += 1;
                if cell[t] < ng {
                    break;
                }
                cell[t] = 0;
                t += 1;
            }
        }
    }
}

impl MappingSchema<HammingProblem> for WeightSchemaD {
    fn assign(&self, input: &u64) -> Vec<ReducerId> {
        let piece = self.b / self.d;
        let ng = self.num_groups();
        let mask = (1u64 << piece) - 1;
        // Per-piece weights and groups.
        let weights: Vec<u32> = (0..self.d)
            .map(|t| ((*input >> (t * piece)) & mask).count_ones())
            .collect();
        let groups: Vec<u32> = weights.iter().map(|&w| group_of(w, self.k, ng)).collect();
        let encode =
            |gs: &[u32]| -> u64 { gs.iter().fold(0u64, |acc, &g| acc * ng as u64 + g as u64) };
        let mut rs = vec![encode(&groups)];
        // A pair at distance 1 differs in exactly one piece, so only
        // single-dimension neighbours are needed.
        for t in 0..self.d as usize {
            if is_lower_border(weights[t], self.k, ng) {
                let mut gs = groups.clone();
                gs[t] -= 1;
                rs.push(encode(&gs));
            }
        }
        rs
    }

    fn max_inputs_per_reducer(&self) -> u64 {
        self.exact_max_load()
    }

    fn name(&self) -> String {
        format!("weight-{}d(b={}, k={})", self.d, self.b, self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::validate_schema;
    use crate::problems::hamming::problem::weight_2d_approx_q;

    #[test]
    fn group_and_border_logic() {
        // b/2 = 6, k = 3 → groups {0,1,2}, {3,4,5,6}.
        assert_eq!(group_of(0, 3, 2), 0);
        assert_eq!(group_of(2, 3, 2), 0);
        assert_eq!(group_of(3, 3, 2), 1);
        assert_eq!(group_of(6, 3, 2), 1); // absorbed extra weight
        assert!(is_lower_border(3, 3, 2));
        assert!(!is_lower_border(0, 3, 2));
        assert!(!is_lower_border(6, 3, 2)); // top weight is interior
        assert!(!is_lower_border(4, 3, 2));
    }

    #[test]
    fn weight_2d_is_a_valid_schema() {
        // All cases have at least two weight buckets per half, so the
        // border machinery is actually exercised.
        for (b, k) in [(8u32, 2u32), (10, 1), (12, 2), (12, 3)] {
            let p = HammingProblem::distance_one(b);
            let s = WeightSchemaD::new(b, 2, k);
            assert_eq!(s.name(), format!("weight-2d(b={b}, k={k})"));
            let report = validate_schema(&p, &s);
            assert!(report.is_valid(), "b={b} k={k}: {report:?}");
            // Exact replication accounting matches the measured rate.
            assert!(
                (report.replication_rate - s.exact_replication()).abs() < 1e-9,
                "b={b} k={k}: measured {} vs exact {}",
                report.replication_rate,
                s.exact_replication()
            );
            // And the §3.4 approximation 1 + 2/k is close.
            assert!(
                (report.replication_rate - s.approx_replication()).abs() < 0.45,
                "b={b} k={k}: measured {} vs approx {}",
                report.replication_rate,
                s.approx_replication()
            );
        }
    }

    #[test]
    fn weight_2d_replication_is_below_two() {
        // The whole point of §3.4: r < 2 where splitting can only give 2.
        // (k must leave at least two buckets per half, else r trivially 1.)
        for k in [2u32, 3] {
            let s = WeightSchemaD::new(12, 2, k);
            let p = HammingProblem::distance_one(12);
            let report = validate_schema(&p, &s);
            assert!(
                report.replication_rate < 2.0,
                "k={k}: r={}",
                report.replication_rate
            );
            assert!(report.replication_rate > 1.0);
        }
    }

    #[test]
    fn weight_2d_exact_max_load_matches_measured() {
        let b = 10;
        let s = WeightSchemaD::new(b, 2, 1);
        let p = HammingProblem::distance_one(b);
        let report = validate_schema(&p, &s);
        assert_eq!(report.max_load, s.exact_max_load());
    }

    #[test]
    fn weight_2d_q_approximation_is_in_the_ballpark() {
        // The §3.4 estimate k²2^b/(πb) keeps only the central binomial
        // term and ignores the replicated border weight, so it undershoots
        // by a b-independent constant; check the ratio is bounded and does
        // not grow with b.
        let ratio =
            |b: u32| WeightSchemaD::new(b, 2, 2).exact_max_load() as f64 / weight_2d_approx_q(b, 2);
        // With k=2 the true cell load is ≈ 8·C(b/2, b/4)² ≈ 8·approx/k²·…,
        // i.e. the ratio tends to a constant ≈ 8 from below.
        let r16 = ratio(16);
        let r32 = ratio(32);
        assert!((1.0..8.0).contains(&r16), "ratio at b=16: {r16}");
        assert!((1.0..8.0).contains(&r32), "ratio at b=32: {r32}");
    }

    #[test]
    fn weight_3d_and_4d_are_valid() {
        let b = 12;
        let p = HammingProblem::distance_one(b);
        for (d, k) in [(3u32, 2u32), (4, 3), (4, 1)] {
            let s = WeightSchemaD::new(b, d, k);
            let report = validate_schema(&p, &s);
            assert!(report.is_valid(), "d={d} k={k}: {report:?}");
            // r ≈ 1 + d/k, always within the paper's constant slack.
            let approx = s.approx_replication();
            assert!(
                (report.replication_rate - approx).abs() / approx < 0.6,
                "d={d} k={k}: measured {} vs approx {approx}",
                report.replication_rate
            );
            assert_eq!(report.max_load, s.exact_max_load(), "d={d} k={k}");
            assert!(
                (report.replication_rate - s.exact_replication()).abs() < 1e-9,
                "d={d} k={k}: measured {} vs exact {}",
                report.replication_rate,
                s.exact_replication()
            );
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_bad_k() {
        WeightSchemaD::new(10, 2, 4); // 4 does not divide 5
    }
}
