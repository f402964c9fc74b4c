//! Small measurement helpers: percentiles, an order-independent digest,
//! a seeded generator, and the process's peak resident set.

use std::time::Duration;

/// The `p`-th percentile (`0.0..=100.0`) of `samples`, interpolating
/// linearly between the two closest ranks — so the median of an even
/// count is the mean of the two middle samples. `0.0` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Milliseconds as a float, keeping the nanosecond digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// SplitMix64's output function: a bijective 64-bit mixer.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An order-independent digest of a multiset of `u64` items: the item
/// count plus the wrapping sum of each item's [`mix64`]. Two multisets
/// with equal digests are equal with overwhelming probability, and the
/// digest does not depend on the order items were added in — which is
/// what comparing an engine's output with a brute-force enumeration
/// needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    /// Items added.
    pub count: u64,
    /// Wrapping sum of the mixed items.
    pub sum: u64,
}

impl Digest {
    /// Adds one item.
    pub fn add(&mut self, item: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(mix64(item));
    }

    /// Adds an ordered pair of 32-bit-representable values as one item.
    pub fn add_pair(&mut self, u: u64, v: u64) {
        debug_assert!(u < 1 << 32 && v < 1 << 32);
        self.add(u << 32 | v);
    }
}

/// SplitMix64: the benchmark's only source of randomness, so that a
/// `--seed` fixes every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// A uniform index in `0..n` (rejection sampling, so no modulo bias).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) has no valid result");
        let n = n as u64;
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next_u64();
            if x < zone {
                return (x % n) as usize;
            }
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, or `0.0` where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| parse_vm_hwm_kib(&status))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Extracts the `VmHWM` line's KiB figure from a `/proc/<pid>/status` text.
fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((percentile(&xs, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let a = [5.0, 9.0, 1.0, 3.0, 7.0];
        let b = [1.0, 3.0, 5.0, 7.0, 9.0];
        for p in [10.0, 50.0, 90.0, 99.0] {
            assert_eq!(percentile(&a, p), percentile(&b, p));
        }
    }

    #[test]
    fn digest_is_order_independent_and_content_sensitive() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        for x in 0..1000u64 {
            a.add(x);
            b.add(999 - x);
        }
        assert_eq!(a, b);
        let mut c = Digest::default();
        for x in 1..=1000u64 {
            c.add(x);
        }
        assert_ne!(a, c);
        // A duplicated item is not cancelled by a missing one.
        let mut d = Digest::default();
        for x in (0..998u64).chain([0, 0]) {
            d.add(x);
        }
        assert_eq!(d.count, a.count);
        assert_ne!(d, a);
    }

    #[test]
    fn digest_pairs_are_ordered() {
        let mut a = Digest::default();
        a.add_pair(1, 2);
        let mut b = Digest::default();
        b.add_pair(2, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn rng_repeats_per_seed_and_differs_across_seeds() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn below_stays_in_range_and_shuffle_permutes() {
        let mut rng = Rng::new(1);
        for n in [1usize, 2, 3, 64, 1000] {
            for _ in 0..200 {
                assert!(rng.below(n) < n);
            }
        }
        let mut items: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut items);
        assert_ne!(items, (0..100).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn vm_hwm_is_parsed_from_status_text() {
        let status = "Name:\tmr-perf\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }
}
