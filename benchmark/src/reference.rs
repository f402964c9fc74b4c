//! The machine-speed reference.
//!
//! The sandboxes this benchmark runs in share their host. A neighbour's
//! load slows memory-heavy code by a factor that flips between about 1
//! and 1.5 every few seconds and whose mix drifts over minutes, so the
//! raw wall times of two runs of the same code differ by 15–30 % and no
//! amount of sampling inside a run averages that away (`README.md` has
//! the A/A study). The untraced pass therefore runs this fixed kernel
//! before every half-second block of iterations and divides the block's
//! wall times by how much slower than nominal the kernel ran.
//!
//! The kernel belongs to the benchmark and calls nothing in the
//! program, so a change to the program cannot move it. It stresses what
//! the program's data plane stresses — a hashed scatter into buckets, a
//! sort inside each bucket, and a freshly allocated output — because a
//! reference only cancels the interference it feels itself.

use crate::stats::mix64;
use std::hint::black_box;
use std::time::Instant;

/// Pairs per kernel run.
const PAIRS: usize = 1 << 19;
/// Buckets the pairs are scattered into.
const BUCKET_BITS: u32 = 10;

/// The kernel's wall time on the reference sandbox when its host is
/// quiet, in milliseconds. Timings are reported as if the kernel had
/// taken exactly this long.
pub const NOMINAL_MS: f64 = 20.0;

/// The kernel and its reusable buffers.
pub struct Reference {
    scattered: Vec<(u64, u64)>,
    offsets: Vec<usize>,
    slowdowns: Vec<f64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            scattered: vec![(0, 0); PAIRS],
            offsets: vec![0; (1 << BUCKET_BITS) + 1],
            slowdowns: Vec::new(),
        }
    }
}

impl Reference {
    /// Runs the kernel once and returns how many times slower than
    /// nominal it ran: the factor to divide the wall times measured
    /// right after it by.
    pub fn slowdown(&mut self) -> f64 {
        let start = Instant::now();
        black_box(self.run());
        let slowdown = crate::stats::ms(start.elapsed()) / NOMINAL_MS;
        self.slowdowns.push(slowdown);
        slowdown
    }

    /// Runs the kernel, then `f` `calls` times, and returns each call's
    /// wall time in milliseconds divided by the slowdown the kernel
    /// just showed. The kernel leaves the caches cold, so a call that
    /// takes less than a few milliseconds should share its kernel run
    /// with others (`calls > 1`) and be read through their median.
    pub fn time<R>(&mut self, calls: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
        let slowdown = self.slowdown();
        (0..calls)
            .map(|_| {
                let start = Instant::now();
                black_box(f());
                crate::stats::ms(start.elapsed()) / slowdown
            })
            .collect()
    }

    /// Every factor [`slowdown`](Self::slowdown) has returned so far.
    pub fn slowdowns(&self) -> &[f64] {
        &self.slowdowns
    }

    fn run(&mut self) -> u64 {
        let bucket = |hash: u64| (hash >> (64 - BUCKET_BITS)) as usize;
        // Scatter by counting sort: one pass sizes the buckets, one
        // moves every pair to its place.
        self.offsets.fill(0);
        for i in 0..PAIRS as u64 {
            self.offsets[bucket(mix64(i)) + 1] += 1;
        }
        for b in 0..1 << BUCKET_BITS {
            self.offsets[b + 1] += self.offsets[b];
        }
        let mut cursor = self.offsets.clone();
        for i in 0..PAIRS as u64 {
            let hash = mix64(i);
            let slot = &mut cursor[bucket(hash)];
            self.scattered[*slot] = (hash, i);
            *slot += 1;
        }
        // Group: order each bucket by hash.
        for b in 0..1 << BUCKET_BITS {
            self.scattered[self.offsets[b]..self.offsets[b + 1]].sort_unstable();
        }
        // Materialise an output per pair into fresh memory.
        let outputs: Vec<(u64, u64)> = self
            .scattered
            .windows(2)
            .map(|w| (w[0].1, w[1].1))
            .collect();
        outputs
            .iter()
            .fold(0, |acc, &(u, v)| acc ^ u.wrapping_mul(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_orders_every_bucket() {
        let mut a = Reference::default();
        let mut b = Reference::default();
        assert_eq!(a.run(), b.run());
        assert_eq!(a.run(), b.run());
        assert_eq!(*a.offsets.last().unwrap(), PAIRS);
        assert!(a.scattered.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn slowdown_is_the_kernel_time_over_nominal() {
        let mut r = Reference::default();
        let first = r.slowdown();
        let second = r.slowdown();
        assert!(first > 0.0 && second > 0.0);
        assert_eq!(r.slowdowns(), [first, second]);
    }
}
