#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Offline stand-in for the `rand` crate.
//!
//! The workspace builds in environments with no crates.io access, so this
//! shim provides exactly the surface the member crates use:
//!
//! * [`rngs::StdRng`] — a seeded SplitMix64 generator (deterministic per
//!   seed, which is all the experiments and tests require),
//! * [`SeedableRng::seed_from_u64`],
//! * [`RngExt::random`] and [`RngExt::random_range`] for the primitive
//!   numeric types and ranges the workspace samples.
//!
//! The generator is **not** cryptographic and the integer range sampling
//! uses plain rejection-free reduction; both are fine for seeded test-data
//! generation, which is this workspace's only use of randomness.

/// A source of raw random 64-bit words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction of a generator from a seed.
pub trait SeedableRng: Sized {
    /// Creates a generator whose entire stream is a function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    //! Concrete generator implementations.

    /// SplitMix64: tiny, fast, passes BigCrush, and — the property the
    /// workspace actually relies on — fully deterministic per seed.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl crate::SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }

    impl crate::RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

/// Types that can be drawn uniformly from a generator via
/// [`RngExt::random`].
pub trait Standard: Sized {
    /// Draws one value.
    fn draw(rng: &mut dyn RngCore) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn draw(rng: &mut dyn RngCore) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn draw(rng: &mut dyn RngCore) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for u64 {
    fn draw(rng: &mut dyn RngCore) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn draw(rng: &mut dyn RngCore) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn draw(rng: &mut dyn RngCore) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges a value can be sampled from.
pub trait SampleRange<T> {
    /// Draws a value uniformly from the range.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn sample(self, rng: &mut dyn RngCore) -> T;
}

macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample(self, rng: &mut dyn RngCore) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }

        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample(self, rng: &mut dyn RngCore) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + (rng.next_u64() % (span + 1)) as $t
            }
        }
    )*};
}

impl_int_sample_range!(u8, u16, u32, u64, usize);

macro_rules! impl_signed_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample(self, rng: &mut dyn RngCore) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}

impl_signed_sample_range!(i32, i64, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample(self, rng: &mut dyn RngCore) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + (self.end - self.start) * f64::draw(rng)
    }
}

impl SampleRange<f32> for core::ops::Range<f32> {
    fn sample(self, rng: &mut dyn RngCore) -> f32 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + (self.end - self.start) * f32::draw(rng)
    }
}

/// Convenience sampling methods, blanket-implemented for every
/// [`RngCore`]. This plays the role of `rand::Rng` under the name the
/// workspace imports.
pub trait RngExt: RngCore {
    /// Draws a uniform value of type `T`.
    fn random<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::draw(self)
    }

    /// Draws a value uniformly from `range`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "p={p} must be in [0,1]");
        f64::draw(self) < p
    }
}

impl<R: RngCore> RngExt for R {}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{RngExt, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.random_range(0u64..1000), b.random_range(0u64..1000));
        }
    }

    #[test]
    fn ranges_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = rng.random_range(3u32..17);
            assert!((3..17).contains(&x));
            let y = rng.random_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&y));
            let z = rng.random_range(5usize..=5);
            assert_eq!(z, 5);
            let u: f64 = rng.random();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn unit_floats_cover_the_interval() {
        let mut rng = StdRng::seed_from_u64(2);
        let (mut lo, mut hi) = (false, false);
        for _ in 0..10_000 {
            let u: f64 = rng.random();
            lo |= u < 0.1;
            hi |= u > 0.9;
        }
        assert!(lo && hi, "samples never reached both tails");
    }
}
