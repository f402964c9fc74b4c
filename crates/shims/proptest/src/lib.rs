#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Offline stand-in for the `proptest` crate.
//!
//! The workspace builds with no crates.io access, so this shim implements
//! the subset of proptest the test suites use:
//!
//! * the [`proptest!`] macro (with the optional
//!   `#![proptest_config(...)]` header) generating one `#[test]` per
//!   property,
//! * [`Strategy`] implemented for numeric ranges and tuples, with the
//!   [`prop_map`](Strategy::prop_map),
//!   [`prop_flat_map`](Strategy::prop_flat_map),
//!   [`prop_filter`](Strategy::prop_filter), and
//!   [`prop_filter_map`](Strategy::prop_filter_map) combinators,
//! * [`collection::vec`] with exact, half-open, or inclusive size ranges,
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`].
//!
//! Differences from real proptest, deliberate for an offline shim: cases
//! are generated from a seed derived from the test's name (fully
//! deterministic run to run), and failing cases are reported by panic
//! without shrinking.

use std::ops::{Range, RangeInclusive};

pub mod test_runner {
    //! The deterministic RNG driving generation.

    /// SplitMix64 stream seeded from the property's name: every run of a
    //  given test sees the same cases.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the generator from an arbitrary string (FNV-1a hash).
        pub fn deterministic(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: h }
        }

        /// Returns the next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform `u64` in `[0, bound)`.
        ///
        /// # Panics
        /// Panics if `bound` is zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "cannot sample below 0");
            self.next_u64() % bound
        }
    }
}

use test_runner::TestRng;

/// How many consecutive rejections (from `prop_filter` /
/// `prop_filter_map`) a single case tolerates before the test aborts.
const MAX_REJECTS: u32 = 10_000;

/// Run-count configuration for a `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases each property is run with.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of test values.
///
/// `generate` returns `None` when a filter rejected the candidate; the
/// driver retries (up to `MAX_REJECTS` times) with fresh randomness.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Produces one candidate value, or `None` on filter rejection.
    fn generate(&self, rng: &mut TestRng) -> Option<Self::Value>;

    /// Produces one value, retrying rejections.
    ///
    /// # Panics
    /// Panics if the strategy rejects `MAX_REJECTS` candidates in a row.
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        for _ in 0..MAX_REJECTS {
            if let Some(v) = self.generate(rng) {
                return v;
            }
        }
        panic!("strategy rejected {MAX_REJECTS} candidates in a row");
    }

    /// Transforms generated values with `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` returns.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Keeps only values for which `f` returns `true`.
    fn prop_filter<F: Fn(&Self::Value) -> bool>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            _whence: whence,
            f,
        }
    }

    /// Simultaneously filters and maps: `None` rejects the candidate.
    fn prop_filter_map<O, F: Fn(Self::Value) -> Option<O>>(
        self,
        whence: &'static str,
        f: F,
    ) -> FilterMap<Self, F>
    where
        Self: Sized,
    {
        FilterMap {
            inner: self,
            _whence: whence,
            f,
        }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> Option<O> {
        self.inner.generate(rng).map(&self.f)
    }
}

/// Strategy returned by [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;

    fn generate(&self, rng: &mut TestRng) -> Option<T::Value> {
        let v = self.inner.generate(rng)?;
        (self.f)(v).generate(rng)
    }
}

/// Strategy returned by [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    _whence: &'static str,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
        self.inner.generate(rng).filter(&self.f)
    }
}

/// Strategy returned by [`Strategy::prop_filter_map`].
pub struct FilterMap<S, F> {
    inner: S,
    _whence: &'static str,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> Option<O>> Strategy for FilterMap<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> Option<O> {
        self.inner.generate(rng).and_then(&self.f)
    }
}

/// A strategy that always produces a clone of the same value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> Option<T> {
        Some(self.0.clone())
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                Some(self.start + rng.below(span) as $t)
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return Some(rng.next_u64() as $t);
                }
                Some(lo + rng.below(span + 1) as $t)
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_signed_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                assert!(self.start < self.end, "empty range strategy");
                let span = self.end.wrapping_sub(self.start) as u64;
                Some(self.start.wrapping_add(rng.below(span) as $t))
            }
        }
    )*};
}

impl_signed_range_strategy!(i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> Option<f64> {
        assert!(self.start < self.end, "empty range strategy");
        Some(self.start + (self.end - self.start) * rng.unit_f64())
    }
}

impl Strategy for Range<f32> {
    type Value = f32;

    fn generate(&self, rng: &mut TestRng) -> Option<f32> {
        assert!(self.start < self.end, "empty range strategy");
        Some(self.start + (self.end - self.start) * rng.unit_f64() as f32)
    }
}

macro_rules! impl_tuple_strategy {
    ($($S:ident : $idx:tt),+) => {
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Option<Self::Value> {
                Some(($(self.$idx.generate(rng)?,)+))
            }
        }
    };
}

impl_tuple_strategy!(A: 0);
impl_tuple_strategy!(A: 0, B: 1);
impl_tuple_strategy!(A: 0, B: 1, C: 2);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

pub mod collection {
    //! Strategies for collections.

    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Inclusive bounds on a generated collection's length.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<Vec<S::Value>> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo
                + if span == 0 {
                    0
                } else {
                    rng.below(span + 1) as usize
                };
            let mut out = Vec::with_capacity(len);
            for _ in 0..len {
                out.push(self.element.generate(rng)?);
            }
            Some(out)
        }
    }

    /// Generates `Vec`s of `element` values with a length drawn from
    /// `size` (an exact `usize`, a half-open range, or an inclusive
    /// range).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod prelude {
    //! Single-import surface mirroring `proptest::prelude`.

    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a property, failing the case on violation.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `body` over generated cases.
///
/// An optional `#![proptest_config(ProptestConfig::with_cases(n))]` first
/// line sets the case count for every property in the block.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng =
                $crate::test_runner::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for _case in 0..config.cases {
                $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                $body
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..10, y in 0.5f64..2.0, n in 1usize..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((0.5..2.0).contains(&y));
            prop_assert!((1..=4).contains(&n));
        }

        #[test]
        fn vec_lengths_respected(v in collection::vec(0u32..5, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&e| e < 5));
        }

        #[test]
        fn tuples_and_combinators(
            pair in (1u32..4, 1u32..4).prop_map(|(a, b)| a * b),
            odd in (0u64..100).prop_filter("odd", |v| v % 2 == 1),
        ) {
            prop_assert!((1..=9).contains(&pair));
            prop_assert!(odd % 2 == 1);
        }
    }

    #[test]
    fn flat_map_chains_strategies() {
        let strat = (2usize..5).prop_flat_map(|n| collection::vec(0u32..10, n));
        let mut rng = crate::test_runner::TestRng::deterministic("flat_map");
        for _ in 0..50 {
            let v = strat.sample(&mut rng);
            assert!(v.len() >= 2 && v.len() < 5);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let strat = collection::vec(0u32..1000, 0..50);
        let mut a = crate::test_runner::TestRng::deterministic("det");
        let mut b = crate::test_runner::TestRng::deterministic("det");
        for _ in 0..20 {
            assert_eq!(strat.sample(&mut a), strat.sample(&mut b));
        }
    }
}
