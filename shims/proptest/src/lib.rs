//! Offline stand-in for `proptest`.
//!
//! Supports the subset this workspace's property tests use: the
//! [`proptest!`] macro (with an optional `#![proptest_config(...)]`
//! header), range and [`any`] strategies, `prop_map`,
//! `prop::collection::vec`, and the `prop_assert!` /
//! `prop_assert_eq!` macros.
//!
//! Differences from real proptest, by design:
//!
//! - **No shrinking.** A failing case reports its inputs (via `Debug` in
//!   the panic message) but is not minimized.
//! - **Deterministic inputs.** Each test derives its RNG seed from the
//!   test's name, so failures reproduce exactly across runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Runner configuration (case count).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

/// The random source handed to strategies: xoshiro256++ seeded from the
/// test name, so runs are reproducible.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Seed from an arbitrary string (the test name).
    pub fn from_name(name: &str) -> TestRng {
        // FNV-1a to fold the name into a u64, then SplitMix64 expansion.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut sm = h;
        let mut word = move || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        TestRng {
            s: [word(), word(), word(), word()],
        }
    }

    /// Next 64 random bits (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[0, span)`.
    pub fn below(&mut self, span: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
    }
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with a function.
    fn prop_map<O, F>(self, f: F) -> MapStrategy<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        MapStrategy { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct MapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for MapStrategy<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! tuple_strategy {
    ($($name:ident: $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A: 0, B: 1);
tuple_strategy!(A: 0, B: 1, C: 2);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3);

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.below(span as u64) as i128) as $t
            }
        }
    )*};
}
int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let v = self.start + (self.end - self.start) * rng.unit_f64() as $t;
                if v >= self.end { self.start } else { v }
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                (lo + (hi - lo) * rng.unit_f64() as $t).clamp(lo, hi)
            }
        }
    )*};
}
float_strategy!(f32, f64);

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// The strategy type returned by [`any`].
    type Strategy: Strategy<Value = Self>;

    /// Build the canonical strategy.
    fn arbitrary() -> Self::Strategy;
}

/// The strategy behind [`any`]: uniform over the type's full range.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnyStrategy<T> {
    _marker: core::marker::PhantomData<T>,
}

macro_rules! any_int {
    ($($t:ty),*) => {$(
        impl Strategy for AnyStrategy<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
        impl Arbitrary for $t {
            type Strategy = AnyStrategy<$t>;
            fn arbitrary() -> AnyStrategy<$t> {
                AnyStrategy { _marker: core::marker::PhantomData }
            }
        }
    )*};
}
any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for AnyStrategy<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

impl Arbitrary for bool {
    type Strategy = AnyStrategy<bool>;
    fn arbitrary() -> AnyStrategy<bool> {
        AnyStrategy {
            _marker: core::marker::PhantomData,
        }
    }
}

/// The canonical strategy for a type (`any::<u64>()` etc.).
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Length specification for [`vec()`]: built from `usize` ranges.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi_exclusive: r.end().saturating_add(1),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    /// Strategy producing `Vec`s of values from an element strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Vectors whose length is drawn from `size` and whose elements come
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_exclusive - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Strategy combinators namespace (mirrors `proptest::prop`-style paths;
/// the prelude re-exports the crate root as `prop`).
pub mod strategy {
    pub use super::{MapStrategy, Strategy};
}

/// The common imports: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

/// Run a block of property tests.
///
/// Accepts an optional `#![proptest_config(...)]` header followed by
/// `#[test] fn name(arg in strategy, ...) { body }` items. Each function
/// becomes a normal `#[test]` that evaluates its body over `cases`
/// random inputs; `prop_assert!`-style failures report the failing
/// inputs without shrinking.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(@cfg ($cfg); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(@cfg ($crate::ProptestConfig::default()); $($rest)*);
    };
}

/// Internal expansion helper for [`proptest!`]. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg ($cfg:expr); ) => {};
    (@cfg ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                // Render inputs up front: the body closure takes them by
                // value, so they are gone by the time a failure reports.
                let inputs = format!("{:?}", ($(&$arg,)+));
                #[allow(clippy::redundant_closure_call)]
                let result: ::std::result::Result<(), ::std::string::String> = (|| {
                    $body
                    #[allow(unreachable_code)]
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(message) = result {
                    panic!("proptest case {case} failed: {message}\ninputs: {inputs}");
                }
            }
        }
        $crate::__proptest_impl!(@cfg ($cfg); $($rest)*);
    };
}

/// Assert inside a [`proptest!`] body; failure fails the case with the
/// formatted message instead of panicking outright.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(format!(
                "assertion failed: {}", stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(format!($($fmt)*));
        }
    };
}

/// Equality assertion inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return ::std::result::Result::Err(format!(
                "assertion failed: `{} == {}` (left: {:?}, right: {:?})",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return ::std::result::Result::Err(format!(
                "assertion failed: `{} == {}` (left: {:?}, right: {:?}): {}",
                stringify!($left),
                stringify!($right),
                l,
                r,
                format!($($fmt)*)
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..17, y in -2.0f64..2.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
        }

        #[test]
        fn vec_lengths_respect_size(v in prop::collection::vec(0.0f64..1.0, 2..9)) {
            prop_assert!(v.len() >= 2 && v.len() < 9);
            prop_assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
        }

        #[test]
        fn prop_map_applies(x in (1u32..10).prop_map(|v| v * 2)) {
            prop_assert!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn any_u64_works(s in any::<u64>()) {
            let _ = s;
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = super::TestRng::from_name("x");
        let mut b = super::TestRng::from_name("x");
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
