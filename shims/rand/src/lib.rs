//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no registry access, so the workspace vendors
//! the *subset* of the rand 0.8 API it actually uses: `StdRng` (seeded via
//! [`SeedableRng::seed_from_u64`]), the [`Rng`] extension methods
//! (`gen`, `gen_range`, `gen_bool`, `sample`), [`seq::SliceRandom`]
//! (`shuffle`, `choose`), and the [`distributions::Distribution`] trait.
//!
//! The generator is xoshiro256++ seeded through SplitMix64 — statistically
//! strong for simulation purposes and fully deterministic per seed. The
//! stream differs from upstream `StdRng` (ChaCha12); all experiment seeds
//! in this repository are self-contained, so only internal determinism
//! matters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Low-level generator interface: a source of random `u64`/`u32` words.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 random bits (upper half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Generators constructible from seed material.
pub trait SeedableRng: Sized {
    /// Build a generator from a `u64` seed (always available upstream,
    /// and the only constructor this workspace uses).
    fn seed_from_u64(state: u64) -> Self;
}

/// User-facing convenience methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Sample a value from the [`distributions::Standard`] distribution
    /// (uniform over the type's natural range; `[0, 1)` for floats).
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        distributions::Distribution::sample(&distributions::Standard, self)
    }

    /// Sample uniformly from a range (`a..b` or `a..=b`).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: distributions::SampleUniform,
        R: distributions::SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Bernoulli draw: `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }

    /// Sample from an explicit distribution.
    fn sample<T, D: distributions::Distribution<T>>(&mut self, distr: D) -> T {
        distr.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Named generator types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ with SplitMix64
    /// seed expansion.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            // xoshiro256++ (Blackman & Vigna, 2019).
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
    }
}

/// Distributions and range sampling.
pub mod distributions {
    use super::Rng;

    /// A distribution over values of type `T`.
    pub trait Distribution<T> {
        /// Draw one value using `rng` as the entropy source.
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The "natural" distribution for a type: uniform over all values for
    /// integers and `bool`, uniform in `[0, 1)` for floats.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Standard;

    impl Distribution<u64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
            rng.next_u64()
        }
    }

    impl Distribution<u32> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
            rng.next_u32()
        }
    }

    impl Distribution<u16> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u16 {
            (rng.next_u64() >> 48) as u16
        }
    }

    impl Distribution<u8> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u8 {
            (rng.next_u64() >> 56) as u8
        }
    }

    impl Distribution<usize> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
            rng.next_u64() as usize
        }
    }

    impl Distribution<i64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
            rng.next_u64() as i64
        }
    }

    impl Distribution<i32> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> i32 {
            rng.next_u32() as i32
        }
    }

    impl Distribution<bool> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() >> 63 == 1
        }
    }

    impl Distribution<f64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            // 53 uniform mantissa bits in [0, 1).
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl Distribution<f32> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
            // 24 uniform mantissa bits in [0, 1).
            (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
        }
    }

    /// Marker for types uniformly sampleable from ranges. Exists (as in
    /// real rand) to pin type inference: without it, `x * gen_range(..)`
    /// is ambiguous between `T` and `&T` operand impls.
    pub trait SampleUniform {}

    macro_rules! sample_uniform {
        ($($t:ty),*) => {$( impl SampleUniform for $t {} )*};
    }
    sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    /// A range that can be sampled uniformly (`gen_range` argument).
    pub trait SampleRange<T> {
        /// Draw one value uniformly from the range.
        fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
    }

    // Widening-multiply bounded integer draw (Lemire). The tiny modulo
    // bias (span / 2^64) is far below anything a simulation can observe.
    //
    // The integer draws are `#[inline]`: a Fisher–Yates shuffle makes one
    // per element (Oort shuffles ~500k ids a round at 1M clients), and
    // whether the inliner's per-codegen-unit heuristics leave it a call
    // is worth 2× on that selector.
    #[inline]
    fn bounded_u64<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
        debug_assert!(span > 0);
        ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
    }

    macro_rules! int_range {
        ($($t:ty),*) => {$(
            impl SampleRange<$t> for core::ops::Range<$t> {
                #[inline]
                fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                    assert!(self.start < self.end, "gen_range: empty range");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + bounded_u64(rng, span) as i128) as $t
                }
            }
            impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
                #[inline]
                fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "gen_range: empty range");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    if span > u64::MAX as u128 {
                        return rng.next_u64() as $t;
                    }
                    (lo as i128 + bounded_u64(rng, span as u64) as i128) as $t
                }
            }
        )*};
    }
    int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_range {
        ($($t:ty),*) => {$(
            impl SampleRange<$t> for core::ops::Range<$t> {
                fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                    assert!(self.start < self.end, "gen_range: empty range");
                    let u: $t = rng.gen();
                    let v = self.start + (self.end - self.start) * u;
                    // Guard the open upper bound against rounding.
                    if v >= self.end { <$t>::max(self.start, prev_down(self.end)) } else { v }
                }
            }
            impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
                fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "gen_range: empty range");
                    let u: $t = rng.gen();
                    let v = lo + (hi - lo) * u;
                    v.clamp(lo, hi)
                }
            }
        )*};
    }

    fn prev_down<T: FloatStep>(v: T) -> T {
        v.prev_down()
    }

    /// Helper for nudging a float just below a bound.
    trait FloatStep: Copy {
        fn prev_down(self) -> Self;
    }

    impl FloatStep for f64 {
        fn prev_down(self) -> f64 {
            let bits = self.to_bits();
            if self > 0.0 {
                f64::from_bits(bits - 1)
            } else {
                self
            }
        }
    }

    impl FloatStep for f32 {
        fn prev_down(self) -> f32 {
            let bits = self.to_bits();
            if self > 0.0 {
                f32::from_bits(bits - 1)
            } else {
                self
            }
        }
    }

    float_range!(f32, f64);
}

/// Sequence-related random operations.
pub mod seq {
    use super::Rng;

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// In-place Fisher–Yates shuffle.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// A uniformly random element, or `None` if empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

/// Rough equivalent of `rand::prelude`.
pub mod prelude {
    pub use super::distributions::Distribution;
    pub use super::rngs::StdRng;
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::distributions::{Distribution, Standard};
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn unit_floats_in_range() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
            let y: f32 = r.gen();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let i = r.gen_range(3usize..17);
            assert!((3..17).contains(&i));
            let f = r.gen_range(-2.5f64..7.5);
            assert!((-2.5..7.5).contains(&f));
            let k = r.gen_range(2u32..=16);
            assert!((2..=16).contains(&k));
            let s = r.gen_range(-4i64..5);
            assert!((-4..5).contains(&s));
        }
    }

    #[test]
    fn uniform_mean_is_sane() {
        let mut r = StdRng::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn shuffle_and_choose() {
        let mut r = StdRng::seed_from_u64(5);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert!(v.choose(&mut r).is_some());
        let empty: [usize; 0] = [];
        assert!(empty.choose(&mut r).is_none());
    }

    #[test]
    fn distribution_trait_is_usable_generically() {
        struct Doubler;
        impl Distribution<f64> for Doubler {
            fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
                2.0 * rng.gen::<f64>()
            }
        }
        let mut r = StdRng::seed_from_u64(1);
        let x = r.sample(Doubler);
        assert!((0.0..2.0).contains(&x));
        let _: f64 = Standard.sample(&mut r);
    }
}
