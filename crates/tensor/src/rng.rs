//! Deterministic random-number helpers.
//!
//! Every stochastic component in the reproduction takes an explicit `u64`
//! seed. This module centralizes the construction of seeded generators and
//! a cheap seed-splitting scheme so that independent subsystems (data
//! generation, client traces, RL exploration, …) draw from decorrelated
//! streams derived from a single experiment seed.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Construct a deterministic [`StdRng`] from a `u64` seed.
///
/// # Example
///
/// ```
/// use rand::Rng;
/// let mut a = float_tensor::seed_rng(7);
/// let mut b = float_tensor::seed_rng(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seed_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derive a decorrelated child seed from `(seed, stream)`.
///
/// Uses the SplitMix64 finalizer, which is a bijection on `u64` with good
/// avalanche properties; distinct `(seed, stream)` pairs yield child seeds
/// that behave as independent streams for simulation purposes.
#[inline]
pub fn split_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `seed_rng(seed).next_u64()`, without building the generator.
///
/// [`StdRng::seed_from_u64`] fills xoshiro256++'s state word `k` with the
/// SplitMix64 output `split_seed(seed, k)`, and the first output reads
/// only words 0 and 3. A one-draw consumer therefore needs two finalizers
/// instead of four plus a state update, and a loop of them vectorizes.
#[inline]
pub fn first_u64(seed: u64) -> u64 {
    let (s0, s3) = (split_seed(seed, 0), split_seed(seed, 3));
    s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0)
}

/// `seed_rng(seed).gen::<f64>()`, without building the generator: the
/// shim's `Standard` f64 of [`first_u64`], its top 53 bits times 2⁻⁵³.
#[inline]
pub fn first_f64(seed: u64) -> f64 {
    (first_u64(seed) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Sparse Fisher–Yates: `k` distinct values uniform over `0..n` into `out`,
/// in draw order — the first `k` positions of a forward shuffle of `0..n`,
/// position `i` taking the value at `gen_range(i..n)`. Only displaced
/// positions are kept, in `swap`, so a draw is O(k) for any `n`. Both
/// buffers are cleared first; `swap` is only read with `get`, so a reused
/// table draws what a fresh one does. Panics if `k > n`.
pub fn sample_distinct_into<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    k: usize,
    swap: &mut HashMap<usize, usize>,
    out: &mut Vec<usize>,
) {
    out.clear();
    swap.clear();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        let pj = swap.get(&j).copied().unwrap_or(j);
        let pi = swap.get(&i).copied().unwrap_or(i);
        out.push(pj);
        swap.insert(j, pi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_rng_is_deterministic() {
        let xs: Vec<u32> = {
            let mut r = seed_rng(99);
            (0..8).map(|_| r.gen()).collect()
        };
        let ys: Vec<u32> = {
            let mut r = seed_rng(99);
            (0..8).map(|_| r.gen()).collect()
        };
        assert_eq!(xs, ys);
    }

    #[test]
    fn split_seed_distinct_streams_differ() {
        let a = split_seed(1, 0);
        let b = split_seed(1, 1);
        let c = split_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn split_seed_is_pure() {
        assert_eq!(split_seed(123, 45), split_seed(123, 45));
    }

    /// The shortcuts are checked against the generator they skip, bit for
    /// bit, over a run of split seeds and the edges of the seed space.
    #[test]
    fn first_f64_is_the_generators_first_draw() {
        let edges = [0, 1, 1 << 63, u64::MAX - 1, u64::MAX];
        let seeds = (0..100_000).map(|i| split_seed(0xF1F, i));
        for s in edges.into_iter().chain(seeds) {
            let want = seed_rng(s).gen::<f64>();
            assert_eq!(first_f64(s).to_bits(), want.to_bits(), "seed {s:#x}");
            assert_eq!(first_u64(s), seed_rng(s).gen::<u64>(), "seed {s:#x}");
        }
    }

    /// The sparse draw is the first `k` positions of a forward
    /// Fisher–Yates run on the whole `0..n` array, and a table reused
    /// from an earlier, larger draw changes nothing.
    #[test]
    fn sparse_draw_is_a_partial_forward_shuffle() {
        let (mut swap, mut out) = (HashMap::new(), Vec::new());
        for seed in 0..200 {
            for (n, k) in [(1, 0), (1, 1), (2, 1), (10, 10), (50, 10), (1000, 37)] {
                let mut rng = seed_rng(seed);
                let mut ids: Vec<usize> = (0..n).collect();
                for i in 0..k {
                    let j = rng.gen_range(i..n);
                    ids.swap(i, j);
                }
                sample_distinct_into(&mut seed_rng(seed), n, k, &mut swap, &mut out);
                assert_eq!(out, ids[..k], "seed {seed}, n {n}, k {k}");
            }
        }
    }
}
