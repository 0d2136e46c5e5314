//! Partial-training (parameter freezing) masks.

use rand::seq::SliceRandom;

use float_tensor::seed_rng;

/// Build a frozen-mask freezing `fraction` of `n` parameters, chosen
/// uniformly at random from `seed`. `mask[i] == true` means parameter `i`
/// is frozen (not updated during local training).
///
/// Random selection (rather than freezing whole prefix layers) matches
/// partial-training schemes that drop a subset of filters/rows each round
/// and keeps the frozen set unbiased across layers.
///
/// # Panics
///
/// Panics if `fraction` is not in `[0, 1]`.
pub fn frozen_mask(n: usize, fraction: f64, seed: u64) -> Vec<bool> {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
    let freeze = ((n as f64) * fraction).round() as usize;
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut seed_rng(seed));
    let mut mask = vec![false; n];
    for &i in idx.iter().take(freeze) {
        mask[i] = true;
    }
    mask
}

/// Compute-cost multiplier for training with `fraction` of parameters
/// frozen.
///
/// A training step is roughly 1/3 forward + 2/3 backward; the forward pass
/// still runs in full, while backward work scales with the trainable
/// fraction. Hence cost ≈ 1/3 + 2/3·(1−fraction). This is why partial
/// training "primarily alleviates the computational burden" but not the
/// communication burden (paper, RQ3 discussion of Fig. 10c).
pub fn compute_multiplier(fraction: f64) -> f64 {
    (1.0 / 3.0 + 2.0 / 3.0 * (1.0 - fraction)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fraction of frozen parameters in a mask.
    fn frozen_fraction(mask: &[bool]) -> f64 {
        mask.iter().filter(|&&f| f).count() as f64 / mask.len() as f64
    }

    #[test]
    fn mask_freezes_requested_fraction() {
        for &f in &[0.25f64, 0.5, 0.75] {
            let m = frozen_mask(1000, f, 3);
            assert!((frozen_fraction(&m) - f).abs() < 0.01);
        }
    }

    #[test]
    fn mask_is_deterministic_per_seed() {
        assert_eq!(frozen_mask(100, 0.5, 9), frozen_mask(100, 0.5, 9));
        assert_ne!(frozen_mask(100, 0.5, 9), frozen_mask(100, 0.5, 10));
    }

    #[test]
    fn freezing_spreads_across_buffer() {
        // Neither the first nor second half should be all-frozen.
        let m = frozen_mask(1000, 0.5, 4);
        let first = m[..500].iter().filter(|&&f| f).count();
        assert!(first > 150 && first < 350, "first-half frozen {first}");
    }

    #[test]
    fn compute_multiplier_bounds() {
        assert!((compute_multiplier(0.0) - 1.0).abs() < 1e-12);
        let m75 = compute_multiplier(0.75);
        assert!(m75 > 0.3 && m75 < 0.6, "75% partial multiplier {m75}");
        assert!(compute_multiplier(1.0) > 0.3); // forward pass never free
    }

    #[test]
    fn zero_and_full_fractions() {
        assert!(frozen_mask(10, 0.0, 1).iter().all(|&f| !f));
        assert!(frozen_mask(10, 1.0, 1).iter().all(|&f| f));
    }
}
