//! Quantile binning of a continuous resource metric, the binning the
//! paper's RQ5 derives from each metric's observed variance.
//!
//! [`AdaptiveBinner`] computes `k-1` equal-mass cut points from observed
//! samples and discretizes new values against them. The agent does not
//! read this module: it bins with Table 1's fixed levels
//! ([`crate::state`]). Nothing here reproduces RQ5's finding that 5 bins
//! balance information retention against exploration cost. The tests
//! show only the arithmetic of equal-mass bins on uniform samples: `k`
//! bins keep `1 − 1/k²` of the variance (0.96 at 5, 0.99 at 10), with no
//! agent and no exploration cost involved.

use serde::{Deserialize, Serialize};

/// A percentile-boundary discretizer learned from observed samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveBinner {
    boundaries: Vec<f64>,
}

impl AdaptiveBinner {
    /// Fit `bins` bins to `samples` by equal-mass quantiles.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `samples` is empty.
    pub fn fit(samples: &[f64], bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(!samples.is_empty(), "cannot fit binner to no samples");
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        let mut boundaries = Vec::with_capacity(bins.saturating_sub(1));
        for i in 1..bins {
            let q = i as f64 / bins as f64;
            let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
            boundaries.push(sorted[idx.min(sorted.len() - 1)]);
        }
        boundaries.dedup_by(|a, b| (*a - *b).abs() < f64::EPSILON);
        AdaptiveBinner { boundaries }
    }

    /// Number of bins this binner produces.
    pub fn bins(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// Discretize one value into `0..bins()`.
    pub fn bin(&self, value: f64) -> usize {
        self.boundaries
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.boundaries.len())
    }

    /// Fraction of the samples' variance explained by the bin means — a
    /// measure of how much information the discretization retains.
    pub fn variance_retained(&self, samples: &[f64]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let n = samples.len() as f64;
        let mean: f64 = samples.iter().sum::<f64>() / n;
        let total_var: f64 = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        if total_var <= f64::EPSILON {
            return 1.0;
        }
        let k = self.bins();
        let mut sums = vec![0.0f64; k];
        let mut counts = vec![0usize; k];
        for &v in samples {
            let b = self.bin(v);
            sums[b] += v;
            counts[b] += 1;
        }
        let mut between = 0.0;
        for b in 0..k {
            if counts[b] > 0 {
                let bm = sums[b] / counts[b] as f64;
                between += counts[b] as f64 * (bm - mean).powi(2);
            }
        }
        (between / n) / total_var
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn uniform_samples(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = float_tensor::seed_rng(seed);
        (0..n).map(|_| rng.gen::<f64>()).collect()
    }

    #[test]
    fn quantile_bins_are_equal_mass() {
        let xs = uniform_samples(10_000, 1);
        let b = AdaptiveBinner::fit(&xs, 5);
        let mut counts = vec![0usize; b.bins()];
        for &x in &xs {
            counts[b.bin(x)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - 2000.0).abs() < 300.0,
                "bin {i} holds {c} samples"
            );
        }
    }

    #[test]
    fn more_bins_retain_more_variance() {
        let xs = uniform_samples(5000, 2);
        let r2 = AdaptiveBinner::fit(&xs, 2).variance_retained(&xs);
        let r5 = AdaptiveBinner::fit(&xs, 5).variance_retained(&xs);
        let r10 = AdaptiveBinner::fit(&xs, 10).variance_retained(&xs);
        assert!(r2 < r5 && r5 < r10, "r2={r2} r5={r5} r10={r10}");
    }

    #[test]
    fn five_bins_hit_diminishing_returns() {
        // Arithmetic, not the paper's RQ5 finding: on uniform samples, `k`
        // equal-mass bins keep 1 − 1/k² of the variance, so 5 bins keep
        // 0.96 and doubling to 10 adds only 0.03.
        let xs = uniform_samples(5000, 3);
        let r5 = AdaptiveBinner::fit(&xs, 5).variance_retained(&xs);
        let r10 = AdaptiveBinner::fit(&xs, 10).variance_retained(&xs);
        assert!((r5 - 0.96).abs() < 0.005, "5 bins retain {r5}, not 0.96");
        assert!((r10 - 0.99).abs() < 0.005, "10 bins retain {r10}, not 0.99");
    }

    #[test]
    fn constant_samples_are_fine() {
        let xs = vec![0.5; 100];
        let b = AdaptiveBinner::fit(&xs, 5);
        assert_eq!(b.bin(0.5), b.bin(0.5));
        assert_eq!(b.variance_retained(&xs), 1.0);
    }

    #[test]
    fn bin_is_monotone_in_value() {
        let xs = uniform_samples(1000, 4);
        let b = AdaptiveBinner::fit(&xs, 5);
        let mut prev = 0;
        for i in 0..100 {
            let v = i as f64 / 100.0;
            let bin = b.bin(v);
            assert!(bin >= prev, "bin not monotone at {v}");
            prev = bin;
        }
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_fit_panics() {
        let _ = AdaptiveBinner::fit(&[], 5);
    }
}
