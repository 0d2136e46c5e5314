//! Order statistics, regression bounds and the metric-name rule.

/// Fewest timed samples a run reports on: the 75th percentile (nearest
/// rank) of 41 samples leaves exactly ten samples beyond it, which is the
/// fewest a reported percentile may have, and the 25th ten below it.
pub const MIN_SAMPLES: usize = 41;

/// Median; the mean of the two middle values for an even count.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in `(0, 1]`): the smallest sample with at
/// least `p` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let sorted = sorted(values);
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("sample is NaN"));
    v
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may worsen before it counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A simulated outcome or a count: any difference, either way.
    Exact,
    /// A measured value: worse by more than `rel` of the base *and* by
    /// more than `abs` (the floor keeps a 100 µs set-up from failing on
    /// 20 µs of jitter).
    Within { rel: f64, abs: f64 },
}

impl Bound {
    /// Whether `new` regressed against `base`.
    pub fn regressed(self, better: Better, base: f64, new: f64) -> bool {
        match self {
            Bound::Exact => base.to_bits() != new.to_bits(),
            Bound::Within { rel, abs } => {
                let worse_by = match better {
                    Better::Lower => new - base,
                    Better::Higher => base - new,
                };
                worse_by > (rel * base.abs()).max(abs)
            }
        }
    }
}

/// The name rule of `BENCHMARK.json`: starts with a letter or digit, at
/// most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p75_of_41_samples_leaves_ten_beyond() {
        let beyond = |n: usize| n - rank(n, 0.75);
        assert_eq!(beyond(MIN_SAMPLES), 10);
        assert!(beyond(MIN_SAMPLES - 2) < 10);
        let values: Vec<f64> = (1..=41).rev().map(f64::from).collect();
        let p75 = percentile(&values, 0.75);
        assert_eq!(p75, 31.0);
        assert_eq!(values.iter().filter(|&&v| v > p75).count(), 10);
        let p25 = percentile(&values, 0.25);
        assert_eq!(values.iter().filter(|&&v| v < p25).count(), 10);
        assert_eq!(percentile(&values, 1.0), 41.0);
        assert_eq!(percentile(&[5.0], 0.75), 5.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn relative_bound_respects_direction_and_floor() {
        let b = Bound::Within {
            rel: 0.10,
            abs: 0.005,
        };
        // Lower is better: +9 % passes, +11 % fails, any gain passes.
        assert!(!b.regressed(Better::Lower, 1.0, 1.09));
        assert!(b.regressed(Better::Lower, 1.0, 1.11));
        assert!(!b.regressed(Better::Lower, 1.0, 0.5));
        // Higher is better: the mirror image.
        assert!(!b.regressed(Better::Higher, 1.0, 0.91));
        assert!(b.regressed(Better::Higher, 1.0, 0.89));
        assert!(!b.regressed(Better::Higher, 1.0, 2.0));
        // Under the floor a large relative change still passes...
        assert!(!b.regressed(Better::Lower, 0.0001, 0.004));
        // ...and past it the floor, not the relative share, decides.
        assert!(b.regressed(Better::Lower, 0.0001, 0.0052));
    }

    #[test]
    fn exact_bound_rejects_any_difference() {
        assert!(!Bound::Exact.regressed(Better::Higher, 0.25, 0.25));
        assert!(Bound::Exact.regressed(Better::Higher, 0.25, 0.250_000_000_1));
        assert!(Bound::Exact.regressed(Better::Lower, 216.0, 215.0));
    }

    #[test]
    fn name_rule() {
        for ok in ["run_s", "core.plan_ms_per_round", "p75", "a-b", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".hidden", "_x", "has space", "slash/ed", "µs", &long] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
