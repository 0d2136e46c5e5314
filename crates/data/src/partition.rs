//! Dirichlet and IID client partitioning of label distributions.
//!
//! Follows the label-skew scheme of Hsu et al. (2019), the same scheme
//! FedScale and the FLOAT paper use: each client draws a class-proportion
//! vector `p ~ Dir(α·1)` and its local samples follow `p`. Small `α`
//! (0.01–0.1 in the paper) produces extreme label skew.

use rand::Rng;

use float_tensor::rng::{seed_rng, split_seed};

/// Sample one Dirichlet(α·1_k) proportion vector using the Gamma–Dirichlet
/// construction with Marsaglia–Tsang gamma sampling (with the standard
/// boost for shape < 1).
fn dirichlet_proportions<R: Rng>(alpha: f64, k: usize, rng: &mut R) -> Vec<f64> {
    let mut draws: Vec<f64> = (0..k).map(|_| gamma_sample(alpha, rng)).collect();
    let sum: f64 = draws.iter().sum();
    if sum <= f64::MIN_POSITIVE {
        // All-zero draws (possible for tiny α): degenerate to a one-hot on a
        // random class, which is the correct α→0 limit.
        let hot = rng.gen_range(0..k);
        draws = vec![0.0; k];
        draws[hot] = 1.0;
        return draws;
    }
    for d in &mut draws {
        *d /= sum;
    }
    draws
}

/// Marsaglia–Tsang sampler for Gamma(shape, 1).
fn gamma_sample<R: Rng>(shape: f64, rng: &mut R) -> f64 {
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        return gamma_sample(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Standard normal via Box–Muller.
        let u1: f64 = (1.0 - rng.gen::<f64>()).max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let x = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Produce per-client per-class sample counts under Dirichlet(α) label
/// skew with the default ±50 % quantity skew.
///
/// Returns a `num_clients × num_classes` matrix of counts. Every client
/// receives at least one sample (a dropless client dataset would be
/// meaningless to the simulator).
pub fn dirichlet_partition(
    num_clients: usize,
    num_classes: usize,
    mean_samples: usize,
    alpha: f64,
    seed: u64,
) -> Vec<Vec<usize>> {
    dirichlet_partition_with_quantity_skew(num_clients, num_classes, mean_samples, alpha, 0.5, seed)
}

/// [`dirichlet_partition`] with explicit control over *quantity* skew:
/// each client's dataset size is drawn uniformly from
/// `mean_samples · [1 − skew, 1 + skew]`. `skew = 0` gives equal-sized
/// shards (isolating label skew), `skew → 1` gives extreme size
/// heterogeneity.
///
/// # Panics
///
/// Panics if `alpha` is not positive and finite, or `quantity_skew` is
/// not in `[0, 1)`.
pub fn dirichlet_partition_with_quantity_skew(
    num_clients: usize,
    num_classes: usize,
    mean_samples: usize,
    alpha: f64,
    quantity_skew: f64,
    seed: u64,
) -> Vec<Vec<usize>> {
    assert!(
        alpha > 0.0 && alpha.is_finite(),
        "Dirichlet alpha must be positive and finite, got {alpha}"
    );
    assert!(
        (0.0..1.0).contains(&quantity_skew),
        "quantity skew must be in [0, 1)"
    );
    (0..num_clients)
        .map(|c| dirichlet_client_counts(c, num_classes, mean_samples, alpha, quantity_skew, seed))
        .collect()
}

/// Per-class sample counts for a *single* client under Dirichlet(α) label
/// skew — row `client` of [`dirichlet_partition_with_quantity_skew`],
/// bit-identical to the full matrix by construction.
///
/// Each client draws from its own RNG stream (`split_seed(seed, client)`),
/// so one client's counts never depend on another's — this is what makes
/// lazy shard derivation possible at population scale.
///
/// # Panics
///
/// Panics if `alpha` is not positive and finite, or `quantity_skew` is
/// not in `[0, 1)`.
pub fn dirichlet_client_counts(
    client: usize,
    num_classes: usize,
    mean_samples: usize,
    alpha: f64,
    quantity_skew: f64,
    seed: u64,
) -> Vec<usize> {
    // Marsaglia–Tsang never accepts at an infinite shape (∞ − ∞ is NaN),
    // so an infinite alpha would loop forever rather than fail.
    assert!(
        alpha > 0.0 && alpha.is_finite(),
        "Dirichlet alpha must be positive and finite, got {alpha}"
    );
    assert!(
        (0.0..1.0).contains(&quantity_skew),
        "quantity skew must be in [0, 1)"
    );
    let mut rng = seed_rng(split_seed(seed, client as u64));
    let props = dirichlet_proportions(alpha, num_classes, &mut rng);
    let factor = if quantity_skew == 0.0 {
        // Consume the draw regardless so shard contents are identical
        // across skew settings.
        let _ = rng.gen_range(0.0f64..1.0);
        1.0
    } else {
        rng.gen_range(1.0 - quantity_skew..1.0 + quantity_skew)
    };
    let size = ((mean_samples as f64) * factor).round().max(1.0) as usize;
    let mut counts: Vec<usize> = props
        .iter()
        .map(|&p| (p * size as f64).round() as usize)
        .collect();
    if counts.iter().sum::<usize>() == 0 {
        let hot = props
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        counts[hot] = 1;
    }
    counts
}

/// Produce per-client per-class counts under an IID split: every client
/// gets (approximately) uniform class proportions.
pub fn iid_partition(
    num_clients: usize,
    num_classes: usize,
    mean_samples: usize,
    seed: u64,
) -> Vec<Vec<usize>> {
    (0..num_clients)
        .map(|c| iid_client_counts(c, num_classes, mean_samples, seed))
        .collect()
}

/// Per-class sample counts for a *single* client under the IID split —
/// row `client` of [`iid_partition`], bit-identical to the full matrix by
/// construction (per-client RNG streams, like
/// [`dirichlet_client_counts`]).
pub fn iid_client_counts(
    client: usize,
    num_classes: usize,
    mean_samples: usize,
    seed: u64,
) -> Vec<usize> {
    let mut rng = seed_rng(split_seed(seed, client as u64));
    let size = ((mean_samples as f64) * rng.gen_range(0.8f64..1.2))
        .round()
        .max(1.0) as usize;
    let base = size / num_classes;
    let mut counts = vec![base; num_classes];
    for _ in 0..(size - base * num_classes) {
        let i = rng.gen_range(0..num_classes);
        counts[i] += 1;
    }
    counts
}

/// Effective label-distribution skew of a partition: mean total-variation
/// distance between each client's label distribution and the global one.
/// Useful for tests and for reporting how non-IID a configuration is.
pub fn partition_skew(counts: &[Vec<usize>]) -> f64 {
    if counts.is_empty() {
        return 0.0;
    }
    let num_classes = counts[0].len();
    let mut global = vec![0.0f64; num_classes];
    for client in counts {
        for (g, &c) in global.iter_mut().zip(client) {
            *g += c as f64;
        }
    }
    let gtotal: f64 = global.iter().sum();
    if gtotal == 0.0 {
        return 0.0;
    }
    for g in &mut global {
        *g /= gtotal;
    }
    let mut acc = 0.0;
    let mut n = 0;
    for client in counts {
        let total: f64 = client.iter().map(|&c| c as f64).sum();
        if total == 0.0 {
            continue;
        }
        let tv: f64 = client
            .iter()
            .zip(&global)
            .map(|(&c, &g)| (c as f64 / total - g).abs())
            .sum::<f64>()
            / 2.0;
        acc += tv;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        acc / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirichlet_every_client_nonempty() {
        let parts = dirichlet_partition(50, 10, 100, 0.05, 1);
        assert_eq!(parts.len(), 50);
        for p in &parts {
            assert!(p.iter().sum::<usize>() >= 1);
        }
    }

    #[test]
    fn low_alpha_is_more_skewed_than_high_alpha() {
        let low = dirichlet_partition(100, 10, 200, 0.05, 7);
        let high = dirichlet_partition(100, 10, 200, 100.0, 7);
        assert!(
            partition_skew(&low) > partition_skew(&high) + 0.2,
            "low {} high {}",
            partition_skew(&low),
            partition_skew(&high)
        );
    }

    #[test]
    fn iid_partition_is_near_uniform() {
        let parts = iid_partition(20, 10, 500, 3);
        assert!(partition_skew(&parts) < 0.05);
    }

    #[test]
    fn partitions_are_deterministic() {
        assert_eq!(
            dirichlet_partition(10, 5, 50, 0.1, 42),
            dirichlet_partition(10, 5, 50, 0.1, 42)
        );
        assert_ne!(
            dirichlet_partition(10, 5, 50, 0.1, 42),
            dirichlet_partition(10, 5, 50, 0.1, 43)
        );
    }

    #[test]
    fn gamma_sampler_mean() {
        let mut rng = float_tensor::seed_rng(11);
        let n = 20_000;
        for &shape in &[0.3f64, 1.0, 4.0] {
            let mean: f64 = (0..n).map(|_| gamma_sample(shape, &mut rng)).sum::<f64>() / n as f64;
            assert!(
                (mean - shape).abs() < 0.1 * shape.max(0.5),
                "shape {shape}: mean {mean}"
            );
        }
    }

    #[test]
    fn dirichlet_proportions_sum_to_one() {
        let mut rng = float_tensor::seed_rng(9);
        for &a in &[0.01f64, 0.1, 1.0, 10.0] {
            let p = dirichlet_proportions(a, 8, &mut rng);
            let s: f64 = p.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "alpha {a}: sum {s}");
            assert!(p.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn zero_alpha_panics() {
        let _ = dirichlet_partition(2, 2, 10, 0.0, 0);
    }

    #[test]
    fn zero_quantity_skew_equalizes_sizes() {
        let parts = dirichlet_partition_with_quantity_skew(30, 5, 100, 1.0, 0.0, 5);
        for p in &parts {
            let total: usize = p.iter().sum();
            // Rounding of per-class proportions can move the total by a
            // couple of samples, never by the ±50% of the default skew.
            assert!(
                (total as i64 - 100).abs() <= 3,
                "equal-size shard came out as {total}"
            );
        }
    }

    #[test]
    fn higher_quantity_skew_spreads_sizes() {
        let spread = |skew: f64| -> usize {
            let parts = dirichlet_partition_with_quantity_skew(60, 5, 100, 1.0, skew, 5);
            let sizes: Vec<usize> = parts.iter().map(|p| p.iter().sum()).collect();
            sizes.iter().max().unwrap() - sizes.iter().min().unwrap()
        };
        assert!(spread(0.8) > spread(0.1));
    }

    #[test]
    #[should_panic(expected = "quantity skew")]
    fn out_of_range_quantity_skew_panics() {
        let _ = dirichlet_partition_with_quantity_skew(2, 2, 10, 1.0, 1.5, 0);
    }

    #[test]
    fn per_client_counts_match_matrix_rows() {
        let matrix = dirichlet_partition_with_quantity_skew(25, 7, 80, 0.1, 0.5, 99);
        for (c, row) in matrix.iter().enumerate() {
            assert_eq!(row, &dirichlet_client_counts(c, 7, 80, 0.1, 0.5, 99));
        }
        let iid = iid_partition(25, 7, 80, 99);
        for (c, row) in iid.iter().enumerate() {
            assert_eq!(row, &iid_client_counts(c, 7, 80, 99));
        }
        // Rows can be derived in any order without changing bits.
        assert_eq!(dirichlet_client_counts(24, 7, 80, 0.1, 0.5, 99), matrix[24]);
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn per_client_zero_alpha_panics() {
        let _ = dirichlet_client_counts(0, 2, 10, 0.0, 0.5, 0);
    }

    #[test]
    #[should_panic(expected = "alpha must be positive and finite, got inf")]
    fn per_client_infinite_alpha_panics_instead_of_hanging() {
        let _ = dirichlet_client_counts(0, 10, 60, f64::INFINITY, 0.5, 7);
    }
}
