//! The simulated substrate against its own closed forms.
//!
//! Each check derives a moment or a distribution from a generator's
//! parameters alone, then holds a sampled population to it within a
//! stated false-alarm budget. They test the population the simulator
//! actually runs on: the index `ResourceSampler::build_index` builds.
//!
//! Availability. A client's duty cycle is `d ~ U[0.35, 0.85)` and its ON
//! window is `ceil(96·d)` day positions long. Over `96·d ∈ [33.6, 81.6)`
//! that takes 34 with weight 0.4, each of 35..=81 with weight 1 and 82
//! with weight 0.6, out of 48. So E[window] = 2788.8 / 48 = 58.1
//! positions, and with a uniform phase a client is diurnally ON at any
//! one day position with probability q = 58.1 / 96 ≈ 0.60521.
//! (`interruption_p ~ U[0.02, 0.12)` has no public reader; its mean is
//! checked beside the model, in `float-traces`' unit tests.)
//!
//! The whole file costs ~0.1 s of the tier-1 run at the test profile's
//! `opt-level = 2` (a two-core x86-64 host).

use float::traces::availability::ROUNDS_PER_DAY;
use float::traces::ResourceSampler;

const N: usize = 1_000_000;
const SEED: u64 = 20_240_422;

/// The upper 10⁻⁶ quantile of χ² with `df` degrees of freedom, by the
/// Wilson–Hilferty cube approximation (z = 4.7534 is the standard
/// normal's upper 10⁻⁶ quantile). Within ~1 % at the 48 and 95 degrees
/// used here, far inside the margin a broken generator would show.
fn chi2_critical(df: usize) -> f64 {
    let k = df as f64;
    let h = 2.0 / (9.0 * k);
    k * (1.0 - h + 4.7534 * h.sqrt()).powi(3)
}

fn chi2(observed: &[u64], expected: &[f64]) -> f64 {
    observed
        .iter()
        .zip(expected)
        .map(|(&o, &e)| (o as f64 - e).powi(2) / e)
        .sum()
}

/// Weight of each ON-window length `ceil(96·d)` out of 48 (see the module
/// docs), indexed by length.
fn window_weight(len: usize) -> f64 {
    match len {
        34 => 0.4,
        35..=81 => 1.0,
        82 => 0.6,
        _ => 0.0,
    }
}

/// Walk the index of a 1M-client population once around the day. At
/// every position the ON count lies within 6σ of n·q; the ON transitions
/// give each client's window start (a bijection of its phase) and, with
/// the OFF transitions, its window length. Both histograms pass a χ² test
/// at a 10⁻⁶ false-alarm rate.
#[test]
fn diurnal_population_matches_its_closed_form() {
    let expected_window: f64 = (1..ROUNDS_PER_DAY)
        .map(|l| l as f64 * window_weight(l))
        .sum::<f64>()
        / 48.0;
    assert!((expected_window - 58.1).abs() < 1e-9, "{expected_window}");
    let q = expected_window / ROUNDS_PER_DAY as f64;
    let sigma = (N as f64 * q * (1.0 - q)).sqrt();

    let mut index = ResourceSampler::build_index(N, SEED);
    let mut on_at = vec![u8::MAX; N];
    let mut off_at = vec![u8::MAX; N];
    let mut prev = index.row_words().to_vec();
    for step in 1..=ROUNDS_PER_DAY {
        index.advance_to(step);
        let p = step % ROUNDS_PER_DAY;
        let count = index.count() as f64;
        assert!(
            (count - N as f64 * q).abs() <= 6.0 * sigma,
            "position {p}: {count} ON, want {} ± {}",
            N as f64 * q,
            6.0 * sigma
        );
        for (w, (&now, &before)) in index.row_words().iter().zip(&prev).enumerate() {
            for (mut bits, at) in [(now & !before, &mut on_at), (before & !now, &mut off_at)] {
                while bits != 0 {
                    let c = w * 64 + bits.trailing_zeros() as usize;
                    assert_eq!(at[c], u8::MAX, "client {c} switched twice a day");
                    at[c] = p as u8;
                    bits &= bits - 1;
                }
            }
        }
        prev.clear();
        prev.extend_from_slice(index.row_words());
    }

    let mut starts = vec![0u64; ROUNDS_PER_DAY];
    let mut lengths = vec![0u64; ROUNDS_PER_DAY];
    for (&on, &off) in on_at.iter().zip(&off_at) {
        assert!(on != u8::MAX && off != u8::MAX, "a client never switched");
        starts[on as usize] += 1;
        lengths[(off as usize + ROUNDS_PER_DAY - on as usize) % ROUNDS_PER_DAY] += 1;
    }

    // Phase: uniform over the 96 positions, 95 degrees of freedom.
    let uniform = vec![N as f64 / ROUNDS_PER_DAY as f64; ROUNDS_PER_DAY];
    let x2 = chi2(&starts, &uniform);
    assert!(x2 < chi2_critical(95), "phase χ² {x2} over 96 bins");

    // Window length: only 34..=82 are possible, weighted as above; 49
    // bins, 48 degrees of freedom.
    assert!(
        (1..ROUNDS_PER_DAY)
            .filter(|&l| window_weight(l) == 0.0)
            .all(|l| lengths[l] == 0),
        "a window outside 34..=82"
    );
    let expected: Vec<f64> = (34..=82)
        .map(|l| N as f64 * window_weight(l) / 48.0)
        .collect();
    let x2 = chi2(&lengths[34..=82], &expected);
    assert!(x2 < chi2_critical(48), "window-length χ² {x2} over 49 bins");
}
