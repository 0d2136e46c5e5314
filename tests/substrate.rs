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
//!
//! Interruption. A client is interrupted in a round with its own
//! probability p ~ U[0.02, 0.12), so E[p] = 0.07, drawn afresh each round
//! and independently across clients. Batteries start full and nothing
//! drains them here, so of the m clients the index marks diurnally ON,
//! the full sweep's eligible count is a sum of m independent
//! Bernoulli(0.93) draws: mean m·0.93, σ = √(m·0.93·0.07). (The mean of
//! p itself is checked beside the model, in `float-traces`' unit tests.)
//!
//! Bandwidth. `NetworkGen` is a four-state chain (deep fade, poor, good,
//! peak) that starts in "good" (state 2). Before each round's draw it
//! leaves its state with probability c, the churn (0.08 / 0.22 / 0.45 for
//! stationary / walking / driving on 4G, 1.5× that on 5G), moving one
//! state down or up with equal odds and staying put at either end. Its
//! transition matrix P is symmetric, so doubly stochastic: round R's
//! state law π_R = e₂·P^(R+1) tends to uniform. Given state s the draw is
//! m_s·e^(0.4z), z ~ N(0, 1), floored at 0.05, so E[X_R] =
//! Σ_s π_R(s)·m_s·e^0.08 and E[X_R²] = Σ_s π_R(s)·m_s²·e^0.32 (the floor
//! moves the mean by under 10⁻⁶ of itself). At stationarity that is
//! 23.97 Mbit/s on 4G and 199.1 on 5G, for every mobility. The sampled
//! E[X_R²] is held to its closed form too, which pins the spread (CV) of
//! each round's bandwidth; its standard error comes from the fourth
//! moment E[X_R⁴] = Σ_s π_R(s)·m_s⁴·e^1.28.
//!
//! Compute. `DeviceProfile::derive` draws a tier with shares 0.40 /
//! 0.45 / 0.15 (low / mid / high end), then a throughput of
//! m·e^(0.35z), z ~ N(0, 1), around the tier's median m = 1.5 / 5 / 18
//! GFLOP/s: a three-part log-normal mixture, whose CDF is
//! F(g) = Σ_k w_k·Φ(ln(g / m_k) / 0.35). Its quantile spans follow by
//! bisection: P10–P90 13.1×, P5–P95 20.9×, P1–P99 40.3×.
//!
//! The whole file costs ~0.5 s of the tier-1 run at the test profile's
//! `opt-level = 2` (a two-core x86-64 host).

use float::tensor::rng::split_seed;
use float::traces::availability::ROUNDS_PER_DAY;
use float::traces::{
    DeviceClass, DeviceProfile, InterferenceModel, Mobility, NetworkGen, NetworkProfile,
    ResourceSampler,
};

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

/// Sweep a 1M-client population at seven rounds (five day positions, one
/// of them twice, a day apart): each round's eligible count lies within
/// 6σ of m·(1 − E[p]), m the index's diurnal count. The sweep reads the
/// interruption table, so this holds whatever the table's encoding.
#[test]
fn interruption_population_matches_its_closed_form() {
    let clear = 1.0 - 0.07;
    let mut sampler = ResourceSampler::new(N, InterferenceModel::None, SEED);
    let mut index = ResourceSampler::build_index(N, SEED);
    let mut eligible = Vec::new();
    for round in [0, 17, 40, 63, 95, 96 + 17, 150] {
        index.advance_to(round);
        let m = index.count() as f64;
        sampler.available_clients_into(round, &mut eligible);
        let count = eligible.len() as f64;
        let sigma = (m * clear * (1.0 - clear)).sqrt();
        assert!(
            (count - m * clear).abs() <= 6.0 * sigma,
            "round {round}: {count} eligible of {m} ON, want {} ± {}",
            m * clear,
            6.0 * sigma
        );
    }
}

/// Clients per profile × mobility in the bandwidth check.
const BW_CLIENTS: usize = 20_000;
/// The rounds it reads: the first draw and two later ones (at 24 the
/// driving chains are near stationary, the stationary ones still mixing).
const BW_ROUNDS: [usize; 3] = [0, 5, 24];

/// π_R = e₂·P^(R+1) for the chain with churn `c` (see the module docs).
fn bandwidth_state_law(c: f64, round: usize) -> [f64; 4] {
    let mut pi = [0.0, 0.0, 1.0, 0.0];
    for _ in 0..=round {
        let mut next = [0.0; 4];
        for (s, &p) in pi.iter().enumerate() {
            next[s] += p * (1.0 - c);
            next[s.saturating_sub(1)] += p * c / 2.0;
            next[(s + 1).min(3)] += p * c / 2.0;
        }
        pi = next;
    }
    pi
}

/// For each profile × mobility, the mean bandwidth and the mean squared
/// bandwidth of `BW_CLIENTS` independent clients at each of `BW_ROUNDS`
/// lie within 6 standard errors of their exact π_R expectations, each
/// standard error taken from the closed-form higher moment.
#[test]
fn bandwidth_population_matches_its_closed_form() {
    let (e1, e2, e4) = (0.08f64.exp(), 0.32f64.exp(), 1.28f64.exp());
    let profiles = [
        (NetworkProfile::FourG, [0.5, 6.0, 22.0, 60.0], 1.0, 23.97),
        (NetworkProfile::FiveG, [0.3, 15.0, 120.0, 600.0], 1.5, 199.1),
    ];
    let mobilities = [
        (Mobility::Stationary, 0.08),
        (Mobility::Walking, 0.22),
        (Mobility::Driving, 0.45),
    ];
    for (profile, means, scale, stationary) in profiles {
        for (mobility, base) in mobilities {
            let churn = f64::min(base * scale, 0.9);
            // (E[X], E[X²], E[X⁴]) under state law `pi`.
            let moments = |pi: [f64; 4]| {
                let raw = |k: i32, e: f64| -> f64 {
                    pi.iter()
                        .zip(&means)
                        .map(|(p, &m): (&f64, &f64)| p * m.powi(k) * e)
                        .sum()
                };
                (raw(1, e1), raw(2, e2), raw(4, e4))
            };
            // The chain forgets its start: the stationary law is uniform.
            let (limit, _, _) = moments(bandwidth_state_law(churn, 10_000));
            assert!(
                (limit - stationary).abs() < 0.005 * stationary,
                "{profile:?}/{mobility:?}: stationary mean {limit}, want {stationary}"
            );

            // Per round: (Σ x, Σ x²) over the clients.
            let mut sums = [(0.0, 0.0); BW_ROUNDS.len()];
            for i in 0..BW_CLIENTS {
                let mut gen = NetworkGen::new(profile, mobility, split_seed(SEED, i as u64));
                for (sum, &r) in sums.iter_mut().zip(&BW_ROUNDS) {
                    let x = gen.bandwidth_mbps(r);
                    sum.0 += x;
                    sum.1 += x * x;
                }
            }
            let n = BW_CLIENTS as f64;
            for (&(sum, sum_sq), &r) in sums.iter().zip(&BW_ROUNDS) {
                let (mean, square, fourth) = moments(bandwidth_state_law(churn, r));
                let se = ((square - mean * mean) / n).sqrt();
                let got = sum / n;
                assert!(
                    (got - mean).abs() <= 6.0 * se,
                    "{profile:?}/{mobility:?} round {r}: mean {got:.3} Mbit/s, want {mean:.3} ± {:.3}",
                    6.0 * se
                );
                let se_sq = ((fourth - square * square) / n).sqrt();
                let got_sq = sum_sq / n;
                assert!(
                    (got_sq - square).abs() <= 6.0 * se_sq,
                    "{profile:?}/{mobility:?} round {r}: E[X²] {got_sq:.1}, want {square:.1} ± {:.1}",
                    6.0 * se_sq
                );
            }
        }
    }
}

/// Profiles in the compute check.
const COMPUTE_PROFILES: usize = 200_000;
/// Log-throughput spread within a tier.
const COMPUTE_SIGMA: f64 = 0.35;
/// Each tier with its population share and median GFLOP/s.
const TIERS: [(DeviceClass, f64, f64); 3] = [
    (DeviceClass::LowEnd, 0.40, 1.5),
    (DeviceClass::MidRange, 0.45, 5.0),
    (DeviceClass::HighEnd, 0.15, 18.0),
];

/// The standard normal CDF, by Abramowitz & Stegun 7.1.26 for erf
/// (absolute error under 1.5·10⁻⁷, far inside the bounds it meets here).
fn normal_cdf(x: f64) -> f64 {
    let z = x.abs() / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.327_591_1 * z);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erf = 1.0 - poly * (-z * z).exp();
    0.5 * (1.0 + erf.copysign(x))
}

/// The mixture's CDF at `g` GFLOP/s.
fn compute_cdf(g: f64) -> f64 {
    TIERS
        .iter()
        .map(|&(_, share, median)| share * normal_cdf((g / median).ln() / COMPUTE_SIGMA))
        .sum()
}

/// The mixture's `p`-quantile, by bisection on log-throughput.
fn compute_quantile(p: f64) -> f64 {
    let (mut lo, mut hi) = (1e-3f64.ln(), 1e4f64.ln());
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if compute_cdf(mid.exp()) < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (0.5 * (lo + hi)).exp()
}

/// The Kolmogorov–Smirnov distance of `sorted` from Φ.
fn ks_distance_from_normal(sorted: &[f64]) -> f64 {
    let n = sorted.len() as f64;
    sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let f = normal_cdf(x);
            f64::max(f - i as f64 / n, (i + 1) as f64 / n - f)
        })
        .fold(0.0, f64::max)
}

/// Derive 200 000 profiles. Each tier's share lies within 6σ of its
/// binomial mean; each tier's standardized log-throughput
/// ln(g / m) / 0.35 passes a Kolmogorov–Smirnov test against Φ at a 10⁻⁶
/// false-alarm rate (the asymptotic bound √(ln(2·10⁶) / 2n)). The
/// closed-form quantile spans are the ones `DeviceClass`'s docs quote,
/// and the sample's CDF at each closed-form quantile lies within 6σ of
/// its level.
#[test]
fn compute_population_matches_its_closed_form() {
    let profiles: Vec<DeviceProfile> = (0..COMPUTE_PROFILES)
        .map(|i| DeviceProfile::derive(SEED, i))
        .collect();
    let n = COMPUTE_PROFILES as f64;
    for &(class, share, median) in &TIERS {
        let mut z: Vec<f64> = profiles
            .iter()
            .filter(|p| p.class == class)
            .map(|p| (p.gflops / median).ln() / COMPUTE_SIGMA)
            .collect();
        let count = z.len() as f64;
        let sigma = (n * share * (1.0 - share)).sqrt();
        assert!(
            (count - n * share).abs() <= 6.0 * sigma,
            "{class:?}: {count} profiles, want {} ± {}",
            n * share,
            6.0 * sigma
        );
        z.sort_by(f64::total_cmp);
        let d = ks_distance_from_normal(&z);
        let bound = ((2e6f64).ln() / (2.0 * count)).sqrt();
        assert!(
            d < bound,
            "{class:?}: KS distance {d} from Φ, bound {bound}"
        );
    }

    let mut gflops: Vec<f64> = profiles.iter().map(|p| p.gflops).collect();
    gflops.sort_by(f64::total_cmp);
    for (p, span) in [(0.10, 13.1), (0.05, 20.9), (0.01, 40.3)] {
        let (low, high) = (compute_quantile(p), compute_quantile(1.0 - p));
        let ratio = high / low;
        assert!(
            (ratio - span).abs() < 0.05,
            "P{}–P{} span {ratio:.2}×, docs say {span}×",
            p * 100.0,
            (1.0 - p) * 100.0
        );
        for (q, at) in [(p, low), (1.0 - p, high)] {
            let below = gflops.partition_point(|&g| g < at) as f64 / n;
            let sigma = (q * (1.0 - q) / n).sqrt();
            assert!(
                (below - q).abs() <= 6.0 * sigma,
                "sample CDF {below} at the closed-form P{} ({at:.3} GFLOP/s)",
                q * 100.0
            );
        }
    }
}
