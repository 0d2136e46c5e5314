//! Markov-modulated mobile bandwidth generator.
//!
//! Reproduces the qualitative behaviour of commercial 4G/5G measurements:
//! 5G has much higher peak throughput but far larger variance and frequent
//! deep fades (especially while driving); 4G is slower but steadier. The
//! process is a four-state Markov chain (deep-fade / poor / good / peak)
//! with per-profile state means and lognormal within-state jitter.

use rand::Rng;
use serde::{Deserialize, Serialize};

use float_tensor::rng::{seed_rng, split_seed};

/// Radio access technology of a client's link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetworkProfile {
    /// 4G / LTE.
    FourG,
    /// 5G (mmWave-like behaviour: huge peaks, deep fades).
    FiveG,
}

/// Mobility state of the device while the trace was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mobility {
    /// Device at rest — most stable link.
    Stationary,
    /// Pedestrian mobility — moderate variability.
    Walking,
    /// Vehicular mobility — highest variability, frequent handovers.
    Driving,
}

/// Hidden Markov link states, ordered from worst to best.
const NUM_STATES: usize = 4;

/// A per-client bandwidth process. Sampling is deterministic in
/// `(seed, client, round)`: the chain is advanced lazily and cached so
/// repeated queries for the same round agree.
#[derive(Debug, Clone)]
pub struct NetworkGen {
    profile: NetworkProfile,
    mobility: Mobility,
    seed: u64,
    /// Cached bandwidth per round index, grown on demand.
    cache: Vec<f64>,
    state: usize,
}

impl NetworkGen {
    /// Create the bandwidth process for one client.
    pub fn new(profile: NetworkProfile, mobility: Mobility, seed: u64) -> Self {
        NetworkGen {
            profile,
            mobility,
            seed,
            cache: Vec::new(),
            state: 2, // start in the "good" state
        }
    }

    /// Mean bandwidth in Mbit/s of each hidden state for this profile.
    fn state_means(&self) -> [f64; NUM_STATES] {
        match self.profile {
            // 4G: modest range, no extreme peaks.
            NetworkProfile::FourG => [0.5, 6.0, 22.0, 60.0],
            // 5G: deep fades to near-zero, peaks in the hundreds of Mbps.
            NetworkProfile::FiveG => [0.3, 15.0, 120.0, 600.0],
        }
    }

    /// Probability of leaving the current state per step; mobility raises
    /// it (handovers, blockage).
    fn churn(&self) -> f64 {
        let base = match self.mobility {
            Mobility::Stationary => 0.08,
            Mobility::Walking => 0.22,
            Mobility::Driving => 0.45,
        };
        match self.profile {
            NetworkProfile::FourG => base,
            // 5G links are notoriously flappy under mobility.
            NetworkProfile::FiveG => (base * 1.5).min(0.9),
        }
    }

    /// Bandwidth in Mbit/s available to this client during `round`.
    ///
    /// Values for earlier rounds are generated (and cached) on the way, so
    /// the process is identical regardless of query order.
    pub fn bandwidth_mbps(&mut self, round: usize) -> f64 {
        while self.cache.len() <= round {
            let step = self.cache.len();
            let mut rng = seed_rng(split_seed(self.seed, step as u64));
            // Markov transition.
            if rng.gen::<f64>() < self.churn() {
                // Move up or down one state with equal odds for every
                // mobility; mobility sets only the churn rate above.
                let down = rng.gen::<f64>() < 0.5;
                self.state = if down {
                    self.state.saturating_sub(1)
                } else {
                    (self.state + 1).min(NUM_STATES - 1)
                };
            }
            let mean = self.state_means()[self.state];
            // Lognormal within-state jitter, sigma ~0.4.
            let u1: f64 = (1.0 - rng.gen::<f64>()).max(f64::MIN_POSITIVE);
            let u2: f64 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            self.cache.push((mean * (0.4 * z).exp()).max(0.05));
        }
        self.cache[round]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_order_independent() {
        let mut a = NetworkGen::new(NetworkProfile::FourG, Mobility::Walking, 3);
        let mut b = NetworkGen::new(NetworkProfile::FourG, Mobility::Walking, 3);
        // Query b out of order.
        let b50 = b.bandwidth_mbps(50);
        let b10 = b.bandwidth_mbps(10);
        assert_eq!(a.bandwidth_mbps(10), b10);
        assert_eq!(a.bandwidth_mbps(50), b50);
    }

    #[test]
    fn five_g_has_higher_mean_and_cv_than_four_g() {
        // (mean, coefficient of variation) of the first 2000 rounds.
        let stats = |profile| {
            let mut g = NetworkGen::new(profile, Mobility::Walking, 9);
            let xs: Vec<f64> = (0..2000).map(|r| g.bandwidth_mbps(r)).collect();
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
            (mean, var.sqrt() / mean)
        };
        let (m4, cv4) = stats(NetworkProfile::FourG);
        let (m5, cv5) = stats(NetworkProfile::FiveG);
        assert!(m5 > m4, "5G mean {m5} <= 4G mean {m4}");
        assert!(cv5 > cv4, "5G cv {cv5} <= 4G cv {cv4}");
    }

    #[test]
    fn driving_jumps_more_often_than_stationary() {
        // Count large round-to-round bandwidth jumps (state transitions)
        // averaged over seeds: vehicular mobility must churn more.
        let jumps = |mob: Mobility| -> f64 {
            let mut total = 0usize;
            for seed in 0..10u64 {
                let mut g = NetworkGen::new(NetworkProfile::FourG, mob, seed);
                let xs: Vec<f64> = (0..500).map(|r| g.bandwidth_mbps(r)).collect();
                total += xs
                    .windows(2)
                    .filter(|w| w[1] / w[0] > 2.0 || w[0] / w[1] > 2.0)
                    .count();
            }
            total as f64 / 10.0
        };
        let s = jumps(Mobility::Stationary);
        let d = jumps(Mobility::Driving);
        assert!(d > 1.5 * s, "driving jumps {d} not >> stationary jumps {s}");
    }

    #[test]
    fn bandwidth_is_positive_and_bounded() {
        let mut g = NetworkGen::new(NetworkProfile::FiveG, Mobility::Driving, 1);
        for r in 0..500 {
            let b = g.bandwidth_mbps(r);
            assert!((0.05..10_000.0).contains(&b), "round {r}: {b}");
        }
    }

    #[test]
    fn different_seeds_decorrelate() {
        let mut a = NetworkGen::new(NetworkProfile::FourG, Mobility::Walking, 1);
        let mut c = NetworkGen::new(NetworkProfile::FourG, Mobility::Walking, 2);
        let same = (0..100)
            .filter(|&r| (a.bandwidth_mbps(r) - c.bandwidth_mbps(r)).abs() < 1e-12)
            .count();
        assert!(same < 5, "{same} identical samples across seeds");
    }
}
