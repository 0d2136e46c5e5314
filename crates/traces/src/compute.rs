//! Heterogeneous device population with log-normally distributed training
//! throughput, standing in for the AI-Benchmark compute trace (~950 mobile
//! and edge devices spanning roughly two orders of magnitude in on-device
//! training speed).

use rand::Rng;
use serde::{Deserialize, Serialize};

use float_tensor::rng::{seed_rng, split_seed};

/// Coarse device tiers with distinct capability distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceClass {
    /// Budget phones and old IoT boards.
    LowEnd,
    /// Mainstream smartphones.
    MidRange,
    /// Flagship phones and edge boxes with NPUs.
    HighEnd,
}

impl DeviceClass {
    /// Median sustained training throughput in GFLOP/s for the tier.
    ///
    /// Calibrated to the *FL-capable* slice of AI-Benchmark: FedScale-style
    /// deployments exclude devices that cannot train at all, so the fleet
    /// spans roughly one order of magnitude (~12×) rather than the full
    /// benchmark's 30–50×. This matters for FLOAT's story: most dropouts
    /// must be interference-driven (temporarily starved but rescuable by
    /// acceleration), not devices that could never finish.
    fn median_gflops(self) -> f64 {
        match self {
            DeviceClass::LowEnd => 1.5,
            DeviceClass::MidRange => 5.0,
            DeviceClass::HighEnd => 18.0,
        }
    }

    /// Tier population share (most of the fleet is low/mid-range).
    fn share(self) -> f64 {
        match self {
            DeviceClass::LowEnd => 0.40,
            DeviceClass::MidRange => 0.45,
            DeviceClass::HighEnd => 0.15,
        }
    }

    /// RAM available to apps, bytes (device total minus OS reservation).
    fn memory_bytes(self) -> u64 {
        match self {
            DeviceClass::LowEnd => 1 << 31,   // 2 GiB
            DeviceClass::MidRange => 1 << 32, // 4 GiB
            DeviceClass::HighEnd => 3 << 32,  // 12 GiB
        }
    }
}

/// Static capability profile of one device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Tier this device belongs to.
    pub class: DeviceClass,
    /// Sustained training throughput at full availability, GFLOP/s.
    pub gflops: f64,
    /// App-available memory, bytes.
    pub memory_bytes: u64,
    /// Battery capacity in joule-equivalents of training energy.
    pub battery_j: f64,
    /// Network energy cost, joules per megabyte transferred.
    pub net_j_per_mb: f64,
    /// Compute energy cost, joules per TFLOP executed.
    pub compute_j_per_tflop: f64,
}

impl DeviceProfile {
    /// Derive device `i`'s profile from the population seed, a pure
    /// function of `(population_seed, i)` so population-scale callers
    /// derive profiles on demand instead of materializing all `n` of them
    /// up front.
    pub fn derive(population_seed: u64, i: usize) -> Self {
        let mut rng = seed_rng(split_seed(population_seed, i as u64));
        let class = {
            let u: f64 = rng.gen();
            if u < DeviceClass::LowEnd.share() {
                DeviceClass::LowEnd
            } else if u < DeviceClass::LowEnd.share() + DeviceClass::MidRange.share() {
                DeviceClass::MidRange
            } else {
                DeviceClass::HighEnd
            }
        };
        // Log-normal spread within tier (sigma 0.35 ⇒ ~±40% around the
        // median).
        let u1: f64 = (1.0 - rng.gen::<f64>()).max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let gflops = class.median_gflops() * (0.35 * z).exp();
        DeviceProfile {
            class,
            gflops,
            memory_bytes: class.memory_bytes(),
            battery_j: rng.gen_range(15_000.0..45_000.0),
            net_j_per_mb: rng.gen_range(0.4..1.2),
            compute_j_per_tflop: rng.gen_range(25.0..80.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first `n` profiles of population `seed`.
    fn population(n: usize, seed: u64) -> Vec<DeviceProfile> {
        (0..n).map(|i| DeviceProfile::derive(seed, i)).collect()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = population(50, 7);
        let b = population(50, 7);
        for i in 0..50 {
            assert_eq!(a[i].gflops, b[i].gflops);
        }
    }

    #[test]
    fn population_spans_orders_of_magnitude() {
        let p = population(500, 3);
        let min = p.iter().map(|d| d.gflops).fold(f64::INFINITY, f64::min);
        let max = p.iter().map(|d| d.gflops).fold(0.0f64, f64::max);
        assert!(
            max / min > 8.0,
            "capability spread {:.1}x too narrow",
            max / min
        );
    }

    #[test]
    fn tier_shares_roughly_hold() {
        let p = population(2000, 5);
        let low = p.iter().filter(|d| d.class == DeviceClass::LowEnd).count();
        let high = p.iter().filter(|d| d.class == DeviceClass::HighEnd).count();
        let lf = low as f64 / 2000.0;
        let hf = high as f64 / 2000.0;
        assert!((lf - 0.40).abs() < 0.05, "low share {lf}");
        assert!((hf - 0.15).abs() < 0.05, "high share {hf}");
    }

    #[test]
    fn high_end_is_faster_in_median() {
        let p = population(2000, 5);
        let med = |cls: DeviceClass| -> f64 {
            let mut xs: Vec<f64> = p
                .iter()
                .filter(|d| d.class == cls)
                .map(|d| d.gflops)
                .collect();
            xs.sort_by(f64::total_cmp);
            xs[xs.len() / 2]
        };
        assert!(med(DeviceClass::HighEnd) > med(DeviceClass::MidRange));
        assert!(med(DeviceClass::MidRange) > med(DeviceClass::LowEnd));
    }

    #[test]
    fn profiles_are_physical() {
        let p = population(200, 11);
        for d in p.iter() {
            assert!(d.gflops > 0.0);
            assert!(d.battery_j > 0.0);
            assert!(d.memory_bytes >= 1 << 31);
        }
    }
}
