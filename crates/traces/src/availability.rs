//! Client availability and battery model.
//!
//! Stands in for the large-scale smartphone availability trace (Yang et
//! al.): devices follow a diurnal on/off pattern (charging + idle +
//! on-WiFi periods are when FL participation is allowed), with
//! heterogeneous phases and duty cycles, plus an energy budget that
//! training depletes and charging refills. Availability here is *not* a
//! fixed linear window — it is the superposition of the diurnal cycle,
//! random short interruptions, and the battery state, matching the paper's
//! argument (§3, §4.1) that fixed-window availability (REFL's assumption)
//! is unrealistic.

use rand::Rng;
use serde::{Deserialize, Serialize};

use float_tensor::rng::{first_f64, seed_rng, split_seed};

/// Number of simulator rounds we map onto one simulated "day" for the
/// diurnal cycle. The paper's runs are 300 rounds ≈ a few days.
pub const ROUNDS_PER_DAY: usize = 96;

/// Battery state of one client.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatteryState {
    /// Remaining energy, joule-equivalents.
    pub remaining_j: f64,
    /// Capacity, joule-equivalents.
    pub capacity_j: f64,
}

impl BatteryState {
    /// Fresh full battery.
    pub fn full(capacity_j: f64) -> Self {
        BatteryState {
            remaining_j: capacity_j,
            capacity_j,
        }
    }

    /// Fraction of charge remaining in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        if self.capacity_j <= 0.0 {
            0.0
        } else {
            (self.remaining_j / self.capacity_j).clamp(0.0, 1.0)
        }
    }

    /// Drain `joules`; saturates at zero.
    pub fn drain(&mut self, joules: f64) {
        self.remaining_j = (self.remaining_j - joules.max(0.0)).max(0.0);
    }

    /// Recharge `joules`; saturates at capacity.
    pub fn charge(&mut self, joules: f64) {
        self.remaining_j = (self.remaining_j + joules.max(0.0)).min(self.capacity_j);
    }

    /// A device below 15% charge refuses FL work (OS power policy).
    pub fn allows_training(&self) -> bool {
        self.fraction() >= 0.15
    }
}

/// Per-client diurnal availability model.
#[derive(Debug, Clone)]
pub struct AvailabilityModel {
    seed: u64,
    /// Phase offset in rounds within the day.
    phase: usize,
    /// Fraction of the day the client is available (duty cycle).
    duty: f64,
    /// Probability of a short random interruption in an otherwise-available
    /// round (user picks up the phone, app eviction, …).
    interruption_p: f64,
}

impl AvailabilityModel {
    /// Build the model for one client from a seed.
    pub fn new(seed: u64) -> Self {
        let mut rng = seed_rng(split_seed(seed, 0xA7A));
        AvailabilityModel {
            seed,
            phase: rng.gen_range(0..ROUNDS_PER_DAY),
            duty: rng.gen_range(0.35..0.85),
            interruption_p: rng.gen_range(0.02..0.12),
        }
    }

    /// Client `client`'s model in a population sampled under `seed`: stream
    /// 2 of the client's trace seed. The availability index, the
    /// full-sweep models and the trace cache each derive it on their own
    /// and must agree bit for bit, so this is its only spelling.
    pub(crate) fn for_client(seed: u64, client: usize) -> Self {
        Self::new(split_seed(split_seed(seed, 0x1000 + client as u64), 2))
    }

    /// Whether the diurnal cycle marks this client available in `round`
    /// (before battery and interruption effects).
    pub fn diurnal_available(&self, round: usize) -> bool {
        let pos = (round + self.phase) % ROUNDS_PER_DAY;
        (pos as f64) < self.duty * ROUNDS_PER_DAY as f64
    }

    /// Whether the client dodges the short random interruption this round
    /// (the non-diurnal half of [`AvailabilityModel::available`]). The
    /// draw is seeded per `(client, round)`, so calling this for any
    /// subset of rounds in any order yields the same answers.
    pub fn clear_of_interruption(&self, round: usize) -> bool {
        self.interruption().clear(round)
    }

    /// The part of this model the interruption draw reads.
    pub fn interruption(&self) -> Interruption {
        Interruption {
            seed: self.seed,
            p: self.interruption_p,
        }
    }

    /// Whether the client is available in `round`, combining the diurnal
    /// cycle with random interruptions. Battery gating is applied by the
    /// caller, which owns the [`BatteryState`].
    pub fn available(&self, round: usize) -> bool {
        self.diurnal_available(round) && self.clear_of_interruption(round)
    }

    /// Duty cycle of this client.
    pub fn duty(&self) -> f64 {
        self.duty
    }

    /// Phase offset of the diurnal cycle in rounds within the day.
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// The diurnal ON window as `(start, len)` in day positions
    /// (`round % ROUNDS_PER_DAY`): the client is diurnally available at
    /// round `r` iff `(r % ROUNDS_PER_DAY)` falls within `len` positions
    /// starting at `start` (wrapping). This is the event-index view of
    /// [`AvailabilityModel::diurnal_available`]: one ON transition at
    /// `start` and one OFF transition at `(start + len) % ROUNDS_PER_DAY`
    /// per simulated day.
    pub fn diurnal_window(&self) -> (usize, usize) {
        // diurnal_available(r) ⇔ (r + phase) % 96 < duty * 96, i.e. the
        // position (r + phase) % 96 lies in [0, ceil(duty * 96)). In
        // `r % 96` space that window starts where (r + phase) % 96 == 0.
        let start = (ROUNDS_PER_DAY - self.phase % ROUNDS_PER_DAY) % ROUNDS_PER_DAY;
        let len = (self.duty * ROUNDS_PER_DAY as f64).ceil() as usize;
        (start, len.clamp(1, ROUNDS_PER_DAY - 1))
    }
}

/// One client's interruption draw, and nothing else: 16 bytes, half an
/// [`AvailabilityModel`]. The full availability sweep keeps one per client
/// and reads only this; the diurnal half lives in the
/// [`AvailabilityIndex`](crate::AvailabilityIndex).
#[derive(Debug, Clone, Copy)]
pub struct Interruption {
    seed: u64,
    p: f64,
}

const _: () = assert!(std::mem::size_of::<Interruption>() == 16);

impl Interruption {
    /// [`AvailabilityModel::clear_of_interruption`] for this client.
    #[inline]
    pub fn clear(&self, round: usize) -> bool {
        first_f64(split_seed(self.seed, 0xB00 + round as u64)) >= self.p
    }

    /// [`Interruption::clear`] for up to 64 consecutive clients at once:
    /// bit `k` of the result is `table[k].clear(round)`, bits past
    /// `table.len()` are zero. The loop has no branch, so it vectorizes
    /// (eight clients per 512-bit register); the full availability sweep
    /// calls it once per word of the calendar row.
    ///
    /// # Panics
    ///
    /// Panics if `table` holds more than 64 entries.
    #[inline]
    pub fn clear_word(table: &[Interruption], round: usize) -> u64 {
        assert!(table.len() <= 64, "clear_word: {} entries", table.len());
        table
            .iter()
            .enumerate()
            .fold(0, |mask, (k, m)| mask | (u64::from(m.clear(round)) << k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `clear_of_interruption` delegates to `Interruption::clear`, and the
    /// sweep reads `Interruption::clear_word`, so all three are checked
    /// against the draw spelled out from the model's own fields through
    /// the full generator.
    #[test]
    fn interruption_clear_matches_the_model() {
        let models: Vec<AvailabilityModel> = (0..1_000)
            .map(|c| AvailabilityModel::for_client(17, c))
            .collect();
        let spelled = |m: &AvailabilityModel, r: usize| {
            let mut rng = seed_rng(split_seed(m.seed, 0xB00 + r as u64));
            rng.gen::<f64>() >= m.interruption_p
        };
        for (client, m) in models.iter().enumerate() {
            let cut = m.interruption();
            for r in 0..300 {
                let want = spelled(m, r);
                assert_eq!(cut.clear(r), want, "client {client} round {r}");
                assert_eq!(
                    m.clear_of_interruption(r),
                    want,
                    "client {client} round {r}"
                );
            }
        }
        let table: Vec<Interruption> = models.iter().map(|m| m.interruption()).collect();
        for base in [0, 1, 63, 64, 129, 500, 936] {
            for len in 0..=64 {
                for r in [0, 1, 95, 299] {
                    let mask = Interruption::clear_word(&table[base..base + len], r);
                    for k in 0..64 {
                        let want = k < len && spelled(&models[base + k], r);
                        assert_eq!(
                            (mask >> k) & 1 == 1,
                            want,
                            "base {base} len {len} round {r} bit {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn availability_is_deterministic() {
        let a = AvailabilityModel::new(5);
        let b = AvailabilityModel::new(5);
        for r in 0..200 {
            assert_eq!(a.available(r), b.available(r));
        }
    }

    #[test]
    fn duty_cycle_is_respected() {
        let m = AvailabilityModel::new(9);
        let avail = (0..ROUNDS_PER_DAY * 10)
            .filter(|&r| m.diurnal_available(r))
            .count() as f64
            / (ROUNDS_PER_DAY * 10) as f64;
        assert!(
            (avail - m.duty()).abs() < 0.05,
            "measured {avail} vs duty {}",
            m.duty()
        );
    }

    #[test]
    fn available_is_conjunction_of_parts() {
        for seed in [1u64, 7, 42] {
            let m = AvailabilityModel::new(seed);
            for r in 0..500 {
                assert_eq!(
                    m.available(r),
                    m.diurnal_available(r) && m.clear_of_interruption(r),
                    "seed {seed} round {r}"
                );
            }
        }
    }

    #[test]
    fn interruptions_reduce_availability() {
        let m = AvailabilityModel::new(2);
        let diurnal = (0..2000).filter(|&r| m.diurnal_available(r)).count();
        let actual = (0..2000).filter(|&r| m.available(r)).count();
        assert!(actual < diurnal);
        assert!(actual > diurnal / 2);
    }

    #[test]
    fn phases_differ_across_clients() {
        let phases: Vec<usize> = (0..20).map(|i| AvailabilityModel::new(i).phase).collect();
        let mut uniq = phases.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() > 5, "phases collapsed: {phases:?}");
    }

    #[test]
    fn battery_gates_training() {
        let mut b = BatteryState::full(1000.0);
        assert!(b.allows_training());
        b.drain(900.0);
        assert!(!b.allows_training());
        b.charge(500.0);
        assert!(b.allows_training());
    }

    #[test]
    fn battery_saturates() {
        let mut b = BatteryState::full(100.0);
        b.charge(1000.0);
        assert_eq!(b.remaining_j, 100.0);
        b.drain(1e9);
        assert_eq!(b.remaining_j, 0.0);
        assert_eq!(b.fraction(), 0.0);
    }
}
