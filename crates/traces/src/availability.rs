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

use float_tensor::rng::{first_f64, first_u64, seed_rng, split_seed};

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
    /// Build the model for one client from a seed. The population's tables
    /// come from `population_tables`, which spells this generator out;
    /// this body is the reference it is tested against.
    pub fn new(seed: u64) -> Self {
        let mut rng = seed_rng(split_seed(seed, 0xA7A));
        AvailabilityModel {
            seed,
            phase: rng.gen_range(0..ROUNDS_PER_DAY),
            duty: rng.gen_range(0.35..0.85),
            interruption_p: rng.gen_range(0.02..0.12),
        }
    }

    /// Client `client`'s model in a population sampled under `seed`: the
    /// generator on stream 2 of the client's trace seed. The trace cache,
    /// `is_available` and the sweep table's tie rule read it.
    pub(crate) fn for_client(seed: u64, client: usize) -> Self {
        Self::new(client_seed(seed, client))
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

    /// The diurnal ON window as `(phase, len)`, the two numbers
    /// [`AvailabilityModel::diurnal_available`] reads: the client is
    /// diurnally available at round `r` iff `(r + phase) % ROUNDS_PER_DAY
    /// < len`. `len = ceil(duty · ROUNDS_PER_DAY)`, because a whole
    /// position lies below `duty · ROUNDS_PER_DAY` exactly when it lies
    /// below its ceiling. Both fit a byte; the
    /// [`AvailabilityIndex`](crate::AvailabilityIndex) keeps them, and
    /// nothing else, per client.
    pub fn diurnal_window(&self) -> (u8, u8) {
        const _: () = assert!(ROUNDS_PER_DAY <= u8::MAX as usize);
        (self.phase as u8, window_len(self.duty))
    }
}

/// Write client `base + k`'s [`AvailabilityModel::diurnal_window`] into
/// `(phase[k], len[k])` and its [`Interruption::threshold`] into `hi[k]`,
/// for every `k` (the three slices must be of one length). Every
/// population builder goes through it.
///
/// The loop spells out [`AvailabilityModel::new`]'s generator without
/// building a model and has no branch, so it vectorizes (eight clients
/// per 512-bit register, 64-bit multiplies as `vpmullq`); with three
/// byte-wide outputs LLVM runs it 64 clients a step, which hides the
/// latency of each client's chain of multiplies (DESIGN.md §14).
/// [`StdRng::seed_from_u64`] fills xoshiro256++'s state word `w` with
/// `split_seed(s, w)` (the identity [`first_f64`] uses); three outputs
/// give the phase, the duty and `p` through the shim's `gen_range`
/// formulas ([`day_position`], [`uniform`]), and the window's and the
/// threshold's own functions turn the last two into bytes: the same
/// integer and IEEE operations in the same order, so every entry is
/// bit-identical. Out of line, so it is one symbol for `ci.sh`'s
/// `vpmullq` count.
///
/// [`StdRng::seed_from_u64`]: rand::SeedableRng::seed_from_u64
#[inline(never)]
pub(crate) fn population_tables(
    seed: u64,
    base: usize,
    phase: &mut [u8],
    len: &mut [u8],
    hi: &mut [u8],
) {
    let n = phase.len();
    assert_eq!((len.len(), hi.len()), (n, n), "one entry per client");
    for k in 0..n {
        let s = split_seed(client_seed(seed, base + k), 0xA7A);
        let mut state = [0, 1, 2, 3].map(|w| split_seed(s, w));
        phase[k] = day_position(xoshiro_next(&mut state)) as u8;
        len[k] = window_len(uniform(0.35, 0.85, xoshiro_next(&mut state)));
        hi[k] = threshold_of(uniform(0.02, 0.12, xoshiro_next(&mut state)));
    }
}

/// The diurnal window's length for duty cycle `duty`: `ceil(duty ·
/// ROUNDS_PER_DAY)`. `duty < 1`, so it is at most `ROUNDS_PER_DAY`.
#[inline(always)]
fn window_len(duty: f64) -> u8 {
    whole((duty * ROUNDS_PER_DAY as f64).ceil()) as u8
}

/// [`Interruption::threshold`] of interruption probability `p`.
#[inline(always)]
fn threshold_of(p: f64) -> u8 {
    (clearing_draw(p) >> 42) as u8
}

/// `T = ⌈p·2⁵³⌉`, the smallest 53-bit draw that clears probability `p`
/// (`p·2⁵³` is exact: a power-of-two scale), for `p < 1/2`.
#[inline(always)]
fn clearing_draw(p: f64) -> u64 {
    whole((p * (1u64 << 53) as f64).ceil())
}

/// The largest `p` whose key fits a byte: `⌈p·2⁵³⌉ < 2⁵⁰` exactly when
/// `p·2⁵³ ≤ 2⁵⁰ − 1`. It lies 2⁻⁵³ below 1/8, far above the model's
/// `p < 0.12`.
const KEY_P_MAX: f64 = ((1u64 << 50) - 1) as f64 / (1u64 << 53) as f64;

/// A whole `x` in `[0, 2⁵²)` as an integer, what `x as u64` gives. Adding
/// 2⁵² is exact and leaves `x` as the low mantissa bits; unlike the
/// saturating `as`, which LLVM lowers lane by lane through scalar code,
/// it is two vector instructions.
#[inline(always)]
fn whole(x: f64) -> u64 {
    const TWO_52: f64 = (1u64 << 52) as f64;
    (x + TWO_52).to_bits() - TWO_52.to_bits()
}

/// One xoshiro256++ step: the shim's `StdRng::next_u64`.
#[inline(always)]
fn xoshiro_next(s: &mut [u64; 4]) -> u64 {
    let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
    result
}

/// The shim's `gen_range(0..ROUNDS_PER_DAY)` on output `x`: Lemire's
/// `(x·96) >> 64`, exactly in `u64`. With `x = a·2⁵⁹ + b`, `b < 2⁵⁹`,
/// `x·96 = 3x·2⁵` and `3x = 3a·2⁵⁹ + 3b`, so the top word is
/// `3a + (3b >> 59)`; `3b < 2⁶¹` cannot overflow.
#[inline(always)]
fn day_position(x: u64) -> usize {
    const _: () = assert!(ROUNDS_PER_DAY == 3 << 5);
    const LOW: u64 = (1 << 59) - 1;
    (3 * (x >> 59) + ((3 * (x & LOW)) >> 59)) as usize
}

/// The shim's `gen_range(lo..hi)` for `f64` on output `x`:
/// `lo + (hi − lo)·u` with `u` the 53-bit `Standard` draw, and a value
/// rounded up to `hi` pulled back to `max(lo, prev_down(hi))`. The guard
/// is a select, not a branch. `hi` must be positive (then `prev_down` is
/// one step down in the bits).
#[inline(always)]
fn uniform(lo: f64, hi: f64, x: u64) -> f64 {
    let u = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let v = lo + (hi - lo) * u;
    let top = lo.max(f64::from_bits(hi.to_bits() - 1));
    if v >= hi {
        top
    } else {
        v
    }
}

/// One client's interruption draw, and nothing else: 16 bytes, half an
/// [`AvailabilityModel`]. It is the single-client reference the model's
/// [`AvailabilityModel::clear_of_interruption`] reads; the full
/// availability sweep keeps the 1-byte [`InterruptionTable`] instead, and
/// the diurnal half lives in the
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

    /// The key of this client: the top 11 bits of the smallest raw draw
    /// that clears it, the one byte [`InterruptionTable`] keeps of it.
    ///
    /// [`Interruption::clear`] reads the draw `x` as `X·2⁻⁵³` with
    /// `X = x >> 11` (exact in `f64`), so it clears exactly when
    /// `X ≥ p·2⁵³`, that is when `X ≥ T = ⌈p·2⁵³⌉` (`p·2⁵³` is exact: a
    /// power-of-two scale). The key is `T >> 42`, comparable with
    /// `x >> 53 = X >> 42`. Below 1/8, `T ≤ 2⁵⁰`, and the key fits a
    /// byte up to 2⁻⁵³ under 1/8; the model's `p < 0.12` keeps it at
    /// most 245.
    ///
    /// # Panics
    ///
    /// Panics if `p` is negative or its key does not fit a byte.
    pub fn threshold(&self) -> u8 {
        assert!(
            (0.0..=KEY_P_MAX).contains(&self.p),
            "p = {} has no one-byte key",
            self.p
        );
        threshold_of(self.p)
    }
}

/// The seed of client `client`'s traces in a population sampled under
/// `seed`: the stream [`population_tables`] derives.
#[inline(always)]
fn client_seed(seed: u64, client: usize) -> u64 {
    split_seed(split_seed(seed, 0x1000 + client as u64), 2)
}

/// The full availability sweep's interruption draws: 1 byte per client,
/// where a table of [`Interruption`]s takes 16.
///
/// Entry `c` is client `c`'s [`Interruption::threshold`], the top 11 bits
/// of the smallest raw draw that clears it. The client's seed is not
/// stored; it is recomputed from the population seed, two finalizers per
/// client. A round's raw draw `x` then decides on its top 11 bits
/// `top = x >> 53` against the entry `hi`:
///
/// - `top > hi`: the client is clear;
/// - `top < hi`: the client is interrupted;
/// - `top == hi` (one draw in 2¹¹): the low bits decide, so the client's
///   model is rederived and its exact [`Interruption::clear`] applied.
///
/// Every answer therefore equals [`Interruption::clear`] bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterruptionTable {
    /// Population seed the clients' seeds derive from.
    seed: u64,
    /// Per-client [`Interruption::threshold`].
    hi: Vec<u8>,
}

impl InterruptionTable {
    /// The table of the population sampled under `seed`: `hi[c]` must be
    /// client `c`'s [`Interruption::threshold`] under that seed.
    pub fn from_thresholds(seed: u64, hi: Vec<u8>) -> Self {
        InterruptionTable { seed, hi }
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.hi.len()
    }

    /// Whether the table holds no client.
    pub fn is_empty(&self) -> bool {
        self.hi.is_empty()
    }

    /// Heap bytes of the entries: 1 per client.
    pub fn heap_bytes(&self) -> usize {
        self.hi.len()
    }

    /// The exact rule for client `client`, from its rederived model.
    fn exact(&self, client: usize) -> Interruption {
        AvailabilityModel::for_client(self.seed, client).interruption()
    }

    /// Top 11 bits of client `client`'s raw draw in `round`.
    #[inline(always)]
    fn top(&self, client: usize, round: usize) -> u64 {
        let s = split_seed(client_seed(self.seed, client), 0xB00 + round as u64);
        first_u64(s) >> 53
    }

    /// [`Interruption::clear`] of client `client` in `round`.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn clear(&self, client: usize, round: usize) -> bool {
        self.clear_with(client, round, |c| self.exact(c))
    }

    fn clear_with(
        &self,
        client: usize,
        round: usize,
        exact: impl FnOnce(usize) -> Interruption,
    ) -> bool {
        let (top, hi) = (self.top(client, round), u64::from(self.hi[client]));
        top > hi || (top == hi && exact(client).clear(round))
    }

    /// [`InterruptionTable::clear`] for the clients of `row` among the up
    /// to 64 from `base`: bit `k` of the mask is set when bit `k` of `row`
    /// is and `clear(base + k, round)`; bits past the table's end are
    /// zero. The count is the number of those clients whose draw tied
    /// their key and took the exact rule. The compare loop has no branch,
    /// so it vectorizes (eight clients per 512-bit register) into two
    /// masks, above and tie; the full availability sweep calls it once
    /// per word of the index's membership row, with that word as `row`.
    /// Only a tie among the row's clients, one draw in 2¹¹, pays the exact
    /// rule.
    ///
    /// # Panics
    ///
    /// Panics if `base` is past the end of the table.
    #[inline]
    pub fn clear_word(&self, base: usize, round: usize, row: u64) -> (u64, u32) {
        self.clear_word_with(base, round, row, |c| self.exact(c))
    }

    #[inline(always)]
    fn clear_word_with(
        &self,
        base: usize,
        round: usize,
        row: u64,
        exact: impl Fn(usize) -> Interruption,
    ) -> (u64, u32) {
        let hi = &self.hi[base..(base + 64).min(self.hi.len())];
        let (mut above, mut tie) = (0u64, 0u64);
        for (k, &h) in hi.iter().enumerate() {
            let (top, h) = (self.top(base + k, round), u64::from(h));
            above |= u64::from(top > h) << k;
            tie |= u64::from(top == h) << k;
        }
        let (mut clear, mut tie) = (above & row, tie & row);
        let ties = tie.count_ones();
        while tie != 0 {
            let k = tie.trailing_zeros() as usize;
            tie &= tie - 1;
            clear |= u64::from(exact(base + k).clear(round)) << k;
        }
        (clear, ties)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `clear_of_interruption` delegates to `Interruption::clear`, so both
    /// are checked against the draw spelled out from the model's own
    /// fields through the full generator.
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
    }

    fn table_of(seed: u64, models: &[AvailabilityModel]) -> InterruptionTable {
        let hi = models
            .iter()
            .map(|m| m.interruption().threshold())
            .collect();
        InterruptionTable::from_thresholds(seed, hi)
    }

    /// Client `client`'s raw interruption draw in `round`.
    fn draw(m: &AvailabilityModel, round: usize) -> u64 {
        first_u64(split_seed(m.seed, 0xB00 + round as u64))
    }

    /// The 1-byte table is a twin of the 16-byte reference: every word
    /// mask, at every word edge of populations on either side of one word
    /// and of a long row, is the fold of `Interruption::clear` over the
    /// clients of its row (a full row and a scattered one), every tie
    /// count is the row's clients whose top 11 bits equal their key, and
    /// every one-client answer is that client's. The ~3M full-row draws
    /// must meet natural ties (~1500 expected), so the exact path runs on
    /// real draws, not only on the forced one below.
    #[test]
    fn table_clear_word_equals_the_fold_of_clear() {
        let mut natural_ties = 0;
        for n in [1usize, 63, 64, 65, 10_000] {
            let models: Vec<AvailabilityModel> = (0..n)
                .map(|c| AvailabilityModel::for_client(23, c))
                .collect();
            let table = table_of(23, &models);
            assert_eq!(table.len(), n);
            assert_eq!(table.heap_bytes(), n);
            for r in 0..300 {
                for base in (0..n).step_by(64) {
                    let lanes = &models[base..(base + 64).min(n)];
                    for row in [u64::MAX, split_seed(r as u64, base as u64)] {
                        let in_row = |k: usize| (row >> k) & 1 == 1;
                        let (mut want, mut want_ties) = (0u64, 0);
                        for (k, m) in lanes.iter().enumerate().filter(|&(k, _)| in_row(k)) {
                            want |= u64::from(m.interruption().clear(r)) << k;
                            let key = m.interruption().threshold();
                            want_ties += u32::from(draw(m, r) >> 53 == u64::from(key));
                        }
                        let got = table.clear_word(base, r, row);
                        assert_eq!(got, (want, want_ties), "n {n} base {base} round {r}");
                        if row == u64::MAX {
                            natural_ties += want_ties;
                        }
                    }
                }
                for (c, m) in models.iter().enumerate().step_by(7) {
                    let want = m.interruption().clear(r);
                    assert_eq!(table.clear(c, r), want, "n {n} client {c} round {r}");
                }
            }
        }
        assert!(natural_ties > 0, "no draw tied its key");
    }

    /// The key is what its doc says: the top 11 bits (`X >> 42`) of the
    /// smallest `X` that `Interruption::clear`'s compare `X·2⁻⁵³ ≥ p`
    /// passes, found here by stepping up from below `p·2⁵³`. The ceiling
    /// matters only when `p·2⁵³` lies just under a multiple of 2⁴², one
    /// model `p` in ~2⁴², so such `p` are built on purpose beside sampled
    /// ones, 1/8 to 3/4 under every multiple in the model's range and
    /// under the last one a byte holds: a truncation misses the multiple
    /// the ceiling reaches at each, and a rounding to nearest at 3/4.
    #[test]
    fn threshold_is_the_top_of_the_smallest_clearing_draw() {
        let scale = 1.0 / (1u64 << 53) as f64;
        let crafted = (41u64..=246).chain([255]).flat_map(|k| {
            // p·2⁵³ just under k·2⁴², exact: the floats there are 1/8 apart.
            [0.75, 0.5, 0.25, 0.125].map(|below| ((k << 42) as f64 - below) * scale)
        });
        let sampled = (0..100_000).map(|c| AvailabilityModel::for_client(5, c).interruption_p);
        for p in crafted.chain(sampled) {
            let mut x = (p / scale) as u64 - 2;
            while (x as f64) * scale < p {
                x += 1;
            }
            let cut = Interruption { seed: 0, p };
            assert_eq!(u64::from(cut.threshold()), x >> 42, "p {p:e}");
        }
    }

    /// Every model key fits its byte with room to spare: `p` rises with
    /// the draw, so the largest is the last output's, key 245, and every
    /// sampled client's key is its clearing draw's top bits, untruncated.
    /// The last `p` with a one-byte key has key 255; one float above it
    /// the key would be 256, and `threshold` refuses it.
    #[test]
    fn every_model_key_is_below_256() {
        let p_max = uniform(0.02, 0.12, u64::MAX);
        assert_eq!(clearing_draw(p_max) >> 42, 245);
        for c in 0..100_000 {
            let p = AvailabilityModel::for_client(11, c).interruption_p;
            let key = Interruption { seed: 0, p }.threshold();
            assert_eq!(u64::from(key), clearing_draw(p) >> 42, "client {c}");
            assert!(key <= 245, "client {c}: key {key}");
        }
        let cut = |p: f64| Interruption { seed: 0, p };
        assert_eq!(cut(KEY_P_MAX).threshold(), 255);
        let past = KEY_P_MAX.next_up();
        assert_eq!(clearing_draw(past) >> 42, 256);
        let refused = std::panic::catch_unwind(|| cut(past).threshold());
        assert!(refused.is_err(), "a two-byte key was truncated");
    }

    /// `whole` is the integer cast on every whole float it is handed: the
    /// window lengths, thresholds up to 2⁵⁰, and the edges of its range.
    #[test]
    fn whole_is_the_integer_cast() {
        let edges = [0, 1, 34, 82, 96, (1 << 21) - 1, 1 << 50, (1 << 52) - 1];
        let spread = (0..100_000u64).map(|i| split_seed(7, i) >> 12);
        for x in edges.into_iter().chain(spread) {
            assert_eq!(whole(x as f64), x, "x {x}");
        }
    }

    /// A tie on the 11-bit key is decided by the exact rule, both ways.
    /// The entry of client 5 is forced to the top 11 bits of its own draw
    /// in the first round where those bits fit a byte, and the exact rule
    /// is handed `p` at the draw's value `X·2⁻⁵³` (clear: the draw is not
    /// below it) and one float above it (interrupted). Both `p` give that
    /// same key, so each is a true tie of the encoding, and only the low
    /// bits can tell them apart. A row without the client leaves its bit
    /// clear and its tie unresolved.
    #[test]
    fn a_forced_tie_is_decided_by_the_exact_rule() {
        let (seed, client) = (31, 5);
        let models: Vec<AvailabilityModel> = (0..64)
            .map(|c| AvailabilityModel::for_client(seed, c))
            .collect();
        let mut table = table_of(seed, &models);
        let round = (0..)
            .find(|&r| draw(&models[client], r) >> 53 < 256)
            .expect("a draw under 2⁶¹");
        let (s, x) = (models[client].seed, draw(&models[client], round));
        let key = (x >> 53) as u8;
        let at = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        // The draw's low 42 bits are not all ones, so `X + 1` keeps its
        // top bits and `p` one float above the draw is a tie too.
        assert_ne!((x >> 11) & ((1 << 42) - 1), (1 << 42) - 1);
        table.hi[client] = key;
        let others: u32 = (0..64)
            .filter(|&k| k != client)
            .map(|k| u32::from(draw(&models[k], round) >> 53 == u64::from(table.hi[k])))
            .sum();
        for (p, want) in [(at, true), (at.next_up(), false)] {
            let cut = Interruption { seed: s, p };
            assert_eq!(cut.threshold(), key, "p {p} is not a tie");
            assert_eq!(cut.clear(round), want, "p {p}");
            let exact = |c: usize| {
                if c == client {
                    cut
                } else {
                    models[c].interruption()
                }
            };
            assert_eq!(table.clear_with(client, round, exact), want, "p {p}");
            let (mask, ties) = table.clear_word_with(0, round, u64::MAX, exact);
            assert_eq!((mask >> client) & 1 == 1, want, "p {p}");
            assert_eq!(ties, others + 1, "p {p}");
            // The other 63 lanes keep their own answers.
            for (k, m) in models.iter().enumerate().filter(|&(k, _)| k != client) {
                let bit = (mask >> k) & 1 == 1;
                assert_eq!(bit, m.interruption().clear(round), "lane {k}");
            }
            let not_asked = |c: usize| {
                assert_ne!(c, client, "a tie outside the row was resolved");
                models[c].interruption()
            };
            let row = !(1u64 << client);
            let (outside, ties) = table.clear_word_with(0, round, row, not_asked);
            assert_eq!(outside, mask & row, "p {p}");
            assert_eq!(ties, others, "p {p}");
        }
    }

    /// Client `client`'s `(phase, len, threshold)` through the full
    /// generator, the constructor every client's model is defined by.
    fn generated(seed: u64, client: usize) -> (u8, u8, u8) {
        let m = AvailabilityModel::new(split_seed(split_seed(seed, 0x1000 + client as u64), 2));
        let (phase, len) = m.diurnal_window();
        (phase, len, m.interruption().threshold())
    }

    /// [`population_tables`] from client `base`, `n` entries.
    fn tables(seed: u64, base: usize, n: usize) -> Vec<(u8, u8, u8)> {
        let (mut phase, mut len, mut hi) = (vec![0; n], vec![0; n], vec![0; n]);
        population_tables(seed, base, &mut phase, &mut len, &mut hi);
        (0..n).map(|k| (phase[k], len[k], hi[k])).collect()
    }

    /// The kernel is checked against the generator it spells out, on every
    /// client of whole populations, as one slice and as slices that start
    /// and end off a 64-client boundary (and so off every vector lane
    /// boundary).
    #[test]
    fn batch_equals_the_generator_over_whole_populations() {
        for seed in [0, 1, 17, 20_240_422, u64::MAX] {
            for n in [0, 1, 63, 64, 65, 1000, 100_000] {
                let want: Vec<(u8, u8, u8)> = (0..n).map(|c| generated(seed, c)).collect();
                for (c, (g, w)) in tables(seed, 0, n).iter().zip(&want).enumerate() {
                    assert_eq!(g, w, "seed {seed} n {n} client {c}");
                }
                for (start, len) in [(0, 1), (5, 59), (7, 64), (63, 2), (64, 65), (100, 129)] {
                    if start + len > n {
                        continue;
                    }
                    for (k, g) in tables(seed, start, len).iter().enumerate() {
                        assert_eq!(g, &want[start + k], "seed {seed} slice {start}+{k}");
                    }
                }
            }
        }
    }

    /// A generator whose every output is `x`, to drive the shim's range
    /// draws at chosen outputs.
    struct Fixed(u64);

    impl rand::RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    fn outputs() -> impl Iterator<Item = u64> {
        let edges = [
            0,
            1,
            (1 << 59) - 1,
            1 << 59,
            1 << 63,
            u64::MAX - 1,
            u64::MAX,
        ];
        edges
            .into_iter()
            .chain((0..100_000).map(|i| split_seed(0x5EED, i)))
    }

    /// `day_position` is Lemire's widening multiply, and the shim's draw.
    #[test]
    fn day_position_is_the_shims_lemire_draw() {
        for x in outputs() {
            let want = ((u128::from(x) * 96) >> 64) as usize;
            assert_eq!(day_position(x), want, "x {x:#x}");
            assert_eq!(Fixed(x).gen_range(0..ROUNDS_PER_DAY), want, "x {x:#x}");
        }
    }

    /// `uniform` is the shim's float range, including the guard: at
    /// `1.0..2.0` the top output rounds up to `hi` and must come back to
    /// the float below it. (At the model's own ranges no output does.)
    #[test]
    fn uniform_is_the_shims_float_range() {
        for (lo, hi) in [(0.35, 0.85), (0.02, 0.12), (1.0, 2.0)] {
            for x in outputs() {
                let want: f64 = Fixed(x).gen_range(lo..hi);
                assert_eq!(
                    uniform(lo, hi, x).to_bits(),
                    want.to_bits(),
                    "{lo}..{hi} x {x:#x}"
                );
            }
        }
        assert_eq!(uniform(1.0, 2.0, u64::MAX), 2.0f64.next_down());
    }

    /// The interruption probability is `U[0.02, 0.12)`: over a million
    /// clients its mean lies within six standard errors,
    /// `6 · 0.1/√(12n)`, of 0.07. (`interruption_p` has no public reader,
    /// so this check sits here rather than in `tests/substrate.rs`.)
    #[test]
    fn interruption_p_mean_matches_its_closed_form() {
        let n = 1_000_000;
        let sum: f64 = (0..n)
            .map(|c| AvailabilityModel::for_client(20_240_422, c).interruption_p)
            .sum();
        let mean = sum / n as f64;
        let bound = 6.0 * 0.1 / (12.0 * n as f64).sqrt();
        assert!((mean - 0.07).abs() < bound, "mean {mean}, bound {bound}");
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
            (avail - m.duty).abs() < 0.05,
            "measured {avail} vs duty {}",
            m.duty
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
