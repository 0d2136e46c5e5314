//! TiFL-style tier-based client selection (Chai et al., HPDC '20),
//! re-implemented from the published algorithm description as an
//! extension baseline beyond the paper's four.
//!
//! TiFL profiles clients into latency tiers and selects each round's
//! cohort from a *single* tier, so the round's wall time is bounded by
//! that tier's speed instead of the global straggler. An adaptive
//! scheduler spends more rounds on tiers whose data the model has not yet
//! absorbed (here: tiers with the higher recent statistical utility),
//! subject to per-tier credits that stop any tier from being ignored.

use std::collections::HashMap;

use float_profile::ClientProfiler;
use float_tensor::rng::{seed_rng, split_seed};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::selector::{ClientSelector, SelectionFeedback};

/// Number of latency tiers TiFL maintains.
const NUM_TIERS: usize = 5;

/// Re-profile clients into tiers every this many rounds.
const RETIER_EVERY: usize = 10;

/// Per-client profiling state.
#[derive(Debug, Clone, Copy)]
struct ClientProfile {
    /// EMA of observed round latency, seconds. `None` until first observed.
    latency_s: Option<f64>,
    /// EMA of statistical utility.
    utility: f64,
    /// Assigned tier (0 = fastest).
    tier: usize,
}

impl Default for ClientProfile {
    fn default() -> Self {
        ClientProfile {
            latency_s: None,
            utility: 1.0, // optimistic prior so new tiers get scheduled
            tier: 0,
        }
    }
}

/// Tier-based selector.
#[derive(Debug, Clone)]
pub struct TiflSelector {
    seed: u64,
    /// Per-client profiles, keyed sparsely by client id so state stays
    /// O(touched clients) at population scale. Only clients that have
    /// received feedback carry an entry; everyone else's tier follows the
    /// watermark rule in [`Self::effective_tier`].
    profiles: HashMap<usize, ClientProfile>,
    /// One past the highest client id ever covered by an eligible slice or
    /// feedback batch — the length the dense profile vector would have.
    ensured: usize,
    /// Value of `ensured` at the last *applied* re-tiering. The dense
    /// implementation sent every profiled-but-latency-free client to the
    /// middle tier at retier time, while clients first seen afterwards sat
    /// in tier 0 until the next retier; this watermark reproduces that
    /// split without materializing entries.
    retiered: usize,
    /// Remaining selection credits per tier; refilled when exhausted.
    credits: Vec<u64>,
    rounds_seen: usize,
    /// Scratch: eligible members of the chosen tier, reused across rounds.
    /// Kept apart from the caller's pool because the top-up below walks
    /// that pool in its ascending order after the tier's draw.
    pool: Vec<u32>,
}

impl TiflSelector {
    /// Create a TiFL selector.
    pub fn new(seed: u64) -> Self {
        TiflSelector {
            seed,
            profiles: HashMap::new(),
            ensured: 0,
            retiered: 0,
            credits: vec![INITIAL_CREDITS; NUM_TIERS],
            rounds_seen: 0,
            pool: Vec::new(),
        }
    }

    fn ensure(&mut self, n: usize) {
        self.ensured = self.ensured.max(n);
    }

    /// Tier of a client with no stored profile: the middle tier if the
    /// client was already covered when the tiers were last recomputed
    /// (re-tiering sends every latency-free client there), tier 0 — the
    /// default profile — otherwise.
    fn unprofiled_tier(&self, c: usize) -> usize {
        if c < self.retiered {
            NUM_TIERS / 2
        } else {
            0
        }
    }

    /// Tier assignment of `c`, whether or not it has a stored profile.
    fn effective_tier(&self, c: usize) -> usize {
        self.profiles
            .get(&c)
            .map_or_else(|| self.unprofiled_tier(c), |p| p.tier)
    }

    /// Recompute tier boundaries by latency quantiles over profiled
    /// clients; unprofiled clients go to the middle tier. When a
    /// profiler is supplied, a client's latency comes from its
    /// online estimate (observed completions) in preference to the
    /// selector's own feedback EMA — TiFL's tiers then reflect measured
    /// behaviour rather than whatever the feedback channel reported.
    fn retier(&mut self, profiles: Option<&ClientProfiler>) {
        let lat = |c: usize, p: &ClientProfile| -> Option<f64> {
            profiles
                .and_then(|v| v.estimate(c).and_then(|e| e.latency_s))
                .or(p.latency_s)
        };
        // Quarantine-style degradation: a non-finite latency sample (a
        // poisoned EMA, a simulated sensor glitch) is excluded from the
        // quantile computation instead of panicking the whole run, and
        // `total_cmp` gives the sort a total order — identical to the old
        // comparator on all-finite data. HashMap iteration order feeds a
        // sort, so the cuts are order-independent and deterministic.
        let mut latencies: Vec<f64> = self
            .profiles
            .iter()
            .filter_map(|(&c, p)| lat(c, p))
            .filter(|l| l.is_finite())
            .collect();
        if latencies.len() < NUM_TIERS {
            return;
        }
        latencies.sort_by(f64::total_cmp);
        let boundary = |q: f64| -> f64 {
            let idx = ((latencies.len() as f64 - 1.0) * q).round() as usize;
            latencies[idx.min(latencies.len() - 1)]
        };
        let cuts: Vec<f64> = (1..NUM_TIERS)
            .map(|i| boundary(i as f64 / NUM_TIERS as f64))
            .collect();
        for (&c, p) in self.profiles.iter_mut() {
            p.tier = match lat(c, p) {
                Some(l) if l.is_finite() => cuts
                    .iter()
                    .position(|&cut| l <= cut)
                    .unwrap_or(NUM_TIERS - 1),
                // No usable latency (never observed, or quarantined as
                // non-finite): the middle tier, like any unprofiled client.
                _ => NUM_TIERS / 2,
            };
        }
        self.retiered = self.ensured;
    }

    /// Pick the tier for this round: among tiers with credits and eligible
    /// clients, weight by recent mean utility (data the model still needs)
    /// with a floor so no tier starves.
    fn choose_tier<R: Rng>(&self, eligible: &[u32], rng: &mut R) -> usize {
        let mut weight = [0.0f64; NUM_TIERS];
        let mut count = [0usize; NUM_TIERS];
        for &c in eligible {
            let c = c as usize;
            let (tier, utility) = self
                .profiles
                .get(&c)
                .map_or_else(|| (self.unprofiled_tier(c), 1.0), |p| (p.tier, p.utility));
            weight[tier] += utility;
            count[tier] += 1;
        }
        let mut total = 0.0;
        for t in 0..NUM_TIERS {
            if count[t] == 0 || self.credits[t] == 0 {
                weight[t] = 0.0;
            } else {
                weight[t] = (weight[t] / count[t] as f64).max(0.05);
                total += weight[t];
            }
        }
        if total <= 0.0 {
            // All credits spent or no eligible tiers: fastest non-empty.
            return count.iter().position(|&c| c > 0).unwrap_or(0);
        }
        let mut draw = rng.gen::<f64>() * total;
        for (t, &w) in weight.iter().enumerate() {
            draw -= w;
            if w > 0.0 && draw <= 0.0 {
                return t;
            }
        }
        NUM_TIERS - 1
    }

    /// Tier assignment of a client (for tests). `None` for clients beyond
    /// anything the selector has ever been shown.
    pub fn tier_of(&self, client: usize) -> Option<usize> {
        (client < self.ensured).then(|| self.effective_tier(client))
    }
}

/// Credits issued to each tier per refill.
const INITIAL_CREDITS: u64 = 20;

impl ClientSelector for TiflSelector {
    /// Reads `eligible` and leaves it ascending.
    fn select_in_place(
        &mut self,
        round: usize,
        eligible: &mut [u32],
        target: usize,
        profiles: Option<&ClientProfiler>,
        cohort: &mut Vec<usize>,
    ) {
        let eligible = &*eligible;
        cohort.clear();
        let max_id = eligible.iter().copied().max().map_or(0, |m| m as usize + 1);
        self.ensure(max_id);
        self.rounds_seen += 1;
        if self.rounds_seen.is_multiple_of(RETIER_EVERY) {
            self.retier(profiles);
        }
        if self.credits.iter().all(|&c| c == 0) {
            self.credits = vec![INITIAL_CREDITS; NUM_TIERS];
        }
        let mut rng = seed_rng(split_seed(self.seed, round as u64));
        let tier = self.choose_tier(eligible, &mut rng);
        self.credits[tier] = self.credits[tier].saturating_sub(1);
        let need = target.min(eligible.len());
        let mut pool = std::mem::take(&mut self.pool);
        pool.clear();
        pool.extend(
            eligible
                .iter()
                .copied()
                .filter(|&c| self.effective_tier(c as usize) == tier),
        );
        // The shuffle's draws and swaps do not depend on the element type.
        pool.shuffle(&mut rng);
        cohort.extend(pool[..need.min(pool.len())].iter().map(|&c| c as usize));
        self.pool = pool;
        // Top up from neighbouring tiers if the chosen tier is too small
        // (TiFL merges adjacent tiers when underpopulated): the least
        // (tier distance, position in `eligible`) keys — the strict total
        // order that matches exactly where a stable sort by distance left
        // tied clients — taken one distance at a time, each in position
        // order, so no key list is built.
        let dist =
            |c: &u32| (self.effective_tier(*c as usize) as isize - tier as isize).unsigned_abs();
        for d in 1..NUM_TIERS {
            let want = need - cohort.len();
            if want == 0 {
                break;
            }
            let nearest = eligible.iter().filter(|c| dist(c) == d).take(want);
            cohort.extend(nearest.map(|&c| c as usize));
        }
    }

    fn feedback(&mut self, _round: usize, results: &[SelectionFeedback]) {
        if let Some(max_id) = results.iter().map(|f| f.client).max() {
            self.ensure(max_id + 1);
        }
        for f in results {
            // Materialize with the tier the client *currently* holds (per
            // the watermark rule), not the raw default — tiers only move
            // at retier time.
            let tier = self.unprofiled_tier(f.client);
            let p = self.profiles.entry(f.client).or_insert(ClientProfile {
                tier,
                ..ClientProfile::default()
            });
            // Quarantine non-finite samples at the source: folding a NaN
            // or infinite duration into the EMA would poison the latency
            // profile for every future re-tiering. A quarantined payload
            // says nothing about the client's pace either — it updates
            // utility only, never the latency EMA.
            if !f.quarantined && f.duration_s > 0.0 && f.duration_s.is_finite() {
                p.latency_s = Some(match p.latency_s {
                    Some(l) => 0.7 * l + 0.3 * f.duration_s,
                    None => f.duration_s,
                });
            }
            if f.completed {
                p.utility = 0.7 * p.utility + 0.3 * f.utility;
            } else {
                p.utility *= 0.9;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test helper: an eligible pool of the first `n` client ids.
    fn pool(n: u32) -> Vec<u32> {
        (0..n).collect()
    }

    fn fb(client: usize, duration: f64, utility: f64) -> SelectionFeedback {
        SelectionFeedback {
            client,
            completed: true,
            duration_s: duration,
            utility,
            was_available: true,
            quarantined: false,
        }
    }

    /// Drive enough feedback + rounds for a re-tiering to happen.
    fn profile_clients(s: &mut TiflSelector, n: usize) {
        for round in 0..RETIER_EVERY + 1 {
            let results: Vec<SelectionFeedback> = (0..n)
                // Latency grows with id: low ids are the fast tier.
                .map(|c| fb(c, 10.0 + c as f64 * 10.0, 1.0))
                .collect();
            s.feedback(round, &results);
            let _ = s.select(round, &pool(n as u32), 4);
        }
    }

    #[test]
    fn tiers_order_by_latency() {
        let mut s = TiflSelector::new(1);
        profile_clients(&mut s, 50);
        let fast = s.tier_of(0).expect("profiled");
        let slow = s.tier_of(49).expect("profiled");
        assert!(fast < slow, "fast tier {fast} !< slow tier {slow}");
        // Tiers are monotone in latency.
        for c in 1..50 {
            assert!(
                s.tier_of(c - 1).expect("profiled") <= s.tier_of(c).expect("profiled"),
                "tier order violated at {c}"
            );
        }
    }

    #[test]
    fn cohort_comes_from_one_tier_once_profiled() {
        let mut s = TiflSelector::new(2);
        profile_clients(&mut s, 50);
        for round in 20..40 {
            let picks = s.select(round, &pool(50), 5);
            assert_eq!(picks.len(), 5);
            let tiers: std::collections::HashSet<usize> = picks
                .iter()
                .map(|&c| s.tier_of(c).expect("profiled"))
                .collect();
            assert_eq!(tiers.len(), 1, "round {round} mixed tiers {tiers:?}");
        }
    }

    #[test]
    fn all_tiers_eventually_get_rounds() {
        let mut s = TiflSelector::new(3);
        profile_clients(&mut s, 50);
        let mut seen = std::collections::HashSet::new();
        for round in 20..200 {
            let picks = s.select(round, &pool(50), 5);
            if let Some(&c) = picks.first() {
                seen.insert(s.tier_of(c).expect("profiled"));
            }
        }
        assert!(seen.len() >= 4, "only tiers {seen:?} were ever scheduled");
    }

    #[test]
    fn small_tier_tops_up_from_neighbours() {
        let mut s = TiflSelector::new(4);
        profile_clients(&mut s, 10);
        // Ask for more clients than any single 2-client tier holds.
        let picks = s.select(50, &pool(10), 6);
        assert_eq!(picks.len(), 6);
    }

    #[test]
    fn unprofiled_clients_still_selectable() {
        let mut s = TiflSelector::new(5);
        let picks = s.select(0, &pool(20), 8);
        assert_eq!(picks.len(), 8);
    }

    #[test]
    fn non_finite_durations_are_quarantined_not_fatal() {
        let mut s = TiflSelector::new(6);
        // Clients report a mix of honest, NaN, and infinite durations;
        // none of the poisoned samples may enter the latency EMAs.
        for round in 0..RETIER_EVERY + 1 {
            let results: Vec<SelectionFeedback> = (0..50)
                .map(|c| {
                    let d = match c % 3 {
                        0 => 10.0 + c as f64,
                        1 => f64::NAN,
                        _ => f64::INFINITY,
                    };
                    fb(c, d, 1.0)
                })
                .collect();
            s.feedback(round, &results);
            let _ = s.select(round, &pool(50), 4);
        }
        for c in 0..50 {
            if let Some(p) = s.profiles.get(&c) {
                if let Some(l) = p.latency_s {
                    assert!(l.is_finite(), "client {c} EMA poisoned to {l}");
                }
            }
        }
        // Selection still produces full cohorts after the poisoned rounds.
        assert_eq!(s.select(99, &pool(50), 8).len(), 8);
    }

    #[test]
    fn quarantine_never_updates_the_latency_ema() {
        // Regression: quarantined feedback used to fold its duration into
        // the latency EMA, re-tiering the client as slow because its
        // payload was rejected.
        let mut s = TiflSelector::new(8);
        s.feedback(0, &[fb(0, 20.0, 1.0)]);
        let mut q = fb(0, 800.0, 0.0);
        q.completed = false;
        q.quarantined = true;
        s.feedback(1, &[q]);
        assert_eq!(
            s.profiles[&0].latency_s,
            Some(20.0),
            "quarantined duration leaked into the latency EMA"
        );
        // A genuine dropout still moves it.
        let mut d = fb(0, 800.0, 0.0);
        d.completed = false;
        s.feedback(2, &[d]);
        assert_eq!(s.profiles[&0].latency_s, Some(0.7 * 20.0 + 0.3 * 800.0));
    }

    #[test]
    fn profiled_latencies_drive_retiering() {
        use float_profile::{Observation, ObservedOutcome, ProfilingConfig};
        // Internal EMAs say latency grows with id, but the profiler has
        // observed the opposite ordering; with the profiler supplied, tiers
        // must follow the observations.
        let mut s = TiflSelector::new(9);
        let mut p = ClientProfiler::new(ProfilingConfig::on(), 64);
        for round in 0..RETIER_EVERY {
            let results: Vec<SelectionFeedback> = (0..20)
                .map(|c| fb(c, 10.0 + c as f64 * 10.0, 1.0))
                .collect();
            s.feedback(round, &results);
            for c in 0..20usize {
                let observed = 10.0 + (19 - c) as f64 * 10.0;
                p.observe(
                    c,
                    &Observation::replay(round as u64, ObservedOutcome::Completed, observed),
                );
            }
            let mut cohort = Vec::new();
            s.select_in_place(round, &mut pool(20), 4, Some(&p), &mut cohort);
        }
        let fast = s.tier_of(19).expect("profiled");
        let slow = s.tier_of(0).expect("profiled");
        assert!(
            fast < slow,
            "observed-fast client tier {fast} !< observed-slow tier {slow}"
        );
    }

    #[test]
    fn poisoned_latency_profile_degrades_to_middle_tier() {
        // Simulate an EMA that was already poisoned (e.g. by state written
        // before the quarantine guard existed): re-tiering must exclude it
        // from the quantiles and park the client in the middle tier
        // instead of panicking on the sort comparator.
        let mut s = TiflSelector::new(7);
        profile_clients(&mut s, 50);
        s.profiles.get_mut(&3).expect("profiled").latency_s = Some(f64::NAN);
        s.profiles.get_mut(&4).expect("profiled").latency_s = Some(f64::INFINITY);
        for round in 20..20 + RETIER_EVERY {
            let _ = s.select(round, &pool(50), 4);
        }
        assert_eq!(s.tier_of(3), Some(NUM_TIERS / 2));
        assert_eq!(s.tier_of(4), Some(NUM_TIERS / 2));
        // Finite clients keep a monotone latency→tier mapping.
        let fast = s.tier_of(0).expect("profiled");
        let slow = s.tier_of(49).expect("profiled");
        assert!(fast < slow, "fast tier {fast} !< slow tier {slow}");
    }
}
