//! Oort-style guided participant selection (Lai et al., OSDI '21),
//! re-implemented from the published algorithm description.
//!
//! Each client's selection priority combines *statistical utility* (how
//! informative its updates have been, proxied by training-loss magnitude)
//! with a *system utility* penalty for clients slower than the developer's
//! preferred round duration. An exploration fraction admits never-tried
//! clients. The paper's critique — and what our motivation experiments
//! reproduce — is that this preference for efficient clients biases
//! selection when resource conditions fluctuate.

use std::collections::{HashMap, HashSet};

use rand::seq::SliceRandom;
use rand::Rng;

use float_profile::{ClientEstimate, ClientProfiler};
use float_tensor::rng::{seed_rng, split_seed};

use crate::selector::{top_k_by, ClientSelector, SelectionFeedback};

/// Per-client rolling statistics maintained by Oort.
#[derive(Debug, Clone, Copy, Default)]
struct ClientRecord {
    /// Exponential moving average of statistical utility.
    stat_utility: f64,
    /// Last observed round duration in seconds.
    last_duration_s: f64,
    /// How many times the client has been selected.
    selected: u64,
    /// How many times it completed.
    completed: u64,
    /// Last round the client was selected (for staleness bonus).
    last_selected_round: usize,
}

/// How many rounds the pacer aggregates before deciding whether to relax
/// the preferred duration.
const PACER_WINDOW: usize = 10;

/// Guided participant selection.
#[derive(Debug, Clone)]
pub struct OortSelector {
    seed: u64,
    /// Per-client statistics, keyed sparsely by client id: only clients
    /// that have actually been selected or fed back carry an entry, so
    /// state is O(touched clients), not O(population). An absent entry is
    /// exactly a `ClientRecord::default()` — which is what the dense
    /// resize-with-default this replaces produced for untouched ids.
    records: HashMap<usize, ClientRecord>,
    /// Preferred round duration `T`; slower clients are penalized by
    /// `(T / t)^alpha`.
    preferred_duration_s: f64,
    /// The initial `T`, used as the pacer's step size.
    pacer_step_s: f64,
    /// Penalty exponent.
    alpha: f64,
    /// Fraction of each cohort reserved for exploring untried clients.
    exploration_fraction: f64,
    /// Aggregate utility observed per round (pacer input).
    round_utilities: Vec<f64>,
    /// Scratch: (priority, position-in-eligible) pairs of the exploit
    /// candidates — O(touched + cohort), never O(eligible) — reused across
    /// rounds so selection allocates nothing at steady state.
    scored: Vec<(f64, usize)>,
    /// Scratch: shuffled exploration candidates, the eligible `u32` ids
    /// minus the exploit picks.
    rest: Vec<u32>,
    /// Scratch: (times-selected, position-in-`rest`) exploration keys of
    /// the scanned prefix of `rest`.
    explore_keys: Vec<(u64, usize)>,
    /// Scratch membership set over client ids; empty between calls
    /// (cleared by walking the cohort, not the population).
    mask: HashSet<usize>,
}

impl OortSelector {
    /// Create a selector with Oort's default knobs.
    pub fn new(seed: u64, preferred_duration_s: f64) -> Self {
        OortSelector {
            seed,
            records: HashMap::new(),
            preferred_duration_s,
            pacer_step_s: preferred_duration_s * 0.25,
            alpha: 2.0,
            exploration_fraction: 0.2,
            round_utilities: Vec::new(),
            scored: Vec::new(),
            rest: Vec::new(),
            explore_keys: Vec::new(),
            mask: HashSet::new(),
        }
    }

    /// Oort's pacer: when the aggregate statistical utility of the last
    /// window is no better than the window before it, the developer's
    /// speed preference is costing information — relax `T` by one step so
    /// slower-but-informative clients regain priority.
    fn run_pacer(&mut self) {
        let n = self.round_utilities.len();
        if n < 2 * PACER_WINDOW || !n.is_multiple_of(PACER_WINDOW) {
            return;
        }
        let recent: f64 = self.round_utilities[n - PACER_WINDOW..].iter().sum();
        let previous: f64 = self.round_utilities[n - 2 * PACER_WINDOW..n - PACER_WINDOW]
            .iter()
            .sum();
        if recent <= previous {
            self.preferred_duration_s += self.pacer_step_s;
        }
    }

    /// Priority score of client `c` at `round` from internal records only.
    #[cfg(test)]
    fn priority(&self, c: usize, round: usize) -> f64 {
        let r = self.records.get(&c).copied().unwrap_or_default();
        self.priority_with(&r, round, None)
    }

    /// Priority score at `round` of a client whose record is `r`. When a
    /// profiled estimate is supplied, the *system* terms — measured
    /// duration and completion reliability — come from it instead of the
    /// selector's own feedback records; statistical utility, exploration,
    /// and staleness remain internal (they are defined by selection
    /// history, not resources).
    fn priority_with(&self, r: &ClientRecord, round: usize, est: Option<&ClientEstimate>) -> f64 {
        if r.selected == 0 {
            return 0.0; // untried clients go through the exploration pool
        }
        let mut util = r.stat_utility;
        // System utility: penalize clients slower than the target.
        let duration_s = est.and_then(|e| e.latency_s).unwrap_or(r.last_duration_s);
        if duration_s > self.preferred_duration_s && duration_s > 0.0 {
            util *= (self.preferred_duration_s / duration_s).powf(self.alpha);
        }
        // Reliability: clients that keep dropping lose priority.
        let reliability = est.map_or_else(
            || (r.completed as f64 + 1.0) / (r.selected as f64 + 2.0),
            |e| e.reliability,
        );
        util *= reliability;
        // Staleness bonus keeps long-unselected clients from starving
        // entirely (Oort's temporal uncertainty term). Saturating: a query
        // for a round before the client's last selection is zero rounds
        // stale, not `usize::MAX` of them.
        let staleness = (round.saturating_sub(r.last_selected_round) as f64).sqrt() * 0.01;
        util + staleness
    }

    /// Deduplicate a tentative pick list in place (order-preserving,
    /// across *all* elements — `Vec::dedup` only removes adjacent
    /// repeats) and then bump the per-client counters, so a double-picked
    /// id is counted once. Counting before deduplication used to inflate
    /// `selected`, silently depressing the reliability term of
    /// [`Self::priority`]. Uses the reusable membership set rather than
    /// allocating an O(population) seen-vector per round.
    fn commit_selection_into(&mut self, picked: &mut Vec<usize>, round: usize) {
        let mask = &mut self.mask;
        picked.retain(|&c| mask.insert(c));
        for &c in picked.iter() {
            self.mask.remove(&c);
            let r = self.records.entry(c).or_default();
            r.selected += 1;
            r.last_selected_round = round;
        }
    }
}

impl ClientSelector for OortSelector {
    fn select_into(
        &mut self,
        round: usize,
        eligible: &[u32],
        target: usize,
        cohort: &mut Vec<usize>,
    ) {
        self.select_impl(round, eligible, target, None, cohort);
    }

    fn select_profiled(
        &mut self,
        round: usize,
        eligible: &[u32],
        target: usize,
        profiles: &ClientProfiler,
        cohort: &mut Vec<usize>,
    ) {
        self.select_impl(round, eligible, target, Some(profiles), cohort);
    }

    fn feedback(&mut self, _round: usize, results: &[SelectionFeedback]) {
        let mut round_utility = 0.0;
        for f in results {
            let r = self.records.entry(f.client).or_default();
            if f.completed {
                r.completed += 1;
                r.stat_utility = 0.7 * r.stat_utility + 0.3 * f.utility;
                r.last_duration_s = f.duration_s;
                round_utility += f.utility;
            } else if f.quarantined {
                // A quarantined payload is worse than slowness: the client
                // consumed a slot and shipped poison. Decay its utility
                // harder than an ordinary dropout — but say nothing about
                // its speed: the payload was rejected, so its duration is
                // not a measurement of this client's pace and must not
                // feed the system-utility penalty.
                r.stat_utility *= 0.5;
            } else {
                // A dropout tells Oort the client is slow/unreliable.
                r.last_duration_s = r.last_duration_s.max(f.duration_s);
                r.stat_utility *= 0.8;
            }
        }
        self.round_utilities.push(round_utility);
        self.run_pacer();
    }
}

impl OortSelector {
    fn select_impl(
        &mut self,
        round: usize,
        eligible: &[u32],
        target: usize,
        profiles: Option<&ClientProfiler>,
        cohort: &mut Vec<usize>,
    ) {
        debug_assert!(
            eligible.windows(2).all(|w| w[0] < w[1]),
            "eligible must be strictly ascending"
        );
        cohort.clear();
        let target = target.min(eligible.len());
        let mut rng = seed_rng(split_seed(self.seed, round as u64));
        let explore_n = ((target as f64) * self.exploration_fraction).round() as usize;
        let exploit_n = target - explore_n;

        // Exploitation: top-k eligible clients under the strict total
        // order (priority descending by `total_cmp`, position in
        // `eligible` ascending) — duplicated priorities resolve to the
        // earliest eligible position and a NaN priority (unreachable from
        // `priority_with`) would order deterministically. Every untried
        // client scores exactly 0.0, so the top `exploit_n` of the whole
        // pool is the top `exploit_n` of (tried ∩ eligible) plus the
        // `exploit_n` earliest untried positions: only clients that have a
        // record are scored, each located in the ascending `eligible` by
        // binary search, and the walk from position 0 stops at the
        // `exploit_n`-th untried client. The records map is walked in hash
        // order, which cannot reach the output: the candidates are a set,
        // and a strict total order has exactly one top-k.
        let mut scored = std::mem::take(&mut self.scored);
        scored.clear();
        for (c, r) in self.records.iter().filter(|(_, r)| r.selected > 0) {
            // Recorded ids came from eligible lists, so they fit `u32`.
            if let Ok(pos) = eligible.binary_search(&(*c as u32)) {
                let est = profiles.and_then(|v| v.estimate(*c));
                scored.push((self.priority_with(r, round, est.as_ref()), pos));
            }
        }
        let selected = |c: &usize| self.records.get(c).map_or(0, |r| r.selected);
        let earliest = (0..eligible.len()).filter(|&pos| selected(&(eligible[pos] as usize)) == 0);
        scored.extend(earliest.take(exploit_n).map(|pos| (0.0, pos)));
        top_k_by(&mut scored, exploit_n, |a, b| {
            b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1))
        });
        cohort.extend(scored.iter().map(|&(_, pos)| eligible[pos] as usize));

        // Exploration: random among the rest, preferring untried clients —
        // take untried first but keep some randomness among equals. The
        // (times-selected, position-in-shuffle) key is again a strict
        // total order. `rest` is `eligible` minus the exploit picks, copied
        // as the slices between their positions, and is shuffled in full
        // (a truncated reverse Fisher–Yates would change the stream). The
        // key scan then stops at the `explore_n`-th untried client: no
        // later position can beat `explore_n` keys of (0, earlier).
        if explore_n > 0 {
            scored.sort_unstable_by_key(|&(_, pos)| pos);
            let mut rest = std::mem::take(&mut self.rest);
            rest.clear();
            rest.reserve(eligible.len());
            let mut from = 0;
            for &(_, pos) in scored.iter() {
                rest.extend_from_slice(&eligible[from..pos]);
                from = pos + 1;
            }
            rest.extend_from_slice(&eligible[from..]);
            rest.shuffle(&mut rng);
            let mut keys = std::mem::take(&mut self.explore_keys);
            keys.clear();
            let mut untried = 0;
            for (pos, &c) in rest.iter().enumerate() {
                let times = selected(&(c as usize));
                keys.push((times, pos));
                untried += usize::from(times == 0);
                if untried == explore_n {
                    break;
                }
            }
            top_k_by(&mut keys, explore_n, |a, b| {
                a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1))
            });
            cohort.extend(keys.iter().map(|&(_, pos)| rest[pos] as usize));
            self.explore_keys = keys;
            self.rest = rest;
        }
        self.scored = scored;

        self.commit_selection_into(cohort, round);
        let _ = rng.gen::<u64>();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use float_profile::{ClientProfiler, Observation, ObservedOutcome, ProfilingConfig};
    use proptest::prelude::*;

    impl OortSelector {
        /// Brute-force twin of `select_impl`: the dense implementation it
        /// replaced, scoring every eligible client (three hash probes
        /// each) and keying every exploration candidate.
        fn select_dense_reference(
            &mut self,
            round: usize,
            eligible: &[u32],
            target: usize,
            profiles: Option<&ClientProfiler>,
            cohort: &mut Vec<usize>,
        ) {
            cohort.clear();
            let target = target.min(eligible.len());
            let mut rng = seed_rng(split_seed(self.seed, round as u64));
            let explore_n = ((target as f64) * self.exploration_fraction).round() as usize;
            let exploit_n = target - explore_n;

            let mut scored: Vec<(f64, usize)> = eligible
                .iter()
                .enumerate()
                .map(|(pos, &c)| {
                    let c = c as usize;
                    let r = self.records.get(&c).copied().unwrap_or_default();
                    let est = profiles.and_then(|v| v.estimate(c));
                    (self.priority_with(&r, round, est.as_ref()), pos)
                })
                .collect();
            top_k_by(&mut scored, exploit_n, |a, b| {
                b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1))
            });
            cohort.extend(scored.iter().map(|&(_, pos)| eligible[pos] as usize));

            let mut rest: Vec<usize> = eligible
                .iter()
                .map(|&c| c as usize)
                .filter(|c| !cohort.contains(c))
                .collect();
            rest.shuffle(&mut rng);
            let mut keys: Vec<(u64, usize)> = rest
                .iter()
                .enumerate()
                .map(|(pos, c)| (self.records.get(c).map_or(0, |r| r.selected), pos))
                .collect();
            top_k_by(&mut keys, explore_n, |a, b| {
                a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1))
            });
            cohort.extend(keys.iter().map(|&(_, pos)| rest[pos]));

            self.commit_selection_into(cohort, round);
        }

        /// Every record, bit for bit, in client order.
        fn snapshot(&self) -> Vec<(usize, u64, u64, u64, u64, usize)> {
            let mut rows: Vec<_> = self
                .records
                .iter()
                .map(|(&c, r)| {
                    (
                        c,
                        r.stat_utility.to_bits(),
                        r.last_duration_s.to_bits(),
                        r.selected,
                        r.completed,
                        r.last_selected_round,
                    )
                })
                .collect();
            rows.sort_unstable();
            rows
        }
    }

    /// Test helper: an eligible pool of the first `n` client ids.
    fn pool(n: u32) -> Vec<u32> {
        (0..n).collect()
    }

    fn feedback(client: usize, completed: bool, duration: f64, utility: f64) -> SelectionFeedback {
        SelectionFeedback {
            client,
            completed,
            duration_s: duration,
            utility,
            was_available: true,
            quarantined: false,
        }
    }

    #[test]
    fn prefers_high_utility_fast_clients() {
        let mut s = OortSelector::new(1, 60.0);
        // Round 0: everyone untried — exploration only.
        let picks0 = s.select(0, &pool(3), 3);
        assert_eq!(picks0.len(), 3);
        // Teach it: client 0 fast + informative; client 1 slow; client 2
        // drops out. Select the whole pool each round so the staleness
        // bonus stays identical across clients.
        for round in 1..20 {
            s.feedback(
                round,
                &[
                    feedback(0, true, 30.0, 1.0),
                    feedback(1, true, 600.0, 1.0),
                    feedback(2, false, 600.0, 0.0),
                ],
            );
            let _ = s.select(round, &pool(3), 3);
        }
        assert!(s.priority(0, 20) > s.priority(1, 20));
        assert!(s.priority(1, 20) > s.priority(2, 20));
    }

    #[test]
    fn selection_is_biased_toward_efficient_clients() {
        // The Fig. 2a phenomenon: with stable utilities, Oort concentrates
        // selection on fast clients far above the uniform rate.
        let mut s = OortSelector::new(2, 60.0);
        let mut counts = [0usize; 20];
        for round in 0..300 {
            let picks = s.select(round, &pool(20), 5);
            for &c in &picks {
                counts[c] += 1;
            }
            let fb: Vec<SelectionFeedback> = picks
                .iter()
                .map(|&c| {
                    // Clients 0..5 are fast, the rest are 10x slower.
                    let fast = c < 5;
                    feedback(c, true, if fast { 20.0 } else { 200.0 }, 1.0)
                })
                .collect();
            s.feedback(round, &fb);
        }
        let fast_total: usize = counts[..5].iter().sum();
        let slow_total: usize = counts[5..].iter().sum();
        // Fast clients are 25% of the pool but should take well over half
        // the selections.
        assert!(
            fast_total as f64 > slow_total as f64,
            "fast {fast_total} vs slow {slow_total}"
        );
    }

    #[test]
    fn exploration_reaches_untried_clients() {
        let mut s = OortSelector::new(3, 60.0);
        let mut seen = [false; 30];
        for round in 0..60 {
            for c in s.select(round, &pool(30), 6) {
                seen[c] = true;
            }
        }
        let coverage = seen.iter().filter(|&&x| x).count();
        assert!(coverage > 25, "only {coverage}/30 clients ever selected");
    }

    #[test]
    fn pacer_relaxes_preference_when_utility_stalls() {
        let mut s = OortSelector::new(7, 100.0);
        let t0 = s.preferred_duration_s;
        // Feed a stagnant utility stream long enough for two pacer windows.
        for round in 0..20 {
            s.feedback(round, &[feedback(0, true, 50.0, 1.0)]);
        }
        assert!(
            s.preferred_duration_s > t0,
            "pacer never relaxed: {} vs {}",
            s.preferred_duration_s,
            t0
        );
    }

    #[test]
    fn pacer_holds_when_utility_grows() {
        let mut s = OortSelector::new(7, 100.0);
        let t0 = s.preferred_duration_s;
        // Strictly growing utility: the preference is paying off.
        for round in 0..20 {
            s.feedback(round, &[feedback(0, true, 50.0, (round + 1) as f64)]);
        }
        assert_eq!(
            s.preferred_duration_s, t0,
            "pacer relaxed despite improving utility"
        );
    }

    #[test]
    fn double_selected_id_is_counted_once() {
        // Regression: counters used to be bumped before the defensive
        // dedup (which, being Vec::dedup, also missed non-adjacent
        // repeats), so a double-picked id double-counted `selected`.
        let mut s = OortSelector::new(5, 60.0);
        let mut picked = vec![3, 1, 3, 2, 1];
        s.commit_selection_into(&mut picked, 7);
        assert_eq!(picked, vec![3, 1, 2], "order-preserving dedup");
        assert_eq!(
            s.records[&3].selected, 1,
            "non-adjacent duplicate counted once"
        );
        assert_eq!(s.records[&1].selected, 1);
        assert_eq!(s.records[&2].selected, 1);
        assert_eq!(s.records[&3].last_selected_round, 7);
    }

    #[test]
    fn quarantined_clients_lose_utility_faster_than_dropouts() {
        let mut slow = OortSelector::new(6, 60.0);
        let mut poison = OortSelector::new(6, 60.0);
        // Build up identical utility first.
        for s in [&mut slow, &mut poison] {
            s.feedback(0, &[feedback(0, true, 30.0, 1.0)]);
        }
        slow.feedback(1, &[feedback(0, false, 600.0, 0.0)]);
        let mut q = feedback(0, false, 30.0, 0.0);
        q.quarantined = true;
        poison.feedback(1, &[q]);
        assert!(
            poison.records[&0].stat_utility < slow.records[&0].stat_utility,
            "quarantine decay {} !< dropout decay {}",
            poison.records[&0].stat_utility,
            slow.records[&0].stat_utility
        );
    }

    #[test]
    fn tied_priorities_break_by_eligible_position() {
        // Regression for the tie-handling fix: duplicated priorities used
        // to fall through `partial_cmp(..).unwrap_or(Equal)` inside a
        // stable sort; the top-k path must keep that exact order — the
        // earlier position in `eligible` wins the tie.
        let mut s = OortSelector::new(9, 60.0);
        let eligible = pool(10);
        // Round 0 selects the whole pool so everyone has selected == 1,
        // then identical feedback to four clients gives them identical
        // (duplicated) positive priorities; the rest tie at the pure
        // staleness bonus.
        let _ = s.select(0, &eligible, 10);
        let fb_dup: Vec<SelectionFeedback> = [2usize, 5, 7, 8]
            .iter()
            .map(|&c| feedback(c, true, 30.0, 1.0))
            .collect();
        s.feedback(0, &fb_dup);
        let round = 1;
        assert_eq!(s.priority(2, round), s.priority(5, round), "ties exist");
        assert_eq!(s.priority(0, round), s.priority(9, round), "ties exist");

        // Reference: the original stable-sort implementation, evaluated on
        // the same pre-selection state.
        let target = 6usize;
        let explore_n = ((target as f64) * s.exploration_fraction).round() as usize;
        let exploit_n = target - explore_n;
        let mut scored: Vec<(f64, usize)> = eligible
            .iter()
            .map(|&c| (s.priority(c as usize, round), c as usize))
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut expected: Vec<usize> = scored.into_iter().take(exploit_n).map(|(_, c)| c).collect();
        let mut rest: Vec<usize> = eligible
            .iter()
            .map(|&c| c as usize)
            .filter(|c| !expected.contains(c))
            .collect();
        rest.shuffle(&mut seed_rng(split_seed(9, round as u64)));
        rest.sort_by_key(|&c| s.records.get(&c).map_or(0, |r| r.selected));
        expected.extend(rest.into_iter().take(explore_n));

        let picked = s.select(round, &eligible, target);
        assert_eq!(picked, expected);
    }

    #[test]
    fn quarantine_never_updates_measured_duration() {
        // Regression: the quarantined branch used to max-update
        // `last_duration_s`, so a poisoned payload taught Oort the client
        // was *slow* — but a rejected payload says nothing about pace.
        let mut s = OortSelector::new(6, 60.0);
        s.feedback(0, &[feedback(0, true, 30.0, 1.0)]);
        let mut q = feedback(0, false, 900.0, 0.0);
        q.quarantined = true;
        s.feedback(1, &[q]);
        assert_eq!(
            s.records[&0].last_duration_s, 30.0,
            "quarantined duration leaked into the latency record"
        );
        // An ordinary dropout still widens the duration estimate.
        s.feedback(2, &[feedback(0, false, 900.0, 0.0)]);
        assert_eq!(s.records[&0].last_duration_s, 900.0);
    }

    #[test]
    fn profiled_estimates_drive_the_system_terms() {
        let mut s = OortSelector::new(8, 60.0);
        // Internal records say both clients are identical...
        let _ = s.select(0, &pool(2), 2);
        s.feedback(
            0,
            &[feedback(0, true, 30.0, 1.0), feedback(1, true, 30.0, 1.0)],
        );
        assert_eq!(s.priority(0, 1), s.priority(1, 1));
        // ...but the profiler observed client 1 running 20x slower.
        let mut p = ClientProfiler::new(ProfilingConfig::on(), 8);
        p.observe(0, &Observation::replay(0, ObservedOutcome::Completed, 30.0));
        p.observe(
            1,
            &Observation::replay(0, ObservedOutcome::Completed, 600.0),
        );
        let (est0, est1) = (p.estimate(0), p.estimate(1));
        assert!(
            s.priority_with(&s.records[&0], 1, est0.as_ref())
                > s.priority_with(&s.records[&1], 1, est1.as_ref())
        );
        // select_profiled ranks accordingly: the single exploit slot goes
        // to the observed-fast client.
        let mut cohort = Vec::new();
        s.select_profiled(1, &pool(2), 1, &p, &mut cohort);
        assert_eq!(cohort, vec![0]);
    }

    #[test]
    fn distinct_ids() {
        let mut s = OortSelector::new(4, 60.0);
        for round in 0..10 {
            let picks = s.select(round, &pool(15), 8);
            let mut uniq = picks.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), picks.len());
        }
    }

    #[test]
    fn querying_an_earlier_round_saturates_staleness() {
        // Regression: `round - last_selected_round` on usize panicked in
        // debug and wrapped to a huge bonus in release.
        let mut s = OortSelector::new(11, 60.0);
        let picks = s.select(9, &pool(10), 10);
        let fb: Vec<_> = picks
            .iter()
            .map(|&c| feedback(c, true, 30.0, 1.0))
            .collect();
        s.feedback(9, &fb);
        let earlier = s.select(3, &pool(10), 4);
        assert_eq!(earlier.len(), 4);
        for c in 0..10 {
            let p = s.priority(c, 3);
            assert!(p.is_finite() && p < 10.0, "client {c}: priority {p}");
        }
    }

    #[test]
    fn selection_scratch_stays_small_at_population_scale() {
        // Work-counter pin on the sparse path: scoring and exploration
        // keys are O(touched + cohort), never O(eligible).
        let eligible: Vec<u32> = (0..1_000_000).step_by(2).collect();
        let mut s = OortSelector::new(13, 60.0);
        let mut cohort = Vec::new();
        for round in 0..6 {
            s.select_into(round, &eligible, 16, &mut cohort);
            assert_eq!(cohort.len(), 16);
            let fb: Vec<_> = cohort
                .iter()
                .map(|&c| feedback(c, c % 4 != 0, 30.0 + (c % 97) as f64, 1.0))
                .collect();
            s.feedback(round, &fb);
        }
        assert!(s.scored.capacity() <= 4096, "{}", s.scored.capacity());
        assert!(
            s.explore_keys.capacity() <= 4096,
            "{}",
            s.explore_keys.capacity()
        );
    }

    proptest! {
        /// The sparse `select_impl` returns the dense reference's cohort
        /// and leaves the same records, round after round, over sparse id
        /// pools with churning eligibility, targets past the pool size,
        /// tied and zero utilities, every feedback kind, feedback for
        /// never-selected ids, out-of-order rounds, and (half the cases)
        /// profiled estimates covering a subset of the clients.
        #[test]
        fn sparse_select_matches_dense_reference(
            seed in any::<u64>(),
            ids in prop::collection::vec(0usize..1_000_000, 1..=400),
            script in prop::collection::vec(any::<u64>(), 1..14),
            profiled in any::<bool>(),
        ) {
            let mut pool = ids;
            pool.sort_unstable();
            pool.dedup();
            let mut sparse = OortSelector::new(seed, 60.0);
            let mut dense = sparse.clone();
            let mut profiler = ClientProfiler::new(ProfilingConfig::on(), 1024);
            for (i, &word) in script.iter().enumerate() {
                let mut rng = seed_rng(word);
                let round = if rng.gen_bool(0.15) { i / 2 } else { i };
                let keep_all = rng.gen_bool(0.5);
                let eligible: Vec<u32> = pool
                    .iter()
                    .map(|&c| c as u32)
                    .filter(|_| keep_all || rng.gen_bool(0.75))
                    .collect();
                let target = if rng.gen_bool(0.5) {
                    rng.gen_range(0..=eligible.len() + 3)
                } else {
                    rng.gen_range(0..=12usize)
                };
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let profiles = profiled.then_some(&profiler);
                sparse.select_impl(round, &eligible, target, profiles, &mut got);
                dense.select_dense_reference(round, &eligible, target, profiles, &mut want);
                prop_assert_eq!(&got, &want, "round {} cohort", round);
                prop_assert_eq!(sparse.snapshot(), dense.snapshot(), "round {} records", round);

                let stranger = pool[rng.gen_range(0..pool.len())];
                let mut fb = Vec::new();
                for &client in got.iter().chain(rng.gen_bool(0.5).then_some(&stranger)) {
                    let kind = rng.gen_range(0..4u32);
                    let mut f = feedback(
                        client,
                        kind < 2,
                        [30.0, 30.0, 600.0][rng.gen_range(0..3usize)],
                        if kind < 2 { [0.0, 1.0, 1.0, 2.5][rng.gen_range(0..4usize)] } else { 0.0 },
                    );
                    f.quarantined = kind == 3;
                    if client % 3 != 0 {
                        let outcome = match kind {
                            0 | 1 => ObservedOutcome::Completed,
                            2 => ObservedOutcome::Dropped,
                            _ => ObservedOutcome::Quarantined,
                        };
                        profiler.observe(
                            client,
                            &Observation::replay(round as u64, outcome, f.duration_s),
                        );
                    }
                    fb.push(f);
                }
                sparse.feedback(round, &fb);
                dense.feedback(round, &fb);
            }
        }
    }
}
