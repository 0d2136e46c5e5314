//! The common client-selection interface.

use std::cell::Cell;
use std::cmp::Ordering;

use float_profile::ClientProfiler;
use serde::{Deserialize, Serialize};

/// Reduce `v` to its top `k` elements under `cmp` (the comparator's
/// `Less`-first order), sorted by `cmp`.
///
/// When `cmp` is a *strict total order* — no two elements compare
/// `Equal`, which selectors guarantee by breaking f64 score ties on the
/// element's input position — this is bit-for-bit equivalent to
/// `v.sort_by(cmp); v.truncate(k)` (the position tiebreak reproduces
/// exactly what the stable sort would have kept), but costs
/// O(n + k log k) instead of O(n log n): at population scale a round
/// selects a ~30-client cohort out of hundreds of thousands of eligible
/// clients, so the full sort dominated selection time.
pub fn top_k_by<T>(v: &mut Vec<T>, k: usize, mut cmp: impl FnMut(&T, &T) -> Ordering) {
    if k == 0 {
        v.clear();
        return;
    }
    if k < v.len() {
        v.select_nth_unstable_by(k - 1, &mut cmp);
        v.truncate(k);
    }
    v.sort_unstable_by(&mut cmp);
}

/// Per-client feedback handed to a selector after each round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SelectionFeedback {
    /// Which client this describes.
    pub client: usize,
    /// Whether it completed the round.
    pub completed: bool,
    /// Wall time of its attempt, seconds.
    pub duration_s: f64,
    /// Statistical utility of its update (e.g. loss magnitude); higher
    /// means more informative. Zero for dropped clients.
    pub utility: f64,
    /// Whether the client was reachable when the round started.
    pub was_available: bool,
    /// Whether the client's update reached the server but was quarantined
    /// by payload validation (non-finite deltas). Implies `!completed`.
    /// Distinct from a no-show: the client was fast enough, its payload
    /// was poison — selectors may penalize that more harshly than
    /// slowness.
    #[serde(default)]
    pub quarantined: bool,
}

/// Remove the elements at `positions` (strictly ascending, each inside
/// `ids`) and close the gaps, keeping the survivors in order as a prefix;
/// returns the prefix's length. Each run between two removed positions
/// moves with one `copy_within` (a memmove), and the runs before the first
/// removal do not move at all.
pub(crate) fn remove_positions(
    ids: &mut [u32],
    positions: impl IntoIterator<Item = usize>,
) -> usize {
    let (mut from, mut to) = (0, 0);
    for pos in positions {
        debug_assert!(from <= pos && pos < ids.len(), "positions must ascend");
        if to != from {
            ids.copy_within(from..pos, to);
        }
        to += pos - from;
        from = pos + 1;
    }
    if to != from {
        ids.copy_within(from.., to);
    }
    to + (ids.len() - from)
}

thread_local! {
    /// The copy [`ClientSelector::select_into`] selects from, reused
    /// across calls on each thread.
    static SELECT_SCRATCH: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
}

/// A client-selection strategy.
///
/// Selectors are deliberately ignorant of FLOAT: the runtime wraps any
/// `ClientSelector` and adds acceleration on top, demonstrating the
/// paper's non-intrusive integration claim.
pub trait ClientSelector {
    /// Choose the clients to task in `round` from the `eligible` pool —
    /// the clients currently checked in as available, mirroring the
    /// FedScale/production model where unavailable devices are never
    /// candidates — and write them into `cohort`, which is cleared first.
    ///
    /// On entry `eligible` is strictly ascending (so duplicate-free): both
    /// of the runtime's producers emit it that way, and selectors may
    /// binary-search it. Its ids are `u32`, half the bytes of `usize` in
    /// the largest per-round list (a population has at most `u32::MAX`
    /// clients); the cohort's are `usize`. After the call `eligible`'s
    /// contents are unspecified: it is the selector's scratch, so a
    /// selector shuffles or compacts it where it stands instead of keeping
    /// a private O(eligible) copy. The caller owns both buffers,
    /// so population-scale loops reuse two allocations across thousands
    /// of rounds. `target` is the configured per-round cohort size
    /// (synchronous) or the top-up size (asynchronous). The cohort's ids
    /// are distinct and drawn from `eligible`.
    ///
    /// `profiles` is FLOAT's observability-as-control-input path
    /// (`ExperimentConfig::profiling`): selectors that score clients on
    /// oracle-fed internal state (Oort's measured durations, REFL's
    /// reliability, TiFL's latency tiers) read the [`ClientProfiler`]'s
    /// online estimates instead when it is `Some`; a client with no
    /// estimate goes through the selector's own cold-start path — Oort's
    /// untried exploration pool, REFL's 0.5 availability prior, TiFL's
    /// unprofiled tier. Purely random baselines (FedAvg, FedBuff) ignore
    /// it.
    fn select_in_place(
        &mut self,
        round: usize,
        eligible: &mut [u32],
        target: usize,
        profiles: Option<&ClientProfiler>,
        cohort: &mut Vec<usize>,
    );

    /// [`ClientSelector::select_in_place`] without profiles, for a caller
    /// that keeps its `eligible` (same contract: strictly ascending). The
    /// selector draws from a copy in a buffer each thread reuses, so a
    /// call copies the pool but allocates nothing at steady state.
    fn select_into(
        &mut self,
        round: usize,
        eligible: &[u32],
        target: usize,
        cohort: &mut Vec<usize>,
    ) {
        let mut scratch = SELECT_SCRATCH.take();
        scratch.clear();
        scratch.extend_from_slice(eligible);
        self.select_in_place(round, &mut scratch, target, None, cohort);
        SELECT_SCRATCH.set(scratch);
    }

    /// Allocating convenience wrapper around
    /// [`ClientSelector::select_into`].
    fn select(&mut self, round: usize, eligible: &[u32], target: usize) -> Vec<usize> {
        let mut cohort = Vec::new();
        self.select_into(round, eligible, target, &mut cohort);
        cohort
    }

    /// Observe the outcomes of the round's attempts.
    fn feedback(&mut self, round: usize, results: &[SelectionFeedback]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_matches_stable_sort_prefix() {
        // Pseudo-random but deterministic scores with many duplicates.
        let scores: Vec<(f64, usize)> = (0..97usize)
            .map(|i| (((i * 37 + 11) % 10) as f64, i))
            .collect();
        let cmp =
            |a: &(f64, usize), b: &(f64, usize)| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1));
        let mut reference = scores.clone();
        reference.sort_by(cmp);
        for k in [0usize, 1, 5, 30, 96, 97, 200] {
            let mut v = scores.clone();
            top_k_by(&mut v, k, cmp);
            assert_eq!(v, reference[..k.min(scores.len())], "k = {k}");
        }
    }

    #[test]
    fn remove_positions_keeps_the_rest_in_order() {
        for removed in [
            vec![],
            vec![0],
            vec![9],
            vec![0, 9],
            vec![2, 3, 7],
            vec![1, 4, 5, 6, 8],
            (0..10).collect(),
        ] {
            let mut ids: Vec<u32> = (100..110).collect();
            let n = remove_positions(&mut ids, removed.iter().copied());
            let want: Vec<u32> = (0..10)
                .filter(|p| !removed.contains(p))
                .map(|p| 100 + p as u32)
                .collect();
            assert_eq!(ids[..n], want[..], "removed {removed:?}");
        }
    }

    #[test]
    fn top_k_zero_clears() {
        let mut v = vec![3, 1, 2];
        top_k_by(&mut v, 0, |a: &i32, b: &i32| a.cmp(b));
        assert!(v.is_empty());
    }
}
