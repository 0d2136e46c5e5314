//! REFL-style availability-window prediction (Abdelmoniem et al.,
//! EuroSys '23), re-implemented from the published algorithm description.
//!
//! REFL predicts each client's future availability from its history and
//! prefers clients that are (a) predicted available for the whole round
//! and (b) fast enough to finish inside the predicted window. The FLOAT
//! paper's critique, which our motivation experiments reproduce, is that
//! the *fixed linear window* assumption collapses under dynamic resource
//! interference: predictions go stale, dropouts rise, and selection skews
//! hard toward historically fast clients (Fig. 2a shows REFL excluding
//! ~50 % of clients).

use std::collections::HashMap;

use rand::seq::SliceRandom;

use float_profile::{ClientEstimate, ClientProfiler};
use float_tensor::rng::{seed_rng, split_seed};

use crate::selector::{top_k_by, ClientSelector, SelectionFeedback};

/// How many past rounds of availability history to keep per client.
const HISTORY: usize = 64;

/// Per-client availability history and speed estimate.
#[derive(Debug, Clone, Default)]
struct ClientHistory {
    /// Ring buffer of observed availability (most recent last).
    available: Vec<bool>,
    /// Last observed round duration, seconds.
    last_duration_s: f64,
    selected: u64,
    completed: u64,
}

impl ClientHistory {
    /// Predicted probability of being available next round: the empirical
    /// availability frequency over the history window — REFL's linear
    /// window model.
    fn predicted_availability(&self) -> f64 {
        if self.available.is_empty() {
            return 0.5; // uninformative prior
        }
        self.available.iter().filter(|&&a| a).count() as f64 / self.available.len() as f64
    }
}

/// Availability-window-predicting selector.
#[derive(Debug, Clone)]
pub struct ReflSelector {
    seed: u64,
    /// Per-client history, keyed sparsely by client id so state stays
    /// O(touched clients) under candidate pooling at population scale. An
    /// absent entry scores exactly like `ClientHistory::default()` (the
    /// 0.5 uninformative prior), matching the dense resize-with-default
    /// this replaces.
    histories: HashMap<usize, ClientHistory>,
    /// One past the highest client id any `select_into` eligible slice has
    /// covered. The dense implementation silently dropped feedback for
    /// clients beyond its vector (`f.client >= histories.len()`); this
    /// watermark reproduces that guard exactly.
    ensured: usize,
    /// Round deadline the predicted window must cover.
    deadline_s: f64,
    /// Scratch: shuffled candidate ids, reused across rounds.
    ids: Vec<u32>,
    /// Scratch: (score, position-in-`ids`) pairs, reused across rounds.
    scored: Vec<(f64, usize)>,
}

impl ReflSelector {
    /// Create a selector that plans against `deadline_s`-second rounds.
    pub fn new(seed: u64, deadline_s: f64) -> Self {
        ReflSelector {
            seed,
            histories: HashMap::new(),
            ensured: 0,
            deadline_s,
            ids: Vec::new(),
            scored: Vec::new(),
        }
    }

    fn ensure(&mut self, num_clients: usize) {
        self.ensured = self.ensured.max(num_clients);
    }

    /// REFL's selection score from internal records only.
    #[cfg(test)]
    fn score(&self, c: usize) -> f64 {
        self.score_with(c, None)
    }

    /// REFL's selection score: predicted availability, discounted when the
    /// client's observed speed would overflow the window. When a profiled
    /// estimate is supplied, the *measured* quantities — duration and the
    /// completion track record — come from it; the availability ring stays
    /// internal (it is REFL's own windowed prediction model, fed by
    /// check-in observations, not a trace oracle).
    fn score_with(&self, c: usize, est: Option<&ClientEstimate>) -> f64 {
        let Some(h) = self.histories.get(&c) else {
            // Never observed: the uninformative prior, with no speed
            // discount and no track record — exactly what a default
            // history scores.
            return 0.5;
        };
        let mut s = h.predicted_availability();
        let duration_s = est.and_then(|e| e.latency_s).unwrap_or(h.last_duration_s);
        if duration_s > self.deadline_s && duration_s > 0.0 {
            // Predicted to overflow its window: heavily discounted. This is
            // the "prefers faster clients" bias.
            s *= self.deadline_s / duration_s;
        }
        // Completion track record sharpens the prediction.
        match est {
            Some(e) => s *= e.reliability,
            None => {
                if h.selected > 0 {
                    s *= (h.completed as f64 + 1.0) / (h.selected as f64 + 1.0);
                }
            }
        }
        s
    }

    fn select_impl(
        &mut self,
        round: usize,
        eligible: &[u32],
        target: usize,
        profiles: Option<&ClientProfiler>,
        cohort: &mut Vec<usize>,
    ) {
        cohort.clear();
        let max_id = eligible.iter().copied().max().map_or(0, |m| m as usize + 1);
        self.ensure(max_id);
        let target = target.min(eligible.len());
        let mut ids = std::mem::take(&mut self.ids);
        ids.clear();
        ids.extend_from_slice(eligible);
        // Shuffle first so ties break randomly rather than by id. The
        // shuffle's draws and swaps do not depend on the element type.
        ids.shuffle(&mut seed_rng(split_seed(self.seed, round as u64)));
        // Scores are computed once per client (the sort comparator used to
        // call `score()` twice per comparison), and the descending full
        // sort is a top-k select. The comparator is a strict total order —
        // `total_cmp` on the score, position in the shuffle as tiebreak —
        // so equal scores keep their shuffled order exactly as the stable
        // sort this replaces did.
        let mut scored = std::mem::take(&mut self.scored);
        scored.clear();
        scored.extend(ids.iter().enumerate().map(|(pos, &c)| {
            let c = c as usize;
            let est = profiles.and_then(|v| v.estimate(c));
            (self.score_with(c, est.as_ref()), pos)
        }));
        top_k_by(&mut scored, target, |a, b| {
            b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1))
        });
        for &(_, pos) in scored.iter() {
            let c = ids[pos] as usize;
            cohort.push(c);
            self.histories.entry(c).or_default().selected += 1;
        }
        self.scored = scored;
        self.ids = ids;
    }
}

impl ClientSelector for ReflSelector {
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
        for f in results {
            if f.client >= self.ensured {
                continue;
            }
            let h = self.histories.entry(f.client).or_default();
            h.available.push(f.was_available);
            if h.available.len() > HISTORY {
                h.available.remove(0);
            }
            if f.completed {
                h.completed += 1;
                h.last_duration_s = f.duration_s;
            } else if !f.quarantined && f.duration_s > 0.0 {
                // A quarantined attempt's duration is not a speed
                // measurement (the payload was rejected); only genuine
                // dropouts teach REFL the client overflows its window.
                h.last_duration_s = f.duration_s;
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

    fn fb(client: usize, completed: bool, duration: f64, available: bool) -> SelectionFeedback {
        SelectionFeedback {
            client,
            completed,
            duration_s: duration,
            utility: 1.0,
            was_available: available,
            quarantined: false,
        }
    }

    #[test]
    fn prefers_predictably_available_clients() {
        let mut s = ReflSelector::new(1, 100.0);
        // Client 0: always available and fast. Client 1: never available.
        for round in 0..30 {
            s.feedback(round, &[fb(0, true, 50.0, true), fb(1, false, 0.0, false)]);
            let _ = s.select(round, &pool(5), 2);
        }
        assert!(s.score(0) > s.score(1) * 2.0);
    }

    #[test]
    fn slow_clients_are_discounted() {
        let mut s = ReflSelector::new(2, 100.0);
        for round in 0..20 {
            s.feedback(round, &[fb(0, true, 50.0, true), fb(1, true, 500.0, true)]);
            let _ = s.select(round, &pool(5), 2);
        }
        assert!(
            s.score(0) > s.score(1),
            "fast {} vs slow {}",
            s.score(0),
            s.score(1)
        );
    }

    #[test]
    fn selection_excludes_low_scorers_creating_bias() {
        // The Fig. 2a phenomenon: with stable histories REFL repeatedly
        // excludes the same clients.
        let mut s = ReflSelector::new(3, 100.0);
        let mut counts = [0usize; 10];
        for round in 0..200 {
            let picks = s.select(round, &pool(10), 3);
            for &c in &picks {
                counts[c] += 1;
            }
            let results: Vec<SelectionFeedback> = (0..10)
                .map(|c| {
                    // Clients 0..3 are reliable; 7..10 are flaky and slow.
                    if c < 3 {
                        fb(c, true, 40.0, true)
                    } else if c >= 7 {
                        fb(c, false, 300.0, round % 3 == 0)
                    } else {
                        fb(c, true, 90.0, round % 2 == 0)
                    }
                })
                .collect();
            s.feedback(round, &results);
        }
        let reliable: usize = counts[..3].iter().sum();
        let flaky: usize = counts[7..].iter().sum();
        assert!(
            reliable > flaky * 3,
            "reliable {reliable} vs flaky {flaky}: bias not reproduced"
        );
    }

    #[test]
    fn unknown_clients_get_prior() {
        // Both a never-touched client (no map entry) and an explicitly
        // defaulted history must score the uninformative prior.
        let mut s = ReflSelector::new(0, 100.0);
        assert!((s.score(7) - 0.5).abs() < 1e-9, "absent entry");
        s.histories.insert(0, ClientHistory::default());
        assert!((s.score(0) - 0.5).abs() < 1e-9, "default entry");
    }

    #[test]
    fn feedback_beyond_watermark_is_dropped() {
        // The dense implementation ignored feedback for clients its vector
        // had never grown to cover; the sparse watermark must match.
        let mut s = ReflSelector::new(0, 100.0);
        let _ = s.select(0, &pool(4), 2);
        s.feedback(0, &[fb(2, true, 10.0, true), fb(9, true, 10.0, true)]);
        assert!(s.histories.contains_key(&2), "in-range feedback recorded");
        assert!(!s.histories.contains_key(&9), "beyond watermark dropped");
    }

    #[test]
    fn quarantine_never_updates_measured_duration() {
        // Regression: a quarantined attempt's duration used to land in
        // `last_duration_s` through the dropout arm, discounting the
        // client as slow when its payload was merely rejected.
        let mut s = ReflSelector::new(5, 100.0);
        let _ = s.select(0, &pool(2), 2);
        s.feedback(0, &[fb(0, true, 50.0, true)]);
        let mut q = fb(0, false, 900.0, true);
        q.quarantined = true;
        s.feedback(1, &[q]);
        assert_eq!(
            s.histories[&0].last_duration_s, 50.0,
            "quarantined duration leaked into the latency record"
        );
        // A genuine dropout still updates it.
        s.feedback(2, &[fb(0, false, 900.0, true)]);
        assert_eq!(s.histories[&0].last_duration_s, 900.0);
    }

    #[test]
    fn profiled_estimates_drive_the_measured_terms() {
        use float_profile::{ClientProfiler, Observation, ObservedOutcome, ProfilingConfig};
        let mut s = ReflSelector::new(6, 100.0);
        let _ = s.select(0, &pool(2), 2);
        // Identical internal histories...
        s.feedback(0, &[fb(0, true, 50.0, true), fb(1, true, 50.0, true)]);
        assert_eq!(s.score(0), s.score(1));
        // ...but observations say client 1 overflows the window 5x.
        let mut p = ClientProfiler::new(ProfilingConfig::on(), 8);
        p.observe(0, &Observation::replay(0, ObservedOutcome::Completed, 50.0));
        p.observe(
            1,
            &Observation::replay(0, ObservedOutcome::Completed, 500.0),
        );
        let (e0, e1) = (p.estimate(0), p.estimate(1));
        assert!(s.score_with(0, e0.as_ref()) > s.score_with(1, e1.as_ref()));
        let mut cohort = Vec::new();
        s.select_profiled(1, &pool(2), 1, &p, &mut cohort);
        assert_eq!(cohort, vec![0]);
    }

    #[test]
    fn distinct_ids_in_range() {
        let mut s = ReflSelector::new(4, 100.0);
        let picks = s.select(0, &pool(12), 6);
        let mut uniq = picks.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 6);
        assert!(picks.iter().all(|&c| c < 12));
    }
}
