//! Exploration policy: ε-greedy with count-based balancing (paper RQ6).
//!
//! The paper found plain uniform ε-greedy exploration over-visits a few
//! acceleration configurations; the fix was to bias exploration toward
//! lesser-explored actions. Here exploration draws an action with
//! probability inversely proportional to `1 + visits`, so cold actions are
//! tried first and the Q-table fills evenly.

use rand::Rng;

use crate::qtable::QEntry;

/// ε at round 0: explore 30 % of decisions at first.
const EPSILON_START: f64 = 0.30;
/// ε at the final round: explore 5 % of decisions at the end.
const EPSILON_END: f64 = 0.05;

/// The exploration rate for `round` of `total_rounds`: ε decays linearly
/// from 0.30 to 0.05 over the training run.
pub(crate) fn epsilon(round: usize, total_rounds: usize) -> f64 {
    if total_rounds <= 1 {
        return EPSILON_END;
    }
    let t = (round as f64 / (total_rounds - 1) as f64).clamp(0.0, 1.0);
    EPSILON_START + (EPSILON_END - EPSILON_START) * t
}

/// Pick an exploration action biased toward lesser-visited actions:
/// weight(a) ∝ 1 / (1 + visits(a)).
///
/// # Panics
///
/// Panics if `entries` is empty.
pub fn balanced_explore<R: Rng>(entries: &[QEntry], rng: &mut R) -> usize {
    assert!(!entries.is_empty(), "no actions to explore");
    let weights: Vec<f64> = entries
        .iter()
        .map(|e| 1.0 / (1.0 + e.visits as f64))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut draw = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        draw -= w;
        if draw <= 0.0 {
            return i;
        }
    }
    entries.len() - 1
}

/// Uniform exploration (the naive baseline, kept for the RQ6 ablation).
pub fn uniform_explore<R: Rng>(num_actions: usize, rng: &mut R) -> usize {
    assert!(num_actions > 0, "no actions to explore");
    rng.gen_range(0..num_actions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use float_tensor::seed_rng;

    #[test]
    fn epsilon_decays_linearly() {
        assert!((epsilon(0, 300) - 0.30).abs() < 1e-9);
        assert!((epsilon(299, 300) - 0.05).abs() < 1e-9);
        let mid = epsilon(150, 300);
        assert!(mid < 0.30 && mid > 0.05);
    }

    #[test]
    fn epsilon_handles_degenerate_totals() {
        assert_eq!(epsilon(0, 1), 0.05);
        assert_eq!(epsilon(5, 0), 0.05);
    }

    #[test]
    fn balanced_explore_prefers_cold_actions() {
        let mut entries = vec![QEntry::default(); 4];
        entries[0].visits = 1000;
        entries[1].visits = 1000;
        entries[2].visits = 0; // cold
        entries[3].visits = 1000;
        let mut rng = seed_rng(1);
        let cold_hits = (0..2000)
            .filter(|_| balanced_explore(&entries, &mut rng) == 2)
            .count();
        assert!(
            cold_hits > 1800,
            "cold action picked only {cold_hits}/2000 times"
        );
    }

    #[test]
    fn balanced_explore_is_uniform_when_counts_equal() {
        let entries = vec![QEntry::default(); 4];
        let mut rng = seed_rng(2);
        let mut counts = [0usize; 4];
        for _ in 0..8000 {
            counts[balanced_explore(&entries, &mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - 2000.0).abs() < 250.0,
                "action {i} picked {c} times"
            );
        }
    }

    #[test]
    fn uniform_explore_covers_range() {
        let mut rng = seed_rng(3);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[uniform_explore(5, &mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "no actions")]
    fn empty_entries_panic() {
        let mut rng = seed_rng(4);
        let _ = balanced_explore(&[], &mut rng);
    }
}
