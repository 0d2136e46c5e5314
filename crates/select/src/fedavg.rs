//! FedAvg's uniform random client selection.

use rand::seq::SliceRandom;

use float_tensor::rng::{seed_rng, split_seed};

use crate::selector::{ClientSelector, SelectionFeedback};

/// Uniform random selection without replacement — the FedAvg baseline.
///
/// The paper observes (Fig. 2a) that random selection is actually the
/// *least* biased strategy, which is why FLOAT(FedAvg) ends up among the
/// strongest combinations once FLOAT removes the dropout penalty random
/// selection otherwise pays.
#[derive(Debug, Clone)]
pub struct FedAvgSelector {
    seed: u64,
    /// Scratch: the shuffled eligible ids, reused across rounds.
    ids: Vec<u32>,
}

impl FedAvgSelector {
    /// Create a selector with a deterministic selection stream.
    pub fn new(seed: u64) -> Self {
        FedAvgSelector {
            seed,
            ids: Vec::new(),
        }
    }
}

impl ClientSelector for FedAvgSelector {
    fn select_into(
        &mut self,
        round: usize,
        eligible: &[u32],
        target: usize,
        cohort: &mut Vec<usize>,
    ) {
        // The shuffle's draws and swaps do not depend on the element type,
        // so shuffling `u32` ids picks what shuffling `usize` ids would.
        let mut ids = std::mem::take(&mut self.ids);
        ids.clear();
        ids.extend_from_slice(eligible);
        ids.shuffle(&mut seed_rng(split_seed(self.seed, round as u64)));
        cohort.clear();
        cohort.extend(ids[..target.min(ids.len())].iter().map(|&c| c as usize));
        self.ids = ids;
    }

    fn feedback(&mut self, _round: usize, _results: &[SelectionFeedback]) {
        // Random selection is memoryless.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test helper: an eligible pool of the first `n` client ids.
    fn pool(n: u32) -> Vec<u32> {
        (0..n).collect()
    }

    #[test]
    fn selects_distinct_ids_in_range() {
        let mut s = FedAvgSelector::new(1);
        let picks = s.select(0, &pool(100), 20);
        assert_eq!(picks.len(), 20);
        let mut uniq = picks.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 20);
        assert!(picks.iter().all(|&c| c < 100));
    }

    #[test]
    fn deterministic_per_round() {
        let mut a = FedAvgSelector::new(7);
        let mut b = FedAvgSelector::new(7);
        assert_eq!(a.select(3, &pool(50), 10), b.select(3, &pool(50), 10));
        assert_ne!(a.select(3, &pool(50), 10), a.select(4, &pool(50), 10));
    }

    #[test]
    fn target_larger_than_pool_is_clamped() {
        let mut s = FedAvgSelector::new(1);
        assert_eq!(s.select(0, &pool(5), 20).len(), 5);
    }

    #[test]
    fn selection_is_unbiased_over_rounds() {
        // Every client should be picked roughly equally often — the
        // Fig. 2a property.
        let mut s = FedAvgSelector::new(3);
        let mut counts = vec![0usize; 50];
        for r in 0..1000 {
            for c in s.select(r, &pool(50), 10) {
                counts[c] += 1;
            }
        }
        let expected = 1000.0 * 10.0 / 50.0;
        for (c, &n) in counts.iter().enumerate() {
            assert!(
                (n as f64 - expected).abs() < expected * 0.3,
                "client {c} selected {n} times (expected ~{expected})"
            );
        }
    }
}
