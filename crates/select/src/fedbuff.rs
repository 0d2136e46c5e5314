//! FedBuff-style asynchronous buffered selection (Nguyen et al., 2021),
//! re-implemented from the published algorithm description.
//!
//! FedBuff keeps up to `concurrency` clients training at all times and
//! aggregates whenever `buffer_size` updates have arrived. In our
//! round-quantized simulator the selector is called every round to *top
//! up* the in-flight set; completions and failures free slots. The FLOAT
//! paper's observations: FedBuff is fast in wall-clock and resilient to
//! dropouts (over-selection is a buffer against losses) but 4.5–7× more
//! resource-hungry, and it still skews toward faster clients because slow
//! clients occupy slots across many aggregations while contributing few
//! updates.

use rand::seq::SliceRandom;

use float_tensor::rng::{seed_rng, split_seed};

use crate::selector::{ClientSelector, SelectionFeedback};

/// Asynchronous over-selecting selector.
#[derive(Debug, Clone)]
pub struct FedBuffSelector {
    seed: u64,
    /// Maximum clients training concurrently (paper setup: 100).
    concurrency: usize,
    /// Clients currently holding a slot.
    in_flight: Vec<usize>,
    /// Scratch: id-indexed membership mask for `in_flight`, sized lazily
    /// to the largest id ever launched and wiped O(slots) after each
    /// call. The async engine tops up once per completion event, so this
    /// filter runs once per *eligible* client per top-up — on the
    /// full-sweep path that is hundreds of thousands of probes per call,
    /// and the O(1) indexed load beats any sorted/hashed lookup. Memory
    /// is one byte per client id actually seen in flight (≤10 MiB even
    /// at the 10M preset, and only ~pool-sized ids under pooling).
    taken: Vec<bool>,
    /// Scratch: the eligible ids not in flight, shuffled, reused across
    /// calls.
    free: Vec<u32>,
}

impl FedBuffSelector {
    /// Create a FedBuff selector with the paper's concurrency/buffer
    /// configuration. The buffer size `K` is the engine's aggregation
    /// trigger; selection does not read it.
    pub fn new(seed: u64, concurrency: usize, _buffer_size: usize) -> Self {
        FedBuffSelector {
            seed,
            concurrency,
            in_flight: Vec::new(),
            taken: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl ClientSelector for FedBuffSelector {
    /// Top up the in-flight set to `concurrency` from the eligible pool
    /// (ignoring `target`, which synchronous baselines use) and write the
    /// *newly launched* clients into `cohort`.
    fn select_into(
        &mut self,
        round: usize,
        eligible: &[u32],
        _target: usize,
        cohort: &mut Vec<usize>,
    ) {
        cohort.clear();
        let want = self.concurrency;
        if self.in_flight.len() >= want {
            return;
        }
        let mut taken = std::mem::take(&mut self.taken);
        if let Some(&max) = self.in_flight.iter().max() {
            if taken.len() <= max {
                taken.resize(max + 1, false);
            }
        }
        for &c in &self.in_flight {
            taken[c] = true;
        }
        let mut free = std::mem::take(&mut self.free);
        free.clear();
        free.extend(
            eligible
                .iter()
                .copied()
                .filter(|&c| !taken.get(c as usize).copied().unwrap_or(false)),
        );
        for &c in &self.in_flight {
            taken[c] = false;
        }
        self.taken = taken;
        // The shuffle's draws and swaps do not depend on the element type.
        free.shuffle(&mut seed_rng(split_seed(self.seed, round as u64)));
        let launch = free.len().min(want - self.in_flight.len());
        cohort.extend(free[..launch].iter().map(|&c| c as usize));
        self.free = free;
        self.in_flight.extend_from_slice(cohort);
    }

    /// Completions and failures free their slots.
    fn feedback(&mut self, _round: usize, results: &[SelectionFeedback]) {
        for f in results {
            if let Some(pos) = self.in_flight.iter().position(|&c| c == f.client) {
                self.in_flight.swap_remove(pos);
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

    fn done(client: usize) -> SelectionFeedback {
        SelectionFeedback {
            client,
            completed: true,
            duration_s: 50.0,
            utility: 1.0,
            was_available: true,
            quarantined: false,
        }
    }

    #[test]
    fn first_round_launches_full_concurrency() {
        let mut s = FedBuffSelector::new(1, 100, 30);
        let launched = s.select(0, &pool(200), 30);
        assert_eq!(launched.len(), 100);
        assert_eq!(s.in_flight.len(), 100);
    }

    #[test]
    fn slots_free_on_feedback() {
        let mut s = FedBuffSelector::new(1, 10, 3);
        let launched = s.select(0, &pool(50), 0);
        assert_eq!(launched.len(), 10);
        s.feedback(0, &[done(launched[0]), done(launched[1])]);
        assert_eq!(s.in_flight.len(), 8);
        let topped = s.select(1, &pool(50), 0);
        assert_eq!(topped.len(), 2);
        assert_eq!(s.in_flight.len(), 10);
    }

    #[test]
    fn no_duplicate_in_flight() {
        let mut s = FedBuffSelector::new(2, 20, 5);
        let _ = s.select(0, &pool(30), 0);
        let again = s.select(1, &pool(30), 0);
        assert!(again.is_empty());
        let mut all = s.in_flight.clone();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 20);
    }

    #[test]
    fn concurrency_clamped_to_pool() {
        let mut s = FedBuffSelector::new(3, 100, 30);
        let launched = s.select(0, &pool(40), 0);
        assert_eq!(launched.len(), 40);
    }
}
