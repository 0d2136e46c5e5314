//! Diurnal availability index.
//!
//! The diurnal bit of every client is a pure function of the *day
//! position* `round % ROUNDS_PER_DAY`: client `c` is diurnally available
//! iff `(position + phase) % ROUNDS_PER_DAY < len`, with `len =
//! ceil(duty · ROUNDS_PER_DAY)` (see
//! [`AvailabilityModel::diurnal_window`](crate::AvailabilityModel::diurnal_window)).
//! The index keeps those two numbers, one byte each, per client, and ONE
//! bitset row for the day position last asked for. Moving the row to a
//! new position recomputes it from the two bytes, 64 clients to a row
//! word in a branch-free loop, together with the row's superblock
//! popcounts and its count. Any target round (forward, backward, replayed
//! after a reset) costs the same one pass, and a round on the row's own
//! position costs nothing.
//!
//! An earlier version kept a calendar of each position's ON and OFF
//! transitions (8 more bytes a client) and applied only those, about
//! `2·N/ROUNDS_PER_DAY` bit flips a step. Building it took a counting sort
//! over the population that cost as much as 130–210 of the dearer
//! recomputes, and no population preset runs that many rounds (DESIGN.md
//! §14).
//!
//! The superblock popcounts let the index also answer rank/select
//! queries: "give me the clients at sorted ranks r₁ < r₂ < … among the set
//! bits" in one left-to-right sweep. That is the substrate for sampled
//! candidate pools (`ExperimentConfig::candidate_pool`).

use std::sync::Arc;

use crate::availability::ROUNDS_PER_DAY;

/// Words per superblock: popcounts are kept per 64 words = 4096 clients,
/// small enough that an in-block scan is cache-resident and large enough
/// that the block array stays tiny (≤ ~10 KiB at 10M).
const BLOCK_WORDS: usize = 64;

/// Every client's diurnal window, fixed once built: client `c` is
/// diurnally available at day position `p` iff `(p + phase[c]) %
/// ROUNDS_PER_DAY < len[c]`.
#[derive(Debug)]
struct Windows {
    phase: Vec<u8>,
    len: Vec<u8>,
}

/// Diurnal availability index over one client population's models. See
/// the module docs for the design.
///
/// A clone shares the windows (2 B a client) and copies only the row and
/// its popcounts (~1/8 B a client), so every sampler over one population
/// moves a row of its own without a second copy of the windows.
#[derive(Debug, Clone)]
pub struct AvailabilityIndex {
    windows: Arc<Windows>,
    /// The membership row: bit `c` set iff client `c` is diurnally
    /// available at day position `row_pos`.
    row: Vec<u64>,
    /// Popcount of each superblock of `row` ([`BLOCK_WORDS`] words).
    blocks: Vec<u32>,
    /// Day position the row currently reflects.
    row_pos: usize,
    /// Number of set bits in `row`.
    count: usize,
    /// Row bits changed by every recompute since construction.
    transitions: u64,
    /// Number of `advance_to` calls that moved the row.
    advances: u64,
}

impl AvailabilityIndex {
    /// The index over finished windows: client `c`'s
    /// [`diurnal_window`](crate::AvailabilityModel::diurnal_window) is
    /// `(phase[c], len[c])`. The row is left at day position 0.
    ///
    /// # Panics
    ///
    /// Panics if the two tables differ in length.
    pub fn from_windows(phase: Vec<u8>, len: Vec<u8>) -> Self {
        assert_eq!(phase.len(), len.len(), "one window length per phase");
        let words = phase.len().div_ceil(64);
        let mut index = AvailabilityIndex {
            windows: Arc::new(Windows { phase, len }),
            row: vec![0; words],
            blocks: vec![0; words.div_ceil(BLOCK_WORDS)],
            row_pos: 0,
            count: 0,
            transitions: 0,
            advances: 0,
        };
        index.recompute(0);
        index
    }

    /// Move the row to `round`'s day position: one recompute of every
    /// row word when the position changes, nothing when it does not.
    pub fn advance_to(&mut self, round: usize) {
        let target = round % ROUNDS_PER_DAY;
        if target == self.row_pos {
            return;
        }
        self.advances += 1;
        self.transitions += self.recompute(target);
    }

    /// Rewrite the row, its superblock popcounts and its count for day
    /// position `pos`, and return how many row bits changed.
    fn recompute(&mut self, pos: usize) -> u64 {
        let pos = pos as u8;
        let Windows { phase, len } = &*self.windows;
        let (phase_words, phase_tail) = phase.as_chunks::<64>();
        let (len_words, len_tail) = len.as_chunks::<64>();
        // The last, partial word reads a copy padded with windows of
        // length 0, which are never on: its bits past `n` stay clear.
        let mut tail = ([0; 64], [0; 64]);
        tail.0[..phase_tail.len()].copy_from_slice(phase_tail);
        tail.1[..len_tail.len()].copy_from_slice(len_tail);
        let padded = (!phase_tail.is_empty()).then_some((&tail.0, &tail.1));
        let mut words = self
            .row
            .iter_mut()
            .zip(phase_words.iter().zip(len_words).chain(padded));
        let (mut changed, mut count) = (0u64, 0usize);
        for block in &mut self.blocks {
            let mut ones = 0;
            for (word, (phase, len)) in words.by_ref().take(BLOCK_WORDS) {
                let new = row_word(phase, len, pos);
                changed += u64::from((*word ^ new).count_ones());
                ones += new.count_ones();
                *word = new;
            }
            *block = ones;
            count += ones as usize;
        }
        self.row_pos = usize::from(pos);
        self.count = count;
        changed
    }

    /// Number of clients in the population.
    pub fn num_clients(&self) -> usize {
        self.windows.phase.len()
    }

    /// Number of diurnally available clients at the current row position.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether client `c`'s diurnal bit is set at the current row position.
    pub fn contains(&self, c: usize) -> bool {
        self.row[c / 64] & (1u64 << (c % 64)) != 0
    }

    /// The membership row (bit `c` = client `c` diurnally available at the
    /// current position). For full-sweep iteration.
    pub fn row_words(&self) -> &[u64] {
        &self.row
    }

    /// Resolve sorted ranks to client ids: for each `r` in `ranks`
    /// (strictly ascending, all `< self.count()`), push the client id of
    /// the `r`-th set bit (0-based, ascending id order) onto `out`. One
    /// merged left-to-right sweep using the superblock popcounts, so cost
    /// is O(blocks skipped + words scanned), not O(population).
    pub fn select_ranks_into(&self, ranks: &[usize], out: &mut Vec<usize>) {
        debug_assert!(ranks.windows(2).all(|w| w[0] < w[1]), "ranks must ascend");
        let mut ri = 0usize;
        let mut cum = 0usize;
        'blocks: for (b, &bc) in self.blocks.iter().enumerate() {
            if ri >= ranks.len() {
                break;
            }
            let bc = bc as usize;
            if ranks[ri] >= cum + bc {
                cum += bc;
                continue;
            }
            let w_end = ((b + 1) * BLOCK_WORDS).min(self.row.len());
            let mut wcum = cum;
            for w in b * BLOCK_WORDS..w_end {
                let word = self.row[w];
                let pc = word.count_ones() as usize;
                while ri < ranks.len() && ranks[ri] < wcum + pc {
                    out.push(w * 64 + nth_set_bit(word, ranks[ri] - wcum));
                    ri += 1;
                }
                if ri >= ranks.len() {
                    break 'blocks;
                }
                wcum += pc;
            }
            cum += bc;
        }
        debug_assert_eq!(ri, ranks.len(), "rank out of range of set-bit count");
    }

    /// Row bits changed since construction: each advance adds the bits
    /// its old and new rows differ in, so a one-position step counts every
    /// client that switched and a longer jump counts the net change.
    pub fn transitions_applied(&self) -> u64 {
        self.transitions
    }

    /// Number of `advance_to` calls that actually moved the row.
    pub fn advances(&self) -> u64 {
        self.advances
    }

    /// Bytes of heap the index reads (windows + row + popcounts); a clone
    /// shares the windows and reports the same.
    pub fn heap_bytes(&self) -> usize {
        self.windows.phase.len()
            + self.windows.len.len()
            + self.row.len() * 8
            + self.blocks.len() * 4
    }
}

/// The row word of 64 consecutive clients at day position `pos`: bit `k`
/// is set iff `(pos + phase[k]) % ROUNDS_PER_DAY < len[k]`. `pos` and the
/// phase are below `ROUNDS_PER_DAY`, so their sum stays under 192 and one
/// select wraps it. The loops have no branch and fixed lengths, so they vectorize: a
/// byte compare per client, sixteen clients per instruction. Each half
/// folds into a `u32`; one `u64` fold over all 64 clients vectorized only
/// eight clients at a time and ran ~25 % slower.
#[inline(always)]
fn row_word(phase: &[u8; 64], len: &[u8; 64], pos: u8) -> u64 {
    const DAY: u8 = ROUNDS_PER_DAY as u8;
    let half = |h: usize| {
        let mut bits = 0u32;
        for j in 0..32 {
            let k = 32 * h + j;
            let at = pos + phase[k];
            let at = if at >= DAY { at - DAY } else { at };
            bits |= u32::from(at < len[k]) << j;
        }
        u64::from(bits)
    };
    half(0) | half(1) << 32
}

/// Position of the `j`-th set bit (0-based, from LSB) of `word`.
fn nth_set_bit(mut word: u64, j: usize) -> usize {
    for _ in 0..j {
        word &= word - 1;
    }
    word.trailing_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AvailabilityModel;

    fn build(seed: u64, n: usize) -> AvailabilityIndex {
        let (phase, len) = (0..n)
            .map(|i| AvailabilityModel::for_client(seed, i).diurnal_window())
            .unzip();
        AvailabilityIndex::from_windows(phase, len)
    }

    #[test]
    fn window_matches_diurnal_available() {
        for seed in 0..50u64 {
            let m = AvailabilityModel::new(seed);
            let (phase, len) = m.diurnal_window();
            for r in 0..ROUNDS_PER_DAY {
                let in_window = (r + usize::from(phase)) % ROUNDS_PER_DAY < usize::from(len);
                assert_eq!(
                    in_window,
                    m.diurnal_available(r),
                    "seed {seed} round {r} window ({phase},{len})"
                );
            }
        }
    }

    #[test]
    fn row_matches_brute_force_over_two_days() {
        let n = 321;
        let mut idx = build(7, n);
        for r in 0..2 * ROUNDS_PER_DAY {
            idx.advance_to(r);
            let mut expect = 0usize;
            for i in 0..n {
                let want = AvailabilityModel::for_client(7, i).diurnal_available(r);
                assert_eq!(idx.contains(i), want, "round {r} client {i}");
                expect += want as usize;
            }
            assert_eq!(idx.count(), expect, "round {r} count");
        }
    }

    #[test]
    fn non_monotone_rounds_agree_with_fresh_index() {
        let n = 200;
        let mut idx = build(3, n);
        for &r in &[50usize, 7, 500, 499, 0, 95, 96, 12, 12] {
            idx.advance_to(r);
            let mut fresh = build(3, n);
            fresh.advance_to(r);
            assert_eq!(idx.row_words(), fresh.row_words(), "round {r}");
            assert_eq!(idx.count(), fresh.count(), "round {r}");
        }
    }

    #[test]
    fn select_ranks_matches_linear_scan() {
        let n = 5000;
        let mut idx = build(11, n);
        idx.advance_to(37);
        let all: Vec<usize> = (0..n).filter(|&i| idx.contains(i)).collect();
        assert_eq!(all.len(), idx.count());
        let ranks: Vec<usize> = (0..all.len()).step_by(17).collect();
        let mut got = Vec::new();
        idx.select_ranks_into(&ranks, &mut got);
        let want: Vec<usize> = ranks.iter().map(|&r| all[r]).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn transitions_are_counted_and_bounded() {
        let n = 1000;
        let mut idx = build(5, n);
        idx.advance_to(1);
        let t1 = idx.transitions_applied();
        assert!(t1 > 0, "a step should flip some bits");
        // One forward step flips far fewer bits than the population.
        assert!(t1 < n as u64, "one step flipped {t1} bits");
        idx.advance_to(2);
        assert!(idx.transitions_applied() > t1);
        assert!(idx.heap_bytes() > 0);
    }

    #[test]
    fn empty_population_is_fine() {
        let mut idx = build(1, 0);
        idx.advance_to(10);
        assert_eq!(idx.count(), 0);
        let mut out = Vec::new();
        idx.select_ranks_into(&[], &mut out);
        assert!(out.is_empty());
    }
}
