//! Event-driven diurnal availability index.
//!
//! The diurnal bit of every client is a pure function of the *day
//! position* `round % ROUNDS_PER_DAY`: client `c` is diurnally available
//! iff the position falls inside its ON window (see
//! [`AvailabilityModel::diurnal_window`]). Instead of recomputing a
//! population-width membership row every round (O(population)), this
//! index keeps ONE maintained bitset row plus a calendar queue of
//! transitions: for each of the `ROUNDS_PER_DAY` day positions, the list
//! of clients that turn ON and the list that turn OFF exactly there.
//! Advancing the row by one position applies just those transition lists
//! — on average `2·N/ROUNDS_PER_DAY` bit flips — and because the row is
//! periodic in the day, *any* target round (forward, backward, replayed
//! after a reset) is reachable in at most `ROUNDS_PER_DAY - 1` steps.
//! Per-round cost is therefore O(transitions this round), independent of
//! both population size and round order.
//!
//! The row carries superblock popcounts so the index can also answer
//! rank/select queries: "give me the clients at sorted ranks r₁ < r₂ < …
//! among the set bits" in one left-to-right sweep. That is the substrate
//! for sampled candidate pools (`ExperimentConfig::candidate_pool`).

use std::sync::Arc;

use crate::availability::{AvailabilityModel, ROUNDS_PER_DAY};

/// Words per superblock: popcounts are maintained per 64 words = 4096
/// clients, small enough that an in-block scan is cache-resident and
/// large enough that the block array stays tiny (≤ ~10 KiB at 10M).
const BLOCK_WORDS: usize = 64;

/// The transition calendar, fixed once built.
#[derive(Debug)]
struct Calendar {
    /// CSR calendar of ON transitions: clients `on_ids[on_start[p]..on_start[p+1]]`
    /// turn diurnally ON when the row advances to day position `p`.
    on_start: Vec<u32>,
    on_ids: Vec<u32>,
    /// CSR calendar of OFF transitions, same layout.
    off_start: Vec<u32>,
    off_ids: Vec<u32>,
}

/// Calendar-queue availability index over one client population's diurnal
/// models. See the module docs for the design.
///
/// A clone shares the calendar (~8 B a client) and copies only the row
/// and its popcounts (~1/8 B a client), so every sampler over one
/// population advances a row of its own without a second calendar.
#[derive(Debug, Clone)]
pub struct AvailabilityIndex {
    num_clients: usize,
    calendar: Arc<Calendar>,
    /// The maintained membership row: bit `c` set iff client `c` is
    /// diurnally available at day position `row_pos`.
    row: Vec<u64>,
    /// Popcount of each superblock of `row` ([`BLOCK_WORDS`] words).
    blocks: Vec<u32>,
    /// Day position the row currently reflects.
    row_pos: usize,
    /// Number of set bits in `row`.
    count: usize,
    /// Total individual bit transitions applied since construction.
    transitions: u64,
    /// Number of `advance_to` calls that moved the row at least one step.
    advances: u64,
}

impl AvailabilityIndex {
    /// Build the index for `n` clients whose diurnal model is produced by
    /// `model(i)`. Each model is derived exactly once. The row is left at
    /// day position 0.
    pub fn build<F: FnMut(usize) -> AvailabilityModel>(n: usize, mut model: F) -> Self {
        let words = n.div_ceil(64);
        let mut row = vec![0u64; words];
        let mut on_pos = vec![0u8; n];
        let mut off_pos = vec![0u8; n];
        let mut on_count = vec![0u32; ROUNDS_PER_DAY + 1];
        let mut off_count = vec![0u32; ROUNDS_PER_DAY + 1];
        let mut count = 0usize;
        for i in 0..n {
            let m = model(i);
            let (start, len) = m.diurnal_window();
            let end = (start + len) % ROUNDS_PER_DAY;
            on_pos[i] = start as u8;
            off_pos[i] = end as u8;
            on_count[start + 1] += 1;
            off_count[end + 1] += 1;
            // Row state at day position 0: inside the wrapping ON window?
            if (ROUNDS_PER_DAY - start) % ROUNDS_PER_DAY < len {
                row[i / 64] |= 1u64 << (i % 64);
                count += 1;
            }
        }
        // Prefix-sum the counts into CSR starts, then counting-sort the
        // client ids into the calendar buckets (ascending id within each
        // bucket, which keeps every downstream iteration deterministic).
        for p in 0..ROUNDS_PER_DAY {
            on_count[p + 1] += on_count[p];
            off_count[p + 1] += off_count[p];
        }
        let on_start = on_count;
        let off_start = off_count;
        let mut on_ids = vec![0u32; n];
        let mut off_ids = vec![0u32; n];
        let mut on_cursor: Vec<u32> = on_start[..ROUNDS_PER_DAY].to_vec();
        let mut off_cursor: Vec<u32> = off_start[..ROUNDS_PER_DAY].to_vec();
        for i in 0..n {
            let p = on_pos[i] as usize;
            on_ids[on_cursor[p] as usize] = i as u32;
            on_cursor[p] += 1;
            let p = off_pos[i] as usize;
            off_ids[off_cursor[p] as usize] = i as u32;
            off_cursor[p] += 1;
        }
        let mut blocks = vec![0u32; words.div_ceil(BLOCK_WORDS)];
        for (w, &word) in row.iter().enumerate() {
            blocks[w / BLOCK_WORDS] += word.count_ones();
        }
        AvailabilityIndex {
            num_clients: n,
            calendar: Arc::new(Calendar {
                on_start,
                on_ids,
                off_start,
                off_ids,
            }),
            row,
            blocks,
            row_pos: 0,
            count,
            transitions: 0,
            advances: 0,
        }
    }

    /// Advance the maintained row to `round`'s day position, applying the
    /// calendar transitions in between. At most `ROUNDS_PER_DAY - 1`
    /// single-position steps regardless of how far (or in which
    /// direction) `round` is from the last query.
    pub fn advance_to(&mut self, round: usize) {
        let target = round % ROUNDS_PER_DAY;
        if target == self.row_pos {
            return;
        }
        self.advances += 1;
        let cal: &Calendar = &self.calendar;
        while self.row_pos != target {
            self.row_pos = (self.row_pos + 1) % ROUNDS_PER_DAY;
            let p = self.row_pos;
            let (s, e) = (cal.off_start[p] as usize, cal.off_start[p + 1] as usize);
            for &id in &cal.off_ids[s..e] {
                let (w, bit) = (id as usize / 64, 1u64 << (id as usize % 64));
                debug_assert!(self.row[w] & bit != 0, "OFF transition on clear bit");
                self.row[w] &= !bit;
                self.blocks[w / BLOCK_WORDS] -= 1;
                self.count -= 1;
            }
            let (s, e) = (cal.on_start[p] as usize, cal.on_start[p + 1] as usize);
            for &id in &cal.on_ids[s..e] {
                let (w, bit) = (id as usize / 64, 1u64 << (id as usize % 64));
                debug_assert!(self.row[w] & bit == 0, "ON transition on set bit");
                self.row[w] |= bit;
                self.blocks[w / BLOCK_WORDS] += 1;
                self.count += 1;
            }
            self.transitions += (e - s) as u64 + (cal.off_start[p + 1] - cal.off_start[p]) as u64;
        }
    }

    /// Number of clients in the population.
    pub fn num_clients(&self) -> usize {
        self.num_clients
    }

    /// Number of diurnally available clients at the current row position.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether client `c`'s diurnal bit is set at the current row position.
    pub fn contains(&self, c: usize) -> bool {
        self.row[c / 64] & (1u64 << (c % 64)) != 0
    }

    /// The maintained membership row (bit `c` = client `c` diurnally
    /// available at the current position). For full-sweep iteration.
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

    /// Total individual bit transitions applied since construction.
    pub fn transitions_applied(&self) -> u64 {
        self.transitions
    }

    /// Number of `advance_to` calls that actually moved the row.
    pub fn advances(&self) -> u64 {
        self.advances
    }

    /// Bytes of heap the index reads (calendars + row + popcounts); a clone
    /// shares the calendars and reports the same.
    pub fn heap_bytes(&self) -> usize {
        let cal = &self.calendar;
        cal.on_start.len() * 4
            + cal.on_ids.len() * 4
            + cal.off_start.len() * 4
            + cal.off_ids.len() * 4
            + self.row.len() * 8
            + self.blocks.len() * 4
    }
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

    fn build(seed: u64, n: usize) -> AvailabilityIndex {
        AvailabilityIndex::build(n, |i| AvailabilityModel::for_client(seed, i))
    }

    #[test]
    fn window_matches_diurnal_available() {
        for seed in 0..50u64 {
            let m = AvailabilityModel::new(seed);
            let (start, len) = m.diurnal_window();
            for r in 0..ROUNDS_PER_DAY {
                let in_window = (r + ROUNDS_PER_DAY - start) % ROUNDS_PER_DAY < len;
                assert_eq!(
                    in_window,
                    m.diurnal_available(r),
                    "seed {seed} round {r} window ({start},{len})"
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
