//! Property tests for the availability substrate: the recomputed index
//! must agree with the brute-force per-model check over arbitrary seeds,
//! population sizes, and (non-monotone) round orders, at the edges of its
//! row words and superblocks too;
//! the sampler's indexed sweep must agree with per-client `is_available`
//! under arbitrary battery drains; and pooled draws must be exact about
//! the eligible count, subsets of the sweep, and deterministic in the
//! draw seed.

use proptest::prelude::*;

use float::tensor::rng::split_seed;
use float::traces::availability::ROUNDS_PER_DAY;
use float::traces::{
    AvailabilityIndex, AvailabilityModel, InterferenceModel, InterruptionTable, ResourceSampler,
};

proptest! {
    /// The maintained index row is exactly the brute-force diurnal filter
    /// at every queried round, no matter how rounds jump around.
    #[test]
    fn index_matches_brute_force_diurnal(
        seed in any::<u64>(),
        n in 0usize..200,
        rounds in prop::collection::vec(0usize..500, 1..25),
    ) {
        let mk = |i: usize| AvailabilityModel::new(split_seed(seed, 0xA11 + i as u64));
        let mut index = index_of((0..n).map(mk));
        for &r in &rounds {
            index.advance_to(r);
            let mut want_count = 0usize;
            for c in 0..n {
                let want = mk(c).diurnal_available(r);
                prop_assert_eq!(
                    index.contains(c), want,
                    "client {} round {} disagrees with brute force", c, r
                );
                want_count += usize::from(want);
            }
            prop_assert_eq!(index.count(), want_count, "count drifted at round {}", r);
        }
    }

    /// Clones share the windows but advance rows of their own: two clones
    /// driven through the same rounds in opposite orders each stay the
    /// brute-force diurnal filter, report the parent's heap bytes, and
    /// leave the parent's row where it was.
    #[test]
    fn clones_advance_independently(
        seed in any::<u64>(),
        n in 0usize..200,
        rounds in prop::collection::vec(0usize..500, 1..25),
    ) {
        let mk = |i: usize| AvailabilityModel::new(split_seed(seed, 0xA11 + i as u64));
        let parent = index_of((0..n).map(mk));
        let start = parent.row_words().to_vec();
        let (mut a, mut b) = (parent.clone(), parent.clone());
        for (&ra, &rb) in rounds.iter().zip(rounds.iter().rev()) {
            a.advance_to(ra);
            b.advance_to(rb);
            for (index, r) in [(&a, ra), (&b, rb)] {
                let want: Vec<usize> =
                    (0..n).filter(|&c| mk(c).diurnal_available(r)).collect();
                let got: Vec<usize> = (0..n).filter(|&c| index.contains(c)).collect();
                prop_assert_eq!(&got, &want, "round {}", r);
                prop_assert_eq!(index.count(), want.len(), "count at round {}", r);
            }
        }
        prop_assert_eq!(a.heap_bytes(), parent.heap_bytes());
        prop_assert_eq!(b.heap_bytes(), parent.heap_bytes());
        prop_assert_eq!(parent.row_words(), &start[..]);
    }

    /// The sampler's indexed sweep equals filtering every client through
    /// `is_available` — including after arbitrary battery drains and
    /// recharges, visited in an arbitrary round order. Populations reach
    /// seven row words, so the sweep's per-word masks meet full words,
    /// empty words and partial tail words.
    #[test]
    fn indexed_sweep_matches_per_client_filter(
        seed in any::<u64>(),
        n in 1usize..400,
        drains in prop::collection::vec((0usize..400, 1u32..4), 0..16),
        rounds in prop::collection::vec(0usize..300, 1..10),
        charge_at in 0usize..10,
    ) {
        sweep_matches_per_client_filter(seed, n, &drains, &rounds, charge_at)?;
    }

    /// Pooled draws: the returned eligible count is the exact brute-force
    /// diurnal ∩ battery count (never the pool size), the pool is an
    /// ascending duplicate-free subset of the full sweep, and the same
    /// draw seed reproduces the same pool.
    #[test]
    fn pool_is_exact_sound_and_deterministic(
        seed in any::<u64>(),
        n in 1usize..100,
        k in 1usize..48,
        draw_seed in any::<u64>(),
        drains in prop::collection::vec((0usize..100, 1u32..3), 0..10),
        rounds in prop::collection::vec(0usize..200, 1..8),
    ) {
        let mut pooled = ResourceSampler::new(n, InterferenceModel::None, seed);
        let mut twin = ResourceSampler::new(n, InterferenceModel::None, seed);
        let mut sweeper = ResourceSampler::new(n, InterferenceModel::None, seed);
        for &(c, times) in &drains {
            for _ in 0..times {
                pooled.drain_battery(c % n, 18_000.0);
                twin.drain_battery(c % n, 18_000.0);
                sweeper.drain_battery(c % n, 18_000.0);
            }
        }
        let mut pool = Vec::new();
        let mut pool_again = Vec::new();
        let mut sweep = Vec::new();
        for (step, &r) in rounds.iter().enumerate() {
            let ds = split_seed(draw_seed, step as u64);
            let eligible = pooled.candidate_pool_into(r, k, ds, &mut pool);
            let eligible_twin = twin.candidate_pool_into(r, k, ds, &mut pool_again);
            prop_assert_eq!(eligible, eligible_twin);
            prop_assert_eq!(&pool, &pool_again, "same draw seed, different pool");

            // Exactness: diurnal ∩ battery, by brute force on the twin.
            let mut want_eligible = 0usize;
            for c in 0..n {
                let t = twin.client(c);
                if t.availability.diurnal_available(r) && t.battery.allows_training() {
                    want_eligible += 1;
                }
            }
            prop_assert_eq!(eligible, want_eligible, "eligible not exact at round {}", r);

            // Soundness: a subset of the full sweep, ascending, no dups.
            sweeper.available_clients_into(r, &mut sweep);
            prop_assert!(pool.len() <= k.min(n));
            prop_assert!(pool.windows(2).all(|w| w[0] < w[1]), "pool not ascending/unique");
            prop_assert!(
                pool.iter().all(|c| sweep.binary_search(c).is_ok()),
                "pool member missing from the sweep at round {}", r
            );
        }
    }
}

/// The index over `models`' diurnal windows, in order.
fn index_of(models: impl Iterator<Item = AvailabilityModel>) -> AvailabilityIndex {
    let (phase, len) = models.map(|m| m.diurnal_window()).unzip();
    AvailabilityIndex::from_windows(phase, len)
}

/// Drains `(client % n, times)` into a sweeping sampler and a twin, then
/// at each of `rounds` (charging both before step `charge_at`) checks the
/// sweep against the twin's one-client-at-a-time `is_available`.
fn sweep_matches_per_client_filter(
    seed: u64,
    n: usize,
    drains: &[(usize, u32)],
    rounds: &[usize],
    charge_at: usize,
) -> Result<(), String> {
    let mut sweeper = ResourceSampler::new(n, InterferenceModel::None, seed);
    let mut brute = ResourceSampler::new(n, InterferenceModel::None, seed);
    for &(c, times) in drains {
        for _ in 0..times {
            sweeper.drain_battery(c % n, 18_000.0);
            brute.drain_battery(c % n, 18_000.0);
        }
    }
    let mut sweep = Vec::new();
    for (step, &r) in rounds.iter().enumerate() {
        if step == charge_at {
            sweeper.charge_all();
            brute.charge_all();
        }
        sweeper.available_clients_into(r, &mut sweep);
        let want: Vec<u32> = (0..n)
            .filter(|&c| brute.is_available(c, r))
            .map(|c| c as u32)
            .collect();
        prop_assert_eq!(&sweep, &want, "n {} sweep diverged at round {}", n, r);
    }
    Ok(())
}

/// The populations on either side of one and two full row words, and one
/// ending mid-word far down the row, with drains landing in the tail word.
#[test]
fn indexed_sweep_matches_at_word_edges() {
    for n in [63usize, 64, 65, 128, 129, 1000] {
        let drains: Vec<(usize, u32)> = [0, 1, 62, 63, 64, 127, 128, n - 1, n - 2]
            .iter()
            .map(|&c| (c, 3))
            .collect();
        let rounds = [0, 7, 40, 95, 96, 180, 3];
        sweep_matches_per_client_filter(0x5EED + n as u64, n, &drains, &rounds, 4).unwrap();
    }
}

/// All three population builders against the generator, client by
/// client: the one-pass build, the index alone and the table alone each
/// hold every client's `AvailabilityModel::new` diurnal bit at every day
/// position (read from the model's duty, not from its window) and its
/// interruption threshold. The populations sit on either side of one row
/// word and of the builders' 4096-client chunk, and one is large; an
/// empty one builds empty tables.
#[test]
fn one_pass_build_equals_the_two_builds() {
    let seed = 29;
    let spelled =
        |c: usize| AvailabilityModel::new(split_seed(split_seed(seed, 0x1000 + c as u64), 2));
    for n in [0usize, 1, 63, 64, 65, 4095, 4096, 4097, 100_000] {
        let models: Vec<AvailabilityModel> = (0..n).map(spelled).collect();
        let thresholds = models.iter().map(|m| m.interruption().threshold());
        let want_sweep = InterruptionTable::from_thresholds(seed, thresholds.collect());
        let (mut index, sweep) = ResourceSampler::build_index_and_sweep(n, seed);
        let mut alone = ResourceSampler::build_index(n, seed);
        assert!(sweep == want_sweep, "n {n}: one-pass thresholds differ");
        let sweep_alone = ResourceSampler::build_sweep_models(n, seed);
        assert!(
            sweep_alone == want_sweep,
            "n {n}: table-only thresholds differ"
        );
        assert_eq!(sweep.heap_bytes(), n, "n {n}");
        assert_eq!(index.heap_bytes(), alone.heap_bytes(), "n {n}");
        assert_eq!(index.num_clients(), n, "n {n}");
        for p in 0..ROUNDS_PER_DAY {
            index.advance_to(p);
            alone.advance_to(p);
            for (c, m) in models.iter().enumerate() {
                let want = m.diurnal_available(p);
                assert_eq!(index.contains(c), want, "n {n} position {p} client {c}");
                assert_eq!(alone.contains(c), want, "n {n} position {p} client {c}");
            }
            assert_eq!(index.count(), alone.count(), "n {n} position {p}");
        }
    }
}

/// The full sweep resolves a draw by the exact rule only when its top 11
/// bits tie the client's one-byte key, and only for diurnally available
/// clients: each of those draws ties with probability 2⁻¹¹, independently
/// of its key, so over 1M clients and four rounds the counter is
/// Binomial(available draws, 2⁻¹¹). It must lie within 6σ of the mean (a
/// false alarm once in ~5·10⁸ seeds; the seed is fixed). The ~2.4M
/// draws give a mean near 1182 and σ near 34: a count over every client's
/// draw (~1953) lies ~22σ out, and none ~34σ.
#[test]
fn sweep_exact_fallbacks_are_binomial_in_the_available_draws() {
    let (n, seed) = (1_000_000, 41);
    let mut sampler = ResourceSampler::new(n, InterferenceModel::None, seed);
    let mut index = ResourceSampler::build_index(n, seed);
    let (mut draws, mut out) = (0usize, Vec::new());
    for round in [0, 1, 2, 50] {
        index.advance_to(round);
        draws += index.count();
        sampler.available_clients_into(round, &mut out);
    }
    let q = 1.0 / 2048.0;
    let (mean, sd) = (draws as f64 * q, (draws as f64 * q * (1.0 - q)).sqrt());
    let got = sampler.availability_stats().sweep_exact_fallbacks as f64;
    assert!(
        (got - mean).abs() <= 6.0 * sd,
        "{got} exact fallbacks over {draws} available draws: mean {mean:.1}, sd {sd:.1}"
    );
}

/// Populations on either side of one row word, of one 4096-client
/// superblock, and a large one, driven forward one position, forward
/// several, backward, and onto the position they already hold. At every
/// step the index is the brute-force diurnal filter, read through
/// `select_ranks_into` over every rank (so each superblock popcount is
/// checked) and through `count`; `transitions_applied` grows by the bits
/// the row words changed in; and the heap holds two bytes a client plus
/// the row and its popcounts.
#[test]
fn recomputed_index_matches_brute_force_at_block_edges() {
    let rounds = [0, 1, 2, 7, 40, 39, 3, 95, 96, 96 + 3, 191, 250, 0];
    for n in [63usize, 64, 65, 4095, 4096, 4097, 100_000] {
        let seed = 0xED9E + n as u64;
        let models: Vec<AvailabilityModel> = (0..n)
            .map(|i| AvailabilityModel::new(split_seed(seed, i as u64)))
            .collect();
        let mut index = index_of(models.iter().cloned());
        assert_eq!(
            index.heap_bytes(),
            2 * n + 8 * n.div_ceil(64) + 4 * n.div_ceil(4096),
            "n {n}"
        );
        let mut flipped = 0u64;
        let mut got = Vec::new();
        for &r in &rounds {
            let before = index.row_words().to_vec();
            index.advance_to(r);
            flipped += before
                .iter()
                .zip(index.row_words())
                .map(|(&b, &a)| u64::from((b ^ a).count_ones()))
                .sum::<u64>();
            assert_eq!(index.transitions_applied(), flipped, "n {n} round {r}");

            let want: Vec<usize> = (0..n).filter(|&c| models[c].diurnal_available(r)).collect();
            assert_eq!(index.count(), want.len(), "n {n} round {r}");
            let ranks: Vec<usize> = (0..want.len()).collect();
            got.clear();
            index.select_ranks_into(&ranks, &mut got);
            assert_eq!(got, want, "n {n} round {r}");
        }
    }
}
