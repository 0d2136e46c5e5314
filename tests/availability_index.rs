//! Property tests for the event-driven availability substrate: the
//! calendar index must agree with the brute-force per-model check over
//! arbitrary seeds, population sizes, and (non-monotone) round orders;
//! the sampler's indexed sweep must agree with per-client `is_available`
//! under arbitrary battery drains; and pooled draws must be exact about
//! the eligible count, subsets of the sweep, and deterministic in the
//! draw seed.

use proptest::prelude::*;

use float::tensor::rng::split_seed;
use float::traces::availability::ROUNDS_PER_DAY;
use float::traces::{AvailabilityIndex, AvailabilityModel, InterferenceModel, ResourceSampler};

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
        let mut index = AvailabilityIndex::build(n, mk);
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

    /// Clones share the calendar but advance rows of their own: two clones
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
        let parent = AvailabilityIndex::build(n, mk);
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
        let want: Vec<usize> = (0..n).filter(|&c| brute.is_available(c, r)).collect();
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

/// Building the calendar and the full-sweep table in one pass gives what
/// the two separate builds give: the same tables bit for bit (`{:?}` of an
/// `f64` round-trips, so equal text is equal bits) and a calendar whose
/// row and count agree at every day position.
#[test]
fn one_pass_build_equals_the_two_builds() {
    for n in [1usize, 63, 64, 65, 10_000] {
        let (mut index, sweep) = ResourceSampler::build_index_and_sweep(n, 29);
        let mut want_index = ResourceSampler::build_index(n, 29);
        let want_sweep = ResourceSampler::build_sweep_models(n, 29);
        assert_eq!(format!("{sweep:?}"), format!("{want_sweep:?}"), "n {n}");
        assert_eq!(index.heap_bytes(), want_index.heap_bytes(), "n {n}");
        for p in 0..ROUNDS_PER_DAY {
            index.advance_to(p);
            want_index.advance_to(p);
            assert_eq!(
                index.row_words(),
                want_index.row_words(),
                "n {n} position {p}"
            );
            assert_eq!(index.count(), want_index.count(), "n {n} position {p}");
        }
    }
}
