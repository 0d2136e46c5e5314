//! Property-based tests (proptest) over the core data structures and
//! invariants: quantization error bounds, lossless-codec round-trips,
//! masks, aggregation, partitioning, state discretization, and the
//! Q-table.

use proptest::prelude::*;

use float::accel::action::AccelAction;
use float::accel::compress::{compress_f32_update, decompress_f32_update, top_k_sparsify};
use float::accel::partial::{compute_multiplier, frozen_mask};
use float::accel::prune::{apply_mask, density, magnitude_mask};
use float::accel::quantize::{quantization_error_bound, quantize_dequantize};
use float::core::aggregate::{aggregate, PendingUpdate};
use float::data::partition::{dirichlet_partition, iid_partition, partition_skew};
use float::rl::binning::AdaptiveBinner;
use float::rl::{DeadlineLevel, GlobalState, LocalState, QKey, QTable};

fn small_f32() -> impl Strategy<Value = f32> {
    // Finite, moderate-magnitude floats — the range of model updates.
    (-100.0f32..100.0).prop_map(|v| if v.abs() < 1e-6 { 0.0 } else { v })
}

proptest! {
    #[test]
    fn quantization_error_within_bound(vals in prop::collection::vec(small_f32(), 1..200),
                                        bits in 2u32..=16) {
        let deq = quantize_dequantize(&vals, bits);
        // The analytical bound is half a grid step; allow a small slack
        // for f32 rounding in the scale and reconstruction arithmetic.
        let bound = quantization_error_bound(&vals, bits);
        for (a, b) in vals.iter().zip(&deq) {
            prop_assert!((a - b).abs() <= bound * (1.0 + 1e-2) + 1e-6,
                "err {} > bound {}", (a - b).abs(), bound);
        }
    }

    #[test]
    fn quantization_preserves_zero_and_sign(vals in prop::collection::vec(small_f32(), 1..100)) {
        let deq = quantize_dequantize(&vals, 8);
        for (a, b) in vals.iter().zip(&deq) {
            if *a == 0.0 {
                prop_assert_eq!(*b, 0.0);
            } else if b.abs() > 0.0 {
                prop_assert_eq!(a.signum(), b.signum());
            }
        }
    }

    #[test]
    fn lossless_codec_roundtrips(vals in prop::collection::vec(small_f32(), 0..300)) {
        let compressed = compress_f32_update(&vals);
        let back = decompress_f32_update(&compressed);
        prop_assert_eq!(back, Some(vals));
    }

    #[test]
    fn lossless_codec_never_blows_up(vals in prop::collection::vec(small_f32(), 0..300)) {
        let compressed = compress_f32_update(&vals);
        // Worst case: 4 raw planes + 4 tag bytes + 4 header bytes.
        prop_assert!(compressed.len() <= vals.len() * 4 + 8);
    }

    #[test]
    fn prune_mask_density_matches_fraction(vals in prop::collection::vec(small_f32(), 10..500),
                                           fraction in 0.0f64..=1.0) {
        let mask = magnitude_mask(&vals, fraction);
        let d = density(&mask);
        prop_assert!((d - (1.0 - fraction)).abs() < 2.0 / vals.len() as f64 + 1e-9,
            "density {} for fraction {}", d, fraction);
    }

    #[test]
    fn pruned_values_are_never_larger_than_survivors(
        vals in prop::collection::vec(small_f32(), 10..200)) {
        let mask = magnitude_mask(&vals, 0.5);
        let max_pruned = vals.iter().zip(&mask)
            .filter(|(_, &keep)| !keep)
            .map(|(v, _)| v.abs())
            .fold(0.0f32, f32::max);
        let min_kept = vals.iter().zip(&mask)
            .filter(|(_, &keep)| keep)
            .map(|(v, _)| v.abs())
            .fold(f32::INFINITY, f32::min);
        prop_assert!(max_pruned <= min_kept + 1e-6,
            "pruned {} > kept {}", max_pruned, min_kept);
    }

    #[test]
    fn apply_mask_zeroes_exactly_pruned(vals in prop::collection::vec(small_f32(), 1..100),
                                        fraction in 0.0f64..=1.0) {
        let mask = magnitude_mask(&vals, fraction);
        let mut out = vals.clone();
        apply_mask(&mut out, &mask);
        for ((o, v), &keep) in out.iter().zip(&vals).zip(&mask) {
            if keep {
                prop_assert_eq!(o, v);
            } else {
                prop_assert_eq!(*o, 0.0);
            }
        }
    }

    #[test]
    fn frozen_mask_fraction_and_determinism(n in 1usize..2000,
                                            fraction in 0.0f64..=1.0,
                                            seed in any::<u64>()) {
        let a = frozen_mask(n, fraction, seed);
        let b = frozen_mask(n, fraction, seed);
        prop_assert_eq!(&a, &b);
        let frozen = a.iter().filter(|&&f| f).count();
        let expected = (n as f64 * fraction).round() as usize;
        prop_assert_eq!(frozen, expected);
    }

    #[test]
    fn compute_multiplier_is_monotone_and_bounded(f1 in 0.0f64..=1.0, f2 in 0.0f64..=1.0) {
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        prop_assert!(compute_multiplier(lo) >= compute_multiplier(hi));
        prop_assert!(compute_multiplier(f1) <= 1.0);
        prop_assert!(compute_multiplier(f1) >= 1.0 / 3.0 - 1e-9);
    }

    #[test]
    fn top_k_keeps_exactly_k(vals in prop::collection::vec(small_f32(), 1..300),
                             keep in 0.01f64..=1.0) {
        let s = top_k_sparsify(&vals, keep);
        let expect = ((vals.len() as f64 * keep).round() as usize).clamp(1, vals.len());
        prop_assert_eq!(s.indices.len(), expect);
        // Indices are sorted and unique.
        for w in s.indices.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        // Dense reconstruction matches kept values.
        let dense = s.to_dense();
        for (&i, &v) in s.indices.iter().zip(&s.values) {
            prop_assert_eq!(dense[i as usize], v);
        }
    }

    #[test]
    fn aggregation_stays_in_convex_hull(deltas in prop::collection::vec(small_f32(), 1..20),
                                        samples in prop::collection::vec(1usize..1000, 1..20)) {
        // One-dimensional model: the aggregated delta must lie within
        // [min, max] of the individual deltas (convexity of weighted mean).
        let n = deltas.len().min(samples.len());
        let updates: Vec<PendingUpdate> = (0..n)
            .map(|i| PendingUpdate {
                client: i,
                delta: vec![deltas[i]],
                samples: samples[i],
                staleness: 0,
            })
            .collect();
        let mut global = vec![0.0f32];
        aggregate(&mut global, &updates);
        let lo = deltas[..n].iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = deltas[..n].iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        prop_assert!(global[0] >= lo - 1e-4 && global[0] <= hi + 1e-4,
            "aggregate {} outside [{}, {}]", global[0], lo, hi);
    }

    #[test]
    fn dirichlet_partition_counts_are_positive(clients in 1usize..50,
                                               classes in 2usize..20,
                                               alpha in 0.01f64..10.0,
                                               seed in any::<u64>()) {
        let parts = dirichlet_partition(clients, classes, 50, alpha, seed);
        prop_assert_eq!(parts.len(), clients);
        for p in &parts {
            prop_assert_eq!(p.len(), classes);
            prop_assert!(p.iter().sum::<usize>() >= 1);
        }
    }

    #[test]
    fn iid_partition_has_low_skew(clients in 5usize..30, seed in any::<u64>()) {
        let parts = iid_partition(clients, 10, 500, seed);
        prop_assert!(partition_skew(&parts) < 0.1);
    }

    #[test]
    fn local_state_index_bijection(cpu in 0.0f64..=1.0, mem in 0.0f64..=1.0, net in 0.0f64..=1.0) {
        let s = LocalState::from_fractions(cpu, mem, net);
        prop_assert!(s.index() < LocalState::COUNT);
    }

    #[test]
    fn deadline_levels_are_monotone(a in 0.0f64..2.0, b in 0.0f64..2.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(DeadlineLevel::from_overrun(lo) <= DeadlineLevel::from_overrun(hi));
    }

    #[test]
    fn qtable_moving_average_is_bounded(rewards in prop::collection::vec(0.0f64..=1.0, 1..100),
                                        lr in 0.01f64..=1.0) {
        let mut t = QTable::new(2);
        let key = QKey {
            global: GlobalState::from_raw(20, 5, 30),
            local: LocalState::from_fractions(0.5, 0.5, 0.5),
            hf: None,
        };
        for &r in &rewards {
            t.update(key, 0, r, r, lr);
        }
        let e = t.row(&key).expect("row")[0];
        prop_assert!(e.q_participation >= -1e-9 && e.q_participation <= 1.0 + 1e-9);
        prop_assert!(e.q_accuracy >= -1e-9 && e.q_accuracy <= 1.0 + 1e-9);
    }

    #[test]
    fn qtable_json_roundtrip(visits in 1u64..30) {
        let mut t = QTable::new(4);
        let key = QKey {
            global: GlobalState::from_raw(8, 5, 10),
            local: LocalState::from_fractions(0.2, 0.8, 0.4),
            hf: Some(DeadlineLevel::Moderate),
        };
        for i in 0..visits {
            t.update(key, (i % 4) as usize, 0.7, 0.2, 0.5);
        }
        let back = QTable::from_json(&t.to_json()).expect("roundtrip");
        for (a, b) in back.row(&key).expect("row").iter().zip(t.row(&key).expect("row")) {
            prop_assert_eq!(a.visits, b.visits);
            prop_assert!((a.q_participation - b.q_participation).abs() < 1e-12);
            prop_assert!((a.q_accuracy - b.q_accuracy).abs() < 1e-12);
        }
    }

    #[test]
    fn adaptive_binner_bins_in_range(samples in prop::collection::vec(0.0f64..100.0, 10..500),
                                     bins in 1usize..10,
                                     query in -10.0f64..110.0) {
        let b = AdaptiveBinner::fit(&samples, bins);
        prop_assert!(b.bin(query) < b.bins());
    }
}

#[test]
fn action_aggressiveness_covers_catalogue() {
    use float::accel::ActionCatalogue;
    // Non-property companion: the paper catalogue spans mild-to-extreme.
    let cat = ActionCatalogue::paper();
    let aggs: Vec<f64> = cat.iter().map(AccelAction::aggressiveness).collect();
    assert!(aggs.iter().cloned().fold(f64::INFINITY, f64::min) <= 0.25);
    assert!(aggs.iter().cloned().fold(0.0, f64::max) >= 0.75);
}
