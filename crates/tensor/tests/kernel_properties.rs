//! Property tests for the widened GEMM micro-kernels and the fused
//! bias + ReLU pass.
//!
//! The GEMM contract under test: every dispatched tile shape (4×8, 8×8, 4×16)
//! produces results **bit-identical** to the pinned ascending summation
//! order, for shapes straddling each MR/NR tile boundary and the KC
//! depth-panel boundary. Widening a register tile only changes which
//! output elements share a register block — never the ascending reduction
//! order of any single element — so any diff is a bug.

use float_tensor::kernels::{bias_relu_forward, gemm_nn};
use proptest::prelude::*;

/// Deterministic pseudo-random buffer (golden-ratio hash, same family the
/// unit tests use) so failures reproduce from the shape alone.
fn pseudo(n: usize, salt: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(salt.wrapping_mul(0xD1B54A32D192ED03));
            ((h >> 40) as f32 / 8388608.0) - 1.0
        })
        .collect()
}

/// Dimension values that straddle every micro-kernel boundary: below / at /
/// above MR (4) and the widened rows (8), below / at / above NR (8) and the
/// widened columns (16), plus multi-tile sizes.
fn boundary_dim() -> impl Strategy<Value = usize> {
    const DIMS: [usize; 12] = [1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33];
    (0..DIMS.len()).prop_map(|i| DIMS[i])
}

/// Depth values straddling the KC = 256 panel boundary.
fn depth_dim() -> impl Strategy<Value = usize> {
    const DEPTHS: [usize; 9] = [1, 2, 7, 8, 64, 255, 256, 257, 300];
    (0..DEPTHS.len()).prop_map(|i| DEPTHS[i])
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// [`pseudo`] with roughly a quarter of the entries replaced by the values
/// a comparison against zero can get wrong: NaN, both zeros, both
/// infinities.
fn pseudo_with_specials(n: usize, salt: u64) -> Vec<f32> {
    const SPECIALS: [f32; 5] = [f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY];
    let mut v = pseudo(n, salt);
    for (i, x) in v.iter_mut().enumerate() {
        let h = (i as u64 ^ salt).wrapping_mul(0x9E3779B97F4A7C15) >> 32;
        if h.is_multiple_of(4) {
            *x = SPECIALS[(h / 4) as usize % SPECIALS.len()];
        }
    }
    v
}

proptest! {
    /// N·N through the shape dispatcher == the pinned summation order, bit
    /// for bit.
    #[test]
    fn widened_nn_is_bitwise_stable_across_boundaries(
        m in boundary_dim(),
        n in boundary_dim(),
        k in depth_dim(),
        salt in 0u64..1024,
    ) {
        let a = pseudo(m * k, salt);
        let b = pseudo(k * n, salt + 1);
        let mut got = vec![f32::NAN; m * n];
        gemm_nn(m, k, n, &a, &b, &mut got);
        // Reference: ascending-p accumulation per KC panel — the pinned
        // summation order, independent of the dispatched tile.
        let mut want = vec![0.0f32; m * n];
        for pc in (0..k).step_by(256) {
            let kc = 256.min(k - pc);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in pc..pc + kc {
                        acc += a[i * k + p] * b[p * n + j];
                    }
                    want[i * n + j] += acc;
                }
            }
        }
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// The fused pass == bias-add, then clamp, then compare, bit for bit —
    /// with one mask buffer carried through calls whose shapes shrink and
    /// grow (a layer's mask lives as long as its model), so neither a stale
    /// tail nor a stale entry survives. A NaN or `-0.0` pre-activation
    /// yields `+0.0` and `false`.
    #[test]
    fn bias_relu_forward_matches_two_passes_with_a_reused_mask(
        calls in prop::collection::vec((0usize..6, 1usize..40, 0u64..1024), 1..6),
    ) {
        let mut mask = Vec::new();
        for (rows, cols, salt) in calls {
            let mut y = pseudo_with_specials(rows * cols, salt);
            let bias = pseudo_with_specials(cols, salt + 1);
            let mut z = y.clone();
            for row in z.chunks_exact_mut(cols) {
                for (v, &b) in row.iter_mut().zip(&bias) {
                    *v += b;
                }
            }
            let want: Vec<f32> = z.iter().map(|&z| if z > 0.0 { z } else { 0.0 }).collect();
            let want_mask: Vec<bool> = z.iter().map(|&z| z > 0.0).collect();
            bias_relu_forward(&mut y, rows, cols, &bias, &mut mask);
            prop_assert_eq!(bits(&y), bits(&want));
            prop_assert_eq!(&mask, &want_mask);
        }
    }
}
