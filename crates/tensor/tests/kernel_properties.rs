//! Property tests for the widened GEMM micro-kernels and the training
//! step's elementwise passes.
//!
//! The GEMM contract under test: every dispatched tile shape (4×8, 4×16)
//! produces results **bit-identical** to the pinned ascending summation
//! order, for shapes straddling each MR/NR tile boundary and the KC
//! depth-panel boundary. Widening a register tile only changes which
//! output elements share a register block — never the ascending reduction
//! order of any single element — so any diff is a bug.
//!
//! The elementwise contract: on a 512-bit build the step's elementwise
//! loops run 16 lanes at a time with masked or scalar tails, and each
//! must still equal a one-element-at-a-time reference at every width
//! across those boundaries.

use std::hint::black_box;

use float_tensor::kernels::{bias_relu_forward, bias_relu_inference, gemm_nn, relu_mask_backward};
use float_tensor::loss::softmax_cross_entropy_into;
use float_tensor::Tensor;
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
/// above MR (4) and twice it, below / at / above NR (8) and the widened
/// columns (16), plus multi-tile sizes.
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

/// Every `(rows, cols)` the elementwise tests visit: widths 1..=70 cross
/// the 8- and 16-lane main loops and their tails four times over.
fn elementwise_shapes() -> impl Iterator<Item = (usize, usize)> {
    (1..=5).flat_map(|rows| (1..=70).map(move |cols| (rows, cols)))
}

/// Bit-equal, except that any NaN matches any NaN: where two NaNs meet
/// (`Inf - Inf` against a NaN input) the surviving payload depends on
/// operand order, which IEEE leaves open and the compiler may commute.
fn assert_same_floats(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: element {i} is {g:?} ({:#010x}), want {w:?} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

fn tensor(rows: usize, cols: usize, data: Vec<f32>) -> Tensor {
    Tensor::from_vec(rows, cols, data).expect("sized by construction")
}

#[test]
fn relu_mask_backward_matches_one_element_at_a_time() {
    for (rows, cols) in elementwise_shapes() {
        let salt = (rows * 100 + cols) as u64;
        let g = pseudo_with_specials(rows * cols, salt);
        let mask: Vec<bool> = pseudo(rows * cols, salt + 1)
            .iter()
            .map(|&v| v > 0.0)
            .collect();
        let want: Vec<f32> = (0..g.len())
            .map(|i| {
                if black_box(mask[i]) {
                    black_box(g[i])
                } else {
                    0.0
                }
            })
            .collect();
        let mut got = g;
        relu_mask_backward(&mut got, &mask);
        assert_same_floats(&got, &want, &format!("relu_mask_backward {rows}x{cols}"));
    }
}

#[test]
fn sum_rows_into_matches_one_element_at_a_time() {
    let mut out = Tensor::default();
    for (rows, cols) in elementwise_shapes() {
        let x = pseudo_with_specials(rows * cols, (rows * 100 + cols) as u64);
        let mut want = vec![0.0f32; cols];
        for r in 0..rows {
            for (c, acc) in want.iter_mut().enumerate() {
                *acc = black_box(*acc + x[r * cols + c]);
            }
        }
        // `out` carries the previous shape's sums in: nothing may survive.
        tensor(rows, cols, x).sum_rows_into(&mut out);
        assert_eq!((out.rows(), out.cols()), (1, cols));
        assert_same_floats(out.data(), &want, &format!("sum_rows_into {rows}x{cols}"));
    }
}

#[test]
fn add_row_broadcast_matches_one_element_at_a_time() {
    for (rows, cols) in elementwise_shapes() {
        let salt = (rows * 100 + cols) as u64;
        let x = pseudo_with_specials(rows * cols, salt);
        let bias = pseudo_with_specials(cols, salt + 1);
        let want: Vec<f32> = (0..x.len())
            .map(|i| black_box(x[i] + bias[i % cols]))
            .collect();
        let mut got = tensor(rows, cols, x);
        got.add_row_broadcast(&tensor(1, cols, bias))
            .expect("bias is [1, cols]");
        assert_same_floats(
            got.data(),
            &want,
            &format!("add_row_broadcast {rows}x{cols}"),
        );
    }
}

#[test]
fn bias_relu_inference_matches_one_element_at_a_time() {
    for (rows, cols) in elementwise_shapes() {
        let salt = (rows * 100 + cols) as u64;
        let mut y = pseudo_with_specials(rows * cols, salt);
        let bias = pseudo_with_specials(cols, salt + 1);
        let want: Vec<f32> = (0..y.len())
            .map(|i| {
                let z = black_box(y[i] + bias[i % cols]);
                if z > 0.0 {
                    z
                } else {
                    0.0
                }
            })
            .collect();
        bias_relu_inference(&mut y, rows, cols, &bias);
        assert_same_floats(&y, &want, &format!("bias_relu_inference {rows}x{cols}"));
    }
}

/// The loss and the logit gradient, one element at a time: the max as a
/// left fold of `f32::max`, the exponentials summed in ascending order,
/// each row's loss term accumulated in `f64`.
fn softmax_cross_entropy_reference(
    logits: &[f32],
    cols: usize,
    labels: &[usize],
) -> (f32, Vec<f32>) {
    let n = labels.len();
    let mut grad = vec![0.0f32; logits.len()];
    let mut total = 0.0f64;
    for (i, &y) in labels.iter().enumerate() {
        let row = &logits[i * cols..(i + 1) * cols];
        let mut max = f32::NEG_INFINITY;
        for &v in row {
            max = black_box(max.max(v));
        }
        let mut denom = 0.0f32;
        for (j, &v) in row.iter().enumerate() {
            let e = black_box((v - max).exp());
            grad[i * cols + j] = e;
            denom = black_box(denom + e);
        }
        total += f64::from(denom.ln() - (row[y] - max));
        for j in 0..cols {
            let p = black_box(grad[i * cols + j] / denom);
            let onehot = if j == y { 1.0 } else { 0.0 };
            grad[i * cols + j] = black_box((p - onehot) / n as f32);
        }
    }
    (total as f32 / n as f32, grad)
}

#[test]
fn softmax_cross_entropy_matches_one_element_at_a_time() {
    let mut grad = Tensor::default();
    for (rows, cols) in elementwise_shapes() {
        let salt = (rows * 100 + cols) as u64;
        // Logits with specials, scaled up so some rows saturate `exp`.
        let logits: Vec<f32> = pseudo_with_specials(rows * cols, salt)
            .iter()
            .map(|v| v * 40.0)
            .collect();
        let labels: Vec<usize> = (0..rows).map(|r| (r * 7 + cols) % cols).collect();
        let (want_loss, want_grad) = softmax_cross_entropy_reference(&logits, cols, &labels);
        // `grad` is reused across shapes, as the step's scratch is.
        let loss = softmax_cross_entropy_into(&tensor(rows, cols, logits), &labels, &mut grad)
            .expect("labels in range");
        let what = format!("softmax_cross_entropy {rows}x{cols}");
        assert_same_floats(&[loss], &[want_loss], &format!("{what} loss"));
        assert_same_floats(grad.data(), &want_grad, &format!("{what} grad"));
    }
}
