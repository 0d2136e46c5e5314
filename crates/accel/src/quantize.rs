//! Uniform symmetric quantization of flat parameter / update buffers.

/// Largest absolute value in the buffer, or `None` if any element is
/// non-finite. `f32::max` silently ignores NaN, so a plain fold would let
/// a NaN slip through while an Inf would poison the scale — either way
/// the whole reconstructed buffer becomes garbage. Track finiteness
/// explicitly instead.
fn finite_max_abs(values: &[f32]) -> Option<f32> {
    let mut max_abs = 0.0f32;
    for &v in values {
        if !v.is_finite() {
            return None;
        }
        max_abs = max_abs.max(v.abs());
    }
    Some(max_abs)
}

/// Quantize `values` onto a symmetric uniform grid with `bits` bits and
/// immediately dequantize, returning the values the aggregator would
/// reconstruct. This is what actually happens to a quantized update: the
/// client rounds to the grid, ships integers + a scale, and the server
/// rebuilds floats.
///
/// All-zero and empty inputs pass through unchanged. So do buffers
/// containing any NaN or ±Inf: a non-finite element would make the grid
/// scale non-finite and corrupt every other value in the buffer, so the
/// input is returned untouched and the caller's payload validation (the
/// runtime's quarantine check) is left to reject it.
///
/// # Panics
///
/// Panics if `bits` is 0 or greater than 16 (8 and 16 are the paper's
/// levels; anything above 16 would be pointless for f32 payloads).
pub fn quantize_dequantize(values: &[f32], bits: u32) -> Vec<f32> {
    assert!((1..=16).contains(&bits), "bits must be in 1..=16");
    let Some(max_abs) = finite_max_abs(values) else {
        return values.to_vec();
    };
    if max_abs == 0.0 {
        return values.to_vec();
    }
    let levels = (1i64 << (bits - 1)) - 1; // symmetric signed grid
    let scale = max_abs / levels as f32;
    values
        .iter()
        .map(|&v| {
            let q = (v / scale).round().clamp(-(levels as f32), levels as f32);
            q * scale
        })
        .collect()
}

/// Worst-case quantization error bound for a buffer: half a grid step.
///
/// Non-finite buffers pass through [`quantize_dequantize`] unchanged, so
/// their bound is 0 — not the non-finite nonsense the naive `max_abs`
/// computation would yield.
pub fn quantization_error_bound(values: &[f32], bits: u32) -> f32 {
    let Some(max_abs) = finite_max_abs(values) else {
        return 0.0;
    };
    let levels = (1i64 << (bits - 1)) - 1;
    if levels == 0 {
        return max_abs;
    }
    max_abs / levels as f32 / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_error_is_bounded() {
        let vals: Vec<f32> = (0..256).map(|i| (i as f32 - 128.0) / 37.0).collect();
        for &bits in &[8u32, 16] {
            let deq = quantize_dequantize(&vals, bits);
            let bound = quantization_error_bound(&vals, bits);
            for (a, b) in vals.iter().zip(&deq) {
                assert!(
                    (a - b).abs() <= bound + 1e-6,
                    "{bits}-bit err {} > bound {bound}",
                    (a - b).abs()
                );
            }
        }
    }

    #[test]
    fn sixteen_bit_is_finer_than_eight_bit() {
        let vals: Vec<f32> = (0..512)
            .map(|i| ((i * 37) % 101) as f32 / 13.0 - 3.5)
            .collect();
        let err = |bits| -> f32 {
            quantize_dequantize(&vals, bits)
                .iter()
                .zip(&vals)
                .map(|(a, b)| (a - b).abs())
                .sum()
        };
        assert!(err(16) < err(8) / 10.0);
    }

    #[test]
    fn zeros_pass_through() {
        let vals = vec![0.0f32; 16];
        assert_eq!(quantize_dequantize(&vals, 8), vals);
    }

    #[test]
    fn empty_is_fine() {
        assert!(quantize_dequantize(&[], 8).is_empty());
    }

    #[test]
    fn max_magnitude_is_representable() {
        let vals = vec![-3.0f32, 1.0, 3.0];
        let deq = quantize_dequantize(&vals, 8);
        assert!((deq[2] - 3.0).abs() < 1e-6);
        assert!((deq[0] + 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "bits must be")]
    fn zero_bits_panics() {
        let _ = quantize_dequantize(&[1.0], 0);
    }

    #[test]
    fn nan_input_passes_through_unchanged() {
        // Regression: `f32::max` ignores NaN, so the old fold computed a
        // "valid" scale from the finite elements and silently rewrote the
        // NaN slots — and with an Inf present the scale itself went Inf
        // and zeroed every finite element. Both must pass through.
        let vals = vec![1.0f32, f32::NAN, -2.0, 0.5];
        let out = quantize_dequantize(&vals, 8);
        assert_eq!(out.len(), vals.len());
        assert!(out[1].is_nan());
        assert_eq!(out[0], 1.0);
        assert_eq!(out[2], -2.0);
        assert_eq!(out[3], 0.5);
        assert_eq!(quantization_error_bound(&vals, 8), 0.0);
    }

    #[test]
    fn inf_input_passes_through_unchanged() {
        for bad in [f32::INFINITY, f32::NEG_INFINITY] {
            let vals = vec![3.0f32, bad, -1.0];
            let out = quantize_dequantize(&vals, 16);
            assert_eq!(out[0], 3.0);
            assert_eq!(out[1], bad);
            assert_eq!(out[2], -1.0);
            assert_eq!(quantization_error_bound(&vals, 16), 0.0);
        }
    }
}
