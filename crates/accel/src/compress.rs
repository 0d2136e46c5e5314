//! Update compression: a real byte-level lossless codec (RLE over a
//! byte-transposed layout) and lossy top-k sparsification.
//!
//! Lossless compression of raw fp32 gradients barely helps (mantissa bytes
//! are near-random); transposing into byte planes first groups the highly
//! redundant sign/exponent bytes so runs emerge. This mirrors how real
//! gradient codecs get their wins and gives the simulator an *honest*
//! compressed size rather than an assumed ratio — the paper notes lossless
//! compression "reduces communication bandwidth requirements but needs
//! more computation" (§4.3), which is exactly the trade-off produced here.

/// Compress a float buffer with run-length encoding over byte planes.
///
/// Layout: `[orig_bytes: u32]` followed by four planes, each
/// `[tag: u8][payload]` where tag 0 means raw bytes and tag 1 means RLE
/// `(count, byte)` pairs. Planes that RLE would inflate (the near-random
/// mantissa bytes of a gradient) fall back to raw, so compression never
/// more than marginally hurts — exactly how honest gradient codecs behave.
pub fn compress_f32_update(values: &[f32]) -> Vec<u8> {
    let n = values.len();
    let mut out = Vec::with_capacity(2 * n + 8);
    out.extend_from_slice(&((n * 4) as u32).to_le_bytes());
    // Plane bytes are read straight out of the bit patterns (little-endian
    // byte `plane` of value `i` is `bits >> (8 * plane)`), so no transposed
    // copy of the buffer is ever materialized — this codec runs per cohort
    // attempt on the round hot path.
    for plane in 0..4 {
        let shift = 8 * plane;
        let byte_at = |i: usize| (values[i].to_bits() >> shift) as u8;
        let tag_pos = out.len();
        out.push(1);
        let rle_start = out.len();
        let mut i = 0;
        while i < n {
            // RLE can no longer beat raw: abort instead of finishing the
            // encode just to throw it away (mantissa planes take this exit
            // about halfway through).
            if out.len() - rle_start >= n {
                break;
            }
            let b = byte_at(i);
            let mut run = 1usize;
            while i + run < n && run < 255 && byte_at(i + run) == b {
                run += 1;
            }
            out.push(run as u8);
            out.push(b);
            i += run;
        }
        if i < n || out.len() - rle_start >= n {
            // Raw fallback, same decision rule as encoding fully and
            // comparing sizes: RLE wins only when strictly smaller.
            out.truncate(tag_pos);
            out.push(0);
            out.extend((0..n).map(byte_at));
        }
    }
    out
}

/// Decompress a buffer produced by [`compress_f32_update`].
///
/// Returns `None` on malformed input.
pub fn decompress_f32_update(data: &[u8]) -> Option<Vec<f32>> {
    if data.len() < 4 {
        return None;
    }
    let total = u32::from_le_bytes([data[0], data[1], data[2], data[3]]) as usize;
    if !total.is_multiple_of(4) {
        return None;
    }
    let n = total / 4;
    let mut cursor = 4usize;
    let mut planes: Vec<Vec<u8>> = Vec::with_capacity(4);
    for _ in 0..4 {
        let tag = *data.get(cursor)?;
        cursor += 1;
        match tag {
            0 => {
                if cursor + n > data.len() {
                    return None;
                }
                planes.push(data[cursor..cursor + n].to_vec());
                cursor += n;
            }
            1 => {
                let (plane, used) = rle_decode(&data[cursor..], n)?;
                planes.push(plane);
                cursor += used;
            }
            _ => return None,
        }
    }
    let mut out = Vec::with_capacity(n);
    for (((&b0, &b1), &b2), &b3) in planes[0]
        .iter()
        .zip(&planes[1])
        .zip(&planes[2])
        .zip(&planes[3])
    {
        out.push(f32::from_le_bytes([b0, b1, b2, b3]));
    }
    Some(out)
}

/// Decode `expected` bytes of RLE data; returns `(bytes, consumed)`.
fn rle_decode(data: &[u8], expected: usize) -> Option<(Vec<u8>, usize)> {
    let mut out = Vec::with_capacity(expected);
    let mut i = 0;
    while out.len() < expected {
        if i + 1 >= data.len() {
            return None;
        }
        let run = data[i] as usize;
        if run == 0 {
            return None;
        }
        let b = data[i + 1];
        out.extend(std::iter::repeat_n(b, run));
        i += 2;
    }
    if out.len() != expected {
        return None;
    }
    Some((out, i))
}

/// A sparsified update: surviving coordinates and their values.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseUpdate {
    /// Indices of retained coordinates, ascending.
    pub indices: Vec<u32>,
    /// Values at those coordinates.
    pub values: Vec<f32>,
    /// Length of the dense vector this was taken from.
    pub dense_len: usize,
}

impl SparseUpdate {
    /// Reconstruct the dense vector (zeros elsewhere).
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dense_len];
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            if (i as usize) < self.dense_len {
                out[i as usize] = v;
            }
        }
        out
    }
}

/// Keep the `keep_fraction` largest-magnitude coordinates of `values`.
///
/// Magnitudes are ranked with [`f32::total_cmp`], so the comparator is a
/// genuine total order even on non-finite data (a `partial_cmp`-with-
/// `Equal`-fallback comparator is intransitive around NaN and makes the
/// std sort panic). Under `total_cmp`, NaN magnitudes rank above infinity
/// — a poisoned coordinate is always retained rather than silently
/// dropped, matching the runtime's quarantine path which needs to *see*
/// non-finite updates.
///
/// # Panics
///
/// Panics if `keep_fraction` is not in `(0, 1]`.
pub fn top_k_sparsify(values: &[f32], keep_fraction: f64) -> SparseUpdate {
    assert!(
        keep_fraction > 0.0 && keep_fraction <= 1.0,
        "keep_fraction must be in (0,1]"
    );
    let k = (((values.len() as f64) * keep_fraction).round() as usize)
        .max(1)
        .min(values.len());
    let mut order: Vec<usize> = (0..values.len()).collect();
    // Quickselect the k largest-magnitude indices (descending comparator),
    // then sort just those k by position: O(n + k log k), not O(n log n) —
    // this runs per cohort attempt on the round hot path. The index
    // tiebreak makes keys distinct, so the selected *set* is unique even
    // though the partition order is not.
    if k < order.len() {
        order.select_nth_unstable_by(k - 1, |&a, &b| {
            values[b].abs().total_cmp(&values[a].abs()).then(a.cmp(&b))
        });
    }
    order.truncate(k);
    let mut keep = order;
    keep.sort_unstable();
    SparseUpdate {
        indices: keep.iter().map(|&i| i as u32).collect(),
        values: keep.iter().map(|&i| values[i]).collect(),
        dense_len: values.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_roundtrip() {
        let vals: Vec<f32> = (0..300).map(|i| (i % 7) as f32 * 0.001 - 0.003).collect();
        let compressed = compress_f32_update(&vals);
        let back = decompress_f32_update(&compressed).expect("valid stream");
        assert_eq!(back, vals);
    }

    #[test]
    fn redundant_updates_compress() {
        // A sparse update — long zero runs in every byte plane.
        let vals: Vec<f32> = (0..4000)
            .map(|i| {
                if i % 50 == 0 {
                    0.01 + i as f32 * 1e-6
                } else {
                    0.0
                }
            })
            .collect();
        let compressed = compress_f32_update(&vals);
        assert!(
            compressed.len() < vals.len() * 4 / 2,
            "compressed {} of {} raw bytes",
            compressed.len(),
            vals.len() * 4
        );
    }

    #[test]
    fn incompressible_data_does_not_blow_up() {
        // Pseudo-random mantissas: raw fallback keeps overhead tiny.
        let vals: Vec<f32> = (0..2000)
            .map(|i| ((i * 2654435761u64 as usize) % 10_007) as f32 / 313.7 - 15.0)
            .collect();
        let compressed = compress_f32_update(&vals);
        assert!(
            compressed.len() <= vals.len() * 4 + 8,
            "compressed {} exceeds raw {} + header",
            compressed.len(),
            vals.len() * 4
        );
        assert_eq!(decompress_f32_update(&compressed), Some(vals));
    }

    #[test]
    fn empty_roundtrip() {
        let compressed = compress_f32_update(&[]);
        assert_eq!(decompress_f32_update(&compressed), Some(vec![]));
    }

    #[test]
    fn malformed_stream_is_none() {
        assert_eq!(decompress_f32_update(&[1, 2]), None);
        // Header promises bytes that never arrive.
        let bogus = [16u8, 0, 0, 0, 3, 7];
        assert_eq!(decompress_f32_update(&bogus), None);
    }

    #[test]
    fn top_k_keeps_largest() {
        let vals = [0.1f32, -9.0, 0.2, 5.0, -0.05];
        let s = top_k_sparsify(&vals, 0.4);
        assert_eq!(s.indices, vec![1, 3]);
        assert_eq!(s.values, vec![-9.0, 5.0]);
        let dense = s.to_dense();
        assert_eq!(dense, vec![0.0, -9.0, 0.0, 5.0, 0.0]);
    }

    #[test]
    fn top_k_wire_size_beats_dense_for_small_k() {
        let vals: Vec<f32> = (0..10_000).map(|i| i as f32).collect();
        let s = top_k_sparsify(&vals, 0.1);
        // 4 B index + 4 B value per kept coordinate, as `action_cost`
        // charges TopK10, against 4 B per dense coordinate.
        assert!(s.indices.len() * 8 < vals.len() * 4 / 2);
    }

    #[test]
    fn top_k_always_keeps_at_least_one() {
        let s = top_k_sparsify(&[0.5f32], 0.01);
        assert_eq!(s.indices.len(), 1);
    }

    #[test]
    #[should_panic(expected = "keep_fraction")]
    fn zero_keep_fraction_panics() {
        let _ = top_k_sparsify(&[1.0], 0.0);
    }

    #[test]
    fn top_k_ranks_nan_above_everything() {
        // NaN magnitudes must survive sparsification (and not panic the
        // sort) so the quarantine path downstream can observe them.
        let vals = [1.0f32, f32::NAN, f32::INFINITY, -2.0];
        let s = top_k_sparsify(&vals, 0.5);
        assert_eq!(s.indices, vec![1, 2]);
        assert!(s.values[0].is_nan());
        assert_eq!(s.values[1], f32::INFINITY);
    }
}
