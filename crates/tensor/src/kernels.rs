//! Cache-blocked, register-tiled compute kernels for the training hot path.
//!
//! The FL experiments spend nearly all wall-clock inside the three GEMM
//! variants (`matmul`, `t_matmul`, `matmul_t`). This module is the single
//! place that work happens: a packed-panel GEMM with register
//! micro-kernels widened per call shape, plus the fused elementwise passes
//! (bias+ReLU forward, ReLU-mask backward) the layers use.
//!
//! # Design
//!
//! - **Blocking.** The driver tiles `C[m×n] = Σ_p A'[m×k]·B'[k×n]` with
//!   the classic three-loop structure: `NC`-wide column panels of `B`,
//!   `KC`-deep depth panels, `MC`-tall row panels of `A`. Each panel is
//!   packed into a contiguous, tile-major scratch buffer so the micro-kernel
//!   streams with unit stride regardless of the logical layout — one
//!   packing routine (`pack_panel`) serves both operands of the `N·N`,
//!   `T·N`, and `N·T` variants from their row/column strides, copying
//!   whole register-tile groups where the operand is unit-stride along
//!   the tile and walking contiguous runs where it is unit-stride along
//!   the depth (every view of a row-major matrix is one or the other).
//! - **Micro-kernels.** `MR×NR` accumulator blocks updated over the packed
//!   depth dimension, monomorphized over the tile shape (`4×16`, `4×8`)
//!   and selected once per GEMM call as a pure function of the output
//!   width — see `select_tile`. All loop bounds are compile-time
//!   constants over fixed-size arrays and `chunks_exact` slices, so LLVM
//!   fully unrolls and autovectorizes the inner loop; there is no
//!   per-element branching. The tile rule assumes 512-bit registers: the
//!   workspace builds with `target-cpu=native` and `-prefer-256-bit`
//!   (`.cargo/config.toml`), which cargo applies only when it runs from
//!   the repository root. DESIGN.md §11 has the measurements.
//! - **Determinism.** For every output element the reduction over the
//!   depth dimension runs in ascending index order: ascending `p` inside a
//!   depth panel, panels visited in ascending order, partial sums committed
//!   to `C` per panel. The order is a pure function of the operand *shape* —
//!   never of thread count, data values, or tile width — so results are
//!   bit-identical run-to-run, across the round engine's worker-pool
//!   sizes, and across every micro-kernel variant: widening
//!   `MR×NR` only changes *which* output elements a register block covers,
//!   not the order any single element's dot product accumulates in
//!   (zero-padded edge lanes feed accumulator slots that are never
//!   committed). For `k ≤ KC` (every shape on the MLP hot path) the
//!   reduction degenerates to a single ascending pass, which is
//!   bit-identical to the pre-kernel naive loops on finite inputs.
//! - **Allocation.** Every call packs its operands into two thread-local
//!   buffers (`gemm_blocked` is the only place a packed operand comes
//!   from). They are grown once, and a packer overwrites every slot it is
//!   handed (pad lanes included), so nothing is cleared between calls;
//!   steady-state calls perform zero heap allocation. The `*_into` entry
//!   points on [`crate::Tensor`] write into caller-owned scratch.
//!
//! Inputs containing NaN/Inf propagate through (IEEE semantics); nothing
//! here filters non-finite values, so poisoned updates stay poisoned until
//! the server-side quarantine sees them.

use std::cell::RefCell;

/// Row-panel height of packed `A` blocks.
const MC: usize = 64;
/// Depth of packed panels; reductions with `k ≤ KC` are single-pass.
const KC: usize = 256;
/// Column-panel width of packed `B` blocks.
const NC: usize = 256;

thread_local! {
    static PACK_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// The register tile shapes the dispatcher can pick from, sized for the
/// workspace's 512-bit build (cargo run from the repository root).
/// `8×16` spills and `4×32` gains nothing on the step, so both were
/// rejected; an `8×8` tile was dropped once `4×16` beat it on 10-column
/// outputs. DESIGN.md §11 has the measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tile {
    T4x8,
    T4x16,
}

/// Choose the micro-kernel once per GEMM call. A pure function of the
/// *output* width `n` only — never of `m`, `k` or data values — so the
/// packing layout is reproducible from the call shape alone.
///
/// Any output more than 8 columns wide takes the `4×16` tile: one
/// packed-`B` group feeds 16 lanes, four rows of accumulators stay in
/// registers, and a row count that is not a multiple of 8 (the batch-20
/// training step) pads at most three rows. A 10-column output pads to 16
/// and still runs faster than on 8-column tiles, because one 16-lane
/// register per row does the work of two 8-lane ones. That holds only
/// with 512-bit registers, so only for cargo run from the repository
/// root on an AVX-512 host (DESIGN.md §11). Outputs up to 8 columns wide
/// take the `4×8` reference tile.
fn select_tile(n: usize) -> Tile {
    if n > 8 {
        Tile::T4x16
    } else {
        Tile::T4x8
    }
}

/// `C[m×n] = A[m×k] · B[k×n]`, all row-major. Overwrites `out`.
///
/// # Panics
///
/// Panics (debug and release) if a slice is shorter than its shape implies.
pub fn gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    gemm_strided(m, k, n, a, k, 1, b, n, 1, out);
}

/// `C[m×n] = Aᵀ · B` where `A` is stored row-major `[k×m]` (so the logical
/// left operand is its transpose) and `B` is `[k×n]`. Overwrites `out`.
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    gemm_strided(m, k, n, a, 1, m, b, n, 1, out);
}

/// `C[m×n] = A · Bᵀ` where `A` is `[m×k]` and `B` is stored row-major
/// `[n×k]`. Overwrites `out`.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    gemm_strided(m, k, n, a, k, 1, b, 1, k, out);
}

/// Strided GEMM driver: `C[i][j] = Σ_p A'[i][p] · B'[p][j]` where
/// `A'[i][p] = a[i*a_rs + p*a_cs]` and `B'[p][j] = b[p*b_rs + j*b_cs]`.
/// `out` is row-major `[m×n]` and is overwritten.
#[allow(clippy::too_many_arguments)]
fn gemm_strided(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    b: &[f32],
    b_rs: usize,
    b_cs: usize,
    out: &mut [f32],
) {
    // The driver is monomorphized per tile shape.
    match select_tile(n) {
        Tile::T4x8 => gemm_blocked::<4, 8>(m, k, n, a, a_rs, a_cs, b, b_rs, b_cs, out),
        Tile::T4x16 => gemm_blocked::<4, 16>(m, k, n, a, a_rs, a_cs, b, b_rs, b_cs, out),
    }
}

/// Blocked GEMM over one monomorphized `R×C` tile shape: each `B'` panel
/// is packed once per `(jc, pc)` and each `A'` panel once per
/// `(jc, pc, ic)`, into the thread-local packing buffers.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked<const R: usize, const C: usize>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    b: &[f32],
    b_rs: usize,
    b_cs: usize,
    out: &mut [f32],
) {
    assert!(out.len() >= m * n, "output buffer too small for {m}x{n}");
    out[..m * n].fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    PACK_A.with(|pa| {
        PACK_B.with(|pb| {
            let pa = &mut *pa.borrow_mut();
            let pb = &mut *pb.borrow_mut();
            for jc in (0..n).step_by(NC) {
                let nc = NC.min(n - jc);
                for pc in (0..k).step_by(KC) {
                    let kc = KC.min(k - pc);
                    let bp = grown(pb, nc.div_ceil(C) * kc * C);
                    pack_b_panel::<C>(bp, b, b_rs, b_cs, pc, kc, jc, nc);
                    for ic in (0..m).step_by(MC) {
                        let mc = MC.min(m - ic);
                        let ap = grown(pa, mc.div_ceil(R) * kc * R);
                        pack_a_panel::<R>(ap, a, a_rs, a_cs, ic, mc, pc, kc);
                        macro_kernel::<R, C>(ap, bp, mc, kc, nc, out, ic, jc, n);
                    }
                }
            }
        })
    });
}

/// The first `len` slots of a thread-local packing buffer, growing it if
/// needed. The panel packers overwrite every slot they are handed, so the
/// stale contents never reach a micro-kernel.
fn grown(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Pack one tile-major panel: `dst` holds `lanes.div_ceil(W)` tiles, tile
/// `t` being `depth` groups of `W` adjacent values, group `p` slot `w`
/// receiving `src[origin + (t*W + w)*lane_stride + p*depth_stride]`. Slots
/// past `lanes` in the last tile are zeroed so the micro-kernel never
/// branches on the edge. Every slot of `dst` is written.
///
/// Both operands pack through here — `A'` with its rows as lanes, `B'`
/// with its columns — and the packed bytes are the same whichever of the
/// three walks below produces them. Full tiles of a unit-stride operand
/// take a fast walk:
///
/// - `lane_stride == 1`: a group is `W` adjacent source values, copied as
///   one `[f32; W]` (const-sized, so it compiles to vector moves rather
///   than a `memcpy` call per group);
/// - `depth_stride == 1`: each lane is one contiguous source run; the `W`
///   runs are sliced (and bounds-checked) once per tile and then walked
///   front to back together, so the transposing inner loop is `W` fixed
///   streams with no index arithmetic or checks left in it.
///
/// Everything else — doubly strided operands and the ragged last tile —
/// takes the plain strided gather.
fn pack_panel<const W: usize>(
    dst: &mut [f32],
    src: &[f32],
    origin: usize,
    lane_stride: usize,
    depth_stride: usize,
    lanes: usize,
    depth: usize,
) {
    debug_assert_eq!(dst.len(), lanes.div_ceil(W) * depth * W);
    if depth == 0 {
        return;
    }
    for (t, tile) in dst.chunks_exact_mut(depth * W).enumerate() {
        let base = origin + t * W * lane_stride;
        let live = W.min(lanes - t * W);
        if live == W && lane_stride == 1 {
            for (p, group) in tile.chunks_exact_mut(W).enumerate() {
                let at = base + p * depth_stride;
                group.copy_from_slice(&src[at..at + W]);
            }
        } else if live == W && depth_stride == 1 {
            let runs: [&[f32]; W] = std::array::from_fn(|w| {
                let at = base + w * lane_stride;
                &src[at..at + depth]
            });
            for (p, group) in tile.chunks_exact_mut(W).enumerate() {
                for (slot, run) in group.iter_mut().zip(&runs) {
                    *slot = run[p];
                }
            }
        } else {
            for (p, group) in tile.chunks_exact_mut(W).enumerate() {
                for (w, slot) in group.iter_mut().enumerate() {
                    *slot = if w < live {
                        src[base + w * lane_stride + p * depth_stride]
                    } else {
                        0.0
                    };
                }
            }
        }
    }
}

/// Pack the `mc×kc` panel of `A'` at rows `ic..`, depth `pc..` into `dst`
/// (`mc.div_ceil(R) * kc * R` slots): tile `t` holds rows `[t*R, t*R+R)`
/// as `kc` groups of `R` adjacent values, zero-padded past `mc`.
#[allow(clippy::too_many_arguments)]
fn pack_a_panel<const R: usize>(
    dst: &mut [f32],
    a: &[f32],
    rs: usize,
    cs: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
) {
    pack_panel::<R>(dst, a, ic * rs + pc * cs, rs, cs, mc, kc);
}

/// Pack the `kc×nc` panel of `B'` at depth `pc..`, columns `jc..` into
/// `dst` (`nc.div_ceil(C) * kc * C` slots): tile `u` holds columns
/// `[u*C, u*C+C)` as `kc` groups of `C` adjacent values, zero-padded past
/// `nc`.
#[allow(clippy::too_many_arguments)]
fn pack_b_panel<const C: usize>(
    dst: &mut [f32],
    b: &[f32],
    rs: usize,
    cs: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
) {
    pack_panel::<C>(dst, b, pc * rs + jc * cs, cs, rs, nc, kc);
}

/// Multiply one packed `A` panel by one packed `B` panel, committing each
/// micro-tile's partial sum into `out` (`+=`, `out` pre-zeroed by the
/// driver on the first depth panel). Column tiles are the outer loop: a
/// `B` tile (`kc × C`) then stays in L1 while the `A` panel — at most
/// `MC` rows, a quarter of a full `B` panel — streams past it, instead of
/// the whole `B` panel streaming past every `R` rows of `A`. The
/// micro-tiles are independent, so the visiting order changes no bit.
#[allow(clippy::too_many_arguments)]
fn macro_kernel<const R: usize, const C: usize>(
    pa: &[f32],
    pb: &[f32],
    mc: usize,
    kc: usize,
    nc: usize,
    out: &mut [f32],
    ic: usize,
    jc: usize,
    ldc: usize,
) {
    let row_tiles = mc.div_ceil(R);
    let col_tiles = nc.div_ceil(C);
    for u in 0..col_tiles {
        let bp = &pb[u * kc * C..(u + 1) * kc * C];
        let cols = C.min(nc - u * C);
        for t in 0..row_tiles {
            let ap = &pa[t * kc * R..(t + 1) * kc * R];
            let rows = R.min(mc - t * R);
            let acc = micro_kernel::<R, C>(ap, bp);
            for (r, acc_row) in acc.iter().enumerate().take(rows) {
                let row0 = (ic + t * R + r) * ldc + jc + u * C;
                let crow = &mut out[row0..row0 + cols];
                for (dst, v) in crow.iter_mut().zip(acc_row) {
                    *dst += v;
                }
            }
        }
    }
}

/// The `R×C` register block: `acc[r][c] += ap[p][r] * bp[p][c]` over the
/// packed depth dimension, in ascending `p`. Fixed-size arrays and
/// `chunks_exact` give LLVM exact trip counts, so the two inner loops
/// unroll into straight-line vector code with no bounds checks. Each
/// accumulator lane is an independent dot product, so the tile shape
/// never changes any output element's summation order.
#[inline]
fn micro_kernel<const R: usize, const C: usize>(ap: &[f32], bp: &[f32]) -> [[f32; C]; R] {
    let mut acc = [[0.0f32; C]; R];
    for (av, bv) in ap.chunks_exact(R).zip(bp.chunks_exact(C)) {
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let a = av[r];
            for (c, slot) in acc_row.iter_mut().enumerate() {
                *slot += a * bv[c];
            }
        }
    }
    acc
}

/// Fused bias-add + ReLU forward over a row-major `[rows×cols]` activation
/// buffer: `y = max(y + bias, 0)` in one pass, recording the post-bias
/// positive mask for the backward pass. `mask` is resized to `rows * cols`
/// and every entry overwritten.
///
/// # Panics
///
/// Panics if `bias.len() != cols` or `y.len() != rows * cols`.
pub fn bias_relu_forward(
    y: &mut [f32],
    rows: usize,
    cols: usize,
    bias: &[f32],
    mask: &mut Vec<bool>,
) {
    assert_eq!(bias.len(), cols, "bias width mismatch");
    assert_eq!(y.len(), rows * cols, "activation buffer shape mismatch");
    // Sized once and written through a slice: `push` checks capacity per
    // element, which keeps the whole loop scalar.
    mask.resize(rows * cols, false);
    for (row, mask_row) in y.chunks_exact_mut(cols).zip(mask.chunks_exact_mut(cols)) {
        for ((v, m), &b) in row.iter_mut().zip(mask_row).zip(bias) {
            let z = *v + b;
            *m = z > 0.0;
            *v = if z > 0.0 { z } else { 0.0 };
        }
    }
}

/// Inference-only fused bias-add + ReLU (no mask recording).
///
/// # Panics
///
/// Panics if `bias.len() != cols` or `y.len() != rows * cols`.
pub fn bias_relu_inference(y: &mut [f32], rows: usize, cols: usize, bias: &[f32]) {
    assert_eq!(bias.len(), cols, "bias width mismatch");
    assert_eq!(y.len(), rows * cols, "activation buffer shape mismatch");
    for row in y.chunks_exact_mut(cols) {
        for (v, &b) in row.iter_mut().zip(bias) {
            let z = *v + b;
            *v = if z > 0.0 { z } else { 0.0 };
        }
    }
}

/// Fused ReLU-mask backward: zero `g[i]` wherever the forward activation
/// was non-positive, in place.
///
/// # Panics
///
/// Panics if `g.len() != mask.len()`.
pub fn relu_mask_backward(g: &mut [f32], mask: &[bool]) {
    assert_eq!(g.len(), mask.len(), "gradient/mask length mismatch");
    for (v, &keep) in g.iter_mut().zip(mask) {
        if !keep {
            *v = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive reference in the pinned summation order: a plain triple loop,
    /// ascending `p` inside each `KC`-deep panel, one commit per panel —
    /// for `k ≤ KC` a single ascending pass.
    fn reference(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for pc in (0..k).step_by(KC) {
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in pc..k.min(pc + KC) {
                        acc += a[i * k + p] * b[p * n + j];
                    }
                    out[i * n + j] += acc;
                }
            }
        }
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The `[cols×rows]` row-major transpose of a `[rows×cols]` buffer.
    fn transposed(rows: usize, cols: usize, src: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = src[r * cols + c];
            }
        }
        out
    }

    /// The historical fixed-tile kernel: every wider variant must match it
    /// bit for bit, on every shape and stride pattern.
    #[allow(clippy::too_many_arguments)]
    fn gemm_4x8(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        a_rs: usize,
        a_cs: usize,
        b: &[f32],
        b_rs: usize,
        b_cs: usize,
        out: &mut [f32],
    ) {
        gemm_blocked::<4, 8>(m, k, n, a, a_rs, a_cs, b, b_rs, b_cs, out);
    }

    fn pseudo(n: usize, salt: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(salt);
                ((h >> 40) as f32 / 8388608.0) - 1.0
            })
            .collect()
    }

    #[test]
    fn gemm_nn_matches_reference_over_shapes() {
        // Shapes straddle every tile boundary: below, at, and above MR/NR,
        // and above KC to exercise multi-panel depth reduction.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 17),
            (16, 24, 128),
            (16, 128, 10),
            (65, 300, 70),
        ] {
            let a = pseudo(m * k, 1);
            let b = pseudo(k * n, 2);
            let mut out = vec![f32::NAN; m * n];
            gemm_nn(m, k, n, &a, &b, &mut out);
            let want = reference(m, k, n, &a, &b);
            for (i, (&got, &w)) in out.iter().zip(&want).enumerate() {
                assert!(
                    (got - w).abs() <= 1e-4 * w.abs().max(1.0),
                    "({m},{k},{n}) elem {i}: {got} vs {w}"
                );
            }
        }
    }

    #[test]
    fn gemm_nn_single_panel_is_bitwise_ascending_order() {
        // For k ≤ KC the kernel must reproduce the naive ascending-p sum
        // bit for bit — this is what keeps pinned experiment seeds valid.
        let (m, k, n) = (7, 129, 33);
        let a = pseudo(m * k, 3);
        let b = pseudo(k * n, 4);
        let mut out = vec![0.0f32; m * n];
        gemm_nn(m, k, n, &a, &b, &mut out);
        assert_eq!(out, reference(m, k, n, &a, &b));
    }

    #[test]
    fn widened_tiles_match_4x8_bitwise_across_tile_boundaries() {
        // Every dispatchable shape class, with m and n straddling each
        // MR/NR boundary (below / at / above 4, 8, 16) and k crossing the
        // KC panel boundary: the dispatched kernel must equal the 4×8
        // reference bit for bit, because widening a register tile never
        // reorders any single element's reduction.
        for &m in &[1, 3, 4, 5, 7, 8, 9, 16, 17, 65] {
            for &n in &[1, 7, 8, 9, 15, 16, 17, 33] {
                for &k in &[1, 4, 129, 257] {
                    let a = pseudo(m * k, (m * 31 + n) as u64);
                    let b = pseudo(k * n, (n * 17 + k) as u64);
                    let mut got = vec![f32::NAN; m * n];
                    gemm_nn(m, k, n, &a, &b, &mut got);
                    let mut want = vec![f32::NAN; m * n];
                    gemm_4x8(m, k, n, &a, k, 1, &b, n, 1, &mut want);
                    let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                    let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(gb, wb, "({m},{k},{n}) diverged from the 4x8 tile");
                }
            }
        }
    }

    #[test]
    fn transposed_variants_match_4x8_bitwise() {
        // The strided views (T·N reads A column-major, N·T reads B
        // row-transposed) under every tile the dispatcher can pick.
        for &(m, k, n) in &[(9, 14, 11), (17, 40, 19), (8, 300, 16), (33, 12, 65)] {
            let a_tn = pseudo(k * m, 5);
            let b = pseudo(k * n, 6);
            let mut got = vec![0.0f32; m * n];
            gemm_tn(m, k, n, &a_tn, &b, &mut got);
            let mut want = vec![0.0f32; m * n];
            gemm_4x8(m, k, n, &a_tn, 1, m, &b, n, 1, &mut want);
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "tn ({m},{k},{n})"
            );
            let a = pseudo(m * k, 7);
            let b_nt = pseudo(n * k, 8);
            let mut got = vec![0.0f32; m * n];
            gemm_nt(m, k, n, &a, &b_nt, &mut got);
            let mut want = vec![0.0f32; m * n];
            gemm_4x8(m, k, n, &a, k, 1, &b_nt, 1, k, &mut want);
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "nt ({m},{k},{n})"
            );
        }
    }

    /// The strided gather every packing walk must reproduce: slot
    /// `(t, p, w)` of a `W`-wide panel is element `(first + t*W + w, p0 + p)`
    /// of the operand view with the lane index on `lane_stride`, or zero
    /// past `lanes`.
    fn gathered_panel(
        src: &[f32],
        width: usize,
        (origin, lane_stride, depth_stride): (usize, usize, usize),
        lanes: usize,
        depth: usize,
    ) -> Vec<u32> {
        let mut want = Vec::new();
        for t in 0..lanes.div_ceil(width) {
            for p in 0..depth {
                for w in 0..width {
                    let lane = t * width + w;
                    want.push(if lane < lanes {
                        src[origin + lane * lane_stride + p * depth_stride].to_bits()
                    } else {
                        0
                    });
                }
            }
        }
        want
    }

    /// Pack the `lanes × depth` panel that starts `first` lanes and `p0`
    /// deep into `src`, as an `A'` panel (lanes are rows) and as a `B'`
    /// panel (lanes are columns), and hold both to the strided gather.
    /// `dst` starts as NaN: a slot a walk skipped (the buffers are reused,
    /// never cleared) cannot pass for a zero pad.
    fn check_walks<const W: usize>(
        src: &[f32],
        (first, p0): (usize, usize),
        (lane_stride, depth_stride): (usize, usize),
        lanes: usize,
        depth: usize,
    ) {
        let origin = first * lane_stride + p0 * depth_stride;
        let want = gathered_panel(src, W, (origin, lane_stride, depth_stride), lanes, depth);
        let what =
            format!("W={W} lanes={lanes} depth={depth} strides=({lane_stride},{depth_stride})");
        let mut got = vec![f32::NAN; want.len()];
        let (rs, cs) = (lane_stride, depth_stride);
        pack_a_panel::<W>(&mut got, src, rs, cs, first, lanes, p0, depth);
        assert_eq!(bits(&got), want, "A panel, {what}");
        got.fill(f32::NAN);
        let (rs, cs) = (depth_stride, lane_stride);
        pack_b_panel::<W>(&mut got, src, rs, cs, p0, depth, first, lanes);
        assert_eq!(bits(&got), want, "B panel, {what}");
    }

    #[test]
    fn packing_walks_match_the_strided_gather_bytewise() {
        // A panel cut out of the middle of a larger operand, so a walk
        // that ignored the origin or ran one stride off would read a
        // neighbour's values; lane counts below / at / above every tile
        // width, so each walk meets full tiles and a ragged last one.
        let origin = (3, 2);
        for &lanes in &[1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33] {
            for &depth in &[1, 2, 7, 20] {
                let (rows, cols) = (origin.0 + lanes + 1, origin.1 + depth + 1);
                let src = pseudo(2 * rows * cols, (lanes * 64 + depth) as u64);
                // Lane-major storage (`A` row-major, `B` stored `[n×k]`):
                // unit stride along the depth. Depth-major storage (`A`
                // stored `[k×m]`, `B` row-major): unit stride along the
                // tile. And a view with neither (every other row and
                // column of a twice-as-large operand).
                for strides in [(cols, 1), (1, rows), (2 * cols, 2)] {
                    check_walks::<4>(&src, origin, strides, lanes, depth);
                    check_walks::<8>(&src, origin, strides, lanes, depth);
                    check_walks::<16>(&src, origin, strides, lanes, depth);
                }
            }
        }
    }

    #[test]
    fn operands_crossing_mc_kc_nc_match_reference_bitwise() {
        // A shape crossing MC / KC / NC, so each operand is several panels
        // packed in turn into the same buffer. A small shape in between
        // packs into buffers the large one filled (they are never
        // cleared): nothing of the previous occupant may survive.
        for (i, &(m, k, n)) in [(70, 300, 270), (5, 7, 9), (70, 300, 270)]
            .iter()
            .enumerate()
        {
            let a = pseudo(m * k, 200 + i as u64);
            let b = pseudo(k * n, 300 + i as u64);
            let want = bits(&reference(m, k, n, &a, &b));
            let mut got = vec![f32::NAN; m * n];
            gemm_nn(m, k, n, &a, &b, &mut got);
            assert_eq!(bits(&got), want, "nn ({m},{k},{n})");
            got.fill(f32::NAN);
            gemm_tn(m, k, n, &transposed(m, k, &a), &b, &mut got);
            assert_eq!(bits(&got), want, "tn ({m},{k},{n})");
            got.fill(f32::NAN);
            gemm_nt(m, k, n, &a, &transposed(k, n, &b), &mut got);
            assert_eq!(bits(&got), want, "nt ({m},{k},{n})");
        }
    }

    #[test]
    fn gemm_tn_matches_transposed_reference() {
        let (m, k, n) = (13, 6, 21); // A stored [k×m]
        let a = pseudo(k * m, 5);
        let b = pseudo(k * n, 6);
        let at = transposed(k, m, &a);
        let mut out = vec![0.0f32; m * n];
        gemm_tn(m, k, n, &a, &b, &mut out);
        assert_eq!(out, reference(m, k, n, &at, &b));
    }

    #[test]
    fn gemm_nt_matches_transposed_reference() {
        let (m, k, n) = (9, 14, 11); // B stored [n×k]
        let a = pseudo(m * k, 7);
        let b = pseudo(n * k, 8);
        let bt = transposed(n, k, &b);
        let mut out = vec![0.0f32; m * n];
        gemm_nt(m, k, n, &a, &b, &mut out);
        assert_eq!(out, reference(m, k, n, &a, &bt));
    }

    #[test]
    fn zero_k_zeroes_output() {
        let mut out = vec![3.0f32; 4];
        gemm_nn(2, 0, 2, &[], &[], &mut out);
        assert_eq!(out, vec![0.0; 4]);
    }

    #[test]
    fn nan_propagates_through_gemm() {
        // The old zero-skip silently dropped `0 * NaN`; the kernel must
        // keep IEEE semantics so poisoned payloads reach quarantine.
        let a = [0.0f32, 0.0];
        let b = [f32::NAN, 1.0, 2.0, 3.0];
        let mut out = [0.0f32; 2];
        gemm_nn(1, 2, 2, &a, &b, &mut out);
        assert!(out[0].is_nan(), "0·NaN must stay NaN");
    }

    #[test]
    fn bias_relu_forward_matches_separate_passes() {
        let rows = 3;
        let cols = 5;
        let mut y = pseudo(rows * cols, 11);
        let bias = pseudo(cols, 12);
        let mut want = y.clone();
        for row in want.chunks_exact_mut(cols) {
            for (v, &b) in row.iter_mut().zip(&bias) {
                *v += b;
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
        }
        let mut mask = Vec::new();
        bias_relu_forward(&mut y, rows, cols, &bias, &mut mask);
        assert_eq!(y, want);
        for (v, &keep) in y.iter().zip(&mask) {
            assert_eq!(keep, *v > 0.0);
        }
    }

    #[test]
    fn relu_mask_backward_zeroes_dead_units() {
        let mut g = vec![1.0f32, 2.0, 3.0];
        relu_mask_backward(&mut g, &[true, false, true]);
        assert_eq!(g, vec![1.0, 0.0, 3.0]);
    }
}
