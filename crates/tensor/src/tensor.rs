//! Row-major dense `f32` tensors with the handful of kernels the MLP
//! substrate needs: matmul, transpose-matmul variants, elementwise ops,
//! and reductions.
//!
//! The matrix products delegate to the blocked, register-tiled kernels in
//! [`crate::kernels`]. Training uses only the `*_into` products, which
//! write into caller-owned scratch so steady-state training performs no
//! heap allocation; the allocating [`Tensor::matmul`] and
//! [`Tensor::transpose`] serve inference and the reference checks.

use crate::{kernels, TensorError};

/// A row-major, 2-D dense `f32` tensor.
///
/// All model math in the reproduction is rank-2 (`[batch, features]` or
/// `[in, out]` weight matrices); bias vectors are represented as `[1, n]`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Create a tensor of zeros with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a tensor from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidData`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::InvalidData(format!(
                "buffer of length {} cannot fill a {}x{} tensor",
                data.len(),
                rows,
                cols
            )));
        }
        Ok(Tensor { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds (debug and release).
    pub fn at(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Set element (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, row: usize, col: usize, v: f32) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = v;
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshape in place to `rows × cols`, reusing the existing buffer.
    /// Contents after the call are unspecified; callers overwrite.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Matrix multiplication `self (m×k) · rhs (k×n) → m×n`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the inner dimensions
    /// disagree.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        let mut out = Tensor::default();
        self.matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// [`Tensor::matmul`] writing into caller scratch (resized as needed,
    /// allocation-free once `out` has capacity).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the inner dimensions
    /// disagree.
    pub fn matmul_into(&self, rhs: &Tensor, out: &mut Tensor) -> Result<(), TensorError> {
        if self.cols != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: vec![self.rows, self.cols],
                rhs: vec![rhs.rows, rhs.cols],
            });
        }
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        out.resize(m, n);
        kernels::gemm_nn(m, k, n, &self.data, &rhs.data, &mut out.data);
        Ok(())
    }

    /// `selfᵀ (k×m)ᵀ · rhs (m×n) → k×n` without materializing the
    /// transpose, written into caller scratch.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when row counts disagree.
    pub fn t_matmul_into(&self, rhs: &Tensor, out: &mut Tensor) -> Result<(), TensorError> {
        if self.rows != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "t_matmul",
                lhs: vec![self.rows, self.cols],
                rhs: vec![rhs.rows, rhs.cols],
            });
        }
        let (m, k, n) = (self.cols, self.rows, rhs.cols);
        out.resize(m, n);
        kernels::gemm_tn(m, k, n, &self.data, &rhs.data, &mut out.data);
        Ok(())
    }

    /// `self (m×k) · rhsᵀ (n×k)ᵀ → m×n` without materializing the
    /// transpose, written into caller scratch.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when column counts disagree.
    pub fn matmul_t_into(&self, rhs: &Tensor, out: &mut Tensor) -> Result<(), TensorError> {
        if self.cols != rhs.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_t",
                lhs: vec![self.rows, self.cols],
                rhs: vec![rhs.rows, rhs.cols],
            });
        }
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        out.resize(m, n);
        kernels::gemm_nt(m, k, n, &self.data, &rhs.data, &mut out.data);
        Ok(())
    }

    /// Materialized transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Add a `[1, cols]` bias row to every row of the tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `bias` is not `[1, cols]`.
    pub fn add_row_broadcast(&mut self, bias: &Tensor) -> Result<(), TensorError> {
        if bias.rows != 1 || bias.cols != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: vec![self.rows, self.cols],
                rhs: vec![bias.rows, bias.cols],
            });
        }
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (a, b) in row.iter_mut().zip(&bias.data) {
                *a += b;
            }
        }
        Ok(())
    }

    /// Sum over rows into caller scratch, resized to `[1, cols]` (the bias
    /// gradient of a linear layer).
    pub fn sum_rows_into(&self, out: &mut Tensor) {
        out.resize(1, self.cols);
        out.data.fill(0.0);
        if self.cols == 0 {
            return;
        }
        for row in self.data.chunks_exact(self.cols) {
            for (o, v) in out.data.iter_mut().zip(row) {
                *o += v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn matmul_small() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = t(2, 3, &[0.0; 6]);
        let b = t(2, 3, &[0.0; 6]);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = t(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let mut fused = Tensor::default();
        a.t_matmul_into(&b, &mut fused).unwrap();
        let explicit = a.transpose().matmul(&b).unwrap();
        assert_eq!(fused, explicit);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(4, 3, &[1.0; 12]);
        let mut fused = Tensor::default();
        a.matmul_t_into(&b, &mut fused).unwrap();
        let explicit = a.matmul(&b.transpose()).unwrap();
        assert_eq!(fused, explicit);
    }

    #[test]
    fn broadcast_bias() {
        let mut a = Tensor::zeros(2, 3);
        let bias = t(1, 3, &[1.0, 2.0, 3.0]);
        a.add_row_broadcast(&bias).unwrap();
        assert_eq!(a.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn sum_rows_collapses() {
        let a = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let mut s = Tensor::zeros(9, 9); // wrong shape: must be resized
        a.sum_rows_into(&mut s);
        assert_eq!(s, t(1, 2, &[4.0, 6.0]));
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Tensor::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn matmul_propagates_nan_through_zero_rows() {
        // Regression: the old kernel skipped `a == 0.0` per element, so a
        // zero activation silently swallowed a NaN weight (`0 * NaN` must
        // stay NaN for the server-side quarantine to ever see it).
        let a = t(1, 2, &[0.0, 0.0]);
        let b = t(2, 2, &[f32::NAN, 1.0, 2.0, 3.0]);
        let c = a.matmul(&b).unwrap();
        assert!(c.data()[0].is_nan(), "0·NaN swallowed in matmul");
        let mut c = Tensor::default();
        a.t_matmul_into(&t(1, 2, &[f32::NAN, 1.0]), &mut c).unwrap();
        assert!(c.data()[0].is_nan(), "0·NaN swallowed in t_matmul_into");
        t(1, 2, &[0.0, 0.0])
            .matmul_t_into(&t(1, 2, &[f32::NAN, 1.0]), &mut c)
            .unwrap();
        assert!(c.data()[0].is_nan(), "0·NaN swallowed in matmul_t_into");
    }

    #[test]
    fn matmul_propagates_inf() {
        let a = t(1, 2, &[1.0, 0.0]);
        let b = t(2, 1, &[f32::INFINITY, 5.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data()[0], f32::INFINITY);
    }

    #[test]
    fn into_variants_reuse_scratch_and_match() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let mut out = Tensor::zeros(9, 9); // wrong shape: must be resized
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap());
        a.t_matmul_into(&a, &mut out).unwrap();
        assert_eq!(out, a.transpose().matmul(&a).unwrap());
        a.matmul_t_into(&a, &mut out).unwrap();
        assert_eq!(out, a.matmul(&a.transpose()).unwrap());
    }

    #[test]
    fn into_variants_reject_bad_shapes() {
        let a = Tensor::zeros(2, 3);
        let mut out = Tensor::default();
        assert!(a.matmul_into(&Tensor::zeros(2, 3), &mut out).is_err());
        assert!(a.t_matmul_into(&Tensor::zeros(3, 3), &mut out).is_err());
        assert!(a.matmul_t_into(&Tensor::zeros(3, 4), &mut out).is_err());
    }
}
