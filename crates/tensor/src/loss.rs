//! Softmax cross-entropy loss and evaluation metrics.

use crate::{Tensor, TensorError};

/// Result of evaluating a model on a dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Mean cross-entropy loss.
    pub loss: f32,
    /// Top-1 accuracy in `[0, 1]`.
    pub accuracy: f32,
    /// Number of samples evaluated.
    pub samples: usize,
}

/// Numerically stable softmax cross-entropy: returns the mean loss and
/// writes into `grad` (resized as needed) the gradient of the *mean* loss
/// w.r.t. the logits (i.e. already divided by batch size). Allocation-free
/// once `grad` has capacity.
///
/// # Errors
///
/// Returns [`TensorError::InvalidData`] if `labels.len() != logits.rows()`
/// or any label is out of range for the logit width.
pub fn softmax_cross_entropy_into(
    logits: &Tensor,
    labels: &[usize],
    grad: &mut Tensor,
) -> Result<f32, TensorError> {
    let (n, c) = (logits.rows(), logits.cols());
    if labels.len() != n {
        return Err(TensorError::InvalidData(format!(
            "{} labels for {} logit rows",
            labels.len(),
            n
        )));
    }
    grad.resize(n, c);
    let mut total = 0.0f64;
    for (i, &y) in labels.iter().enumerate().take(n) {
        if y >= c {
            return Err(TensorError::InvalidData(format!(
                "label {y} out of range for {c} classes"
            )));
        }
        let row = logits.row(i);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        // Stage the exponentials in the gradient row so the second pass
        // reuses them instead of recomputing each `exp` — same values in
        // the same order, so the result is bit-identical.
        let grow = &mut grad.data_mut()[i * c..(i + 1) * c];
        let mut denom = 0.0f32;
        for (g, &v) in grow.iter_mut().zip(row) {
            let e = (v - max).exp();
            *g = e;
            denom += e;
        }
        let log_denom = denom.ln();
        total += f64::from(log_denom - (row[y] - max));
        for (j, g) in grow.iter_mut().enumerate() {
            let p = *g / denom;
            *g = (p - if j == y { 1.0 } else { 0.0 }) / n as f32;
        }
    }
    Ok(total as f32 / n as f32)
}

/// Mean softmax cross-entropy loss without computing the gradient (the
/// evaluation path needs only the scalar).
///
/// # Errors
///
/// Returns [`TensorError::InvalidData`] under the same conditions as
/// [`softmax_cross_entropy_into`].
pub fn cross_entropy_loss(logits: &Tensor, labels: &[usize]) -> Result<f32, TensorError> {
    let (n, c) = (logits.rows(), logits.cols());
    if labels.len() != n {
        return Err(TensorError::InvalidData(format!(
            "{} labels for {} logit rows",
            labels.len(),
            n
        )));
    }
    let mut total = 0.0f64;
    for (i, &y) in labels.iter().enumerate().take(n) {
        if y >= c {
            return Err(TensorError::InvalidData(format!(
                "label {y} out of range for {c} classes"
            )));
        }
        let row = logits.row(i);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for &v in row {
            denom += (v - max).exp();
        }
        total += f64::from(denom.ln() - (row[y] - max));
    }
    Ok(total as f32 / n as f32)
}

/// Top-1 accuracy of `logits` against `labels`.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()`.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f32 {
    assert_eq!(labels.len(), logits.rows(), "label/logit count mismatch");
    if labels.is_empty() {
        return 0.0;
    }
    // Inline argmax (strict `>`, so the first maximum wins) so the hot
    // evaluation path allocates nothing.
    let mut correct = 0usize;
    for (r, &y) in labels.iter().enumerate() {
        let row = logits.row(r);
        let mut best = (0usize, f32::NEG_INFINITY);
        for (j, &v) in row.iter().enumerate() {
            if v > best.1 {
                best = (j, v);
            }
        }
        if best.0 == y {
            correct += 1;
        }
    }
    correct as f32 / labels.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`softmax_cross_entropy_into`]'s loss and gradient, into a fresh
    /// tensor.
    fn loss_and_grad(logits: &Tensor, labels: &[usize]) -> Result<(f32, Tensor), TensorError> {
        let mut grad = Tensor::default();
        let loss = softmax_cross_entropy_into(logits, labels, &mut grad)?;
        Ok((loss, grad))
    }

    #[test]
    fn perfect_logits_have_low_loss() {
        let logits = Tensor::from_vec(2, 2, vec![10.0, -10.0, -10.0, 10.0]).unwrap();
        let (loss, _) = loss_and_grad(&logits, &[0, 1]).unwrap();
        assert!(loss < 1e-3, "loss was {loss}");
    }

    #[test]
    fn uniform_logits_loss_is_ln_c() {
        let logits = Tensor::zeros(4, 8);
        let (loss, _) = loss_and_grad(&logits, &[0, 1, 2, 3]).unwrap();
        assert!((loss - (8.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Tensor::from_vec(2, 3, vec![0.5, -0.2, 1.0, 0.0, 0.0, 0.0]).unwrap();
        let (_, grad) = loss_and_grad(&logits, &[2, 0]).unwrap();
        for r in 0..2 {
            let s: f32 = grad.row(r).iter().sum();
            assert!(s.abs() < 1e-6, "row {r} grad sums to {s}");
        }
    }

    #[test]
    fn gradient_finite_difference() {
        let logits = Tensor::from_vec(1, 3, vec![0.2, -0.4, 0.9]).unwrap();
        let labels = [1usize];
        let (_, grad) = loss_and_grad(&logits, &labels).unwrap();
        let eps = 1e-3;
        for j in 0..3 {
            let mut up = logits.clone();
            up.set(0, j, logits.at(0, j) + eps);
            let (lu, _) = loss_and_grad(&up, &labels).unwrap();
            let mut dn = logits.clone();
            dn.set(0, j, logits.at(0, j) - eps);
            let (ld, _) = loss_and_grad(&dn, &labels).unwrap();
            let numeric = (lu - ld) / (2.0 * eps);
            assert!(
                (numeric - grad.at(0, j)).abs() < 1e-3,
                "logit {j}: numeric {numeric} vs analytic {}",
                grad.at(0, j)
            );
        }
    }

    #[test]
    fn huge_logits_are_stable() {
        let logits = Tensor::from_vec(1, 2, vec![1e4, -1e4]).unwrap();
        let (loss, grad) = loss_and_grad(&logits, &[0]).unwrap();
        assert!(loss.is_finite());
        assert!(grad.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = Tensor::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0]).unwrap();
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn rejects_out_of_range_label() {
        let logits = Tensor::zeros(1, 2);
        assert!(loss_and_grad(&logits, &[5]).is_err());
    }
}
