//! Neural network layers with manual forward/backward passes.

use rand::Rng;

use crate::rng::seed_rng;
use crate::{Tensor, TensorError};

/// A fully connected layer `y = x · W + b` with cached activations for
/// backpropagation.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix, `[in, out]`.
    pub weight: Tensor,
    /// Bias row, `[1, out]`.
    pub bias: Tensor,
    /// Gradient of the loss w.r.t. `weight`, populated by [`Linear::backward`].
    pub grad_weight: Tensor,
    /// Gradient of the loss w.r.t. `bias`, populated by [`Linear::backward`].
    pub grad_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Create a layer with He-uniform initialized weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let mut rng = seed_rng(seed);
        let bound = (6.0f32 / in_dim as f32).sqrt();
        let data = (0..in_dim * out_dim)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Linear {
            weight: Tensor::from_vec(in_dim, out_dim, data)
                .expect("init buffer length is in_dim * out_dim by construction"),
            bias: Tensor::zeros(1, out_dim),
            grad_weight: Tensor::zeros(in_dim, out_dim),
            grad_bias: Tensor::zeros(1, out_dim),
            cached_input: None,
        }
    }

    /// Forward pass; caches the input for the subsequent backward pass.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `x` is not `[*, in_dim]`.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor, TensorError> {
        let mut y = x.matmul(&self.weight)?;
        y.add_row_broadcast(&self.bias)?;
        self.cached_input = Some(x.clone());
        Ok(y)
    }

    /// Inference-only forward pass (no caching).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `x` is not `[*, in_dim]`.
    pub fn forward_inference(&self, x: &Tensor) -> Result<Tensor, TensorError> {
        let mut y = x.matmul(&self.weight)?;
        y.add_row_broadcast(&self.bias)?;
        Ok(y)
    }

    /// Matmul-only forward into caller scratch: `out = x · W`, no bias, no
    /// caching. The hot path ([`crate::Mlp`]) fuses the bias add with the
    /// following ReLU and keeps the activation as the backward-pass input
    /// itself, so the layer never clones `x`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `x` is not `[*, in_dim]`.
    pub fn forward_matmul_into(&self, x: &Tensor, out: &mut Tensor) -> Result<(), TensorError> {
        x.matmul_into(&self.weight, out)
    }

    /// Fill `grad_weight` / `grad_bias` from an explicit forward input
    /// (instead of the cached clone), writing the input gradient into
    /// `grad_in`. Allocation-free once the gradient tensors have capacity.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` / `grad_out` disagree with the layer.
    pub fn backward_into(
        &mut self,
        x: &Tensor,
        grad_out: &Tensor,
        grad_in: &mut Tensor,
    ) -> Result<(), TensorError> {
        x.t_matmul_into(grad_out, &mut self.grad_weight)?;
        grad_out.sum_rows_into(&mut self.grad_bias);
        grad_out.matmul_t_into(&self.weight, grad_in)
    }

    /// [`Linear::backward_into`] without the input gradient — the first
    /// layer of a network has no upstream consumer, so the `matmul_t` is
    /// pure waste there.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` / `grad_out` disagree with the layer.
    pub fn backward_params_only(
        &mut self,
        x: &Tensor,
        grad_out: &Tensor,
    ) -> Result<(), TensorError> {
        x.t_matmul_into(grad_out, &mut self.grad_weight)?;
        grad_out.sum_rows_into(&mut self.grad_bias);
        Ok(())
    }

    /// Backward pass: consumes the cached input, fills `grad_weight` /
    /// `grad_bias`, and returns the gradient w.r.t. the layer input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidData`] if called before `forward`, or a
    /// shape error if `grad_out` does not match the forward output shape.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, TensorError> {
        let x = self
            .cached_input
            .take()
            .ok_or_else(|| TensorError::InvalidData("backward before forward".into()))?;
        let mut grad_in = Tensor::default();
        self.backward_into(&x, grad_out, &mut grad_in)?;
        Ok(grad_in)
    }
}

/// ReLU activation with a cached mask for the backward pass.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// Create a fresh ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }

    /// Forward pass; remembers which activations were positive.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut y = x.clone();
        self.mask = x.data().iter().map(|&v| v > 0.0).collect();
        for v in y.data_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        y
    }

    /// Inference-only forward pass.
    pub fn forward_inference(&self, x: &Tensor) -> Tensor {
        let mut y = x.clone();
        for v in y.data_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        y
    }

    /// Fused bias-add + ReLU forward, in place: `y = max(y + bias, 0)`,
    /// recording the positive mask for [`Relu::backward_in_place`]. One
    /// pass over the activation buffer instead of the separate
    /// broadcast-add and clamp the unfused path performs.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `bias` is not
    /// `[1, y.cols()]`.
    pub fn forward_fused_bias(&mut self, y: &mut Tensor, bias: &Tensor) -> Result<(), TensorError> {
        if bias.rows() != 1 || bias.cols() != y.cols() {
            return Err(TensorError::ShapeMismatch {
                op: "bias_relu",
                lhs: vec![y.rows(), y.cols()],
                rhs: vec![bias.rows(), bias.cols()],
            });
        }
        let (rows, cols) = (y.rows(), y.cols());
        crate::kernels::bias_relu_forward(y.data_mut(), rows, cols, bias.data(), &mut self.mask);
        Ok(())
    }

    /// Backward pass: zero the gradient where the forward input was
    /// non-positive.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidData`] if the gradient size does not
    /// match the cached mask (i.e. `forward` was not called with a matching
    /// batch).
    pub fn backward(&self, grad_out: &Tensor) -> Result<Tensor, TensorError> {
        let mut g = grad_out.clone();
        self.backward_in_place(&mut g)?;
        Ok(g)
    }

    /// [`Relu::backward`] applied in place to caller scratch.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidData`] on a mask/gradient size
    /// mismatch.
    pub fn backward_in_place(&self, grad: &mut Tensor) -> Result<(), TensorError> {
        if grad.len() != self.mask.len() {
            return Err(TensorError::InvalidData(
                "relu backward called with mismatched batch".into(),
            ));
        }
        crate::kernels::relu_mask_backward(grad.data_mut(), &self.mask);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_forward_shapes() {
        let mut l = Linear::new(3, 2, 1);
        let x = Tensor::zeros(4, 3);
        let y = l.forward(&x).unwrap();
        assert_eq!((y.rows(), y.cols()), (4, 2));
    }

    #[test]
    fn linear_backward_requires_forward() {
        let mut l = Linear::new(2, 2, 1);
        let g = Tensor::zeros(1, 2);
        assert!(l.backward(&g).is_err());
    }

    #[test]
    fn linear_gradient_check() {
        // Finite-difference check on a single weight.
        let mut l = Linear::new(2, 2, 3);
        let x = Tensor::from_vec(1, 2, vec![0.3, -0.7]).unwrap();
        // Loss = sum(y). dL/dy = ones.
        let loss =
            |l: &Linear, x: &Tensor| -> f32 { l.forward_inference(x).unwrap().data().iter().sum() };
        let eps = 1e-3;
        let base_w = l.weight.at(0, 1);
        l.weight.set(0, 1, base_w + eps);
        let up = loss(&l, &x);
        l.weight.set(0, 1, base_w - eps);
        let down = loss(&l, &x);
        l.weight.set(0, 1, base_w);
        let numeric = (up - down) / (2.0 * eps);

        let y = l.forward(&x).unwrap();
        let ones = Tensor::from_vec(y.rows(), y.cols(), vec![1.0; y.len()]).unwrap();
        l.backward(&ones).unwrap();
        let analytic = l.grad_weight.at(0, 1);
        assert!(
            (numeric - analytic).abs() < 1e-2,
            "numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn relu_zeroes_negatives_and_gradients() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(1, 4, vec![-1.0, 2.0, -3.0, 4.0]).unwrap();
        let y = r.forward(&x);
        assert_eq!(y.data(), &[0.0, 2.0, 0.0, 4.0]);
        let g = Tensor::from_vec(1, 4, vec![1.0; 4]).unwrap();
        let gx = r.backward(&g).unwrap();
        assert_eq!(gx.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn relu_backward_mismatch_is_error() {
        let mut r = Relu::new();
        let _ = r.forward(&Tensor::zeros(1, 2));
        assert!(r.backward(&Tensor::zeros(1, 3)).is_err());
    }
}
