//! Neural network layers with manual forward/backward passes into caller
//! scratch. The caller keeps each layer's forward input and hands it back
//! to the backward pass, so a layer caches nothing but the ReLU mask.

use rand::Rng;

use crate::rng::seed_rng;
use crate::{Tensor, TensorError};

/// A fully connected layer `y = x · W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix, `[in, out]`.
    pub weight: Tensor,
    /// Bias row, `[1, out]`.
    pub bias: Tensor,
    /// Gradient of the loss w.r.t. `weight`, populated by
    /// [`Linear::backward_into`] / [`Linear::backward_params_only`].
    pub grad_weight: Tensor,
    /// Gradient of the loss w.r.t. `bias`, populated alongside
    /// `grad_weight`.
    pub grad_bias: Tensor,
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
        }
    }

    /// Allocating forward pass `x · W + b`: the inference path, and the
    /// independent reference the scratch path is checked against.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `x` is not `[*, in_dim]`.
    pub fn forward_inference(&self, x: &Tensor) -> Result<Tensor, TensorError> {
        let mut y = x.matmul(&self.weight)?;
        y.add_row_broadcast(&self.bias)?;
        Ok(y)
    }

    /// Matmul-only forward into caller scratch: `out = x · W`, no bias.
    /// [`crate::Mlp`] fuses the bias add with the following ReLU and keeps
    /// the activation as the backward-pass input itself, so the layer
    /// never clones `x`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `x` is not `[*, in_dim]`.
    pub fn forward_matmul_into(&self, x: &Tensor, out: &mut Tensor) -> Result<(), TensorError> {
        x.matmul_into(&self.weight, out)
    }

    /// Fill `grad_weight` / `grad_bias` from the forward input `x`, writing
    /// the input gradient into `grad_in`. Allocation-free once the gradient
    /// tensors have capacity.
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
    /// layer of a network has no upstream consumer, so the `x · Wᵀ` GEMM
    /// is pure waste there.
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

    /// Allocating inference forward pass (records no mask).
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

    /// Backward pass in place: zero the gradient where the forward input
    /// was non-positive.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidData`] if the gradient size does not
    /// match the recorded mask (the last [`Relu::forward_fused_bias`] saw a
    /// different batch).
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
        let l = Linear::new(3, 2, 1);
        let mut y = Tensor::zeros(9, 9); // wrong shape: must be resized
        l.forward_matmul_into(&Tensor::zeros(4, 3), &mut y).unwrap();
        assert_eq!((y.rows(), y.cols()), (4, 2));
        assert!(l.forward_matmul_into(&Tensor::zeros(4, 2), &mut y).is_err());
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

        let ones = Tensor::from_vec(1, 2, vec![1.0; 2]).unwrap();
        let mut grad_in = Tensor::default();
        l.backward_into(&x, &ones, &mut grad_in).unwrap();
        let analytic = l.grad_weight.at(0, 1);
        assert!(
            (numeric - analytic).abs() < 1e-2,
            "numeric {numeric} vs analytic {analytic}"
        );
        // dL/dx = ones · Wᵀ, and the params-only pass leaves the same
        // parameter gradients.
        for i in 0..2 {
            let want = l.weight.at(i, 0) + l.weight.at(i, 1);
            assert!((grad_in.at(0, i) - want).abs() < 1e-6);
        }
        let (gw, gb) = (l.grad_weight.clone(), l.grad_bias.clone());
        l.backward_params_only(&x, &ones).unwrap();
        assert_eq!((&l.grad_weight, &l.grad_bias), (&gw, &gb));
    }

    #[test]
    fn relu_zeroes_negatives_and_gradients() {
        let mut r = Relu::new();
        let mut y = Tensor::from_vec(1, 4, vec![-1.0, 2.0, -3.0, 4.0]).unwrap();
        let inference = r.forward_inference(&y);
        r.forward_fused_bias(&mut y, &Tensor::zeros(1, 4)).unwrap();
        assert_eq!(y.data(), &[0.0, 2.0, 0.0, 4.0]);
        assert_eq!(inference, y);
        let mut g = Tensor::from_vec(1, 4, vec![1.0; 4]).unwrap();
        r.backward_in_place(&mut g).unwrap();
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn relu_backward_mismatch_is_error() {
        let mut r = Relu::new();
        r.forward_fused_bias(&mut Tensor::zeros(1, 2), &Tensor::zeros(1, 2))
            .unwrap();
        assert!(r.backward_in_place(&mut Tensor::zeros(1, 3)).is_err());
    }
}
