//! Optimizers for the MLP substrate.

/// Plain stochastic gradient descent with optional momentum and weight
/// decay, operating on flat parameter/gradient buffers — a whole model at
/// once ([`Sgd::step`]) or, for [`crate::Mlp`]'s training loop, one layer
/// tensor at a time at its offset into the flat layout.
///
/// FLOAT's local client update is SGD (`θ ← θ − η ∇L`, paper §2); momentum
/// and decay are provided for completeness and are off by default.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate `η`.
    pub lr: f32,
    /// Momentum coefficient; `0.0` disables momentum.
    pub momentum: f32,
    /// L2 weight-decay coefficient; `0.0` disables decay.
    pub weight_decay: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Create a plain SGD optimizer with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Create an SGD optimizer with momentum and weight decay.
    pub fn with_momentum(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }

    /// Apply one update step to `params` given `grads`.
    ///
    /// The internal momentum buffer is lazily sized to the parameter count;
    /// switching parameter sizes mid-run resets it.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != grads.len()`.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        self.size_velocity(params.len());
        self.step_at(0, params, grads);
    }

    /// Size the momentum buffer for a model of `total` parameters (a
    /// different size resets it). Call once before the [`Sgd::step_at`]
    /// calls that cover the model.
    pub(crate) fn size_velocity(&mut self, total: usize) {
        if self.momentum != 0.0 && self.velocity.len() != total {
            self.velocity = vec![0.0; total];
        }
    }

    /// [`Sgd::step`] on the slice of a model's flat parameter layout that
    /// starts at `offset`: the momentum state of `params[i]` is
    /// `velocity[offset + i]`. Stepping a model slice by slice performs,
    /// per parameter, exactly the float operations of one flat step.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != grads.len()`, or if momentum is on and
    /// [`Sgd::size_velocity`] has not sized the buffer to cover the slice.
    pub(crate) fn step_at(&mut self, offset: usize, params: &mut [f32], grads: &[f32]) {
        assert_eq!(
            params.len(),
            grads.len(),
            "parameter/gradient length mismatch"
        );
        let (lr, decay, momentum) = (self.lr, self.weight_decay, self.momentum);
        if momentum != 0.0 {
            let velocity = &mut self.velocity[offset..offset + params.len()];
            for ((p, &g), v) in params.iter_mut().zip(grads).zip(velocity) {
                let g = if decay != 0.0 { g + decay * *p } else { g };
                *v = momentum * *v + g;
                *p -= lr * *v;
            }
        } else {
            for (p, &g) in params.iter_mut().zip(grads) {
                let g = if decay != 0.0 { g + decay * *p } else { g };
                *p -= lr * g;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_moves_against_gradient() {
        let mut opt = Sgd::new(0.5);
        let mut p = [1.0f32, -1.0];
        opt.step(&mut p, &[2.0, -2.0]);
        assert_eq!(p, [0.0, 0.0]);
    }

    #[test]
    fn momentum_accumulates() {
        let mut opt = Sgd::with_momentum(1.0, 0.5, 0.0);
        let mut p = [0.0f32];
        opt.step(&mut p, &[1.0]); // v=1, p=-1
        opt.step(&mut p, &[1.0]); // v=1.5, p=-2.5
        assert!((p[0] + 2.5).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut opt = Sgd::with_momentum(0.1, 0.0, 1.0);
        let mut p = [1.0f32];
        opt.step(&mut p, &[0.0]);
        assert!((p[0] - 0.9).abs() < 1e-6);
    }
}
