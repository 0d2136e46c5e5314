//! The local optimizer of the MLP substrate.

/// Plain stochastic gradient descent, `θ ← θ − η ∇L`: FLOAT's local
/// client update (paper §2). It keeps no state, so stepping a model
/// tensor by tensor ([`crate::Mlp`]'s training loop) performs, per
/// parameter, exactly the float operations of one step over the
/// flattened model.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate `η`.
    pub lr: f32,
}

impl Sgd {
    /// An optimizer with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }

    /// Apply one update step to `params` given `grads`.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != grads.len()`.
    pub fn step(&self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(
            params.len(),
            grads.len(),
            "parameter/gradient length mismatch"
        );
        for (p, &g) in params.iter_mut().zip(grads) {
            *p -= self.lr * g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_moves_against_gradient() {
        let opt = Sgd::new(0.5);
        let mut p = [1.0f32, -1.0];
        opt.step(&mut p, &[2.0, -2.0]);
        assert_eq!(p, [0.0, 0.0]);
    }
}
