//! Error feedback (residual accumulation) for lossy update compression.
//!
//! Top-k sparsification drops most of an update's coordinates each round.
//! Without correction, the dropped mass is lost forever and convergence
//! degrades. Error feedback — the standard companion to sparsified SGD —
//! keeps the per-client residual: each round the client compresses
//! `update + residual`, transmits the sparse part, and carries the
//! untransmitted remainder forward. Over time every coordinate's
//! contribution eventually ships, so the *sum* of transmitted updates
//! converges to the sum of raw updates.

use serde::{Deserialize, Serialize};

use crate::compress::top_k_sparsify;

/// Per-client residual memory for error-feedback compression.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ErrorFeedback {
    residual: Vec<f32>,
}

impl ErrorFeedback {
    /// Fresh, empty residual state.
    pub fn new() -> Self {
        ErrorFeedback::default()
    }

    /// Compress `update` with top-k sparsification at `keep_fraction`,
    /// folding in and updating the carried residual. Returns the dense
    /// form of what actually ships this round.
    ///
    /// The residual buffer is lazily sized to the update length; a model
    /// size change resets it.
    ///
    /// # Panics
    ///
    /// Panics if `keep_fraction` is not in `(0, 1]` (propagated from the
    /// sparsifier).
    pub fn compress(&mut self, update: &[f32], keep_fraction: f64) -> Vec<f32> {
        if self.residual.len() != update.len() {
            self.residual = vec![0.0; update.len()];
        }
        let corrected: Vec<f32> = update
            .iter()
            .zip(&self.residual)
            .map(|(u, r)| u + r)
            .collect();
        let shipped = top_k_sparsify(&corrected, keep_fraction).to_dense();
        for ((r, &c), &s) in self.residual.iter_mut().zip(&corrected).zip(&shipped) {
            *r = c - s;
        }
        shipped
    }

    /// Squared L2 norm of the carried residual (diagnostics).
    pub fn residual_sq_norm(&self) -> f64 {
        self.residual
            .iter()
            .map(|&r| f64::from(r) * f64::from(r))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmitted_mass_converges_to_raw_mass() {
        // The defining property: sum of shipped updates approaches the sum
        // of raw updates as rounds accumulate.
        let mut ef = ErrorFeedback::new();
        let n = 64;
        let rounds = 40;
        let mut raw_sum = vec![0.0f64; n];
        let mut shipped_sum = vec![0.0f64; n];
        for round in 0..rounds {
            let update: Vec<f32> = (0..n)
                .map(|i| (((i * 7 + round * 13) % 11) as f32 - 5.0) / 10.0)
                .collect();
            let shipped = ef.compress(&update, 0.2);
            for i in 0..n {
                raw_sum[i] += f64::from(update[i]);
                shipped_sum[i] += f64::from(shipped[i]);
            }
        }
        // Remaining gap is exactly the residual, which is bounded by one
        // round's worth of mass, not `rounds` worth.
        let gap: f64 = raw_sum
            .iter()
            .zip(&shipped_sum)
            .map(|(a, b)| (a - b).abs())
            .sum();
        let per_round_mass: f64 = (0..n)
            .map(|i| f64::from((((i * 7) % 11) as f32 - 5.0).abs() / 10.0))
            .sum();
        assert!(
            gap < 2.0 * per_round_mass,
            "gap {gap} not bounded by ~one round of mass {per_round_mass}"
        );
    }

    #[test]
    fn residual_holds_exactly_the_untransmitted_part() {
        let mut ef = ErrorFeedback::new();
        let update = vec![1.0f32, -0.5, 0.25, -0.125];
        let shipped = ef.compress(&update, 0.25); // keeps 1 coordinate
        let kept = shipped.iter().filter(|&&v| v != 0.0).count();
        assert_eq!(kept, 1);
        // residual + shipped == update (first round has zero prior residual).
        let total_err = update
            .iter()
            .zip(&shipped)
            .map(|(u, s)| u - s)
            .map(f32::abs)
            .sum::<f32>();
        assert!((ef.residual_sq_norm().sqrt() - f64::from(total_err)) < 1e-6);
    }

    #[test]
    fn small_coordinates_eventually_ship() {
        // A persistently tiny coordinate must accumulate until it wins a
        // top-k slot.
        let mut ef = ErrorFeedback::new();
        let mut shipped_small = 0.0f64;
        for _ in 0..50 {
            let mut update = vec![0.0f32; 10];
            update[0] = 1.0; // always dominant
            update[9] = 0.05; // persistently tiny
            let shipped = ef.compress(&update, 0.1); // keeps 1 of 10
            shipped_small += f64::from(shipped[9]);
        }
        assert!(
            shipped_small > 1.0,
            "small coordinate never shipped: total {shipped_small}"
        );
    }

    #[test]
    fn size_change_resets_residual() {
        let mut ef = ErrorFeedback::new();
        let _ = ef.compress(&[1.0, 2.0], 0.5);
        assert!(ef.residual_sq_norm() > 0.0);
        let _ = ef.compress(&[1.0, 2.0, 3.0, 4.0], 0.5);
        // New size: residual was rebuilt for the new length, not carried.
        let _ = ef.compress(&[0.0, 0.0, 0.0, 0.0], 1.0);
        // With keep=1.0 everything ships, so the residual empties.
        assert!(ef.residual_sq_norm() < 1e-12);
    }
}
