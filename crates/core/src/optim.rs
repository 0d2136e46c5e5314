//! Server-side aggregation optimizers (the FedOpt family).
//!
//! FedAvg applies the weighted-mean client delta directly; the adaptive
//! members keep first/second-moment state over the *aggregated delta*
//! (never per-client state), exactly as Reddi et al.'s FedOpt framework
//! prescribes:
//!
//! ```text
//! m_{t+1} = β₁·m_t + (1-β₁)·Δ_t            (FedAdam / FedYogi)
//! v_{t+1} = β₂·v_t + (1-β₂)·Δ_t²            (FedAdam)
//! v_{t+1} = v_t − (1-β₂)·Δ_t²·sign(v_t−Δ_t²) (FedYogi)
//! w_{t+1} = w_t + η·m_{t+1}/(√v_{t+1} + τ)
//! ```
//!
//! FedAvgM is classical server momentum (`m ← β₁·m + Δ; w ← w + η·m`).
//!
//! Determinism contract: optimizer state is mutated only in the
//! sequential commit phase (both engines call [`ServerOptimizer::aggregate`]
//! from their aggregation step), all accumulation runs in `f64` in
//! parameter order, and [`ServerOptimizerChoice::FedAvg`] reproduces the
//! historical direct-apply path bit for bit — see `DESIGN.md` §Server
//! optimizer layer.

use serde::{Deserialize, Serialize};

use crate::aggregate::{weighted_mean_delta, PendingUpdate};

/// Which server-side optimizer folds the aggregated delta into the
/// global model. The default is FedAvg, so configurations that predate
/// the server optimizer keep their exact behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServerOptimizerChoice {
    /// Direct application of the weighted-mean delta (the historical
    /// path, bit-identical to pre-optimizer reports).
    #[default]
    FedAvg,
    /// Server momentum over the aggregated delta.
    FedAvgM,
    /// Adam at the server (FedOpt).
    FedAdam,
    /// Yogi at the server: additive, sign-controlled second moment —
    /// more stable than Adam when deltas are sparse or bursty.
    FedYogi,
}

impl ServerOptimizerChoice {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ServerOptimizerChoice::FedAvg => "fedavg",
            ServerOptimizerChoice::FedAvgM => "fedavgm",
            ServerOptimizerChoice::FedAdam => "fedadam",
            ServerOptimizerChoice::FedYogi => "fedyogi",
        }
    }
}

/// Server learning rate `η`. FedAvg ignores it (its step is the raw
/// mean delta); `1.0` keeps the adaptive members on FedAvg's scale.
const ETA: f64 = 1.0;
/// First-moment coefficient `β₁` (FedAvgM momentum / Adam / Yogi).
const BETA1: f64 = 0.9;
/// Second-moment coefficient `β₂` (FedAdam / FedYogi).
const BETA2: f64 = 0.99;
/// Adaptivity floor `τ` added to `√v`: it bounds the effective
/// per-parameter learning rate at `η/τ`.
const TAU: f64 = 1e-3;

/// The server optimizer: its choice plus moment buffers, lazily sized
/// to the model on first use. Owned by the experiment and only ever
/// touched from the sequential commit phase, so its state trajectory is
/// identical for any worker-thread count.
#[derive(Debug, Clone)]
pub struct ServerOptimizer {
    optimizer: ServerOptimizerChoice,
    /// First moment `m` (FedAvgM / FedAdam / FedYogi). Empty until the
    /// first aggregation.
    momentum: Vec<f64>,
    /// Second moment `v` (FedAdam / FedYogi). Empty until the first
    /// aggregation.
    second: Vec<f64>,
}

impl ServerOptimizer {
    /// Build an optimizer that runs `optimizer` with the FedOpt server
    /// defaults (`η = 1`, `β₁ = 0.9`, `β₂ = 0.99`, `τ = 10⁻³`).
    pub fn new(optimizer: ServerOptimizerChoice) -> Self {
        ServerOptimizer {
            optimizer,
            momentum: Vec::new(),
            second: Vec::new(),
        }
    }

    /// Aggregate `updates` into `global` through the configured
    /// optimizer: compute the staleness-discounted weighted-mean delta,
    /// then fold it into `global`, advancing the moment buffers.
    ///
    /// Returns the number of updates actually applied — `0` when the
    /// batch is empty or carries no aggregate weight, in which case
    /// `global` and the optimizer state are untouched.
    ///
    /// # Panics
    ///
    /// Panics if an update's delta length differs from `global.len()`.
    pub fn aggregate(&mut self, global: &mut [f32], updates: &[PendingUpdate]) -> usize {
        let Some(delta) = weighted_mean_delta(global.len(), updates) else {
            return 0;
        };
        self.apply(global, &delta);
        updates.len()
    }

    /// Apply one aggregated mean delta to the global parameters,
    /// advancing the moment buffers. FedAvg performs exactly the
    /// historical `g += delta as f32` walk, so selecting it reproduces
    /// pre-optimizer reports bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `delta.len() != global.len()`.
    fn apply(&mut self, global: &mut [f32], delta: &[f64]) {
        assert_eq!(
            delta.len(),
            global.len(),
            "aggregated delta length {} does not match the model's {}",
            delta.len(),
            global.len()
        );
        match self.optimizer {
            ServerOptimizerChoice::FedAvg => {
                for (g, d) in global.iter_mut().zip(delta) {
                    *g += *d as f32;
                }
            }
            ServerOptimizerChoice::FedAvgM => {
                self.ensure_momentum(global.len());
                for ((g, d), m) in global.iter_mut().zip(delta).zip(&mut self.momentum) {
                    *m = BETA1 * *m + *d;
                    *g = (f64::from(*g) + ETA * *m) as f32;
                }
            }
            ServerOptimizerChoice::FedAdam => {
                self.ensure_momentum(global.len());
                self.ensure_second(global.len());
                for (((g, d), m), v) in global
                    .iter_mut()
                    .zip(delta)
                    .zip(&mut self.momentum)
                    .zip(&mut self.second)
                {
                    *m = BETA1 * *m + (1.0 - BETA1) * *d;
                    *v = BETA2 * *v + (1.0 - BETA2) * *d * *d;
                    *g = (f64::from(*g) + ETA * *m / (v.sqrt() + TAU)) as f32;
                }
            }
            ServerOptimizerChoice::FedYogi => {
                self.ensure_momentum(global.len());
                self.ensure_second(global.len());
                for (((g, d), m), v) in global
                    .iter_mut()
                    .zip(delta)
                    .zip(&mut self.momentum)
                    .zip(&mut self.second)
                {
                    *m = BETA1 * *m + (1.0 - BETA1) * *d;
                    let d2 = *d * *d;
                    *v -= (1.0 - BETA2) * d2 * (*v - d2).signum();
                    *g = (f64::from(*g) + ETA * *m / (v.sqrt().max(0.0) + TAU)) as f32;
                }
            }
        }
    }

    fn ensure_momentum(&mut self, n: usize) {
        if self.momentum.len() != n {
            self.momentum = vec![0.0; n];
        }
    }

    fn ensure_second(&mut self, n: usize) {
        if self.second.len() != n {
            self.second = vec![0.0; n];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::aggregate;

    /// All four optimizers, in comparison-grid order.
    const ALL: [ServerOptimizerChoice; 4] = [
        ServerOptimizerChoice::FedAvg,
        ServerOptimizerChoice::FedAvgM,
        ServerOptimizerChoice::FedAdam,
        ServerOptimizerChoice::FedYogi,
    ];

    fn upd(client: usize, delta: Vec<f32>, samples: usize) -> PendingUpdate {
        PendingUpdate {
            client,
            delta,
            samples,
            staleness: 0,
        }
    }

    #[test]
    fn default_choice_is_fedavg() {
        assert_eq!(
            ServerOptimizerChoice::default(),
            ServerOptimizerChoice::FedAvg
        );
    }

    #[test]
    fn fedavg_choice_matches_plain_aggregate_bitwise() {
        let updates = vec![
            upd(0, vec![0.125, -3.5, 0.7], 30),
            upd(1, vec![-0.25, 1.1, 0.01], 10),
            upd(2, vec![9.75, 0.333, -2.25], 17),
        ];
        let mut direct = vec![0.5f32, -1.25, 2.0];
        let n_direct = aggregate(&mut direct, &updates);
        let mut through = vec![0.5f32, -1.25, 2.0];
        let mut opt = ServerOptimizer::new(ServerOptimizerChoice::FedAvg);
        let n_through = opt.aggregate(&mut through, &updates);
        assert_eq!(n_direct, n_through);
        assert_eq!(
            direct.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            through.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "FedAvg through the optimizer drifted from the direct path"
        );
        // FedAvg keeps no moment state.
        assert!(opt.momentum.is_empty() && opt.second.is_empty());
    }

    #[test]
    fn fedavgm_momentum_accumulates_across_rounds() {
        let mut opt = ServerOptimizer::new(ServerOptimizerChoice::FedAvgM);
        let mut g = vec![0.0f32];
        opt.apply(&mut g, &[1.0]); // m = 1, g = 1
        assert!((g[0] - 1.0).abs() < 1e-6);
        opt.apply(&mut g, &[1.0]); // m = 0.9 + 1 = 1.9, g = 2.9
        assert!((g[0] - 2.9).abs() < 1e-6, "momentum lost: {}", g[0]);
    }

    #[test]
    fn fedadam_step_is_bounded_by_lr_over_tau() {
        let mut opt = ServerOptimizer::new(ServerOptimizerChoice::FedAdam);
        let mut g = vec![0.0f32];
        for _ in 0..100 {
            opt.apply(&mut g, &[1000.0]);
        }
        // η/τ bounds each per-parameter step; 100 steps stay under 100·η/τ.
        assert!(g[0].is_finite());
        assert!(g[0] <= 100.0 * 1.0 / 1e-3 + 1.0, "unbounded step: {}", g[0]);
    }

    #[test]
    fn fedyogi_second_moment_moves_toward_delta_square() {
        let mut opt = ServerOptimizer::new(ServerOptimizerChoice::FedYogi);
        let mut g = vec![0.0f32];
        for _ in 0..200 {
            opt.apply(&mut g, &[2.0]);
        }
        let v = &opt.second;
        // Yogi's additive update converges v toward Δ² = 4 from below.
        assert!((v[0] - 4.0).abs() < 0.5, "v = {}", v[0]);
        assert!(g[0].is_finite());
    }

    /// Three rounds of each stateful optimizer against its update rule
    /// expanded by hand from DESIGN.md's optimizer table, in f64, at the
    /// FedOpt server defaults `η = 1`, `β₁ = 0.9`, `β₂ = 0.99`, `τ = 10⁻³`.
    #[test]
    fn three_rounds_match_the_closed_forms() {
        let (eta, b1, b2, tau) = (1.0f64, 0.9f64, 0.99f64, 1e-3f64);
        let w0 = [0.5f64, -1.25, 2.0];
        // d[t][i]: the aggregated delta of round t + 1 for parameter i.
        let d = [[0.3f64, -0.7, 1.1], [0.25, -0.5, 1.3], [-0.4, -0.6, 0.9]];
        let run = |choice| {
            let mut opt = ServerOptimizer::new(choice);
            let mut g: Vec<f32> = w0.iter().map(|&w| w as f32).collect();
            for dt in &d {
                opt.apply(&mut g, dt);
            }
            g
        };
        let check = |choice, want: [f64; 3]| {
            let got = run(choice);
            for i in 0..3 {
                // Three f32 roundings of |w| < 8 stay well under 4e-6.
                assert!(
                    (f64::from(got[i]) - want[i]).abs() < 4e-6,
                    "{choice:?} parameter {i}: got {}, closed form {}",
                    got[i],
                    want[i]
                );
            }
        };
        let col = |i: usize| (d[0][i], d[1][i], d[2][i]);

        // FedAvgM: m₁ = d₁, m₂ = β₁d₁ + d₂, m₃ = β₁²d₁ + β₁d₂ + d₃.
        check(
            ServerOptimizerChoice::FedAvgM,
            std::array::from_fn(|i| {
                let (d1, d2, d3) = col(i);
                let m = [d1, b1 * d1 + d2, b1 * b1 * d1 + b1 * d2 + d3];
                w0[i] + eta * (m[0] + m[1] + m[2])
            }),
        );

        // FedAdam and FedYogi share mₜ = (1−β₁)·Σₖ β₁^(t−k)·dₖ.
        let first = |i: usize| {
            let (d1, d2, d3) = col(i);
            [
                (1.0 - b1) * d1,
                (1.0 - b1) * (b1 * d1 + d2),
                (1.0 - b1) * (b1 * b1 * d1 + b1 * d2 + d3),
            ]
        };
        let step = |i: usize, v: [f64; 3]| {
            let m = first(i);
            w0[i]
                + (0..3)
                    .map(|t| eta * m[t] / (v[t].sqrt() + tau))
                    .sum::<f64>()
        };

        // FedAdam: vₜ = (1−β₂)·Σₖ β₂^(t−k)·dₖ².
        check(
            ServerOptimizerChoice::FedAdam,
            std::array::from_fn(|i| {
                let (d1, d2, d3) = col(i);
                let (s1, s2, s3) = (d1 * d1, d2 * d2, d3 * d3);
                let v = [
                    (1.0 - b2) * s1,
                    (1.0 - b2) * (b2 * s1 + s2),
                    (1.0 - b2) * (b2 * b2 * s1 + b2 * s2 + s3),
                ];
                step(i, v)
            }),
        );

        // FedYogi from v₀ = 0: while each dₜ² exceeds vₜ₋₁, the sign term
        // is −1 and v grows additively, vₜ = (1−β₂)·Σₖ dₖ².
        check(
            ServerOptimizerChoice::FedYogi,
            std::array::from_fn(|i| {
                let (d1, d2, d3) = col(i);
                let (s1, s2, s3) = (d1 * d1, d2 * d2, d3 * d3);
                let v = [
                    (1.0 - b2) * s1,
                    (1.0 - b2) * (s1 + s2),
                    (1.0 - b2) * (s1 + s2 + s3),
                ];
                assert!(
                    s2 > v[0] && s3 > v[1],
                    "parameter {i} leaves the additive regime"
                );
                step(i, v)
            }),
        );
    }

    #[test]
    fn adaptive_optimizers_are_deterministic() {
        for choice in ALL {
            let updates = vec![upd(0, vec![0.3, -0.7], 12), upd(1, vec![1.5, 0.2], 5)];
            let run = || {
                let mut opt = ServerOptimizer::new(choice);
                let mut g = vec![0.1f32, -0.2];
                for _ in 0..5 {
                    opt.aggregate(&mut g, &updates);
                }
                g.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(run(), run(), "{choice:?} not deterministic");
        }
    }

    #[test]
    fn empty_batch_applies_nothing_and_reports_zero() {
        for choice in ALL {
            let mut opt = ServerOptimizer::new(choice);
            let mut g = vec![1.0f32, 2.0];
            assert_eq!(opt.aggregate(&mut g, &[]), 0);
            assert_eq!(g, vec![1.0, 2.0], "{choice:?} moved on empty batch");
            assert!(opt.momentum.is_empty(), "{choice:?} grew state");
        }
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_delta_panics() {
        let mut opt = ServerOptimizer::new(ServerOptimizerChoice::FedAdam);
        let mut g = vec![0.0f32; 2];
        opt.apply(&mut g, &[1.0]);
    }
}
