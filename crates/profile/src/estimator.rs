//! Streaming estimators: EWMA and the P² online quantile.
//!
//! Both are pure folds over their input sequence — no RNG, no clock, no
//! allocation beyond a fixed-size marker array — so feeding the same
//! values in the same order reproduces the same bits on any machine and
//! any worker-thread count. That is the determinism contract the
//! profiler is built on (DESIGN.md §17).

use serde::{Deserialize, Serialize};

/// Exponentially weighted moving average with the fixed smoothing factor
/// 0.3 (the newest sample's weight).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Ewma {
    value: Option<f64>,
}

impl Ewma {
    /// Weight of the newest sample. Every profiler estimate (latency,
    /// bandwidth, compute) smooths with it.
    const ALPHA: f64 = 0.3;

    /// A fresh estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one sample in. The first sample seeds the estimate exactly.
    pub fn observe(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => Self::ALPHA * x + (1.0 - Self::ALPHA) * v,
        });
    }

    /// Current estimate, `None` before any sample.
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

/// P² streaming quantile estimator (Jain & Chlamtac, CACM 1985).
///
/// Tracks a single quantile `p` with five markers and O(1) update cost.
/// The first five samples are held exactly (and `value()` returns the
/// exact quantile of the sorted prefix); from the sixth sample on the
/// markers move by the parabolic/linear P² rules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights (estimates of the q(0), q(p/2), q(p), q((1+p)/2), q(1)).
    q: [f64; 5],
    /// Actual marker positions (1-indexed sample counts).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Desired-position increments per sample.
    dn: [f64; 5],
    count: u64,
}

impl P2Quantile {
    /// A fresh estimator for quantile `p` in (0, 1).
    pub fn new(p: f64) -> Self {
        Self {
            p,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
        }
    }

    /// Fold one sample in.
    pub fn observe(&mut self, x: f64) {
        if self.count < 5 {
            // Initialization: keep the first five samples sorted in q.
            let mut i = self.count as usize;
            self.q[i] = x;
            while i > 0 && self.q[i - 1] > self.q[i] {
                self.q.swap(i - 1, i);
                i -= 1;
            }
            self.count += 1;
            return;
        }
        self.count += 1;

        // Find the cell k such that q[k] <= x < q[k+1], extending the
        // extreme markers when x falls outside the current range.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x < self.q[1] {
            0
        } else if x < self.q[2] {
            1
        } else if x < self.q[3] {
            2
        } else if x <= self.q[4] {
            3
        } else {
            self.q[4] = x;
            3
        };

        for i in (k + 1)..5 {
            self.n[i] += 1.0;
        }
        for i in 0..5 {
            self.np[i] += self.dn[i];
        }

        // Adjust the three interior markers toward their desired
        // positions, parabolic first, linear when that would break
        // monotonicity.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let d = d.signum();
                let qp = self.parabolic(i, d);
                if self.q[i - 1] < qp && qp < self.q[i + 1] {
                    self.q[i] = qp;
                } else {
                    self.q[i] = self.linear(i, d);
                }
                self.n[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (qm, qi, qp) = (self.q[i - 1], self.q[i], self.q[i + 1]);
        let (nm, ni, np) = (self.n[i - 1], self.n[i], self.n[i + 1]);
        qi + d / (np - nm)
            * ((ni - nm + d) * (qp - qi) / (np - ni) + (np - ni - d) * (qi - qm) / (ni - nm))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
    }

    /// Current quantile estimate, `None` before any sample. Exact for
    /// the first five samples, P²-approximate after.
    pub fn value(&self) -> Option<f64> {
        match self.count {
            0 => None,
            c if c < 5 => {
                // Exact quantile of the sorted prefix (nearest-rank).
                let len = c as usize;
                let rank = (self.p * (len - 1) as f64).round() as usize;
                Some(self.q[rank.min(len - 1)])
            }
            _ => Some(self.q[2]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_quantile(sorted: &[f64], p: f64) -> f64 {
        let rank = (p * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank]
    }

    #[test]
    fn ewma_seeds_then_smooths() {
        let mut e = Ewma::new();
        assert_eq!(e.value(), None);
        e.observe(10.0);
        assert_eq!(e.value(), Some(10.0));
        e.observe(20.0);
        assert!((e.value().unwrap() - 13.0).abs() < 1e-12);
        // The rate is a constant, not a field: the estimator is the bare
        // `Option<f64>`.
        assert_eq!(std::mem::size_of::<Ewma>(), 16);
    }

    #[test]
    fn p2_tracks_the_median_of_a_deterministic_stream() {
        // LCG stream, uniform-ish in [0, 1).
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut xs = Vec::new();
        let mut p50 = P2Quantile::new(0.5);
        let mut p90 = P2Quantile::new(0.9);
        for _ in 0..5000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (state >> 11) as f64 / (1u64 << 53) as f64;
            xs.push(x);
            p50.observe(x);
            p90.observe(x);
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let exact50 = exact_quantile(&xs, 0.5);
        let exact90 = exact_quantile(&xs, 0.9);
        assert!(
            (p50.value().unwrap() - exact50).abs() < 0.02,
            "p50 {} vs exact {}",
            p50.value().unwrap(),
            exact50
        );
        assert!(
            (p90.value().unwrap() - exact90).abs() < 0.02,
            "p90 {} vs exact {}",
            p90.value().unwrap(),
            exact90
        );
    }

    #[test]
    fn p2_is_exact_below_five_samples() {
        let mut q = P2Quantile::new(0.5);
        assert_eq!(q.value(), None);
        for (i, x) in [5.0, 1.0, 3.0].iter().enumerate() {
            q.observe(*x);
            assert_eq!(q.count, i as u64 + 1);
        }
        // Sorted prefix is [1, 3, 5]; median is 3.
        assert_eq!(q.value(), Some(3.0));
    }

    #[test]
    fn p2_is_a_pure_fold() {
        let xs: Vec<f64> = (0..200).map(|i| ((i * 37) % 101) as f64).collect();
        let mut a = P2Quantile::new(0.9);
        let mut b = P2Quantile::new(0.9);
        for x in &xs {
            a.observe(*x);
            b.observe(*x);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn p2_handles_constant_streams() {
        let mut q = P2Quantile::new(0.5);
        for _ in 0..100 {
            q.observe(7.0);
        }
        assert_eq!(q.value(), Some(7.0));
    }
}
