//! The metrics registry: counters, gauges, and fixed-bucket histograms.
//!
//! Registries are plain single-threaded value types — the "lock-free"
//! property comes from the architecture, not from atomics: parallel
//! workers hand their measurements back in the attempt result and the
//! sequential commit phase records them in commit order, so no two
//! threads ever touch a registry concurrently and enabling metrics cannot
//! perturb the runtime's determinism contract.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Upper bucket bounds for client round latency histograms, seconds.
/// Spans the deadline regimes of the paper configs (240 s tests up to the
/// 1800 s paper deadline and its stall overruns).
pub const LATENCY_BUCKETS_S: &[f64] = &[60.0, 120.0, 240.0, 480.0, 900.0, 1800.0, 2400.0, 3600.0];

/// Upper bucket bounds for update payload sizes, bytes (the wire delta
/// after the acceleration transform).
pub const PAYLOAD_BUCKETS_BYTES: &[f64] = &[
    1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0, 4194304.0,
];

/// Upper bucket bounds for per-round cohort utilization (completed /
/// selected, in `[0, 1]`).
pub const UTILIZATION_BUCKETS: &[f64] = &[0.1, 0.25, 0.5, 0.75, 0.9, 1.0];

/// Upper bucket bounds for the profiler's relative estimate error,
/// `|predicted − actual| / actual` on completed attempts. Geometric
/// spacing: the first bucket is "within 5%", the overflow bucket is
/// "off by more than 160%" (cold or badly drifted estimates).
pub const ESTIMATE_ERROR_BUCKETS: &[f64] = &[0.05, 0.1, 0.2, 0.4, 0.8, 1.6];

/// A fixed-bucket histogram. Buckets are cumulative-style upper bounds
/// with an implicit `+inf` overflow bucket; `min`/`max`/`sum` track the
/// raw observations for summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: &'static [f64],
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram over `bounds` upper bucket edges (ascending) plus an
    /// implicit overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &'static [f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation. Non-finite values land in the overflow
    /// bucket and are excluded from `sum`/`min`/`max`, so a hostile value
    /// cannot poison the summary statistics.
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        if !v.is_finite() {
            *self.counts.last_mut().expect("counts never empty") += 1;
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total observations (including non-finite ones).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Immutable snapshot for reports and serialization.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: if self.min.is_finite() { self.min } else { 0.0 },
            max: if self.max.is_finite() { self.max } else { 0.0 },
            buckets: self
                .bounds
                .iter()
                .copied()
                .chain(std::iter::once(f64::INFINITY))
                .zip(self.counts.iter().copied())
                .collect(),
        }
    }
}

/// Serializable snapshot of a [`Histogram`]: `(upper_bound, count)` pairs
/// with the final `+inf` overflow bucket, plus summary statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Total observations.
    pub count: u64,
    /// Sum of finite observations.
    pub sum: f64,
    /// Minimum finite observation (0 when empty).
    pub min: f64,
    /// Maximum finite observation (0 when empty).
    pub max: f64,
    /// `(upper_bound, count)` per bucket; the last bound serializes as
    /// `null` (the shim writes non-finite floats as null) and reads back
    /// as the `+inf` overflow bucket.
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSummary {
    /// Mean of finite observations (0 when empty).
    pub fn mean(&self) -> f64 {
        let finite: u64 = self.count;
        if finite == 0 {
            0.0
        } else {
            self.sum / finite as f64
        }
    }
}

/// A named collection of counters, gauges, and histograms. Keys are
/// `&'static str` metric names; iteration order is the `BTreeMap`'s
/// lexicographic order, so snapshots are deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Add `delta` to the named counter (created at 0 on first touch).
    pub fn inc(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Set the named gauge.
    pub fn set_gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Record an observation into the named histogram, creating it with
    /// `bounds` on first touch.
    pub fn observe(&mut self, name: &'static str, bounds: &'static [f64], value: f64) {
        self.histograms
            .entry(name)
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// Counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// Gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(&k, &v)| (k, v))
    }

    /// Histogram summaries in name order.
    pub fn histogram_summaries(
        &self,
    ) -> impl Iterator<Item = (&'static str, HistogramSummary)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v.summary()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        for v in [0.5, 5.0, 50.0, 500.0] {
            h.observe(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 4);
        assert_eq!(
            s.buckets.iter().map(|&(_, c)| c).collect::<Vec<_>>(),
            vec![1, 1, 1, 1]
        );
        assert!((s.sum - 555.5).abs() < 1e-9);
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 500.0);
        assert!((s.mean() - 555.5 / 4.0).abs() < 1e-9);
        // Boundary values land in the bucket whose bound they equal.
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.observe(1.0);
        assert_eq!(h.summary().buckets[0].1, 1);
    }

    #[test]
    fn histogram_quarantines_non_finite() {
        let mut h = Histogram::new(&[1.0]);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(0.5);
        let s = h.summary();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets.last().expect("overflow").1, 2);
        assert_eq!(s.sum, 0.5);
        assert_eq!(s.max, 0.5);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[10.0, 1.0]);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut r = MetricsRegistry::new();
        r.inc("attempts", 2);
        r.inc("attempts", 3);
        r.set_gauge("battery", 0.8);
        r.observe("latency_s", LATENCY_BUCKETS_S, 100.0);
        assert_eq!(r.counters.get("attempts"), Some(&5));
        assert_eq!(r.counters.get("never"), None);
        assert_eq!(r.gauges.get("battery"), Some(&0.8));
        assert_eq!(r.histograms["latency_s"].count(), 1);
        // Deterministic name-ordered iteration.
        r.inc("aaa", 1);
        let names: Vec<&str> = r.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["aaa", "attempts"]);
    }

    #[test]
    fn summary_serde_roundtrip() {
        let mut h = Histogram::new(UTILIZATION_BUCKETS);
        h.observe(0.6);
        h.observe(1.0);
        let s = h.summary();
        let json = serde_json::to_string(&s).expect("serializes");
        let back: HistogramSummary = serde_json::from_str(&json).expect("deserializes");
        // The +inf bound serializes as null and reads back as NaN; compare
        // everything else exactly.
        assert_eq!(back.count, s.count);
        assert_eq!(back.sum, s.sum);
        assert_eq!(back.min, s.min);
        assert_eq!(back.max, s.max);
        assert_eq!(back.buckets.len(), s.buckets.len());
        for ((bb, bc), (sb, sc)) in back.buckets.iter().zip(&s.buckets) {
            assert_eq!(bc, sc);
            assert!(bb == sb || (!bb.is_finite() && !sb.is_finite()));
        }
    }
}
