//! Per-round cost computation: wire bytes at a given precision and the
//! composite compute/communication/memory cost of one local round.

use serde::{Deserialize, Serialize};

use crate::arch::ModelProfile;

/// Numeric precision of a serialized model update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Precision {
    /// 32-bit IEEE-754 floats (baseline).
    Fp32,
    /// 16-bit quantization.
    Int16,
    /// 8-bit quantization.
    Int8,
}

impl Precision {
    /// Bytes per scalar at this precision.
    pub fn bytes_per_param(self) -> f64 {
        match self {
            Precision::Fp32 => 4.0,
            Precision::Int16 => 2.0,
            Precision::Int8 => 1.0,
        }
    }
}

/// The resource cost of one client round, before it meets a device's
/// capability trace.
///
/// `float-sim` divides these quantities by the device's time-varying
/// throughput/bandwidth to obtain latencies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundCost {
    /// Total training FLOPs for the local round.
    pub train_flops: f64,
    /// Bytes downloaded (global model).
    pub download_bytes: f64,
    /// Bytes uploaded (model update).
    pub upload_bytes: f64,
    /// Peak resident training memory in bytes.
    pub memory_bytes: f64,
}

impl RoundCost {
    /// Cost of a vanilla (un-accelerated) local round: `epochs` passes over
    /// `samples` local samples at `batch_size`, exchanging fp32 models both
    /// ways.
    pub fn vanilla(
        profile: &ModelProfile,
        samples: usize,
        epochs: usize,
        batch_size: usize,
    ) -> Self {
        let train_flops = profile.train_flops_per_sample() * samples as f64 * epochs as f64;
        let model_bytes = profile.fp32_bytes() as f64;
        RoundCost {
            train_flops,
            download_bytes: model_bytes,
            upload_bytes: model_bytes,
            memory_bytes: profile.train_memory_bytes(batch_size) as f64,
        }
    }

    /// Scale compute by `f` (e.g. partial training trains only a fraction of
    /// parameters; pruning removes a fraction of FLOPs).
    pub fn scale_compute(mut self, f: f64) -> Self {
        self.train_flops *= f;
        self
    }

    /// Scale upload bytes by `f` (e.g. pruning/quantization shrinks the
    /// update).
    pub fn scale_upload(mut self, f: f64) -> Self {
        self.upload_bytes *= f;
        self
    }

    /// Scale memory by `f`.
    pub fn scale_memory(mut self, f: f64) -> Self {
        self.memory_bytes *= f;
        self
    }

    /// Re-price the upload at a different precision (quantization).
    pub fn with_upload_precision(mut self, p: Precision) -> Self {
        self.upload_bytes *= p.bytes_per_param() / 4.0;
        self
    }

    /// Add fixed extra compute (e.g. the cost of compressing an update).
    pub fn add_flops(mut self, flops: f64) -> Self {
        self.train_flops += flops;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;

    #[test]
    fn vanilla_cost_scales_with_epochs() {
        let p = Architecture::ResNet34.profile();
        let c1 = RoundCost::vanilla(&p, 100, 1, 20);
        let c5 = RoundCost::vanilla(&p, 100, 5, 20);
        assert!((c5.train_flops / c1.train_flops - 5.0).abs() < 1e-9);
        assert_eq!(c1.upload_bytes, c5.upload_bytes);
    }

    #[test]
    fn quantization_shrinks_upload_only() {
        let p = Architecture::ResNet18.profile();
        let base = RoundCost::vanilla(&p, 10, 1, 8);
        let q8 = base.with_upload_precision(Precision::Int8);
        assert!((q8.upload_bytes - base.upload_bytes / 4.0).abs() < 1e-6);
        assert_eq!(q8.download_bytes, base.download_bytes);
        assert_eq!(q8.train_flops, base.train_flops);
    }

    #[test]
    fn compute_scaling_composes() {
        let p = Architecture::ResNet18.profile();
        let base = RoundCost::vanilla(&p, 10, 1, 8);
        let half = base.scale_compute(0.5).scale_compute(0.5);
        assert!((half.train_flops - base.train_flops * 0.25).abs() < 1.0);
    }
}
