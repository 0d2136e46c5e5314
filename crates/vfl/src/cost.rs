//! Resource costing for vertical FL rounds and FLOAT's per-party
//! acceleration pricing.
//!
//! VFL communication differs fundamentally from horizontal FL: parties
//! ship *per-sample embeddings* every batch (up the split) and receive
//! embedding gradients (down the split), rather than exchanging model
//! parameters once per round. The wire volume therefore scales with the
//! number of samples and the embedding width — which is why embedding
//! quantization is the dominant acceleration in VFL, while pruning mostly
//! saves party-side compute.

use serde::{Deserialize, Serialize};

use float_accel::AccelAction;
use float_models::Precision;

/// Round structure of a VFL training epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VflRound {
    /// Samples processed this round.
    pub samples: usize,
    /// Embedding width per party.
    pub embed_dim: usize,
    /// Parameters in the party's bottom model.
    pub party_params: usize,
    /// Forward+backward FLOPs per sample for the party's bottom model.
    pub party_flops_per_sample: f64,
}

impl VflRound {
    /// Build the round structure from model dimensions: a `d → e` linear
    /// bottom model costs `2·d·e` FLOPs forward per sample and ~2× that
    /// backward.
    pub fn new(samples: usize, input_dim: usize, embed_dim: usize) -> Self {
        let fwd = 2.0 * input_dim as f64 * embed_dim as f64;
        VflRound {
            samples,
            embed_dim,
            party_params: input_dim * embed_dim + embed_dim,
            party_flops_per_sample: 3.0 * fwd,
        }
    }
}

/// One party's resource bill for a VFL round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartyCost {
    /// Compute, FLOPs.
    pub flops: f64,
    /// Embeddings shipped up, bytes.
    pub upload_bytes: f64,
    /// Embedding gradients received, bytes.
    pub download_bytes: f64,
}

impl PartyCost {
    /// Vanilla (fp32) cost of a round.
    fn vanilla(round: &VflRound) -> Self {
        let wire = round.samples as f64 * round.embed_dim as f64 * 4.0;
        PartyCost {
            flops: round.party_flops_per_sample * round.samples as f64,
            upload_bytes: wire,
            download_bytes: wire,
        }
    }
}

/// Price a FLOAT acceleration action for one party's VFL round.
///
/// - Quantization shrinks the embedding wire volume (both directions can
///   be grid-coded).
/// - Pruning removes bottom-model weights: compute shrinks
///   proportionally; the embedding wire volume is unchanged (embeddings
///   stay dense).
/// - Partial training freezes bottom parameters: backward compute
///   shrinks; wire volume unchanged.
/// - Compression / top-k act on the embedding stream.
pub fn accelerated_party_cost(round: &VflRound, action: AccelAction) -> PartyCost {
    let base = PartyCost::vanilla(round);
    match action {
        AccelAction::NoOp => base,
        AccelAction::Quantize16 | AccelAction::Quantize8 => {
            let p = if action == AccelAction::Quantize16 {
                Precision::Int16
            } else {
                Precision::Int8
            };
            let scale = p.bytes_per_param() / 4.0;
            PartyCost {
                flops: base.flops + 2.0 * round.samples as f64 * round.embed_dim as f64,
                upload_bytes: base.upload_bytes * scale,
                download_bytes: base.download_bytes * scale,
            }
        }
        AccelAction::Prune25 | AccelAction::Prune50 | AccelAction::Prune75 => {
            let keep = match action {
                AccelAction::Prune25 => 0.75,
                AccelAction::Prune50 => 0.50,
                _ => 0.25,
            };
            PartyCost {
                flops: base.flops * keep,
                ..base
            }
        }
        AccelAction::Partial25 | AccelAction::Partial50 | AccelAction::Partial75 => {
            let frozen = match action {
                AccelAction::Partial25 => 0.25,
                AccelAction::Partial50 => 0.50,
                _ => 0.75,
            };
            // Forward unchanged (1/3), backward scales with trainable
            // fraction (2/3).
            let mult = 1.0 / 3.0 + 2.0 / 3.0 * (1.0 - frozen);
            PartyCost {
                flops: base.flops * mult,
                ..base
            }
        }
        AccelAction::CompressLossless => PartyCost {
            // Embeddings are near-random floats; honest lossless codecs
            // only shave the shared exponent plane (~15 %).
            flops: base.flops + 30.0 * round.samples as f64 * round.embed_dim as f64,
            upload_bytes: base.upload_bytes * 0.85,
            download_bytes: base.download_bytes,
        },
        AccelAction::TopK10 => PartyCost {
            flops: base.flops,
            upload_bytes: base.upload_bytes * 0.2, // indices + values at 10 %
            download_bytes: base.download_bytes,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round() -> VflRound {
        VflRound::new(256, 16, 8)
    }

    #[test]
    fn vanilla_wire_scales_with_samples_and_width() {
        let small = PartyCost::vanilla(&VflRound::new(100, 16, 8));
        let big = PartyCost::vanilla(&VflRound::new(200, 16, 8));
        assert!((big.upload_bytes / small.upload_bytes - 2.0).abs() < 1e-9);
        let wide = PartyCost::vanilla(&VflRound::new(100, 16, 16));
        assert!((wide.upload_bytes / small.upload_bytes - 2.0).abs() < 1e-9);
    }

    #[test]
    fn quantization_cuts_wire_both_ways() {
        let r = round();
        let base = PartyCost::vanilla(&r);
        let q8 = accelerated_party_cost(&r, AccelAction::Quantize8);
        assert!((q8.upload_bytes - base.upload_bytes / 4.0).abs() < 1e-9);
        assert!((q8.download_bytes - base.download_bytes / 4.0).abs() < 1e-9);
        assert!(q8.flops > base.flops);
    }

    #[test]
    fn pruning_cuts_compute_not_wire() {
        let r = round();
        let base = PartyCost::vanilla(&r);
        let p75 = accelerated_party_cost(&r, AccelAction::Prune75);
        assert!((p75.flops - base.flops * 0.25).abs() < 1e-6);
        assert_eq!(p75.upload_bytes, base.upload_bytes);
    }

    #[test]
    fn partial_training_cuts_backward_only() {
        let r = round();
        let base = PartyCost::vanilla(&r);
        let p75 = accelerated_party_cost(&r, AccelAction::Partial75);
        assert!(p75.flops < base.flops);
        assert!(p75.flops > base.flops / 3.0 - 1e-6);
        assert_eq!(p75.upload_bytes, base.upload_bytes);
    }

    #[test]
    fn quantization_dominates_for_network_bound_vfl() {
        // The VFL-specific lesson: when the embedding stream is the
        // bottleneck, only quantization/top-k reduce it.
        let r = round();
        let q8 = accelerated_party_cost(&r, AccelAction::Quantize8);
        let p75 = accelerated_party_cost(&r, AccelAction::Prune75);
        assert!(q8.upload_bytes < p75.upload_bytes);
    }
}
