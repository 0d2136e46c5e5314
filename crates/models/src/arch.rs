//! Architecture descriptors: parameter counts, FLOPs, memory footprints.

use serde::{Deserialize, Serialize};

/// The model architectures the FLOAT paper evaluates with (plus a couple of
/// extras for completeness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Architecture {
    /// ResNet-18 — used to pre-train the RLHF agent (Fig. 9).
    ResNet18,
    /// ResNet-34 — the end-to-end evaluation model (Fig. 12).
    ResNet34,
    /// ResNet-50 — the transfer-target model (Fig. 9).
    ResNet50,
    /// ShuffleNet-v2 — the OpenImage evaluation model (Fig. 13).
    ShuffleNetV2,
    /// MobileNet-v2 — a common FedScale benchmark model (extension).
    MobileNetV2,
    /// A small CNN of the kind used for Speech Commands keyword spotting.
    SpeechCnn,
}

impl Architecture {
    /// The published cost profile of this architecture.
    ///
    /// Parameter counts and inference FLOPs are the standard ImageNet-scale
    /// numbers from the original papers; backward cost is modeled as 2×
    /// forward (the usual rule of thumb), giving ~3× forward per training
    /// step.
    pub fn profile(self) -> ModelProfile {
        match self {
            Architecture::ResNet18 => ModelProfile::new(self, 11_689_512, 1.82e9),
            Architecture::ResNet34 => ModelProfile::new(self, 21_797_672, 3.67e9),
            Architecture::ResNet50 => ModelProfile::new(self, 25_557_032, 4.12e9),
            Architecture::ShuffleNetV2 => ModelProfile::new(self, 2_278_604, 1.46e8),
            Architecture::MobileNetV2 => ModelProfile::new(self, 3_504_872, 3.00e8),
            Architecture::SpeechCnn => ModelProfile::new(self, 885_000, 4.50e7),
        }
    }

    /// Short display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Architecture::ResNet18 => "resnet18",
            Architecture::ResNet34 => "resnet34",
            Architecture::ResNet50 => "resnet50",
            Architecture::ShuffleNetV2 => "shufflenet_v2",
            Architecture::MobileNetV2 => "mobilenet_v2",
            Architecture::SpeechCnn => "speech_cnn",
        }
    }
}

/// Cost profile of a model architecture, the only facts the resource
/// simulator consumes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelProfile {
    /// Which architecture this profile describes.
    pub arch: Architecture,
    /// Trainable parameter count.
    pub params: u64,
    /// Forward-pass FLOPs for one sample.
    pub forward_flops: f64,
}

impl ModelProfile {
    /// Build a profile from raw counts.
    pub fn new(arch: Architecture, params: u64, forward_flops: f64) -> Self {
        ModelProfile {
            arch,
            params,
            forward_flops,
        }
    }

    /// FLOPs for one *training* step on one sample (forward + backward ≈ 3×
    /// forward).
    pub fn train_flops_per_sample(&self) -> f64 {
        3.0 * self.forward_flops
    }

    /// Model size in bytes at full fp32 precision.
    pub fn fp32_bytes(&self) -> u64 {
        self.params * 4
    }

    /// Peak training memory in bytes: parameters + gradients + optimizer
    /// state + activations (approximated as 2× parameters for the
    /// small-batch regimes used in cross-device FL).
    pub fn train_memory_bytes(&self, batch_size: usize) -> u64 {
        let weights = self.fp32_bytes();
        let grads = weights;
        let act_per_sample = weights / 4; // activation footprint heuristic
        weights + grads + act_per_sample * batch_size as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every supported architecture.
    const ALL: [Architecture; 6] = [
        Architecture::ResNet18,
        Architecture::ResNet34,
        Architecture::ResNet50,
        Architecture::ShuffleNetV2,
        Architecture::MobileNetV2,
        Architecture::SpeechCnn,
    ];

    #[test]
    fn profiles_have_sane_ordering() {
        let r18 = Architecture::ResNet18.profile();
        let r34 = Architecture::ResNet34.profile();
        let r50 = Architecture::ResNet50.profile();
        let shuffle = Architecture::ShuffleNetV2.profile();
        assert!(r18.params < r34.params && r34.params < r50.params);
        assert!(shuffle.params < r18.params);
        assert!(shuffle.forward_flops < r18.forward_flops);
    }

    #[test]
    fn training_flops_exceed_forward() {
        for a in ALL {
            let p = a.profile();
            assert!(p.train_flops_per_sample() > p.forward_flops);
        }
    }

    #[test]
    fn memory_grows_with_batch() {
        let p = Architecture::ResNet34.profile();
        assert!(p.train_memory_bytes(32) > p.train_memory_bytes(1));
    }

    #[test]
    fn fp32_bytes_is_four_per_param() {
        let p = Architecture::ShuffleNetV2.profile();
        assert_eq!(p.fp32_bytes(), p.params * 4);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len());
    }
}
