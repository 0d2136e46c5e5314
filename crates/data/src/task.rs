//! Task registry mirroring the paper's benchmark datasets.

use serde::{Deserialize, Serialize};

use crate::synthetic::SyntheticTaskConfig;

/// The benchmark tasks used in the paper's evaluation, each mapped to a
/// synthetic stand-in with matching class structure and calibrated
/// difficulty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Task {
    /// EMNIST (motivation experiments, §4): 47-class handwritten characters.
    Emnist,
    /// FEMNIST: 62-class federated handwritten characters.
    Femnist,
    /// CIFAR-10: 10-class natural images.
    Cifar10,
    /// OpenImage: large-scale image classification (596 trainable classes in
    /// FedScale's split; we model a 64-class hard task to keep the proxy
    /// tractable while preserving "hardest task" ordering).
    OpenImage,
    /// Google Speech Commands: 35 keywords; converges fast, low resource
    /// footprint.
    Speech,
}

impl Task {
    /// Every benchmark task.
    pub const ALL: [Task; 5] = [
        Task::Emnist,
        Task::Femnist,
        Task::Cifar10,
        Task::OpenImage,
        Task::Speech,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Task::Emnist => "emnist",
            Task::Femnist => "femnist",
            Task::Cifar10 => "cifar10",
            Task::OpenImage => "openimage",
            Task::Speech => "speech",
        }
    }

    /// The synthetic generator configuration for this task.
    ///
    /// `class_sep` controls how far apart class centroids are (higher ⇒
    /// easier task ⇒ faster convergence); the values are calibrated so the
    /// relative orderings reported in the paper hold: Speech converges
    /// fastest, OpenImage is hardest, FEMNIST/CIFAR-10 sit in between.
    pub fn synthetic_config(self) -> SyntheticTaskConfig {
        match self {
            Task::Emnist => SyntheticTaskConfig {
                num_classes: 47,
                feature_dim: 32,
                class_sep: 1.05,
                noise: 1.0,
            },
            Task::Femnist => SyntheticTaskConfig {
                num_classes: 62,
                feature_dim: 32,
                class_sep: 1.0,
                noise: 1.0,
            },
            Task::Cifar10 => SyntheticTaskConfig {
                num_classes: 10,
                feature_dim: 24,
                class_sep: 0.85,
                noise: 1.0,
            },
            Task::OpenImage => SyntheticTaskConfig {
                num_classes: 64,
                feature_dim: 40,
                class_sep: 0.75,
                noise: 1.2,
            },
            Task::Speech => SyntheticTaskConfig {
                num_classes: 35,
                feature_dim: 20,
                class_sep: 1.6,
                noise: 0.8,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_counts_match_real_datasets() {
        assert_eq!(Task::Femnist.synthetic_config().num_classes, 62);
        assert_eq!(Task::Cifar10.synthetic_config().num_classes, 10);
        assert_eq!(Task::Speech.synthetic_config().num_classes, 35);
        assert_eq!(Task::Emnist.synthetic_config().num_classes, 47);
    }

    #[test]
    fn speech_is_easiest_openimage_hardest() {
        let sep = |t: Task| t.synthetic_config().class_sep;
        for t in Task::ALL {
            if t != Task::Speech {
                assert!(sep(Task::Speech) > sep(t), "{}", t.name());
            }
            if t != Task::OpenImage {
                assert!(sep(Task::OpenImage) < sep(t), "{}", t.name());
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Task::ALL.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Task::ALL.len());
    }
}
