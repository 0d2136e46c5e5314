//! Federated dataset: per-client train shards plus per-client test shards.

use serde::{Deserialize, Serialize};

use float_tensor::Dataset;

use crate::lazy::ShardSpec;
use crate::synthetic::SyntheticTaskConfig;
use crate::task::Task;

/// Federated dataset construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FederatedConfig {
    /// Benchmark task (class count, difficulty).
    pub task: Task,
    /// Number of clients to shard over.
    pub num_clients: usize,
    /// Mean training samples per client.
    pub mean_samples: usize,
    /// Dirichlet α; `None` ⇒ IID.
    pub alpha: Option<f64>,
    /// Fraction of each client's data held out for local evaluation
    /// (the paper evaluates accuracy on clients' non-IID local data, §6.1).
    pub test_fraction: f64,
}

impl FederatedConfig {
    /// A paper-standard configuration: 200 clients, Dirichlet α.
    pub fn paper_default(task: Task, alpha: f64) -> Self {
        FederatedConfig {
            task,
            num_clients: 200,
            mean_samples: 120,
            alpha: Some(alpha),
            test_fraction: 0.25,
        }
    }
}

/// A fully materialized federated dataset: one train and one test shard per
/// client, all drawn from shared class-conditional distributions.
#[derive(Debug, Clone)]
pub struct FederatedDataset {
    config: FederatedConfig,
    train: Vec<Dataset>,
    test: Vec<Dataset>,
    synth: SyntheticTaskConfig,
}

impl FederatedDataset {
    /// Generate a federated dataset deterministically from `(config, seed)`.
    ///
    /// Delegates per-client work to [`ShardSpec`], the lazy derivation the
    /// population-scale runtime uses — eager generation is just "derive
    /// every client now", so the two paths are bit-identical by
    /// construction (pinned by the `lazy_shards` proptest).
    pub fn generate(config: FederatedConfig, seed: u64) -> Self {
        let spec = ShardSpec::new(config, seed);
        let mut train = Vec::with_capacity(config.num_clients);
        let mut test = Vec::with_capacity(config.num_clients);
        for i in 0..config.num_clients {
            let (tr, te) = spec.shard_pair(i);
            train.push(tr);
            test.push(te);
        }
        FederatedDataset {
            config,
            train,
            test,
            synth: *spec.synthetic(),
        }
    }

    /// Construction parameters.
    pub fn config(&self) -> &FederatedConfig {
        &self.config
    }

    /// The synthetic task parameters (class count, dimensionality).
    pub fn synthetic(&self) -> &SyntheticTaskConfig {
        &self.synth
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.train.len()
    }

    /// Training shard of client `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn train_shard(&self, i: usize) -> &Dataset {
        &self.train[i]
    }

    /// Test shard of client `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn test_shard(&self, i: usize) -> &Dataset {
        &self.test[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FederatedConfig {
        FederatedConfig {
            task: Task::Cifar10,
            num_clients: 8,
            mean_samples: 40,
            alpha: Some(0.1),
            test_fraction: 0.25,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = FederatedDataset::generate(small(), 5);
        let b = FederatedDataset::generate(small(), 5);
        assert_eq!(a.num_clients(), b.num_clients());
        for i in 0..a.num_clients() {
            assert_eq!(a.train_shard(i).labels(), b.train_shard(i).labels());
            assert_eq!(
                a.train_shard(i).features().data(),
                b.train_shard(i).features().data()
            );
        }
    }

    #[test]
    fn every_client_has_train_and_test_data() {
        let d = FederatedDataset::generate(small(), 2);
        for i in 0..d.num_clients() {
            assert!(!d.train_shard(i).is_empty(), "client {i} train empty");
            assert!(!d.test_shard(i).is_empty(), "client {i} test empty");
        }
    }

    #[test]
    fn shards_share_feature_dim() {
        let d = FederatedDataset::generate(small(), 2);
        let dim = d.synthetic().feature_dim;
        for i in 0..d.num_clients() {
            assert_eq!(d.train_shard(i).dim(), dim);
            assert_eq!(d.test_shard(i).dim(), dim);
        }
    }

    #[test]
    fn iid_config_reduces_label_skew() {
        use crate::partition::partition_skew;
        let mut cfg = small();
        cfg.alpha = None;
        cfg.num_clients = 30;
        cfg.mean_samples = 200;
        let iid = FederatedDataset::generate(cfg, 3);
        cfg.alpha = Some(0.05);
        let skewed = FederatedDataset::generate(cfg, 3);
        let hist = |d: &FederatedDataset| -> Vec<Vec<usize>> {
            (0..d.num_clients())
                .map(|i| d.train_shard(i).label_histogram())
                .collect()
        };
        assert!(partition_skew(&hist(&iid)) + 0.2 < partition_skew(&hist(&skewed)));
    }
}
