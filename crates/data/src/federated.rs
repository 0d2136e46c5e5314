//! Federated dataset parameters: how a task's data is sharded over
//! clients. [`crate::ShardSpec`] derives each client's train and test
//! shard from them on demand.

use serde::{Deserialize, Serialize};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lazy::ShardSpec;

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
        let a = ShardSpec::new(small(), 5);
        let b = ShardSpec::new(small(), 5);
        assert_eq!(a.num_clients(), b.num_clients());
        for i in 0..a.num_clients() {
            let (ta, tb) = (a.train_shard(i), b.train_shard(i));
            assert_eq!(ta.labels(), tb.labels());
            assert_eq!(ta.features().data(), tb.features().data());
        }
    }

    #[test]
    fn every_client_has_train_and_test_data() {
        let d = ShardSpec::new(small(), 2);
        for i in 0..d.num_clients() {
            let (train, test) = d.shard_pair(i);
            assert!(!train.is_empty(), "client {i} train empty");
            assert!(!test.is_empty(), "client {i} test empty");
        }
    }

    #[test]
    fn shards_share_feature_dim() {
        let d = ShardSpec::new(small(), 2);
        let dim = d.synthetic().feature_dim;
        for i in 0..d.num_clients() {
            let (train, test) = d.shard_pair(i);
            assert_eq!(train.dim(), dim);
            assert_eq!(test.dim(), dim);
        }
    }

    #[test]
    fn iid_config_reduces_label_skew() {
        use crate::partition::partition_skew;
        let mut cfg = small();
        cfg.alpha = None;
        cfg.num_clients = 30;
        cfg.mean_samples = 200;
        let iid = ShardSpec::new(cfg, 3);
        cfg.alpha = Some(0.05);
        let skewed = ShardSpec::new(cfg, 3);
        let hist = |d: &ShardSpec| -> Vec<Vec<usize>> {
            (0..d.num_clients())
                .map(|i| d.train_shard(i).label_histogram())
                .collect()
        };
        assert!(partition_skew(&hist(&iid)) + 0.2 < partition_skew(&hist(&skewed)));
    }
}
