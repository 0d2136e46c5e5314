//! `float-data` — synthetic federated datasets and non-IID partitioning.
//!
//! The paper evaluates on FEMNIST, CIFAR-10, OpenImage, and Google Speech
//! Commands, partitioned across clients with a Dirichlet distribution.
//! Those datasets are not available offline, so this crate builds the
//! closest synthetic equivalent: each *task* is a Gaussian-mixture
//! classification problem with the same class count as the real dataset and
//! a difficulty knob calibrated so that relative convergence behaviour
//! (Speech converges fast, OpenImage is hard) is preserved. Partitioning
//! uses the standard Dirichlet(α) label-skew scheme from Hsu et al., which
//! is exactly what FedScale and the paper use — so the per-client label
//! statistics that drive FLOAT's accuracy phenomena are faithful.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod federated;
pub mod lazy;
pub mod partition;
pub mod synthetic;
pub mod task;

pub use federated::FederatedDataset;
pub use lazy::{ShardCache, ShardCacheStats, ShardSpec};
pub use partition::{
    dirichlet_client_counts, dirichlet_partition, dirichlet_partition_with_quantity_skew,
    iid_client_counts, iid_partition, PartitionSpec,
};
pub use synthetic::SyntheticTaskConfig;
pub use task::Task;
