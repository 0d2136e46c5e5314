//! Property tests pinning the lazy-shard determinism contract: for any
//! population, seed, cache capacity, and access order, training shards
//! served by [`ShardCache`] are bit-identical to a direct
//! [`ShardSpec::train_shard`] derivation.

use proptest::prelude::*;

use float_data::federated::FederatedConfig;
use float_data::{ShardCache, ShardSpec, Task};

fn config(num_clients: usize, alpha: Option<f64>) -> FederatedConfig {
    FederatedConfig {
        task: Task::Cifar10,
        num_clients,
        mean_samples: 30,
        alpha,
        test_fraction: 0.25,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary (client, access-order) sequences through an arbitrary-
    /// capacity cache return exactly the shards the spec derives.
    #[test]
    fn cache_matches_spec_for_arbitrary_access_orders(
        seed in any::<u64>(),
        num_clients in 2usize..16,
        capacity in 1usize..9,
        alpha_pick in 0usize..3,
        accesses in prop::collection::vec(0usize..1024, 1..48),
    ) {
        let alpha = [None, Some(0.1), Some(1.0)][alpha_pick];
        let cfg = config(num_clients, alpha);
        let spec = ShardSpec::new(cfg, seed);
        let mut cache = ShardCache::new(spec.clone(), capacity);
        for a in accesses {
            let c = a % num_clients;
            let (train, want) = (cache.get(c), spec.train_shard(c));
            prop_assert_eq!(train.labels(), want.labels());
            prop_assert_eq!(train.features().data(), want.features().data());
            let stats = cache.stats();
            prop_assert!(stats.resident <= capacity);
            prop_assert!(stats.peak_resident <= capacity);
        }
    }

    /// The cache's hit/miss/eviction accounting is internally consistent
    /// for any access sequence.
    #[test]
    fn cache_accounting_is_consistent(
        seed in any::<u64>(),
        capacity in 1usize..6,
        accesses in prop::collection::vec(0usize..10, 1..64),
    ) {
        let cfg = config(10, Some(0.1));
        let mut cache = ShardCache::new(ShardSpec::new(cfg, seed), capacity);
        let total = accesses.len() as u64;
        for &c in &accesses {
            let _ = cache.get(c);
        }
        let s = cache.stats();
        prop_assert_eq!(s.hits + s.misses, total);
        prop_assert_eq!(s.misses, s.evictions + s.resident as u64);
        prop_assert!(s.resident <= s.peak_resident);
    }
}
