//! Lazy, population-scale shard derivation: no client's data exists until
//! something reads it, so memory is O(cohort), not O(population).
//!
//! - [`ShardSpec`] makes each client's shard a *pure function* of
//!   `(config, seed, client)`. This works because every random quantity in
//!   shard construction lives on a per-client RNG stream: the partition
//!   row comes from `split_seed(partition_seed, client)` (see
//!   [`dirichlet_client_counts`]), and the train/test sample draws come
//!   from `split_seed(seed, 1000 + client)` / `split_seed(seed, 2000 +
//!   client)`. No client's stream ever feeds another's, so the order in
//!   which shards are derived cannot change any of them.
//! - [`ShardCache`] serves `Arc`-shared *training* shards through a
//!   bounded LRU keyed by a strictly increasing access clock, so resident
//!   training-data memory is bounded by the configured capacity no matter
//!   how large the population is. Eviction picks the unique minimum
//!   last-use stamp, so cache behaviour is a deterministic function of the
//!   access sequence alone. Test shards are not its business: their
//!   readers (the accel agent's reward, evaluation) derive them through
//!   the spec into a store of their own.
//!
//! [`dirichlet_client_counts`]: crate::partition::dirichlet_client_counts

use std::collections::HashMap;
use std::sync::Arc;

use float_tensor::rng::split_seed;
use float_tensor::Dataset;

use crate::federated::FederatedConfig;
use crate::partition::{dirichlet_client_counts, iid_client_counts};
use crate::synthetic::SyntheticTaskConfig;

/// The ±50% quantity skew [`crate::partition::dirichlet_partition`]
/// applies by default; `ShardSpec` must match it exactly so a client's
/// row equals that of the eager partition matrix.
const DEFAULT_QUANTITY_SKEW: f64 = 0.5;

/// Pure per-client shard derivation: each client's train/test shard is a
/// function of `(config, seed, client)` and nothing else.
///
/// The seed schedule: centroids from `seed`, partition rows from
/// `split_seed(seed, 1)`, train samples from `split_seed(seed, 1000 +
/// client)`, test samples from `split_seed(seed, 2000 + client)`.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    config: FederatedConfig,
    synth: SyntheticTaskConfig,
    /// Class centroids, shared by every client's sampler. O(classes × dim)
    /// — the only population-independent state worth keeping resident.
    centroids: Vec<Vec<f32>>,
    seed: u64,
}

impl ShardSpec {
    /// Build the spec (derives task parameters and class centroids; no
    /// per-client work).
    pub fn new(config: FederatedConfig, seed: u64) -> Self {
        let synth = config.task.synthetic_config();
        let centroids = synth.centroids(seed);
        ShardSpec {
            config,
            synth,
            centroids,
            seed,
        }
    }

    /// The synthetic task parameters (class count, dimensionality).
    pub fn synthetic(&self) -> &SyntheticTaskConfig {
        &self.synth
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.config.num_clients
    }

    /// Per-class sample counts of client `client` (train + test combined)
    /// — row `client` of the partition matrix, derived in isolation.
    fn client_counts(&self, client: usize) -> Vec<usize> {
        let part_seed = split_seed(self.seed, 1);
        match self.config.alpha {
            Some(a) => dirichlet_client_counts(
                client,
                self.synth.num_classes,
                self.config.mean_samples,
                a,
                DEFAULT_QUANTITY_SKEW,
                part_seed,
            ),
            None => iid_client_counts(
                client,
                self.synth.num_classes,
                self.config.mean_samples,
                part_seed,
            ),
        }
    }

    /// Split a client's combined counts into `(train, test)` counts using
    /// the config's test fraction.
    fn split_counts(&self, counts: &[usize]) -> (Vec<usize>, Vec<usize>) {
        let tf = self.config.test_fraction.clamp(0.0, 0.9);
        let train: Vec<usize> = counts
            .iter()
            .map(|&c| ((c as f64) * (1.0 - tf)).round() as usize)
            .collect();
        let test: Vec<usize> = counts
            .iter()
            .zip(&train)
            .map(|(&c, &t)| c.saturating_sub(t))
            .collect();
        (train, test)
    }

    /// Training shard of client `client`, derived on the spot.
    pub fn train_shard(&self, client: usize) -> Dataset {
        let (train_counts, _) = self.split_counts(&self.client_counts(client));
        self.synth.sample(
            &self.centroids,
            &train_counts,
            split_seed(self.seed, 1000 + client as u64),
        )
    }

    /// Test shard of client `client`, derived on the spot.
    pub fn test_shard(&self, client: usize) -> Dataset {
        let (_, test_counts) = self.split_counts(&self.client_counts(client));
        self.synth.sample(
            &self.centroids,
            &test_counts,
            split_seed(self.seed, 2000 + client as u64),
        )
    }

    /// Both shards of client `client`, sharing one partition-row
    /// derivation (cheaper than two separate calls).
    pub fn shard_pair(&self, client: usize) -> (Dataset, Dataset) {
        let (train_counts, test_counts) = self.split_counts(&self.client_counts(client));
        let train = self.synth.sample(
            &self.centroids,
            &train_counts,
            split_seed(self.seed, 1000 + client as u64),
        );
        let test = self.synth.sample(
            &self.centroids,
            &test_counts,
            split_seed(self.seed, 2000 + client as u64),
        );
        (train, test)
    }
}

/// Counters describing a [`ShardCache`]'s behaviour. All values are
/// deterministic functions of the access sequence (the cache's interior
/// state never depends on wall-clock time or thread scheduling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardCacheStats {
    /// Accesses served from a resident entry.
    pub hits: u64,
    /// Accesses that derived the training shard on the spot.
    pub misses: u64,
    /// Entries dropped to make room.
    pub evictions: u64,
    /// Training shards currently resident.
    pub resident: usize,
    /// The largest `resident` ever observed — the memory high-water mark,
    /// always `<= capacity`.
    pub peak_resident: usize,
    /// Configured bound on resident entries.
    pub capacity: usize,
}

/// One resident cache entry: the client's training shard plus its
/// last-use stamp from the access clock.
struct CacheEntry {
    train: Arc<Dataset>,
    last_used: u64,
}

/// A bounded, deterministic LRU cache over [`ShardSpec::train_shard`]
/// derivations.
///
/// `get` returns an `Arc` handle, so evicting an entry only drops the
/// cache's reference — callers that captured the shard (e.g. in-flight
/// attempt tasks) keep it alive until they finish. Least-recently-used
/// eviction uses a strictly increasing access clock, so the victim is
/// always unique and the cache's contents are a pure function of the
/// access sequence — no iteration-order or timing dependence.
pub struct ShardCache {
    spec: Arc<ShardSpec>,
    entries: HashMap<usize, CacheEntry>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    peak_resident: usize,
}

impl ShardCache {
    /// Wrap `spec` (owned, or an `Arc` shared with cache-free readers) in
    /// a cache bounded to `capacity` resident clients.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` (a cache that can hold nothing cannot
    /// hand out entries).
    pub fn new(spec: impl Into<Arc<ShardSpec>>, capacity: usize) -> Self {
        assert!(capacity > 0, "shard cache capacity must be positive");
        ShardCache {
            spec: spec.into(),
            entries: HashMap::new(),
            capacity,
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            peak_resident: 0,
        }
    }

    /// Behaviour counters (see [`ShardCacheStats`]).
    pub fn stats(&self) -> ShardCacheStats {
        ShardCacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            resident: self.entries.len(),
            peak_resident: self.peak_resident,
            capacity: self.capacity,
        }
    }

    /// The training shard of `client`, from cache or derived on the spot.
    pub fn get(&mut self, client: usize) -> Arc<Dataset> {
        self.clock += 1;
        if let Some(e) = self.entries.get_mut(&client) {
            e.last_used = self.clock;
            self.hits += 1;
            return Arc::clone(&e.train);
        }
        self.misses += 1;
        if self.entries.len() >= self.capacity {
            // Evict the least-recently-used entry. Stamps are unique
            // (strictly increasing clock), so the minimum is unique and
            // the choice is independent of HashMap iteration order.
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&c, _)| c)
                .expect("capacity > 0 and cache full implies an entry");
            self.entries.remove(&victim);
            self.evictions += 1;
        }
        let train = Arc::new(self.spec.train_shard(client));
        let entry = CacheEntry {
            train: Arc::clone(&train),
            last_used: self.clock,
        };
        self.entries.insert(client, entry);
        self.peak_resident = self.peak_resident.max(self.entries.len());
        train
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Task;
    use std::sync::Mutex;

    fn cfg(num_clients: usize) -> FederatedConfig {
        FederatedConfig {
            task: Task::Cifar10,
            num_clients,
            mean_samples: 40,
            alpha: Some(0.1),
            test_fraction: 0.25,
        }
    }

    fn assert_same(a: &Dataset, b: &Dataset) {
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.features().data(), b.features().data());
    }

    /// `train_shard` and `test_shard` each derive the partition row on
    /// their own; `shard_pair` shares it. All three must agree, in any
    /// order and across two specs built from the same `(config, seed)`.
    fn assert_split_derivations_equal_the_pair(c: FederatedConfig, seed: u64) {
        let spec = ShardSpec::new(c, seed);
        let twin = ShardSpec::new(c, seed);
        for i in [7usize, 0, 9, 3, 3, 1, 8] {
            let i = i % c.num_clients;
            let (train, test) = spec.shard_pair(i);
            assert_same(&train, &spec.train_shard(i));
            assert_same(&test, &spec.test_shard(i));
            assert_same(&train, &twin.train_shard(i));
            assert_same(&test, &twin.test_shard(i));
        }
    }

    #[test]
    fn split_derivations_equal_the_pair() {
        assert_split_derivations_equal_the_pair(cfg(10), 17);
    }

    #[test]
    fn iid_split_derivations_equal_the_pair() {
        let mut c = cfg(6);
        c.alpha = None;
        assert_split_derivations_equal_the_pair(c, 3);
    }

    #[test]
    fn cache_bounds_residency_and_counts_events() {
        let mut cache = ShardCache::new(ShardSpec::new(cfg(12), 5), 3);
        for i in 0..12 {
            let _ = cache.get(i);
            assert!(cache.stats().resident <= 3);
        }
        let s = cache.stats();
        assert_eq!(s.misses, 12);
        assert_eq!(s.hits, 0);
        assert_eq!(s.evictions, 9);
        assert_eq!(s.resident, 3);
        assert_eq!(s.peak_resident, 3);
        assert_eq!(s.capacity, 3);
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let mut cache = ShardCache::new(ShardSpec::new(cfg(6), 5), 2);
        let _ = cache.get(0);
        let _ = cache.get(1);
        let _ = cache.get(0); // refresh 0; LRU is now 1
        let _ = cache.get(2); // evicts 1
        let before = cache.stats().misses;
        let _ = cache.get(0); // still resident
        assert_eq!(cache.stats().misses, before, "0 should have been a hit");
        let _ = cache.get(1); // was evicted → miss
        assert_eq!(cache.stats().misses, before + 1);
    }

    #[test]
    fn cached_shards_equal_direct_derivation() {
        let spec = ShardSpec::new(cfg(8), 11);
        let mut cache = ShardCache::new(spec.clone(), 2);
        // Thrash the cache; every returned shard must still be the pure
        // derivation, bit for bit.
        for i in [5usize, 2, 7, 5, 0, 2, 5, 1, 6] {
            assert_same(&cache.get(i), &spec.train_shard(i));
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ShardCache::new(ShardSpec::new(cfg(2), 1), 0);
    }

    #[test]
    fn shared_store_derives_each_client_once() {
        // A population-wide store: capacity covers every client, so it
        // never evicts and each distinct client is derived exactly once.
        let store = Mutex::new(ShardCache::new(ShardSpec::new(cfg(6), 9), 6));
        for i in [3usize, 1, 3, 5, 1, 3, 0, 5] {
            let _ = store.lock().unwrap().get(i);
        }
        let s = store.lock().unwrap().stats();
        assert_eq!(s.misses, 4, "one derivation per distinct client");
        assert_eq!(s.hits, 4);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.resident, 4);
        assert_eq!(s.peak_resident, 4);
        assert_eq!(s.capacity, 6);
    }

    #[test]
    fn shared_store_matches_pure_derivation_across_threads() {
        let spec = Arc::new(ShardSpec::new(cfg(8), 21));
        let store = Mutex::new(ShardCache::new(Arc::clone(&spec), 8));
        // Hammer the store from several threads in scrambled orders; every
        // returned shard must be the pure derivation, bit for bit.
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let store = &store;
                let spec = &spec;
                scope.spawn(move || {
                    for k in 0..8usize {
                        let i = (k * 3 + t) % 8;
                        let train = store.lock().unwrap().get(i);
                        assert_same(&train, &spec.train_shard(i));
                    }
                });
            }
        });
        let s = store.lock().unwrap().stats();
        assert_eq!(s.misses, 8, "each client derived exactly once");
        assert_eq!(s.hits + s.misses, 32);
        assert_eq!(s.evictions, 0);
    }
}
