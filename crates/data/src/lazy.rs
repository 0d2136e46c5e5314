//! Lazy, population-scale shard derivation.
//!
//! [`FederatedDataset::generate`] materializes every client's train and
//! test shard up front — fine at 200 clients, ruinous at 1M. This module
//! provides the O(cohort)-memory alternative the population-scale runtime
//! uses:
//!
//! - [`ShardSpec`] makes each client's shard a *pure function* of
//!   `(config, seed, client)`. This works because every random quantity in
//!   shard construction already lives on a per-client RNG stream: the
//!   partition row comes from `split_seed(partition_seed, client)` (see
//!   [`dirichlet_client_counts`]), and the train/test sample draws come
//!   from `split_seed(seed, 1000 + client)` / `split_seed(seed, 2000 +
//!   client)`. No client's stream ever feeds another's, so deriving one
//!   shard in isolation is bit-identical to generating the whole
//!   population eagerly — a property pinned by the `lazy_shards` proptest.
//! - [`ShardCache`] serves `Arc`-shared shard pairs through a bounded LRU
//!   keyed by a strictly increasing access clock, so resident
//!   training-data memory is bounded by the configured capacity no matter
//!   how large the population is. Eviction picks the unique minimum
//!   last-use stamp, so cache behaviour is a deterministic function of the
//!   access sequence alone.
//!
//! [`FederatedDataset::generate`]: crate::FederatedDataset::generate
//! [`dirichlet_client_counts`]: crate::partition::dirichlet_client_counts

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use float_tensor::rng::split_seed;
use float_tensor::Dataset;

use crate::federated::FederatedConfig;
use crate::partition::{dirichlet_client_counts, iid_client_counts};
use crate::synthetic::SyntheticTaskConfig;

/// The ±50% quantity skew [`crate::partition::dirichlet_partition`]
/// applies by default; `ShardSpec` must match it exactly to stay
/// bit-identical with the eager path.
const DEFAULT_QUANTITY_SKEW: f64 = 0.5;

/// Pure per-client shard derivation: each client's train/test shard is a
/// function of `(config, seed, client)` and nothing else.
///
/// The seed schedule matches [`crate::FederatedDataset::generate`]
/// exactly: centroids from `seed`, partition rows from `split_seed(seed,
/// 1)`, train samples from `split_seed(seed, 1000 + client)`, test
/// samples from `split_seed(seed, 2000 + client)`.
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
        self.config.num_clients
    }

    /// Per-class sample counts of client `client` (train + test combined)
    /// — row `client` of the partition matrix, derived in isolation.
    pub fn client_counts(&self, client: usize) -> Vec<usize> {
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
    /// the config's test fraction — the same arithmetic as the eager path.
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
    /// Accesses that derived the shard pair on the spot.
    pub misses: u64,
    /// Entries dropped to make room.
    pub evictions: u64,
    /// Client shard pairs currently resident.
    pub resident: usize,
    /// The largest `resident` ever observed — the memory high-water mark,
    /// always `<= capacity`.
    pub peak_resident: usize,
    /// Configured bound on resident entries.
    pub capacity: usize,
}

/// One resident cache entry: the client's shard pair plus its last-use
/// stamp from the access clock.
struct CacheEntry {
    train: Arc<Dataset>,
    test: Arc<Dataset>,
    last_used: u64,
}

/// A bounded, deterministic LRU cache over [`ShardSpec`] derivations.
///
/// `get` returns `Arc` handles, so evicting an entry only drops the
/// cache's reference — callers that captured the shards (e.g. in-flight
/// attempt tasks) keep them alive until they finish. Least-recently-used
/// eviction uses a strictly increasing access clock, so the victim is
/// always unique and the cache's contents are a pure function of the
/// access sequence — no iteration-order or timing dependence.
pub struct ShardCache {
    spec: ShardSpec,
    entries: HashMap<usize, CacheEntry>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    peak_resident: usize,
}

impl ShardCache {
    /// Wrap `spec` in a cache bounded to `capacity` resident clients.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` (a cache that can hold nothing cannot
    /// hand out entries).
    pub fn new(spec: ShardSpec, capacity: usize) -> Self {
        assert!(capacity > 0, "shard cache capacity must be positive");
        ShardCache {
            spec,
            entries: HashMap::new(),
            capacity,
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            peak_resident: 0,
        }
    }

    /// The underlying pure derivation (for cache-free access paths, e.g.
    /// parallel evaluation workers that each derive shards into their own
    /// scratch).
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.spec.num_clients()
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

    /// The `(train, test)` shard pair of `client`, from cache or derived
    /// on the spot.
    pub fn get(&mut self, client: usize) -> (Arc<Dataset>, Arc<Dataset>) {
        self.clock += 1;
        if let Some(e) = self.entries.get_mut(&client) {
            e.last_used = self.clock;
            self.hits += 1;
            return (Arc::clone(&e.train), Arc::clone(&e.test));
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
        let (train, test) = self.spec.shard_pair(client);
        let entry = CacheEntry {
            train: Arc::new(train),
            test: Arc::new(test),
            last_used: self.clock,
        };
        let out = (Arc::clone(&entry.train), Arc::clone(&entry.test));
        self.entries.insert(client, entry);
        self.peak_resident = self.peak_resident.max(self.entries.len());
        out
    }
}

/// A client's derived train/eval pair as stored by [`SharedShardCache`].
type SharedShardEntry = (Arc<Dataset>, Arc<Dataset>);

/// A sweep-wide shard store shared read-only across concurrent trials.
///
/// Where [`ShardCache`] is a per-run bounded LRU behind `&mut self`, this
/// store is an `Arc<ShardSpec>`-backed map behind `&self`: many trials of
/// a sweep — running simultaneously on different worker threads — request
/// shards through one instance, and each client's pair is derived exactly
/// once for the whole sweep (the deriving thread holds the lock, so a
/// concurrent request for the same client waits and then hits).
///
/// Sharing is value-transparent: shard contents are pure functions of
/// `(spec, client)`, so a trial served from this store sees bit-identical
/// data to one deriving through its own private cache. Only the hit/miss
/// counters depend on trial interleaving, and those never feed any
/// trial's report.
pub struct SharedShardCache {
    spec: Arc<ShardSpec>,
    entries: Mutex<HashMap<usize, SharedShardEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    peak_resident: AtomicU64,
}

impl SharedShardCache {
    /// Wrap `spec` in a shared store. Capacity is the whole population:
    /// a sweep amortizes derivations, so evicting would only re-pay them.
    pub fn new(spec: ShardSpec) -> Self {
        SharedShardCache {
            spec: Arc::new(spec),
            entries: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            peak_resident: AtomicU64::new(0),
        }
    }

    /// The underlying pure derivation.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.spec.num_clients()
    }

    /// The `(train, test)` shard pair of `client`, derived at most once
    /// across every trial sharing this store.
    pub fn get(&self, client: usize) -> (Arc<Dataset>, Arc<Dataset>) {
        let mut entries = self.entries.lock().expect("shard store lock poisoned");
        if let Some((train, test)) = entries.get(&client) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(train), Arc::clone(test));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Derive under the lock: the point of the store is exactly-once
        // derivation, so a racing request for the same client should wait
        // for this one rather than duplicate the work.
        let (train, test) = self.spec.shard_pair(client);
        let pair = (Arc::new(train), Arc::new(test));
        entries.insert(client, (Arc::clone(&pair.0), Arc::clone(&pair.1)));
        self.peak_resident
            .fetch_max(entries.len() as u64, Ordering::Relaxed);
        pair
    }

    /// Behaviour counters in [`ShardCacheStats`] form. `misses` is the
    /// number of derivations actually paid (at most one per client for
    /// the whole sweep); `evictions` is always zero.
    pub fn stats(&self) -> ShardCacheStats {
        let resident = self
            .entries
            .lock()
            .expect("shard store lock poisoned")
            .len();
        ShardCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: 0,
            resident,
            peak_resident: self.peak_resident.load(Ordering::Relaxed) as usize,
            capacity: self.spec.num_clients(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federated::FederatedDataset;
    use crate::task::Task;

    fn cfg(num_clients: usize) -> FederatedConfig {
        FederatedConfig {
            task: Task::Cifar10,
            num_clients,
            mean_samples: 40,
            alpha: Some(0.1),
            test_fraction: 0.25,
        }
    }

    #[test]
    fn spec_matches_eager_generation() {
        let c = cfg(10);
        let eager = FederatedDataset::generate(c, 17);
        let spec = ShardSpec::new(c, 17);
        // Access in a scrambled order: derivations are independent.
        for i in [7usize, 0, 9, 3, 3, 1, 8] {
            let (train, test) = spec.shard_pair(i);
            assert_eq!(train.labels(), eager.train_shard(i).labels());
            assert_eq!(
                train.features().data(),
                eager.train_shard(i).features().data()
            );
            assert_eq!(test.labels(), eager.test_shard(i).labels());
            assert_eq!(
                test.features().data(),
                eager.test_shard(i).features().data()
            );
            assert_eq!(spec.train_shard(i).labels(), train.labels());
            assert_eq!(spec.test_shard(i).labels(), test.labels());
        }
    }

    #[test]
    fn iid_spec_matches_eager_generation() {
        let mut c = cfg(6);
        c.alpha = None;
        let eager = FederatedDataset::generate(c, 3);
        let spec = ShardSpec::new(c, 3);
        for i in (0..6).rev() {
            let (train, test) = spec.shard_pair(i);
            assert_eq!(
                train.features().data(),
                eager.train_shard(i).features().data()
            );
            assert_eq!(
                test.features().data(),
                eager.test_shard(i).features().data()
            );
        }
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
        // Thrash the cache; every returned pair must still be the pure
        // derivation, bit for bit.
        for i in [5usize, 2, 7, 5, 0, 2, 5, 1, 6] {
            let (train, test) = cache.get(i);
            let (dt, de) = spec.shard_pair(i);
            assert_eq!(train.features().data(), dt.features().data());
            assert_eq!(train.labels(), dt.labels());
            assert_eq!(test.features().data(), de.features().data());
            assert_eq!(test.labels(), de.labels());
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ShardCache::new(ShardSpec::new(cfg(2), 1), 0);
    }

    #[test]
    fn shared_store_derives_each_client_once() {
        let store = SharedShardCache::new(ShardSpec::new(cfg(6), 9));
        for i in [3usize, 1, 3, 5, 1, 3, 0, 5] {
            let _ = store.get(i);
        }
        let s = store.stats();
        assert_eq!(s.misses, 4, "one derivation per distinct client");
        assert_eq!(s.hits, 4);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.resident, 4);
        assert_eq!(s.peak_resident, 4);
        assert_eq!(s.capacity, 6);
    }

    #[test]
    fn shared_store_matches_pure_derivation_across_threads() {
        let spec = ShardSpec::new(cfg(8), 21);
        let store = SharedShardCache::new(spec.clone());
        // Hammer the store from several threads in scrambled orders; every
        // returned pair must be the pure derivation, bit for bit.
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let store = &store;
                let spec = &spec;
                scope.spawn(move || {
                    for k in 0..8usize {
                        let i = (k * 3 + t) % 8;
                        let (train, test) = store.get(i);
                        let (dt, de) = spec.shard_pair(i);
                        assert_eq!(train.features().data(), dt.features().data());
                        assert_eq!(train.labels(), dt.labels());
                        assert_eq!(test.features().data(), de.features().data());
                        assert_eq!(test.labels(), de.labels());
                    }
                });
            }
        });
        let s = store.stats();
        assert_eq!(s.misses, 8, "each client derived exactly once");
        assert_eq!(s.hits + s.misses, 32);
    }
}
