//! Populations and the trials built over them.
//!
//! Every experiment is a trial over a [`SharedPopulation`]:
//! [`Experiment::new`] builds one of its own from its config, and a sweep
//! builds one and attaches every trial to it through
//! [`Experiment::new_shared`]. A sweep's trials share task, client count,
//! data skew and availability traces, and differ only in runtime knobs (cohort
//! size, deadline, local epochs, selector, optimizer, accel policy). The
//! population holds what is expensive to derive, once:
//!
//! - the training shards, through one [`ShardCache`] behind a lock, sized
//!   by [`ExperimentConfig::resolved_shard_cache`] (the whole population up
//!   to [`SHARD_RESIDENT_CAP`] clients, so a sweep derives each client
//!   once),
//! - the availability index ([`ResourceSampler::build_index`], 2 B of
//!   diurnal window per client, derived in one pass over the population's
//!   models): each trial's sampler clones it, which shares the windows
//!   and copies only the membership row (1/8 B per client) that every
//!   round recomputes,
//! - the full-sweep interruption table (4 B per client), built in the
//!   index's pass when the population's config runs full sweeps
//!   (`candidate_pool == 0`),
//! - the test shards, each held once (`EvalShards`, slot = client id, up
//!   to [`EVAL_RESIDENT_CAP`] clients): the accel agent scores a completed
//!   attempt on its client's shard and every full-population evaluation
//!   sweep scores the model on all of them, so whichever reader reaches a
//!   client first derives it and every later one reads it.
//!
//! Sharing is value-transparent because every artifact is a pure function
//! of `(population config, population seed)`: a trial attached to a
//! sweep's population produces a report bit-identical to the same config
//! built through [`Experiment::new`], a contract pinned by tests.
//!
//! The seed split that makes this work: trials set `seed =
//! split_seed(root, trial_idx)` for independent runtime randomness and
//! `data_seed = root` so the population stays common — see
//! [`ExperimentConfig::data_seed`].
//!
//! [`Experiment::new`]: crate::Experiment::new
//! [`Experiment::new_shared`]: crate::Experiment::new_shared
//! [`SHARD_RESIDENT_CAP`]: crate::config::SHARD_RESIDENT_CAP

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use float_data::federated::FederatedConfig;
use float_data::{ShardCache, ShardCacheStats, ShardSpec};
use float_tensor::rng::split_seed;
use float_tensor::Dataset;
use float_traces::{AvailabilityIndex, InterruptionTable, ResourceSampler};

use crate::config::ExperimentConfig;

/// Bound on the clients of one test-shard store whose shards stay
/// resident.
pub const EVAL_RESIDENT_CAP: usize = 4096;

/// Test shards of a set of clients, kept once derived: slot `i` is the
/// shard of the set's `i`-th client, filled by the first reader to reach
/// it. A test shard is a pure function of `(spec, client)` and the set
/// never changes during a run, so every later reader gets what the first
/// derived. Clients past [`EVAL_RESIDENT_CAP`] have no slot and are derived
/// per read, which keeps a population-sized set O(cohort).
///
/// A [`SharedPopulation`] owns one over its whole population (slot =
/// client id): the one copy the accel agent's reward reads and every
/// full-population evaluation scores. A trial with a sampled evaluation
/// set keeps a private one over its sample.
pub(crate) struct EvalShards {
    /// The derivation, read without the training store's lock so parallel
    /// evaluation workers and concurrent trials never wait on it.
    spec: Arc<ShardSpec>,
    /// Allocated by the first sweep: building a trial or a population
    /// costs nothing for an evaluation that may never run.
    slots: OnceLock<Vec<OnceLock<Dataset>>>,
    eval_clients: usize,
    derivations: AtomicU64,
}

/// Counters of a test-shard store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalShardStats {
    /// Test shards resident, at most [`EVAL_RESIDENT_CAP`].
    pub resident: usize,
    /// Test-shard derivations all readers so far paid for, resident or
    /// not.
    pub derivations: u64,
}

impl EvalShards {
    pub(crate) fn new(spec: Arc<ShardSpec>, eval_clients: usize) -> Self {
        EvalShards {
            spec,
            slots: OnceLock::new(),
            eval_clients,
            derivations: AtomicU64::new(0),
        }
    }

    /// Size of the set.
    pub(crate) fn eval_clients(&self) -> usize {
        self.eval_clients
    }

    /// The test shard of `client`, the set's `pos`-th: borrowed when
    /// resident, derived and owned when `pos` is past the bound.
    pub(crate) fn get(&self, pos: usize, client: usize) -> Cow<'_, Dataset> {
        let slots = self.slots.get_or_init(|| {
            let resident = self.eval_clients.min(EVAL_RESIDENT_CAP);
            (0..resident).map(|_| OnceLock::new()).collect()
        });
        let derive = || {
            self.derivations.fetch_add(1, Ordering::Relaxed);
            self.spec.test_shard(client)
        };
        match slots.get(pos) {
            Some(slot) => Cow::Borrowed(slot.get_or_init(derive)),
            None => Cow::Owned(derive()),
        }
    }

    pub(crate) fn stats(&self) -> EvalShardStats {
        let slots = self.slots.get().into_iter().flatten();
        EvalShardStats {
            resident: slots.filter(|s| s.get().is_some()).count(),
            derivations: self.derivations.load(Ordering::Relaxed),
        }
    }
}

/// One population's read-only artifacts, built once and handed to every
/// trial over that population.
pub struct SharedPopulation {
    /// The dataset parameters the shard spec was built from — trials must
    /// match these exactly (shards are a function of them).
    fed: FederatedConfig,
    /// The population seed the spec and index derive from.
    population_seed: u64,
    /// The pure shard derivation.
    spec: Arc<ShardSpec>,
    /// Training-shard store of every attached trial.
    shards: Arc<Mutex<ShardCache>>,
    /// Availability index; a trial's sampler clones it (the windows are
    /// shared, the row copied) instead of re-deriving it.
    index: AvailabilityIndex,
    /// Full-sweep interruption table, built in the index's pass when
    /// the population's config runs full sweeps (`candidate_pool == 0`).
    sweep_models: Option<Arc<InterruptionTable>>,
    /// Test shards of the whole population, slot = client id: the one
    /// copy every attached trial's agent reads and every trial with
    /// `eval_sample == 0` evaluates on.
    test_shards: Arc<EvalShards>,
    /// Trials attached so far (for amortization reporting).
    attached: AtomicU64,
}

impl SharedPopulation {
    /// Build the shared artifacts for `config`'s population. Only the
    /// population-defining fields, `candidate_pool` (whether to build the
    /// full-sweep table) and the shard-cache size matter: any trial whose
    /// [`ExperimentConfig::federated_config`] and
    /// [`ExperimentConfig::population_seed`] match can attach, whatever
    /// its runtime knobs.
    ///
    /// # Errors
    ///
    /// Returns the validation error string if `config` is invalid.
    pub fn build(config: &ExperimentConfig) -> Result<Self, String> {
        config.validate()?;
        let fed = config.federated_config();
        let pop_seed = config.population_seed();
        let spec = Arc::new(ShardSpec::new(fed, split_seed(pop_seed, 1)));
        let (n, trace_seed) = (config.num_clients, split_seed(pop_seed, 2));
        let (index, sweep_models) = if config.candidate_pool == 0 {
            // Full-sweep runs read every client's interruption draw each
            // round: build the table in the index's pass, one kernel
            // pass writing both. Pooled runs skip it (the
            // only O(population) allocation left).
            let (index, sweep) = ResourceSampler::build_index_and_sweep(n, trace_seed);
            (index, Some(Arc::new(sweep)))
        } else {
            (ResourceSampler::build_index(n, trace_seed), None)
        };
        let shards = ShardCache::new(Arc::clone(&spec), config.resolved_shard_cache());
        Ok(SharedPopulation {
            fed,
            population_seed: pop_seed,
            shards: Arc::new(Mutex::new(shards)),
            test_shards: Arc::new(EvalShards::new(Arc::clone(&spec), n)),
            spec,
            index,
            sweep_models,
            attached: AtomicU64::new(0),
        })
    }

    /// Whether `config` describes exactly the population these artifacts
    /// were built for.
    fn matches(&self, config: &ExperimentConfig) -> bool {
        config.federated_config() == self.fed && config.population_seed() == self.population_seed
    }

    /// [`SharedPopulation::matches`] as a `Result` with a diagnostic.
    pub(crate) fn check(&self, config: &ExperimentConfig) -> Result<(), String> {
        if !self.matches(config) {
            return Err(format!(
                "trial population (task {:?}, {} clients, mean_samples {}, alpha {:?}, \
                 population seed {}) does not match the shared population (task {:?}, \
                 {} clients, mean_samples {}, alpha {:?}, population seed {})",
                config.task,
                config.num_clients,
                config.mean_samples,
                config.alpha,
                config.population_seed(),
                self.fed.task,
                self.fed.num_clients,
                self.fed.mean_samples,
                self.fed.alpha,
                self.population_seed,
            ));
        }
        self.attached.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The pure shard derivation.
    pub(crate) fn spec(&self) -> &Arc<ShardSpec> {
        &self.spec
    }

    /// Handle to the training-shard store.
    pub(crate) fn shards(&self) -> Arc<Mutex<ShardCache>> {
        Arc::clone(&self.shards)
    }

    /// A sampler for one trial: the index cloned, and the full-sweep
    /// table attached when the trial runs full availability sweeps. Pooled
    /// trials never read it, and a full-sweep trial over a pooled
    /// population builds its own on its first sweep.
    pub(crate) fn sampler_for(&self, config: &ExperimentConfig) -> ResourceSampler {
        let models = if config.candidate_pool == 0 {
            self.sweep_models.clone()
        } else {
            None
        };
        ResourceSampler::with_shared(
            self.fed.num_clients,
            config.interference,
            split_seed(self.population_seed, 2),
            self.index.clone(),
            models,
        )
    }

    /// Shard-store counters: `misses` is the number of shard derivations
    /// actually paid across *all* attached trials (one per client while
    /// the store holds the population), `hits` the derivations avoided.
    pub fn shard_stats(&self) -> ShardCacheStats {
        lock_shards(&self.shards).stats()
    }

    /// Handle to the population's test-shard store.
    pub(crate) fn test_shards(&self) -> Arc<EvalShards> {
        Arc::clone(&self.test_shards)
    }

    /// Counters of the population's test-shard store: across the agent
    /// reads and full-population evaluations of all attached trials, each
    /// resident test shard is derived once.
    pub fn eval_shard_stats(&self) -> EvalShardStats {
        self.test_shards.stats()
    }

    /// Trials attached so far. Each attached trial after the first saved
    /// one availability-index build and one shard-spec derivation.
    pub fn trials_attached(&self) -> u64 {
        self.attached.load(Ordering::Relaxed)
    }
}

/// The shard store, locked. A derivation that panics inside
/// `ShardCache::get` leaves the cache consistent (the entry is simply
/// absent), so a poisoned lock is taken as is.
pub(crate) fn lock_shards(shards: &Mutex<ShardCache>) -> MutexGuard<'_, ShardCache> {
    shards.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AccelMode, SelectorChoice};
    use crate::runtime::Experiment;

    fn base() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::small(SelectorChoice::Oort, AccelMode::Rlhf, 3);
        cfg.num_clients = 16;
        cfg.cohort_size = 4;
        cfg.mean_samples = 30;
        cfg.seed = 1234;
        cfg
    }

    fn alone(cfg: ExperimentConfig) -> crate::ExperimentReport {
        Experiment::new(cfg).expect("valid config").run()
    }

    #[test]
    fn shared_trial_matches_standalone_bit_for_bit() {
        let mut cfg = base();
        cfg.data_seed = 99;
        let shared = SharedPopulation::build(&cfg).expect("valid population");
        // Two knob variants, both sharing the population.
        for (cohort, epochs) in [(4usize, 1usize), (6, 2)] {
            let mut trial = cfg;
            trial.cohort_size = cohort;
            trial.local_epochs = epochs;
            trial.seed = split_seed(7, cohort as u64);
            let via_shared = Experiment::new_shared(trial, &shared)
                .expect("shared runs")
                .run();
            assert_eq!(
                alone(trial),
                via_shared,
                "shared-handle trial diverged at cohort {cohort}"
            );
        }
        assert_eq!(shared.trials_attached(), 2);
        let stats = shared.shard_stats();
        assert!(stats.hits > 0, "second trial should hit the shared store");
        assert_eq!(stats.capacity, cfg.num_clients, "the store holds everyone");
        assert_eq!(stats.evictions, 0);
        assert_eq!(
            stats.misses, stats.resident as u64,
            "each resident client derived exactly once across the sweep"
        );
    }

    #[test]
    fn concurrent_trials_derive_each_shard_once() {
        let mut cfg = base();
        cfg.data_seed = 31;
        let shared = SharedPopulation::build(&cfg).expect("valid population");
        let trials: Vec<ExperimentConfig> = (0..4u64)
            .map(|t| {
                let mut trial = cfg;
                trial.seed = split_seed(5, t);
                trial
            })
            .collect();
        // Four trials race on one store from four threads, released together
        // once all are built; each must still read the pure derivation, so
        // equal its own population's run.
        let start = std::sync::Barrier::new(trials.len());
        let reports: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = trials
                .iter()
                .map(|&trial| {
                    let (shared, start) = (&shared, &start);
                    scope.spawn(move || {
                        let exp = Experiment::new_shared(trial, shared).expect("same population");
                        start.wait();
                        exp.run()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("trial thread"))
                .collect()
        });
        for (trial, report) in trials.iter().zip(reports) {
            assert_eq!(report, alone(*trial), "seed {}", trial.seed);
        }
        let stats = shared.shard_stats();
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.misses, stats.resident as u64, "derived exactly once");
        assert!(stats.hits > 0);
    }

    #[test]
    fn pooled_population_serves_full_sweep_and_pooled_trials() {
        let mut pooled = base();
        pooled.candidate_pool = 8;
        let population = SharedPopulation::build(&pooled).expect("valid population");
        let mut full = pooled;
        full.candidate_pool = 0;
        for cfg in [full, pooled] {
            let (report, _, avail) = Experiment::new_shared(cfg, &population)
                .expect("same population")
                .run_with_population_stats();
            assert_eq!(report, alone(cfg), "candidate_pool {}", cfg.candidate_pool);
            // The pooled population built no table: the full-sweep trial
            // built its own, the pooled one none.
            let table = if cfg.candidate_pool == 0 {
                4 * cfg.num_clients
            } else {
                0
            };
            assert_eq!(avail.sweep_models_bytes, table);
        }
    }

    #[test]
    fn population_mismatch_is_rejected() {
        let cfg = base();
        let shared = SharedPopulation::build(&cfg).expect("valid population");
        let mut other = cfg;
        other.num_clients = 20;
        assert!(Experiment::new_shared(other, &shared).is_err());
        let mut reseeded = cfg;
        reseeded.seed = cfg.seed + 1; // population_seed follows seed here
        assert!(Experiment::new_shared(reseeded, &shared).is_err());
    }

    #[test]
    fn data_seed_zero_is_the_historical_path() {
        let cfg = base();
        let mut split = cfg;
        split.data_seed = cfg.seed; // explicit override equal to the root
        assert_eq!(
            alone(cfg),
            alone(split),
            "data_seed == seed must reproduce data_seed == 0"
        );
    }

    #[test]
    fn data_seed_pins_population_across_runtime_seeds() {
        // Two trials with different root seeds but one data_seed must see
        // identical shards — proven indirectly: both attach to the same
        // SharedPopulation and reproduce their own populations' reports.
        let mut cfg = base();
        cfg.data_seed = 555;
        let shared = SharedPopulation::build(&cfg).expect("valid population");
        for s in [1u64, 2] {
            let mut trial = cfg;
            trial.seed = s;
            let via_shared = Experiment::new_shared(trial, &shared).expect("runs").run();
            assert_eq!(alone(trial), via_shared);
        }
    }
}
