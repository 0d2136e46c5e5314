//! Shared-population trial execution — the `float-core` half of the sweep
//! orchestrator.
//!
//! A sweep runs many [`ExperimentConfig`] variations over *one*
//! population: same task, client count, data skew, and trace calendar,
//! differing only in runtime knobs (cohort size, deadline, local epochs,
//! selector, optimizer, accel policy). Building each trial independently
//! would re-derive the population's expensive artifacts once per
//! trial:
//!
//! - the client shards (one synthetic-sampler pass per touched client),
//! - the availability calendar ([`ResourceSampler::build_index`], the
//!   sampler's only O(population) pass) plus the full-sweep interruption
//!   table (16 B per client, built by the first full-sweep trial),
//! - the test shards every evaluation sweep scores the model on
//!   (`EvalShards`).
//!
//! [`SharedPopulation`] builds each exactly once and hands every trial a
//! cheap handle: shards through one sweep-wide
//! [`SharedShardCache`](float_data::SharedShardCache) (derive-once,
//! `Arc`-served), the calendar as a clone of the pre-built index (a
//! memcpy, not a re-derivation), the whole population's test shards as one
//! copy filled by whichever trial evaluates first. Sharing is
//! value-transparent because every artifact is a pure function of
//! `(population config, population seed)` — a trial built through
//! [`Experiment::new_shared`] produces a report bit-identical to the same
//! config built standalone, a contract pinned by tests.
//!
//! The seed split that makes this work: trials set `seed =
//! split_seed(root, trial_idx)` for independent runtime randomness and
//! `data_seed = root` so the population stays common — see
//! [`ExperimentConfig::data_seed`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use float_data::federated::FederatedConfig;
use float_data::{ShardCacheStats, ShardSpec, SharedShardCache};
use float_tensor::rng::split_seed;
use float_tensor::Dataset;
use float_traces::{AvailabilityIndex, Interruption, ResourceSampler};

use crate::config::ExperimentConfig;
use crate::metrics::ExperimentReport;
use crate::runtime::Experiment;

/// Bound on evaluation clients whose test shards stay resident.
pub const EVAL_RESIDENT_CAP: usize = 4096;

/// Test shards of an evaluation set, kept once derived: slot `i` is the
/// shard of the set's `i`-th client, filled by the first evaluation sweep
/// to reach it. A test shard is a pure function of `(spec, client)` and the
/// set never changes during a run, so every later sweep reads what the
/// first derived. Clients past [`EVAL_RESIDENT_CAP`] have no slot and are
/// derived per sweep, which keeps a population-sized evaluation O(cohort).
pub(crate) struct EvalShards {
    /// Allocated by the first sweep: building a trial or a population
    /// costs nothing for an evaluation that may never run.
    slots: OnceLock<Vec<OnceLock<Dataset>>>,
    eval_clients: usize,
    derivations: AtomicU64,
}

/// Counters of an evaluation set's test shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalShardStats {
    /// Test shards resident, at most [`EVAL_RESIDENT_CAP`].
    pub resident: usize,
    /// Test-shard derivations all sweeps so far paid for, resident or not.
    pub derivations: u64,
}

impl EvalShards {
    pub(crate) fn new(eval_clients: usize) -> Self {
        EvalShards {
            slots: OnceLock::new(),
            eval_clients,
            derivations: AtomicU64::new(0),
        }
    }

    /// Size of the evaluation set.
    pub(crate) fn eval_clients(&self) -> usize {
        self.eval_clients
    }

    /// `f` on the test shard of `client`, the evaluation set's `pos`-th.
    pub(crate) fn with<R>(
        &self,
        spec: &ShardSpec,
        pos: usize,
        client: usize,
        f: impl FnOnce(&Dataset) -> R,
    ) -> R {
        let slots = self.slots.get_or_init(|| {
            let resident = self.eval_clients.min(EVAL_RESIDENT_CAP);
            (0..resident).map(|_| OnceLock::new()).collect()
        });
        let derive = || {
            self.derivations.fetch_add(1, Ordering::Relaxed);
            spec.test_shard(client)
        };
        match slots.get(pos) {
            Some(slot) => f(slot.get_or_init(derive)),
            None => f(&derive()),
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

/// One population's shared read-only artifacts, built once per sweep and
/// handed to every trial over that population.
pub struct SharedPopulation {
    /// The dataset parameters the shard spec was built from — trials must
    /// match these exactly (shards are a function of them).
    fed: FederatedConfig,
    /// The population seed the spec and calendar derive from.
    population_seed: u64,
    /// Sweep-wide shard store (derive-once, `Arc`-served).
    shards: Arc<SharedShardCache>,
    /// Pre-built availability calendar; trials clone it (cheap) instead
    /// of re-deriving it (O(population) model derivations).
    index: AvailabilityIndex,
    /// Full-sweep interruption table, built on the first trial that
    /// needs it (candidate_pool == 0) and shared from then on.
    sweep_models: OnceLock<Arc<Vec<Interruption>>>,
    /// Test shards of the whole population as an evaluation set: the one
    /// copy every trial with `eval_sample == 0` evaluates on.
    eval_shards: Arc<EvalShards>,
    /// Trials attached so far (for amortization reporting).
    attached: AtomicU64,
}

impl SharedPopulation {
    /// Build the shared artifacts for `config`'s population. Only the
    /// population-defining fields matter: any trial whose
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
        let spec = ShardSpec::new(fed, split_seed(pop_seed, 1));
        let index = ResourceSampler::build_index(config.num_clients, split_seed(pop_seed, 2));
        Ok(SharedPopulation {
            fed,
            population_seed: pop_seed,
            shards: Arc::new(SharedShardCache::new(spec)),
            index,
            sweep_models: OnceLock::new(),
            eval_shards: Arc::new(EvalShards::new(config.num_clients)),
            attached: AtomicU64::new(0),
        })
    }

    /// Whether `config` describes exactly the population these artifacts
    /// were built for.
    pub fn matches(&self, config: &ExperimentConfig) -> bool {
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

    /// Handle to the sweep-wide shard store.
    pub(crate) fn shards(&self) -> Arc<SharedShardCache> {
        Arc::clone(&self.shards)
    }

    /// A sampler for one trial: the shared calendar cloned, the shared
    /// full-sweep table attached when the trial runs full availability
    /// sweeps (pooled trials skip them, mirroring the standalone path's
    /// O(population) avoidance).
    pub(crate) fn sampler_for(&self, config: &ExperimentConfig) -> ResourceSampler {
        let trace_seed = split_seed(self.population_seed, 2);
        let models = (config.candidate_pool == 0).then(|| {
            Arc::clone(self.sweep_models.get_or_init(|| {
                Arc::new(ResourceSampler::build_sweep_models(
                    self.fed.num_clients,
                    trace_seed,
                ))
            }))
        });
        ResourceSampler::with_shared(
            self.fed.num_clients,
            config.interference,
            trace_seed,
            self.index.clone(),
            models,
        )
    }

    /// Shard-store counters: `misses` is the number of shard derivations
    /// actually paid across *all* attached trials (at most one per
    /// client), `hits` the derivations avoided by sharing.
    pub fn shard_stats(&self) -> ShardCacheStats {
        self.shards.stats()
    }

    /// Handle to the sweep-wide full-population evaluation shards.
    pub(crate) fn eval_shards(&self) -> Arc<EvalShards> {
        Arc::clone(&self.eval_shards)
    }

    /// Counters of the shared evaluation shards: across all attached
    /// trials, each resident test shard is derived once.
    pub fn eval_shard_stats(&self) -> EvalShardStats {
        self.eval_shards.stats()
    }

    /// Trials attached so far. Each attached trial after the first saved
    /// one availability-calendar build and one shard-spec derivation.
    pub fn trials_attached(&self) -> u64 {
        self.attached.load(Ordering::Relaxed)
    }
}

/// Run one trial to completion: through `shared` handles when given (the
/// sweep path), standalone otherwise. Both paths produce bit-identical
/// reports for the same `config`.
///
/// # Errors
///
/// Propagates [`Experiment::new`] / [`Experiment::new_shared`] errors.
pub fn run_trial(
    config: ExperimentConfig,
    shared: Option<&SharedPopulation>,
) -> Result<ExperimentReport, String> {
    Ok(match shared {
        Some(sp) => Experiment::new_shared(config, sp)?.run(),
        None => Experiment::new(config)?.run(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AccelMode, SelectorChoice};

    fn base() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::small(SelectorChoice::Oort, AccelMode::Rlhf, 3);
        cfg.num_clients = 16;
        cfg.cohort_size = 4;
        cfg.mean_samples = 30;
        cfg.seed = 1234;
        cfg
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
            let standalone = run_trial(trial, None).expect("standalone runs");
            let via_shared = run_trial(trial, Some(&shared)).expect("shared runs");
            assert_eq!(
                standalone, via_shared,
                "shared-handle trial diverged at cohort {cohort}"
            );
        }
        assert_eq!(shared.trials_attached(), 2);
        let stats = shared.shard_stats();
        assert!(stats.hits > 0, "second trial should hit the shared store");
        assert!(
            stats.misses <= cfg.num_clients as u64,
            "at most one derivation per client across the sweep"
        );
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
        let a = run_trial(cfg, None).expect("runs");
        let b = run_trial(split, None).expect("runs");
        assert_eq!(a, b, "data_seed == seed must reproduce data_seed == 0");
    }

    #[test]
    fn data_seed_pins_population_across_runtime_seeds() {
        // Two trials with different root seeds but one data_seed must see
        // identical shards — proven indirectly: both attach to the same
        // SharedPopulation and reproduce their standalone reports.
        let mut cfg = base();
        cfg.data_seed = 555;
        let shared = SharedPopulation::build(&cfg).expect("valid population");
        for s in [1u64, 2] {
            let mut trial = cfg;
            trial.seed = s;
            let standalone = run_trial(trial, None).expect("runs");
            let via_shared = run_trial(trial, Some(&shared)).expect("runs");
            assert_eq!(standalone, via_shared);
        }
    }
}
