//! Experiment configuration and paper presets.

use serde::{Deserialize, Serialize};

use float_data::federated::FederatedConfig;
use float_data::Task;
use float_models::Architecture;
use float_obs::ObsConfig;
use float_profile::ProfilingConfig;
use float_sim::FaultPlan;
use float_traces::InterferenceModel;

use crate::optim::ServerOptimizerChoice;

/// Which client-selection algorithm drives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SelectorChoice {
    /// Uniform random (FedAvg).
    FedAvg,
    /// Utility-guided (Oort).
    Oort,
    /// Availability-window prediction (REFL).
    Refl,
    /// Asynchronous buffered (FedBuff).
    FedBuff,
    /// Tier-based (TiFL) — an extension baseline beyond the paper's four.
    Tifl,
}

impl SelectorChoice {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SelectorChoice::FedAvg => "fedavg",
            SelectorChoice::Oort => "oort",
            SelectorChoice::Refl => "refl",
            SelectorChoice::FedBuff => "fedbuff",
            SelectorChoice::Tifl => "tifl",
        }
    }

    /// The paper's four baselines (TiFL is an extension and excluded so
    /// figure grids keep the paper's layout).
    pub const ALL: [SelectorChoice; 4] = [
        SelectorChoice::FedAvg,
        SelectorChoice::Oort,
        SelectorChoice::Refl,
        SelectorChoice::FedBuff,
    ];

    /// All selectors including extensions.
    pub const ALL_EXTENDED: [SelectorChoice; 5] = [
        SelectorChoice::FedAvg,
        SelectorChoice::Oort,
        SelectorChoice::Refl,
        SelectorChoice::FedBuff,
        SelectorChoice::Tifl,
    ];
}

/// How acceleration actions are chosen for selected clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccelMode {
    /// No acceleration — the vanilla baseline.
    Off,
    /// A fixed action applied to every client every round (the §4.3
    /// "static optimization" baselines, Fig. 5). The index refers to
    /// [`float_accel::ActionCatalogue::paper`].
    Static(usize),
    /// The §4.4 rule-based heuristic.
    Heuristic,
    /// Q-learning agent without human feedback (FLOAT-RL, Fig. 11).
    Rl,
    /// Full FLOAT: Q-learning with human feedback (FLOAT-RLHF).
    Rlhf,
    /// FLOAT-RLHF over the *extended* action catalogue — the paper's
    /// eight actions plus no-op, lossless compression, and top-k
    /// sparsification (RQ5: "adding a new acceleration technique
    /// increases the actions by one, expanding the exploration space by
    /// S").
    RlhfExtended,
}

impl AccelMode {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AccelMode::Off => "off",
            AccelMode::Static(_) => "static",
            AccelMode::Heuristic => "heuristic",
            AccelMode::Rl => "float-rl",
            AccelMode::Rlhf => "float-rlhf",
            AccelMode::RlhfExtended => "float-rlhf-ext",
        }
    }

    /// Whether this mode learns its policy with a Q-learning agent (the
    /// modes an [`float_rl::RlhfAgent`] can be installed into or captured
    /// from).
    pub fn trains_agent(self) -> bool {
        matches!(
            self,
            AccelMode::Rl | AccelMode::Rlhf | AccelMode::RlhfExtended
        )
    }
}

/// Largest population whose training shards the auto-sized cache holds
/// whole ([`ExperimentConfig::resolved_shard_cache`]): ~17 MB at the
/// paper's 120 samples × 136 B a client. A constant, not a field — every
/// preset sits far on one side of it (≤ 200 clients, or ≥ 10 000).
pub const SHARD_RESIDENT_CAP: usize = 1024;

/// Full description of one experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Benchmark task (dataset stand-in).
    pub task: Task,
    /// Dirichlet α controlling label skew (`None` ⇒ IID).
    pub alpha: Option<f64>,
    /// Cost-model architecture (latency/bytes/memory source).
    pub arch: Architecture,
    /// Total number of clients.
    pub num_clients: usize,
    /// Clients sampled per synchronous round.
    pub cohort_size: usize,
    /// Concurrent clients for FedBuff.
    pub async_concurrency: usize,
    /// FedBuff aggregation buffer size.
    pub async_buffer: usize,
    /// Number of training rounds (synchronous) or aggregations (async).
    pub rounds: usize,
    /// Local epochs per client round.
    pub local_epochs: usize,
    /// Local batch size.
    pub batch_size: usize,
    /// Local SGD learning rate.
    pub learning_rate: f32,
    /// Mean training samples per client.
    pub mean_samples: usize,
    /// Round deadline in seconds.
    pub deadline_s: f64,
    /// Interference scenario.
    pub interference: InterferenceModel,
    /// Client-selection algorithm.
    pub selector: SelectorChoice,
    /// Acceleration mode.
    pub accel: AccelMode,
    /// Evaluate per-client accuracy every this many rounds (and always at
    /// the final round).
    pub eval_every: usize,
    /// Weight of the participation-success objective in the RLHF reward
    /// (paper Eq. 2 `w_p`). The §7 "Limitations" knob: in resource-rich
    /// deployments users can shift weight toward accuracy.
    pub reward_w_participation: f64,
    /// Weight of the accuracy-improvement objective (`w_a`).
    pub reward_w_accuracy: f64,
    /// Per-second hazard rate of stochastic mid-round client failures.
    pub failure_hazard_per_s: f64,
    /// Counterfactual switch for the Fig. 3 "no dropouts (ND)" analysis:
    /// every selected, available client is treated as completing
    /// regardless of deadline, memory, or failures.
    pub assume_no_dropouts: bool,
    /// Root seed; every stochastic subsystem derives from it.
    pub seed: u64,
    /// Population seed override for the *data/trace* streams (`0` ⇒ use
    /// `seed`, the historical behaviour bit for bit). When nonzero, the
    /// shard partition and the availability traces derive from
    /// this seed while every runtime stream (selection, agent, model
    /// init, faults, evaluation sample, candidate pools) stays on `seed`.
    /// This is the seed split a sweep needs: trials keep independent
    /// runtime randomness via `split_seed(root, trial_idx)` yet share one
    /// population — and therefore one shard store and one availability
    /// index — keyed by `data_seed`. See `DESIGN.md` §18.
    #[serde(default)]
    pub data_seed: u64,
    /// Worker threads for the parallel attempt phase of each round
    /// (`0` ⇒ one per available CPU core). The `FLOAT_THREADS`
    /// environment variable overrides this at runtime. The thread count
    /// never changes results — see `DESIGN.md` §Two-phase engine.
    #[serde(default)]
    pub num_threads: usize,
    /// Deterministic fault-injection schedule layered on top of the
    /// benign failure model: per-(round, client, attempt) crashes,
    /// network stalls, duplicate deliveries, and corrupt payloads, all
    /// drawn from the root seed. Defaults to no faults; see
    /// [`FaultPlan::chaos`] for the chaos-testing preset and `DESIGN.md`
    /// §Fault model for the semantics.
    #[serde(default)]
    pub fault_plan: FaultPlan,
    /// Telemetry switchboard: off by default (near-zero overhead), or the
    /// deterministic event stream + metrics registry of `float-obs`. Like
    /// the thread count, enabling telemetry never changes results — see
    /// `DESIGN.md` §Telemetry & determinism contract.
    #[serde(default)]
    pub obs: ObsConfig,
    /// How many clients to evaluate global accuracy on (`0` ⇒ the full
    /// population, the historical behaviour). At population scale,
    /// evaluating every client dominates the run; a sample of a few
    /// hundred gives the same curve shape. The sample is drawn once per
    /// experiment from its own seed stream, so `eval_sample ==
    /// num_clients` reproduces the full-population accuracy numbers
    /// bit-for-bit (same clients, same ascending order).
    #[serde(default)]
    pub eval_sample: usize,
    /// Capacity of the lazy shard cache in client shards (`0` ⇒ auto:
    /// the whole population up to [`SHARD_RESIDENT_CAP`] clients, the
    /// cohort/concurrency working set above it, see
    /// [`ExperimentConfig::resolved_shard_cache`]). Bounds training-data
    /// memory: at 1M clients only this many client datasets are ever
    /// resident.
    #[serde(default)]
    pub shard_cache: usize,
    /// Size of the sampled candidate pool handed to the selector each
    /// round (`0` ⇒ full availability sweep, the historical behaviour —
    /// bit-identical to pre-pool reports). When positive, the plan phase
    /// draws a deterministic uniform sample of this many candidates from
    /// the diurnally-available set (seed stream 8, keyed by round) and
    /// only they are interruption/battery-filtered and scored, making
    /// per-round cost O(pool), independent of the population. See
    /// `DESIGN.md` §Event-driven availability for the determinism
    /// contract and `RoundRecord::eligible` for telemetry semantics.
    #[serde(default)]
    pub candidate_pool: usize,
    /// Server-side aggregation optimizer (the FedOpt family). The
    /// default is plain FedAvg, byte-identical to pre-optimizer reports;
    /// FedAvgM / FedAdam / FedYogi keep moment buffers that advance only
    /// in the sequential commit phase, so every choice honours the
    /// thread-count determinism contract. See `DESIGN.md` §Server
    /// optimizer layer.
    #[serde(default)]
    pub server_optim: ServerOptimizerChoice,
    /// FedProx proximal coefficient `μ` (`0` ⇒ off, the historical
    /// training path bit for bit). When positive, every local gradient
    /// step is pulled toward the round's global parameters by
    /// `μ·(w − w_global)`, bounding client drift under non-IID data.
    #[serde(default)]
    pub prox_mu: f64,
    /// SCAFFOLD control variates: maintain a server variate `c` and one
    /// per-client variate `c_i`, correct every local gradient by
    /// `c − c_i`, and fold variate updates in at commit time (sequential,
    /// cohort order — deterministic for any thread count). Composable
    /// with [`ExperimentConfig::prox_mu`].
    #[serde(default)]
    pub scaffold: bool,
    /// Read by nothing; kept only because frozen `floatbench/` assigns it (ROADMAP.md).
    #[serde(default)]
    pub pipeline_rounds: bool,
    /// Online client profiling: estimate per-client latency, bandwidth,
    /// and reliability from *observed* round outcomes and feed those
    /// estimates — instead of trace oracles — to the selectors and the
    /// accel agent's state features. Off by default (the historical
    /// oracle path, byte-identical to pinned goldens). The profiler is
    /// updated only in the sequential commit phase, so enabling it keeps
    /// every run bit-identical across worker-thread counts. See
    /// `DESIGN.md` §17 for estimator definitions and the cold-start
    /// policy.
    #[serde(default)]
    pub profiling: ProfilingConfig,
}

impl ExperimentConfig {
    /// The paper's end-to-end setup (§6.1) scaled to the proxy substrate:
    /// 200 clients, 30 per round, 5 local epochs, batch 20, Dirichlet 0.1,
    /// dynamic on-device interference, ResNet-34 costs.
    ///
    /// `rounds` is a parameter because the full 300-round runs belong in
    /// benches/examples, while tests use short horizons.
    pub fn paper_e2e(
        task: Task,
        selector: SelectorChoice,
        accel: AccelMode,
        rounds: usize,
    ) -> Self {
        ExperimentConfig {
            task,
            alpha: Some(0.1),
            arch: Architecture::ResNet34,
            num_clients: 200,
            cohort_size: 30,
            async_concurrency: 100,
            async_buffer: 30,
            rounds,
            local_epochs: 5,
            batch_size: 20,
            learning_rate: 0.05,
            mean_samples: 120,
            deadline_s: 1800.0,
            interference: InterferenceModel::paper_dynamic(),
            selector,
            accel,
            eval_every: 10,
            reward_w_participation: 0.5,
            reward_w_accuracy: 0.5,
            failure_hazard_per_s: 2.0e-5,
            assume_no_dropouts: false,
            seed: 20240422,
            data_seed: 0,
            num_threads: 0,
            fault_plan: FaultPlan::none(),
            obs: ObsConfig::off(),
            eval_sample: 0,
            shard_cache: 0,
            candidate_pool: 0,
            server_optim: ServerOptimizerChoice::FedAvg,
            prox_mu: 0.0,
            scaffold: false,
            pipeline_rounds: false,
            profiling: ProfilingConfig::off(),
        }
    }

    /// A small, fast configuration for tests and the quickstart example.
    pub fn small(selector: SelectorChoice, accel: AccelMode, rounds: usize) -> Self {
        ExperimentConfig {
            task: Task::Cifar10,
            alpha: Some(0.1),
            arch: Architecture::ResNet18,
            num_clients: 40,
            cohort_size: 10,
            async_concurrency: 20,
            async_buffer: 8,
            rounds,
            local_epochs: 2,
            batch_size: 16,
            learning_rate: 0.05,
            mean_samples: 60,
            deadline_s: 1800.0,
            interference: InterferenceModel::paper_dynamic(),
            selector,
            accel,
            eval_every: 5,
            reward_w_participation: 0.5,
            reward_w_accuracy: 0.5,
            failure_hazard_per_s: 2.0e-5,
            assume_no_dropouts: false,
            seed: 7,
            data_seed: 0,
            num_threads: 0,
            fault_plan: FaultPlan::none(),
            obs: ObsConfig::off(),
            eval_sample: 0,
            shard_cache: 0,
            candidate_pool: 0,
            server_optim: ServerOptimizerChoice::FedAvg,
            prox_mu: 0.0,
            scaffold: false,
            pipeline_rounds: false,
            profiling: ProfilingConfig::off(),
        }
    }

    /// Resolve the worker-thread count for the parallel attempt phase.
    ///
    /// Precedence: the `FLOAT_THREADS` environment variable (when set to a
    /// positive integer), then [`ExperimentConfig::num_threads`], then the
    /// machine's available parallelism. Always at least 1.
    pub fn effective_threads(&self) -> usize {
        if let Ok(v) = std::env::var("FLOAT_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        if self.num_threads > 0 {
            return self.num_threads;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// Resolve the shard-cache capacity in client shards.
    ///
    /// An explicit [`ExperimentConfig::shard_cache`] wins. `0` holds a
    /// population of at most [`SHARD_RESIDENT_CAP`] clients whole — every
    /// shard is derived once and nothing is ever evicted — and above that
    /// picks a capacity that comfortably covers one round's working set —
    /// the cohort (with slack for retries and staleness) and the async
    /// in-flight set — independent of the population size, so memory
    /// stays O(cohort) at any client count.
    pub fn resolved_shard_cache(&self) -> usize {
        if self.shard_cache > 0 {
            return self.shard_cache;
        }
        if self.num_clients <= SHARD_RESIDENT_CAP {
            return self.num_clients;
        }
        self.num_clients
            .min((4 * self.cohort_size).max(self.async_concurrency).max(64))
    }

    /// The seed the data/trace streams actually derive from: the
    /// [`ExperimentConfig::data_seed`] override when set, else the root
    /// seed (the historical single-seed behaviour, bit for bit).
    pub fn population_seed(&self) -> u64 {
        if self.data_seed != 0 {
            self.data_seed
        } else {
            self.seed
        }
    }

    /// A compact, deterministic description of the runtime knobs a sweep
    /// varies — the per-trial label used by trial records, JSONL sink
    /// filenames, and the frontier report. Population knobs (task, client
    /// count, data skew) are deliberately absent: trials in one sweep
    /// share them.
    pub fn knob_label(&self) -> String {
        let mut label = format!(
            "cohort{}-ep{}-lr{}-dl{}s-{}",
            self.cohort_size,
            self.local_epochs,
            self.learning_rate,
            self.deadline_s,
            self.selector.name(),
        );
        if self.server_optim != ServerOptimizerChoice::FedAvg {
            label.push('@');
            label.push_str(self.server_optim.name());
        }
        if self.accel != AccelMode::Off {
            label.push('+');
            label.push_str(self.accel.name());
        }
        label
    }

    /// Derived federated-dataset configuration.
    pub fn federated_config(&self) -> FederatedConfig {
        FederatedConfig {
            task: self.task,
            num_clients: self.num_clients,
            mean_samples: self.mean_samples,
            alpha: self.alpha,
            test_fraction: 0.25,
        }
    }

    /// Validate internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_clients == 0 {
            return Err(format!("num_clients {} must be positive", self.num_clients));
        }
        if u32::try_from(self.num_clients).is_err() {
            return Err(format!(
                "num_clients {} must be at most {} (client ids are stored as u32)",
                self.num_clients,
                u32::MAX
            ));
        }
        if self.cohort_size == 0 || self.cohort_size > self.num_clients {
            return Err(format!(
                "cohort_size {} must be in 1..={}",
                self.cohort_size, self.num_clients
            ));
        }
        if self.rounds == 0 {
            return Err(format!("rounds {} must be positive", self.rounds));
        }
        if self.async_buffer == 0 || self.async_buffer > self.async_concurrency {
            return Err(format!(
                "async_buffer {} must be in 1..={}",
                self.async_buffer, self.async_concurrency
            ));
        }
        if self.batch_size == 0 || self.local_epochs == 0 {
            return Err(format!(
                "batch_size {} and local_epochs {} must be positive",
                self.batch_size, self.local_epochs
            ));
        }
        if !(self.learning_rate > 0.0 && self.learning_rate.is_finite()) {
            return Err(format!(
                "learning_rate {} must be positive and finite",
                self.learning_rate
            ));
        }
        if !(self.deadline_s > 0.0 && self.deadline_s.is_finite()) {
            return Err(format!(
                "deadline_s {} must be positive and finite",
                self.deadline_s
            ));
        }
        if let Some(a) = self.alpha {
            if !(a > 0.0 && a.is_finite()) {
                return Err(format!("alpha {a} must be positive and finite"));
            }
        }
        if self.eval_every == 0 {
            return Err(format!("eval_every {} must be positive", self.eval_every));
        }
        if !(self.failure_hazard_per_s >= 0.0 && self.failure_hazard_per_s.is_finite()) {
            return Err(format!(
                "failure_hazard_per_s {} must be non-negative and finite",
                self.failure_hazard_per_s
            ));
        }
        let weights = [self.reward_w_participation, self.reward_w_accuracy];
        if !weights.iter().all(|w| *w >= 0.0 && w.is_finite()) || weights[0] + weights[1] <= 0.0 {
            return Err(format!(
                "reward weights (participation {}, accuracy {}) must be non-negative, finite and not both zero",
                self.reward_w_participation, self.reward_w_accuracy
            ));
        }
        if self.eval_sample > self.num_clients {
            return Err(format!(
                "eval_sample {} must not exceed num_clients {} (0 means full population)",
                self.eval_sample, self.num_clients
            ));
        }
        if self.shard_cache != 0 && self.shard_cache < self.cohort_size {
            return Err(format!(
                "shard_cache {} must be 0 (auto) or at least cohort_size {} so one round's cohort fits",
                self.shard_cache, self.cohort_size
            ));
        }
        if self.candidate_pool != 0 {
            if self.candidate_pool < self.cohort_size {
                return Err(format!(
                    "candidate_pool {} must be 0 (full sweep) or at least cohort_size {} so a full cohort can be drawn",
                    self.candidate_pool, self.cohort_size
                ));
            }
            if self.candidate_pool > self.num_clients {
                return Err(format!(
                    "candidate_pool {} must not exceed num_clients {}",
                    self.candidate_pool, self.num_clients
                ));
            }
            if self.selector == SelectorChoice::FedBuff
                && self.candidate_pool < self.async_concurrency
            {
                return Err(format!(
                    "candidate_pool {} must be at least async_concurrency {} for the FedBuff selector",
                    self.candidate_pool, self.async_concurrency
                ));
            }
        }
        if self.prox_mu < 0.0 || !self.prox_mu.is_finite() {
            return Err(format!(
                "prox_mu {} must be non-negative and finite (0 disables FedProx)",
                self.prox_mu
            ));
        }
        self.fault_plan.validate()?;
        self.obs.validate()?;
        self.profiling.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_is_valid_and_matches_paper_numbers() {
        let c = ExperimentConfig::paper_e2e(
            Task::Femnist,
            SelectorChoice::FedAvg,
            AccelMode::Rlhf,
            300,
        );
        c.validate().expect("paper preset must validate");
        assert_eq!(c.num_clients, 200);
        assert_eq!(c.cohort_size, 30);
        assert_eq!(c.local_epochs, 5);
        assert_eq!(c.batch_size, 20);
        assert_eq!(c.async_concurrency, 100);
        assert_eq!(c.async_buffer, 30);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let base = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Off, 5);
        let mut c = base;
        c.cohort_size = 0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.cohort_size = c.num_clients + 1;
        assert!(c.validate().is_err());
        let mut c = base;
        c.rounds = 0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.async_buffer = c.async_concurrency + 1;
        assert!(c.validate().is_err());
        let mut c = base;
        c.alpha = Some(0.0);
        assert!(c.validate().is_err());
        let mut c = base;
        c.deadline_s = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = base;
        c.deadline_s = f64::INFINITY;
        assert!(c.validate().is_err());
        for lr in [0.0, -0.05, f32::NAN, f32::INFINITY] {
            let mut c = base;
            c.learning_rate = lr;
            assert!(c.validate().is_err(), "learning_rate {lr} validated");
        }
        let mut c = base;
        c.fault_plan.crash_rate = 1.5;
        assert!(c.validate().is_err());
        let mut c = base;
        c.fault_plan = FaultPlan::chaos();
        c.validate().expect("chaos preset must validate");
        let mut c = base;
        c.obs.wall_timers = true; // without enabled
        assert!(c.validate().is_err());
        let mut c = base;
        c.obs = ObsConfig::profiled();
        c.validate().expect("profiled telemetry must validate");
        let mut c = base;
        c.candidate_pool = c.cohort_size - 1;
        assert!(c.validate().is_err());
        let mut c = base;
        c.candidate_pool = c.num_clients + 1;
        assert!(c.validate().is_err());
        let mut c = base;
        c.selector = SelectorChoice::FedBuff;
        c.candidate_pool = c.async_concurrency - 1;
        assert!(c.validate().is_err());
        let mut c = base;
        c.candidate_pool = c.cohort_size;
        c.validate().expect("pool = cohort must validate");
        let mut c = base;
        c.prox_mu = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = base;
        c.profiling.cold_only = true; // without enabled
        assert!(c.validate().is_err());
        let mut c = base;
        c.profiling = ProfilingConfig::on();
        c.validate().expect("profiling preset must validate");
        let mut c = base;
        c.server_optim = ServerOptimizerChoice::FedYogi;
        c.prox_mu = 0.1;
        c.scaffold = true;
        c.validate()
            .expect("drift corrections compose with any server optimizer");
    }

    #[test]
    fn validation_messages_carry_offending_values() {
        let base = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Off, 5);
        let mut c = base;
        c.cohort_size = 77;
        c.num_clients = 40;
        let err = c.validate().expect_err("bad cohort");
        assert!(err.contains("77") && err.contains("40"), "message: {err}");
        let mut c = base;
        c.num_clients = u32::MAX as usize + 1;
        let err = c.validate().expect_err("client ids past u32");
        assert!(err.contains("4294967296"), "message: {err}");
        let mut c = base;
        c.deadline_s = -3.5;
        let err = c.validate().expect_err("bad deadline");
        assert!(err.contains("-3.5"), "message: {err}");
        let mut c = base;
        c.learning_rate = -0.05;
        let err = c.validate().expect_err("bad learning_rate");
        assert!(err.contains("-0.05"), "message: {err}");
        let mut c = base;
        c.fault_plan.stall_backoff_s = -1.0;
        let err = c.validate().expect_err("bad backoff");
        assert!(err.contains("-1"), "message: {err}");
        let mut c = base;
        c.obs.wall_timers = true;
        let err = c.validate().expect_err("bad obs");
        assert!(
            err.contains("wall_timers true") && err.contains("enabled false"),
            "message: {err}"
        );
        let mut c = base;
        c.failure_hazard_per_s = f64::INFINITY;
        let err = c.validate().expect_err("infinite hazard");
        assert!(err.contains("failure_hazard_per_s inf"), "message: {err}");
        let mut c = base;
        c.reward_w_participation = f64::INFINITY;
        let err = c.validate().expect_err("infinite participation weight");
        assert!(err.contains("participation inf"), "message: {err}");
        let mut c = base;
        c.reward_w_accuracy = f64::INFINITY;
        let err = c.validate().expect_err("infinite accuracy weight");
        assert!(err.contains("accuracy inf"), "message: {err}");
        let mut c = base;
        c.eval_sample = 41; // num_clients is 40
        let err = c.validate().expect_err("bad eval_sample");
        assert!(err.contains("41") && err.contains("40"), "message: {err}");
        let mut c = base;
        c.shard_cache = 3; // cohort_size is 10
        let err = c.validate().expect_err("bad shard_cache");
        assert!(err.contains("3") && err.contains("10"), "message: {err}");
        let mut c = base;
        c.candidate_pool = 7; // cohort_size is 10
        let err = c.validate().expect_err("bad candidate_pool");
        assert!(err.contains("7") && err.contains("10"), "message: {err}");
        let mut c = base;
        c.selector = SelectorChoice::FedBuff;
        c.candidate_pool = 12; // async_concurrency is 20
        let err = c.validate().expect_err("pool below concurrency");
        assert!(err.contains("12") && err.contains("20"), "message: {err}");
        let mut c = base;
        c.alpha = Some(f64::INFINITY);
        let err = c.validate().expect_err("infinite alpha");
        assert!(err.contains("alpha inf"), "message: {err}");
        let mut c = base;
        c.prox_mu = -0.5;
        let err = c.validate().expect_err("bad prox_mu");
        assert!(err.contains("-0.5"), "message: {err}");
    }

    #[test]
    fn profiling_defaults_to_off_and_deserializes_from_old_configs() {
        let c = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Off, 5);
        assert!(!c.profiling.enabled, "presets must keep the oracle path");
        // A config serialized before the profiling field existed still
        // deserializes (serde default) to profiling off. The profiling
        // object is flat, so trimming from its key to the next `}` cuts
        // exactly the field an old config would lack.
        let json = serde_json::to_string(&c).expect("serializes");
        let start = json.find(",\"profiling\":{").expect("field serialized");
        let end = json[start..].find('}').expect("flat object") + start;
        let old = format!("{}{}", &json[..start], &json[end + 1..]);
        let back: ExperimentConfig = serde_json::from_str(&old).expect("old config deserializes");
        assert_eq!(back.profiling, ProfilingConfig::off());
    }

    /// `server_optim` was an object (the choice plus η, β₁, β₂, τ) until
    /// those became constants. A config of that shape is refused with an
    /// error, not a panic; one without the field loads as FedAvg.
    #[test]
    fn object_shaped_server_optim_is_an_error_and_a_missing_one_is_fedavg() {
        let c = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Off, 5);
        let json = serde_json::to_string(&c).expect("serializes");
        let field = r#","server_optim":"FedAvg""#;
        assert!(
            json.contains(field),
            "choice serialized as a string: {json}"
        );
        let old = json.replace(
            field,
            r#","server_optim":{"optimizer":"FedAdam","server_lr":1.0,"beta1":0.9,"beta2":0.99,"tau":0.001}"#,
        );
        assert!(serde_json::from_str::<ExperimentConfig>(&old).is_err());
        let back: ExperimentConfig =
            serde_json::from_str(&json.replace(field, "")).expect("config without the field");
        assert_eq!(back.server_optim, ServerOptimizerChoice::FedAvg);
    }

    /// Configs written while the flag selected a second attempt engine
    /// still load, validate, and run to the same report.
    #[test]
    fn old_pipeline_rounds_configs_still_load_and_run_identically() {
        let c = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Rlhf, 4);
        let json = serde_json::to_string(&c).expect("serializes");
        assert!(json.contains("\"pipeline_rounds\":false"));
        let old = json.replace("\"pipeline_rounds\":false", "\"pipeline_rounds\":true");
        let back: ExperimentConfig = serde_json::from_str(&old).expect("old config deserializes");
        assert!(back.pipeline_rounds);
        let run = |cfg| crate::Experiment::new(cfg).expect("validates").run();
        assert_eq!(run(back), run(c));
    }

    #[test]
    fn server_optim_defaults_keep_fedavg() {
        let c = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Off, 5);
        assert_eq!(
            c.server_optim,
            ServerOptimizerChoice::FedAvg,
            "presets must default to the historical FedAvg path"
        );
        assert_eq!(c.prox_mu, 0.0);
        assert!(!c.scaffold);
    }

    #[test]
    fn shard_cache_resolution_covers_round_working_set_and_is_bounded() {
        let small = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Off, 5);
        // The round working set, which sizes the cache past the cap.
        let working_set = (4 * small.cohort_size).max(small.async_concurrency).max(64);
        assert!(working_set < 1_000);
        for n in [1, 200, SHARD_RESIDENT_CAP] {
            let mut c = small;
            c.num_clients = n;
            assert_eq!(c.resolved_shard_cache(), n, "{n} clients are held whole");
        }
        for n in [SHARD_RESIDENT_CAP + 1, 10_000, 1_000_000] {
            let mut big = small;
            big.num_clients = n;
            // At population scale the auto capacity is O(cohort), not O(N).
            assert_eq!(big.resolved_shard_cache(), working_set, "{n} clients");
            assert!(big.resolved_shard_cache() >= big.cohort_size);
            assert!(big.resolved_shard_cache() >= big.async_concurrency);
            assert!(big.resolved_shard_cache() < 1_000);
        }
        // An explicit capacity wins on both sides of the cap.
        for n in [200, 1_000_000] {
            let mut c = small;
            c.num_clients = n;
            c.shard_cache = 17;
            assert_eq!(c.resolved_shard_cache(), 17);
        }
    }

    #[test]
    fn eval_sample_defaults_to_full_population() {
        let c = ExperimentConfig::paper_e2e(
            Task::Femnist,
            SelectorChoice::FedAvg,
            AccelMode::Rlhf,
            300,
        );
        assert_eq!(c.eval_sample, 0, "default must keep full-population eval");
        assert_eq!(c.shard_cache, 0, "default must keep auto cache sizing");
        c.validate().expect("defaults must validate");
    }

    #[test]
    fn selector_names_unique() {
        let mut names: Vec<_> = SelectorChoice::ALL_EXTENDED
            .iter()
            .map(|s| s.name())
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }
}
