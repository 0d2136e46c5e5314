//! The FLOAT experiment runtime: wires datasets, traces, selection,
//! acceleration, simulation, training, and aggregation into one
//! deterministic run (Algorithm 1 of the paper plus the surrounding FL
//! loop).

use std::collections::{BinaryHeap, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

use rand::seq::SliceRandom;

use float_accel::apply::transform_update;
use float_accel::{
    action_cost, action_train_options, AccelAction, AccelPlan, ActionCatalogue, ErrorFeedback,
};
use float_data::{ShardCache, ShardCacheStats};
use float_models::RoundCost;
use float_obs::metrics::{
    ESTIMATE_ERROR_BUCKETS, LATENCY_BUCKETS_S, PAYLOAD_BUCKETS_BYTES, UTILIZATION_BUCKETS,
};
use float_obs::{Collector, Event, OutcomeKind, Phase, Telemetry};
use float_profile::{ClientEstimate, ClientProfiler, Observation, ProfilerStats};
use float_rl::{AgentConfig, DeadlineLevel, GlobalState, LocalState, RlhfAgent};
use float_select::{
    ClientSelector, FedAvgSelector, FedBuffSelector, HeuristicPolicy, OortSelector, ReflSelector,
    SelectionFeedback, TiflSelector,
};
use float_sim::{
    apply_outcome_fault, estimate_round_time_s, execute_client_round, ClientRoundOutcome,
    DropReason, FaultKind, ResourceLedger, RoundParams, SimClock,
};
use float_tensor::model::TrainOptions;
use float_tensor::rng::{seed_rng, split_seed};
use float_tensor::{Dataset, DriftOptions, Mlp, MlpConfig, Sgd};
use float_traces::{AvailabilityStats, DeviceProfile, ResourceSampler, ResourceSnapshot};

use crate::aggregate::{dedup_updates, PendingUpdate};
use crate::audit::observed_outcome;
use crate::config::{AccelMode, ExperimentConfig, SelectorChoice};
use crate::engine::parallel_map_with;
use crate::metrics::{AccuracySummary, ClientCounts, ExperimentReport, RoundRecord};
use crate::optim::{ServerOptimizer, ServerOptimizerChoice};
use crate::trial::{lock_shards, EvalShardStats, EvalShards, SharedPopulation};

/// Hidden width of the proxy model used for the accuracy side of the
/// simulation. Kept modest so full 300-round runs stay fast.
const PROXY_HIDDEN: usize = 128;

/// A fully assembled experiment, ready to run.
pub struct Experiment {
    config: ExperimentConfig,
    /// Lazy per-client shards behind the population's bounded LRU cache,
    /// shared with every other trial over the same [`SharedPopulation`].
    /// Client datasets are derived on first touch (a pure function of
    /// `(seed, client)` — bit-identical to eager generation, pinned by the
    /// `lazy_shards` proptest), so training-data memory is O(cache
    /// capacity), not O(population).
    shards: Arc<Mutex<ShardCache>>,
    sampler: ResourceSampler,
    selector: Box<dyn ClientSelector + Send + Sync>,
    catalogue: ActionCatalogue,
    agent: Option<RlhfAgent>,
    heuristic: Option<HeuristicPolicy>,
    global_model: Mlp,
    /// Exponential moving average of each client's *vanilla-round*
    /// deadline overrun — the "deadline difference" human-feedback signal
    /// (Table 1). Tracking the vanilla estimate rather than the last
    /// accelerated outcome keeps the signal stable: a chronically slow
    /// client that acceleration rescued still reads as slow. Sparse
    /// (absent ⇒ 0.0, the historical initial value): only ever-planned
    /// clients carry state, so memory is O(participants), not
    /// O(population).
    hf_overrun_ema: HashMap<usize, f64>,
    /// Per-client residual memory for error-feedback compression
    /// (engaged when the extended catalogue's top-k action is chosen).
    /// Sparse like `hf_overrun_ema` (absent ⇒ a fresh empty residual).
    error_feedback: HashMap<usize, ErrorFeedback>,
    /// Prune-protected parameter mask of the proxy model (biases +
    /// classifier layer), computed once.
    protected: Vec<bool>,
    clock: SimClock,
    ledger: ResourceLedger,
    report: ExperimentReport,
    /// Wall-clock backoff accumulated by stall retries in the current
    /// synchronous round; drained into the round's wall time.
    round_backoff_s: f64,
    /// Telemetry collector (`ObsConfig::off()` by default). All events are
    /// recorded from the sequential plan/commit phases in cohort order, so
    /// enabling telemetry neither changes results nor breaks the
    /// bit-identical-across-thread-counts guarantee.
    obs: Collector,
    /// Reusable eligibility buffer, refilled each round — at population
    /// scale the eligible list is the largest per-round structure, so it
    /// is allocated once, not per round, and holds `u32` ids.
    eligible_buf: Vec<u32>,
    /// Reusable cohort buffer the selector writes into each round.
    cohort_buf: Vec<usize>,
    /// Clients whose accuracy defines the report
    /// ([`ExperimentConfig::eval_sample`]). Empty ⇒ the full population.
    /// Drawn once from its own seed stream and kept in ascending order, so
    /// `eval_sample == num_clients` is bit-identical to full eval.
    eval_set: Vec<usize>,
    /// The population's test-shard store: the one copy of every client's
    /// test shard, which the agent's reward reads.
    test_shards: Arc<EvalShards>,
    /// The evaluation set's test shards: `test_shards` itself when the
    /// trial evaluates the whole population, else a private store over the
    /// sample (whose ids mostly lie past the population store's bound).
    eval_shards: Arc<EvalShards>,
    /// Exact eligible count of the current round under candidate pooling
    /// (`None` on full-sweep runs, where `eligible_buf.len()` already *is*
    /// the exact count). Feeds `Event::RoundStart` and
    /// `RoundRecord::eligible` — never the pool size.
    record_eligible: Option<usize>,
    /// Server-side aggregation optimizer (FedAvg / FedAvgM / FedAdam /
    /// FedYogi). Its moment buffers advance only inside the sequential
    /// aggregation step of either engine, so optimizer state — like every
    /// other committed state — is identical for any worker-thread count.
    server_optim: ServerOptimizer,
    /// SCAFFOLD server control variate `c` (empty when SCAFFOLD is off).
    /// Read by the parallel execute phase, mutated only at commit time.
    scaffold_c: Vec<f32>,
    /// SCAFFOLD per-client control variates `c_i`. Sparse like
    /// `hf_overrun_ema` (absent ⇒ all-zero variate), so memory is
    /// O(participants), not O(population).
    scaffold_ci: HashMap<usize, Vec<f32>>,
    /// Per-client accuracies of the current `global_model`, once a reader
    /// has asked for them (see [`Experiment::client_accuracies`]);
    /// `aggregate()` — the only place the model changes — drops them.
    client_accuracies: Option<Vec<f64>>,
    /// The magnitude-prune training hooks of the current `global_model`,
    /// one slot per prune action ([`prune_slot`]): the mask is a function
    /// of `(global params, fraction, protected)` only, so the first attempt
    /// that trains under an action fills its slot — from whichever worker
    /// thread runs it, hence `OnceLock` — every later one reads it, and
    /// `aggregate()` empties the slots along with `client_accuracies`.
    prune_options: [OnceLock<TrainOptions>; 3],
    /// Online client profiler ([`ExperimentConfig::profiling`], DESIGN.md
    /// §17): the commit-phase fold of observed outcomes into per-client
    /// estimates that replace the trace oracle in selection and in the
    /// accel decision features. `None` with profiling off — the
    /// byte-identical historical path. Mutated only in the sequential
    /// commit phase (slot order) and read only in the sequential
    /// plan/select phases, so profiler state — and everything selection
    /// derives from it — is bit-identical for any worker-thread count.
    profiler: Option<ClientProfiler>,
    /// The next round [`Experiment::run_to`] executes; rounds before it are
    /// committed. Everything a later round reads lives on the experiment,
    /// so stopping at this boundary and continuing later replays the
    /// uninterrupted run bit for bit.
    next_round: usize,
    /// The FedBuff event loop's state that outlives an aggregation round
    /// (unused by the synchronous engine).
    fedbuff: FedBuffState,
}

// A sweep parks experiments between rungs and resumes them on whichever
// worker picks them up.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Experiment>();
};

/// One in-flight FedBuff attempt's slot-release event.
#[derive(PartialEq)]
struct Finish {
    at_s: f64,
    client: usize,
    attempt_idx: usize,
}

impl Eq for Finish {}

impl Ord for Finish {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on time. Finish times are sums of finite simulated
        // durations, so `total_cmp` orders exactly like the old partial
        // comparator while staying total.
        other
            .at_s
            .total_cmp(&self.at_s)
            .then(other.client.cmp(&self.client))
    }
}

impl PartialOrd for Finish {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// What the FedBuff loop carries from one aggregation round into the
/// next: clients stay in flight across aggregations, and staleness is
/// counted in aggregations since launch.
#[derive(Default)]
struct FedBuffState {
    /// Slot-release events of the in-flight attempts, earliest first.
    heap: BinaryHeap<Finish>,
    /// Every attempt launched so far; `Finish::attempt_idx` indexes it.
    attempts_store: Vec<Attempt>,
    /// Updates delivered since the last aggregation.
    buffer: Vec<PendingUpdate>,
    /// Aggregations applied so far.
    agg_count: u64,
    /// `agg_count` at each attempt's launch (parallel to `attempts_store`), to
    /// compute staleness on arrival.
    launch_agg: Vec<u64>,
    /// Indices into `attempts_store` of the current round's arrivals; empty at
    /// a round boundary (kept for its allocation).
    round_attempts: Vec<usize>,
}

/// The [`Experiment::prune_options`] slot of a magnitude-pruning action
/// (`None` for every other action, whose hooks are per attempt).
fn prune_slot(action: AccelAction) -> Option<usize> {
    match action {
        AccelAction::Prune25 => Some(0),
        AccelAction::Prune50 => Some(1),
        AccelAction::Prune75 => Some(2),
        _ => None,
    }
}

/// The agent-state inputs one accel decision was taken on.
type AgentState = (GlobalState, LocalState, DeadlineLevel);

/// The frozen inputs of one client attempt, produced by the sequential
/// *plan* phase. Everything the parallel *execute* phase needs is captured
/// here by value, so execution is a pure function of `(global params,
/// task)` plus read-only experiment state. `Clone` so a stall retry can
/// re-execute the same plan under a fresh attempt number.
#[derive(Clone)]
struct AttemptTask {
    client: usize,
    staleness: u64,
    /// Which delivery attempt this is (0 for the first; stall retries
    /// bump it so the fault schedule redraws).
    attempt: u32,
    snap: ResourceSnapshot,
    profile: DeviceProfile,
    action: AccelAction,
    base_cost: RoundCost,
    shard_len: usize,
    /// The client's train shard, pinned by the sequential plan phase via
    /// the shard cache so the parallel execute phase never touches the
    /// cache (cheap `Arc` clone; eviction cannot invalidate it).
    train: Arc<Dataset>,
    /// What the agent decided on, replayed verbatim to its feedback call
    /// in the commit phase (`None` in the modes that train no agent).
    agent_state: Option<AgentState>,
    /// Snapshot of the client's error-feedback residual, taken when the
    /// attempt is planned (or re-planned for a retry). `Some` only for the
    /// top-k compression action.
    error_feedback: Option<ErrorFeedback>,
    /// Snapshot of the client's SCAFFOLD control variate `c_i`, captured
    /// like `error_feedback` (SCAFFOLD runs only; an empty vec means the
    /// client has no variate yet).
    scaffold_ci: Option<Vec<f32>>,
}

/// The side-effect-free result of the parallel *execute* phase, consumed
/// by the sequential *commit* phase.
struct AttemptExec {
    outcome: ClientRoundOutcome,
    utility: f64,
    improvement: f64,
    update: Option<PendingUpdate>,
    /// Updated error-feedback residual (top-k compression only); written
    /// back to the experiment in the commit phase, in client order.
    error_feedback: Option<ErrorFeedback>,
    /// An injected duplicate-delivery fault hit this attempt: the
    /// transport will hand the aggregator the update twice.
    duplicate: bool,
    /// The fault (if any) the schedule injected into this attempt, carried
    /// back so the sequential commit phase can emit its telemetry event.
    fault: Option<FaultKind>,
    /// Refreshed SCAFFOLD client control variate (`c_i⁺`, SCAFFOLD runs
    /// only); folded into the server variate and stored at commit time,
    /// in cohort order.
    scaffold_ci: Option<Vec<f32>>,
    /// The executed plan's cost model (post-acceleration), carried back so
    /// the commit phase can invert the simulator's phase formulas into
    /// witnessed-throughput observations for the online profiler.
    cost: RoundCost,
}

/// Per-worker reusable buffers for the execute phase. Contents are fully
/// overwritten before each use, so scratch reuse cannot leak state between
/// attempts — it only recycles allocations.
#[derive(Default)]
struct WorkerScratch {
    /// Lazily created clone of the global model, re-parameterized per
    /// attempt via [`Mlp::set_params`].
    local: Option<Mlp>,
    /// Flattened-parameter readback buffer.
    params: Vec<f32>,
    /// Update-delta buffer.
    delta: Vec<f32>,
}

/// Read-only view of every piece of experiment state the execute phase
/// reads, borrowed for one fan-out. Nothing commits while workers run (the
/// barrier between execute and commit), so borrowing is enough: every
/// attempt in a batch sees the same values, and a stall retry — which by
/// contract observes the batch's earlier commits — borrows afresh.
struct ExecuteCtx<'a> {
    config: &'a ExperimentConfig,
    protected: &'a [bool],
    global_params: &'a [f32],
    /// Architecture template for workers that have not yet materialized
    /// their scratch model (parameters are overwritten per attempt).
    model: &'a Mlp,
    /// SCAFFOLD server control variate (empty when off).
    scaffold_c: &'a [f32],
    /// The population's test-shard store, read by the agent's reward.
    test_shards: &'a EvalShards,
    /// Per-model-version prune hooks, filled on first use by any worker:
    /// every filler computes the same value from `global_params`.
    prune_options: &'a [OnceLock<TrainOptions>; 3],
}

impl ExecuteCtx<'_> {
    /// Phase 2 — *execute*: simulate the round and, on completion, run the
    /// client's real local training and wire transform. A pure function of
    /// `(ctx, task)` — all randomness comes from seeds derived per
    /// `(round, client, attempt)` and the worker scratch is fully
    /// overwritten before use, so the result is independent of which
    /// worker runs it and in what order.
    fn execute(
        &self,
        round: usize,
        task: &AttemptTask,
        scratch: &mut WorkerScratch,
    ) -> AttemptExec {
        let global_params = self.global_params;
        // The simulator needs only the accelerated round's cost; the
        // masks the action trains under are built further down, for the
        // attempts that get as far as training.
        let cost = action_cost(task.action, task.base_cost, global_params);
        let round_params = RoundParams {
            deadline_s: self.config.deadline_s,
            failure_hazard_per_s: self.config.failure_hazard_per_s,
        };
        let mut outcome = execute_client_round(
            &task.snap,
            &task.profile,
            &cost,
            &round_params,
            split_seed(
                self.config.seed,
                0xE0 << 56 | (round as u64) << 20 | task.client as u64,
            ),
        );
        // Fig. 3 "no dropouts" counterfactual: every client that started
        // finishes, no matter how long it took.
        if self.config.assume_no_dropouts && outcome.dropped != Some(DropReason::Unavailable) {
            outcome.dropped = None;
        }
        // Injected faults land after the counterfactual override: the ND
        // analysis removes *benign* dropouts, not adversarial ones. The
        // draw is a pure function of (seed, round, client, attempt), so
        // it is identical no matter which worker executes the attempt.
        let fault = self.config.fault_plan.draw(
            self.config.seed,
            round as u64,
            task.client as u64,
            task.attempt,
        );
        if let Some(kind) = fault {
            if !kind.affects_payload() {
                apply_outcome_fault(&mut outcome, kind, &round_params);
            }
        }
        if !outcome.completed() {
            return AttemptExec {
                outcome,
                utility: 0.0,
                improvement: 0.0,
                update: None,
                error_feedback: None,
                duplicate: false,
                fault,
                scaffold_ci: None,
                cost,
            };
        }
        let derive_options = || {
            action_train_options(
                task.action,
                global_params,
                split_seed(self.config.seed, (round as u64) << 20 | task.client as u64),
                Some(self.protected),
            )
        };
        let plan = AccelPlan {
            action: task.action,
            cost,
            // A prune mask is fixed per model version and shared; a frozen
            // subset is seeded per client and derived per attempt.
            train_options: match prune_slot(task.action) {
                Some(slot) => self.prune_options[slot].get_or_init(derive_options).clone(),
                None => derive_options(),
            },
        };

        // Real local training with the plan's transform hooks. The worker
        // scratch supplies the local model and parameter buffers, reused
        // across attempts and rounds; the train shard was pinned by the
        // plan phase (Arc), so execution never touches the shard cache.
        let shard = &*task.train;
        let local = scratch.local.get_or_insert_with(|| self.model.clone());
        local
            .set_params(global_params)
            .expect("scratch model shares the global architecture");
        // Only an agent reads the accuracy gain (its feedback and reward):
        // the modes that train none fetch no test shard and skip both
        // evaluation passes. One fetch serves both passes.
        let test = self
            .config
            .accel
            .trains_agent()
            .then(|| self.test_shards.get(task.client, task.client));
        let accuracy = |m: &mut Mlp| test.as_deref().map_or(0.0, |t| m.accuracy_mut(t) as f64);
        let before = accuracy(local);
        let opt = Sgd::new(self.config.learning_rate);
        let mut last_loss = 0.0f32;
        // Drift corrections (FedProx / SCAFFOLD) read the control variates
        // through ctx + task, so every attempt in a batch sees one
        // consistent view. With both corrections off the default
        // `DriftOptions` skips the correction branches.
        let client_ci: &[f32] = task.scaffold_ci.as_deref().unwrap_or(&[]);
        let drift = DriftOptions {
            prox: (self.config.prox_mu > 0.0)
                .then_some((self.config.prox_mu as f32, global_params)),
            scaffold: self.config.scaffold.then_some((self.scaffold_c, client_ci)),
        };
        for e in 0..self.config.local_epochs {
            last_loss = local.train_epoch_corrected(
                shard,
                self.config.batch_size,
                &opt,
                split_seed(
                    self.config.seed,
                    (round as u64) << 24 | (task.client as u64) << 8 | e as u64,
                ),
                &plan.train_options,
                &drift,
            );
        }
        let after = accuracy(local);
        // Update delta, computed in place into the scratch buffer.
        local.params_into(&mut scratch.params);
        scratch.delta.clear();
        scratch
            .delta
            .extend(scratch.params.iter().zip(global_params).map(|(l, g)| l - g));
        // SCAFFOLD client-variate refresh (option II of the paper):
        // c_i⁺ = c_i − c + (x − y_i)/(K·η_l) = c_i − c − Δ_i/(K·η_l),
        // computed from the *raw* local delta before any wire transform.
        // The commit phase folds it into the server variate sequentially.
        let scaffold_ci = if self.config.scaffold {
            let steps = self.config.local_epochs * task.shard_len.div_ceil(self.config.batch_size);
            if steps == 0 {
                None
            } else {
                let scale = 1.0 / (steps as f32 * self.config.learning_rate);
                let ci_new: Vec<f32> = (0..scratch.delta.len())
                    .map(|j| {
                        let ci = client_ci.get(j).copied().unwrap_or(0.0);
                        ci - self.scaffold_c[j] - scratch.delta[j] * scale
                    })
                    .collect();
                Some(ci_new)
            }
        } else {
            None
        };
        // Apply the wire transform the acceleration dictates (quantization
        // grid, pruning zeros, sparsification). The attempt plan already
        // carries the masks — they depend only on the action, the global
        // parameters, and the seed, so no second plan is needed.
        let (mut delta, error_feedback) = if task.action == AccelAction::TopK10 {
            // Sparsified uploads carry per-client error feedback so the
            // untransmitted mass is not lost (see float_accel::feedback).
            // Work on the residual snapshotted into the task; the commit
            // phase writes the refreshed copy back in client order.
            let mut ef = task.error_feedback.clone().unwrap_or_default();
            let d = ef.compress(&scratch.delta, 0.10);
            (d, Some(ef))
        } else {
            (transform_update(task.action, &scratch.delta, &plan), None)
        };
        // A corrupt-payload fault poisons the wire delta with non-finite
        // values; server-side validation must catch these in the commit
        // phase before they reach aggregation.
        if fault == Some(FaultKind::CorruptPayload) && !delta.is_empty() {
            let mid = delta.len() / 2;
            delta[0] = f32::NAN;
            delta[mid] = f32::INFINITY;
        }
        // Oort's statistical utility: loss magnitude scaled by dataset size.
        let utility = f64::from(last_loss.max(0.0)) * (shard.len() as f64).sqrt();
        // Per-round accuracy improvements are a few percent at most, while
        // participation success is binary; normalize the accuracy objective
        // to a comparable [0, 1] range (one decile of local accuracy gain
        // saturates it) so the multi-objective trade-off stays live rather
        // than participation-dominated.
        let improvement = ((after - before) * 10.0).clamp(0.0, 1.0);
        AttemptExec {
            outcome,
            utility,
            improvement,
            update: Some(PendingUpdate {
                client: task.client,
                delta,
                samples: task.shard_len,
                staleness: task.staleness,
            }),
            error_feedback,
            duplicate: fault == Some(FaultKind::DuplicateDelivery),
            fault,
            scaffold_ci,
            cost,
        }
    }
}

/// Per-component `(cpu, mem, net)` availability fractions derivable from
/// one profiled estimate; `None` where the estimate has no evidence yet.
/// Compute capability is witnessed GFLOP/s relative to the device's
/// spec-sheet peak (the one static rating a real deployment does know);
/// network is witnessed throughput relative to the client's best-ever
/// link; memory is the complement of the Beta-mean OOM probability.
fn fraction_components(
    est: &ClientEstimate,
    peak_gflops: f64,
) -> (Option<f64>, Option<f64>, Option<f64>) {
    let cpu = est
        .compute_gflops
        .map(|g| (g / peak_gflops.max(1e-9)).clamp(0.0, 1.0));
    let mem = (est.observations > 0).then(|| (1.0 - est.oom_p).clamp(0.0, 1.0));
    let net = match (est.bandwidth_mbps, est.bandwidth_peak_mbps) {
        (Some(b), Some(p)) if p > 0.0 => Some((b / p).clamp(0.0, 1.0)),
        _ => None,
    };
    (cpu, mem, net)
}

/// The profiled replacement for the oracle snapshot fractions feeding the
/// accel agent's [`LocalState`] and the heuristic policy. Components the
/// client's own estimate cannot supply fall back to the population's
/// running estimate (full fractions before any data exists). A pure read —
/// never perturbs profiler state.
fn profiled_fractions(
    profiler: &ClientProfiler,
    client: usize,
    peak_gflops: f64,
) -> (f64, f64, f64) {
    let cold = profiler.global_estimate().map_or((1.0, 1.0, 1.0), |g| {
        let (c, m, n) = fraction_components(&g, peak_gflops);
        (c.unwrap_or(1.0), m.unwrap_or(1.0), n.unwrap_or(1.0))
    });
    let (c, m, n) = profiler
        .estimate(client)
        .map_or((None, None, None), |e| fraction_components(&e, peak_gflops));
    (
        c.unwrap_or(cold.0),
        m.unwrap_or(cold.1),
        n.unwrap_or(cold.2),
    )
}

/// The profiled replacement for [`estimate_round_time_s`] in the
/// human-feedback overrun signal: predict the vanilla round time from the
/// client's witnessed throughput estimates, mirroring the oracle
/// formula's floors (`mbps ≥ 1e-3`, `gflops ≥ 1e-4`). Unknown components
/// fall back to the global estimate, and to an instant phase before any
/// data exists (no overrun signal until evidence).
fn profiled_round_time_s(profiler: &ClientProfiler, client: usize, cost: &RoundCost) -> f64 {
    let est = profiler.estimate(client);
    let global = profiler.global_estimate();
    let mbps = est
        .and_then(|e| e.bandwidth_mbps)
        .or(global.and_then(|g| g.bandwidth_mbps));
    let gflops = est
        .and_then(|e| e.compute_gflops)
        .or(global.and_then(|g| g.compute_gflops));
    let net_term = mbps.map_or(0.0, |m| {
        (cost.download_bytes + cost.upload_bytes) * 8.0 / (m.max(1e-3) * 1e6)
    });
    let compute_term = gflops.map_or(0.0, |g| cost.train_flops / (g.max(1e-4) * 1e9));
    net_term + compute_term
}

/// Registry counter name for one committed-attempt outcome kind (counter
/// names must be `&'static str`).
fn outcome_counter(kind: OutcomeKind) -> &'static str {
    match kind {
        OutcomeKind::Completed => "outcomes_completed",
        OutcomeKind::Duplicate => "outcomes_duplicate",
        OutcomeKind::Quarantined => "outcomes_quarantined",
        OutcomeKind::Stalled => "outcomes_stalled",
        OutcomeKind::Dropped => "outcomes_dropped",
    }
}

/// Outcome of executing one client attempt (used by both round loops).
struct Attempt {
    client: usize,
    /// How the attempt ended: the commit phase's one classification.
    outcome: OutcomeKind,
    duration_s: f64,
    was_available: bool,
    utility: f64,
    /// Reward fed to the agent (None when agent off or not applicable).
    reward: Option<f64>,
    /// Pending update if the client completed.
    update: Option<PendingUpdate>,
}

impl Attempt {
    fn completed(&self) -> bool {
        self.outcome.is_completion()
    }
}

/// Hand a completed update to the aggregation input. An injected
/// duplicate-delivery fault (an at-least-once transport) hands it over
/// twice; the pre-aggregation dedup pass suppresses the extra copy so a
/// faulty transport cannot double-weight a client.
fn deliver_update(updates: &mut Vec<PendingUpdate>, update: PendingUpdate, duplicate: bool) {
    if duplicate {
        updates.push(update.clone());
    }
    updates.push(update);
}

/// The evaluation set: a fixed uniform sample of `eval_sample` clients
/// from a dedicated seed stream, sorted ascending so sampled evaluation
/// visits clients in the same order full evaluation does. Empty means
/// "everyone". The shuffle runs over `u32` ids — half the transient bytes
/// of `usize` ids (4 MB at 1M clients) — and `shuffle`'s draws and swaps
/// do not depend on the element type, so the sample is the one a `usize`
/// shuffle picks.
///
/// The buffer is shrunk in place before the ids are widened. Freeing it
/// whole instead raises glibc's dynamic mmap threshold to its size, which
/// moves the population's later multi-megabyte tables from `mmap` onto
/// the heap (DESIGN.md §13). Beside a transition calendar and dense
/// per-client report counts that made `pop1m_oort`'s peak RSS 55 instead
/// of 42 MiB. Beside the two-byte index, sparse counts, the 4-byte sweep
/// table and `u32` eligible ids it costs little: 20.4–20.5 MiB shrunk
/// against 20.6–20.8 freed whole (`--seed 9176432`, four of five
/// alternating pairs; the fifth shrunk run read 24.5).
fn draw_eval_set(num_clients: usize, eval_sample: usize, seed: u64) -> Vec<usize> {
    if eval_sample == 0 || eval_sample >= num_clients {
        return Vec::new();
    }
    let n = u32::try_from(num_clients).expect("client ids must fit u32");
    let mut ids: Vec<u32> = (0..n).collect();
    ids.shuffle(&mut seed_rng(split_seed(seed, 7)));
    ids.truncate(eval_sample);
    ids.shrink_to_fit();
    ids.sort_unstable();
    ids.iter().map(|&c| c as usize).collect()
}

impl Experiment {
    /// Build an experiment from a validated configuration: a trial over a
    /// population of its own, [`SharedPopulation::build`] of `config`.
    ///
    /// # Errors
    ///
    /// Returns the configuration error string if `config.validate()` fails.
    pub fn new(config: ExperimentConfig) -> Result<Self, String> {
        Self::new_shared(config, &SharedPopulation::build(&config)?)
    }

    /// Build a trial over a pre-built [`SharedPopulation`]: the trial
    /// reads shards through the population's store and clones its
    /// availability index instead of re-deriving either. The resulting
    /// run is bit-identical to `Experiment::new` with the same config —
    /// sharing amortizes cost, never changes bits.
    ///
    /// # Errors
    ///
    /// Returns the validation error string, or a mismatch description if
    /// `config` describes a different population than `population` was
    /// built for.
    pub fn new_shared(
        config: ExperimentConfig,
        population: &SharedPopulation,
    ) -> Result<Self, String> {
        config.validate()?;
        population.check(&config)?;
        let seed = config.seed;
        let sampler = population.sampler_for(&config);
        let selector: Box<dyn ClientSelector + Send + Sync> = match config.selector {
            SelectorChoice::FedAvg => Box::new(FedAvgSelector::new(split_seed(seed, 3))),
            SelectorChoice::Oort => Box::new(OortSelector::new(
                split_seed(seed, 3),
                config.deadline_s / 2.0,
            )),
            SelectorChoice::Refl => {
                Box::new(ReflSelector::new(split_seed(seed, 3), config.deadline_s))
            }
            SelectorChoice::FedBuff => Box::new(FedBuffSelector::new(
                split_seed(seed, 3),
                config.async_concurrency,
                config.async_buffer,
            )),
            SelectorChoice::Tifl => Box::new(TiflSelector::new(split_seed(seed, 3))),
        };
        let catalogue = match config.accel {
            AccelMode::RlhfExtended => ActionCatalogue::extended(),
            _ => ActionCatalogue::paper(),
        };
        let agent = config.accel.trains_agent().then(|| {
            let mut c = if config.accel == AccelMode::Rl {
                AgentConfig::rl_only(catalogue.len())
            } else {
                AgentConfig::rlhf(catalogue.len())
            };
            c.w_participation = config.reward_w_participation;
            c.w_accuracy = config.reward_w_accuracy;
            RlhfAgent::new(c, split_seed(seed, 4))
        });
        let heuristic = match config.accel {
            AccelMode::Heuristic => Some(HeuristicPolicy::new(split_seed(seed, 5))),
            _ => None,
        };
        let synth = *population.spec().synthetic();
        let global_model = Mlp::new(
            &MlpConfig::new(synth.feature_dim, &[PROXY_HIDDEN], synth.num_classes),
            split_seed(seed, 6),
        );
        // Non-default optimizer / drift choices are spelled out in the
        // label; the default FedAvg-no-drift path keeps the historical
        // format byte for byte (pinned by the golden reports).
        let mut label = format!(
            "{}({})/{}",
            config.accel.name(),
            config.selector.name(),
            config.task.name()
        );
        if config.server_optim != ServerOptimizerChoice::FedAvg {
            label.push('@');
            label.push_str(config.server_optim.name());
        }
        if config.prox_mu > 0.0 {
            label.push_str("+prox");
        }
        if config.scaffold {
            label.push_str("+scaffold");
        }
        if config.profiling.enabled {
            // `+prof0` marks the cold-start ablation (observations
            // suppressed), `+prof` the full online-profiling path.
            label.push_str(if config.profiling.cold_only {
                "+prof0"
            } else {
                "+prof"
            });
        }
        let report = ExperimentReport {
            label,
            accuracy: AccuracySummary::from_accuracies(&[]),
            client_accuracies: Vec::new(),
            selected_count: ClientCounts::new(config.num_clients),
            completed_count: ClientCounts::new(config.num_clients),
            total_dropouts: 0,
            total_completions: 0,
            total_quarantined: 0,
            duplicates_suppressed: 0,
            stall_retries: 0,
            resources: Default::default(),
            wall_clock_h: 0.0,
            technique_stats: Default::default(),
            rounds: Vec::new(),
            telemetry: None,
        };
        let protected = global_model.protected_mask();
        let num_params = global_model.num_params();
        let eval_set = draw_eval_set(config.num_clients, config.eval_sample, seed);
        let test_shards = population.test_shards();
        let eval_shards = if eval_set.is_empty() {
            Arc::clone(&test_shards)
        } else {
            // A sampled set is drawn from the trial seed: a private copy.
            let spec = Arc::clone(population.spec());
            Arc::new(EvalShards::new(spec, eval_set.len()))
        };
        Ok(Experiment {
            config,
            shards: population.shards(),
            sampler,
            selector,
            catalogue,
            agent,
            heuristic,
            global_model,
            hf_overrun_ema: HashMap::new(),
            error_feedback: HashMap::new(),
            protected,
            clock: SimClock::new(),
            ledger: ResourceLedger::new(),
            report,
            round_backoff_s: 0.0,
            obs: Collector::new(config.obs),
            eligible_buf: Vec::new(),
            cohort_buf: Vec::new(),
            eval_set,
            test_shards,
            eval_shards,
            record_eligible: None,
            server_optim: ServerOptimizer::new(config.server_optim),
            scaffold_c: if config.scaffold {
                vec![0.0; num_params]
            } else {
                Vec::new()
            },
            scaffold_ci: HashMap::new(),
            client_accuracies: None,
            prune_options: Default::default(),
            profiler: config
                .profiling
                .enabled
                .then(|| ClientProfiler::for_population(config.profiling, config.num_clients)),
            next_round: 0,
            fedbuff: FedBuffState::default(),
        })
    }

    /// Replace the agent with a pre-trained one (transfer / fine-tuning,
    /// RQ3 and Fig. 9). The agent's exploration state is reset via
    /// [`RlhfAgent::begin_fine_tune`].
    ///
    /// # Panics
    ///
    /// Panics if the experiment's accel mode is not RL/RLHF.
    pub fn install_pretrained_agent(&mut self, mut agent: RlhfAgent) {
        assert!(
            self.config.accel.trains_agent(),
            "cannot install an agent into accel mode {:?}",
            self.config.accel
        );
        agent.begin_fine_tune(split_seed(self.config.seed, 44));
        self.agent = Some(agent);
    }

    /// Replace the agent with a differently configured one *before*
    /// running (ablation studies). Unlike
    /// [`Experiment::install_pretrained_agent`], the agent's state is
    /// used as-is.
    ///
    /// # Panics
    ///
    /// Panics if the accel mode has no agent, or the action counts
    /// disagree with the experiment's catalogue.
    pub fn replace_agent(&mut self, agent: RlhfAgent) {
        assert!(
            self.config.accel.trains_agent(),
            "cannot install an agent into accel mode {:?}",
            self.config.accel
        );
        assert_eq!(
            agent.config().num_actions,
            self.catalogue.len(),
            "agent action count must match the experiment catalogue"
        );
        self.agent = Some(agent);
    }

    /// The experiment's configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The current global model.
    pub fn global_model(&self) -> &Mlp {
        &self.global_model
    }

    /// Counters of the test shards this experiment evaluates on: with
    /// `eval_sample == 0` that is the [`SharedPopulation`]'s store, shared
    /// with the agent's reads and the sweep's other trials.
    pub fn eval_shard_stats(&self) -> EvalShardStats {
        self.eval_shards.stats()
    }

    /// Advance to the boundary before round `round` (clamped to
    /// `config.rounds`); a no-op when the run is already there. May be
    /// called again to continue: any split of a run into `run_to` calls
    /// commits the same state, events included, as one uninterrupted run.
    /// Every `run*` method is `run_to(config.rounds)` plus finalisation,
    /// so each also finishes a partly advanced experiment.
    pub fn run_to(&mut self, round: usize) {
        let end = round.min(self.config.rounds);
        if self.next_round >= end {
            return;
        }
        if self.config.selector == SelectorChoice::FedBuff {
            self.run_async(end);
        } else {
            self.run_sync(end);
        }
        self.next_round = end;
    }

    /// Mean accuracy of the current global model over the evaluation set —
    /// what [`ExperimentReport::accuracy`]`.mean` would read if the run
    /// ended here. Reads the model only: no simulated state, event or
    /// report field changes, so it may be called at any boundary, any
    /// number of times.
    pub fn accuracy(&mut self) -> f64 {
        AccuracySummary::from_accuracies(self.client_accuracies()).mean
    }

    /// Run to completion and produce the report.
    pub fn run(mut self) -> ExperimentReport {
        self.run_to(self.config.rounds);
        self.finalize()
    }

    /// Run to completion and also return the online profiler's store
    /// accounting (`None` with profiling off), so harnesses can assert the
    /// bounded store's identities (`inserted == evictions + resident`,
    /// `resident ≤ capacity`) at population scale.
    pub fn run_with_profiler_stats(mut self) -> (ExperimentReport, Option<ProfilerStats>) {
        self.run_to(self.config.rounds);
        let stats = self.profiler.as_ref().map(ClientProfiler::stats);
        (self.finalize(), stats)
    }

    /// Run to completion and also return the shard-cache counters (so
    /// population-scale harnesses can assert that training-data memory
    /// stayed bounded by the configured cache capacity) plus the
    /// availability-index residency stats (heap bytes, row bits changed,
    /// tracked batteries, pool draws), so they can attribute both memory
    /// and per-round work.
    pub fn run_with_population_stats(
        mut self,
    ) -> (ExperimentReport, ShardCacheStats, AvailabilityStats) {
        self.run_to(self.config.rounds);
        let cache = lock_shards(&self.shards).stats();
        let avail = self.sampler.availability_stats();
        (self.finalize(), cache, avail)
    }

    /// Run to completion and also return the recorded telemetry (the full
    /// event stream plus the summary, for JSONL export and digests).
    /// Requires the config to enable observability — with telemetry off
    /// the stream would be silently empty, which is never what a caller
    /// of this method wants.
    ///
    /// # Panics
    ///
    /// Panics if `config.obs` is disabled.
    pub fn run_traced(mut self) -> (ExperimentReport, Telemetry) {
        assert!(
            self.obs.enabled(),
            "run_traced on a run with telemetry disabled (enable config.obs)"
        );
        self.run_to(self.config.rounds);
        let events = self.obs.take_events();
        let report = self.finalize();
        let summary = report.telemetry.clone().unwrap_or_default();
        (report, Telemetry { events, summary })
    }

    /// Run to completion and also return the trained RLHF agent (for the
    /// transfer / fine-tuning workflow of Fig. 9).
    ///
    /// # Panics
    ///
    /// Panics if the accel mode has no agent (Off / Static / Heuristic);
    /// use [`Experiment::run`] for those.
    pub fn run_capturing_agent(mut self) -> (ExperimentReport, RlhfAgent) {
        assert!(
            self.config.accel.trains_agent(),
            "accel mode {:?} trains no agent",
            self.config.accel
        );
        self.run_to(self.config.rounds);
        let agent = self.agent.take().expect("RL modes imply an agent");
        (self.finalize(), agent)
    }

    // ------------------------------------------------------------------
    // Shared per-client machinery
    // ------------------------------------------------------------------

    /// Refresh `eligible_buf` with the selection candidates for `round`,
    /// strictly ascending — the [`ClientSelector::select_in_place`]
    /// contract, which Oort's and FedBuff's binary searches rely on. Only
    /// selection reads the ids, and it leaves the buffer as its scratch;
    /// the round reads just the count afterwards (`Event::RoundStart`),
    /// so the sync engine selects in the buffer itself and the full sweep
    /// holds one O(eligible) array per round. Mirrors the FedScale/production
    /// model: devices that are off, interrupted, or below the battery
    /// threshold never become selection candidates, so dropouts are
    /// resource-driven (deadline, memory, mid-round failures) rather than
    /// trivial no-shows.
    ///
    /// With `candidate_pool == 0` this is the full availability sweep
    /// (bit-identical to the historical behaviour). Otherwise the sampler
    /// draws a deterministic pool of at most `candidate_pool` candidates
    /// from its availability index — per-round cost one pass over the
    /// index's row bits plus O(pool), no per-client model derived — and
    /// `record_eligible` captures the *exact* population-wide eligible
    /// count for telemetry. The pool's seed stream (8) is keyed by round
    /// only, so it is identical across thread counts and unaffected by any
    /// other consumer of randomness.
    fn refresh_eligible(&mut self, round: usize) {
        let k = self.config.candidate_pool;
        if k == 0 {
            self.sampler
                .available_clients_into(round, &mut self.eligible_buf);
            self.record_eligible = None;
        } else {
            let draw_seed = split_seed(split_seed(self.config.seed, 8), round as u64);
            let exact =
                self.sampler
                    .candidate_pool_into(round, k, draw_seed, &mut self.eligible_buf);
            self.record_eligible = Some(exact);
        }
    }

    /// Select a cohort for `round` out of `eligible` (the round's ids,
    /// strictly ascending), which the selector draws from in place and
    /// leaves as its scratch. The profiled path hands the selector a
    /// read-only view of the online estimates; the oracle path hands it
    /// none. When telemetry is on, cohort coverage — the fraction of
    /// selected clients the profiler has at least one resident
    /// observation for — is recorded before the round runs, so the
    /// metric describes the estimates selection actually acted on.
    fn select_cohort(
        &mut self,
        round: usize,
        target: usize,
        eligible: &mut [u32],
        cohort: &mut Vec<usize>,
    ) {
        self.selector
            .select_in_place(round, eligible, target, self.profiler.as_ref(), cohort);
        if self.obs.enabled() && !cohort.is_empty() {
            if let Some(p) = &self.profiler {
                let covered = cohort.iter().filter(|&&c| p.observed(c)).count();
                let reg = self.obs.registry_mut();
                reg.inc("profile_selected_clients", cohort.len() as u64);
                reg.inc("profile_covered_clients", covered as u64);
                reg.set_gauge(
                    "profile_cohort_coverage",
                    covered as f64 / cohort.len() as f64,
                );
            }
        }
    }

    /// What a selector may learn from one attempt. With profiling on, a
    /// non-completer's wall time is censored at the deadline: a real
    /// server never observes a no-show's counterfactual full duration
    /// (the oracle leak audited by ISSUE 9's feedback sweep). With
    /// profiling off the historical uncensored value flows through,
    /// byte for byte.
    fn selection_feedback(&self, a: &Attempt) -> SelectionFeedback {
        let duration_s = if self.profiler.is_some() && !a.completed() {
            a.duration_s.min(self.config.deadline_s)
        } else {
            a.duration_s
        };
        SelectionFeedback {
            client: a.client,
            completed: a.completed(),
            duration_s,
            utility: a.utility,
            was_available: a.was_available,
            quarantined: a.outcome == OutcomeKind::Quarantined,
        }
    }

    /// Decide the acceleration action for a client given its `(cpu, mem,
    /// net)` availability fractions — the oracle snapshot's with profiling
    /// off, the profiler's witnessed estimates with it on. When telemetry
    /// is on, emits the [`Event::AccelDecision`] for this attempt — still
    /// inside the sequential plan phase, so decision events appear in
    /// cohort order. Returns the action and, in the agent modes, the
    /// state the agent decided on.
    fn choose_action(
        &mut self,
        client: usize,
        fractions: (f64, f64, f64),
        round: usize,
    ) -> (AccelAction, Option<AgentState>) {
        let (cpu_f, mem_f, net_f) = fractions;
        let (action, agent_state, q, explore) = match self.config.accel {
            AccelMode::Off => (AccelAction::NoOp, None, 0.0, false),
            AccelMode::Static(idx) => (
                self.catalogue.action(idx % self.catalogue.len()),
                None,
                0.0,
                false,
            ),
            AccelMode::Heuristic => {
                let h = self
                    .heuristic
                    .as_mut()
                    .expect("heuristic mode implies a policy");
                (h.choose(cpu_f, net_f), None, 0.0, false)
            }
            AccelMode::Rl | AccelMode::Rlhf | AccelMode::RlhfExtended => {
                let global = GlobalState::from_raw(
                    self.config.batch_size,
                    self.config.local_epochs,
                    self.config.cohort_size,
                );
                let local = LocalState::from_fractions(cpu_f, mem_f, net_f);
                let hf = DeadlineLevel::from_overrun(
                    self.hf_overrun_ema.get(&client).copied().unwrap_or(0.0),
                );
                let agent = self.agent.as_mut().expect("RL modes imply an agent");
                // The traced call IS the decision path (`choose_action`
                // delegates to it), so the RNG stream is identical whether
                // or not anyone looks at the trace.
                let trace =
                    agent.choose_action_traced(global, local, hf, round, self.config.rounds);
                (
                    self.catalogue.action(trace.action),
                    Some((global, local, hf)),
                    trace.q_value,
                    trace.explored,
                )
            }
        };
        if self.obs.enabled() {
            let state = agent_state.map_or_else(
                || "-".to_string(),
                |(_, local, hf)| format!("s{}h{}", local.index(), hf.index()),
            );
            self.obs.record(Event::AccelDecision {
                round: round as u64,
                client: client as u64,
                state,
                action: action.name().to_string(),
                q,
                explore,
            });
        }
        (action, agent_state)
    }

    // ------------------------------------------------------------------
    // Two-phase attempt engine: plan (sequential, mutates decision state)
    // → execute (parallel, pure) → commit (sequential, client order).
    // ------------------------------------------------------------------

    /// Phase 1 — *plan*: snapshot the client, fold the human-feedback
    /// signal, and choose the acceleration action. Everything that mutates
    /// decision state (sampler RNG, agent exploration, EMA) happens here,
    /// in cohort order, so the parallel phase inherits a fixed plan.
    fn plan_attempt(&mut self, client: usize, round: usize, staleness: u64) -> AttemptTask {
        let snap = self.sampler.snapshot(client, round);
        let device = self.sampler.profile(client);
        // Pin the client's training shard for the execute phase. A run
        // touches the cache only here, in the sequential plan phase, so on
        // a population of its own its LRU state (and therefore its
        // hit/miss/eviction sequence) is deterministic.
        let train = lock_shards(&self.shards).get(client);
        let shard_len = train.len();
        let base_cost = RoundCost::vanilla(
            &self.config.arch.profile(),
            shard_len,
            self.config.local_epochs,
            self.config.batch_size,
        );
        // Human feedback: fold this round's *vanilla* overrun estimate into
        // the client's running deadline-difference profile before deciding.
        // With profiling off the estimate reads the trace oracle (the
        // historical path, byte for byte); with it on, only witnessed
        // throughput — the runtime's own observations — may be consulted.
        let vanilla_time_s = match &self.profiler {
            None => estimate_round_time_s(&snap, &base_cost),
            Some(p) => profiled_round_time_s(p, client, &base_cost),
        };
        let vanilla_overrun =
            ((vanilla_time_s - self.config.deadline_s) / self.config.deadline_s).max(0.0);
        let ema = self.hf_overrun_ema.entry(client).or_insert(0.0);
        *ema = 0.7 * *ema + 0.3 * vanilla_overrun;
        // The accel decision's resource features: oracle fractions, or the
        // profiler's witnessed estimates with the population prior.
        let fractions = match &self.profiler {
            None => (snap.cpu_fraction, snap.mem_fraction, snap.net_fraction),
            Some(p) => profiled_fractions(p, client, device.gflops),
        };
        let (action, agent_state) = self.choose_action(client, fractions, round);
        let (error_feedback, scaffold_ci) = self.snapshot_drift_state(client, action);
        AttemptTask {
            client,
            staleness,
            attempt: 0,
            snap,
            profile: device,
            action,
            base_cost,
            shard_len,
            train,
            agent_state,
            error_feedback,
            scaffold_ci,
        }
    }

    /// The execute phase's view of the experiment: configuration,
    /// protection mask, global parameters, architecture template, the
    /// SCAFFOLD server variate and the test-shard store. Borrowed once per
    /// attempt batch — and again per retry, which by contract sees the
    /// batch's earlier commits.
    fn execute_ctx<'a>(&'a self, global_params: &'a [f32]) -> ExecuteCtx<'a> {
        ExecuteCtx {
            config: &self.config,
            protected: &self.protected,
            global_params,
            model: &self.global_model,
            scaffold_c: &self.scaffold_c,
            test_shards: &self.test_shards,
            prune_options: &self.prune_options,
        }
    }

    /// Snapshot the per-client state the execute phase reads through the
    /// task: the error-feedback residual (top-k compression only) and the
    /// SCAFFOLD control variate. Taken at plan time — and re-taken per
    /// retry, which reads them after the batch's first-try commits.
    fn snapshot_drift_state(
        &self,
        client: usize,
        action: AccelAction,
    ) -> (Option<ErrorFeedback>, Option<Vec<f32>>) {
        let ef = (action == AccelAction::TopK10).then(|| {
            self.error_feedback
                .get(&client)
                .cloned()
                .unwrap_or_default()
        });
        let ci = self
            .config
            .scaffold
            .then(|| self.scaffold_ci.get(&client).cloned().unwrap_or_default());
        (ef, ci)
    }

    /// Phase 3 — *commit*: apply the attempt's mutations (ledger, battery,
    /// error-feedback residual, agent feedback, report bookkeeping) in
    /// client order. Always sequential, so these effects are identical no
    /// matter how many workers ran the execute phase.
    fn commit_attempt(
        &mut self,
        round: usize,
        task: &AttemptTask,
        mut exec: AttemptExec,
    ) -> Attempt {
        // The execute phase's measurements, recorded in commit order so the
        // registry is identical for any worker-thread count. Only an attempt
        // that trained carries an update; its size is read here, before the
        // quarantine branch below can discard it.
        if self.obs.enabled() {
            let reg = self.obs.registry_mut();
            reg.inc("attempts_executed", 1);
            if let Some(update) = &exec.update {
                reg.observe(
                    "client_latency_s",
                    LATENCY_BUCKETS_S,
                    exec.outcome.total_s(),
                );
                reg.observe(
                    "upload_bytes",
                    PAYLOAD_BUCKETS_BYTES,
                    (update.delta.len() * std::mem::size_of::<f32>()) as f64,
                );
            }
        }
        // Server-side payload validation: an update carrying NaN/Inf would
        // poison the global model through aggregation, so it is quarantined
        // — dropped before aggregation, its resources counted as wasted,
        // and the event surfaced in the ledger and report.
        if exec
            .update
            .as_ref()
            .is_some_and(|u| u.delta.iter().any(|v| !v.is_finite()))
        {
            exec.outcome.dropped = Some(DropReason::Quarantined);
            exec.update = None;
            // Discard the residual too: error feedback distilled from a
            // poisoned update must not leak into future rounds. The same
            // goes for a SCAFFOLD variate derived from a poisoned delta.
            exec.error_feedback = None;
            exec.scaffold_ci = None;
            exec.utility = 0.0;
            exec.improvement = 0.0;
            self.report.total_quarantined += 1;
        }
        self.ledger.record(&exec.outcome);
        self.sampler
            .drain_battery(task.client, exec.outcome.energy_j);
        if let Some(ef) = exec.error_feedback {
            self.error_feedback.insert(task.client, ef);
        }
        if let Some(ci_new) = exec.scaffold_ci.take() {
            // Reject a variate poisoned by non-finite arithmetic: a NaN
            // entry would spread to the server variate and from there to
            // every client's gradients.
            if ci_new.iter().all(|v| v.is_finite()) {
                // Server variate: c += (c_i⁺ − c_i)/N over the population,
                // applied here in cohort order (sequential ⇒ thread-count
                // invariant, like all committed state).
                let n = self.config.num_clients as f32;
                let old = self.scaffold_ci.get(&task.client);
                for (j, c) in self.scaffold_c.iter_mut().enumerate() {
                    let prev = old.map_or(0.0, |v| v[j]);
                    *c += (ci_new[j] - prev) / n;
                }
                self.scaffold_ci.insert(task.client, ci_new);
            }
        }
        // The one classification of this attempt: the event, the registry
        // counter, the profiler's observation and the round loops' view of
        // the attempt all derive from it.
        let outcome = match exec.outcome.dropped {
            None if exec.duplicate => OutcomeKind::Duplicate,
            None => OutcomeKind::Completed,
            Some(DropReason::Quarantined) => OutcomeKind::Quarantined,
            Some(DropReason::NetworkStall) => OutcomeKind::Stalled,
            Some(_) => OutcomeKind::Dropped,
        };
        let completed = outcome.is_completion();
        let reward = self.agent.as_mut().map(|agent| {
            let (global, local, hf) = task.agent_state.expect("the agent decided this attempt");
            let idx = self
                .catalogue
                .index_of(task.action)
                .expect("action came from the catalogue");
            if completed {
                agent.feedback(
                    task.client,
                    global,
                    local,
                    hf,
                    idx,
                    1.0,
                    exec.improvement,
                    round,
                    self.config.rounds,
                );
                let c = agent.config();
                c.w_participation + c.w_accuracy * exec.improvement
            } else {
                agent.feedback_dropout(
                    task.client,
                    global,
                    local,
                    hf,
                    idx,
                    round,
                    self.config.rounds,
                );
                0.0
            }
        });
        self.report.record_technique(task.action, completed);
        if self.obs.enabled() {
            if let Some(kind) = exec.fault {
                self.obs.record(Event::FaultInjected {
                    round: round as u64,
                    client: task.client as u64,
                    attempt: u64::from(task.attempt),
                    kind: kind.name().to_string(),
                });
                self.obs.registry_mut().inc("faults_injected", 1);
            }
            self.obs.record(Event::ClientOutcome {
                round: round as u64,
                client: task.client as u64,
                attempt: u64::from(task.attempt),
                outcome,
                sim_duration_s: exec.outcome.total_s(),
            });
            self.obs.registry_mut().inc(outcome_counter(outcome), 1);
        }
        // Online profiling: fold the committed outcome into the profiler.
        // Commit phase, slot order — so profiler state (and everything
        // selection later reads from it) is thread-count invariant. A
        // quarantined or dropped attempt teaches reliability only; the
        // witnessed throughputs invert the simulator's phase formulas
        // (`upload_s = bytes·8 / (mbps·1e6)`, `train_s = flops /
        // (gflops·1e9)`) so estimates converge on the effective rates.
        if let Some(profiler) = self.profiler.as_mut() {
            let kind = observed_outcome(
                outcome,
                exec.outcome.dropped == Some(DropReason::OutOfMemory),
            );
            let upload_mbps = (completed && exec.outcome.upload_s > 0.0)
                .then(|| exec.cost.upload_bytes * 8.0 / (exec.outcome.upload_s * 1e6));
            let compute_gflops = (completed && exec.outcome.train_s > 0.0)
                .then(|| exec.cost.train_flops / (exec.outcome.train_s * 1e9));
            // Estimate error against the *pre-update* prediction: how far
            // off was the latency the selector just acted on?
            let prior_latency = profiler.estimate(task.client).and_then(|e| e.latency_s);
            profiler.observe(
                task.client,
                &Observation {
                    round: round as u64,
                    kind,
                    duration_s: exec.outcome.total_s(),
                    upload_mbps,
                    compute_gflops,
                },
            );
            if self.obs.enabled() {
                let reg = self.obs.registry_mut();
                reg.inc("profile_observations", 1);
                if completed && exec.outcome.total_s() > 0.0 {
                    if let Some(pred) = prior_latency {
                        let actual = exec.outcome.total_s();
                        reg.observe(
                            "profile_estimate_error",
                            ESTIMATE_ERROR_BUCKETS,
                            ((pred - actual) / actual).abs(),
                        );
                    }
                }
            }
        }
        Attempt {
            client: task.client,
            outcome,
            duration_s: exec.outcome.total_s(),
            was_available: task.snap.available,
            utility: exec.utility,
            reward,
            update: exec.update,
        }
    }

    /// Plan, execute (fanned out over `scratches`), and commit a batch of
    /// client attempts, with a full barrier between the three phases.
    /// Results come back in cohort order.
    ///
    /// With `retry_stalled` set (the synchronous loop), clients whose
    /// upload hit an injected network stall are re-requested up to the
    /// fault plan's retry bound, each retry charging its backoff to the
    /// round's wall clock. Retries run sequentially in cohort order with a
    /// bumped attempt number, so the fault schedule redraws and the result
    /// stays independent of worker-thread count.
    fn run_attempts(
        &mut self,
        round: usize,
        cohort: &[usize],
        global_params: &[f32],
        scratches: &mut [WorkerScratch],
        retry_stalled: bool,
    ) -> Vec<Attempt> {
        let plan_t = self.obs.phase_start();
        let mut tasks = Vec::with_capacity(cohort.len());
        for &client in cohort {
            self.report.selected_count.increment(client);
            tasks.push(self.plan_attempt(client, round, 0));
        }
        self.obs.phase_end(round as u64, Phase::Plan, plan_t);
        let exec_t = self.obs.phase_start();
        let ctx = self.execute_ctx(global_params);
        let execs = parallel_map_with(scratches, &tasks, |scratch, task| {
            ctx.execute(round, task, scratch)
        });
        self.obs.phase_end(round as u64, Phase::Execute, exec_t);
        let commit_t = self.obs.phase_start();
        let mut attempts: Vec<Attempt> = tasks
            .iter()
            .zip(execs)
            .map(|(task, exec)| self.commit_attempt(round, task, exec))
            .collect();
        if retry_stalled {
            self.retry_stalled_attempts(round, global_params, &tasks, &mut attempts, scratches);
        }
        self.obs.phase_end(round as u64, Phase::Commit, commit_t);
        attempts
    }

    /// Sequential stall-retry pass: clients whose committed outcome was a
    /// network stall are re-requested in cohort order with a bumped attempt
    /// number. Each retry re-snapshots the drift state and re-borrows the
    /// execute context, because retries observe the batch's earlier
    /// commits.
    fn retry_stalled_attempts(
        &mut self,
        round: usize,
        global_params: &[f32],
        tasks: &[AttemptTask],
        attempts: &mut [Attempt],
        scratches: &mut [WorkerScratch],
    ) {
        let max_retries = self.config.fault_plan.stall_max_retries;
        if max_retries == 0 {
            return;
        }
        for (i, task0) in tasks.iter().enumerate() {
            let mut attempt_no = 0u32;
            while attempts[i].outcome == OutcomeKind::Stalled && attempt_no < max_retries {
                attempt_no += 1;
                let mut task = task0.clone();
                task.attempt = attempt_no;
                let (ef, ci) = self.snapshot_drift_state(task.client, task.action);
                task.error_feedback = ef;
                task.scaffold_ci = ci;
                self.round_backoff_s += self.config.fault_plan.stall_backoff_s;
                self.report.stall_retries += 1;
                if self.obs.enabled() {
                    self.obs.registry_mut().inc("stall_retries", 1);
                }
                let ctx = self.execute_ctx(global_params);
                let exec = ctx.execute(round, &task, &mut scratches[0]);
                attempts[i] = self.commit_attempt(round, &task, exec);
            }
        }
    }

    fn worker_scratches(&self) -> Vec<WorkerScratch> {
        (0..self.config.effective_threads())
            .map(|_| WorkerScratch::default())
            .collect()
    }

    /// Per-client accuracy of the current global model over the evaluation
    /// set, from one sweep per model: the sweep's result is kept until
    /// `aggregate()` installs new parameters, so the readers that look at
    /// an unchanged model (a run's last round and its finalisation, a rung
    /// score on an eval round) share it.
    fn client_accuracies(&mut self) -> &[f64] {
        if self.client_accuracies.is_none() {
            self.client_accuracies = Some(self.eval_all_clients());
        }
        self.client_accuracies
            .as_deref()
            .expect("filled just above")
    }

    /// One evaluation sweep: the full population by default, or the fixed
    /// `eval_sample` subset when configured. Test shards come from
    /// [`EvalShards`] (derived from the pure shard spec, never through the
    /// training cache), so evaluation cannot perturb the cache's
    /// deterministic LRU state; a full-population sweep reads the store
    /// the agent's reward fills.
    ///
    /// Each worker evaluates through its own clone of the global model via
    /// [`Mlp::accuracy_mut`], so one forward scratch is reused across
    /// every client of the sweep. Per-client accuracy is a pure function
    /// of the parameters, so the result is identical for any worker count.
    fn eval_all_clients(&self) -> Vec<f64> {
        let mut models = vec![self.global_model.clone(); self.config.effective_threads()];
        let (set, shards) = (&self.eval_set, &*self.eval_shards);
        let positions: Vec<usize> = (0..shards.eval_clients()).collect();
        parallel_map_with(&mut models, &positions, |m, &pos| {
            let client = set.get(pos).copied().unwrap_or(pos);
            m.accuracy_mut(&shards.get(pos, client)) as f64
        })
    }

    // ------------------------------------------------------------------
    // Synchronous engine (FedAvg / Oort / REFL)
    // ------------------------------------------------------------------

    fn run_sync(&mut self, end: usize) {
        // Scratch contents are fully overwritten per attempt, so building
        // them per call changes no bit and a parked experiment holds none.
        let mut scratches = self.worker_scratches();
        for round in self.next_round..end {
            self.refresh_eligible(round);
            let mut cohort = std::mem::take(&mut self.cohort_buf);
            let mut eligible = std::mem::take(&mut self.eligible_buf);
            self.select_cohort(round, self.config.cohort_size, &mut eligible, &mut cohort);
            self.eligible_buf = eligible;
            self.record_round_start(round, cohort.len());
            let global = self.global_model.params();
            let mut attempts = self.run_attempts(round, &cohort, &global, &mut scratches, true);
            self.cohort_buf = cohort;
            // Aggregate completed updates, taken by move.
            let mut updates: Vec<PendingUpdate> = Vec::with_capacity(attempts.len());
            for a in attempts.iter_mut() {
                if let Some(u) = a.update.take() {
                    deliver_update(&mut updates, u, a.outcome == OutcomeKind::Duplicate);
                }
            }
            self.aggregate(round, global, &mut updates);

            // Wall clock: the server waits for the slowest completer, or
            // the full deadline if anyone missed it — plus any backoff the
            // stall retries charged.
            let backoff_s = std::mem::take(&mut self.round_backoff_s);
            let any_miss = attempts.iter().any(|a| !a.completed() && a.was_available);
            let max_complete = attempts
                .iter()
                .filter(|a| a.completed())
                .map(|a| a.duration_s)
                .fold(0.0f64, f64::max);
            let round_wall = if any_miss {
                self.config.deadline_s
            } else {
                max_complete.max(1.0)
            } + backoff_s;
            self.clock.advance(round_wall);
            self.sampler.charge_all();

            let feedback: Vec<SelectionFeedback> = attempts
                .iter()
                .map(|a| self.selection_feedback(a))
                .collect();
            self.selector.feedback(round, &feedback);
            self.bookkeep_round(round, attempts.iter());
        }
    }

    // ------------------------------------------------------------------
    // Asynchronous engine (FedBuff)
    // ------------------------------------------------------------------

    fn run_async(&mut self, end: usize) {
        // Event-driven: each in-flight client has an absolute finish time;
        // aggregation fires whenever `async_buffer` updates are buffered.
        // The loop works on the state moved out of `self` and parks it
        // again at `end`.
        let mut fb = std::mem::take(&mut self.fedbuff);

        let mut scratches = self.worker_scratches();
        // Each launch batch selects from a fresh copy of the round's ids:
        // selection draws in place, and one round launches many batches.
        let mut launch_ids = Vec::new();
        for agg_round in self.next_round..end {
            // Event loop: keep the in-flight set topped up continuously
            // (FedBuff never waits to relaunch) and drain completion
            // events until the aggregation buffer fills.
            self.refresh_eligible(agg_round);
            // The global model only changes at aggregation boundaries, so
            // one parameter readback serves every launch batch in between.
            let global_params = self.global_model.params();
            let mut round_started = false;
            loop {
                let mut launched = std::mem::take(&mut self.cohort_buf);
                launch_ids.clone_from(&self.eligible_buf);
                let target = self.config.cohort_size;
                self.select_cohort(agg_round, target, &mut launch_ids, &mut launched);
                if !round_started {
                    round_started = true;
                    self.record_round_start(agg_round, launched.len());
                }
                let batch =
                    self.run_attempts(agg_round, &launched, &global_params, &mut scratches, false);
                self.cohort_buf = launched;
                for a in batch {
                    // Completions arrive when the client finishes. A failed
                    // client never reports back, so its slot is only
                    // reclaimed when the server-side timeout (the round
                    // deadline) fires — this is what bounds FedBuff's
                    // relaunch churn to the paper's ~5x over-selection.
                    let slot_free_s = if a.completed() {
                        a.duration_s.max(1.0)
                    } else {
                        self.config.deadline_s
                    };
                    let finish = Finish {
                        at_s: self.clock.now_s() + slot_free_s,
                        client: a.client,
                        attempt_idx: fb.attempts_store.len(),
                    };
                    fb.launch_agg.push(fb.agg_count);
                    fb.attempts_store.push(a);
                    fb.heap.push(finish);
                }
                if fb.buffer.len() >= self.config.async_buffer {
                    break;
                }
                let Some(ev) = fb.heap.pop() else { break };
                let dt = (ev.at_s - self.clock.now_s()).max(0.0);
                self.clock.advance(dt);
                let attempt = &mut fb.attempts_store[ev.attempt_idx];
                // Free the slot in the FedBuff selector.
                let feedback = self.selection_feedback(attempt);
                self.selector.feedback(agg_round, &[feedback]);
                fb.round_attempts.push(ev.attempt_idx);
                if let Some(mut u) = attempt.update.take() {
                    u.staleness = fb.agg_count - fb.launch_agg[ev.attempt_idx];
                    deliver_update(&mut fb.buffer, u, attempt.outcome == OutcomeKind::Duplicate);
                }
            }
            if !fb.buffer.is_empty() {
                self.aggregate(agg_round, global_params, &mut fb.buffer);
                fb.buffer.clear();
                fb.agg_count += 1;
            }
            self.sampler.charge_all();

            self.bookkeep_round(
                agg_round,
                fb.round_attempts.iter().map(|&i| &fb.attempts_store[i]),
            );
            fb.round_attempts.clear();
        }
        self.fedbuff = fb;
    }

    // ------------------------------------------------------------------
    // Bookkeeping + finalization
    // ------------------------------------------------------------------

    fn record_round_start(&mut self, round: usize, selected: usize) {
        self.obs.record(Event::RoundStart {
            round: round as u64,
            sim_s: self.clock.now_s(),
            eligible: self.record_eligible.unwrap_or(self.eligible_buf.len()) as u64,
            selected: selected as u64,
        });
    }

    /// Fold the delivered `updates` into the global model (whose current
    /// parameters the caller hands over as `global`): suppress duplicate
    /// deliveries, step the server optimizer, install the result.
    fn aggregate(&mut self, round: usize, mut global: Vec<f32>, updates: &mut Vec<PendingUpdate>) {
        let suppressed = dedup_updates(updates);
        self.report.duplicates_suppressed += suppressed;
        // The optimizer's applied count is authoritative: a batch with no
        // aggregate weight applies nothing, and the event must say so
        // rather than echo the batch size.
        let applied = self.server_optim.aggregate(&mut global, updates);
        self.global_model
            .set_params(&global)
            .expect("aggregation preserves parameter count");
        // Everything memoised per model version goes with the version.
        self.client_accuracies = None;
        self.prune_options = Default::default();
        self.obs.record(Event::AggregationApplied {
            round: round as u64,
            sim_s: self.clock.now_s(),
            updates: applied as u64,
            suppressed,
        });
    }

    /// Close a round over its final attempts: `RoundEnd` event, report
    /// counters, periodic evaluation, and the round record.
    fn bookkeep_round<'a>(&mut self, round: usize, attempts: impl Iterator<Item = &'a Attempt>) {
        let (mut selected, mut completed, mut quarantined) = (0usize, 0usize, 0usize);
        let mut rewards: Vec<f64> = Vec::new();
        for a in attempts {
            selected += 1;
            quarantined += usize::from(a.outcome == OutcomeKind::Quarantined);
            if a.completed() {
                completed += 1;
                self.report.completed_count.increment(a.client);
                self.report.total_completions += 1;
            } else {
                self.report.total_dropouts += 1;
            }
            rewards.extend(a.reward);
        }
        let dropped = selected - completed;
        self.obs.record(Event::RoundEnd {
            round: round as u64,
            sim_s: self.clock.now_s(),
            completed: completed as u64,
            dropped: dropped as u64,
            quarantined: quarantined as u64,
        });
        if self.obs.enabled() {
            let utilization = if selected == 0 {
                0.0
            } else {
                completed as f64 / selected as f64
            };
            let reg = self.obs.registry_mut();
            reg.observe("round_utilization", UTILIZATION_BUCKETS, utilization);
            reg.set_gauge("sim_clock_h", self.clock.now_s() / 3600.0);
        }
        let mean_reward =
            (!rewards.is_empty()).then(|| rewards.iter().sum::<f64>() / rewards.len() as f64);
        let is_eval =
            round.is_multiple_of(self.config.eval_every) || round + 1 == self.config.rounds;
        let mean_accuracy = is_eval.then(|| {
            let accs = self.client_accuracies();
            accs.iter().sum::<f64>() / accs.len().max(1) as f64
        });
        self.report.rounds.push(RoundRecord {
            round,
            selected,
            completed,
            dropped,
            quarantined,
            clock_s: self.clock.now_s(),
            mean_accuracy,
            mean_reward,
            eligible: self.record_eligible,
        });
    }

    fn finalize(mut self) -> ExperimentReport {
        let accs = self.client_accuracies().to_vec();
        self.report.accuracy = AccuracySummary::from_accuracies(&accs);
        self.report.client_accuracies = accs;
        self.report.resources = self.ledger.totals();
        self.report.wall_clock_h = self.clock.now_hours();
        if self.obs.enabled() {
            // The summary is all simulated-state data (event tallies +
            // registry snapshot), so embedding it keeps the report inside
            // the bit-identical determinism contract.
            self.report.telemetry = Some(self.obs.summary());
        }
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use float_accel::prune::magnitude_mask_protected;

    fn run_small(selector: SelectorChoice, accel: AccelMode, rounds: usize) -> ExperimentReport {
        let cfg = ExperimentConfig::small(selector, accel, rounds);
        Experiment::new(cfg).expect("valid config").run()
    }

    #[test]
    fn sync_baseline_runs_and_reports() {
        let r = run_small(SelectorChoice::FedAvg, AccelMode::Off, 8);
        assert_eq!(r.rounds.len(), 8);
        assert_eq!(r.client_accuracies.len(), 40);
        assert!(r.total_completions + r.total_dropouts > 0);
        assert!(r.wall_clock_h > 0.0);
        // Selected counts sum to rounds * cohort.
        let total_selected = r.selected_count.sum();
        assert_eq!(total_selected, 8 * 10);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_small(SelectorChoice::FedAvg, AccelMode::Rlhf, 5);
        let b = run_small(SelectorChoice::FedAvg, AccelMode::Rlhf, 5);
        assert_eq!(a.total_dropouts, b.total_dropouts);
        assert_eq!(a.client_accuracies, b.client_accuracies);
        assert_eq!(a.selected_count, b.selected_count);
    }

    #[test]
    fn accuracy_improves_over_rounds() {
        let r = run_small(SelectorChoice::FedAvg, AccelMode::Off, 20);
        let evals: Vec<(usize, f64)> = r
            .rounds
            .iter()
            .filter_map(|x| x.mean_accuracy.map(|a| (x.round, a)))
            .collect();
        assert!(evals.len() >= 2);
        let first = evals.first().expect("has evals").1;
        let last = evals.last().expect("has evals").1;
        assert!(
            last > first + 0.05,
            "no learning: first {first} last {last}"
        );
    }

    #[test]
    fn fedbuff_async_engine_runs() {
        let r = run_small(SelectorChoice::FedBuff, AccelMode::Off, 6);
        assert_eq!(r.rounds.len(), 6);
        assert!(r.total_completions > 0, "no async completions");
    }

    #[test]
    fn rlhf_reduces_dropouts_vs_vanilla() {
        let off = run_small(SelectorChoice::FedAvg, AccelMode::Off, 15);
        let rlhf = run_small(SelectorChoice::FedAvg, AccelMode::Rlhf, 15);
        assert!(
            rlhf.total_dropouts < off.total_dropouts,
            "rlhf {} vs off {} dropouts",
            rlhf.total_dropouts,
            off.total_dropouts
        );
    }

    #[test]
    fn static_mode_uses_single_technique() {
        let r = run_small(SelectorChoice::FedAvg, AccelMode::Static(4), 5); // Prune75
        assert_eq!(r.technique_stats.len(), 1);
        assert!(r.technique_stats.contains_key("prune75"));
    }

    #[test]
    fn heuristic_mode_uses_rule_pools_only() {
        let r = run_small(SelectorChoice::FedAvg, AccelMode::Heuristic, 6);
        for name in r.technique_stats.keys() {
            assert!(
                [
                    "prune75",
                    "partial75",
                    "quant8",
                    "quant16",
                    "partial25",
                    "prune25"
                ]
                .contains(&name.as_str()),
                "unexpected technique {name}"
            );
        }
    }

    #[test]
    fn agent_transfer_roundtrip() {
        let cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Rlhf, 6);
        let (_, agent) = Experiment::new(cfg).expect("valid").run_capturing_agent();
        let mut exp2 = Experiment::new(ExperimentConfig::small(
            SelectorChoice::Oort,
            AccelMode::Rlhf,
            4,
        ))
        .expect("valid");
        exp2.install_pretrained_agent(agent);
        let r = exp2.run();
        assert_eq!(r.rounds.len(), 4);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Off, 5);
        cfg.cohort_size = 0;
        assert!(Experiment::new(cfg).is_err());
    }

    /// `eval_sample == num_clients` must take the full-population path and
    /// reproduce the default report bit for bit — sampling only changes
    /// the eval set when it is a strict subset.
    #[test]
    fn full_eval_sample_is_bit_identical_to_default() {
        let base = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Rlhf, 6);
        let mut sampled = base;
        sampled.eval_sample = base.num_clients;
        let a = Experiment::new(base).expect("valid").run();
        let b = Experiment::new(sampled).expect("valid").run();
        assert_eq!(a, b, "eval_sample == num_clients changed the report");
    }

    /// The `u32` shuffle picks the evaluation set the historical `usize`
    /// shuffle picked: same draws, same swaps, same ids.
    #[test]
    fn eval_set_draw_equals_the_usize_shuffle() {
        for seed in [0, 7, 20240422, 9176432, u64::MAX] {
            for (n, k) in [(2, 1), (10, 3), (200, 64), (1000, 999), (100_000, 256)] {
                let mut ids: Vec<usize> = (0..n).collect();
                ids.shuffle(&mut seed_rng(split_seed(seed, 7)));
                ids.truncate(k);
                ids.sort_unstable();
                assert_eq!(draw_eval_set(n, k, seed), ids, "seed {seed}, n {n}, k {k}");
            }
            assert!(draw_eval_set(50, 0, seed).is_empty(), "0 means everyone");
            assert!(draw_eval_set(50, 50, seed).is_empty(), "n means everyone");
        }
    }

    /// One evaluation sweep per global model. Planting a marker where the
    /// last sweep's accuracies are kept shows who reads them: `accuracy()`
    /// and finalisation report the marker (no second sweep of a model the
    /// last round already evaluated), and the next aggregation discards it.
    #[test]
    fn readers_of_an_unchanged_model_share_one_evaluation_sweep() {
        let mut cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Off, 4);
        cfg.eval_every = 3;
        let mut exp = Experiment::new(cfg).expect("valid");
        let marker = vec![0.25; cfg.num_clients];

        // Round 0 is an eval round: its sweep is what `accuracy()` reads.
        exp.run_to(1);
        let swept = exp.client_accuracies.clone().expect("round 0 evaluated");
        assert_eq!(swept.len(), cfg.num_clients);
        exp.client_accuracies = Some(marker.clone());
        assert_eq!(exp.accuracy(), 0.25);

        // Round 1 aggregates and does not evaluate: the marker is gone,
        // and a score taken here is a fresh sweep of the new model.
        exp.run_to(2);
        assert_eq!(exp.client_accuracies, None);
        let fresh = exp.accuracy();
        assert!(fresh != 0.25 && (0.0..=1.0).contains(&fresh), "{fresh}");

        // The last round (3, also `3 % eval_every == 0`) evaluates the
        // final model; finalisation reports that sweep rather than
        // running it again.
        exp.run_to(4);
        assert_ne!(exp.client_accuracies.as_ref(), Some(&marker));
        exp.client_accuracies = Some(marker.clone());
        let report = exp.finalize();
        assert_eq!(report.client_accuracies, marker);
        assert_eq!(report.accuracy.mean, 0.25);
    }

    /// One prune mask per model version. Two rounds driven by hand under a
    /// static Prune50 policy: an attempt batch fills that action's slot —
    /// and no other — with exactly the mask of the parameters it trained
    /// from, `aggregate()` empties every slot, and the next batch's mask is
    /// that of the new parameters.
    #[test]
    fn prune_mask_is_memoised_per_model_version() {
        let prune50 = ActionCatalogue::paper()
            .index_of(AccelAction::Prune50)
            .expect("in the paper catalogue");
        let cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Static(prune50), 2);
        let mut exp = Experiment::new(cfg).expect("valid");
        let mut scratches = exp.worker_scratches();
        let slot = prune_slot(AccelAction::Prune50).expect("a prune action");
        let mut masks = Vec::new();
        for round in 0..2 {
            assert!(exp.prune_options.iter().all(|s| s.get().is_none()));
            exp.refresh_eligible(round);
            let mut cohort = Vec::new();
            let mut eligible = exp.eligible_buf.clone();
            exp.select_cohort(round, cfg.cohort_size, &mut eligible, &mut cohort);
            let global = exp.global_model.params();
            let mut attempts = exp.run_attempts(round, &cohort, &global, &mut scratches, true);
            let want = magnitude_mask_protected(&global, 0.5, &exp.protected);
            for (i, held) in exp.prune_options.iter().enumerate() {
                let held = held.get().and_then(|o| o.prune_mask.as_deref());
                assert_eq!(held, (i == slot).then_some(&want[..]), "slot {i}");
            }
            masks.push(want);
            let mut updates: Vec<PendingUpdate> = attempts
                .iter_mut()
                .filter_map(|a| a.update.take())
                .collect();
            assert!(!updates.is_empty(), "round {round}: nobody trained");
            exp.aggregate(round, global, &mut updates);
        }
        assert!(exp.prune_options.iter().all(|s| s.get().is_none()));
        assert_ne!(masks[0], masks[1], "the model moved, the mask did not");
    }

    /// A strict eval subset evaluates exactly `eval_sample` clients,
    /// deterministically, without touching the training trajectory.
    #[test]
    fn sampled_eval_is_deterministic_and_sized() {
        let mut cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Off, 6);
        cfg.eval_sample = 7;
        let a = Experiment::new(cfg).expect("valid").run();
        let b = Experiment::new(cfg).expect("valid").run();
        assert_eq!(a, b);
        assert_eq!(a.client_accuracies.len(), 7);
        // The training trajectory is eval-independent: selection and
        // dropout counters match the full-eval run exactly.
        let full = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Off, 6);
        let f = Experiment::new(full).expect("valid").run();
        assert_eq!(a.selected_count, f.selected_count);
        assert_eq!(a.total_dropouts, f.total_dropouts);
    }

    /// Shard-cache capacity is a memory knob, never a results knob: an
    /// explicit tiny capacity (forcing evictions) must reproduce the
    /// auto-capacity report bit for bit — in both engines, the FedBuff
    /// case under chaos at 200 clients, three times what the round's
    /// working set alone would hold. Auto holds these populations whole:
    /// each shard is derived at most once and none is evicted.
    #[test]
    fn shard_cache_capacity_does_not_change_results() {
        let sync = ExperimentConfig::small(SelectorChoice::Oort, AccelMode::Rlhf, 6);
        let mut fedbuff = ExperimentConfig::small(SelectorChoice::FedBuff, AccelMode::Rlhf, 12);
        fedbuff.num_clients = 200;
        fedbuff.fault_plan = float_sim::FaultPlan::chaos();
        for auto in [sync, fedbuff] {
            let mut tiny = auto;
            tiny.shard_cache = auto.cohort_size; // smallest legal capacity
            let (a, a_stats, _) = Experiment::new(auto)
                .expect("valid")
                .run_with_population_stats();
            let (b, b_stats, _) = Experiment::new(tiny)
                .expect("valid")
                .run_with_population_stats();
            assert_eq!(a, b, "cache capacity changed the report");
            assert!(b_stats.evictions > 0, "tiny cache never evicted");
            assert!(b_stats.peak_resident <= b_stats.capacity);
            assert_eq!(a_stats.capacity, auto.num_clients);
            assert!(a_stats.misses <= auto.num_clients as u64);
            assert_eq!(a_stats.evictions, 0);
            assert!(a_stats.peak_resident <= a_stats.capacity);
        }
    }

    #[test]
    fn chaos_sync_run_is_finite_and_accounts_faults() {
        let mut cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Rlhf, 10);
        cfg.fault_plan = float_sim::FaultPlan::chaos();
        let r = Experiment::new(cfg).expect("valid config").run();
        assert!(r.is_finite(), "report carries NaN/Inf under faults");
        assert_eq!(
            r.total_quarantined, r.resources.quarantined,
            "report and ledger disagree on quarantine count"
        );
        assert!(
            r.total_quarantined > 0,
            "5% corrupt rate over 100 attempts should quarantine something"
        );
        assert!(r.duplicates_suppressed > 0, "no duplicates suppressed");
        assert!(r.stall_retries > 0, "no stall retries issued");
        let round_quarantines: usize = r.rounds.iter().map(|x| x.quarantined).sum();
        assert_eq!(round_quarantines as u64, r.total_quarantined);
    }

    #[test]
    fn chaos_async_run_is_finite() {
        let mut cfg = ExperimentConfig::small(SelectorChoice::FedBuff, AccelMode::Off, 6);
        cfg.fault_plan = float_sim::FaultPlan::chaos();
        let r = Experiment::new(cfg).expect("valid config").run();
        assert!(r.is_finite(), "async report carries NaN/Inf under faults");
        assert_eq!(r.total_quarantined, r.resources.quarantined);
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let mut cfg = ExperimentConfig::small(SelectorChoice::Oort, AccelMode::Rlhf, 6);
        cfg.fault_plan = float_sim::FaultPlan::chaos();
        let a = Experiment::new(cfg).expect("valid").run();
        let b = Experiment::new(cfg).expect("valid").run();
        assert_eq!(a, b);
    }

    #[test]
    fn telemetry_is_pure_observation_under_chaos() {
        // Turning telemetry on must not change a single bit of the report
        // (beyond carrying the summary), even under the chaos fault plan.
        let mut cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Rlhf, 8);
        cfg.fault_plan = float_sim::FaultPlan::chaos();
        let base = Experiment::new(cfg).expect("valid").run();
        let mut cfg_obs = cfg;
        cfg_obs.obs = float_obs::ObsConfig::on();
        let (report, telemetry) = Experiment::new(cfg_obs).expect("valid").run_traced();
        let mut stripped = report.clone();
        stripped.telemetry = None;
        assert_eq!(stripped, base, "telemetry perturbed the run");
        assert_eq!(
            report.telemetry.as_ref().expect("summary embedded"),
            &telemetry.summary,
            "embedded summary must match the returned telemetry"
        );
        assert!(telemetry.summary.events_dropped == 0);
        assert_eq!(
            telemetry.summary.events_recorded as usize,
            telemetry.events.len()
        );
    }

    #[test]
    fn sync_event_stream_reconciles_with_ledger_and_report() {
        let mut cfg = ExperimentConfig::small(SelectorChoice::Oort, AccelMode::Rlhf, 10);
        cfg.fault_plan = float_sim::FaultPlan::chaos();
        cfg.obs = float_obs::ObsConfig::on();
        let (report, telemetry) = Experiment::new(cfg).expect("valid").run_traced();
        assert_eq!(
            crate::audit::audit(&report, &telemetry.events, false),
            vec![]
        );
        // The scenario reaches the retry and dedup paths the audit counts.
        assert!(report.stall_retries > 0, "chaos plan should force retries");
        assert!(report.duplicates_suppressed > 0, "no duplicate delivered");
    }

    #[test]
    fn async_event_stream_counts_committed_attempts() {
        let mut cfg = ExperimentConfig::small(SelectorChoice::FedBuff, AccelMode::Off, 6);
        cfg.fault_plan = float_sim::FaultPlan::chaos();
        cfg.obs = float_obs::ObsConfig::on();
        let (report, telemetry) = Experiment::new(cfg).expect("valid").run_traced();
        assert_eq!(
            crate::audit::audit(&report, &telemetry.events, true),
            vec![]
        );
        // FedBuff launches a batch on every event-loop turn; a turn with no
        // free slot launches nobody and still emits the three spans.
        let batches = crate::audit::planned_per_batch(&telemetry.events).expect("phase order");
        assert!(batches.len() > report.rounds.len());
        assert!(batches.contains(&0), "no empty launch batch exercised");
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        // FaultPlan::none() must be a true no-op: same results as a config
        // that never heard of fault injection.
        let cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Rlhf, 5);
        let mut cfg_faultless = cfg;
        cfg_faultless.fault_plan = float_sim::FaultPlan::none();
        let a = Experiment::new(cfg).expect("valid").run();
        let b = Experiment::new(cfg_faultless).expect("valid").run();
        assert_eq!(a, b);
        assert_eq!(a.total_quarantined, 0);
        assert_eq!(a.stall_retries, 0);
        assert_eq!(a.duplicates_suppressed, 0);
    }
}
