//! `float-sweep` — the concurrent sweep orchestrator: grid and
//! successive-halving search over [`ExperimentConfig`] variations, run as
//! a pool of concurrent trials with shared-resource amortization.
//!
//! Three performance layers (see `DESIGN.md` §18):
//!
//! 1. **Experiment-level parallelism.** Trials are independent
//!    single-threaded experiments (`num_threads = 1`), fanned out over a
//!    work-stealing worker pool — the same scoped-pool primitive the
//!    round engine uses ([`parallel_map_with`]), lifted from attempt
//!    granularity to trial granularity. Each trial's seed is
//!    `split_seed(root, trial_idx)`, a pure function of the plan, so
//!    per-trial reports are bit-identical regardless of worker count or
//!    completion order.
//! 2. **Shared-resource amortization.** All trials share one population
//!    (`data_seed = root`): one [`SharedPopulation`] derives the shard
//!    spec, the sweep-wide shard store, and the availability calendar
//!    exactly once; every trial attaches via cheap handles.
//! 3. **Successive-halving pruning.** With a [`Halving`] schedule, rungs
//!    run every surviving trial at a growing round budget and promote
//!    only the top `1/eta` fraction by accuracy-at-budget; doomed trials
//!    never reach the full budget. Survivors' final records come from
//!    full-budget runs, so pruning changes *which* trials finish, never
//!    the bits of those that do.
//!
//! [`parallel_map_with`]: float_core::engine::parallel_map_with

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use float_core::engine::parallel_map_with;
use float_core::optim::{ServerOptimConfig, ServerOptimizerChoice};
use float_core::trial::{run_trial_traced, SharedPopulation};
use float_core::{AccelMode, ExperimentConfig, ExperimentReport, SelectorChoice, ShardCacheStats};
use float_obs::{sink, ObsConfig};
use float_tensor::rng::split_seed;

/// One runtime knob a sweep varies. Deliberately excludes
/// population-defining fields (task, client count, samples, skew):
/// trials in a sweep share one population — that is what makes the
/// shared-resource layer sound.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Knob {
    /// Clients sampled per synchronous round.
    CohortSize(usize),
    /// Local epochs per client round.
    LocalEpochs(usize),
    /// Round deadline, seconds.
    DeadlineS(f64),
    /// Local SGD learning rate.
    LearningRate(f32),
    /// Local batch size.
    BatchSize(usize),
    /// Client-selection algorithm.
    Selector(SelectorChoice),
    /// Server-side aggregation optimizer.
    ServerOptim(ServerOptimizerChoice),
    /// Acceleration mode.
    Accel(AccelMode),
    /// FedProx proximal coefficient.
    ProxMu(f64),
    /// Candidate-pool size (0 ⇒ full availability sweep).
    CandidatePool(usize),
}

impl Knob {
    /// Apply this knob to a trial config.
    pub fn apply(&self, cfg: &mut ExperimentConfig) {
        match *self {
            Knob::CohortSize(v) => cfg.cohort_size = v,
            Knob::LocalEpochs(v) => cfg.local_epochs = v,
            Knob::DeadlineS(v) => cfg.deadline_s = v,
            Knob::LearningRate(v) => cfg.learning_rate = v,
            Knob::BatchSize(v) => cfg.batch_size = v,
            Knob::Selector(v) => cfg.selector = v,
            Knob::ServerOptim(v) => cfg.server_optim = ServerOptimConfig::with(v),
            Knob::Accel(v) => cfg.accel = v,
            Knob::ProxMu(v) => cfg.prox_mu = v,
            Knob::CandidatePool(v) => cfg.candidate_pool = v,
        }
    }
}

/// A fully specified sweep: the base config, the root seed, and one knob
/// vector per trial (in deterministic grid order).
#[derive(Debug, Clone)]
pub struct SweepPlan {
    base: ExperimentConfig,
    root_seed: u64,
    trials: Vec<Vec<Knob>>,
}

impl SweepPlan {
    /// Build the full cartesian product of `axes` (first axis outermost).
    /// With no axes the plan holds a single base-config trial.
    ///
    /// # Panics
    ///
    /// Panics if `root_seed == 0` (zero is the `data_seed` "unset"
    /// sentinel, so it cannot key a shared population) or if any axis is
    /// empty.
    pub fn grid(base: ExperimentConfig, root_seed: u64, axes: &[Vec<Knob>]) -> Self {
        assert!(root_seed != 0, "sweep root seed must be nonzero");
        assert!(
            axes.iter().all(|a| !a.is_empty()),
            "every sweep axis needs at least one value"
        );
        let mut trials = vec![Vec::new()];
        for axis in axes {
            let mut next = Vec::with_capacity(trials.len() * axis.len());
            for prefix in &trials {
                for &knob in axis {
                    let mut t = prefix.clone();
                    t.push(knob);
                    next.push(t);
                }
            }
            trials = next;
        }
        SweepPlan {
            base,
            root_seed,
            trials,
        }
    }

    /// Number of trials in the plan.
    pub fn len(&self) -> usize {
        self.trials.len()
    }

    /// Whether the plan holds no trials (never true for `grid` plans).
    pub fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }

    /// The full per-trial round budget (the base config's `rounds`).
    pub fn full_budget(&self) -> usize {
        self.base.rounds
    }

    /// The root seed trials derive from.
    pub fn root_seed(&self) -> u64 {
        self.root_seed
    }

    /// The exact config trial `idx` runs at `rounds` budget: base +
    /// knobs, seed `split_seed(root, idx)`, the shared population pinned
    /// via `data_seed = root`, telemetry on, single-threaded. A pure
    /// function of `(plan, idx, rounds)` — the determinism contract's
    /// foundation.
    pub fn trial_config(&self, idx: usize, rounds: usize) -> ExperimentConfig {
        let mut cfg = self.base;
        for knob in &self.trials[idx] {
            knob.apply(&mut cfg);
        }
        cfg.rounds = rounds;
        cfg.seed = split_seed(self.root_seed, idx as u64);
        cfg.data_seed = self.root_seed;
        cfg.obs = ObsConfig::on();
        cfg.num_threads = 1;
        cfg
    }

    /// The population config the shared artifacts are built from.
    fn population_config(&self) -> ExperimentConfig {
        self.trial_config(0, self.full_budget())
    }

    /// Trial `idx`'s human-readable knob label.
    pub fn trial_label(&self, idx: usize) -> String {
        self.trial_config(idx, self.full_budget()).knob_label()
    }
}

/// Successive-halving schedule: rung budgets grow by `eta` from `r0` up
/// to the plan's full budget; each rung promotes the top `ceil(n/eta)`
/// survivors by accuracy-at-budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Halving {
    /// Promotion factor (keep the top `1/eta`); must be ≥ 2.
    pub eta: usize,
    /// First rung's round budget; must be ≥ 1.
    pub r0: usize,
}

impl Halving {
    /// Rung budgets for a sweep with `full` rounds per trial: `r0, r0·η,
    /// r0·η², …` capped by a final rung at exactly `full`.
    pub fn budgets(&self, full: usize) -> Vec<usize> {
        assert!(self.eta >= 2, "halving eta must be at least 2");
        assert!(self.r0 >= 1, "halving r0 must be at least 1");
        let mut budgets = Vec::new();
        let mut b = self.r0;
        while b < full {
            budgets.push(b);
            b = b.saturating_mul(self.eta);
        }
        budgets.push(full);
        budgets
    }
}

/// Orchestrator options.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Concurrent trial workers (0 or 1 ⇒ sequential).
    pub workers: usize,
    /// Successive-halving schedule; `None` runs the full grid.
    pub halving: Option<Halving>,
    /// When set, each surviving trial's final-budget event stream is
    /// written under this directory via the trial-scoped JSONL sink.
    pub obs_dir: Option<PathBuf>,
}

/// One finished trial (at its final budget).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialRecord {
    /// Grid index (also the seed-stream index).
    pub idx: usize,
    /// Knob label (see [`ExperimentConfig::knob_label`]).
    pub label: String,
    /// The trial's derived seed: `split_seed(root, idx)`.
    pub seed: u64,
    /// Rounds this record was run at.
    pub rounds_budget: usize,
    /// The full experiment report.
    pub report: ExperimentReport,
    /// Path of the trial's JSONL event stream, when a sink was configured.
    pub jsonl: Option<String>,
}

/// A trial stopped early by successive halving.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrunedTrial {
    /// Grid index.
    pub idx: usize,
    /// Knob label.
    pub label: String,
    /// Rung at which the trial was cut (0-based).
    pub rung: usize,
    /// Round budget the trial had run when cut.
    pub budget: usize,
    /// Its mean accuracy at that budget (the ranking key).
    pub accuracy: f64,
}

/// Cross-trial amortization counters, proving the shared-resource layer
/// did its job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AmortizationStats {
    /// Shard requests served from the sweep-wide store.
    pub shard_hits: u64,
    /// Shard derivations actually paid (≤ population, for the whole
    /// sweep).
    pub shard_derivations: u64,
    /// Client shard pairs resident at the end.
    pub shard_resident: usize,
    /// Availability-calendar builds paid (always 1).
    pub index_builds: u64,
    /// Calendar builds the sharing avoided: one per attached run beyond
    /// the first.
    pub index_builds_saved: u64,
    /// Experiment runs that attached to the shared population (rung
    /// re-runs included).
    pub runs_attached: u64,
}

/// Result of one sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepOutcome {
    /// Final-budget records, ascending by trial index: every trial in
    /// grid mode, the surviving trials under halving.
    pub results: Vec<TrialRecord>,
    /// Trials stopped early (empty in grid mode), ascending by index.
    pub pruned: Vec<PrunedTrial>,
    /// Total rounds actually executed, rung re-runs included.
    pub rounds_executed: usize,
    /// Rounds the full grid would execute (`trials × full budget`).
    pub full_grid_rounds: usize,
    /// Shared-resource counters.
    pub amortization: AmortizationStats,
}

impl SweepOutcome {
    /// The best final record by mean accuracy (ties to the lowest index).
    pub fn best(&self) -> Option<&TrialRecord> {
        self.results.iter().min_by(|a, b| {
            b.report
                .accuracy
                .mean
                .total_cmp(&a.report.accuracy.mean)
                .then(a.idx.cmp(&b.idx))
        })
    }
}

/// Execute a sweep: grid mode runs every trial at the full budget once;
/// halving mode walks the rung schedule, re-running survivors at growing
/// budgets and pruning the rest.
///
/// Within every rung, trials run concurrently on `opts.workers`
/// work-stealing workers. Reports are bit-identical for any worker count
/// and any trial interleaving: each trial is a pure function of `(plan,
/// idx, budget)` plus value-transparent shared handles.
///
/// # Errors
///
/// Returns the first trial-construction error (invalid knob combination)
/// or shared-population build error.
pub fn run_sweep(plan: &SweepPlan, opts: &SweepOptions) -> Result<SweepOutcome, String> {
    let shared = SharedPopulation::build(&plan.population_config())?;
    let full = plan.full_budget();
    let budgets = match &opts.halving {
        Some(h) => h.budgets(full),
        None => vec![full],
    };

    let mut survivors: Vec<usize> = (0..plan.len()).collect();
    let mut rounds_executed = 0usize;
    let mut pruned: Vec<PrunedTrial> = Vec::new();
    let mut results: Vec<TrialRecord> = Vec::new();

    for (rung, &budget) in budgets.iter().enumerate() {
        let is_final = rung == budgets.len() - 1;
        let obs_dir = if is_final {
            opts.obs_dir.as_deref()
        } else {
            None
        };
        let mut scratches = vec![(); opts.workers.max(1)];
        let shared_ref = &shared;
        let ran: Vec<Result<TrialRecord, String>> =
            parallel_map_with(&mut scratches, &survivors, |_, &idx| {
                let cfg = plan.trial_config(idx, budget);
                let label = cfg.knob_label();
                let (report, telemetry) = run_trial_traced(cfg, Some(shared_ref))?;
                let jsonl = match obs_dir {
                    Some(dir) => Some(
                        sink::write_trial_jsonl(dir, idx, &label, &telemetry.events)
                            .map_err(|e| format!("trial {idx}: cannot write event stream: {e}"))?
                            .to_string_lossy()
                            .into_owned(),
                    ),
                    None => None,
                };
                Ok(TrialRecord {
                    idx,
                    label,
                    seed: split_seed(plan.root_seed, idx as u64),
                    rounds_budget: budget,
                    report,
                    jsonl,
                })
            });
        let mut records = Vec::with_capacity(ran.len());
        for r in ran {
            records.push(r?);
        }
        rounds_executed += budget * records.len();

        if is_final {
            results = records;
            break;
        }
        // Promote the top `ceil(n/eta)` by accuracy-at-budget; ranking
        // uses a total order (total_cmp, index tiebreak) so promotion is
        // deterministic even under ties.
        let eta = opts.halving.as_ref().expect("halving set on rung").eta;
        let keep = records.len().div_ceil(eta).max(1);
        records.sort_by(|a, b| {
            b.report
                .accuracy
                .mean
                .total_cmp(&a.report.accuracy.mean)
                .then(a.idx.cmp(&b.idx))
        });
        for rec in records.iter().skip(keep) {
            pruned.push(PrunedTrial {
                idx: rec.idx,
                label: rec.label.clone(),
                rung,
                budget,
                accuracy: rec.report.accuracy.mean,
            });
        }
        survivors = records.iter().take(keep).map(|r| r.idx).collect();
        survivors.sort_unstable();
    }

    pruned.sort_by_key(|p| p.idx);
    let shard = shared.shard_stats();
    let runs = shared.trials_attached();
    Ok(SweepOutcome {
        results,
        pruned,
        rounds_executed,
        full_grid_rounds: plan.len() * full,
        amortization: AmortizationStats {
            shard_hits: shard.hits,
            shard_derivations: shard.misses,
            shard_resident: shard.resident,
            index_builds: 1,
            index_builds_saved: runs.saturating_sub(1),
            runs_attached: runs,
        },
    })
}

/// Shard-store counters type re-exported for report plumbing.
pub type SweepShardStats = ShardCacheStats;

/// One point of the multi-objective frontier report: accuracy
/// (maximize) vs simulated round time (minimize) vs upload volume
/// (minimize).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierPoint {
    /// Grid index.
    pub idx: usize,
    /// Knob label.
    pub label: String,
    /// Final mean client accuracy.
    pub accuracy: f64,
    /// Simulated seconds per round (virtual wall-clock / rounds).
    pub sim_round_time_s: f64,
    /// Total update upload volume, megabytes (from the telemetry
    /// registry's `upload_bytes` histogram).
    pub upload_mb: f64,
    /// Whether the point is Pareto-optimal over the three objectives.
    pub on_frontier: bool,
}

/// Pareto flags for `(accuracy ↑, round_time ↓, upload ↓)` triples:
/// `true` where no other point weakly dominates with at least one strict
/// improvement.
fn pareto_flags(points: &[(f64, f64, f64)]) -> Vec<bool> {
    let dominates = |a: &(f64, f64, f64), b: &(f64, f64, f64)| {
        a.0 >= b.0 && a.1 <= b.1 && a.2 <= b.2 && (a.0 > b.0 || a.1 < b.1 || a.2 < b.2)
    };
    points
        .iter()
        .map(|p| !points.iter().any(|q| dominates(q, p)))
        .collect()
}

/// Build the frontier report from final trial records, ascending by
/// trial index.
pub fn frontier(records: &[TrialRecord]) -> Vec<FrontierPoint> {
    let objectives: Vec<(f64, f64, f64)> = records
        .iter()
        .map(|r| {
            let rounds = r.report.rounds.len().max(1) as f64;
            let time = r.report.wall_clock_h * 3600.0 / rounds;
            let upload_mb = r
                .report
                .telemetry
                .as_ref()
                .and_then(|t| t.histogram("upload_bytes"))
                .map_or(0.0, |h| h.sum / 1e6);
            (r.report.accuracy.mean, time, upload_mb)
        })
        .collect();
    let flags = pareto_flags(&objectives);
    records
        .iter()
        .zip(objectives)
        .zip(flags)
        .map(|((r, (acc, time, up)), on)| FrontierPoint {
            idx: r.idx,
            label: r.label.clone(),
            accuracy: acc,
            sim_round_time_s: time,
            upload_mb: up,
            on_frontier: on,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_base(rounds: usize) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Off, rounds);
        cfg.num_clients = 12;
        cfg.cohort_size = 3;
        cfg.mean_samples = 24;
        cfg
    }

    #[test]
    fn grid_is_the_cartesian_product_in_axis_major_order() {
        let plan = SweepPlan::grid(
            tiny_base(2),
            9,
            &[
                vec![Knob::CohortSize(3), Knob::CohortSize(4)],
                vec![
                    Knob::LocalEpochs(1),
                    Knob::LocalEpochs(2),
                    Knob::LocalEpochs(3),
                ],
            ],
        );
        assert_eq!(plan.len(), 6);
        let cfg = plan.trial_config(0, 2);
        assert_eq!((cfg.cohort_size, cfg.local_epochs), (3, 1));
        let cfg = plan.trial_config(2, 2);
        assert_eq!((cfg.cohort_size, cfg.local_epochs), (3, 3));
        let cfg = plan.trial_config(5, 2);
        assert_eq!((cfg.cohort_size, cfg.local_epochs), (4, 3));
        // Per-trial seeds derive from the root and the index alone.
        assert_eq!(cfg.seed, split_seed(9, 5));
        assert_eq!(cfg.data_seed, 9);
        assert_eq!(cfg.num_threads, 1);
    }

    #[test]
    #[should_panic(expected = "root seed must be nonzero")]
    fn zero_root_seed_is_rejected() {
        let _ = SweepPlan::grid(tiny_base(2), 0, &[]);
    }

    #[test]
    fn halving_budget_schedule() {
        assert_eq!(Halving { eta: 3, r0: 2 }.budgets(18), vec![2, 6, 18]);
        assert_eq!(Halving { eta: 2, r0: 2 }.budgets(8), vec![2, 4, 8]);
        // Non-power spacing still caps at the full budget.
        assert_eq!(Halving { eta: 2, r0: 3 }.budgets(10), vec![3, 6, 10]);
        // r0 at or above the full budget degenerates to one rung.
        assert_eq!(Halving { eta: 2, r0: 8 }.budgets(8), vec![8]);
        assert_eq!(Halving { eta: 2, r0: 20 }.budgets(8), vec![8]);
    }

    #[test]
    fn pareto_flags_mark_non_dominated_points() {
        // p0 dominates p1 (better everywhere); p2 trades accuracy for
        // speed; p3 duplicates p0 (mutual weak dominance keeps both).
        let pts = [
            (0.9, 10.0, 5.0),
            (0.8, 12.0, 6.0),
            (0.5, 1.0, 1.0),
            (0.9, 10.0, 5.0),
        ];
        assert_eq!(pareto_flags(&pts), vec![true, false, true, true]);
        assert!(pareto_flags(&[]).is_empty());
    }

    #[test]
    fn worker_count_and_interleaving_leave_reports_bit_identical() {
        let base = tiny_base(2);
        let axes = vec![vec![Knob::CohortSize(3), Knob::CohortSize(4)]];
        let plan = SweepPlan::grid(base, 31, &axes);
        let seq = run_sweep(&plan, &SweepOptions::default()).expect("sequential sweep");
        let par = run_sweep(
            &plan,
            &SweepOptions {
                workers: 4,
                ..Default::default()
            },
        )
        .expect("parallel sweep");
        assert_eq!(seq.results, par.results, "worker count changed bits");
        assert_eq!(seq.rounds_executed, plan.len() * 2);
        // Amortization: the calendar was built once; every run after the
        // first attached for free.
        assert_eq!(par.amortization.index_builds, 1);
        assert_eq!(par.amortization.runs_attached, 2);
        assert!(par.amortization.shard_derivations <= 12);
    }

    #[test]
    fn invalid_learning_rate_axis_fails_the_sweep() {
        let axes = vec![vec![Knob::LearningRate(0.05), Knob::LearningRate(0.0)]];
        let plan = SweepPlan::grid(tiny_base(2), 31, &axes);
        let err = run_sweep(&plan, &SweepOptions::default()).expect_err("lr 0 must not run");
        assert!(err.contains("learning_rate 0"), "message: {err}");
    }

    #[test]
    fn halving_survivors_match_grid_records() {
        let base = tiny_base(4);
        let axes = vec![
            vec![Knob::CohortSize(3), Knob::CohortSize(4)],
            vec![Knob::LocalEpochs(1), Knob::LocalEpochs(2)],
        ];
        let plan = SweepPlan::grid(base, 77, &axes);
        let grid = run_sweep(&plan, &SweepOptions::default()).expect("grid sweep");
        let halved = run_sweep(
            &plan,
            &SweepOptions {
                workers: 2,
                halving: Some(Halving { eta: 2, r0: 1 }),
                ..Default::default()
            },
        )
        .expect("halving sweep");
        assert!(halved.results.len() < plan.len(), "nothing was pruned");
        assert_eq!(
            halved.results.len() + halved.pruned.len(),
            plan.len(),
            "every trial is either a survivor or pruned"
        );
        // The pruning determinism contract: a survivor's final record is
        // bit-identical to its full-grid record.
        for rec in &halved.results {
            let grid_rec = grid
                .results
                .iter()
                .find(|r| r.idx == rec.idx)
                .expect("survivor exists in grid results");
            assert_eq!(rec, grid_rec, "pruning changed a survivor's bits");
        }
        assert!(
            halved.rounds_executed < grid.rounds_executed,
            "halving must execute fewer rounds than the grid"
        );
    }
}
