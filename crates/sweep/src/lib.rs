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
//!    spec, the shard store, and the availability calendar exactly once;
//!    every trial attaches via cheap handles, as a lone
//!    [`Experiment::new`] does to a population of its own.
//! 3. **Successive-halving pruning.** With a [`Halving`] schedule, each
//!    trial is *one* experiment built at the full-budget config; a rung
//!    advances every surviving trial to its round budget
//!    ([`Experiment::run_to`]), scores it there ([`Experiment::accuracy`])
//!    and promotes only the top `1/eta` fraction; the next rung resumes
//!    the survivors where they stopped, so no round runs twice and doomed
//!    trials never reach the full budget. A survivor's final record is
//!    that same run finished, so pruning changes *which* trials finish,
//!    never the bits of those that do. Only trials that can still be
//!    promoted stay parked in memory (`keep + workers` at most).
//!
//! [`parallel_map_with`]: float_core::engine::parallel_map_with

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Ordering;
use std::path::PathBuf;
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use float_core::engine::parallel_map_with;
use float_core::optim::{ServerOptimConfig, ServerOptimizerChoice};
use float_core::trial::SharedPopulation;
use float_core::{AccelMode, Experiment, ExperimentConfig, ExperimentReport, SelectorChoice};
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

    /// The config of trial `idx` as a run of `rounds` rounds: base +
    /// knobs, seed `split_seed(root, idx)`, the shared population pinned
    /// via `data_seed = root`, telemetry on, single-threaded. A pure
    /// function of `(plan, idx, rounds)` — the determinism contract's
    /// foundation. [`run_sweep`] only ever uses `rounds ==
    /// full_budget()`: a halving rung pauses that run at its budget
    /// rather than configuring a shorter one.
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
/// survivors by the accuracy of their full-budget run paused at the
/// rung's budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Halving {
    /// Promotion factor (keep the top `1/eta`); must be ≥ 2.
    pub eta: usize,
    /// First rung's round budget; must be ≥ 1.
    pub r0: usize,
}

impl Halving {
    /// Check the schedule's own constraints.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.eta < 2 {
            return Err(format!("halving eta {} must be at least 2", self.eta));
        }
        if self.r0 == 0 {
            return Err("halving r0 0 must be at least 1".to_string());
        }
        Ok(())
    }

    /// Rung budgets for a sweep with `full` rounds per trial: `r0, r0·η,
    /// r0·η², …` capped by a final rung at exactly `full`.
    ///
    /// # Panics
    ///
    /// Panics on a schedule [`Halving::validate`] rejects.
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
    /// The cut line: the accuracy of the last trial the rung promoted.
    /// `accuracy <= cut`, with equality only where the index tiebreak
    /// decided.
    pub cut: f64,
}

/// Cross-trial amortization counters, proving the shared-resource layer
/// did its job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AmortizationStats {
    /// Shard requests served from the sweep-wide store.
    pub shard_hits: u64,
    /// Shard derivations actually paid, for the whole sweep: one per
    /// client touched while the store holds the population (up to
    /// `SHARD_RESIDENT_CAP` clients, see
    /// [`ExperimentConfig::resolved_shard_cache`]); above that the store
    /// keeps the working set and re-derives what it evicted.
    pub shard_derivations: u64,
    /// Client shard pairs resident at the end.
    pub shard_resident: usize,
    /// Availability-calendar builds paid (always 1).
    pub index_builds: u64,
    /// Calendar builds the sharing avoided: one per attached trial beyond
    /// the first.
    pub index_builds_saved: u64,
    /// Experiments that attached to the shared population: one per
    /// trial, however many rungs it went through.
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
    /// Total rounds actually executed: the sum over trials of the last
    /// budget each one reached.
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

/// The order rungs rank trials in: accuracy descending, then index
/// ascending. Strict and total (`total_cmp`, unique indices), so a rung's
/// promoted set does not depend on the order trials finish in.
fn rank(a: (f64, usize), b: (f64, usize)) -> Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

/// One rung's bounded retention. Trials are offered as they finish the
/// rung; only the top `keep` offered so far — the ones that can still be
/// promoted — keep their payload (the paused experiment), and a trial
/// that falls out of that set gives its payload back at once.
struct Rung<T> {
    keep: usize,
    /// `(accuracy, idx, payload)` of the current top `keep`, unordered.
    kept: Vec<(f64, usize, T)>,
    /// `(accuracy, idx)` of every trial that fell out.
    cut_off: Vec<(f64, usize)>,
}

impl<T> Rung<T> {
    fn new(keep: usize) -> Self {
        Rung {
            keep,
            kept: Vec::with_capacity(keep + 1),
            cut_off: Vec::new(),
        }
    }

    /// Offer a finished trial; returns the payload of the trial this one
    /// pushed out of the top `keep` (possibly its own).
    fn offer(&mut self, accuracy: f64, idx: usize, payload: T) -> Option<T> {
        self.kept.push((accuracy, idx, payload));
        if self.kept.len() <= self.keep {
            return None;
        }
        let worst = (0..self.kept.len())
            .max_by(|&i, &j| {
                let (a, b) = (&self.kept[i], &self.kept[j]);
                rank((a.0, a.1), (b.0, b.1))
            })
            .expect("kept is non-empty");
        let (accuracy, idx, payload) = self.kept.swap_remove(worst);
        self.cut_off.push((accuracy, idx));
        Some(payload)
    }
}

/// Execute a sweep: grid mode runs every trial to the full budget;
/// halving mode walks the rung schedule, advancing the surviving trials
/// to each rung's budget and pruning the rest.
///
/// Each trial is one [`Experiment`] at the full-budget config. A rung
/// pauses it at the rung's budget and ranks it by its accuracy there; the
/// next rung resumes it, so a survivor's record is literally its
/// full-budget run and no round is executed twice.
///
/// Within every rung, trials run concurrently on `opts.workers`
/// work-stealing workers. The outcome is bit-identical for any worker
/// count and any trial interleaving: each trial is a pure function of
/// `(plan, idx)` plus value-transparent shared handles, and promotion
/// ranks under a strict total order.
///
/// # Errors
///
/// Returns an invalid halving schedule's description, the first
/// trial-construction error (invalid knob combination), the shared
/// population's build error, or an event-stream write error.
pub fn run_sweep(plan: &SweepPlan, opts: &SweepOptions) -> Result<SweepOutcome, String> {
    let full = plan.full_budget();
    let budgets = match &opts.halving {
        Some(h) => {
            h.validate()?;
            h.budgets(full)
        }
        None => vec![full],
    };
    let (_, rungs) = budgets
        .split_last()
        .expect("the schedule ends with the full-budget rung");
    let shared = SharedPopulation::build(&plan.population_config())?;
    let mut workers = vec![(); opts.workers.max(1)];

    // A trial's slot is empty until the first rung builds it, and between
    // rungs parks the paused experiment for whichever worker resumes it.
    let mut trials: Vec<(usize, Mutex<Option<Experiment>>)> =
        (0..plan.len()).map(|idx| (idx, Mutex::new(None))).collect();
    let resume = |idx: usize, slot: &Mutex<Option<Experiment>>| {
        let parked = slot
            .lock()
            .expect("no worker panics holding a trial slot")
            .take();
        match parked {
            Some(exp) => Ok(exp),
            None => Experiment::new_shared(plan.trial_config(idx, full), &shared),
        }
    };

    let mut rounds_executed = 0usize;
    let mut reached = 0usize;
    let mut pruned: Vec<PrunedTrial> = Vec::new();
    for (rung, &budget) in rungs.iter().enumerate() {
        let eta = opts.halving.as_ref().expect("halving set on rung").eta;
        let retained = Mutex::new(Rung::new(trials.len().div_ceil(eta).max(1)));
        parallel_map_with(&mut workers, &trials, |_, &(idx, ref slot)| {
            let mut exp = resume(idx, slot)?;
            exp.run_to(budget);
            let accuracy = exp.accuracy();
            // The guard is a temporary of this statement; the experiment
            // pushed out is dropped after it, outside the lock.
            let _out_of_the_running = retained
                .lock()
                .expect("no worker panics holding the rung")
                .offer(accuracy, idx, exp);
            Ok(())
        })
        .into_iter()
        .collect::<Result<(), String>>()?;
        rounds_executed += (budget - reached) * trials.len();
        reached = budget;

        let Rung {
            mut kept, cut_off, ..
        } = retained
            .into_inner()
            .expect("no worker panics holding the rung");
        let cut = kept
            .iter()
            .map(|k| k.0)
            .min_by(f64::total_cmp)
            .expect("a rung promotes at least one trial");
        pruned.extend(cut_off.into_iter().map(|(accuracy, idx)| PrunedTrial {
            idx,
            label: plan.trial_label(idx),
            rung,
            budget,
            accuracy,
            cut,
        }));
        kept.sort_by_key(|k| k.1);
        trials = kept
            .into_iter()
            .map(|(_, idx, exp)| (idx, Mutex::new(Some(exp))))
            .collect();
    }

    // The final rung finishes every remaining trial at the full budget.
    let obs_dir = opts.obs_dir.as_deref();
    let results = parallel_map_with(&mut workers, &trials, |_, &(idx, ref slot)| {
        let exp = resume(idx, slot)?;
        let label = exp.config().knob_label();
        let (report, telemetry) = exp.run_traced();
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
            rounds_budget: full,
            report,
            jsonl,
        })
    })
    .into_iter()
    .collect::<Result<Vec<TrialRecord>, String>>()?;
    rounds_executed += (full - reached) * trials.len();

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

    #[test]
    fn halving_runs_each_round_once_and_records_cut_lines() {
        let axes = vec![
            vec![
                Knob::CohortSize(2),
                Knob::CohortSize(3),
                Knob::CohortSize(4),
            ],
            vec![
                Knob::LocalEpochs(1),
                Knob::LocalEpochs(2),
                Knob::LocalEpochs(3),
            ],
        ];
        let plan = SweepPlan::grid(tiny_base(6), 41, &axes);
        let opts = SweepOptions {
            halving: Some(Halving { eta: 3, r0: 1 }),
            ..Default::default()
        };
        let out = run_sweep(&plan, &opts).expect("halving sweep");
        // Budgets 1, 3, 6 over 9 -> 3 -> 1 trials. Each trial executes
        // exactly the last budget it reached: 6 stop at 1, 2 at 3, 1 at 6.
        assert_eq!(out.rounds_executed, 6 + 2 * 3 + 6);
        // One experiment per trial, however many rungs it went through.
        assert_eq!(out.amortization.runs_attached, 9);
        assert_eq!(out.amortization.index_builds_saved, 8);
        // Every prune names its cut line, and lies on the losing side.
        assert_eq!(out.pruned.len(), 8);
        for p in &out.pruned {
            assert!(p.accuracy <= p.cut, "trial {} pruned above the cut", p.idx);
        }
    }

    #[test]
    fn invalid_halving_schedule_is_an_error_not_a_panic() {
        let plan = SweepPlan::grid(tiny_base(2), 31, &[]);
        for (halving, needle) in [
            (Halving { eta: 1, r0: 1 }, "eta 1"),
            (Halving { eta: 0, r0: 1 }, "eta 0"),
            (Halving { eta: 2, r0: 0 }, "r0 0"),
        ] {
            let opts = SweepOptions {
                halving: Some(halving),
                ..Default::default()
            };
            let err = run_sweep(&plan, &opts).expect_err("schedule must be rejected");
            assert!(err.contains(needle), "message: {err}");
        }
        assert!(Halving { eta: 2, r0: 1 }.validate().is_ok());
    }

    /// A payload that counts how many of its kind are alive.
    struct Live(std::sync::Arc<std::sync::atomic::AtomicUsize>);

    impl Live {
        fn new(alive: &std::sync::Arc<std::sync::atomic::AtomicUsize>) -> Self {
            alive.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Live(std::sync::Arc::clone(alive))
        }
    }

    impl Drop for Live {
        fn drop(&mut self) {
            self.0.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    proptest::proptest! {
        /// Whatever order trials finish in, the rung ends up holding
        /// exactly the top `keep` under `rank`, and never more than
        /// `keep + workers` payloads are alive on the way.
        #[test]
        fn rung_keeps_the_top_trials_whatever_the_arrival_order(
            // Quarter steps force ties, so the index tiebreak matters.
            quarters in proptest::collection::vec(0u8..5, 1..12),
            arrival in proptest::collection::vec(proptest::prelude::any::<u64>(), 12),
            keep in 1usize..6,
            workers in 1usize..4,
        ) {
            use std::sync::atomic::Ordering::SeqCst;
            let scores: Vec<f64> = quarters.iter().map(|&q| f64::from(q) / 4.0).collect();
            let keep = keep.min(scores.len());
            let mut ranked: Vec<(f64, usize)> = scores.iter().copied().zip(0..).collect();
            ranked.sort_by(|&a, &b| rank(a, b));
            let mut want: Vec<usize> = ranked[..keep].iter().map(|r| r.1).collect();
            want.sort_unstable();
            let mut order: Vec<usize> = (0..scores.len()).collect();
            order.sort_by_key(|&i| (arrival[i], i));

            let alive = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let mut rung = Rung::new(keep);
            // `workers` trials are running (their payloads alive outside
            // the rung) while the oldest one is offered.
            let mut running = std::collections::VecDeque::new();
            for &idx in &order {
                running.push_back((idx, Live::new(&alive)));
                if running.len() == workers {
                    let (idx, payload) = running.pop_front().expect("non-empty");
                    drop(rung.offer(scores[idx], idx, payload));
                }
                proptest::prop_assert!(alive.load(SeqCst) <= keep + workers);
            }
            for (idx, payload) in running {
                drop(rung.offer(scores[idx], idx, payload));
            }
            proptest::prop_assert_eq!(alive.load(SeqCst), keep, "only the promoted stay alive");
            let mut kept: Vec<usize> = rung.kept.iter().map(|k| k.1).collect();
            kept.sort_unstable();
            proptest::prop_assert_eq!(kept, want, "arrival order {:?}", order);
            proptest::prop_assert_eq!(rung.cut_off.len(), scores.len() - keep);
        }
    }
}
