//! Concurrent sweeps — a cohort size × local epochs grid over one shared
//! population, run in full and under successive halving.
//!
//! Reports (see `DESIGN.md` §18):
//!
//! - **Shared-resource amortization**: shard derivations and
//!   availability-index builds paid once for the whole sweep.
//! - **Successive-halving pruning**: rounds executed vs the full grid
//!   (rungs resume paused trials, so no round runs twice), whether the
//!   surviving best trial matches the full grid's best bit-for-bit, and
//!   each pruned trial's score against its rung's cut line.
//! - **Frontier**: accuracy vs simulated round time vs upload bytes over
//!   the full grid's final records.
//!
//! The grid arm writes every trial's event stream under
//! `target/obs/sweep/` as `trial_NNN_<label>.jsonl` (`obsdump`-compatible).
//!
//! `Scale::Quick` runs a 2×2 grid at eight rounds with η=2, r0=2 on four
//! workers; any other scale runs the 3×3 grid at 18 rounds with η=3, r0=3
//! on the host's parallelism clamped to [2, 8]. Seeds derive from root
//! seed 7.

use serde::{Deserialize, Serialize};

use float_core::{AccelMode, ExperimentConfig, SelectorChoice};
use float_sweep::{
    frontier, run_sweep, AmortizationStats, Halving, Knob, PrunedTrial, SweepOptions, SweepPlan,
};

use crate::rows_table;
use crate::scale::Scale;

/// Root of every trial's seed stream.
const ROOT_SEED: u64 = 7;

/// One grid trial on the multi-objective frontier table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrontierRow {
    /// Grid index.
    pub idx: usize,
    /// Knob label.
    pub label: String,
    /// The trial's derived seed.
    pub seed: u64,
    /// Mean final client accuracy.
    pub mean_accuracy: f64,
    /// Mean simulated round time, seconds.
    pub sim_round_time_s: f64,
    /// Total upload volume, MB.
    pub upload_mb: f64,
    /// Whether no other trial dominates this one on all three objectives.
    pub on_frontier: bool,
    /// Path of the trial's JSONL event stream.
    pub jsonl: String,
}

/// The successive-halving arm against the full grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PruningSummary {
    /// Reduction factor between rungs.
    pub eta: usize,
    /// First rung's round budget.
    pub r0: usize,
    /// Rounds the halving arm executed.
    pub rounds_executed: usize,
    /// Rounds the full grid executes.
    pub full_grid_rounds: usize,
    /// `rounds_executed / full_grid_rounds`, percent.
    pub rounds_executed_pct: f64,
    /// Trials that reached the full budget.
    pub survivors: usize,
    /// Trials cut at some rung.
    pub pruned: usize,
    /// Why each pruned trial stopped: rung, rounds run, its score there,
    /// and the cut line (the last promoted trial's score).
    pub pruned_trials: Vec<PrunedTrial>,
    /// The surviving best trial.
    pub best_idx: usize,
    /// Its mean accuracy.
    pub best_accuracy: f64,
    /// The full grid's best trial.
    pub grid_best_idx: usize,
    /// Its mean accuracy.
    pub grid_best_accuracy: f64,
    /// The surviving best trial's report equals the grid's best-trial
    /// report bit-for-bit.
    pub best_matches_grid: bool,
}

/// Full sweep result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sweep {
    /// Trials in the grid.
    pub trials: usize,
    /// Full round budget per trial.
    pub rounds: usize,
    /// Root of the trial seed stream.
    pub root_seed: u64,
    /// Concurrent trial workers.
    pub workers: usize,
    /// The grid arm's shared-resource counters.
    pub amortization: AmortizationStats,
    /// The halving arm.
    pub pruning: PruningSummary,
    /// Every grid trial, frontier members marked.
    pub frontier: Vec<FrontierRow>,
}

/// Run the sweep study at the given scale.
pub fn run(scale: Scale) -> Sweep {
    let quick = scale == Scale::Quick;
    let rounds = if quick { 8 } else { 18 };
    let workers = if quick {
        4
    } else {
        std::thread::available_parallelism()
            .map_or(1, usize::from)
            .clamp(2, 8)
    };
    let sizes: &[usize] = if quick { &[5, 10] } else { &[5, 10, 15] };
    let axes = vec![
        sizes.iter().map(|&c| Knob::CohortSize(c)).collect(),
        (1..=sizes.len()).map(Knob::LocalEpochs).collect(),
    ];
    let step = 2 + usize::from(!quick);
    let halving = Halving {
        eta: step,
        r0: step,
    };
    let base = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Off, rounds);
    let plan = SweepPlan::grid(base, ROOT_SEED, &axes);

    let sweep = |halving, obs_dir| {
        let opts = SweepOptions {
            workers,
            halving,
            obs_dir,
        };
        run_sweep(&plan, &opts).expect("sweep runs")
    };
    let grid = sweep(None, Some("target/obs/sweep".into()));
    let halved = sweep(Some(halving), None);
    let grid_best = grid.best().expect("grid has trials");
    let halved_best = halved.best().expect("halving kept at least one trial");
    let pruning = PruningSummary {
        eta: halving.eta,
        r0: halving.r0,
        rounds_executed: halved.rounds_executed,
        full_grid_rounds: halved.full_grid_rounds,
        rounds_executed_pct: halved.rounds_executed as f64 / halved.full_grid_rounds.max(1) as f64
            * 100.0,
        survivors: halved.results.len(),
        pruned: halved.pruned.len(),
        pruned_trials: halved.pruned.clone(),
        best_idx: halved_best.idx,
        best_accuracy: halved_best.report.accuracy.mean,
        grid_best_idx: grid_best.idx,
        grid_best_accuracy: grid_best.report.accuracy.mean,
        // Identity and report bits, not the record wholesale — the grid
        // arm carries a JSONL path the halving arm doesn't.
        best_matches_grid: halved_best.idx == grid_best.idx
            && halved_best.report == grid_best.report,
    };

    let frontier = frontier(&grid.results)
        .into_iter()
        .zip(&grid.results)
        .map(|(p, rec)| FrontierRow {
            idx: p.idx,
            label: p.label,
            seed: rec.seed,
            mean_accuracy: p.accuracy,
            sim_round_time_s: p.sim_round_time_s,
            upload_mb: p.upload_mb,
            on_frontier: p.on_frontier,
            jsonl: rec.jsonl.clone().unwrap_or_default(),
        })
        .collect();

    Sweep {
        trials: plan.len(),
        rounds,
        root_seed: ROOT_SEED,
        workers,
        amortization: grid.amortization,
        pruning,
        frontier,
    }
}

impl Sweep {
    /// Text rendering: the halving summary, pruned trials, the frontier
    /// table and the amortization counters.
    pub fn render(&self) -> String {
        let (p, a) = (&self.pruning, &self.amortization);
        format!(
            "Concurrent sweep — {} trials x {} rounds, root seed {}, {} workers\n\
             halving (eta {}, r0 {}): {} of {} rounds ({:.0}%), best trial {} (acc {:.4}) \
             vs grid best {} (acc {:.4}), bit-identical: {}\n{}\n{}\
             amortization: {} shard derivations for {} runs ({} hits), \
             availability index built once ({} builds saved)\n",
            self.trials,
            self.rounds,
            self.root_seed,
            self.workers,
            p.eta,
            p.r0,
            p.rounds_executed,
            p.full_grid_rounds,
            p.rounds_executed_pct,
            p.best_idx,
            p.best_accuracy,
            p.grid_best_idx,
            p.grid_best_accuracy,
            p.best_matches_grid,
            rows_table(&p.pruned_trials, &[]),
            rows_table(&self.frontier, &["seed", "jsonl"]),
            a.shard_derivations,
            a.runs_attached,
            a.shard_hits,
            a.index_builds_saved,
        )
    }
}
