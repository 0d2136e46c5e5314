//! Oracle gap — how far is online profiling from the trace oracle?
//!
//! Sweeps the profiling-aware selectors (Oort, REFL, TiFL) across fault
//! levels (fault-free, chaos) in three estimation modes on the small
//! CIFAR-10 configuration:
//!
//! - `oracle`    — profiling off: selection reads the trace snapshot
//!   directly (the default path; the upper bound).
//! - `profiled`  — profiling on: selection reads only the online
//!   estimates folded from committed outcomes.
//! - `coldstart` — cold-only: estimates are folded but never consulted,
//!   so every decision uses the cold-start prior (the lower bound — what
//!   selection knows on round 0, forever).
//!
//! Every trial runs with telemetry on; afterwards its ClientOutcome
//! stream is replayed through a fresh profiler that scores each completed
//! attempt against the estimate available *before* the outcome was
//! folded, giving per-round relative-error quantiles (the convergence
//! curve). The `gaps` table pairs each (selector, fault) cell's three
//! modes: does profiled selection converge to oracle-quality cohorts, and
//! how much does cold-start alone give up?
//!
//! `Scale::Quick` runs the Oort chaos cell only (all three modes) for six
//! rounds; any other scale runs the full grid at 40 rounds. Seeds derive
//! from root seed 42.

use serde::{Deserialize, Serialize};

use float_core::audit::replay_profiles;
use float_core::{AccelMode, Experiment, ExperimentConfig, SelectorChoice};
use float_obs::event::Event;
use float_obs::ObsConfig;
use float_profile::{ObservedOutcome, ProfilingConfig};
use float_sim::FaultPlan;
use float_tensor::rng::split_seed;

use crate::rows_table;
use crate::scale::Scale;

/// Root of every cell's seed stream.
const ROOT_SEED: u64 = 42;

/// The profiling-aware selectors: each consults per-client estimates
/// (utility, availability windows, tiers) that profiling replaces.
const SELECTORS: [SelectorChoice; 3] = [
    SelectorChoice::Oort,
    SelectorChoice::Refl,
    SelectorChoice::Tifl,
];

const MODES: [&str; 3] = ["oracle", "profiled", "coldstart"];

fn profiling_for(mode: &str) -> ProfilingConfig {
    match mode {
        "oracle" => ProfilingConfig::off(),
        "profiled" => ProfilingConfig::on(),
        "coldstart" => ProfilingConfig::cold_only(),
        other => panic!("unknown estimation mode {other}"),
    }
}

/// Per-round estimate-error quantiles, replayed from the event stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorRound {
    /// Round index.
    pub round: u64,
    /// Completed attempts scored this round (those with a prior estimate).
    pub predictions: u64,
    /// Median relative error `|predicted − actual| / actual`.
    pub p50: f64,
    /// 90th-percentile relative error.
    pub p90: f64,
}

/// One trial: a (selector, fault, mode) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrialRow {
    /// Selector name.
    pub selector: String,
    /// Fault level: `none` or `chaos`.
    pub fault: String,
    /// Estimation mode: `oracle`, `profiled` or `coldstart`.
    pub mode: String,
    /// The cell's derived seed, shared by its three modes.
    pub seed: u64,
    /// The runtime's own label, `+prof` / `+prof0` suffixes included.
    pub label: String,
    /// Rounds run.
    pub rounds: usize,
    /// Mean final client accuracy.
    pub mean_accuracy: f64,
    /// Bottom-decile final client accuracy.
    pub bottom10_accuracy: f64,
    /// Committed completions.
    pub completions: u64,
    /// Dropouts.
    pub dropouts: u64,
    /// Updates quarantined by the fault layer.
    pub quarantined: u64,
    /// Simulated wall clock, hours.
    pub wall_clock_h: f64,
    /// Observations the runtime's profiler folded (0 in oracle mode).
    pub profile_observations: u64,
    /// Per-round error quantiles from the event-stream replay. Present
    /// for every mode — the replay asks "how well would an online
    /// profiler have predicted these durations?", so the oracle rows
    /// double as a control: same estimator, oracle-chosen cohorts.
    pub error_rounds: Vec<ErrorRound>,
}

/// One (selector, fault) cell's oracle / profiled / coldstart pairing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GapRow {
    /// Selector name.
    pub selector: String,
    /// Fault level.
    pub fault: String,
    /// Oracle mean accuracy.
    pub oracle_mean_accuracy: f64,
    /// Profiled mean accuracy.
    pub profiled_mean_accuracy: f64,
    /// Cold-start mean accuracy.
    pub coldstart_mean_accuracy: f64,
    /// Oracle minus profiled — the price of learning estimates online.
    pub profiled_gap: f64,
    /// Oracle minus coldstart — the price of never learning at all.
    pub coldstart_gap: f64,
    /// Oracle completions.
    pub oracle_completions: u64,
    /// Profiled completions.
    pub profiled_completions: u64,
    /// Cold-start completions.
    pub coldstart_completions: u64,
    /// Median relative estimate error over the profiled trial's final
    /// quarter of rounds — where the convergence curve should flatten.
    pub profiled_late_p50: f64,
}

/// Full oracle-gap result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileGap {
    /// Rounds per trial.
    pub rounds: usize,
    /// Root of the cell seed stream.
    pub root_seed: u64,
    /// One row per trial: cells in grid order, three modes each.
    pub rows: Vec<TrialRow>,
    /// One row per (selector, fault) cell.
    pub gaps: Vec<GapRow>,
}

/// Nearest-rank quantile of an ascending-sorted sample (q in [0, 1]).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Replay a trial's ClientOutcome stream through a fresh profiler
/// ([`replay_profiles`], the fold `obsdump --profiles` prints) and score
/// each completed attempt against the latency estimate available before
/// its outcome was folded, keeping per-round error samples.
fn replay_error_rounds(events: &[Event]) -> Vec<ErrorRound> {
    let mut per_round: Vec<(u64, Vec<f64>)> = Vec::new();
    replay_profiles(events, |profiler, client, obs| {
        let actual = obs.duration_s;
        if obs.kind == ObservedOutcome::Completed && actual > 0.0 {
            if let Some(pred) = profiler.estimate(client).and_then(|e| e.latency_s) {
                let err = ((pred - actual) / actual).abs();
                match per_round.iter_mut().find(|(r, _)| *r == obs.round) {
                    Some((_, errs)) => errs.push(err),
                    None => per_round.push((obs.round, vec![err])),
                }
            }
        }
    });
    per_round.sort_by_key(|&(round, _)| round);
    per_round
        .into_iter()
        .map(|(round, mut errs)| {
            errs.sort_by(f64::total_cmp);
            ErrorRound {
                round,
                predictions: errs.len() as u64,
                p50: quantile(&errs, 0.5),
                p90: quantile(&errs, 0.9),
            }
        })
        .collect()
}

fn run_trial(
    selector: SelectorChoice,
    fault: &str,
    mode: &str,
    rounds: usize,
    seed: u64,
) -> TrialRow {
    let mut cfg = ExperimentConfig::small(selector, AccelMode::Rlhf, rounds);
    cfg.fault_plan = if fault == "chaos" {
        FaultPlan::chaos()
    } else {
        FaultPlan::none()
    };
    cfg.seed = seed;
    cfg.obs = ObsConfig::on();
    cfg.profiling = profiling_for(mode);
    let (report, telemetry) = Experiment::new(cfg)
        .expect("valid trial config")
        .run_traced();
    assert!(
        report.is_finite(),
        "{}/{fault}/{mode} produced non-finite report",
        selector.name()
    );
    TrialRow {
        selector: selector.name().to_string(),
        fault: fault.to_string(),
        mode: mode.to_string(),
        seed,
        label: report.label.clone(),
        rounds,
        mean_accuracy: report.accuracy.mean,
        bottom10_accuracy: report.accuracy.bottom10,
        completions: report.total_completions,
        dropouts: report.total_dropouts,
        quarantined: report.total_quarantined,
        wall_clock_h: report.wall_clock_h,
        profile_observations: telemetry.summary.counter("profile_observations"),
        error_rounds: replay_error_rounds(&telemetry.events),
    }
}

/// Run the oracle-gap study at the given scale.
pub fn run(scale: Scale) -> ProfileGap {
    let quick = scale == Scale::Quick;
    let rounds = if quick { 6 } else { 40 };
    let (selectors, faults): (&[SelectorChoice], &[&str]) = if quick {
        (&[SelectorChoice::Oort], &["chaos"])
    } else {
        (&SELECTORS, &["none", "chaos"])
    };

    let mut rows = Vec::new();
    let mut gaps = Vec::new();
    for &selector in selectors {
        for fault in faults {
            // All three modes of a cell share one seed: same traces,
            // same faults, same data — only the estimates differ.
            let seed = split_seed(ROOT_SEED, gaps.len() as u64);
            let [oracle, profiled, cold] =
                MODES.map(|mode| run_trial(selector, fault, mode, rounds, seed));
            let mut late: Vec<f64> = profiled
                .error_rounds
                .iter()
                .filter(|e| e.round >= (rounds as u64).saturating_mul(3) / 4)
                .map(|e| e.p50)
                .collect();
            late.sort_by(f64::total_cmp);
            gaps.push(GapRow {
                selector: selector.name().to_string(),
                fault: fault.to_string(),
                oracle_mean_accuracy: oracle.mean_accuracy,
                profiled_mean_accuracy: profiled.mean_accuracy,
                coldstart_mean_accuracy: cold.mean_accuracy,
                profiled_gap: oracle.mean_accuracy - profiled.mean_accuracy,
                coldstart_gap: oracle.mean_accuracy - cold.mean_accuracy,
                oracle_completions: oracle.completions,
                profiled_completions: profiled.completions,
                coldstart_completions: cold.completions,
                profiled_late_p50: quantile(&late, 0.5),
            });
            rows.extend([oracle, profiled, cold]);
        }
    }

    ProfileGap {
        rounds,
        root_seed: ROOT_SEED,
        rows,
        gaps,
    }
}

impl ProfileGap {
    /// Text rendering: the trial table, then the gap table.
    pub fn render(&self) -> String {
        format!(
            "Oracle gap — online profiling vs the trace oracle ({} rounds, root seed {})\n{}\n\
             gap table (oracle minus mode)\n{}",
            self.rounds,
            self.root_seed,
            rows_table(&self.rows, &["seed", "label", "rounds"]),
            rows_table(&self.gaps, &[]),
        )
    }
}
