//! Algorithm comparison — the server-optimizer / drift-correction layer
//! against FLOAT's acceleration agent.
//!
//! Sweeps six algorithm variants (FedAvg, FedAvgM, FedAdam, FedYogi,
//! FedAvg+FedProx, FedAvg+SCAFFOLD) across a non-IID α × fault-level ×
//! acceleration grid on the small CIFAR-10 configuration, with telemetry
//! on. Every trial derives its seed from root seed 42 and its grid index
//! via `split_seed`, so trials are independent and reproducible in
//! isolation. The `interactions` table pairs each (algorithm, α, fault)
//! cell's accel-off and RLHF runs: where does FLOAT's accel agent help or
//! hurt under each server optimizer?
//!
//! `Scale::Quick` runs one chaos cell per variant at α=0.1 with
//! acceleration off for three rounds; any other scale runs the full
//! 48-trial grid at 15 rounds.

use serde::{Deserialize, Serialize};

use float_core::optim::ServerOptimizerChoice;
use float_core::{AccelMode, Experiment, ExperimentConfig, SelectorChoice};
use float_obs::ObsConfig;
use float_sim::FaultPlan;
use float_tensor::rng::split_seed;

use crate::rows_table;
use crate::scale::Scale;

/// Root of every trial's seed stream.
const ROOT_SEED: u64 = 42;

/// The six algorithm variants under comparison: the four server
/// optimizers, then FedAvg with each client-side drift correction.
const ALGOS: [&str; 6] = [
    "fedavg",
    "fedavgm",
    "fedadam",
    "fedyogi",
    "fedavg+prox",
    "fedavg+scaffold",
];

/// Apply one named variant to a config (mirrors the integration-test
/// sweep in `tests/server_optim.rs`).
fn apply_algo(cfg: &mut ExperimentConfig, algo: &str) {
    match algo {
        "fedavg" => {}
        "fedavgm" => cfg.server_optim = ServerOptimizerChoice::FedAvgM,
        "fedadam" => cfg.server_optim = ServerOptimizerChoice::FedAdam,
        "fedyogi" => cfg.server_optim = ServerOptimizerChoice::FedYogi,
        "fedavg+prox" => cfg.prox_mu = 0.1,
        "fedavg+scaffold" => cfg.scaffold = true,
        other => panic!("unknown algorithm variant {other}"),
    }
}

/// One trial of the grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrialRow {
    /// Algorithm variant.
    pub algo: String,
    /// Dirichlet non-IID concentration.
    pub alpha: f64,
    /// Fault level: `none` or `chaos`.
    pub fault: String,
    /// Acceleration: `off` or `rlhf`.
    pub accel: String,
    /// The trial's derived seed.
    pub seed: u64,
    /// The runtime's own label, with its `@optimizer` / `+correction`
    /// suffixes.
    pub label: String,
    /// Rounds run.
    pub rounds: usize,
    /// Mean final client accuracy.
    pub mean_accuracy: f64,
    /// Bottom-decile final client accuracy.
    pub bottom10_accuracy: f64,
    /// Top-decile final client accuracy.
    pub top10_accuracy: f64,
    /// Committed completions.
    pub completions: u64,
    /// Dropouts.
    pub dropouts: u64,
    /// Updates quarantined by the fault layer.
    pub quarantined: u64,
    /// Simulated wall clock, hours.
    pub wall_clock_h: f64,
    /// Events accepted into the telemetry buffer.
    pub events: u64,
}

/// One (algorithm, α, fault) cell's accel-off vs RLHF pairing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InteractionRow {
    /// Algorithm variant.
    pub algo: String,
    /// Dirichlet non-IID concentration.
    pub alpha: f64,
    /// Fault level.
    pub fault: String,
    /// Mean accuracy with acceleration off.
    pub off_mean_accuracy: f64,
    /// Mean accuracy with the RLHF agent.
    pub rlhf_mean_accuracy: f64,
    /// RLHF minus off — positive where the accel agent helps this
    /// optimizer, negative where it hurts.
    pub rlhf_gain: f64,
}

/// Full algorithm-comparison result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Algos {
    /// Rounds per trial.
    pub rounds: usize,
    /// Root of the trial seed stream.
    pub root_seed: u64,
    /// One row per trial, in grid order.
    pub rows: Vec<TrialRow>,
    /// Accel-off vs RLHF pairs; empty when the grid has one accel mode.
    pub interactions: Vec<InteractionRow>,
}

fn run_trial(
    algo: &str,
    alpha: f64,
    fault: &str,
    accel: &str,
    rounds: usize,
    seed: u64,
) -> TrialRow {
    let mut cfg = ExperimentConfig::small(
        SelectorChoice::FedAvg,
        if accel == "rlhf" {
            AccelMode::Rlhf
        } else {
            AccelMode::Off
        },
        rounds,
    );
    cfg.alpha = Some(alpha);
    cfg.fault_plan = if fault == "chaos" {
        FaultPlan::chaos()
    } else {
        FaultPlan::none()
    };
    cfg.seed = seed;
    cfg.obs = ObsConfig::on();
    apply_algo(&mut cfg, algo);
    let (report, telemetry) = Experiment::new(cfg)
        .expect("valid trial config")
        .run_traced();
    assert!(
        report.is_finite(),
        "{algo}/{alpha}/{fault}/{accel} produced non-finite report"
    );
    TrialRow {
        algo: algo.to_string(),
        alpha,
        fault: fault.to_string(),
        accel: accel.to_string(),
        seed,
        label: report.label.clone(),
        rounds,
        mean_accuracy: report.accuracy.mean,
        bottom10_accuracy: report.accuracy.bottom10,
        top10_accuracy: report.accuracy.top10,
        completions: report.total_completions,
        dropouts: report.total_dropouts,
        quarantined: report.total_quarantined,
        wall_clock_h: report.wall_clock_h,
        events: telemetry.summary.events_recorded,
    }
}

/// Run the algorithm comparison at the given scale.
pub fn run(scale: Scale) -> Algos {
    let quick = scale == Scale::Quick;
    let rounds = if quick { 3 } else { 15 };
    let (alphas, faults, accels): (&[f64], &[&str], &[&str]) = if quick {
        (&[0.1], &["chaos"], &["off"])
    } else {
        (&[0.1, 1.0], &["none", "chaos"], &["off", "rlhf"])
    };

    let mut rows = Vec::new();
    for algo in ALGOS {
        for &alpha in alphas {
            for fault in faults {
                for accel in accels {
                    let seed = split_seed(ROOT_SEED, rows.len() as u64);
                    rows.push(run_trial(algo, alpha, fault, accel, rounds, seed));
                }
            }
        }
    }

    // Pair each (algo, α, fault) cell's off and rlhf runs.
    let mut interactions = Vec::new();
    for off in rows.iter().filter(|r| r.accel == "off") {
        let Some(rlhf) = rows.iter().find(|r| {
            r.accel == "rlhf" && r.algo == off.algo && r.alpha == off.alpha && r.fault == off.fault
        }) else {
            continue;
        };
        interactions.push(InteractionRow {
            algo: off.algo.clone(),
            alpha: off.alpha,
            fault: off.fault.clone(),
            off_mean_accuracy: off.mean_accuracy,
            rlhf_mean_accuracy: rlhf.mean_accuracy,
            rlhf_gain: rlhf.mean_accuracy - off.mean_accuracy,
        });
    }

    Algos {
        rounds,
        root_seed: ROOT_SEED,
        rows,
        interactions,
    }
}

impl Algos {
    /// Text rendering: the trial table, then the interaction table.
    pub fn render(&self) -> String {
        format!(
            "Algorithm comparison — server optimizers and drift corrections \
             ({} rounds, root seed {})\n{}\naccel x optimizer interaction (RLHF minus off)\n{}",
            self.rounds,
            self.root_seed,
            rows_table(&self.rows, &["seed", "label", "rounds"]),
            rows_table(&self.interactions, &[]),
        )
    }
}
