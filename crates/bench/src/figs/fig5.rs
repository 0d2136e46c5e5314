//! Figure 5 — limitations of static optimizations.
//!
//! Top row: one fixed acceleration technique per run (quantization,
//! pruning, partial training at a representative configuration) across the
//! three interference scenarios. Bottom row: pruning at 25/50/75 % across
//! the same scenarios. Reported: mean accuracy, successful clients,
//! dropped clients. The paper's finding: no single static configuration
//! wins everywhere — 25 % pruning is best with no interference, 75 % under
//! static interference, 50 % under dynamic interference.

use serde::{Deserialize, Serialize};

use float_accel::{AccelAction, ActionCatalogue};
use float_core::{AccelMode, Experiment, SelectorChoice};
use float_data::Task;
use float_traces::InterferenceModel;

use crate::scale::Scale;
use crate::{f, table};

/// One `(scenario, technique)` row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Row {
    /// Interference scenario name.
    pub scenario: String,
    /// Acceleration technique name.
    pub technique: String,
    /// Mean client accuracy at the end of the run.
    pub accuracy: f64,
    /// Total successful participations.
    pub successful: u64,
    /// Total dropouts.
    pub dropped: u64,
}

/// Full Fig. 5 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5 {
    /// Rows for the technique comparison (top row of the figure).
    pub techniques: Vec<Fig5Row>,
    /// Rows for the pruning-configuration sweep (bottom row).
    pub pruning_sweep: Vec<Fig5Row>,
}

fn run_one(scale: Scale, scenario: InterferenceModel, action: AccelAction) -> Fig5Row {
    let catalogue = ActionCatalogue::paper();
    let idx = catalogue
        .index_of(action)
        .expect("fig5 actions come from the paper catalogue");
    let mut cfg = scale.config(
        Task::Femnist,
        SelectorChoice::FedAvg,
        AccelMode::Static(idx),
    );
    cfg.interference = scenario;
    let report = Experiment::new(cfg).expect("scaled config valid").run();
    Fig5Row {
        scenario: scenario.name().to_string(),
        technique: action.name().to_string(),
        accuracy: report.accuracy.mean,
        successful: report.total_completions,
        dropped: report.total_dropouts,
    }
}

/// Run the Fig. 5 experiments at the given scale.
pub fn run(scale: Scale) -> Fig5 {
    let scenarios = [
        InterferenceModel::None,
        InterferenceModel::paper_static(),
        InterferenceModel::paper_dynamic(),
    ];
    let mut techniques = Vec::new();
    for &scenario in &scenarios {
        for action in [
            AccelAction::Quantize8,
            AccelAction::Prune50,
            AccelAction::Partial50,
        ] {
            techniques.push(run_one(scale, scenario, action));
        }
    }
    let mut pruning_sweep = Vec::new();
    for &scenario in &scenarios {
        for action in [
            AccelAction::Prune25,
            AccelAction::Prune50,
            AccelAction::Prune75,
        ] {
            pruning_sweep.push(run_one(scale, scenario, action));
        }
    }
    Fig5 {
        techniques,
        pruning_sweep,
    }
}

impl Fig5 {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let render_rows = |rows: &[Fig5Row]| -> Vec<Vec<String>> {
            rows.iter()
                .map(|r| {
                    vec![
                        r.scenario.clone(),
                        r.technique.clone(),
                        f(r.accuracy),
                        r.successful.to_string(),
                        r.dropped.to_string(),
                    ]
                })
                .collect()
        };
        format!(
            "Figure 5 (top) — static techniques across scenarios\n{}\nFigure 5 (bottom) — static pruning configurations\n{}",
            table(
                &["scenario", "technique", "accuracy", "successful", "dropped"],
                &render_rows(&self.techniques),
            ),
            table(
                &["scenario", "technique", "accuracy", "successful", "dropped"],
                &render_rows(&self.pruning_sweep),
            )
        )
    }
}
