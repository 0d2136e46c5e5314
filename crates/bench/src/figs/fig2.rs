//! Figure 2 — limitations of existing frameworks.
//!
//! (a) participation counts: selected clients (C) vs clients that
//! completed without dropout (S), per algorithm; (b) accumulated resource
//! usage of all clients and wall-clock FL time, synchronous vs
//! asynchronous.
//!
//! Paper setup: 200 clients, 20/round, 300 rounds, EMNIST, Dirichlet
//! α = 0.05, no co-located interference (resources fully dedicated).

use serde::{Deserialize, Serialize};

use float_core::{AccelMode, Experiment, SelectorChoice};
use float_data::Task;
use float_traces::InterferenceModel;

use crate::scale::Scale;
use crate::{f, table};

/// One algorithm's row in the Fig. 2 comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2Row {
    /// Algorithm name.
    pub algorithm: String,
    /// Total selection events.
    pub selected: u64,
    /// Total successful participations.
    pub completed: u64,
    /// Clients never selected across the whole run (selection bias).
    pub never_selected: usize,
    /// Clients that never completed a round.
    pub never_completed: usize,
    /// Total compute hours spent by all clients.
    pub compute_h: f64,
    /// Total communication hours.
    pub comm_h: f64,
    /// Virtual wall-clock time of the run, hours.
    pub wall_clock_h: f64,
}

/// Full Fig. 2 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2 {
    /// One row per algorithm.
    pub rows: Vec<Fig2Row>,
}

/// Run the Fig. 2 experiment at the given scale.
pub fn run(scale: Scale) -> Fig2 {
    let rows = SelectorChoice::ALL
        .iter()
        .map(|&sel| {
            let mut cfg = scale.config(Task::Emnist, sel, AccelMode::Off);
            cfg.alpha = Some(0.05);
            // Fig. 2 assumes no co-located interference (§4.1).
            cfg.interference = InterferenceModel::None;
            // 20 per round in the paper's motivation setup.
            cfg.cohort_size = cfg.cohort_size.min(20);
            let report = Experiment::new(cfg).expect("scaled config valid").run();
            Fig2Row {
                algorithm: sel.name().to_string(),
                selected: report.selected_count.sum(),
                completed: report.completed_count.sum(),
                never_selected: report.never_selected(),
                never_completed: report.never_completed(),
                compute_h: report.resources.total_compute_h(),
                comm_h: report.resources.total_comm_h(),
                wall_clock_h: report.wall_clock_h,
            }
        })
        .collect();
    Fig2 { rows }
}

impl Fig2 {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.algorithm.clone(),
                    r.selected.to_string(),
                    r.completed.to_string(),
                    r.never_selected.to_string(),
                    r.never_completed.to_string(),
                    f(r.compute_h),
                    f(r.comm_h),
                    f(r.wall_clock_h),
                ]
            })
            .collect();
        format!(
            "Figure 2 — participation counts and resource usage\n{}",
            table(
                &[
                    "algorithm",
                    "selected(C)",
                    "completed(S)",
                    "never-sel",
                    "never-done",
                    "compute-h",
                    "comm-h",
                    "wall-h",
                ],
                &rows,
            )
        )
    }
}
