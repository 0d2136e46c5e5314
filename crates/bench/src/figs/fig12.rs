//! Figure 12 — end-to-end performance of FLOAT across datasets and
//! client-selection baselines.
//!
//! For each of the paper's benchmark tasks (FEMNIST, CIFAR-10, Speech)
//! and each selector (FedAvg, Oort, REFL, FedBuff), two runs: the vanilla
//! baseline and FLOAT (RLHF) on top of it. Reported per run: Top-10 % /
//! mean / Bottom-10 % accuracy (top row of the figure), dropout counts,
//! and compute / communication / memory inefficiency (bottom row).
//!
//! Shape targets from the paper: FLOAT always reduces dropouts (by one to
//! two orders of magnitude) and wasted resources (multiplicatively); the
//! biggest accuracy gains land on FedAvg/Oort for FEMNIST and CIFAR-10;
//! Speech improves only marginally because it drops few clients to begin
//! with; FLOAT(FedBuff) improves resources more than accuracy.

use serde::{Deserialize, Serialize};

use float_core::{AccelMode, Experiment, SelectorChoice};
use float_data::Task;

use crate::scale::Scale;
use crate::{f, table};

/// One `(task, selector, mode)` run's row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E2eRow {
    /// Benchmark task name.
    pub task: String,
    /// Selector name.
    pub selector: String,
    /// `"vanilla"` or `"float"`.
    pub mode: String,
    /// Top-decile client accuracy.
    pub top10: f64,
    /// Mean client accuracy.
    pub mean: f64,
    /// Bottom-decile client accuracy.
    pub bottom10: f64,
    /// Total dropouts.
    pub dropouts: u64,
    /// Total completions.
    pub completions: u64,
    /// Wasted compute hours.
    pub wasted_compute_h: f64,
    /// Wasted communication hours.
    pub wasted_comm_h: f64,
    /// Wasted memory terabytes.
    pub wasted_memory_tb: f64,
    /// Virtual wall-clock hours.
    pub wall_clock_h: f64,
}

/// Full end-to-end result (shared by Fig. 12 and Fig. 13).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E2e {
    /// All rows.
    pub rows: Vec<E2eRow>,
}

/// Run the end-to-end grid for `tasks` at the given scale.
/// `seed_override` pins a figure-specific seed stream (`None` keeps the
/// preset seed).
pub fn run_tasks(scale: Scale, tasks: &[Task], seed_override: Option<u64>) -> E2e {
    let mut rows = Vec::new();
    for &task in tasks {
        for &sel in &SelectorChoice::ALL {
            for (mode_name, mode) in [("vanilla", AccelMode::Off), ("float", AccelMode::Rlhf)] {
                let mut cfg = scale.config(task, sel, mode);
                if let Some(seed) = seed_override {
                    cfg.seed = seed;
                }
                if task == Task::OpenImage {
                    cfg.arch = float_models::Architecture::ShuffleNetV2;
                }
                if task == Task::Speech {
                    cfg.arch = float_models::Architecture::SpeechCnn;
                }
                let report = Experiment::new(cfg).expect("scaled config valid").run();
                rows.push(E2eRow {
                    task: task.name().to_string(),
                    selector: sel.name().to_string(),
                    mode: mode_name.to_string(),
                    top10: report.accuracy.top10,
                    mean: report.accuracy.mean,
                    bottom10: report.accuracy.bottom10,
                    dropouts: report.total_dropouts,
                    completions: report.total_completions,
                    wasted_compute_h: report.resources.wasted_compute_h,
                    wasted_comm_h: report.resources.wasted_comm_h,
                    wasted_memory_tb: report.resources.wasted_memory_tb,
                    wall_clock_h: report.wall_clock_h,
                });
            }
        }
    }
    E2e { rows }
}

/// Run the Fig. 12 grid (FEMNIST, CIFAR-10, Speech).
pub fn run(scale: Scale) -> E2e {
    run_tasks(scale, &[Task::Femnist, Task::Cifar10, Task::Speech], None)
}

impl E2e {
    /// Look up a row.
    pub fn row(&self, task: &str, selector: &str, mode: &str) -> Option<&E2eRow> {
        self.rows
            .iter()
            .find(|r| r.task == task && r.selector == selector && r.mode == mode)
    }

    /// Dropout-reduction factor of FLOAT over vanilla for a
    /// `(task, selector)` pair (the paper's "3×–78×" numbers). Add-one
    /// smoothed so near-zero-dropout runs (Speech on some selectors)
    /// compare sensibly instead of dividing by zero.
    pub fn dropout_reduction(&self, task: &str, selector: &str) -> Option<f64> {
        let v = self.row(task, selector, "vanilla")?;
        let fl = self.row(task, selector, "float")?;
        Some((v.dropouts as f64 + 1.0) / (fl.dropouts as f64 + 1.0))
    }

    /// Paper-style text rendering with a `title`.
    pub fn render_with_title(&self, title: &str) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.task.clone(),
                    r.selector.clone(),
                    r.mode.clone(),
                    f(r.top10),
                    f(r.mean),
                    f(r.bottom10),
                    r.dropouts.to_string(),
                    f(r.wasted_compute_h),
                    f(r.wasted_comm_h),
                    f(r.wasted_memory_tb),
                    f(r.wall_clock_h),
                ]
            })
            .collect();
        format!(
            "{title}\n{}",
            table(
                &[
                    "task",
                    "selector",
                    "mode",
                    "top10%",
                    "mean",
                    "bottom10%",
                    "dropouts",
                    "waste-comp-h",
                    "waste-comm-h",
                    "waste-mem-tb",
                    "wall-h",
                ],
                &rows,
            )
        )
    }

    /// Default rendering.
    pub fn render(&self) -> String {
        self.render_with_title("Figure 12 — end-to-end: accuracy, dropouts, resource inefficiency")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(task: &str, selector: &str, mode: &str, dropouts: u64) -> E2eRow {
        E2eRow {
            task: task.into(),
            selector: selector.into(),
            mode: mode.into(),
            top10: 1.0,
            mean: 0.9,
            bottom10: 0.8,
            dropouts,
            completions: 100,
            wasted_compute_h: 1.0,
            wasted_comm_h: 1.0,
            wasted_memory_tb: 0.1,
            wall_clock_h: 10.0,
        }
    }

    #[test]
    fn row_lookup_finds_exact_cell() {
        let e2e = E2e {
            rows: vec![
                row("femnist", "fedavg", "vanilla", 50),
                row("femnist", "fedavg", "float", 10),
            ],
        };
        assert_eq!(e2e.row("femnist", "fedavg", "float").unwrap().dropouts, 10);
        assert!(e2e.row("cifar10", "fedavg", "float").is_none());
    }

    #[test]
    fn dropout_reduction_is_smoothed() {
        let e2e = E2e {
            rows: vec![row("t", "s", "vanilla", 0), row("t", "s", "float", 0)],
        };
        // 0 vs 0 must compare as neutral 1.0, not divide by zero.
        assert!((e2e.dropout_reduction("t", "s").unwrap() - 1.0).abs() < 1e-12);
        let e2e = E2e {
            rows: vec![row("t", "s", "vanilla", 99), row("t", "s", "float", 9)],
        };
        assert!((e2e.dropout_reduction("t", "s").unwrap() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn render_contains_every_row() {
        let e2e = E2e {
            rows: vec![row("femnist", "oort", "vanilla", 5)],
        };
        let out = e2e.render();
        assert!(out.contains("femnist"));
        assert!(out.contains("oort"));
        assert!(out.contains("vanilla"));
    }
}
