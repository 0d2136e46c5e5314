//! Interference study: the paper's motivation experiment (§4.3, Fig. 5).
//!
//! Compares static pruning levels against FLOAT under the three
//! interference scenarios (none / static / dynamic). The paper's claim is
//! that no fixed configuration wins everywhere; the closing verdict says
//! whether this run shows it.
//!
//! ```text
//! cargo run --release --example interference_study
//! ```

use float::accel::{AccelAction, ActionCatalogue};
use float::core::{AccelMode, Experiment, SelectorChoice};
use float::data::Task;
use float::traces::InterferenceModel;

fn main() {
    let catalogue = ActionCatalogue::paper();
    let scenarios = [
        InterferenceModel::None,
        InterferenceModel::paper_static(),
        InterferenceModel::paper_dynamic(),
    ];
    let statics = [
        AccelAction::Prune25,
        AccelAction::Prune50,
        AccelAction::Prune75,
    ];

    println!(
        "{:<22} {:<10} {:>9} {:>11} {:>8}",
        "scenario", "policy", "accuracy", "successful", "dropped"
    );
    // Per scenario: the most accurate static level, and FLOAT's accuracy.
    let mut best: Vec<(AccelAction, f64)> = Vec::new();
    let mut float_acc: Vec<f64> = Vec::new();
    for scenario in scenarios {
        let mut best_here = (statics[0], f64::NEG_INFINITY);
        // Static pruning sweep (the Fig. 5 bottom row).
        for action in statics {
            let idx = catalogue.index_of(action).expect("paper action");
            let report = run(scenario, AccelMode::Static(idx));
            println!(
                "{:<22} {:<10} {:>9.3} {:>11} {:>8}",
                scenario.name(),
                action.name(),
                report.accuracy.mean,
                report.total_completions,
                report.total_dropouts
            );
            if report.accuracy.mean > best_here.1 {
                best_here = (action, report.accuracy.mean);
            }
        }
        best.push(best_here);
        // FLOAT adapts per client per round.
        let report = run(scenario, AccelMode::Rlhf);
        println!(
            "{:<22} {:<10} {:>9.3} {:>11} {:>8}",
            scenario.name(),
            "FLOAT",
            report.accuracy.mean,
            report.total_completions,
            report.total_dropouts
        );
        float_acc.push(report.accuracy.mean);
        println!();
    }

    // The verdict is read from the accuracies just printed.
    let n = scenarios.len();
    let same_best = best.iter().all(|&(a, _)| a == best[0].0);
    let wins = best
        .iter()
        .zip(&float_acc)
        .filter(|(&(_, acc), &f)| f > acc)
        .count();
    let verdict = match (same_best, wins) {
        (true, 0) => format!(
            "{} is the most accurate static level in every scenario and FLOAT \
             beats it in none: a fixed configuration wins",
            best[0].0.name()
        ),
        (false, 0) => "the most accurate static level changes with the scenario, \
                       but FLOAT beats it in none"
            .to_string(),
        (_, w) if w == n => {
            "FLOAT beats the most accurate static level in every scenario".to_string()
        }
        (_, w) => format!("FLOAT beats the most accurate static level in {w} of {n} scenarios"),
    };
    println!("Verdict: on this workload and seed, {verdict}.");
}

fn run(scenario: InterferenceModel, accel: AccelMode) -> float::core::ExperimentReport {
    let mut cfg = float::core::ExperimentConfig::small(SelectorChoice::FedAvg, accel, 25);
    cfg.task = Task::Femnist;
    cfg.interference = scenario;
    Experiment::new(cfg).expect("config validates").run()
}
