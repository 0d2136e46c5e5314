//! Cross-crate integration tests: full experiments through the public
//! facade, covering every selector × accel-mode combination, determinism,
//! and report consistency invariants.

use float::core::{AccelMode, Experiment, ExperimentConfig, SelectorChoice};

fn run(selector: SelectorChoice, accel: AccelMode, rounds: usize) -> float::core::ExperimentReport {
    let cfg = ExperimentConfig::small(selector, accel, rounds);
    Experiment::new(cfg).expect("small config validates").run()
}

#[test]
fn every_selector_runs_with_every_accel_mode() {
    for sel in SelectorChoice::ALL {
        for accel in [
            AccelMode::Off,
            AccelMode::Static(2),
            AccelMode::Heuristic,
            AccelMode::Rl,
            AccelMode::Rlhf,
        ] {
            let r = run(sel, accel, 4);
            assert_eq!(r.rounds.len(), 4, "{}/{}", sel.name(), accel.name());
            assert!(
                r.total_completions > 0,
                "{}/{} never completed a client",
                sel.name(),
                accel.name()
            );
        }
    }
}

#[test]
fn report_invariants_hold() {
    let r = run(SelectorChoice::FedAvg, AccelMode::Rlhf, 10);
    // Per-client counts are consistent with totals.
    let completed_sum = r.completed_count.sum();
    assert_eq!(completed_sum, r.total_completions);
    // Every completion and dropout is a selection (sync engine).
    let selected_sum = r.selected_count.sum();
    assert_eq!(selected_sum, r.total_completions + r.total_dropouts);
    // Ledger counts match report counts.
    assert_eq!(r.resources.completions, r.total_completions);
    assert_eq!(r.resources.dropouts, r.total_dropouts);
    // Accuracies are probabilities.
    for &a in &r.client_accuracies {
        assert!((0.0..=1.0).contains(&a), "accuracy {a} out of range");
    }
    // Accuracy summary ordering.
    assert!(r.accuracy.top10 >= r.accuracy.mean);
    assert!(r.accuracy.mean >= r.accuracy.bottom10);
    // Clock advances monotonically in the round log.
    for w in r.rounds.windows(2) {
        assert!(w[1].clock_s >= w[0].clock_s);
    }
    // Technique stats account for every attempt.
    let tech_total: u64 = r
        .technique_stats
        .values()
        .map(|t| t.successes + t.failures)
        .sum();
    assert_eq!(tech_total, r.total_completions + r.total_dropouts);
}

#[test]
fn runs_are_reproducible_across_processes_shapes() {
    let a = run(SelectorChoice::Oort, AccelMode::Rlhf, 6);
    let b = run(SelectorChoice::Oort, AccelMode::Rlhf, 6);
    assert_eq!(a.client_accuracies, b.client_accuracies);
    assert_eq!(a.selected_count, b.selected_count);
    assert_eq!(a.total_dropouts, b.total_dropouts);
    assert_eq!(a.wall_clock_h, b.wall_clock_h);
}

#[test]
fn different_seeds_change_outcomes() {
    let mut cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Off, 6);
    let a = Experiment::new(cfg).expect("valid").run();
    cfg.seed = 8888;
    let b = Experiment::new(cfg).expect("valid").run();
    assert_ne!(a.client_accuracies, b.client_accuracies);
}

#[test]
fn float_reduces_dropouts_and_waste_on_fedavg() {
    let off = run(SelectorChoice::FedAvg, AccelMode::Off, 15);
    let fl = run(SelectorChoice::FedAvg, AccelMode::Rlhf, 15);
    assert!(
        fl.total_dropouts < off.total_dropouts,
        "dropouts {} !< {}",
        fl.total_dropouts,
        off.total_dropouts
    );
    assert!(
        fl.resources.wasted_compute_h < off.resources.wasted_compute_h,
        "wasted compute {} !< {}",
        fl.resources.wasted_compute_h,
        off.resources.wasted_compute_h
    );
}

#[test]
fn async_engine_is_faster_in_wall_clock_than_sync() {
    let sync = run(SelectorChoice::FedAvg, AccelMode::Off, 10);
    let asynch = run(SelectorChoice::FedBuff, AccelMode::Off, 10);
    assert!(
        asynch.wall_clock_h < sync.wall_clock_h,
        "async {}h !< sync {}h",
        asynch.wall_clock_h,
        sync.wall_clock_h
    );
}

#[test]
fn no_dropout_counterfactual_eliminates_resource_dropouts() {
    let mut cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Off, 8);
    cfg.assume_no_dropouts = true;
    let r = Experiment::new(cfg).expect("valid").run();
    assert_eq!(
        r.total_dropouts, 0,
        "ND counterfactual still dropped {} clients",
        r.total_dropouts
    );
}

#[test]
fn model_actually_learns_non_iid_task() {
    let r = run(SelectorChoice::FedAvg, AccelMode::Off, 25);
    let evals: Vec<f64> = r.rounds.iter().filter_map(|x| x.mean_accuracy).collect();
    let first = evals.first().copied().expect("has evals");
    let last = evals.last().copied().expect("has evals");
    assert!(last > first + 0.1, "first {first} last {last}");
    assert!(last > 0.5, "final accuracy {last} too low to call learning");
}

#[test]
fn iid_data_is_easier_than_skewed_data() {
    let mut skewed_cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Off, 20);
    skewed_cfg.alpha = Some(0.02);
    let skewed = Experiment::new(skewed_cfg).expect("valid").run();
    let mut iid_cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Off, 20);
    iid_cfg.alpha = None;
    let iid = Experiment::new(iid_cfg).expect("valid").run();
    // Under IID, the bottom decile should not collapse the way it does
    // under extreme label skew.
    assert!(
        iid.accuracy.bottom10 > skewed.accuracy.bottom10,
        "iid bottom10 {} !> skewed bottom10 {}",
        iid.accuracy.bottom10,
        skewed.accuracy.bottom10
    );
}
