//! Integration tests for the reproduction's extension surface: the
//! extended action catalogue (RQ5), the §7 reward-weight knob, the
//! vertical-FL substrate, and agent transfer through the facade.

use float::core::{AccelMode, Experiment, ExperimentConfig, SelectorChoice};
use float::rl::RlhfAgent;
use float::tensor::model::TrainOptions;
use float::vfl::split::synthetic_vfl;
use float::vfl::{SplitModel, VflConfig};

#[test]
fn extended_catalogue_runs_and_uses_extra_actions() {
    let cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::RlhfExtended, 12);
    let report = Experiment::new(cfg).expect("valid").run();
    assert!(report.total_completions > 0);
    // The extended catalogue's extra actions must actually be exercised.
    let extra_used = ["noop", "compress", "topk10"]
        .iter()
        .filter(|&&n| report.technique_stats.contains_key(n))
        .count();
    assert!(
        extra_used >= 2,
        "extended actions unused: {:?}",
        report.technique_stats.keys().collect::<Vec<_>>()
    );
}

#[test]
fn reward_weights_are_validated_and_change_behaviour() {
    let mut cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Rlhf, 12);
    cfg.reward_w_participation = -1.0;
    assert!(Experiment::new(cfg).is_err());

    // Participation-only vs accuracy-leaning agents behave differently.
    let mut p_cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Rlhf, 12);
    p_cfg.reward_w_participation = 1.0;
    p_cfg.reward_w_accuracy = 0.0;
    let p_report = Experiment::new(p_cfg).expect("valid").run();

    let mut a_cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Rlhf, 12);
    a_cfg.reward_w_participation = 0.1;
    a_cfg.reward_w_accuracy = 0.9;
    let a_report = Experiment::new(a_cfg).expect("valid").run();

    // Different objectives must produce different technique mixes.
    assert_ne!(
        p_report.technique_stats, a_report.technique_stats,
        "reward weights had no behavioural effect"
    );
}

#[test]
fn agent_transfer_through_facade() {
    let src = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Rlhf, 10);
    let (_, agent) = Experiment::new(src).expect("valid").run_capturing_agent();
    // Serialize, restore, install into a new experiment on another task.
    let restored = RlhfAgent::from_json(&agent.to_json()).expect("roundtrip");
    let mut tgt_cfg = ExperimentConfig::small(SelectorChoice::Oort, AccelMode::Rlhf, 6);
    tgt_cfg.task = float::data::Task::Femnist;
    let mut tgt = Experiment::new(tgt_cfg).expect("valid");
    tgt.install_pretrained_agent(restored);
    let report = tgt.run();
    assert_eq!(report.rounds.len(), 6);
}

#[test]
fn vfl_substrate_trains_through_facade() {
    let config = VflConfig {
        party_dims: vec![8, 8],
        embed_dim: 8,
        num_classes: 3,
    };
    let data = synthetic_vfl(&config, 128, 11);
    let mut model = SplitModel::new(&config, 5);
    let opts = vec![TrainOptions::default(); 2];
    let before = model.evaluate(&data);
    for e in 0..25 {
        model.train_epoch(&data, 16, 0.1, e, &opts);
    }
    assert!(model.evaluate(&data) > before + 0.2);
}

#[test]
fn static_modes_cover_whole_catalogue() {
    // Every paper-catalogue index must be runnable as a static mode.
    for idx in 0..8 {
        let cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Static(idx), 3);
        let report = Experiment::new(cfg).expect("valid").run();
        assert_eq!(report.technique_stats.len(), 1, "static idx {idx}");
    }
}

#[test]
fn tifl_extension_selector_runs_with_and_without_float() {
    for accel in [AccelMode::Off, AccelMode::Rlhf] {
        let cfg = ExperimentConfig::small(SelectorChoice::Tifl, accel, 8);
        let report = Experiment::new(cfg).expect("valid").run();
        assert_eq!(report.rounds.len(), 8);
        assert!(
            report.total_completions > 0,
            "tifl/{} never completed",
            accel.name()
        );
    }
}

#[test]
fn rlhf_extended_report_label_distinguishes_mode() {
    let cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::RlhfExtended, 3);
    let report = Experiment::new(cfg).expect("valid").run();
    assert!(report.label.starts_with("float-rlhf-ext"));
}
