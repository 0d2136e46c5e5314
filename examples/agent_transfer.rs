//! Agent transfer: pre-train the RLHF agent on one workload and fine-tune
//! it on another (the paper's RQ3 / Fig. 9 workflow), including saving and
//! restoring the agent as JSON.
//!
//! ```text
//! cargo run --release --example agent_transfer
//! ```

use float::core::{AccelMode, Experiment, ExperimentConfig, SelectorChoice};
use float::data::Task;
use float::models::Architecture;
use float::rl::RlhfAgent;

fn main() {
    // Phase 1: pre-train the agent on a FEMNIST-shaped workload.
    let mut src = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Rlhf, 30);
    src.task = Task::Femnist;
    src.arch = Architecture::ResNet18;
    println!("pre-training RLHF agent on femnist/resnet18…");
    let (src_report, agent) = Experiment::new(src)
        .expect("config validates")
        .run_capturing_agent();
    println!(
        "  source run: mean accuracy {:.3}, {} dropouts, Q-table {} bytes",
        src_report.accuracy.mean,
        src_report.total_dropouts,
        agent.memory_bytes()
    );

    // Persist and restore the agent — in a deployment this is the
    // pre-trained artifact shipped to a new FL operator.
    let saved = agent.to_json();
    println!("  serialized agent: {} bytes of JSON", saved.len());
    let restored = RlhfAgent::from_json(&saved).expect("agent JSON round-trips");

    // Phase 2: fine-tune on a CIFAR-10-shaped workload with a bigger
    // model, versus training a fresh agent from scratch.
    let mk = |seed_shift: u64| {
        let mut c = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Rlhf, 15);
        c.task = Task::Cifar10;
        c.arch = Architecture::ResNet50;
        c.seed ^= seed_shift;
        c
    };

    println!("\nfine-tuning transferred agent on cifar10/resnet50…");
    let mut fine = Experiment::new(mk(1)).expect("config validates");
    fine.install_pretrained_agent(restored);
    let fine_report = fine.run();

    println!("training a fresh agent on the same workload…");
    let fresh_report = Experiment::new(mk(1)).expect("config validates").run();

    let early = |r: &float::core::ExperimentReport| {
        let pts: Vec<f64> = r
            .reward_trajectory()
            .iter()
            .take(5)
            .map(|&(_, w)| w)
            .collect();
        pts.iter().sum::<f64>() / pts.len().max(1) as f64
    };
    let (fine_early, fresh_early) = (early(&fine_report), early(&fresh_report));
    println!("\nearly mean reward (first 5 rounds):");
    println!("  fine-tuned: {fine_early:.3}");
    println!("  scratch:    {fresh_early:.3}");
    println!(
        "\nfinal dropouts: fine-tuned {} vs scratch {}",
        fine_report.total_dropouts, fresh_report.total_dropouts
    );

    // The verdict is read from the two comparisons just printed.
    let reward_ahead = fine_early > fresh_early;
    let dropouts_ahead = fine_report.total_dropouts < fresh_report.total_dropouts;
    let verdict = match (reward_ahead, dropouts_ahead) {
        (true, true) => "ahead on both: the paper's reusability claim shows",
        (false, false) => "ahead on neither: the paper's reusability claim does not show",
        (true, false) => "ahead on early reward only: mixed evidence for the claim",
        (false, true) => "ahead on dropouts only: mixed evidence for the claim",
    };
    println!("\nVerdict: on this workload and seed the transferred agent is {verdict}.");
}
