//! Figure 9 — reusability of the RLHF agent (transfer / fine-tuning, RQ3).
//!
//! Pre-train the agent on FEMNIST (ResNet-18 costs), then transfer it to
//! (a) CIFAR-10 with the same architecture and (b) CIFAR-10 with ResNet-50
//! costs. Reported: the mean reward trajectory of the fine-tuned agent
//! next to a from-scratch agent on the same target workload. The paper's
//! finding: the pre-trained agent recovers positive rewards within ~20
//! rounds, far faster than training from scratch (~200 rounds).

use serde::{Deserialize, Serialize};

use float_core::{AccelMode, Experiment, SelectorChoice};
use float_data::Task;
use float_models::Architecture;

use crate::scale::Scale;
use crate::{f, table};

/// A reward trajectory of one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RewardCurve {
    /// Run label.
    pub label: String,
    /// `(round, mean reward)` samples.
    pub points: Vec<(usize, f64)>,
}

impl RewardCurve {
    /// Mean reward over the first `n` sampled rounds.
    fn early_mean(&self, n: usize) -> f64 {
        let pts: Vec<f64> = self.points.iter().take(n).map(|&(_, r)| r).collect();
        if pts.is_empty() {
            0.0
        } else {
            pts.iter().sum::<f64>() / pts.len() as f64
        }
    }
}

/// Full Fig. 9 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig9 {
    /// Pre-training curve on the source workload.
    pub pretrain: RewardCurve,
    /// Fine-tune vs scratch on CIFAR-10 (same architecture).
    pub transfer_same_arch: (RewardCurve, RewardCurve),
    /// Fine-tune vs scratch on CIFAR-10 + ResNet-50.
    pub transfer_new_arch: (RewardCurve, RewardCurve),
}

fn curve(label: &str, report: &float_core::ExperimentReport) -> RewardCurve {
    RewardCurve {
        label: label.to_string(),
        points: report.reward_trajectory(),
    }
}

/// Run the Fig. 9 transfer study at the given scale.
pub fn run(scale: Scale) -> Fig9 {
    // Phase 1: pre-train on FEMNIST / ResNet-18 and capture the agent.
    let mut src_cfg = scale.config(Task::Femnist, SelectorChoice::FedAvg, AccelMode::Rlhf);
    src_cfg.arch = Architecture::ResNet18;
    let src_exp = Experiment::new(src_cfg).expect("valid source config");
    let (src_exp_report, trained_agent) = src_exp.run_capturing_agent();

    // Phase 2a: transfer to CIFAR-10 (same arch) vs scratch.
    let tgt_rounds = scale.rounds() / 2;
    let mk_cfg = |arch: Architecture, seed_shift: u64| {
        let mut c = scale.config(Task::Cifar10, SelectorChoice::FedAvg, AccelMode::Rlhf);
        c.arch = arch;
        c.rounds = tgt_rounds.max(10);
        c.eval_every = 4;
        c.seed ^= seed_shift;
        c
    };

    let fine_same = {
        let mut e = Experiment::new(mk_cfg(Architecture::ResNet18, 0xA)).expect("valid");
        e.install_pretrained_agent(clone_agent(&trained_agent));
        curve("cifar10/resnet18 fine-tuned", &e.run())
    };
    let scratch_same = {
        let e = Experiment::new(mk_cfg(Architecture::ResNet18, 0xA)).expect("valid");
        curve("cifar10/resnet18 scratch", &e.run())
    };

    // Phase 2b: transfer to CIFAR-10 + ResNet-50 vs scratch.
    let fine_new = {
        let mut e = Experiment::new(mk_cfg(Architecture::ResNet50, 0xB)).expect("valid");
        e.install_pretrained_agent(clone_agent(&trained_agent));
        curve("cifar10/resnet50 fine-tuned", &e.run())
    };
    let scratch_new = {
        let e = Experiment::new(mk_cfg(Architecture::ResNet50, 0xB)).expect("valid");
        curve("cifar10/resnet50 scratch", &e.run())
    };

    Fig9 {
        pretrain: curve("femnist/resnet18 pretrain", &src_exp_report),
        transfer_same_arch: (fine_same, scratch_same),
        transfer_new_arch: (fine_new, scratch_new),
    }
}

fn clone_agent(agent: &float_rl::RlhfAgent) -> float_rl::RlhfAgent {
    float_rl::RlhfAgent::from_json(&agent.to_json()).expect("agent JSON round-trips")
}

impl Fig9 {
    /// Whether fine-tuning converges faster than scratch on both targets
    /// (the paper's headline Fig. 9 claim).
    fn transfer_wins(&self) -> (bool, bool) {
        let early = |c: &RewardCurve| c.early_mean(5);
        (
            early(&self.transfer_same_arch.0) > early(&self.transfer_same_arch.1),
            early(&self.transfer_new_arch.0) > early(&self.transfer_new_arch.1),
        )
    }

    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let mut rows: Vec<Vec<String>> = Vec::new();
        let mut add = |c: &RewardCurve| {
            rows.push(vec![
                c.label.clone(),
                f(c.early_mean(5)),
                f(c.early_mean(usize::MAX)),
                c.points.len().to_string(),
            ]);
        };
        add(&self.pretrain);
        add(&self.transfer_same_arch.0);
        add(&self.transfer_same_arch.1);
        add(&self.transfer_new_arch.0);
        add(&self.transfer_new_arch.1);
        let (w1, w2) = self.transfer_wins();
        format!(
            "Figure 9 — RLHF agent reusability (reward trajectories)\n{}\nfine-tune beats scratch: same-arch={w1} new-arch={w2}\n",
            table(
                &["run", "early-reward(5 evals)", "mean-reward", "samples"],
                &rows,
            )
        )
    }
}
