//! Design-choice ablations for the RLHF agent (paper RQ6/RQ7 and §5).
//!
//! The paper motivates four agent design choices qualitatively; this
//! module measures each on the same workload by toggling one knob at a
//! time against the full FLOAT-RLHF configuration:
//!
//! 1. **Moving-average rewards** vs the naive accumulation the paper
//!    rejected (Q values inflate with visit counts, biasing exploitation
//!    toward whatever was explored most).
//! 2. **Count-balanced exploration** vs uniform ε-greedy.
//! 3. **Dynamic (progress-scaled) learning rate** vs a fixed rate.
//! 4. **Dropout feedback caching** vs discarding dropped clients'
//!    accuracy signal.

use serde::{Deserialize, Serialize};

use float_core::runtime::Experiment;
use float_core::{AccelMode, ExperimentConfig, SelectorChoice};
use float_data::Task;
use float_rl::{AgentConfig, RlhfAgent};
use float_tensor::rng::split_seed;

use crate::scale::Scale;
use crate::{f, table};

/// One ablation variant's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// Variant name.
    pub variant: String,
    /// Mean client accuracy at the end of the run.
    pub accuracy: f64,
    /// Total successful participations.
    pub successful: u64,
    /// Total dropouts.
    pub dropped: u64,
    /// Gini-style imbalance of action visits in `[0, 1]`: 0 = perfectly
    /// balanced exploration, 1 = all visits on one action.
    pub action_imbalance: f64,
}

/// Full ablation study result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ablations {
    /// Rows: full config first, then one per disabled knob.
    pub rows: Vec<AblationRow>,
}

/// Visit imbalance across actions: half the mean absolute pairwise
/// difference of visit shares (Gini coefficient over actions).
fn action_imbalance(agent: &RlhfAgent) -> f64 {
    let k = agent.table().num_actions();
    let mut visits = vec![0u64; k];
    for (_, entries) in agent.table().iter_rows() {
        for (i, e) in entries.iter().enumerate() {
            visits[i] += e.visits;
        }
    }
    let total: u64 = visits.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let shares: Vec<f64> = visits.iter().map(|&v| v as f64 / total as f64).collect();
    let mut gini = 0.0;
    for a in &shares {
        for b in &shares {
            gini += (a - b).abs();
        }
    }
    gini / (2.0 * k as f64)
}

fn run_variant(scale: Scale, name: &str, mutate: impl Fn(&mut AgentConfig)) -> AblationRow {
    let cfg: ExperimentConfig =
        scale.config(Task::Femnist, SelectorChoice::FedAvg, AccelMode::Rlhf);
    let mut exp = Experiment::new(cfg).expect("scaled config valid");
    // Rebuild the agent with the mutated configuration but the same seed
    // stream the runtime would have used.
    let mut agent_cfg = AgentConfig::rlhf(8);
    mutate(&mut agent_cfg);
    let agent = RlhfAgent::new(agent_cfg, split_seed(cfg.seed, 4));
    exp.replace_agent(agent);
    let (report, agent) = exp.run_capturing_agent();
    AblationRow {
        variant: name.to_string(),
        accuracy: report.accuracy.mean,
        successful: report.total_completions,
        dropped: report.total_dropouts,
        action_imbalance: action_imbalance(&agent),
    }
}

/// Run the ablation study at the given scale.
pub fn run(scale: Scale) -> Ablations {
    let rows = vec![
        run_variant(scale, "full-rlhf", |_| {}),
        run_variant(scale, "raw-accumulation", |c| c.raw_accumulation = true),
        run_variant(scale, "uniform-exploration", |c| {
            c.balanced_exploration = false;
        }),
        run_variant(scale, "fixed-lr", |c| c.dynamic_lr = false),
        run_variant(scale, "no-dropout-cache", |c| {
            c.dropout_feedback_cache = false;
        }),
    ];
    Ablations { rows }
}

impl Ablations {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.variant.clone(),
                    f(r.accuracy),
                    r.successful.to_string(),
                    r.dropped.to_string(),
                    f(r.action_imbalance),
                ]
            })
            .collect();
        format!(
            "Agent design-choice ablations (RQ6/RQ7)\n{}",
            table(
                &[
                    "variant",
                    "accuracy",
                    "successful",
                    "dropped",
                    "action-imbalance"
                ],
                &rows,
            )
        )
    }
}
