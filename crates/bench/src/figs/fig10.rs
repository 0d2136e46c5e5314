//! Figure 10 — fine-tuned Q-tables across resource scenarios.
//!
//! Fine-tunes the RLHF agent under three distinct conditions — (a) IID
//! data, (b) constrained compute, (c) an unstable network — and dumps the
//! learned per-action participation-success and accuracy-improvement
//! values, averaged over states. The paper's lessons this reproduces:
//! more aggressive actions raise participation success; with IID data the
//! accuracy objective stays comparatively flat; and under an unstable
//! network partial training shows the *worst* participation success of
//! the families because it does not shrink communication.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use float_accel::ActionCatalogue;
use float_core::{AccelMode, Experiment, SelectorChoice};
use float_data::Task;
use float_traces::InterferenceModel;

use crate::scale::Scale;
use crate::{f, table};

/// Per-action learned values in one scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActionValues {
    /// Action name.
    pub action: String,
    /// Mean participation-success Q value over visited states.
    pub participation: f64,
    /// Mean accuracy-improvement Q value over visited states.
    pub accuracy: f64,
    /// Total visits.
    pub visits: u64,
}

/// One scenario's fine-tuned Q-table summary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig10Scenario {
    /// Scenario name.
    pub scenario: String,
    /// Per-action values over all visited states, in catalogue order.
    pub actions: Vec<ActionValues>,
    /// Per-action values restricted to *network-constrained* states
    /// (net level ≤ L1). This is the matched comparison behind the
    /// Fig. 10c lesson: conditioning on the state removes the
    /// Simpson's-paradox effect of the agent routing aggressive actions
    /// into the hardest states.
    pub low_net_actions: Vec<ActionValues>,
}

/// Full Fig. 10 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig10 {
    /// The three scenarios.
    pub scenarios: Vec<Fig10Scenario>,
}

/// Run the Fig. 10 Q-table study at the given scale.
pub fn run(scale: Scale) -> Fig10 {
    let catalogue = ActionCatalogue::paper();
    let cases: Vec<(&str, InterferenceModel, Option<f64>)> = vec![
        ("iid-data", InterferenceModel::paper_dynamic(), None),
        (
            "constrained-compute",
            InterferenceModel::Static {
                cpu_reserved: 0.8,
                mem_reserved: 0.3,
                net_reserved: 0.1,
            },
            Some(0.1),
        ),
        (
            "unstable-network",
            InterferenceModel::unstable_network(),
            Some(0.1),
        ),
    ];
    let scenarios = cases
        .into_iter()
        .map(|(name, interference, alpha)| {
            let mut cfg = scale.config(Task::Femnist, SelectorChoice::FedAvg, AccelMode::Rlhf);
            cfg.interference = interference;
            cfg.alpha = alpha;
            let (_, agent) = Experiment::new(cfg)
                .expect("scaled config valid")
                .run_capturing_agent();
            // Aggregate Q values per action, overall and restricted to
            // network-constrained states.
            let mut sums: HashMap<usize, (f64, f64, u64, u64)> = HashMap::new();
            let mut low_net: HashMap<usize, (f64, f64, u64, u64)> = HashMap::new();
            for (key, entries) in agent.table().iter_rows() {
                let constrained_net = key.local.net.index() <= 1;
                for (i, e) in entries.iter().enumerate() {
                    if e.visits == 0 {
                        continue;
                    }
                    let s = sums.entry(i).or_default();
                    s.0 += e.q_participation;
                    s.1 += e.q_accuracy;
                    s.2 += 1;
                    s.3 += e.visits;
                    if constrained_net {
                        let s = low_net.entry(i).or_default();
                        s.0 += e.q_participation * e.visits as f64;
                        s.1 += e.q_accuracy * e.visits as f64;
                        s.2 += e.visits;
                        s.3 += e.visits;
                    }
                }
            }
            let collect = |m: &HashMap<usize, (f64, f64, u64, u64)>| -> Vec<ActionValues> {
                (0..catalogue.len())
                    .map(|i| {
                        let (p, a, n, v) = m.get(&i).copied().unwrap_or_default();
                        let n = n.max(1) as f64;
                        ActionValues {
                            action: catalogue.action(i).name().to_string(),
                            participation: p / n,
                            accuracy: a / n,
                            visits: v,
                        }
                    })
                    .collect()
            };
            Fig10Scenario {
                scenario: name.to_string(),
                actions: collect(&sums),
                low_net_actions: collect(&low_net),
            }
        })
        .collect();
    Fig10 { scenarios }
}

impl Fig10 {
    /// Visit-weighted mean participation success of a technique family
    /// restricted to network-constrained states — the matched comparison
    /// for the Fig. 10c claim.
    pub fn family_participation_low_net(&self, scenario: &str, family: &str) -> Option<f64> {
        let sc = self.scenarios.iter().find(|s| s.scenario == scenario)?;
        Self::family_mean(&sc.low_net_actions, family)
    }

    fn family_mean(actions: &[ActionValues], family: &str) -> Option<f64> {
        let mut num = 0.0;
        let mut den = 0.0;
        for a in actions.iter().filter(|a| a.action.starts_with(family)) {
            num += a.participation * a.visits as f64;
            den += a.visits as f64;
        }
        if den == 0.0 {
            None
        } else {
            Some(num / den)
        }
    }

    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let mut out = String::from("Figure 10 — fine-tuned Q-tables across resource scenarios\n");
        for sc in &self.scenarios {
            let rows: Vec<Vec<String>> = sc
                .actions
                .iter()
                .map(|a| {
                    vec![
                        a.action.clone(),
                        f(a.participation),
                        f(a.accuracy),
                        a.visits.to_string(),
                    ]
                })
                .collect();
            out.push_str(&format!(
                "\nScenario: {}\n{}",
                sc.scenario,
                table(
                    &["action", "participation-Q", "accuracy-Q", "visits"],
                    &rows
                )
            ));
        }
        out
    }
}
