//! The RLHF agent: action selection, reward feedback, dropout feedback
//! caching, dynamic learning rate, and transfer (pre-train / fine-tune).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use float_tensor::rng::{seed_rng, split_seed};

use crate::explore::{balanced_explore, epsilon, uniform_explore};
use crate::qtable::{QKey, QTable};
use crate::state::{DeadlineLevel, GlobalState, LocalState};

/// Learning rate used when [`AgentConfig::dynamic_lr`] is off.
const FIXED_LR: f64 = 0.3;

/// Configuration of the RLHF agent: the objective weights and the
/// on/off switches the ablations flip. The discount on future value is
/// fixed at 0 (the paper's RQ1: the next state is driven by random
/// resource fluctuation, not by the chosen action), so each update is a
/// moving average of the observed reward with no bootstrap term. The
/// fixed learning rate (0.3) and the exploration schedule (ε from 0.30
/// down to 0.05) are constants too. Agent JSON written while they were
/// fields still loads: unknown keys are skipped.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AgentConfig {
    /// Number of acceleration actions the agent chooses among.
    pub num_actions: usize,
    /// Weight of the participation-success objective (paper Eq. 2 `w_p`).
    pub w_participation: f64,
    /// Weight of the accuracy-improvement objective (paper Eq. 2 `w_a`).
    pub w_accuracy: f64,
    /// Whether human feedback (deadline difference) is part of the state —
    /// `false` gives the FLOAT-RL ablation of Fig. 11.
    pub use_human_feedback: bool,
    /// Whether exploration is count-balanced (`true`, RQ6) or uniform.
    pub balanced_exploration: bool,
    /// Whether to use the dynamic (progress-scaled) learning rate (RQ6);
    /// `false` uses a fixed rate of 0.3 throughout.
    pub dynamic_lr: bool,
    /// Whether to estimate rewards for dropped-out clients from cached
    /// feedback of similar clients (RQ7).
    pub dropout_feedback_cache: bool,
    /// Use the naive reward-accumulation update instead of moving
    /// averages — the scheme the paper rejected in RQ6. For ablations.
    pub raw_accumulation: bool,
}

impl AgentConfig {
    /// Full-featured FLOAT-RLHF configuration with `num_actions` actions.
    pub fn rlhf(num_actions: usize) -> Self {
        AgentConfig {
            num_actions,
            w_participation: 0.5,
            w_accuracy: 0.5,
            use_human_feedback: true,
            balanced_exploration: true,
            dynamic_lr: true,
            dropout_feedback_cache: true,
            raw_accumulation: false,
        }
    }

    /// The FLOAT-RL ablation: identical but blind to human feedback.
    pub fn rl_only(num_actions: usize) -> Self {
        AgentConfig {
            use_human_feedback: false,
            ..AgentConfig::rlhf(num_actions)
        }
    }
}

/// Cached reward observation used to synthesize feedback for dropped
/// clients (RQ7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct CachedFeedback {
    participation: f64,
    accuracy: f64,
}

/// Provenance of one [`RlhfAgent::choose_action_traced`] decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecisionTrace {
    /// Index of the chosen action in the catalogue.
    pub action: usize,
    /// Scalarized Q-value of the chosen action at decision time (0 for a
    /// never-visited entry).
    pub q_value: f64,
    /// Whether the choice came from an exploration draw — the ε-greedy
    /// branch or the never-seen-state fallback — rather than greedy
    /// argmax.
    pub explored: bool,
}

/// The multi-objective Q-learning RLHF agent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RlhfAgent {
    config: AgentConfig,
    table: QTable,
    /// Feedback cache keyed by (state, action) from *similar* clients —
    /// same discretized state means "similar" under Table 1. Ephemeral:
    /// not persisted, since persistence captures the learned policy.
    #[serde(skip)]
    cache: HashMap<(QKey, usize), CachedFeedback>,
    /// Per-client last accuracy improvement, used when synthesizing
    /// dropout feedback ("the dropped client's past improvements").
    #[serde(skip)]
    client_last_acc: HashMap<usize, f64>,
    seed: u64,
    decisions: u64,
}

impl RlhfAgent {
    /// Create a fresh agent.
    ///
    /// # Panics
    ///
    /// Panics if `config.num_actions == 0`.
    pub fn new(config: AgentConfig, seed: u64) -> Self {
        RlhfAgent {
            table: QTable::new(config.num_actions),
            config,
            cache: HashMap::new(),
            client_last_acc: HashMap::new(),
            seed,
            decisions: 0,
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &AgentConfig {
        &self.config
    }

    /// Read access to the learned Q-table (Fig. 10 analysis).
    pub fn table(&self) -> &QTable {
        &self.table
    }

    /// Build the Q-table key for a state, honoring the human-feedback
    /// ablation switch.
    fn key(&self, global: GlobalState, local: LocalState, hf: DeadlineLevel) -> QKey {
        QKey {
            global,
            local,
            hf: if self.config.use_human_feedback {
                Some(hf)
            } else {
                None
            },
        }
    }

    /// Dynamic learning rate: grows with training progress and is capped
    /// at 1.0 (paper RQ6 / Algorithm 1). Early rounds see large accuracy
    /// jumps, so a small early rate stops them from dominating the moving
    /// averages.
    fn learning_rate(&self, round: usize, total_rounds: usize) -> f64 {
        if !self.config.dynamic_lr {
            return FIXED_LR;
        }
        if total_rounds == 0 {
            return 1.0;
        }
        (((round + 1) as f64) / total_rounds as f64).clamp(0.05, 1.0)
    }

    /// Choose an acceleration action for a client in the given state at
    /// `round` of `total_rounds`. Deterministic in `(agent seed, decision
    /// counter)`.
    pub fn choose_action(
        &mut self,
        global: GlobalState,
        local: LocalState,
        hf: DeadlineLevel,
        round: usize,
        total_rounds: usize,
    ) -> usize {
        self.choose_action_traced(global, local, hf, round, total_rounds)
            .action
    }

    /// [`RlhfAgent::choose_action`] with the decision's provenance
    /// attached (telemetry). This *is* the decision path — the plain
    /// `choose_action` delegates here — so tracing consumes exactly the
    /// same RNG stream as not tracing, and enabling telemetry can never
    /// shift the policy.
    pub fn choose_action_traced(
        &mut self,
        global: GlobalState,
        local: LocalState,
        hf: DeadlineLevel,
        round: usize,
        total_rounds: usize,
    ) -> DecisionTrace {
        let key = self.key(global, local, hf);
        self.decisions += 1;
        let mut rng = seed_rng(split_seed(self.seed, self.decisions));
        use rand::Rng;
        let eps = epsilon(round, total_rounds);
        let explore = rng.gen::<f64>() < eps;
        let (action, explored) = if explore {
            if self.config.balanced_exploration {
                let row = self.table.row_mut(key).to_vec();
                (balanced_explore(&row, &mut rng), true)
            } else {
                (uniform_explore(self.config.num_actions, &mut rng), true)
            }
        } else {
            match self
                .table
                .best_action(&key, self.config.w_participation, self.config.w_accuracy)
            {
                Some(a) => (a, false),
                // Never-seen state: fall back to balanced exploration.
                None => {
                    let row = self.table.row_mut(key).to_vec();
                    (balanced_explore(&row, &mut rng), true)
                }
            }
        };
        // Every branch above touched the row, so it exists by now.
        let q_value = self.table.row(&key).map_or(0.0, |row| {
            row[action].scalar(self.config.w_participation, self.config.w_accuracy)
        });
        DecisionTrace {
            action,
            q_value,
            explored,
        }
    }

    /// Feed back the outcome of an action taken for `client`:
    /// `participation` is 1.0 on round completion and 0.0 on dropout;
    /// `accuracy_improvement` is the client's accuracy delta (already a
    /// moving-average-friendly bounded quantity).
    #[allow(clippy::too_many_arguments)]
    pub fn feedback(
        &mut self,
        client: usize,
        global: GlobalState,
        local: LocalState,
        hf: DeadlineLevel,
        action: usize,
        participation: f64,
        accuracy_improvement: f64,
        round: usize,
        total_rounds: usize,
    ) {
        let key = self.key(global, local, hf);
        let lr = self.learning_rate(round, total_rounds);
        if self.config.raw_accumulation {
            self.table
                .update_accumulate(key, action, participation, accuracy_improvement, lr);
        } else {
            self.table
                .update(key, action, participation, accuracy_improvement, lr);
        }
        self.cache.insert(
            (key, action),
            CachedFeedback {
                participation,
                accuracy: accuracy_improvement,
            },
        );
        self.client_last_acc.insert(client, accuracy_improvement);
    }

    /// Feed back for a client that dropped out and produced no accuracy
    /// signal (RQ7): participation is 0, and the accuracy objective is
    /// estimated from cached feedback of similar clients blended with this
    /// client's own past improvement.
    #[allow(clippy::too_many_arguments)]
    pub fn feedback_dropout(
        &mut self,
        client: usize,
        global: GlobalState,
        local: LocalState,
        hf: DeadlineLevel,
        action: usize,
        round: usize,
        total_rounds: usize,
    ) {
        let key = self.key(global, local, hf);
        let estimated_acc = if self.config.dropout_feedback_cache {
            let similar = self.cache.get(&(key, action)).map(|c| c.accuracy);
            let own = self.client_last_acc.get(&client).copied();
            match (similar, own) {
                (Some(s), Some(o)) => 0.5 * s + 0.5 * o,
                (Some(s), None) => s,
                (None, Some(o)) => o,
                (None, None) => 0.0,
            }
        } else {
            0.0
        };
        let lr = self.learning_rate(round, total_rounds);
        self.table.update(key, action, 0.0, estimated_acc, lr);
    }

    /// Resident memory estimate in bytes (Fig. 8).
    pub fn memory_bytes(&self) -> usize {
        self.table.memory_bytes()
    }

    /// Transfer this agent to a new workload (RQ3): keep learned Q values,
    /// reset visit counts so exploration re-balances, and replace the
    /// decision stream seed.
    pub fn begin_fine_tune(&mut self, new_seed: u64) {
        self.table.reset_visits();
        self.seed = new_seed;
        self.decisions = 0;
        self.cache.clear();
        self.client_last_acc.clear();
    }

    /// Serialize the full agent state to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("agent serialization cannot fail")
    }

    /// Restore an agent from [`RlhfAgent::to_json`] output.
    pub fn from_json(s: &str) -> Option<Self> {
        serde_json::from_str(s).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qtable::QEntry;

    fn gstate() -> GlobalState {
        GlobalState::from_raw(20, 5, 30)
    }

    fn constrained() -> LocalState {
        LocalState::from_fractions(0.1, 0.3, 0.1)
    }

    fn rich() -> LocalState {
        LocalState::from_fractions(0.9, 0.9, 0.9)
    }

    /// Simulated environment: aggressive actions succeed on constrained
    /// clients; gentle actions keep accuracy on rich clients.
    fn env_reward(local: LocalState, action: usize) -> (f64, f64) {
        let constrained = local.cpu.index() <= 1;
        if constrained {
            // Actions 6..8 are "aggressive": they succeed.
            if action >= 6 {
                (1.0, 0.6)
            } else {
                (0.0, 0.0)
            }
        } else {
            // Everything succeeds; gentle actions preserve accuracy.
            if action < 2 {
                (1.0, 1.0)
            } else {
                (1.0, 0.4)
            }
        }
    }

    fn train_agent(config: AgentConfig, rounds: usize) -> RlhfAgent {
        let mut agent = RlhfAgent::new(config, 42);
        for round in 0..rounds {
            for client in 0..20usize {
                let local = if client % 2 == 0 {
                    constrained()
                } else {
                    rich()
                };
                let a = agent.choose_action(gstate(), local, DeadlineLevel::None, round, rounds);
                let (p, acc) = env_reward(local, a);
                agent.feedback(
                    client,
                    gstate(),
                    local,
                    DeadlineLevel::None,
                    a,
                    p,
                    acc,
                    round,
                    rounds,
                );
            }
        }
        agent
    }

    #[test]
    fn agent_learns_state_dependent_policy() {
        let agent = train_agent(AgentConfig::rlhf(8), 150);
        let kc = agent.key(gstate(), constrained(), DeadlineLevel::None);
        let kr = agent.key(gstate(), rich(), DeadlineLevel::None);
        let best_c = agent.table().best_action(&kc, 0.5, 0.5).expect("visited");
        let best_r = agent.table().best_action(&kr, 0.5, 0.5).expect("visited");
        assert!(
            best_c >= 6,
            "constrained best action {best_c}, want aggressive"
        );
        assert!(best_r < 2, "rich best action {best_r}, want gentle");
    }

    #[test]
    fn choices_are_deterministic_per_seed() {
        let mut a = RlhfAgent::new(AgentConfig::rlhf(8), 7);
        let mut b = RlhfAgent::new(AgentConfig::rlhf(8), 7);
        for r in 0..30 {
            assert_eq!(
                a.choose_action(gstate(), constrained(), DeadlineLevel::Low, r, 30),
                b.choose_action(gstate(), constrained(), DeadlineLevel::Low, r, 30)
            );
        }
    }

    #[test]
    fn traced_and_plain_choices_share_one_rng_stream() {
        // Alternating traced and untraced calls across two agents with the
        // same seed must yield the same action sequence: tracing is a
        // read-only view, not a second decision path.
        let mut plain = RlhfAgent::new(AgentConfig::rlhf(8), 11);
        let mut traced = RlhfAgent::new(AgentConfig::rlhf(8), 11);
        for r in 0..40 {
            let a = plain.choose_action(gstate(), constrained(), DeadlineLevel::Low, r, 40);
            let t = traced.choose_action_traced(gstate(), constrained(), DeadlineLevel::Low, r, 40);
            assert_eq!(a, t.action, "round {r}");
            assert!(t.q_value.is_finite());
            if !t.explored {
                // Greedy choices must carry the row's best scalarized value.
                let key = traced.key(gstate(), constrained(), DeadlineLevel::Low);
                let row = traced.table().row(&key).expect("row exists");
                let best = row
                    .iter()
                    .map(|e| e.scalar(0.5, 0.5))
                    .fold(f64::NEG_INFINITY, f64::max);
                assert!((t.q_value - best).abs() < 1e-12);
            }
            let (p, acc) = env_reward(constrained(), a);
            plain.feedback(
                0,
                gstate(),
                constrained(),
                DeadlineLevel::Low,
                a,
                p,
                acc,
                r,
                40,
            );
            traced.feedback(
                0,
                gstate(),
                constrained(),
                DeadlineLevel::Low,
                a,
                p,
                acc,
                r,
                40,
            );
        }
    }

    #[test]
    fn rl_only_ignores_hf_in_key() {
        let agent = RlhfAgent::new(AgentConfig::rl_only(8), 1);
        let k1 = agent.key(gstate(), rich(), DeadlineLevel::None);
        let k2 = agent.key(gstate(), rich(), DeadlineLevel::VeryHigh);
        assert_eq!(k1, k2);
        let rlhf = RlhfAgent::new(AgentConfig::rlhf(8), 1);
        assert_ne!(
            rlhf.key(gstate(), rich(), DeadlineLevel::None),
            rlhf.key(gstate(), rich(), DeadlineLevel::VeryHigh)
        );
    }

    #[test]
    fn dynamic_lr_grows_and_caps() {
        let agent = RlhfAgent::new(AgentConfig::rlhf(8), 1);
        let early = agent.learning_rate(0, 300);
        let late = agent.learning_rate(299, 300);
        assert!(early < late);
        assert!(late <= 1.0);
        assert!(agent.learning_rate(1000, 300) <= 1.0);
    }

    #[test]
    fn fixed_lr_is_constant() {
        let mut cfg = AgentConfig::rlhf(8);
        cfg.dynamic_lr = false;
        let agent = RlhfAgent::new(cfg, 1);
        assert_eq!(agent.learning_rate(0, 300), agent.learning_rate(299, 300));
    }

    /// With the discount at 0 each Q value is a moving average of its own
    /// rewards. From Q = 0, rewards r_1..r_T taken at rates a_1..a_T leave
    /// Q_T = Σ_t a_t·r_t·Π_{s>t}(1 − a_s), for each objective on its own;
    /// the raw-accumulation ablation leaves Q_T = Σ_t a_t·r_t. A
    /// hand-written reward stream goes through `feedback` under both
    /// learning-rate schedules (spelled out here, not read from the agent)
    /// and both update rules, and each entry is held to its expanded sum
    /// in f64. The rounds reach neither the rate's cap nor 1.0, so no
    /// reward is forgotten outright.
    #[test]
    fn q_values_match_their_expanded_sums() {
        const TOTAL: usize = 200;
        let rounds = [0, 3, 9, 10, 24, 40, 41, 63, 77, 98, 120, 150];
        let participation = [1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0];
        let accuracy = [
            0.12, -0.03, 0.4, 0.07, 0.0, 0.25, -0.1, 0.33, 0.05, 0.18, 0.02, 0.6,
        ];
        let (local, hf, action) = (constrained(), DeadlineLevel::Low, 2);
        for dynamic_lr in [true, false] {
            for raw_accumulation in [false, true] {
                let config = AgentConfig {
                    dynamic_lr,
                    raw_accumulation,
                    ..AgentConfig::rlhf(4)
                };
                let mut agent = RlhfAgent::new(config, 3);
                for (t, &round) in rounds.iter().enumerate() {
                    let (p, acc) = (participation[t], accuracy[t]);
                    agent.feedback(t, gstate(), local, hf, action, p, acc, round, TOTAL);
                }
                let rates: Vec<f64> = rounds
                    .iter()
                    .map(|&r| {
                        if dynamic_lr {
                            ((r + 1) as f64 / TOTAL as f64).max(0.05)
                        } else {
                            0.3
                        }
                    })
                    .collect();
                let expanded = |rewards: &[f64]| -> f64 {
                    (0..rewards.len())
                        .map(|t| {
                            let kept: f64 = if raw_accumulation {
                                1.0
                            } else {
                                rates[t + 1..].iter().map(|a| 1.0 - a).product()
                            };
                            rates[t] * rewards[t] * kept
                        })
                        .sum()
                };
                let key = agent.key(gstate(), local, hf);
                let row = agent.table().row(&key).expect("visited");
                let label = format!("dynamic_lr {dynamic_lr} raw {raw_accumulation}");
                let (want_p, want_a) = (expanded(&participation), expanded(&accuracy));
                assert!(
                    (row[action].q_participation - want_p).abs() < 1e-12,
                    "{label}: participation {} vs {want_p}",
                    row[action].q_participation
                );
                assert!(
                    (row[action].q_accuracy - want_a).abs() < 1e-12,
                    "{label}: accuracy {} vs {want_a}",
                    row[action].q_accuracy
                );
                assert_eq!(row[action].visits, rounds.len() as u64, "{label}");
                for (a, e) in row.iter().enumerate().filter(|&(a, _)| a != action) {
                    assert_eq!(*e, QEntry::default(), "{label}: action {a} moved");
                }
            }
        }
    }

    #[test]
    fn dropout_feedback_uses_cache() {
        let mut agent = RlhfAgent::new(AgentConfig::rlhf(8), 3);
        // Seed the cache: a similar client succeeded with action 4.
        agent.feedback(
            0,
            gstate(),
            constrained(),
            DeadlineLevel::High,
            4,
            1.0,
            0.8,
            10,
            300,
        );
        // A different client drops out with the same state/action.
        agent.feedback_dropout(1, gstate(), constrained(), DeadlineLevel::High, 4, 11, 300);
        let key = agent.key(gstate(), constrained(), DeadlineLevel::High);
        let e = agent.table().row(&key).expect("row")[4];
        assert_eq!(e.visits, 2);
        // Accuracy objective stayed positive thanks to the cached estimate.
        assert!(e.q_accuracy > 0.0);
        // Participation objective dropped from the failure.
        assert!(e.q_participation < 1.0);
    }

    #[test]
    fn dropout_feedback_without_cache_zeroes_accuracy() {
        let mut cfg = AgentConfig::rlhf(8);
        cfg.dropout_feedback_cache = false;
        let mut agent = RlhfAgent::new(cfg, 3);
        agent.feedback_dropout(1, gstate(), constrained(), DeadlineLevel::High, 4, 0, 300);
        let key = agent.key(gstate(), constrained(), DeadlineLevel::High);
        let e = agent.table().row(&key).expect("row")[4];
        assert_eq!(e.q_accuracy, 0.0);
    }

    #[test]
    fn fine_tune_keeps_policy_resets_exploration() {
        let mut agent = train_agent(AgentConfig::rlhf(8), 100);
        let kc = agent.key(gstate(), constrained(), DeadlineLevel::None);
        let best_before = agent.table().best_action(&kc, 0.5, 0.5);
        agent.begin_fine_tune(999);
        assert_eq!(agent.table().best_action(&kc, 0.5, 0.5), best_before);
        assert_eq!(agent.table().total_visits(), 0);
    }

    #[test]
    fn fine_tuning_converges_faster_than_fresh_training() {
        // Pre-train on the environment, then measure how much reward a
        // fine-tuned vs fresh agent collects in a short window (Fig. 9).
        let mut pretrained = train_agent(AgentConfig::rlhf(8), 150);
        pretrained.begin_fine_tune(1234);
        let mut fresh = RlhfAgent::new(AgentConfig::rlhf(8), 1234);
        let collect = |agent: &mut RlhfAgent| -> f64 {
            let mut total = 0.0;
            for round in 0..5 {
                for client in 0..20usize {
                    let local = if client % 2 == 0 {
                        constrained()
                    } else {
                        rich()
                    };
                    let a = agent.choose_action(gstate(), local, DeadlineLevel::None, round, 20);
                    let (p, acc) = env_reward(local, a);
                    total += 0.5 * p + 0.5 * acc;
                    agent.feedback(
                        client,
                        gstate(),
                        local,
                        DeadlineLevel::None,
                        a,
                        p,
                        acc,
                        round,
                        20,
                    );
                }
            }
            total
        };
        let r_pre = collect(&mut pretrained);
        let r_fresh = collect(&mut fresh);
        assert!(
            r_pre > r_fresh * 1.05,
            "fine-tuned reward {r_pre} not clearly above fresh {r_fresh}"
        );
    }

    #[test]
    fn json_roundtrip_preserves_policy() {
        let agent = train_agent(AgentConfig::rlhf(8), 60);
        let s = agent.to_json();
        let back = RlhfAgent::from_json(&s).expect("roundtrip");
        let kc = agent.key(gstate(), constrained(), DeadlineLevel::None);
        assert_eq!(
            back.table().best_action(&kc, 0.5, 0.5),
            agent.table().best_action(&kc, 0.5, 0.5)
        );
    }

    /// Agent JSON written while the discount, the fixed learning rate and
    /// the exploration schedule were config fields still loads, and the
    /// restored agent decides exactly as the one that wrote it.
    #[test]
    fn legacy_json_with_removed_config_keys_loads_and_decides_identically() {
        let mut agent = train_agent(AgentConfig::rlhf(8), 40);
        let json = agent.to_json();
        let legacy = json.replacen(
            "\"config\":{",
            r#""config":{"discount":0.0,"fixed_lr":0.3,"epsilon":{"start":0.3,"end":0.05},"#,
            1,
        );
        assert_ne!(legacy, json, "config object not found");
        let mut back = RlhfAgent::from_json(&legacy).expect("legacy agent JSON loads");
        assert_eq!(back.config(), agent.config());
        for round in 0..30 {
            for client in 0..6usize {
                let local = if client % 2 == 0 {
                    constrained()
                } else {
                    rich()
                };
                let hf = DeadlineLevel::ALL[client % DeadlineLevel::ALL.len()];
                let a = agent.choose_action(gstate(), local, hf, round, 30);
                assert_eq!(back.choose_action(gstate(), local, hf, round, 30), a);
                let (p, acc) = env_reward(local, a);
                agent.feedback(client, gstate(), local, hf, a, p, acc, round, 30);
                back.feedback(client, gstate(), local, hf, a, p, acc, round, 30);
            }
        }
        assert_eq!(back.to_json(), agent.to_json());
    }

    #[test]
    fn memory_stays_under_paper_bound_during_training() {
        let agent = train_agent(AgentConfig::rlhf(8), 100);
        assert!(
            agent.memory_bytes() < 200_000,
            "agent uses {} bytes",
            agent.memory_bytes()
        );
    }
}
