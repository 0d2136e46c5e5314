//! The multi-objective Q-table.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::state::{DeadlineLevel, GlobalState, LocalState};

/// Key of one Q-table row: the full discretized state. The human-feedback
/// component is `None` when the agent runs in RL-only ablation mode
/// (FLOAT-RL vs FLOAT-RLHF, Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QKey {
    /// Global training parameters.
    pub global: GlobalState,
    /// Client runtime resource levels.
    pub local: LocalState,
    /// Human feedback (deadline difference), if enabled.
    pub hf: Option<DeadlineLevel>,
}

/// Per-action learned statistics: one moving-average Q value per objective
/// plus a visit counter for balanced exploration.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct QEntry {
    /// Moving-average participation-success objective, `[0, 1]`-ish.
    pub q_participation: f64,
    /// Moving-average accuracy-improvement objective.
    pub q_accuracy: f64,
    /// How many times this state-action pair has been updated.
    pub visits: u64,
}

impl QEntry {
    /// Scalarize the two objectives (paper Eq. 2): `w_p·P + w_a·Acc`.
    pub fn scalar(&self, w_participation: f64, w_accuracy: f64) -> f64 {
        w_participation * self.q_participation + w_accuracy * self.q_accuracy
    }
}

/// A tabular multi-objective Q function over `QKey × action-index`.
#[derive(Debug, Clone, Default)]
pub struct QTable {
    num_actions: usize,
    rows: HashMap<QKey, Vec<QEntry>>,
}

// JSON objects require string keys, so the table serializes as
// `(num_actions, Vec<(QKey, Vec<QEntry>)>)` pairs instead of a map.
impl Serialize for QTable {
    fn serialize(&self, w: &mut serde::Writer<'_>) {
        let mut pairs: Vec<(&QKey, &Vec<QEntry>)> = self.rows.iter().collect();
        // Stable output: sort by the dense local-state index then debug key.
        pairs.sort_by_key(|(k, _)| (k.local.index(), k.hf.map(|h| h.index())));
        (self.num_actions, pairs).serialize(w);
    }
}

impl Deserialize for QTable {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let (num_actions, pairs): (usize, Vec<(QKey, Vec<QEntry>)>) = Deserialize::from_value(v)?;
        if num_actions == 0 {
            return Err(serde::Error::custom("num_actions must be positive"));
        }
        let mut rows = HashMap::new();
        for (k, v) in pairs {
            if v.len() != num_actions {
                return Err(serde::Error::custom("row length mismatch"));
            }
            rows.insert(k, v);
        }
        Ok(QTable { num_actions, rows })
    }
}

impl QTable {
    /// Create an empty table for `num_actions` actions.
    ///
    /// # Panics
    ///
    /// Panics if `num_actions == 0`.
    pub fn new(num_actions: usize) -> Self {
        assert!(num_actions > 0, "need at least one action");
        QTable {
            num_actions,
            rows: HashMap::new(),
        }
    }

    /// Number of actions per row.
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    /// Number of materialized state rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Entries for a state, creating a zeroed row on first touch.
    pub fn row_mut(&mut self, key: QKey) -> &mut [QEntry] {
        let n = self.num_actions;
        self.rows
            .entry(key)
            .or_insert_with(|| vec![QEntry::default(); n])
    }

    /// Entries for a state if it has been visited.
    pub fn row(&self, key: &QKey) -> Option<&[QEntry]> {
        self.rows.get(key).map(Vec::as_slice)
    }

    /// Move one state-action pair toward an observed reward pair with
    /// learning rate `lr`: `Q ← Q + lr·(r − Q)` per objective, the same
    /// moving average for both (RQ6). There is no bootstrap term: the
    /// paper sets the discount to 0 because the next state is driven by
    /// random resource fluctuation, not by the chosen action, so the agent
    /// is a contextual bandit.
    ///
    /// # Panics
    ///
    /// Panics if `action` is out of range.
    pub fn update(&mut self, key: QKey, action: usize, participation: f64, accuracy: f64, lr: f64) {
        assert!(action < self.num_actions, "action {action} out of range");
        let entry = &mut self.row_mut(key)[action];
        entry.q_participation += lr * (participation - entry.q_participation);
        entry.q_accuracy += lr * (accuracy - entry.q_accuracy);
        entry.visits += 1;
    }

    /// The *naive accumulation* update the paper tried first and rejected
    /// (RQ6): `Q ← Q + lr·r`, rewards summed rather than averaged, so
    /// frequently explored actions accumulate inflated Q values simply by
    /// being visited more often. Kept for the ablation study.
    ///
    /// # Panics
    ///
    /// Panics if `action` is out of range.
    pub fn update_accumulate(
        &mut self,
        key: QKey,
        action: usize,
        participation: f64,
        accuracy: f64,
        lr: f64,
    ) {
        assert!(action < self.num_actions, "action {action} out of range");
        let entry = &mut self.row_mut(key)[action];
        entry.q_participation += lr * participation;
        entry.q_accuracy += lr * accuracy;
        entry.visits += 1;
    }

    /// The best (highest scalarized) action for a state, or `None` if the
    /// state has never been visited.
    ///
    /// A NaN Q value (e.g. a reward distilled from a quarantined round)
    /// is demoted below every finite value rather than silently winning
    /// or losing by comparator accident: `f64::total_cmp`'s total order
    /// ranks `+NaN` above `+∞`, and the old `partial_cmp(..).unwrap_or(
    /// Equal)` biased the pick toward whichever action happened to sit
    /// after the NaN. Ties break toward the highest index, matching the
    /// historical `max_by` behaviour on all-finite rows bit for bit.
    pub fn best_action(&self, key: &QKey, w_p: f64, w_a: f64) -> Option<usize> {
        let demoted = |e: &QEntry| {
            let s = e.scalar(w_p, w_a);
            if s.is_nan() {
                f64::NEG_INFINITY
            } else {
                s
            }
        };
        self.row(key).map(|row| {
            row.iter()
                .enumerate()
                .max_by(|a, b| demoted(a.1).total_cmp(&demoted(b.1)).then(a.0.cmp(&b.0)))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
    }

    /// Total visits across all rows (used by overhead benchmarks).
    pub fn total_visits(&self) -> u64 {
        self.rows
            .values()
            .flat_map(|r| r.iter())
            .map(|e| e.visits)
            .sum()
    }

    /// Estimated resident size in bytes: key + entries per row. Used for
    /// the Fig. 8 memory-overhead experiment.
    pub fn memory_bytes(&self) -> usize {
        let key_bytes = std::mem::size_of::<QKey>();
        let entry_bytes = std::mem::size_of::<QEntry>();
        self.rows.len() * (key_bytes + entry_bytes * self.num_actions)
    }

    /// Reset all visit counters (used when fine-tuning a pre-trained agent
    /// on a new workload so exploration re-balances without discarding
    /// learned values).
    pub fn reset_visits(&mut self) {
        for row in self.rows.values_mut() {
            for e in row {
                e.visits = 0;
            }
        }
    }

    /// Iterate over `(key, entries)` rows (read-only), for Q-table analysis
    /// (Fig. 10).
    pub fn iter_rows(&self) -> impl Iterator<Item = (&QKey, &[QEntry])> {
        self.rows.iter().map(|(k, v)| (k, v.as_slice()))
    }

    /// Serialize to JSON (Q-table persistence, artifact `load_Q.py`
    /// equivalent).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("QTable serialization cannot fail")
    }

    /// Deserialize from [`QTable::to_json`] output.
    ///
    /// Returns `None` on malformed input.
    pub fn from_json(s: &str) -> Option<Self> {
        serde_json::from_str(s).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{GlobalState, LocalState};

    fn key() -> QKey {
        QKey {
            global: GlobalState::from_raw(20, 5, 30),
            local: LocalState::from_fractions(0.5, 0.5, 0.5),
            hf: Some(DeadlineLevel::Low),
        }
    }

    #[test]
    fn update_moves_toward_reward() {
        let mut t = QTable::new(4);
        t.update(key(), 2, 1.0, 0.5, 0.5);
        let e = t.row(&key()).unwrap()[2];
        assert!((e.q_participation - 0.5).abs() < 1e-12);
        assert!((e.q_accuracy - 0.25).abs() < 1e-12);
        t.update(key(), 2, 1.0, 0.5, 0.5);
        let e = t.row(&key()).unwrap()[2];
        assert!((e.q_participation - 0.75).abs() < 1e-12);
        assert_eq!(e.visits, 2);
    }

    #[test]
    fn moving_average_is_bounded_by_rewards() {
        // Unlike naive accumulation, repeated updates with reward 1.0 can
        // never push Q beyond 1.0 (the RQ6 fix).
        let mut t = QTable::new(2);
        for _ in 0..1000 {
            t.update(key(), 0, 1.0, 1.0, 0.9);
        }
        let e = t.row(&key()).unwrap()[0];
        assert!(e.q_participation <= 1.0 + 1e-9);
    }

    #[test]
    fn best_action_uses_weights() {
        let mut t = QTable::new(2);
        // Action 0: great participation, no accuracy. Action 1: reverse.
        for _ in 0..20 {
            t.update(key(), 0, 1.0, 0.0, 0.5);
            t.update(key(), 1, 0.0, 1.0, 0.5);
        }
        assert_eq!(t.best_action(&key(), 1.0, 0.0), Some(0));
        assert_eq!(t.best_action(&key(), 0.0, 1.0), Some(1));
    }

    #[test]
    fn nan_q_value_never_wins_the_argmax() {
        let mut t = QTable::new(3);
        // Action 0 earns a solid finite value; action 2 is poisoned with a
        // NaN reward (as a quarantined round's feedback could produce).
        for _ in 0..10 {
            t.update(key(), 0, 0.8, 0.8, 0.5);
        }
        t.update(key(), 2, f64::NAN, f64::NAN, 0.5);
        assert_eq!(
            t.best_action(&key(), 0.5, 0.5),
            Some(0),
            "a NaN Q value must rank below every finite value"
        );
        // All-NaN rows degrade deterministically instead of depending on
        // comparator accidents: ties break toward the highest index.
        let mut t = QTable::new(2);
        t.update(key(), 0, f64::NAN, f64::NAN, 0.5);
        t.update(key(), 1, f64::NAN, f64::NAN, 0.5);
        assert_eq!(t.best_action(&key(), 0.5, 0.5), Some(1));
    }

    #[test]
    fn fresh_row_tiebreak_matches_historical_last_index() {
        // An all-zero (never-updated) row used to pick the last index via
        // `max_by` returning the final maximum; the explicit index
        // tiebreak must preserve that so pinned reports stay stable.
        let mut t = QTable::new(5);
        t.row_mut(key());
        assert_eq!(t.best_action(&key(), 0.5, 0.5), Some(4));
    }

    #[test]
    fn unvisited_state_has_no_best() {
        let t = QTable::new(3);
        assert_eq!(t.best_action(&key(), 0.5, 0.5), None);
    }

    #[test]
    fn memory_stays_small_at_paper_scale() {
        // 125 local states × 3^3 globals × 5 HF levels is the worst case;
        // even fully materialized it must stay below the paper's 0.2 MB.
        let mut t = QTable::new(8);
        for cpu in crate::state::Level5::ALL {
            for mem in crate::state::Level5::ALL {
                for net in crate::state::Level5::ALL {
                    for hf in DeadlineLevel::ALL {
                        let k = QKey {
                            global: GlobalState::from_raw(20, 5, 30),
                            local: LocalState { cpu, mem, net },
                            hf: Some(hf),
                        };
                        t.update(k, 0, 1.0, 0.0, 0.1);
                    }
                }
            }
        }
        assert_eq!(t.num_rows(), 625);
        assert!(
            t.memory_bytes() < 200_000,
            "Q-table uses {} bytes",
            t.memory_bytes()
        );
    }

    #[test]
    fn json_roundtrip() {
        let mut t = QTable::new(3);
        t.update(key(), 1, 0.7, 0.3, 0.5);
        let s = t.to_json();
        let back = QTable::from_json(&s).expect("roundtrip");
        assert_eq!(back.num_actions(), 3);
        assert_eq!(back.row(&key()).unwrap()[1], t.row(&key()).unwrap()[1]);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(QTable::from_json("not json").is_none());
        assert!(QTable::from_json("[0,[]]").is_none());
    }

    #[test]
    fn reset_visits_keeps_values() {
        let mut t = QTable::new(2);
        t.update(key(), 0, 1.0, 1.0, 0.5);
        t.reset_visits();
        let e = t.row(&key()).unwrap()[0];
        assert_eq!(e.visits, 0);
        assert!(e.q_participation > 0.0);
    }
}
