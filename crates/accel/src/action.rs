//! The acceleration action space.

use serde::{Deserialize, Serialize};

/// One acceleration action the RLHF agent can apply to a client's round.
///
/// The paper's catalogue is eight actions: two quantization levels, three
/// pruning ratios, and three partial-training ratios. [`AccelAction::NoOp`]
/// and the compression actions are extensions available through
/// [`ActionCatalogue::extended`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccelAction {
    /// No acceleration — vanilla local round.
    NoOp,
    /// Quantize the model update to 16 bits.
    Quantize16,
    /// Quantize the model update to 8 bits.
    Quantize8,
    /// Magnitude-prune 25 % of parameters.
    Prune25,
    /// Magnitude-prune 50 % of parameters.
    Prune50,
    /// Magnitude-prune 75 % of parameters.
    Prune75,
    /// Freeze 25 % of parameters during local training.
    Partial25,
    /// Freeze 50 % of parameters during local training.
    Partial50,
    /// Freeze 75 % of parameters during local training.
    Partial75,
    /// Lossless byte-level compression of the fp32 update.
    CompressLossless,
    /// Lossy top-k sparsification keeping 10 % of coordinates.
    TopK10,
}

impl AccelAction {
    /// Short identifier used in logs and figures.
    pub fn name(self) -> &'static str {
        match self {
            AccelAction::NoOp => "noop",
            AccelAction::Quantize16 => "quant16",
            AccelAction::Quantize8 => "quant8",
            AccelAction::Prune25 => "prune25",
            AccelAction::Prune50 => "prune50",
            AccelAction::Prune75 => "prune75",
            AccelAction::Partial25 => "partial25",
            AccelAction::Partial50 => "partial50",
            AccelAction::Partial75 => "partial75",
            AccelAction::CompressLossless => "compress",
            AccelAction::TopK10 => "topk10",
        }
    }

    /// Aggressiveness in `[0, 1]`: how hard the action cuts resource usage
    /// (and, typically, how much accuracy it risks). Used by the heuristic
    /// baseline and by tests.
    pub fn aggressiveness(self) -> f64 {
        match self {
            AccelAction::NoOp => 0.0,
            AccelAction::CompressLossless => 0.1,
            AccelAction::Quantize16 => 0.25,
            AccelAction::Prune25 | AccelAction::Partial25 => 0.25,
            AccelAction::Prune50 | AccelAction::Partial50 => 0.5,
            AccelAction::Quantize8 => 0.6,
            AccelAction::Prune75 | AccelAction::Partial75 => 0.75,
            AccelAction::TopK10 => 0.9,
        }
    }
}

/// An ordered action catalogue (the RL agent indexes actions by position).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActionCatalogue {
    actions: Vec<AccelAction>,
}

impl ActionCatalogue {
    /// The paper's eight-action catalogue (Fig. 8: "8 actions").
    pub fn paper() -> Self {
        ActionCatalogue {
            actions: vec![
                AccelAction::Quantize16,
                AccelAction::Quantize8,
                AccelAction::Prune25,
                AccelAction::Prune50,
                AccelAction::Prune75,
                AccelAction::Partial25,
                AccelAction::Partial50,
                AccelAction::Partial75,
            ],
        }
    }

    /// Extended catalogue including no-op and compression actions
    /// (the paper's "adding new acceleration techniques" discussion, RQ5).
    pub fn extended() -> Self {
        ActionCatalogue {
            actions: vec![
                AccelAction::NoOp,
                AccelAction::Quantize16,
                AccelAction::Quantize8,
                AccelAction::Prune25,
                AccelAction::Prune50,
                AccelAction::Prune75,
                AccelAction::Partial25,
                AccelAction::Partial50,
                AccelAction::Partial75,
                AccelAction::CompressLossless,
                AccelAction::TopK10,
            ],
        }
    }

    /// Number of actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the catalogue is empty (never true for the constructors).
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Action at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn action(&self, index: usize) -> AccelAction {
        self.actions[index]
    }

    /// Index of `action`, if present.
    pub fn index_of(&self, action: AccelAction) -> Option<usize> {
        self.actions.iter().position(|&a| a == action)
    }

    /// Iterate over actions in index order.
    pub fn iter(&self) -> impl Iterator<Item = AccelAction> + '_ {
        self.actions.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_catalogue_has_eight_actions() {
        assert_eq!(ActionCatalogue::paper().len(), 8);
    }

    #[test]
    fn extended_superset_of_paper() {
        let ext = ActionCatalogue::extended();
        for a in ActionCatalogue::paper().iter() {
            assert!(ext.index_of(a).is_some(), "{} missing", a.name());
        }
    }

    #[test]
    fn index_roundtrip() {
        let cat = ActionCatalogue::paper();
        for i in 0..cat.len() {
            assert_eq!(cat.index_of(cat.action(i)), Some(i));
        }
    }

    #[test]
    fn names_are_unique() {
        let cat = ActionCatalogue::extended();
        let mut names: Vec<_> = cat.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cat.len());
    }

    #[test]
    fn aggressiveness_orders_prune_levels() {
        assert!(AccelAction::Prune75.aggressiveness() > AccelAction::Prune25.aggressiveness());
        assert!(AccelAction::Quantize8.aggressiveness() > AccelAction::Quantize16.aggressiveness());
    }
}
