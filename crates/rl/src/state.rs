//! State discretization (paper Table 1).
//!
//! Continuous resource metrics are binned into five discrete levels; global
//! training parameters into three. Five bins per metric is the paper's
//! empirically chosen sweet spot (RQ5): fewer bins lose information and
//! slow convergence, more bins inflate exploration time for marginal gains.

use serde::{Deserialize, Serialize};

/// Five-level discretization of a resource-availability percentage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Level5 {
    /// 0 % available (CPU/MEM) or 1–20 % (network).
    L0,
    /// Low availability.
    L1,
    /// Moderate availability.
    L2,
    /// High availability.
    L3,
    /// Very/extremely high availability.
    L4,
}

impl Level5 {
    /// All levels in order.
    pub const ALL: [Level5; 5] = [Level5::L0, Level5::L1, Level5::L2, Level5::L3, Level5::L4];

    /// Discretize a CPU or memory availability fraction in `[0, 1]`
    /// (Table 1: None 0 %, Low 1–20 %, Moderate 21–40 %, High 41–60 %,
    /// Very High ≥ 61 %).
    fn from_compute_fraction(f: f64) -> Level5 {
        let pct = (f * 100.0).clamp(0.0, 100.0);
        if pct < 1.0 {
            Level5::L0
        } else if pct <= 20.0 {
            Level5::L1
        } else if pct <= 40.0 {
            Level5::L2
        } else if pct <= 60.0 {
            Level5::L3
        } else {
            Level5::L4
        }
    }

    /// Discretize a network availability fraction in `[0, 1]`
    /// (Table 1: Low 1–20 %, Moderate 21–40 %, High 41–60 %, Very High
    /// 61–80 %, Extremely High 81–100 %).
    fn from_network_fraction(f: f64) -> Level5 {
        let pct = (f * 100.0).clamp(0.0, 100.0);
        if pct <= 20.0 {
            Level5::L0
        } else if pct <= 40.0 {
            Level5::L1
        } else if pct <= 60.0 {
            Level5::L2
        } else if pct <= 80.0 {
            Level5::L3
        } else {
            Level5::L4
        }
    }

    /// Index in `0..5`.
    pub fn index(self) -> usize {
        match self {
            Level5::L0 => 0,
            Level5::L1 => 1,
            Level5::L2 => 2,
            Level5::L3 => 3,
            Level5::L4 => 4,
        }
    }
}

/// Three-level discretization of a global training parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Level3 {
    /// Small.
    Small,
    /// Medium.
    Medium,
    /// Large.
    Large,
}

/// Discretized global training parameters (Table 1, "Global Parameters").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GlobalState {
    /// Batch size: small < 8, medium 8–31, large ≥ 32.
    pub batch: Level3,
    /// Local epochs: small < 5, medium 5–9, large ≥ 10.
    pub epochs: Level3,
    /// Participants per round: small < 10, medium 10–49, large ≥ 50.
    pub participants: Level3,
}

impl GlobalState {
    /// Discretize raw global parameters.
    pub fn from_raw(batch_size: usize, local_epochs: usize, participants: usize) -> Self {
        let batch = if batch_size < 8 {
            Level3::Small
        } else if batch_size < 32 {
            Level3::Medium
        } else {
            Level3::Large
        };
        let epochs = if local_epochs < 5 {
            Level3::Small
        } else if local_epochs < 10 {
            Level3::Medium
        } else {
            Level3::Large
        };
        let parts = if participants < 10 {
            Level3::Small
        } else if participants < 50 {
            Level3::Medium
        } else {
            Level3::Large
        };
        GlobalState {
            batch,
            epochs,
            participants: parts,
        }
    }
}

/// Discretized per-client runtime state (Table 1, "Runtime Variance").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LocalState {
    /// Available CPU level.
    pub cpu: Level5,
    /// Available memory level.
    pub mem: Level5,
    /// Available network level.
    pub net: Level5,
}

impl LocalState {
    /// Discretize raw availability fractions.
    pub fn from_fractions(cpu: f64, mem: f64, net: f64) -> Self {
        LocalState {
            cpu: Level5::from_compute_fraction(cpu),
            mem: Level5::from_compute_fraction(mem),
            net: Level5::from_network_fraction(net),
        }
    }

    /// Number of distinct local states (the paper's "125 possible state
    /// combinations", Fig. 8).
    pub const COUNT: usize = 125;

    /// Dense index in `0..125`.
    pub fn index(self) -> usize {
        self.cpu.index() * 25 + self.mem.index() * 5 + self.net.index()
    }
}

/// Discretized deadline-difference human feedback (Table 1, "Human
/// Feedback"): how much more time than the round deadline the client
/// typically needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DeadlineLevel {
    /// Met the deadline (0 % overrun).
    None,
    /// < 10 % overrun.
    Low,
    /// < 20 % overrun.
    Moderate,
    /// < 30 % overrun.
    High,
    /// ≥ 30 % overrun.
    VeryHigh,
}

impl DeadlineLevel {
    /// All levels in order.
    pub const ALL: [DeadlineLevel; 5] = [
        DeadlineLevel::None,
        DeadlineLevel::Low,
        DeadlineLevel::Moderate,
        DeadlineLevel::High,
        DeadlineLevel::VeryHigh,
    ];

    /// Discretize a deadline-overrun fraction (`0.15` = missed by 15 %).
    pub fn from_overrun(overrun: f64) -> Self {
        if overrun <= 0.0 {
            DeadlineLevel::None
        } else if overrun < 0.10 {
            DeadlineLevel::Low
        } else if overrun < 0.20 {
            DeadlineLevel::Moderate
        } else if overrun < 0.30 {
            DeadlineLevel::High
        } else {
            DeadlineLevel::VeryHigh
        }
    }

    /// Index in `0..5`.
    pub fn index(self) -> usize {
        match self {
            DeadlineLevel::None => 0,
            DeadlineLevel::Low => 1,
            DeadlineLevel::Moderate => 2,
            DeadlineLevel::High => 3,
            DeadlineLevel::VeryHigh => 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_fraction_bins_match_table1() {
        assert_eq!(Level5::from_compute_fraction(0.0), Level5::L0);
        assert_eq!(Level5::from_compute_fraction(0.005), Level5::L0);
        assert_eq!(Level5::from_compute_fraction(0.10), Level5::L1);
        assert_eq!(Level5::from_compute_fraction(0.20), Level5::L1);
        assert_eq!(Level5::from_compute_fraction(0.30), Level5::L2);
        assert_eq!(Level5::from_compute_fraction(0.55), Level5::L3);
        assert_eq!(Level5::from_compute_fraction(0.70), Level5::L4);
        assert_eq!(Level5::from_compute_fraction(0.99), Level5::L4);
    }

    #[test]
    fn network_fraction_bins_match_table1() {
        assert_eq!(Level5::from_network_fraction(0.05), Level5::L0);
        assert_eq!(Level5::from_network_fraction(0.35), Level5::L1);
        assert_eq!(Level5::from_network_fraction(0.50), Level5::L2);
        assert_eq!(Level5::from_network_fraction(0.75), Level5::L3);
        assert_eq!(Level5::from_network_fraction(0.95), Level5::L4);
    }

    #[test]
    fn global_state_thresholds() {
        let g = GlobalState::from_raw(20, 5, 30);
        assert_eq!(g.batch, Level3::Medium);
        assert_eq!(g.epochs, Level3::Medium);
        assert_eq!(g.participants, Level3::Medium);
        let g = GlobalState::from_raw(4, 2, 5);
        assert_eq!(g.batch, Level3::Small);
        assert_eq!(g.epochs, Level3::Small);
        assert_eq!(g.participants, Level3::Small);
        let g = GlobalState::from_raw(64, 12, 100);
        assert_eq!(g.batch, Level3::Large);
        assert_eq!(g.epochs, Level3::Large);
        assert_eq!(g.participants, Level3::Large);
    }

    #[test]
    fn local_state_index_is_dense_bijection() {
        let mut seen = [false; LocalState::COUNT];
        for cpu in Level5::ALL {
            for mem in Level5::ALL {
                for net in Level5::ALL {
                    let s = LocalState { cpu, mem, net };
                    let i = s.index();
                    assert!(i < LocalState::COUNT);
                    assert!(!seen[i], "index collision at {i}");
                    seen[i] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn deadline_level_thresholds() {
        assert_eq!(DeadlineLevel::from_overrun(0.0), DeadlineLevel::None);
        assert_eq!(DeadlineLevel::from_overrun(0.05), DeadlineLevel::Low);
        assert_eq!(DeadlineLevel::from_overrun(0.15), DeadlineLevel::Moderate);
        assert_eq!(DeadlineLevel::from_overrun(0.25), DeadlineLevel::High);
        assert_eq!(DeadlineLevel::from_overrun(0.60), DeadlineLevel::VeryHigh);
    }
}
