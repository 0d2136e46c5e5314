//! `float-rl` — the multi-objective Q-learning RLHF agent at the heart of
//! FLOAT.
//!
//! The agent observes a discretized state — global training parameters
//! (batch size, local epochs, participant count; Table 1), the client's
//! runtime resource variance (CPU / memory / network availability levels),
//! and a human-feedback signal (the client's typical deadline overrun) —
//! and picks one acceleration action per selected client per round. Two
//! objectives are tracked per state-action pair: participation success and
//! accuracy improvement, scalarized with configurable weights
//! (`R = w_p · P + w_a · Acc`, paper Eq. 2).
//!
//! Design points reproduced from the paper:
//!
//! - **Q-learning, not deep RL** (RQ2/RQ5): a small table over 125 runtime
//!   states × 8 actions, sub-millisecond updates, < 0.2 MB resident.
//! - **Discount 0** (RQ1): the next state is driven by random resource
//!   fluctuations, not by the chosen action, so the update has no
//!   future-value term: each Q value is a moving average of its reward.
//! - **Moving-average rewards** and a **dynamic learning rate** that grows
//!   with training progress, capped at 1.0 (RQ6).
//! - **Count-based balanced exploration** preferring lesser-explored
//!   actions (RQ6).
//! - **Human feedback embedded in the state** (RQ4) and **dropout feedback
//!   caching** that estimates rewards for clients whose feedback never
//!   arrived (RQ7).
//! - **Pre-train / fine-tune transfer** across workloads (RQ3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod binning;
pub mod explore;
pub mod qtable;
pub mod state;

pub use agent::{AgentConfig, DecisionTrace, RlhfAgent};
pub use qtable::{QEntry, QKey, QTable};
pub use state::{DeadlineLevel, GlobalState, Level5, LocalState};
