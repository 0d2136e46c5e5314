//! `float-select` — client-selection algorithms and the heuristic
//! acceleration baseline.
//!
//! The paper compares FLOAT against four client-selection strategies and a
//! rule-based acceleration heuristic:
//!
//! - [`FedAvgSelector`] — uniform random selection (McMahan et al.).
//! - [`OortSelector`] — guided participant selection combining statistical
//!   utility with a system-speed penalty (Lai et al., OSDI '21).
//! - [`ReflSelector`] — availability-window prediction preferring clients
//!   whose predicted window fits the round (Abdelmoniem et al.,
//!   EuroSys '23); its fixed-window assumption is exactly what the paper
//!   criticizes.
//! - [`FedBuffSelector`] — asynchronous buffered aggregation with
//!   concurrent over-selection (Nguyen et al.).
//! - [`HeuristicPolicy`] — the paper's §4.4 rule-based acceleration
//!   chooser, the non-learning straw-man FLOAT beats by ~20 % accuracy.
//! - [`TiflSelector`] — tier-based selection (Chai et al., HPDC '20), an
//!   extension baseline from the paper's related work.
//!
//! All selectors implement the [`ClientSelector`] trait so the FLOAT
//! runtime in `float-core` can wrap any of them non-intrusively — the
//! paper's headline integration property.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fedavg;
pub mod fedbuff;
pub mod heuristic;
pub mod oort;
pub mod refl;
pub mod selector;
pub mod tifl;

pub use fedavg::FedAvgSelector;
pub use fedbuff::FedBuffSelector;
pub use heuristic::HeuristicPolicy;
pub use oort::OortSelector;
pub use refl::ReflSelector;
pub use selector::{top_k_by, ClientSelector, SelectionFeedback};
pub use tifl::TiflSelector;

#[cfg(test)]
mod contract_tests;
