//! `float-vfl` — a vertical federated learning (VFL) substrate
//! demonstrating the paper's §7 claim that FLOAT integrates with
//! non-horizontal FL "without needing structural adjustments".
//!
//! In VFL, parties hold *disjoint feature subsets* of the *same* samples
//! (e.g. a bank and a retailer know different attributes of shared
//! customers). Training uses a split model: each party runs a local
//! *bottom model* producing an embedding of its features; an aggregator
//! concatenates the embeddings, runs a *top model* to the label, and
//! backpropagates embedding gradients to each party. The layers train
//! through `float-tensor`'s scratch path, the one the horizontal MLP
//! uses; a bottom model computes only its parameter gradients, since its
//! input gradient has no consumer.
//!
//! Every forward/backward step is a synchronous barrier over all parties,
//! so a single straggling party stalls the entire round — which makes
//! FLOAT's per-party acceleration (quantizing embeddings on the wire,
//! pruning bottom models, partial training) directly applicable: the
//! [`VflRound`] costing hooks mirror the horizontal runtime's, and
//! [`accelerated_party_cost`] prices each FLOAT action for a party.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod split;

pub use cost::{accelerated_party_cost, PartyCost, VflRound};
pub use split::{SplitModel, VflConfig, VflDataset};
