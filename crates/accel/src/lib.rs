//! `float-accel` — acceleration techniques for straggling FL clients.
//!
//! The FLOAT paper's action space (§5, RQ1): model quantization (16- and
//! 8-bit), magnitude pruning (25/50/75 %), and partial training
//! (25/50/75 %), optionally extended with update compression. Each
//! technique is implemented twice over:
//!
//! 1. **As a real model transform** on the proxy model's flat parameters —
//!    quantize/dequantize on a uniform grid, top-magnitude pruning masks,
//!    frozen-parameter masks, top-k sparsification, and a real byte-level
//!    lossless codec — so the *accuracy* consequences of each action are
//!    produced by actual optimization, and
//! 2. **As a [`RoundCost`] transform** — fewer upload bytes, fewer training
//!    FLOPs, less resident memory — so the *resource* consequences drive
//!    the simulator's latency/energy/dropout accounting.
//!
//! The asymmetries the paper leans on are preserved: quantization helps
//! communication but costs a little extra compute; pruning helps compute
//! *and* communication *and* memory; partial training mostly helps compute
//! (the full model still ships both ways).
//!
//! [`RoundCost`]: float_models::RoundCost

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod apply;
pub mod compress;
pub mod feedback;
pub mod partial;
pub mod prune;
pub mod quantize;

pub use action::{AccelAction, ActionCatalogue};
pub use apply::{
    action_cost, action_train_options, apply_action, apply_action_protected, AccelPlan,
};
pub use feedback::ErrorFeedback;
