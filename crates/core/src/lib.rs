//! `float-core` — the FLOAT framework: configuration, the synchronous and
//! asynchronous FL runtimes, aggregation, per-client acceleration driven by
//! the RLHF agent (or the heuristic / no-op baselines), and the paper's
//! evaluation metrics.
//!
//! The runtime is deliberately layered the way the paper describes FLOAT's
//! integration story: a [`ClientSelector`] (any of the four baselines)
//! picks the cohort, and FLOAT wraps the *execution* of each selected
//! client — choosing an acceleration action from the client's resource
//! state, re-costing the round, training the proxy model with the
//! corresponding transform, and feeding the outcome back to the agent.
//! Turning FLOAT off reduces the runtime to a faithful FedScale-style
//! baseline simulator; nothing about selection or aggregation changes.
//!
//! [`ClientSelector`]: float_select::ClientSelector

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod config;
pub mod engine;
pub mod metrics;
pub mod optim;
pub mod runtime;
pub mod trial;

pub use config::{AccelMode, ExperimentConfig, SelectorChoice};
pub use float_data::ShardCacheStats;
pub use metrics::{AccuracySummary, ExperimentReport, RoundRecord, TechniqueStats};
pub use optim::{ServerOptimConfig, ServerOptimizer, ServerOptimizerChoice};
pub use runtime::Experiment;
pub use trial::SharedPopulation;
