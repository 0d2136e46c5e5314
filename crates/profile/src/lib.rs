//! # float-profile — online client profiling from observed outcomes
//!
//! FLOAT's selectors and acceleration agent need per-client estimates of
//! compute latency, upload bandwidth, and reliability. The trace files
//! hold oracle values, but a real deployment only ever sees what the
//! server observes: round outcomes. This crate turns the commit-phase
//! observation stream into those estimates.
//!
//! The profiler is strictly deterministic: it is updated only from the
//! sequential commit phase (slot order), uses no RNG and no wall clock,
//! and its state is a pure fold over the observation sequence — so any
//! run that feeds it the same outcomes in the same order reproduces it
//! bit for bit, regardless of worker-thread count.
//!
//! The store is bounded and sparse: `O(min(observed clients, capacity))`
//! memory with ShardCache-style LRU eviction, so it holds at the 1M/10M
//! population presets.
//!
//! Layering: this is a leaf crate (serde only) so that `float-select`,
//! `float-core`, and `float-bench` can all depend on it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod estimator;
pub mod profiler;

pub use config::ProfilingConfig;
pub use estimator::{Ewma, P2Quantile};
pub use profiler::{ClientEstimate, ClientProfiler, Observation, ObservedOutcome, ProfilerStats};
