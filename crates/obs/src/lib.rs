//! `float-obs` — deterministic telemetry for the FLOAT runtime.
//!
//! FLOAT's argument is about *where* resources go — which clients
//! straggle, drop, or get quarantined, and which acceleration action the
//! agent picked for them — yet an end-of-run report cannot show any of
//! that. This crate makes mid-run behaviour observable without giving up
//! the runtime's two hard guarantees:
//!
//! 1. **Determinism.** Every recorded [`Event`] is stamped with the
//!    *simulated* clock and emitted from the runtime's sequential plan /
//!    commit phases, which also record every metric sample, so the event
//!    stream and the registry are bit-identical no matter how many worker
//!    threads execute the round. Wall-clock phase timers are opt-in
//!    ([`ObsConfig::wall_timers`]) precisely because they are the one
//!    thing that cannot be deterministic.
//! 2. **Near-zero cost when off.** With telemetry disabled every record
//!    call is a single branch on [`Collector::enabled`]; no strings are
//!    formatted, nothing allocates (measured by `floatbench` as
//!    `obs.enabled_overhead_frac`).
//!
//! The pieces:
//!
//! | module | contents |
//! |---|---|
//! | [`config`] | [`ObsConfig`]: the on/off switch and its knobs |
//! | [`event`] | [`Event`]: the structured round/client event stream |
//! | [`metrics`] | [`MetricsRegistry`]: counters, gauges, fixed-bucket histograms |
//! | [`collect`] | [`Collector`]: the runtime-facing front-end; [`TelemetrySummary`] |
//! | [`sink`] | JSONL event writer/reader |
//! | [`digest`] | human-readable per-round digests |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collect;
pub mod config;
pub mod digest;
pub mod event;
pub mod metrics;
pub mod sink;

pub use collect::{Collector, Telemetry, TelemetrySummary};
pub use config::ObsConfig;
pub use event::{Event, OutcomeKind, Phase};
pub use metrics::{Histogram, HistogramSummary, MetricsRegistry};
