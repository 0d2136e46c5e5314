//! `float-traces` — trace substrates for the FLOAT reproduction.
//!
//! The paper drives its simulator with three real-world traces: a 4G/5G
//! mobile bandwidth trace (Narayanan et al., WWW '20), a compute trace over
//! ~950 mobile/edge devices (AI-Benchmark), and a smartphone availability /
//! energy trace (Yang et al., WWW '21). None of those datasets are
//! available offline, so this crate implements synthetic generators that
//! match their first- and second-order statistics and, crucially, their
//! *temporal variability* — the property FLOAT exploits. There is no path
//! for replaying measured traces: none is in the repository. The modules:
//!
//! - [`network`]: Markov-modulated bandwidth processes for 4G and 5G with
//!   stationary / walking / driving mobility profiles.
//! - [`compute`]: per-client device profiles, log-normally distributed
//!   training throughput across device tiers.
//! - [`availability`]: diurnal on/off availability plus a battery model.
//! - [`interference`]: co-located application interference (None / Static /
//!   Dynamic) shaving time-varying fractions off each resource.
//! - [`snapshot`]: the per-client, per-round [`ResourceSnapshot`] the
//!   simulator and the RLHF agent consume.
//!
//! [`ResourceSnapshot`]: snapshot::ResourceSnapshot

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod availability;
pub mod compute;
pub mod index;
pub mod interference;
pub mod network;
pub mod snapshot;

pub use availability::{AvailabilityModel, BatteryState, Interruption, InterruptionTable};
pub use compute::{DeviceClass, DeviceProfile};
pub use index::AvailabilityIndex;
pub use interference::InterferenceModel;
pub use network::{Mobility, NetworkGen, NetworkProfile};
pub use snapshot::{AvailabilityStats, ResourceSampler, ResourceSnapshot};
