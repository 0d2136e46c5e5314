//! Profiling configuration: the `ExperimentConfig::profiling` knob.
//!
//! Everything here is `Copy` because `ExperimentConfig` is `Copy` (it is
//! snapshotted into the per-attempt execute context).

use serde::{Deserialize, Serialize};

/// Configuration for the online client profiler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfilingConfig {
    /// Master switch. Off means the runtime keeps today's oracle path,
    /// byte-identical to the pinned goldens.
    pub enabled: bool,
    /// Bounded-store capacity in clients. `0` means auto: the population
    /// size clamped to 8192 clients, so the
    /// store stays O(MB) even at the 1M/10M presets.
    pub capacity: usize,
    /// Evaluation knob: record nothing and answer every query with the
    /// cold-start prior. This is the "cold start forever" lower bound in
    /// `expfig profile_gap`; it requires `enabled`.
    pub cold_only: bool,
}

impl ProfilingConfig {
    /// Cap applied to the auto-sized store (`capacity == 0`).
    const AUTO_CAPACITY_CAP: usize = 8192;

    /// Profiling disabled — the oracle path. This is the default.
    pub fn off() -> Self {
        Self {
            enabled: false,
            capacity: 0,
            cold_only: false,
        }
    }

    /// Profiling enabled.
    pub fn on() -> Self {
        Self {
            enabled: true,
            ..Self::off()
        }
    }

    /// The cold-start-forever evaluation mode (see `cold_only`).
    pub fn cold_only() -> Self {
        Self {
            cold_only: true,
            ..Self::on()
        }
    }

    /// The store capacity to use for a population of `num_clients`.
    pub fn resolved_capacity(&self, num_clients: usize) -> usize {
        if self.capacity > 0 {
            self.capacity
        } else {
            num_clients.clamp(1, Self::AUTO_CAPACITY_CAP)
        }
    }

    /// Validate consistency; errors name the offending fields.
    pub fn validate(&self) -> Result<(), String> {
        if self.cold_only && !self.enabled {
            return Err("profiling.cold_only = true requires profiling.enabled = true".to_string());
        }
        Ok(())
    }
}

impl Default for ProfilingConfig {
    fn default() -> Self {
        Self::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        ProfilingConfig::off().validate().unwrap();
        ProfilingConfig::on().validate().unwrap();
        ProfilingConfig::cold_only().validate().unwrap();
    }

    #[test]
    fn bad_values_are_rejected_with_the_value_in_the_message() {
        let mut cfg = ProfilingConfig::off();
        cfg.cold_only = true;
        assert!(cfg.validate().unwrap_err().contains("cold_only"));
    }

    #[test]
    fn auto_capacity_tracks_population_up_to_the_cap() {
        let cfg = ProfilingConfig::on();
        assert_eq!(cfg.resolved_capacity(100), 100);
        assert_eq!(
            cfg.resolved_capacity(10_000_000),
            ProfilingConfig::AUTO_CAPACITY_CAP
        );
        assert_eq!(cfg.resolved_capacity(0), 1);
        let mut pinned = cfg;
        pinned.capacity = 64;
        assert_eq!(pinned.resolved_capacity(10_000_000), 64);
    }

    #[test]
    fn default_round_trips_through_serde_as_off() {
        let cfg = ProfilingConfig::default();
        assert!(!cfg.enabled);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ProfilingConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
        // Configs written while a `cold_start` policy field existed still
        // load: unknown named fields are skipped.
        let legacy = json.replacen('{', r#"{"cold_start":"pessimistic","#, 1);
        let back: ProfilingConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(cfg, back);
        // So do configs written while the two EWMA rates were fields.
        let legacy = json.replacen('{', r#"{"latency_alpha":0.3,"bandwidth_alpha":0.3,"#, 1);
        let back: ProfilingConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(cfg, back);
    }
}
