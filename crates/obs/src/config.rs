//! Telemetry configuration.

use serde::{Deserialize, Serialize};

/// Telemetry switchboard, carried inside the experiment configuration.
///
/// The default is fully off: the runtime pays one predictable branch per
/// potential event and nothing else. [`ObsConfig::on`] enables the
/// deterministic event stream and metrics registry;
/// [`ObsConfig::profiled`] additionally stamps wall-clock phase timings
/// onto [`crate::Event::PhaseSpan`] events, which is useful for humans
/// but — being wall-clock — is the one mode whose event *payloads* are
/// not reproducible across machines or thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsConfig {
    /// Master switch. Off ⇒ no events, no metrics, near-zero overhead.
    #[serde(default)]
    pub enabled: bool,
    /// Emit per-phase wall-clock spans (plan / execute / commit). Requires
    /// `enabled`; excluded from the determinism contract (see DESIGN.md
    /// §12) because wall time is inherently irreproducible.
    #[serde(default)]
    pub wall_timers: bool,
    /// Hard cap on buffered events; `0` means the default cap of 2²⁰
    /// events. Recording past the cap drops
    /// the event (counted in `TelemetrySummary::events_dropped`) instead
    /// of growing without bound — a 300-round paper run emits ~50k
    /// events, so the default cap of one million is generous.
    #[serde(default)]
    pub max_events: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig::off()
    }
}

impl ObsConfig {
    /// Default event-buffer cap.
    const DEFAULT_MAX_EVENTS: usize = 1 << 20;

    /// Telemetry fully disabled (the default).
    pub fn off() -> Self {
        ObsConfig {
            enabled: false,
            wall_timers: false,
            max_events: Self::DEFAULT_MAX_EVENTS,
        }
    }

    /// Deterministic telemetry: events + metrics, no wall-clock timers.
    /// This is the mode the parallel-determinism tests pin down.
    pub fn on() -> Self {
        ObsConfig {
            enabled: true,
            ..ObsConfig::off()
        }
    }

    /// Telemetry with wall-clock phase profiling on top. Event *counts*
    /// stay deterministic; `PhaseSpan::wall_us` payloads do not.
    pub fn profiled() -> Self {
        ObsConfig {
            enabled: true,
            wall_timers: true,
            ..ObsConfig::off()
        }
    }

    /// The event-buffer cap with the `0 ⇒ default` convention resolved.
    pub fn effective_max_events(&self) -> usize {
        if self.max_events == 0 {
            Self::DEFAULT_MAX_EVENTS
        } else {
            self.max_events
        }
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint, including
    /// the offending field values: `wall_timers` requires `enabled`.
    pub fn validate(&self) -> Result<(), String> {
        if self.wall_timers && !self.enabled {
            return Err(format!(
                "obs wall_timers {} requires enabled true (got enabled {})",
                self.wall_timers, self.enabled
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off_and_valid() {
        let c = ObsConfig::default();
        assert!(!c.enabled);
        assert!(!c.wall_timers);
        c.validate().expect("default validates");
        assert_eq!(c, ObsConfig::off());
    }

    #[test]
    fn presets_validate() {
        ObsConfig::on().validate().expect("on validates");
        ObsConfig::profiled()
            .validate()
            .expect("profiled validates");
    }

    #[test]
    fn rejects_wall_timers_without_enabled() {
        let c = ObsConfig {
            wall_timers: true,
            ..ObsConfig::off()
        };
        let err = c.validate().expect_err("must reject");
        assert!(err.contains("wall_timers true"), "message was: {err}");
        assert!(err.contains("enabled false"), "message was: {err}");
    }

    #[test]
    fn zero_event_cap_means_default() {
        let c = ObsConfig {
            max_events: 0,
            ..ObsConfig::on()
        };
        c.validate().expect("zero cap means default, validates");
        assert_eq!(c.effective_max_events(), ObsConfig::DEFAULT_MAX_EVENTS);
        let c = ObsConfig {
            max_events: 64,
            ..ObsConfig::on()
        };
        assert_eq!(c.effective_max_events(), 64);
    }

    #[test]
    fn serde_roundtrip() {
        let c = ObsConfig::profiled();
        let s = serde_json::to_string(&c).expect("serializes");
        let back: ObsConfig = serde_json::from_str(&s).expect("deserializes");
        assert_eq!(c, back);
        // Missing fields default to off.
        let empty: ObsConfig = serde_json::from_str("{}").expect("defaults");
        assert!(!empty.enabled);
    }
}
