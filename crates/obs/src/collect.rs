//! The [`Collector`]: the runtime-facing telemetry front-end.
//!
//! The runtime owns exactly one collector per experiment. Every emission
//! site calls [`Collector::record`] (or a helper that does); when
//! telemetry is disabled that call is a single branch and returns
//! immediately, which is what keeps the off-mode overhead near zero. When
//! enabled, the collector buffers events up to the configured cap, tallies
//! per-kind counts, and owns the central [`MetricsRegistry`] that the
//! runtime's sequential phases record into.

use crate::config::ObsConfig;
use crate::event::{Event, Phase};
use crate::metrics::{HistogramSummary, MetricsRegistry};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// Buffers events and metrics for one experiment run.
#[derive(Debug, Clone)]
pub struct Collector {
    cfg: ObsConfig,
    events: Vec<Event>,
    recorded: u64,
    dropped: u64,
    kind_counts: BTreeMap<&'static str, u64>,
    registry: MetricsRegistry,
}

impl Collector {
    /// A collector honouring `cfg`. A disabled config costs one `Vec`
    /// header and ignores every record call.
    pub fn new(cfg: ObsConfig) -> Self {
        Collector {
            cfg,
            events: Vec::new(),
            recorded: 0,
            dropped: 0,
            kind_counts: BTreeMap::new(),
            registry: MetricsRegistry::new(),
        }
    }

    /// Whether telemetry is on. Emission sites that need to build event
    /// payloads (format a state string, clone an action name) should check
    /// this first so the off path allocates nothing.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Whether wall-clock phase timers are on.
    #[inline]
    fn wall_timers(&self) -> bool {
        self.cfg.enabled && self.cfg.wall_timers
    }

    /// Record one event. Past the configured cap the event is counted in
    /// the per-kind tallies (and `events_dropped`) but not buffered, so a
    /// runaway run degrades to approximate summaries instead of unbounded
    /// memory.
    #[inline]
    pub fn record(&mut self, event: Event) {
        if !self.cfg.enabled {
            return;
        }
        *self.kind_counts.entry(event.kind()).or_insert(0) += 1;
        if self.events.len() < self.cfg.effective_max_events() {
            self.events.push(event);
            self.recorded += 1;
        } else {
            self.dropped += 1;
        }
    }

    /// Start a wall-clock phase timer. Returns `None` unless wall timers
    /// are enabled, so the hot path never calls `Instant::now`.
    #[inline]
    pub fn phase_start(&self) -> Option<Instant> {
        if self.wall_timers() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Close a phase: emits a [`Event::PhaseSpan`] with the measured
    /// wall-clock microseconds when `start` came from an armed timer, and
    /// `wall_us: 0` otherwise (the span still marks phase ordering in the
    /// stream).
    pub fn phase_end(&mut self, round: u64, phase: Phase, start: Option<Instant>) {
        let wall_us = start.map_or(0, |s| s.elapsed().as_micros() as u64);
        self.record(Event::PhaseSpan {
            round,
            phase,
            wall_us,
        });
    }

    /// The central metrics registry, for sequential-phase emission sites.
    pub fn registry_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.registry
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The buffered events, leaving the collector's summary tallies
    /// intact (calling [`Collector::summary`] afterwards still reports
    /// the full run).
    pub fn take_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }

    /// Snapshot the run's telemetry totals. Everything in the summary is
    /// derived from simulated state, so two runs that satisfy the
    /// determinism contract produce byte-identical summaries even when
    /// wall timers are on.
    pub fn summary(&self) -> TelemetrySummary {
        TelemetrySummary {
            events_recorded: self.recorded,
            events_dropped: self.dropped,
            event_counts: self
                .kind_counts
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            counters: self
                .registry
                .counters()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            gauges: self
                .registry
                .gauges()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            histograms: self
                .registry
                .histogram_summaries()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }
}

/// End-of-run telemetry totals, embedded in the experiment report when
/// telemetry is enabled. All fields are deterministic (no wall-clock
/// data); vectors are sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySummary {
    /// Events accepted into the buffer.
    pub events_recorded: u64,
    /// Events discarded once the buffer cap was reached.
    pub events_dropped: u64,
    /// Per-kind event tallies (include dropped events), name-sorted.
    pub event_counts: Vec<(String, u64)>,
    /// Final counter values, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Final gauge values, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// Histogram snapshots, name-sorted.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl TelemetrySummary {
    /// Tally for one event kind (0 if the kind never fired).
    pub fn event_count(&self, kind: &str) -> u64 {
        self.event_counts
            .iter()
            .find(|(k, _)| k == kind)
            .map_or(0, |&(_, v)| v)
    }

    /// Final value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }
}

/// Everything a traced run produces: the ordered event stream plus the
/// end-of-run summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Telemetry {
    /// The ordered event stream.
    pub events: Vec<Event>,
    /// End-of-run totals (identical to the copy embedded in the report).
    pub summary: TelemetrySummary,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OutcomeKind;
    use crate::metrics::LATENCY_BUCKETS_S;

    fn outcome(round: u64, client: u64) -> Event {
        Event::ClientOutcome {
            round,
            client,
            attempt: 0,
            outcome: OutcomeKind::Completed,
            sim_duration_s: 100.0,
        }
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let mut c = Collector::new(ObsConfig::off());
        assert!(!c.enabled());
        c.record(outcome(0, 1));
        c.phase_end(0, Phase::Plan, c.phase_start());
        assert!(c.is_empty());
        let s = c.summary();
        assert_eq!(s, TelemetrySummary::default());
        assert_eq!(s.counter("x"), 0);
    }

    #[test]
    fn enabled_collector_buffers_and_tallies() {
        let mut c = Collector::new(ObsConfig::on());
        c.record(outcome(0, 1));
        c.record(outcome(0, 2));
        c.phase_end(0, Phase::Commit, c.phase_start());
        let s = c.summary();
        assert_eq!(s.events_recorded, 3);
        assert_eq!(s.events_dropped, 0);
        assert_eq!(s.event_count("client_outcome"), 2);
        assert_eq!(s.event_count("phase_span"), 1);
        assert_eq!(s.event_count("round_end"), 0);
        // on() keeps wall timers off: the span records zero wall time.
        let events = c.take_events();
        assert_eq!(events.len(), 3);
        assert!(matches!(
            events[2],
            Event::PhaseSpan {
                wall_us: 0,
                phase: Phase::Commit,
                ..
            }
        ));
        // Taking events does not reset the summary tallies.
        assert_eq!(c.summary().events_recorded, 3);
    }

    #[test]
    fn cap_drops_but_still_counts() {
        let cfg = ObsConfig {
            max_events: 2,
            ..ObsConfig::on()
        };
        let mut c = Collector::new(cfg);
        for i in 0..5 {
            c.record(outcome(0, i));
        }
        assert_eq!(c.len(), 2);
        let s = c.summary();
        assert_eq!(s.events_recorded, 2);
        assert_eq!(s.events_dropped, 3);
        assert_eq!(
            s.event_count("client_outcome"),
            5,
            "tallies see past the cap"
        );
    }

    #[test]
    fn registry_samples_reach_the_summary() {
        let mut c = Collector::new(ObsConfig::on());
        let reg = c.registry_mut();
        reg.inc("attempts_executed", 1);
        reg.inc("attempts_executed", 1);
        reg.observe("latency", LATENCY_BUCKETS_S, 90.0);
        reg.set_gauge("sim_hours", 1.5);
        let s = c.summary();
        assert_eq!(s.counter("attempts_executed"), 2);
        assert_eq!(s.histogram("latency").expect("exists").count, 1);
        assert_eq!(s.gauges, vec![("sim_hours".to_string(), 1.5)]);
    }

    #[test]
    fn summary_serde_roundtrip() {
        let mut c = Collector::new(ObsConfig::on());
        c.record(outcome(0, 1));
        c.registry_mut().inc("completions", 4);
        let s = c.summary();
        let json = serde_json::to_string(&s).expect("serializes");
        let back: TelemetrySummary = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, s);
    }
}
