//! The structured event stream.
//!
//! Every event carries the round it belongs to and, where meaningful, the
//! *simulated* clock (`sim_s`). Events are recorded exclusively from the
//! runtime's sequential phases (plan / commit / bookkeeping), in cohort
//! order, so a stream captured at one worker-thread count is bit-identical
//! to one captured at any other — the only exception is the wall-clock
//! payload of [`Event::PhaseSpan`], which is opt-in and zero unless
//! [`crate::ObsConfig::wall_timers`] is set.

use serde::{Deserialize, Serialize};

/// One phase of the two-phase round engine (DESIGN.md §9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Sequential decision phase: selection, RNG draws, action choice.
    Plan,
    /// Parallel execution phase: resource sim + local training.
    Execute,
    /// Sequential commit phase: ledger, feedback, aggregation input.
    Commit,
}

impl Phase {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Plan => "plan",
            Phase::Execute => "execute",
            Phase::Commit => "commit",
        }
    }
}

/// How one committed client attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OutcomeKind {
    /// The update completed and was handed to aggregation once.
    Completed,
    /// The update completed but the transport delivered it twice; the
    /// server's dedup pass suppresses the extra copy.
    Duplicate,
    /// The update arrived but payload validation quarantined it
    /// (non-finite delta).
    Quarantined,
    /// The upload stalled past the server timeout; the sync engine may
    /// commit a follow-up attempt with a bumped `attempt` number.
    Stalled,
    /// Any other dropout (deadline, memory, availability, crash).
    Dropped,
}

impl OutcomeKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            OutcomeKind::Completed => "completed",
            OutcomeKind::Duplicate => "duplicate",
            OutcomeKind::Quarantined => "quarantined",
            OutcomeKind::Stalled => "stalled",
            OutcomeKind::Dropped => "dropped",
        }
    }

    /// Whether the attempt counts as a completion in the resource ledger.
    pub fn is_completion(self) -> bool {
        matches!(self, OutcomeKind::Completed | OutcomeKind::Duplicate)
    }
}

/// One telemetry event. See the module docs for the ordering contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A round (or async aggregation window) began.
    RoundStart {
        /// Round index.
        round: u64,
        /// Simulated clock at round start, seconds.
        sim_s: f64,
        /// Clients that checked in as available.
        eligible: u64,
        /// Clients tasked in the opening cohort.
        selected: u64,
    },
    /// One engine phase of a cohort batch finished. `wall_us` is the
    /// measured wall-clock duration in microseconds when wall timers are
    /// enabled, and `0` otherwise (the event still marks phase ordering).
    PhaseSpan {
        /// Round index.
        round: u64,
        /// Which phase.
        phase: Phase,
        /// Wall-clock duration in µs (0 unless wall timers are on).
        wall_us: u64,
    },
    /// The acceleration decision for one planned client attempt.
    AccelDecision {
        /// Round index.
        round: u64,
        /// Client id.
        client: u64,
        /// Compact discretized agent state, e.g. `"s62h1"` (local-state
        /// index + human-feedback level index); `"-"` for non-agent modes.
        state: String,
        /// Chosen action name (e.g. `"quant8"`, `"noop"`).
        action: String,
        /// Scalarized Q-value of the chosen action at decision time
        /// (0 for non-agent modes and never-visited states).
        q: f64,
        /// Whether the choice came from the exploration branch.
        explore: bool,
    },
    /// The fault schedule injected a fault into an attempt.
    FaultInjected {
        /// Round index.
        round: u64,
        /// Client id.
        client: u64,
        /// Delivery attempt number (retries bump it).
        attempt: u64,
        /// Fault kind name (e.g. `"network-stall"`).
        kind: String,
    },
    /// One client attempt was committed.
    ClientOutcome {
        /// Round index.
        round: u64,
        /// Client id.
        client: u64,
        /// Delivery attempt number (0 first try; >0 are stall retries).
        attempt: u64,
        /// How the attempt ended.
        outcome: OutcomeKind,
        /// Simulated duration of the attempt, seconds.
        sim_duration_s: f64,
    },
    /// The server folded buffered updates into the global model.
    AggregationApplied {
        /// Round index.
        round: u64,
        /// Simulated clock at aggregation, seconds.
        sim_s: f64,
        /// Updates aggregated (after dedup).
        updates: u64,
        /// Duplicate copies suppressed by the dedup pass.
        suppressed: u64,
    },
    /// A round (or async aggregation window) ended.
    RoundEnd {
        /// Round index.
        round: u64,
        /// Simulated clock at round end, seconds.
        sim_s: f64,
        /// Final attempts that completed.
        completed: u64,
        /// Final attempts that dropped (includes quarantined).
        dropped: u64,
        /// Of the dropped, how many were quarantined.
        quarantined: u64,
    },
}

impl Event {
    /// The round this event belongs to.
    pub fn round(&self) -> u64 {
        match *self {
            Event::RoundStart { round, .. }
            | Event::PhaseSpan { round, .. }
            | Event::AccelDecision { round, .. }
            | Event::FaultInjected { round, .. }
            | Event::ClientOutcome { round, .. }
            | Event::AggregationApplied { round, .. }
            | Event::RoundEnd { round, .. } => round,
        }
    }

    /// Stable kind label, used for summary counters and digests.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RoundStart { .. } => "round_start",
            Event::PhaseSpan { .. } => "phase_span",
            Event::AccelDecision { .. } => "accel_decision",
            Event::FaultInjected { .. } => "fault_injected",
            Event::ClientOutcome { .. } => "client_outcome",
            Event::AggregationApplied { .. } => "aggregation_applied",
            Event::RoundEnd { .. } => "round_end",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_accessor_covers_every_variant() {
        let events = [
            Event::RoundStart {
                round: 3,
                sim_s: 1.0,
                eligible: 10,
                selected: 4,
            },
            Event::PhaseSpan {
                round: 3,
                phase: Phase::Plan,
                wall_us: 0,
            },
            Event::AccelDecision {
                round: 3,
                client: 7,
                state: "s1h0".into(),
                action: "quant8".into(),
                q: 0.5,
                explore: false,
            },
            Event::FaultInjected {
                round: 3,
                client: 7,
                attempt: 0,
                kind: "network-stall".into(),
            },
            Event::ClientOutcome {
                round: 3,
                client: 7,
                attempt: 0,
                outcome: OutcomeKind::Stalled,
                sim_duration_s: 2250.0,
            },
            Event::AggregationApplied {
                round: 3,
                sim_s: 2.0,
                updates: 8,
                suppressed: 1,
            },
            Event::RoundEnd {
                round: 3,
                sim_s: 2.0,
                completed: 8,
                dropped: 2,
                quarantined: 1,
            },
        ];
        for e in &events {
            assert_eq!(e.round(), 3, "variant {}", e.kind());
        }
        let kinds: std::collections::HashSet<&str> = events.iter().map(Event::kind).collect();
        assert_eq!(kinds.len(), events.len(), "kind labels must be unique");
    }

    #[test]
    fn serde_roundtrip_preserves_events() {
        let e = Event::ClientOutcome {
            round: 12,
            client: 33,
            attempt: 2,
            outcome: OutcomeKind::Duplicate,
            sim_duration_s: 812.5,
        };
        let s = serde_json::to_string(&e).expect("serializes");
        let back: Event = serde_json::from_str(&s).expect("deserializes");
        assert_eq!(e, back);
    }

    #[test]
    fn outcome_kinds_classify_completions() {
        assert!(OutcomeKind::Completed.is_completion());
        assert!(OutcomeKind::Duplicate.is_completion());
        assert!(!OutcomeKind::Quarantined.is_completion());
        assert!(!OutcomeKind::Stalled.is_completion());
        assert!(!OutcomeKind::Dropped.is_completion());
    }
}
