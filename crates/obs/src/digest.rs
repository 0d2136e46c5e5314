//! Human-readable per-round digests of an event stream.
//!
//! A digest compresses one round's events into a single line a person can
//! scan: cohort size, outcome mix, faults, the agent's action histogram,
//! and (when wall timers were on) phase timings. Deterministic by
//! construction — counts come from the event stream and maps iterate in
//! key order.

use crate::event::{Event, Phase};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Summarize one round of an event stream as a single line. Events whose
/// round differs are ignored, so callers can pass the whole stream.
/// Returns a placeholder line if the stream holds no events for `round`.
pub fn round_digest(round: u64, events: &[Event]) -> String {
    let mut start_sim = None;
    let mut end_sim = None;
    let mut eligible = 0u64;
    let mut selected = 0u64;
    let mut completed = 0u64;
    let mut dropped = 0u64;
    let mut quarantined = 0u64;
    let mut agg_updates = 0u64;
    let mut agg_suppressed = 0u64;
    let mut retries = 0u64;
    let mut explore = 0u64;
    let mut actions: BTreeMap<&str, u64> = BTreeMap::new();
    let mut faults: BTreeMap<&str, u64> = BTreeMap::new();
    let mut phase_us: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut saw_any = false;

    // Profiler cohort coverage, reconstructed purely from the stream: a
    // client counts as covered in round N if any earlier round committed
    // an outcome for it — exactly the "has a prior observation" predicate
    // the online profiler applies at selection time.
    let prior_clients: BTreeSet<u64> = events
        .iter()
        .filter_map(|e| match e {
            Event::ClientOutcome {
                round: r, client, ..
            } if *r < round => Some(*client),
            _ => None,
        })
        .collect();
    let mut round_clients: BTreeSet<u64> = BTreeSet::new();

    for e in events.iter().filter(|e| e.round() == round) {
        saw_any = true;
        match e {
            Event::RoundStart {
                sim_s,
                eligible: el,
                selected: sel,
                ..
            } => {
                start_sim = Some(*sim_s);
                eligible = *el;
                selected = *sel;
            }
            Event::PhaseSpan { phase, wall_us, .. } => {
                *phase_us.entry(phase.name()).or_insert(0) += wall_us;
            }
            Event::AccelDecision {
                action,
                explore: ex,
                ..
            } => {
                *actions.entry(action.as_str()).or_insert(0) += 1;
                if *ex {
                    explore += 1;
                }
            }
            Event::FaultInjected { kind, .. } => {
                *faults.entry(kind.as_str()).or_insert(0) += 1;
            }
            Event::ClientOutcome {
                attempt, client, ..
            } => {
                round_clients.insert(*client);
                if *attempt > 0 {
                    retries += 1;
                }
            }
            Event::AggregationApplied {
                updates,
                suppressed,
                ..
            } => {
                agg_updates += updates;
                agg_suppressed += suppressed;
            }
            Event::RoundEnd {
                sim_s,
                completed: c,
                dropped: d,
                quarantined: q,
                ..
            } => {
                end_sim = Some(*sim_s);
                completed = *c;
                dropped = *d;
                quarantined = *q;
            }
        }
    }

    if !saw_any {
        return format!("round {round:>4} | no events");
    }

    let mut line = format!("round {round:>4}");
    if let (Some(s), Some(e)) = (start_sim, end_sim) {
        let _ = write!(line, " | sim {:.0}s → {:.0}s", s, e);
    } else if let Some(s) = start_sim {
        let _ = write!(line, " | sim {:.0}s →", s);
    }
    let _ = write!(
        line,
        " | cohort {selected}/{eligible} | done {completed} drop {dropped}"
    );
    if quarantined > 0 {
        let _ = write!(line, " (quar {quarantined})");
    }
    if retries > 0 {
        let _ = write!(line, " retry {retries}");
    }
    if !round_clients.is_empty() {
        let covered = round_clients
            .iter()
            .filter(|c| prior_clients.contains(c))
            .count();
        let _ = write!(
            line,
            " | cov {:.2}",
            covered as f64 / round_clients.len() as f64
        );
    }
    let _ = write!(line, " | agg {agg_updates}");
    if agg_suppressed > 0 {
        let _ = write!(line, " (dup {agg_suppressed})");
    }
    if !actions.is_empty() {
        line.push_str(" | actions");
        for (name, n) in &actions {
            let _ = write!(line, " {name}:{n}");
        }
        if explore > 0 {
            let _ = write!(line, " (explore {explore})");
        }
    }
    if !faults.is_empty() {
        line.push_str(" | faults");
        for (name, n) in &faults {
            let _ = write!(line, " {name}:{n}");
        }
    }
    // Only print timings when some span actually measured wall time;
    // a deterministic (timer-less) stream keeps its digest wall-free.
    if phase_us.values().any(|&us| us > 0) {
        line.push_str(" | wall");
        for phase in [Phase::Plan, Phase::Execute, Phase::Commit] {
            if let Some(us) = phase_us.get(phase.name()) {
                let _ = write!(line, " {} {}µs", phase.name(), us);
            }
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OutcomeKind;

    fn stream() -> Vec<Event> {
        vec![
            Event::RoundStart {
                round: 2,
                sim_s: 3600.0,
                eligible: 40,
                selected: 10,
            },
            Event::AccelDecision {
                round: 2,
                client: 1,
                state: "s3h0".into(),
                action: "quant8".into(),
                q: 0.25,
                explore: true,
            },
            Event::AccelDecision {
                round: 2,
                client: 2,
                state: "s3h1".into(),
                action: "noop".into(),
                q: 0.0,
                explore: false,
            },
            Event::FaultInjected {
                round: 2,
                client: 1,
                attempt: 0,
                kind: "network-stall".into(),
            },
            Event::ClientOutcome {
                round: 2,
                client: 1,
                attempt: 1,
                outcome: OutcomeKind::Completed,
                sim_duration_s: 900.0,
            },
            Event::AggregationApplied {
                round: 2,
                sim_s: 5400.0,
                updates: 9,
                suppressed: 1,
            },
            Event::RoundEnd {
                round: 2,
                sim_s: 5400.0,
                completed: 9,
                dropped: 1,
                quarantined: 1,
            },
            // Noise from another round: must be ignored.
            Event::RoundEnd {
                round: 3,
                sim_s: 7200.0,
                completed: 2,
                dropped: 8,
                quarantined: 0,
            },
        ]
    }

    #[test]
    fn digest_summarizes_one_round() {
        let line = round_digest(2, &stream());
        assert!(line.contains("round    2"), "line was: {line}");
        assert!(line.contains("cohort 10/40"), "line was: {line}");
        assert!(line.contains("done 9 drop 1"), "line was: {line}");
        assert!(line.contains("quar 1"), "line was: {line}");
        assert!(line.contains("retry 1"), "line was: {line}");
        assert!(line.contains("agg 9 (dup 1)"), "line was: {line}");
        assert!(line.contains("noop:1"), "line was: {line}");
        assert!(line.contains("quant8:1"), "line was: {line}");
        assert!(line.contains("explore 1"), "line was: {line}");
        assert!(line.contains("network-stall:1"), "line was: {line}");
        assert!(line.contains("cov 0.00"), "no prior rounds: {line}");
        assert!(!line.contains("wall"), "timer-less stream: {line}");
        assert!(!line.contains("drop 8"), "round 3 leaked in: {line}");
    }

    #[test]
    fn coverage_counts_clients_seen_in_earlier_rounds() {
        let outcome = |round: u64, client: u64| Event::ClientOutcome {
            round,
            client,
            attempt: 0,
            outcome: OutcomeKind::Completed,
            sim_duration_s: 10.0,
        };
        // Round 1 re-selects client 1 (seen in round 0) and client 2
        // (never seen) → coverage 1/2. Later rounds must not leak in.
        let events = vec![outcome(0, 1), outcome(1, 1), outcome(1, 2), outcome(2, 3)];
        let line = round_digest(1, &events);
        assert!(line.contains("cov 0.50"), "line was: {line}");
        let line0 = round_digest(0, &events);
        assert!(line0.contains("cov 0.00"), "line was: {line0}");
    }

    #[test]
    fn digest_handles_missing_round() {
        assert_eq!(round_digest(99, &stream()), "round   99 | no events");
    }

    #[test]
    fn digest_prints_wall_timings_when_measured() {
        let events = vec![
            Event::RoundStart {
                round: 0,
                sim_s: 0.0,
                eligible: 4,
                selected: 2,
            },
            Event::PhaseSpan {
                round: 0,
                phase: Phase::Execute,
                wall_us: 1234,
            },
            Event::RoundEnd {
                round: 0,
                sim_s: 60.0,
                completed: 2,
                dropped: 0,
                quarantined: 0,
            },
        ];
        let line = round_digest(0, &events);
        assert!(line.contains("wall execute 1234µs"), "line was: {line}");
    }
}
