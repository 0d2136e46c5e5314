//! The accounting audit: where each committed attempt is counted, and the
//! identities that tie a run's telemetry stream to its report.
//!
//! The commit phase classifies every attempt once, as an [`OutcomeKind`];
//! the `ClientOutcome` event, the registry counter and — through
//! `observed_outcome` — the online profiler's [`ObservedOutcome`] all
//! derive from that one value. [`audit`] checks, from the stream and the
//! report alone, that every attempt was counted where its kind says:
//!
//! * ledger: `completions == #Completed + #Duplicate`,
//!   `dropouts == #Quarantined + #Stalled + #Dropped`,
//!   `quarantined == #Quarantined == report.total_quarantined`;
//! * retries and dedup: `stall_retries == #outcomes with attempt > 0`,
//!   `duplicates_suppressed == Σ AggregationApplied.suppressed`, and for
//!   the synchronous engine `duplicates_suppressed == #Duplicate`;
//! * rounds: one `RoundEnd` per round record, field for field;
//! * report totals: `total_completions` against `#Completed + #Duplicate`,
//!   and `total_completions + total_dropouts + stall_retries` against all
//!   outcomes;
//! * batches: every attempt batch spans `Plan, Execute, Commit` in order
//!   with its `AccelDecision`s inside the plan phase,
//!   `#AccelDecision == #outcomes with attempt == 0`, and the batch count
//!   against the round count;
//! * summary (when the report embeds one): `events_recorded` and every
//!   per-kind tally equal the stream's, and the latency and utilization
//!   histogram counts equal the stream's replay ([`replay_histograms`]);
//! * profiler: the stream replayed through a fresh profiler
//!   ([`replay_profiles`]) folds one observation per outcome, keeps
//!   `inserted == evictions + resident`, counts the ledger's completions
//!   and the report's quarantines, and per client the report's
//!   completed counts.
//!
//! The synchronous engine drains every attempt inside its round, so its
//! "against" identities are equalities. The asynchronous engine leaves
//! attempts in flight at run end: the stream has committed them, the
//! report's round bookkeeping has not, so there the report side may only
//! be smaller (the two report totals, the per-client completed counts)
//! and the batch count only larger.

use std::collections::BTreeMap;

use float_obs::metrics::{Histogram, LATENCY_BUCKETS_S, UTILIZATION_BUCKETS};
use float_obs::{Event, OutcomeKind, Phase};
use float_profile::{ClientProfiler, Observation, ObservedOutcome, ProfilingConfig};

use crate::metrics::ExperimentReport;

/// The profiler's view of a committed outcome. Duplicates fold into
/// `Completed` (the client did the work and the wire carried the bytes);
/// `oom` refines a drop by the memory killer. The stream does not carry
/// the drop reason, so a replay passes `false` and loses only that split.
pub(crate) fn observed_outcome(kind: OutcomeKind, oom: bool) -> ObservedOutcome {
    match kind {
        OutcomeKind::Completed | OutcomeKind::Duplicate => ObservedOutcome::Completed,
        OutcomeKind::Quarantined => ObservedOutcome::Quarantined,
        OutcomeKind::Stalled => ObservedOutcome::Stalled,
        OutcomeKind::Dropped if oom => ObservedOutcome::DroppedOom,
        OutcomeKind::Dropped => ObservedOutcome::Dropped,
    }
}

/// Replay the stream's `ClientOutcome` events, in stream order (= commit
/// order), through a fresh profiler large enough to evict nobody.
/// `before(profiler, client, observation)` sees each observation before
/// it is folded, i.e. against the estimates the runtime acted on.
pub fn replay_profiles(
    events: &[Event],
    mut before: impl FnMut(&ClientProfiler, usize, &Observation),
) -> ClientProfiler {
    let capacity = events
        .iter()
        .filter_map(|e| match e {
            Event::ClientOutcome { client, .. } => Some(*client as usize + 1),
            _ => None,
        })
        .max()
        .unwrap_or(1);
    let mut profiler = ClientProfiler::new(ProfilingConfig::on(), capacity);
    for e in events {
        if let Event::ClientOutcome {
            round,
            client,
            outcome,
            sim_duration_s,
            ..
        } = e
        {
            let obs =
                Observation::replay(*round, observed_outcome(*outcome, false), *sim_duration_s);
            before(&profiler, *client as usize, &obs);
            profiler.observe(*client as usize, &obs);
        }
    }
    profiler
}

/// Rebuild the `client_latency_s` and `round_utilization` histograms from
/// the stream: the same values, in the same order, the runtime recorded.
pub fn replay_histograms(events: &[Event]) -> (Histogram, Histogram) {
    let mut latency = Histogram::new(LATENCY_BUCKETS_S);
    let mut utilization = Histogram::new(UTILIZATION_BUCKETS);
    for e in events {
        match e {
            // Latency is observed for every attempt whose *execution*
            // completed — quarantine and dedup reclassify it afterwards,
            // so those outcomes carry a latency observation too.
            Event::ClientOutcome {
                outcome,
                sim_duration_s,
                ..
            } if !matches!(outcome, OutcomeKind::Stalled | OutcomeKind::Dropped) => {
                latency.observe(*sim_duration_s);
            }
            Event::RoundEnd {
                completed, dropped, ..
            } => {
                let slots = completed + dropped;
                let u = if slots == 0 {
                    0.0
                } else {
                    *completed as f64 / slots as f64
                };
                utilization.observe(u);
            }
            _ => {}
        }
    }
    (latency, utilization)
}

/// Split the stream into attempt batches and return the number of
/// attempts each planned (one `AccelDecision` apiece), or `None` unless
/// every batch spans `Plan, Execute, Commit` in that order, every
/// decision falls inside a plan phase and the stream ends between batches.
pub(crate) fn planned_per_batch(events: &[Event]) -> Option<Vec<u64>> {
    let mut batches = Vec::new();
    let mut planned = 0u64;
    let mut next = Phase::Plan;
    for e in events {
        match e {
            Event::AccelDecision { .. } if next != Phase::Plan => return None,
            Event::AccelDecision { .. } => planned += 1,
            Event::PhaseSpan { phase, .. } if *phase != next => return None,
            Event::PhaseSpan { phase, .. } => {
                next = match phase {
                    Phase::Plan => Phase::Execute,
                    Phase::Execute => Phase::Commit,
                    Phase::Commit => {
                        batches.push(std::mem::take(&mut planned));
                        Phase::Plan
                    }
                };
            }
            _ => {}
        }
    }
    (next == Phase::Plan).then_some(batches)
}

/// One identity of [`audit`] that does not hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// The identity, in the module docs' notation (`#Kind` counts events).
    pub identity: &'static str,
    /// The stream's side.
    pub stream: u64,
    /// The report's side (or the value the stream must take).
    pub report: u64,
}

/// What an identity asserts of an asynchronous run. A synchronous run
/// drains every attempt, so there each identity is an equality.
#[derive(Clone, Copy, PartialEq)]
enum Async {
    /// Equal in both engines.
    Equal,
    /// The report side may be smaller: attempts still in flight at run
    /// end are in the stream but not in the report's round bookkeeping.
    Smaller,
    /// Not checked: FedBuff's dedup also drops a relaunched client's
    /// second genuine update from the same buffer.
    Unchecked,
}

/// Check every identity the module docs list between a run's event stream
/// and its report; returns the ones that fail (empty when the run's
/// accounting is consistent). `async_engine` names the engine that ran
/// (FedBuff).
pub fn audit(report: &ExperimentReport, events: &[Event], async_engine: bool) -> Vec<Mismatch> {
    use Async::{Equal, Smaller, Unchecked};
    let mut kinds: BTreeMap<&str, u64> = BTreeMap::new();
    let mut outcomes: BTreeMap<OutcomeKind, u64> = BTreeMap::new();
    let (mut retries, mut suppressed, mut round_ends) = (0u64, 0u64, Vec::new());
    for e in events {
        *kinds.entry(e.kind()).or_default() += 1;
        match e {
            Event::ClientOutcome {
                outcome, attempt, ..
            } => {
                *outcomes.entry(*outcome).or_default() += 1;
                retries += u64::from(*attempt > 0);
            }
            Event::AggregationApplied { suppressed: s, .. } => suppressed += s,
            Event::RoundEnd {
                completed,
                dropped,
                quarantined,
                ..
            } => round_ends.push([*completed, *dropped, *quarantined]),
            _ => {}
        }
    }
    let n = |k| outcomes.get(&k).copied().unwrap_or(0);
    let count = |kind| kinds.get(kind).copied().unwrap_or(0);
    let (all, decisions) = (count("client_outcome"), count("accel_decision"));
    let (done, dup) = (
        n(OutcomeKind::Completed) + n(OutcomeKind::Duplicate),
        n(OutcomeKind::Duplicate),
    );
    let quarantined = n(OutcomeKind::Quarantined);
    let (r, ledger) = (report, &report.resources);
    let records = r
        .rounds
        .iter()
        .map(|x| [x.completed, x.dropped, x.quarantined].map(|v| v as u64));
    let differing = round_ends
        .iter()
        .zip(records)
        .filter(|(e, rec)| **e != *rec)
        .count() as u64;
    let attempts = r.total_completions + r.total_dropouts + r.stall_retries;
    let (ordered, planned, batches) = match planned_per_batch(events) {
        Some(b) => (1, b.iter().sum(), b.len() as u64),
        None => (0, decisions, r.rounds.len() as u64),
    };
    let profiler = replay_profiles(events, |_, _, _| {});
    let p = profiler.stats();
    #[rustfmt::skip]
    let mut checks = vec![
        ("ledger.completions == #Completed + #Duplicate", done, ledger.completions, Equal),
        ("ledger.dropouts == #Quarantined + #Stalled + #Dropped", all - done, ledger.dropouts, Equal),
        ("ledger.quarantined == #Quarantined", quarantined, ledger.quarantined, Equal),
        ("total_quarantined == #Quarantined", quarantined, r.total_quarantined, Equal),
        ("stall_retries == #(attempt > 0)", retries, r.stall_retries, Equal),
        ("duplicates_suppressed == Σ suppressed", suppressed, r.duplicates_suppressed, Equal),
        ("duplicates_suppressed == #Duplicate", dup, r.duplicates_suppressed, Unchecked),
        ("#RoundEnd == #round records", round_ends.len() as u64, r.rounds.len() as u64, Equal),
        ("#rounds whose RoundEnd differs from the record", differing, 0, Equal),
        ("total_completions == #Completed + #Duplicate", done, r.total_completions, Smaller),
        ("report completions + dropouts + retries == #ClientOutcome", all, attempts, Smaller),
        ("batches in Plan, Execute, Commit order", ordered, 1, Equal),
        ("Σ decisions per batch == #AccelDecision", planned, decisions, Equal),
        ("#batches == #rounds", batches, r.rounds.len() as u64, Smaller),
        ("#AccelDecision == #(attempt == 0)", decisions, all - retries, Equal),
        ("profiler observations == #ClientOutcome", p.observations, all, Equal),
        ("profiler inserted == evictions + resident", p.inserted, p.evictions + p.resident as u64, Equal),
        ("profiler completions == ledger.completions", p.completed, ledger.completions, Equal),
        ("profiler quarantines == total_quarantined", p.quarantined, r.total_quarantined, Equal),
    ];
    #[rustfmt::skip]
    checks.extend(profiler.table().into_iter().map(|(c, est)| {
        let counted = r.completed_count.get(c).unwrap_or(0);
        ("completed_count[c] == profiled completions of c", est.completions, counted, Smaller)
    }));
    if let Some(summary) = &r.telemetry {
        let (latency, utilization) = replay_histograms(events);
        let hist = |name| summary.histogram(name).map_or(0, |h| h.count);
        let tallied = summary.event_counts.iter().map(|(_, t)| t).sum();
        let (recorded, dropped) = (summary.events_recorded, summary.events_dropped);
        #[rustfmt::skip]
        checks.extend([
            ("summary events_recorded == #events", events.len() as u64, recorded, Equal),
            ("Σ summary tallies == recorded + dropped", tallied, recorded + dropped, Equal),
            ("summary latency count == replayed", latency.count(), hist("client_latency_s"), Equal),
            ("summary utilization count == replayed", utilization.count(), hist("round_utilization"), Equal),
        ]);
        #[rustfmt::skip]
        checks.extend(summary.event_counts.iter().map(|(kind, tally)| {
            ("summary tally of a kind == its #events", count(kind), *tally, Equal)
        }));
    }
    checks
        .into_iter()
        .filter(|&(_, stream, report, when)| match (async_engine, when) {
            (false, _) | (true, Equal) => stream != report,
            (true, Smaller) => report > stream,
            (true, Unchecked) => false,
        })
        .map(|(identity, stream, report, _)| Mismatch {
            identity,
            stream,
            report,
        })
        .collect()
}
