//! `obsdump` — replay a telemetry JSONL event stream into per-client
//! timelines and histogram tables, and (with `--report`) reconcile the
//! stream against an `ExperimentReport`'s ledger and counters.
//!
//! ```text
//! obsdump EVENTS.jsonl [--report REPORT.json] [--clients N]
//!         [--client ID] [--async] [--profiles]
//! ```
//!
//! Without flags: prints the stream overview, the `N` busiest client
//! timelines (default 3), and histograms replayed from the events
//! themselves (client latency, round utilization).
//!
//! With `--profiles`: replays the `ClientOutcome` stream through a fresh
//! [`float_profile::ClientProfiler`] — the same fold the runtime applies
//! in its commit phase — and prints the per-client profile table
//! (estimated latency, reliability, observation counts; witnessed
//! bandwidth is not derivable from the stream, which carries durations
//! but not phase rates). The replayed profiler's accounting is then
//! reconciled against the stream itself and, when `--report` is given,
//! against the run's ledger (completions, quarantines, per-client
//! completed counts). Any mismatch exits 1.
//!
//! With `--report`: additionally checks the event-count identities that
//! tie the stream to the run's resource ledger — every committed attempt
//! appears exactly once as a `ClientOutcome`, so
//!
//! * `ledger.completions  == #Completed + #Duplicate`
//! * `ledger.dropouts     == #Quarantined + #Stalled + #Dropped`
//! * `ledger.quarantined  == #Quarantined == report.total_quarantined`
//!
//! and for the synchronous engine (skip with `--async`, whose in-flight
//! attempts at run end break the per-round bookkeeping identities)
//!
//! * `report.stall_retries         == #outcomes with attempt > 0`
//! * `report.duplicates_suppressed == #Duplicate == Σ agg.suppressed`
//! * per-round `RoundEnd` fields   == `report.rounds` records
//!
//! Exits 1 on any mismatch, making it a CI oracle for the telemetry
//! pipeline (see `ci.sh`).

use std::collections::BTreeMap;

use float_bench::figs::profile_gap::replay_kind;
use float_core::ExperimentReport;
use float_obs::metrics::{Histogram, LATENCY_BUCKETS_S, UTILIZATION_BUCKETS};
use float_obs::{Event, HistogramSummary, OutcomeKind};
use float_profile::{ClientProfiler, Observation, ProfilingConfig};

fn usage() -> ! {
    eprintln!(
        "usage: obsdump EVENTS.jsonl [--report REPORT.json] [--clients N] \
         [--client ID] [--async] [--profiles]"
    );
    std::process::exit(2);
}

/// Reconciliation failure tally; any failure flips the exit code.
struct Checker {
    failures: u64,
}

impl Checker {
    fn eq_u64(&mut self, label: &str, got: u64, want: u64) {
        if got == want {
            println!("  ok   {label}: {got}");
        } else {
            println!("  FAIL {label}: events say {got}, report says {want}");
            self.failures += 1;
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut top_clients = 3usize;
    let mut only_client: Option<u64> = None;
    let mut async_engine = false;
    let mut profiles = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--report" => report_path = Some(val()),
            "--clients" => top_clients = val().parse().unwrap_or_else(|_| usage()),
            "--client" => only_client = Some(val().parse().unwrap_or_else(|_| usage())),
            "--async" => async_engine = true,
            "--profiles" => profiles = true,
            _ if path.is_none() && !arg.starts_with('-') => path = Some(arg.clone()),
            _ => usage(),
        }
    }
    let path = path.unwrap_or_else(|| usage());

    let body = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let events = float_obs::sink::from_jsonl(&body).unwrap_or_else(|e| panic!("{path}: {e}"));
    overview(&path, &events);

    if let Some(id) = only_client {
        client_timeline(&events, id);
    } else {
        for id in busiest_clients(&events, top_clients) {
            client_timeline(&events, id);
        }
    }
    histogram_tables(&events);

    let report: Option<ExperimentReport> = report_path.map(|rp| {
        let body = std::fs::read_to_string(&rp).unwrap_or_else(|e| panic!("cannot read {rp}: {e}"));
        serde_json::from_str(&body)
            .unwrap_or_else(|e| panic!("{rp} is not an ExperimentReport: {e}"))
    });

    let mut failures = 0u64;
    if profiles {
        failures += profile_table(&events, report.as_ref(), async_engine);
    }
    if let Some(report) = &report {
        failures += reconcile(&events, report, async_engine);
    }
    if failures > 0 {
        eprintln!("obsdump: event stream and report DISAGREE");
        std::process::exit(1);
    }
    if profiles {
        println!("\nobsdump: profile replay reconciles exactly.");
    }
    if report.is_some() {
        println!("\nobsdump: event stream and report reconcile exactly.");
    }
}

/// Replay the outcome stream through a fresh profiler, print the profile
/// table, and reconcile its accounting against the stream (and the
/// report's ledger when supplied). Returns the failure count.
fn profile_table(events: &[Event], report: Option<&ExperimentReport>, async_engine: bool) -> u64 {
    let clients: std::collections::BTreeSet<u64> = events
        .iter()
        .filter_map(|e| match e {
            Event::ClientOutcome { client, .. } => Some(*client),
            _ => None,
        })
        .collect();
    let mut profiler = ClientProfiler::new(ProfilingConfig::on(), clients.len().max(1));
    let mut outcome_events = 0u64;
    for e in events {
        if let Event::ClientOutcome {
            round,
            client,
            outcome,
            sim_duration_s,
            ..
        } = e
        {
            outcome_events += 1;
            profiler.observe(
                *client as usize,
                &Observation::replay(*round, replay_kind(*outcome), *sim_duration_s),
            );
        }
    }

    println!("\nper-client profiles (replayed from the stream):");
    println!(
        "  {:>7} {:>4} {:>5} {:>9} {:>9} {:>9} {:>6} {:>6}",
        "client", "obs", "done", "lat_s", "p50_s", "p90_s", "rel", "gap"
    );
    let mut rows = profiler.table();
    rows.sort_by_key(|&(c, e)| (std::cmp::Reverse(e.observations), c));
    let shown = rows.len().min(12);
    for (c, est) in rows.iter().take(shown) {
        let f = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.1}"));
        // Oracle gap: |estimated reliability − empirical completion rate
        // from the report's per-client ledger| (needs the report).
        let gap = report
            .and_then(|r| {
                let sel = r.selected_count.get(*c)?;
                let done = r.completed_count.get(*c)?;
                (sel > 0).then(|| (est.reliability - done as f64 / sel as f64).abs())
            })
            .map_or("-".to_string(), |g| format!("{g:.2}"));
        println!(
            "  {c:>7} {:>4} {:>5} {:>9} {:>9} {:>9} {:>6.2} {:>6}",
            est.observations,
            est.completions,
            f(est.latency_s),
            f(est.latency_p50_s),
            f(est.latency_p90_s),
            est.reliability,
            gap
        );
    }
    if rows.len() > shown {
        println!("  ... {} more clients", rows.len() - shown);
    }

    let stats = profiler.stats();
    println!("\nreconciling profile replay:");
    let mut c = Checker { failures: 0 };
    c.eq_u64(
        "profiler observations == client_outcome events",
        stats.observations,
        outcome_events,
    );
    c.eq_u64(
        "profiler store accounting: inserted == evictions + resident",
        stats.inserted,
        stats.evictions + stats.resident as u64,
    );
    if let Some(report) = report {
        c.eq_u64(
            "profiler completions == ledger completions",
            stats.completed,
            report.resources.completions,
        );
        c.eq_u64(
            "profiler quarantines == report quarantined",
            stats.quarantined,
            report.total_quarantined,
        );
        if async_engine {
            println!("  skip per-client completions (--async: in-flight attempts at run end)");
        } else {
            let mismatches = rows
                .iter()
                .filter(|(id, est)| report.completed_count.get(*id).unwrap_or(0) != est.completions)
                .count() as u64;
            c.eq_u64(
                "clients whose profiled completions disagree with the report",
                mismatches,
                0,
            );
        }
    }
    c.failures
}

fn overview(path: &str, events: &[Event]) {
    let mut kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut max_round = 0u64;
    let mut phase_us: BTreeMap<&'static str, u64> = BTreeMap::new();
    for e in events {
        *kinds.entry(e.kind()).or_default() += 1;
        max_round = max_round.max(e.round());
        if let Event::PhaseSpan { phase, wall_us, .. } = e {
            *phase_us.entry(phase.name()).or_default() += wall_us;
        }
    }
    println!(
        "{path}: {} events over {} rounds",
        events.len(),
        max_round + u64::from(!events.is_empty())
    );
    for (kind, n) in &kinds {
        println!("  {kind:<20} {n:>8}");
    }
    if phase_us.values().any(|&wall| wall > 0) {
        println!("phase wall totals:");
        for (phase, wall) in &phase_us {
            println!("  {phase:<20} {wall:>10}µs");
        }
    }
}

/// Clients with the most events, busiest first (ties broken by id).
fn busiest_clients(events: &[Event], n: usize) -> Vec<u64> {
    let mut per_client: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events {
        if let Event::ClientOutcome { client, .. } = e {
            *per_client.entry(*client).or_default() += 1;
        }
    }
    let mut ranked: Vec<(u64, u64)> = per_client.into_iter().collect();
    ranked.sort_by_key(|&(id, count)| (std::cmp::Reverse(count), id));
    ranked.into_iter().take(n).map(|(id, _)| id).collect()
}

/// One line per committed attempt of `id`, joining the round's accel
/// decision and any injected fault onto the outcome.
fn client_timeline(events: &[Event], id: u64) {
    let mut decisions: BTreeMap<u64, (String, f64, bool)> = BTreeMap::new();
    let mut faults: BTreeMap<(u64, u64), String> = BTreeMap::new();
    for e in events {
        match e {
            Event::AccelDecision {
                round,
                client,
                action,
                q,
                explore,
                ..
            } if *client == id => {
                decisions.insert(*round, (action.clone(), *q, *explore));
            }
            Event::FaultInjected {
                round,
                client,
                attempt,
                kind,
            } if *client == id => {
                faults.insert((*round, *attempt), kind.clone());
            }
            _ => {}
        }
    }
    println!("\nclient {id} timeline:");
    let mut attempts = 0u64;
    for e in events {
        if let Event::ClientOutcome {
            round,
            client,
            attempt,
            outcome,
            sim_duration_s,
        } = e
        {
            if *client != id {
                continue;
            }
            attempts += 1;
            let (action, q, explore) = decisions
                .get(round)
                .map_or(("-".to_string(), 0.0, false), Clone::clone);
            let mode = if explore { "explore" } else { "greedy" };
            let fault = faults.get(&(*round, *attempt)).map_or("-", String::as_str);
            println!(
                "  r{round:>4} a{attempt} {action:<14} q={q:>8.4} {mode:<7} \
                 fault={fault:<18} -> {:<11} ({sim_duration_s:.1}s)",
                outcome.name(),
            );
        }
    }
    if attempts == 0 {
        println!("  (no committed attempts)");
    }
}

/// Rebuild the latency and utilization histograms purely from the event
/// stream (the same values, in the same order, the runtime's commit phase
/// recorded).
fn replay_histograms(events: &[Event]) -> (Histogram, Histogram) {
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
            } if *outcome != OutcomeKind::Stalled && *outcome != OutcomeKind::Dropped => {
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

fn histogram_tables(events: &[Event]) {
    let (latency, utilization) = replay_histograms(events);
    print_histogram("client latency (s, replayed)", &latency.summary());
    print_histogram("round utilization (replayed)", &utilization.summary());
}

fn print_histogram(title: &str, h: &HistogramSummary) {
    println!(
        "\n{title}: n={} mean={:.2} min={:.2} max={:.2}",
        h.count,
        h.mean(),
        h.min,
        h.max
    );
    let peak = h.buckets.iter().map(|&(_, n)| n).max().unwrap_or(0).max(1);
    for &(bound, n) in &h.buckets {
        let bar = "#".repeat((n * 40 / peak) as usize);
        if bound.is_finite() {
            println!("  <= {bound:>10.2} {n:>8} {bar}");
        } else {
            println!("  >  overflow   {n:>8} {bar}");
        }
    }
}

/// Assert the event↔report identities; returns the failure count.
fn reconcile(events: &[Event], report: &ExperimentReport, async_engine: bool) -> u64 {
    let mut by_kind: BTreeMap<OutcomeKind, u64> = BTreeMap::new();
    let mut retries = 0u64;
    let mut agg_suppressed = 0u64;
    let mut round_ends: Vec<(u64, u64, u64)> = Vec::new();
    for e in events {
        match e {
            Event::ClientOutcome {
                outcome, attempt, ..
            } => {
                *by_kind.entry(*outcome).or_default() += 1;
                retries += u64::from(*attempt > 0);
            }
            Event::AggregationApplied { suppressed, .. } => agg_suppressed += suppressed,
            Event::RoundEnd {
                completed,
                dropped,
                quarantined,
                ..
            } => round_ends.push((*completed, *dropped, *quarantined)),
            _ => {}
        }
    }
    let n = |k: OutcomeKind| by_kind.get(&k).copied().unwrap_or(0);

    println!("\nreconciling against report `{}`:", report.label);
    let mut c = Checker { failures: 0 };
    c.eq_u64(
        "ledger completions == completed + duplicate outcomes",
        n(OutcomeKind::Completed) + n(OutcomeKind::Duplicate),
        report.resources.completions,
    );
    c.eq_u64(
        "ledger dropouts == quarantined + stalled + dropped outcomes",
        n(OutcomeKind::Quarantined) + n(OutcomeKind::Stalled) + n(OutcomeKind::Dropped),
        report.resources.dropouts,
    );
    c.eq_u64(
        "ledger quarantined == quarantined outcomes",
        n(OutcomeKind::Quarantined),
        report.resources.quarantined,
    );
    c.eq_u64(
        "report quarantined == quarantined outcomes",
        n(OutcomeKind::Quarantined),
        report.total_quarantined,
    );
    if async_engine {
        println!("  skip sync-only identities (--async: in-flight attempts at run end)");
    } else {
        c.eq_u64(
            "stall retries == outcomes with attempt > 0",
            retries,
            report.stall_retries,
        );
        c.eq_u64(
            "duplicates suppressed == duplicate outcomes",
            n(OutcomeKind::Duplicate),
            report.duplicates_suppressed,
        );
        c.eq_u64(
            "duplicates suppressed == sum of aggregation suppressions",
            agg_suppressed,
            report.duplicates_suppressed,
        );
        c.eq_u64(
            "round-end events == per-round records",
            round_ends.len() as u64,
            report.rounds.len() as u64,
        );
        for (i, (ends, rec)) in round_ends.iter().zip(&report.rounds).enumerate() {
            if ends.0 as usize != rec.completed
                || ends.1 as usize != rec.dropped
                || ends.2 as usize != rec.quarantined
            {
                println!(
                    "  FAIL round {i}: event ({}, {}, {}) vs record ({}, {}, {})",
                    ends.0, ends.1, ends.2, rec.completed, rec.dropped, rec.quarantined
                );
                c.failures += 1;
            }
        }
    }
    if let Some(summary) = &report.telemetry {
        // The embedded summary tallies every kind, including events a full
        // buffer would have dropped; with no drops it must match the file.
        if summary.events_dropped == 0 {
            c.eq_u64(
                "summary events_recorded == events in file",
                events.len() as u64,
                summary.events_recorded,
            );
        }
        let outcome_total: u64 = by_kind.values().sum();
        c.eq_u64(
            "summary client_outcome tally == outcome events",
            outcome_total,
            summary.event_count("client_outcome"),
        );
        if let Some(hist) = summary.histogram("client_latency_s") {
            let (latency, _) = replay_histograms(events);
            c.eq_u64(
                "latency histogram count == replayed observations",
                latency.summary().count,
                hist.count,
            );
        }
    }
    c.failures
}
