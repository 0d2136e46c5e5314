//! `obsdump` — replay a telemetry JSONL event stream into per-client
//! timelines and histogram tables, and (with `--report`) audit the stream
//! against an `ExperimentReport`'s ledger and counters.
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
//! [`float_profile::ClientProfiler`] ([`float_core::audit::replay_profiles`],
//! the fold the `profile_gap` figure scores) and prints the per-client
//! profile table (estimated latency, reliability, observation counts;
//! witnessed bandwidth is not derivable from the stream, which carries
//! durations but not phase rates).
//!
//! With `--report`: prints every identity [`float_core::audit::audit`]
//! finds broken between the stream and the report — ledger totals,
//! retry and dedup counters, per-round records, report totals, attempt
//! batches, the embedded telemetry summary and the profiler replay (the
//! list is in that module's docs). `--async` names a FedBuff run, whose
//! attempts still in flight at run end are in the stream but not in the
//! report's round bookkeeping. Any broken identity exits 1, making this a
//! CI oracle for the telemetry pipeline (see `ci.sh`); an unreadable or
//! malformed input exits 2.

use std::collections::BTreeMap;

use float_core::audit::{audit, replay_histograms, replay_profiles};
use float_core::ExperimentReport;
use float_obs::{Event, HistogramSummary};

fn usage() -> ! {
    eprintln!(
        "usage: obsdump EVENTS.jsonl [--report REPORT.json] [--clients N] \
         [--client ID] [--async] [--profiles]"
    );
    std::process::exit(2);
}

/// Read `path` and parse its text; the error names the file.
fn load<T>(path: &str, parse: impl FnOnce(&str) -> Result<T, String>) -> Result<T, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&body).map_err(|e| format!("{path}: {e}"))
}

fn load_events(path: &str) -> Result<Vec<Event>, String> {
    load(path, float_obs::sink::from_jsonl)
}

fn load_report(path: &str) -> Result<ExperimentReport, String> {
    load(path, |body| {
        serde_json::from_str(body).map_err(|e| format!("not an ExperimentReport: {e}"))
    })
}

/// Print an input error and exit 2, as for bad arguments.
fn or_exit<T>(loaded: Result<T, String>) -> T {
    loaded.unwrap_or_else(|e| {
        eprintln!("obsdump: {e}");
        std::process::exit(2);
    })
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

    let events = or_exit(load_events(&path));
    let report = report_path.map(|rp| or_exit(load_report(&rp)));
    overview(&path, &events);

    if let Some(id) = only_client {
        client_timeline(&events, id);
    } else {
        for id in busiest_clients(&events, top_clients) {
            client_timeline(&events, id);
        }
    }
    histogram_tables(&events);
    if profiles {
        profile_table(&events, report.as_ref());
    }
    let Some(report) = &report else { return };
    println!("\nauditing against report `{}`:", report.label);
    let failed = audit(report, &events, async_engine);
    for m in &failed {
        println!(
            "  FAIL {}: stream says {}, report says {}",
            m.identity, m.stream, m.report
        );
    }
    if !failed.is_empty() {
        eprintln!("obsdump: event stream and report DISAGREE");
        std::process::exit(1);
    }
    if profiles {
        println!("\nobsdump: profile replay reconciles exactly.");
    }
    println!("\nobsdump: event stream and report reconcile exactly.");
}

/// Replay the outcome stream through a fresh profiler and print the
/// profile table; the gap column needs the report.
fn profile_table(events: &[Event], report: Option<&ExperimentReport>) {
    let profiler = replay_profiles(events, |_, _, _| {});
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Write `body` to a fresh file under the temp dir; returns its path.
    fn scratch_file(name: &str, body: &str) -> String {
        let path = std::env::temp_dir().join(format!("obsdump-{}-{name}", std::process::id()));
        std::fs::write(&path, body).expect("write scratch input");
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn bad_inputs_are_errors_naming_the_file() {
        let missing = std::env::temp_dir().join("obsdump-no-such-file.jsonl");
        let missing = missing.to_string_lossy();
        let err = load_events(&missing).expect_err("missing file");
        assert!(err.starts_with(&format!("cannot read {missing}")), "{err}");

        let event =
            r#"{"RoundEnd":{"round":0,"sim_s":1.0,"completed":1,"dropped":0,"quarantined":0}}"#;
        let jsonl = scratch_file("bad.jsonl", &format!("{event}\n{{\"RoundEnd\":\n"));
        let err = load_events(&jsonl).expect_err("malformed line");
        assert!(err.starts_with(&format!("{jsonl}: line 2")), "{err}");

        let not_report = scratch_file("not_report.json", r#"{"label": "x", "rounds": []}"#);
        let err = load_report(&not_report).expect_err("not a report");
        assert!(
            err.starts_with(&format!("{not_report}: not an ExperimentReport")),
            "{err}"
        );
        for path in [jsonl, not_report] {
            std::fs::remove_file(path).expect("remove scratch input");
        }
    }
}
