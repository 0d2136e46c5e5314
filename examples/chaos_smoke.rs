//! Chaos smoke run: 100 rounds of the synchronous and asynchronous
//! engines under the hostile fault preset, each at 1 and 4 worker
//! threads, with telemetry enabled throughout. Asserts the hardening
//! contract end to end — no panic, no NaN/Inf anywhere in the reports,
//! quarantined updates accounted identically by ledger and report, and
//! bit-identical results *and event streams* across thread counts — then
//! prints a fault-accounting summary and the first rounds' telemetry
//! digests, and writes each engine's event stream + report to
//! `target/obs/` for downstream tooling (`obsdump`, see ci.sh).
//!
//! ```text
//! cargo run --release --example chaos_smoke
//! ```

use float::core::{AccelMode, Experiment, ExperimentConfig, ExperimentReport, SelectorChoice};
use float::obs::{digest, sink, ObsConfig, Telemetry};
use float::sim::FaultPlan;

const ROUNDS: usize = 100;
const SEED: u64 = 20240422;
const DIGEST_ROUNDS: u64 = 3;

fn run(selector: SelectorChoice, threads: usize) -> (ExperimentReport, Telemetry) {
    let mut cfg = ExperimentConfig::small(selector, AccelMode::Rlhf, ROUNDS);
    cfg.seed = SEED;
    cfg.fault_plan = FaultPlan::chaos();
    cfg.num_threads = threads;
    cfg.obs = ObsConfig::on();
    Experiment::new(cfg).expect("config validates").run_traced()
}

fn check(selector: SelectorChoice) -> (ExperimentReport, Telemetry) {
    let (one, tel_one) = run(selector, 1);
    let (four, tel_four) = run(selector, 4);
    assert_eq!(
        one, four,
        "{}: faulted reports must be bit-identical across thread counts",
        one.label
    );
    assert_eq!(
        tel_one.events, tel_four.events,
        "{}: telemetry event streams must be bit-identical across thread counts",
        one.label
    );
    assert!(one.is_finite(), "{}: report carries NaN/Inf", one.label);
    assert_eq!(
        one.total_quarantined, one.resources.quarantined,
        "{}: ledger and report disagree on quarantines",
        one.label
    );
    assert!(
        one.total_quarantined > 0,
        "{}: chaos preset quarantined nothing in {ROUNDS} rounds",
        one.label
    );
    (one, tel_one)
}

fn summarize(r: &ExperimentReport, tel: &Telemetry) {
    println!("\n=== {} ===", r.label);
    println!(
        "  {} completions, {} dropouts over {} rounds ({:.1} virtual hours)",
        r.total_completions,
        r.total_dropouts,
        r.rounds.len(),
        r.wall_clock_h
    );
    println!(
        "  faults absorbed: {} quarantined, {} duplicates suppressed, {} stall retries",
        r.total_quarantined, r.duplicates_suppressed, r.stall_retries
    );
    println!(
        "  accuracy: top10% {:.3}  mean {:.3}  bottom10% {:.3}",
        r.accuracy.top10, r.accuracy.mean, r.accuracy.bottom10
    );
    println!(
        "  telemetry: {} events recorded, {} dropped",
        tel.summary.events_recorded, tel.summary.events_dropped
    );
    for round in 0..DIGEST_ROUNDS {
        println!("  {}", digest::round_digest(round, &tel.events));
    }
}

fn main() {
    let plan = FaultPlan::chaos();
    println!(
        "chaos smoke: {ROUNDS} rounds, seed {SEED}, rates crash {:.0}% / stall {:.0}% / \
         duplicate {:.0}% / corrupt {:.0}%, {} stall retries @ {:.0}s backoff",
        plan.crash_rate * 100.0,
        plan.stall_rate * 100.0,
        plan.duplicate_rate * 100.0,
        plan.corrupt_rate * 100.0,
        plan.stall_max_retries,
        plan.stall_backoff_s,
    );

    let (sync, sync_tel) = check(SelectorChoice::FedAvg);
    summarize(&sync, &sync_tel);
    assert!(sync.stall_retries > 0, "sync engine retried no stalls");

    let (async_r, async_tel) = check(SelectorChoice::FedBuff);
    summarize(&async_r, &async_tel);

    // Persist both runs' artefacts so obsdump can replay and audit them
    // (ci.sh asserts the event↔ledger identities for each engine).
    let dir = std::path::Path::new("target/obs");
    for (name, report, tel) in [
        ("chaos_sync", &sync, &sync_tel),
        ("chaos_async", &async_r, &async_tel),
    ] {
        sink::write_jsonl(dir.join(format!("{name}.jsonl")), &tel.events)
            .expect("write event stream");
        let report_json = serde_json::to_string_pretty(report).expect("report serializes");
        std::fs::write(
            dir.join(format!("{name}.report.json")),
            format!("{report_json}\n"),
        )
        .expect("write report json");
        println!(
            "\nwrote target/obs/{name}.jsonl ({} events) and {name}.report.json",
            tel.events.len()
        );
    }

    println!("\nchaos smoke passed: finite, deterministic, faults accounted.");
}
