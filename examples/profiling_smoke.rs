//! Profiling smoke run: the online client profiler under fire. Runs the
//! synchronous Oort engine and the asynchronous FedBuff engine with
//! profiling enabled — fault-free and under the hostile chaos preset —
//! each at 1 and 4 worker threads, asserting bit-identical reports *and
//! event streams* across thread counts. The profiler folds observations
//! only in the sequential commit phase, so worker count must never leak
//! into its estimates or into the selections they drive.
//!
//! Also checks the label contract (`+prof` / `+prof0` suffixes) and that
//! the cold-start-only mode stays finite. Writes the sync chaos run's event
//! stream + report to `target/obs/profiling_sync.*` so ci.sh can replay
//! the stream through `obsdump --profiles` and reconcile the profiler's
//! accounting against the report.
//!
//! ```text
//! cargo run --release --example profiling_smoke
//! ```

use float::core::{AccelMode, Experiment, ExperimentConfig, ExperimentReport, SelectorChoice};
use float::obs::{digest, sink, ObsConfig, Telemetry};
use float::profile::ProfilingConfig;
use float::sim::FaultPlan;

const ROUNDS: usize = 60;
const SEED: u64 = 20240905;
const DIGEST_ROUNDS: u64 = 3;

fn config(
    selector: SelectorChoice,
    threads: usize,
    plan: FaultPlan,
    profiling: ProfilingConfig,
) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small(selector, AccelMode::Rlhf, ROUNDS);
    cfg.seed = SEED;
    cfg.fault_plan = plan;
    cfg.num_threads = threads;
    cfg.obs = ObsConfig::on();
    cfg.profiling = profiling;
    cfg
}

fn run(
    selector: SelectorChoice,
    threads: usize,
    plan: FaultPlan,
    profiling: ProfilingConfig,
) -> (ExperimentReport, Telemetry) {
    Experiment::new(config(selector, threads, plan, profiling))
        .expect("config validates")
        .run_traced()
}

/// 1-vs-4-thread bit-identity for one (selector, fault plan) cell with
/// profiling on. Returns the single-thread run's artefacts.
fn check(selector: SelectorChoice, plan: FaultPlan, what: &str) -> (ExperimentReport, Telemetry) {
    let (one, tel_one) = run(selector, 1, plan, ProfilingConfig::on());
    let (four, tel_four) = run(selector, 4, plan, ProfilingConfig::on());
    assert_eq!(
        one, four,
        "{} ({what}): profiled reports must be bit-identical across thread counts",
        one.label
    );
    assert_eq!(
        tel_one.events, tel_four.events,
        "{} ({what}): profiled event streams must be bit-identical across thread counts",
        one.label
    );
    assert!(one.is_finite(), "{}: report carries NaN/Inf", one.label);
    assert!(
        one.label.ends_with("+prof"),
        "{}: profiled run must carry the +prof label suffix",
        one.label
    );
    assert!(
        tel_one.summary.counter("profile_observations") > 0,
        "{}: profiler observed nothing in {ROUNDS} rounds",
        one.label
    );
    (one, tel_one)
}

fn summarize(r: &ExperimentReport, tel: &Telemetry, what: &str) {
    println!("\n=== {} ({what}) ===", r.label);
    println!(
        "  {} completions, {} dropouts over {} rounds ({:.1} virtual hours)",
        r.total_completions,
        r.total_dropouts,
        r.rounds.len(),
        r.wall_clock_h
    );
    println!(
        "  profiler: {} observations folded, {} selections / {} already covered",
        tel.summary.counter("profile_observations"),
        tel.summary.counter("profile_selected_clients"),
        tel.summary.counter("profile_covered_clients"),
    );
    if let Some(h) = tel.summary.histogram("profile_estimate_error") {
        println!(
            "  estimate error: {} predictions scored, mean relative error {:.3}",
            h.count,
            h.mean()
        );
    }
    for round in 0..DIGEST_ROUNDS {
        println!("  {}", digest::round_digest(round, &tel.events));
    }
}

fn main() {
    println!(
        "profiling smoke: {ROUNDS} rounds, seed {SEED}, sync Oort + async FedBuff, \
         fault-free and chaos, 1 vs 4 threads each"
    );

    // Fault-free first: estimates converge on a stable population.
    let (sync_calm, sync_calm_tel) = check(SelectorChoice::Oort, FaultPlan::none(), "fault-free");
    summarize(&sync_calm, &sync_calm_tel, "fault-free");
    let (async_calm, async_calm_tel) =
        check(SelectorChoice::FedBuff, FaultPlan::none(), "fault-free");
    summarize(&async_calm, &async_calm_tel, "fault-free");

    // Chaos: quarantines, stalls, and duplicates must update reliability
    // without poisoning the latency/bandwidth estimators, and the
    // commit-phase fold must stay thread-count invariant under retries.
    let (sync_chaos, sync_chaos_tel) = check(SelectorChoice::Oort, FaultPlan::chaos(), "chaos");
    summarize(&sync_chaos, &sync_chaos_tel, "chaos");
    assert!(
        sync_chaos.total_quarantined > 0,
        "chaos preset quarantined nothing in {ROUNDS} rounds"
    );
    let (async_chaos, async_chaos_tel) =
        check(SelectorChoice::FedBuff, FaultPlan::chaos(), "chaos");
    summarize(&async_chaos, &async_chaos_tel, "chaos");

    // Cold-start-only mode: estimates are folded but never consulted —
    // the selector sees only the cold-start policy. Must stay finite,
    // deterministic, and distinctly labelled.
    let (cold, _) = run(
        SelectorChoice::Oort,
        1,
        FaultPlan::chaos(),
        ProfilingConfig::cold_only(),
    );
    assert!(cold.is_finite(), "cold-only report carries NaN/Inf");
    assert!(
        cold.label.ends_with("+prof0"),
        "{}: cold-only run must carry the +prof0 label suffix",
        cold.label
    );

    // Persist the sync chaos run's artefacts so obsdump --profiles can
    // replay the stream and reconcile the profiler's accounting (ci.sh
    // asserts the replay identities).
    let dir = std::path::Path::new("target/obs");
    sink::write_jsonl(dir.join("profiling_sync.jsonl"), &sync_chaos_tel.events)
        .expect("write event stream");
    let report_json = serde_json::to_string_pretty(&sync_chaos).expect("report serializes");
    std::fs::write(
        dir.join("profiling_sync.report.json"),
        format!("{report_json}\n"),
    )
    .expect("write report json");
    println!(
        "\nwrote target/obs/profiling_sync.jsonl ({} events) and profiling_sync.report.json",
        sync_chaos_tel.events.len()
    );

    println!("\nprofiling smoke passed: estimates deterministic, faults folded, labels correct.");
}
