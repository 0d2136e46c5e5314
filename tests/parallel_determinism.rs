//! The thread-count independence contract of the two-phase engine: a run
//! with one worker and a run with many workers must produce *bit-identical*
//! reports. Everything order-sensitive (sampler RNG, agent exploration,
//! error-feedback residuals, ledger sums, aggregation) lives in the
//! sequential plan/commit phases, so `num_threads` may change wall-clock
//! time but never a single output bit.

use float::accel::{AccelAction, ActionCatalogue};
use float::core::{AccelMode, Experiment, ExperimentConfig, SelectorChoice};
use float::obs::{Event, ObsConfig, Telemetry};
use float::sim::FaultPlan;

fn run_with_threads(mut cfg: ExperimentConfig, threads: usize) -> float::core::ExperimentReport {
    cfg.num_threads = threads;
    Experiment::new(cfg).expect("valid config").run()
}

fn assert_bit_identical(cfg: ExperimentConfig) {
    let one = run_with_threads(cfg, 1);
    let four = run_with_threads(cfg, 4);
    // Field-by-field first, so a regression names the diverging field
    // instead of dumping two whole reports.
    assert_eq!(one.label, four.label);
    assert_eq!(one.selected_count, four.selected_count, "selected_count");
    assert_eq!(one.completed_count, four.completed_count, "completed_count");
    assert_eq!(one.total_dropouts, four.total_dropouts, "total_dropouts");
    assert_eq!(
        one.total_completions, four.total_completions,
        "total_completions"
    );
    assert_eq!(
        one.client_accuracies, four.client_accuracies,
        "client_accuracies"
    );
    assert_eq!(one.resources, four.resources, "resource ledger");
    assert_eq!(one.wall_clock_h, four.wall_clock_h, "wall clock");
    assert_eq!(
        one.total_quarantined, four.total_quarantined,
        "total_quarantined"
    );
    assert_eq!(
        one.duplicates_suppressed, four.duplicates_suppressed,
        "duplicates_suppressed"
    );
    assert_eq!(one.stall_retries, four.stall_retries, "stall_retries");
    assert_eq!(one.technique_stats, four.technique_stats, "technique stats");
    assert_eq!(one.rounds, four.rounds, "per-round records");
    // And the whole report, in case a field is added later and forgotten
    // above.
    assert_eq!(one, four, "reports must be bit-identical");
}

#[test]
fn sync_rlhf_is_thread_count_independent() {
    // RLHF exercises every order-sensitive path: agent exploration RNG,
    // per-client EMA, technique stats, and (via the extended catalogue
    // below) error feedback.
    assert_bit_identical(ExperimentConfig::small(
        SelectorChoice::FedAvg,
        AccelMode::Rlhf,
        6,
    ));
}

#[test]
fn sync_oort_off_is_thread_count_independent() {
    // Utility-guided selection consumes per-attempt utilities computed in
    // the parallel phase — feedback order must not depend on workers.
    assert_bit_identical(ExperimentConfig::small(
        SelectorChoice::Oort,
        AccelMode::Off,
        6,
    ));
}

#[test]
fn async_fedbuff_is_thread_count_independent() {
    // The event-driven engine: launch batches, staleness bookkeeping, and
    // the completion heap must all be worker-count independent.
    assert_bit_identical(ExperimentConfig::small(
        SelectorChoice::FedBuff,
        AccelMode::Rlhf,
        6,
    ));
}

#[test]
fn static_prune_is_thread_count_independent() {
    // Every attempt of a round reads one prune mask, filled by whichever
    // worker trains first: the value is a function of the global
    // parameters alone, so the winner of that race must not matter — in
    // the sync engine or across FedBuff's launch batches. (The RLHF runs
    // above and below fill the same slots for the attempts the agent
    // prunes.)
    let prune50 = ActionCatalogue::paper()
        .index_of(AccelAction::Prune50)
        .expect("in the paper catalogue");
    for selector in [SelectorChoice::FedAvg, SelectorChoice::FedBuff] {
        assert_bit_identical(ExperimentConfig::small(
            selector,
            AccelMode::Static(prune50),
            6,
        ));
    }
}

#[test]
fn extended_catalogue_error_feedback_is_thread_count_independent() {
    // Top-k sparsification engages per-client error-feedback residuals,
    // which are cloned in the execute phase and committed in client order.
    assert_bit_identical(ExperimentConfig::small(
        SelectorChoice::FedAvg,
        AccelMode::RlhfExtended,
        8,
    ));
}

#[test]
fn sync_chaos_is_thread_count_independent() {
    // Fault injection must not break the contract: the fault draw is a
    // pure function of (seed, round, client, attempt), quarantine and
    // dedup run in the sequential commit path, and stall retries run
    // sequentially in cohort order.
    let mut cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Rlhf, 6);
    cfg.fault_plan = FaultPlan::chaos();
    assert_bit_identical(cfg);
}

#[test]
fn async_chaos_is_thread_count_independent() {
    // The event-driven engine under faults: duplicate buffer entries and
    // quarantined arrivals must be worker-count independent too.
    let mut cfg = ExperimentConfig::small(SelectorChoice::FedBuff, AccelMode::Rlhf, 6);
    cfg.fault_plan = FaultPlan::chaos();
    assert_bit_identical(cfg);
}

fn run_traced_with_threads(
    mut cfg: ExperimentConfig,
    threads: usize,
) -> (float::core::ExperimentReport, Telemetry) {
    cfg.num_threads = threads;
    cfg.obs = ObsConfig::on();
    Experiment::new(cfg).expect("valid config").run_traced()
}

fn assert_telemetry_bit_identical(cfg: ExperimentConfig) {
    let (report_one, tel_one) = run_traced_with_threads(cfg, 1);
    let (report_four, tel_four) = run_traced_with_threads(cfg, 4);
    // The event stream is the strictest artefact: every event, in order.
    // Compare through JSON lines so a mismatch names the first diverging
    // event instead of dumping two megabyte-scale vectors.
    assert_eq!(tel_one.events.len(), tel_four.events.len(), "event count");
    for (i, (a, b)) in tel_one.events.iter().zip(&tel_four.events).enumerate() {
        let (ja, jb) = (event_json(a), event_json(b));
        assert_eq!(ja, jb, "event {i} diverged between 1 and 4 threads");
    }
    assert_eq!(tel_one.summary, tel_four.summary, "telemetry summary");
    assert_eq!(report_one, report_four, "reports with telemetry embedded");
}

fn event_json(event: &Event) -> String {
    float::obs::sink::to_jsonl(std::slice::from_ref(event))
}

#[test]
fn sync_telemetry_stream_is_thread_count_independent() {
    // Telemetry on, fault-free: metric recording and event emission sites
    // must be worker-count independent.
    assert_telemetry_bit_identical(ExperimentConfig::small(
        SelectorChoice::FedAvg,
        AccelMode::Rlhf,
        6,
    ));
}

#[test]
fn sync_chaos_telemetry_stream_is_thread_count_independent() {
    // Telemetry on under the chaos plan: fault events, quarantine
    // outcomes, retry attempts, and dedup counts all recorded — still
    // bit-identical across worker counts.
    let mut cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Rlhf, 6);
    cfg.fault_plan = FaultPlan::chaos();
    assert_telemetry_bit_identical(cfg);
}

#[test]
fn async_telemetry_stream_is_thread_count_independent() {
    assert_telemetry_bit_identical(ExperimentConfig::small(
        SelectorChoice::FedBuff,
        AccelMode::Rlhf,
        6,
    ));
}

#[test]
fn async_chaos_telemetry_stream_is_thread_count_independent() {
    let mut cfg = ExperimentConfig::small(SelectorChoice::FedBuff, AccelMode::Rlhf, 6);
    cfg.fault_plan = FaultPlan::chaos();
    assert_telemetry_bit_identical(cfg);
}

#[test]
fn env_override_beats_config() {
    // FLOAT_THREADS wins over ExperimentConfig::num_threads. Runs in its
    // own process-global env slot; keep it the only env-touching test.
    let mut cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Off, 2);
    cfg.num_threads = 1;
    std::env::set_var("FLOAT_THREADS", "3");
    assert_eq!(cfg.effective_threads(), 3);
    std::env::remove_var("FLOAT_THREADS");
    assert_eq!(cfg.effective_threads(), 1);
}
