//! Compact JSON streams byte for byte like the tree writer.
//!
//! `serde_json::to_string` writes through `Serialize::write_json`, with no
//! `Value` tree; `Value`'s own `write_json` is the tree writer, so
//! `to_string(&x.to_value())` is the text compact output had before it
//! streamed. The goldens pin only pretty output, which still goes through
//! the tree; this suite pins the streaming path against it on every kind of
//! value the workspace exports.

use float::core::{AccelMode, Experiment, ExperimentConfig, SelectorChoice};
use float::data::Task;
use float::obs::ObsConfig;
use float::sim::FaultPlan;
use float::sweep::{run_sweep, Halving, Knob, SweepOptions, SweepPlan};
use float_bench::Scale;
use serde::Serialize;

/// The streamed text, after checking it against the tree writer's.
fn streams_like_the_tree<T: Serialize>(what: &str, x: &T) -> String {
    let streamed = serde_json::to_string(x).expect("streams");
    let tree = serde_json::to_string(&x.to_value()).expect("tree writes");
    assert_eq!(
        streamed, tree,
        "{what}: streamed text differs from the tree writer's"
    );
    streamed
}

fn run(cfg: ExperimentConfig) -> float::core::ExperimentReport {
    Experiment::new(cfg).expect("valid config").run()
}

/// The configs behind `tests/data/pinned_pool0_*`: their reports, and
/// the reports' JSONL round logs line by line.
#[test]
fn pinned_reports_stream_like_the_tree() {
    let fedavg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Rlhf, 12);
    let mut oort = ExperimentConfig::small(SelectorChoice::Oort, AccelMode::Off, 10);
    oort.fault_plan = FaultPlan::chaos();
    for (name, cfg) in [("fedavg+rlhf", fedavg), ("oort+chaos", oort)] {
        let report = run(cfg);
        let text = streams_like_the_tree(name, &report);
        let back: float::core::ExperimentReport = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, report, "{name}: streamed text does not round-trip");
        let log = report.round_log_jsonl();
        assert_eq!(log.lines().count(), report.rounds.len());
        for (line, record) in log.lines().zip(&report.rounds) {
            assert_eq!(line, streams_like_the_tree(name, record));
        }
    }
}

/// FedBuff under the chaos faults with telemetry on: the report (with its
/// telemetry summary) and every event of its stream, alone and as JSONL.
#[test]
fn fedbuff_chaos_report_and_events_stream_like_the_tree() {
    let mut cfg = ExperimentConfig::small(SelectorChoice::FedBuff, AccelMode::Rlhf, 8);
    cfg.fault_plan = FaultPlan::chaos();
    cfg.obs = ObsConfig::on();
    let (report, telemetry) = Experiment::new(cfg).expect("valid").run_traced();
    assert!(report.telemetry.is_some());
    streams_like_the_tree("fedbuff report", &report);
    assert!(!telemetry.events.is_empty());
    let jsonl = float::obs::sink::to_jsonl(&telemetry.events);
    for (line, event) in jsonl.lines().zip(&telemetry.events) {
        assert_eq!(line, streams_like_the_tree("event", event));
    }
    assert_eq!(jsonl.lines().count(), telemetry.events.len());
    assert_eq!(
        float::obs::sink::from_jsonl(&jsonl).expect("replays"),
        telemetry.events
    );

    // A crafted line nested deep enough to overflow the parser's stack is
    // a located error, not an abort.
    let hostile = jsonl + &"[".repeat(200_000);
    let err = float::obs::sink::from_jsonl(&hostile).expect_err("must fail");
    let want = format!(
        "line {}: malformed event (nesting deeper than 128 at byte 128)",
        telemetry.events.len() + 1
    );
    assert!(
        err.starts_with(&want),
        "{}",
        &err[..want.len().min(err.len())]
    );
}

#[test]
fn config_presets_stream_like_the_tree() {
    let mut configs = vec![
        ExperimentConfig::small(SelectorChoice::Oort, AccelMode::Rlhf, 5),
        ExperimentConfig::paper_e2e(Task::Femnist, SelectorChoice::Refl, AccelMode::Heuristic, 7),
    ];
    for scale in [Scale::Quick, Scale::Paper, Scale::Pop1M, Scale::Pop10m] {
        configs.push(scale.config(Task::Cifar10, SelectorChoice::FedBuff, AccelMode::Static(3)));
    }
    let mut chaos = configs[0];
    chaos.fault_plan = FaultPlan::chaos();
    chaos.obs = ObsConfig::on();
    configs.push(chaos);
    for cfg in &configs {
        let text = streams_like_the_tree("config", cfg);
        let back: ExperimentConfig = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, *cfg);
    }
}

#[test]
fn halving_sweep_outcome_streams_like_the_tree() {
    let mut base = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Off, 4);
    base.num_clients = 12;
    base.cohort_size = 3;
    base.mean_samples = 24;
    let axes = vec![(2..6).map(Knob::CohortSize).collect()];
    let plan = SweepPlan::grid(base, 5, &axes);
    let opts = SweepOptions {
        halving: Some(Halving { eta: 2, r0: 1 }),
        ..Default::default()
    };
    let outcome = run_sweep(&plan, &opts).expect("sweep runs");
    assert!(!outcome.pruned.is_empty(), "halving pruned nothing");
    streams_like_the_tree("sweep outcome", &outcome);
}

/// The Q-table's `Serialize` is hand-written and streams through the
/// provided default, which writes its tree.
#[test]
fn trained_agent_streams_like_the_tree() {
    let cfg = ExperimentConfig::small(SelectorChoice::Oort, AccelMode::Rlhf, 6);
    let (_, agent) = Experiment::new(cfg).expect("valid").run_capturing_agent();
    assert!(agent.table().num_rows() > 0, "the agent learned nothing");
    streams_like_the_tree("agent", &agent);
}
