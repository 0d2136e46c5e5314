//! Compact and pretty JSON are one writer's two layouts.
//!
//! Every `Serialize` body writes into a `serde::Writer` that is either
//! compact (`serde_json::to_string`: the JSONL streams, the round logs,
//! floatbench's report digest) or pretty (`to_string_pretty`: the goldens,
//! the BENCH files, report files). The oracle here shares no code with the
//! writer: deleting the whitespace outside strings from the pretty text must
//! give the compact text. The compact text must also parse back, typed and
//! as a `Value` tree that re-prints it; and every committed JSON file the
//! shim wrote must re-print to its own bytes, which pins the pretty layout.

use std::path::Path;

use float::core::{AccelMode, Experiment, ExperimentConfig, SelectorChoice};
use float::data::Task;
use float::obs::ObsConfig;
use float::sim::FaultPlan;
use float::sweep::{run_sweep, Halving, Knob, SweepOptions, SweepPlan};
use float_bench::Scale;
use serde::Serialize;
use serde_json::Value;

/// `text` without the whitespace JSON ignores, which is all of it outside
/// strings.
fn strip_ws(text: &str) -> String {
    let (mut in_string, mut escaped) = (false, false);
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else if c == '"' {
            in_string = true;
        } else if matches!(c, ' ' | '\t' | '\n' | '\r') {
            continue;
        }
        out.push(c);
    }
    out
}

/// The compact text of `x`, after checking it against the pretty text and
/// against the tree it parses into.
fn streams_like_the_tree<T: Serialize>(what: &str, x: &T) -> String {
    let compact = serde_json::to_string(x).expect("writes");
    let pretty = serde_json::to_string_pretty(x).expect("writes");
    assert_eq!(
        strip_ws(&pretty),
        compact,
        "{what}: pretty text is not the compact text laid out"
    );
    let tree: Value = serde_json::from_str(&compact).expect("parses");
    assert_eq!(
        serde_json::to_string(&tree).expect("writes"),
        compact,
        "{what}: the parsed tree re-prints other text"
    );
    compact
}

fn run(cfg: ExperimentConfig) -> float::core::ExperimentReport {
    Experiment::new(cfg).expect("valid config").run()
}

/// Every JSON file the shim wrote re-prints to its own bytes: parsed into a
/// `Value` and written pretty, it is the file's text up to the final
/// newline (the BENCH files end in one, the `pinned_pool0_*` goldens do
/// not). `results_quick.json` is not the shim's text and is left out.
#[test]
fn committed_json_files_reprint_byte_for_byte() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let listed = |dir: &Path, keep: fn(&str) -> bool| -> Vec<_> {
        let entries = std::fs::read_dir(dir).expect("directory lists");
        let mut paths: Vec<_> = entries
            .map(|e| e.expect("entry reads").path())
            .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(keep))
            .collect();
        paths.sort();
        paths
    };
    let mut files = listed(&root.join("tests/data"), |n| n.ends_with(".json"));
    files.extend(listed(root, |n| {
        n.starts_with("BENCH") && n.ends_with(".json")
    }));
    // The three `tests/data` goldens, `BENCHMARK.json` and
    // `BENCH_kernels.json`; experiment tables are `expfig` output and are
    // not committed.
    assert!(files.len() >= 5, "{files:?}");
    for path in &files {
        let text = std::fs::read_to_string(path).expect("file reads");
        let tree: Value = serde_json::from_str(&text).expect("file parses");
        let reprinted = serde_json::to_string_pretty(&tree).expect("writes");
        assert!(
            text.strip_suffix('\n').unwrap_or(&text) == reprinted,
            "{} does not re-print to its own bytes",
            path.display()
        );
    }
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
        assert_eq!(back, report, "{name}: compact text does not round-trip");
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

/// The Q-table's `Serialize` is hand-written: `(num_actions, sorted rows)`.
#[test]
fn trained_agent_streams_like_the_tree() {
    let cfg = ExperimentConfig::small(SelectorChoice::Oort, AccelMode::Rlhf, 6);
    let (_, agent) = Experiment::new(cfg).expect("valid").run_capturing_agent();
    assert!(agent.table().num_rows() > 0, "the agent learned nothing");
    streams_like_the_tree("agent", &agent);
}
