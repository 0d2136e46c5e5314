//! The metric registry, and `BENCHMARK.json` generated from and checked
//! against it, so the file and the program cannot drift apart.

use serde_json::Value;

use crate::json::{object, value};
use crate::stats::{valid_name, Better, Bound};
use crate::workloads::WORKLOADS;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 30;

/// The command a checkout is benchmarked with; the driver appends
/// `--workload --seed --seconds --trace`.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "floatbench/Cargo.toml",
    "--",
];

const PATHS: [&str; 1] = ["floatbench"];

use Better::{Higher, Lower};

/// `(name, unit, better, bound)` of every end-to-end metric: what a user
/// running the simulator sees. The relative share goes to
/// `BENCHMARK.json`; `--check` also applies the absolute floor.
pub const END_TO_END: [(&str, &str, Better, Bound); 3] = [
    (
        "run_s",
        "s",
        Lower,
        Bound::Within {
            rel: 0.25,
            abs: 0.0,
        },
    ),
    (
        "setup_s",
        "s",
        Lower,
        Bound::Within {
            rel: 0.25,
            abs: 0.005,
        },
    ),
    (
        "peak_rss_mib",
        "MiB",
        Lower,
        Bound::Within {
            rel: 0.15,
            abs: 1.0,
        },
    ),
];

/// `(name, unit, better)` of every per-layer metric; README.md defines
/// each and says which end-to-end metric it should move on which
/// workload.
pub const PER_LAYER: [(&str, &str, Better); 56] = [
    // Simulated outcomes: exact for a given seed. A change that only
    // speeds the simulator up must leave them bit-equal.
    ("sim_final_acc", "ratio", Higher),
    ("sim_dropout_frac", "ratio", Lower),
    ("sim_wall_h", "h", Lower),
    ("sim_wasted_frac", "ratio", Lower),
    ("report_digest48", "count", Higher),
    ("tensor.gemm_gflops", "GFLOP/s", Higher),
    ("tensor.train_samples_per_s", "1/s", Higher),
    ("tensor.eval_us", "us", Lower),
    ("accel.apply_action_us", "us", Lower),
    ("accel.transform_update_us", "us", Lower),
    ("accel.compress_mb_per_s", "MB/s", Higher),
    ("sim.client_round_ns", "ns", Lower),
    ("sim.fault_draw_ns", "ns", Lower),
    ("traces.index_build_ms", "ms", Lower),
    ("traces.index_heap_mib", "MiB", Lower),
    ("traces.avail_sweep_us", "us", Lower),
    ("traces.pool_sample_us", "us", Lower),
    ("traces.snapshot_miss_ns", "ns", Lower),
    ("traces.snapshot_hit_ns", "ns", Lower),
    ("traces.transitions_per_round", "count", Lower),
    ("data.shard_miss_us", "us", Lower),
    ("data.shard_hit_ns", "ns", Lower),
    ("data.shard_hit_ratio", "ratio", Higher),
    ("data.shard_derivations", "count", Lower),
    ("select.select_us", "us", Lower),
    ("rl.choose_action_ns", "ns", Lower),
    ("rl.feedback_ns", "ns", Lower),
    ("rl.qtable_entries", "count", Lower),
    ("profile.observe_ns", "ns", Lower),
    ("profile.estimate_ns", "ns", Lower),
    ("profile.store_resident", "count", Lower),
    ("obs.record_ns", "ns", Lower),
    ("obs.jsonl_ns_per_event", "ns", Lower),
    ("obs.events_per_round", "count", Lower),
    ("obs.enabled_overhead_frac", "ratio", Lower),
    ("core.plan_ms_per_round", "ms", Lower),
    ("core.execute_ms_per_round", "ms", Lower),
    ("core.commit_ms_per_round", "ms", Lower),
    ("core.unattributed_frac", "ratio", Lower),
    ("core.execute_share", "ratio", Higher),
    ("core.execute_accounted_frac", "ratio", Higher),
    ("core.select_avail_share", "ratio", Lower),
    ("core.aggregate_us", "us", Lower),
    ("core.attempts_per_round", "count", Lower),
    ("core.retries_per_round", "count", Lower),
    ("core.trace_overhead_frac", "ratio", Lower),
    ("core.run_ms_per_round", "ms", Lower),
    ("core.traced_samples", "count", Higher),
    ("core.engine_speedup_t2", "ratio", Higher),
    ("core.pipeline_speedup_t2", "ratio", Higher),
    ("sweep.rounds_executed_frac", "ratio", Lower),
    ("sweep.trials_per_h", "1/h", Higher),
    ("sweep.halving_regret", "ratio", Lower),
    ("host.oncpu_frac", "ratio", Higher),
    ("host.ref_ms", "ms", Lower),
    ("host.ref_spread", "ratio", Lower),
];

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

/// `(name, unit)` of the metrics one pass must report, in order.
pub fn registered(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    }
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let strings = |items: &[&str]| Value::Array(items.iter().map(|s| text(s)).collect());
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| object([("name", text(name)), ("why", text(why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|&(name, unit, better, bound)| {
            let Bound::Within { rel, .. } = bound else {
                unreachable!("every end-to-end metric has a relative bound");
            };
            object([
                ("name", text(name)),
                ("unit", text(unit)),
                ("better", text(better.name())),
                ("bound", value(&rel)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|&(name, unit, better)| {
            object([
                ("name", text(name)),
                ("unit", text(unit)),
                ("better", text(better.name())),
            ])
        })
        .collect();
    let file = object([
        ("command", strings(&COMMAND)),
        ("paths", strings(&PATHS)),
        ("run_seconds", value(&RUN_SECONDS)),
        ("workloads", Value::Array(workloads)),
        ("end_to_end", Value::Array(end_to_end)),
        ("per_layer", Value::Array(per_layer)),
    ]);
    serde_json::to_string_pretty(&file).expect("manifest serialises") + "\n"
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Parse `BENCHMARK.json` back and check it against the registry and the
/// limits of its format.
///
/// # Errors
///
/// Returns the first disagreement.
pub fn verify(file: &str) -> Result<(), String> {
    let parsed: Value = serde_json::from_str(file).map_err(|e| format!("does not parse: {e}"))?;
    let expected: Value =
        serde_json::from_str(&benchmark_json()).expect("generated manifest parses");
    if parsed != expected {
        return Err("differs from the registry; regenerate it with `floatbench --manifest`".into());
    }
    let names = |key: &str| -> Vec<String> {
        let items = expected[key].as_array().expect("array in manifest");
        items
            .iter()
            .map(|m| m["name"].as_str().expect("name is a string").to_string())
            .collect()
    };
    let (workloads, end_to_end, per_layer) =
        (names("workloads"), names("end_to_end"), names("per_layer"));
    for (what, count, range) in [
        ("workloads", workloads.len(), 2..=8),
        ("end_to_end metrics", end_to_end.len(), 1..=16),
        ("per_layer metrics", per_layer.len(), 1..=128),
    ] {
        if !range.contains(&count) {
            return Err(format!("{count} {what}, outside {range:?}"));
        }
    }
    let mut all: Vec<&String> = workloads
        .iter()
        .chain(&end_to_end)
        .chain(&per_layer)
        .collect();
    if let Some(bad) = all.iter().find(|n| !valid_name(n)) {
        return Err(format!("name {bad:?} breaks the name rule"));
    }
    all.sort_unstable();
    if let Some(pair) = all.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("name {:?} is used twice", pair[0]));
    }
    for key in ["end_to_end", "per_layer"] {
        for metric in expected[key].as_array().expect("array in manifest") {
            let unit = metric["unit"].as_str().expect("unit is a string");
            if !valid_unit(unit) {
                return Err(format!("unit {unit:?} breaks the unit rule"));
            }
        }
    }
    if !end_to_end.iter().any(|n| n == "setup_s") {
        return Err("no setup_s metric".into());
    }
    if file.len() > 64 << 10 {
        return Err(format!("{} bytes, over 64 KiB", file.len()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_registry() {
        verify(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
    }

    #[test]
    fn verify_rejects_a_drifted_manifest() {
        let drifted = benchmark_json().replace("\"run_s\"", "\"run_seconds\"");
        assert!(verify(&drifted).is_err());
        assert!(verify("{").is_err());
    }

    #[test]
    fn bounds_stay_within_the_cap() {
        for (name, _, _, bound) in END_TO_END {
            let Bound::Within { rel, .. } = bound else {
                panic!("{name} has no relative bound");
            };
            assert!(rel > 0.0 && rel <= 0.25, "{name}");
        }
    }
}
