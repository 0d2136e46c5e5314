//! `qdump` — inspect a trained RLHF agent's Q-table (the analog of the
//! paper artifact's `load_Q.py`).
//!
//! ```text
//! qdump                # train a quick agent on FEMNIST and dump its table
//! qdump agent.json     # dump a previously serialized agent
//! ```
//!
//! Output: per-action aggregates (participation / accuracy Q, visits)
//! followed by the learned best action per visited state. An unreadable
//! file, or one that is not a serialized agent, is reported on stderr and
//! exits 2.

use float_accel::ActionCatalogue;
use float_core::{AccelMode, Experiment, SelectorChoice};
use float_data::Task;
use float_rl::RlhfAgent;

/// Read a serialized agent; the error names the file.
fn load_agent(path: &str) -> Result<RlhfAgent, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    RlhfAgent::from_json(&body).ok_or_else(|| format!("{path}: not a serialized agent"))
}

fn main() {
    let arg = std::env::args().nth(1);
    let agent: RlhfAgent = match arg {
        Some(path) => load_agent(&path).unwrap_or_else(|e| {
            eprintln!("qdump: {e}");
            std::process::exit(2);
        }),
        None => {
            eprintln!("no agent file given; training a quick agent on femnist…");
            let cfg = float_bench::Scale::Quick.config(
                Task::Femnist,
                SelectorChoice::FedAvg,
                AccelMode::Rlhf,
            );
            let (_, agent) = Experiment::new(cfg)
                .expect("quick config valid")
                .run_capturing_agent();
            agent
        }
    };

    let catalogue = ActionCatalogue::paper();
    let table = agent.table();
    println!(
        "Q-table: {} states x {} actions, {} total visits, ~{} bytes",
        table.num_rows(),
        table.num_actions(),
        table.total_visits(),
        table.memory_bytes()
    );

    // Per-action aggregates.
    let k = table.num_actions();
    let mut part = vec![0.0f64; k];
    let mut acc = vec![0.0f64; k];
    let mut visits = vec![0u64; k];
    let mut states = vec![0u64; k];
    for (_, entries) in table.iter_rows() {
        for (i, e) in entries.iter().enumerate() {
            if e.visits > 0 {
                part[i] += e.q_participation;
                acc[i] += e.q_accuracy;
                visits[i] += e.visits;
                states[i] += 1;
            }
        }
    }
    println!("\nper-action aggregates (means over visited states):");
    println!(
        "{:<12} {:>8} {:>10} {:>10}",
        "action", "visits", "part-Q", "acc-Q"
    );
    for i in 0..k {
        let n = states[i].max(1) as f64;
        println!(
            "{:<12} {:>8} {:>10.4} {:>10.4}",
            catalogue.action(i).name(),
            visits[i],
            part[i] / n,
            acc[i] / n
        );
    }

    // Per-state best actions (sorted by local-state index for stability).
    let mut rows: Vec<_> = table.iter_rows().collect();
    rows.sort_by_key(|(key, _)| (key.local.index(), key.hf.map(|h| h.index())));
    println!("\nper-state policy (best scalarized action at w=0.5/0.5):");
    println!(
        "{:>4} {:>4} {:>4} {:>10} {:<12} {:>8}",
        "cpu", "mem", "net", "hf", "best", "visits"
    );
    for (key, entries) in rows {
        // Same NaN-demoting argmax as `QTable::best_action`: a poisoned Q
        // value must never masquerade as the learned policy in the dump.
        let demoted = |e: &float_rl::QEntry| {
            let s = e.scalar(0.5, 0.5);
            if s.is_nan() {
                f64::NEG_INFINITY
            } else {
                s
            }
        };
        let best = entries
            .iter()
            .enumerate()
            .max_by(|a, b| demoted(a.1).total_cmp(&demoted(b.1)).then(a.0.cmp(&b.0)))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let total: u64 = entries.iter().map(|e| e.visits).sum();
        if total == 0 {
            continue;
        }
        println!(
            "{:>4} {:>4} {:>4} {:>10} {:<12} {:>8}",
            key.local.cpu.index(),
            key.local.mem.index(),
            key.local.net.index(),
            key.hf.map(|h| h.index() as i64).unwrap_or(-1),
            catalogue.action(best).name(),
            total
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_inputs_are_errors_naming_the_file() {
        let dir = std::env::temp_dir();
        let missing = dir.join("qdump-no-such-file.json");
        let missing = missing.to_string_lossy();
        let err = load_agent(&missing).expect_err("missing file");
        assert!(err.starts_with(&format!("cannot read {missing}")), "{err}");

        let path = dir.join(format!("qdump-{}-not_agent.json", std::process::id()));
        std::fs::write(&path, r#"{"label": "x", "rounds": []}"#).expect("write scratch input");
        let path = path.to_string_lossy().into_owned();
        let err = load_agent(&path).expect_err("not an agent");
        assert_eq!(err, format!("{path}: not a serialized agent"));
        std::fs::remove_file(&path).expect("remove scratch input");
    }
}
