//! `sweepexp` — the concurrent sweep orchestrator benchmark: grid search
//! over cohort size × local epochs, run at 1 vs N workers with shared
//! population resources, plus a successive-halving arm.
//!
//! Reports three things (see `DESIGN.md` §18):
//!
//! - **Worker scaling**: trials/hour at 1 worker vs N workers over the
//!   same grid, with a byte-identity gate — per-trial reports must be
//!   bit-identical regardless of worker count or completion order.
//! - **Shared-resource amortization**: shard derivations and
//!   availability-calendar builds paid once for the whole sweep.
//! - **Successive-halving pruning**: rounds executed vs the full grid
//!   (the full run must come in at ≤ 50%; rungs resume paused trials, so
//!   no round runs twice), with the surviving best trial matching the full
//!   grid's best bit-for-bit, and each pruned trial's score against its
//!   rung's cut line.
//!
//! Every trial's event stream lands under `target/obs/sweep*/` as
//! `trial_NNN_<label>.jsonl` (`obsdump`-compatible); the run ends with a
//! multi-objective frontier table (accuracy vs simulated round time vs
//! upload bytes). Results land in `BENCH_sweep.json`.
//!
//! ```text
//! sweepexp [--rounds N] [--workers N] [--seed S] [--out PATH] [--quick]
//! ```
//!
//! `--quick` is the CI mode: a 2×2 grid at eight rounds with η=2
//! pruning, a 1-vs-4-worker bit-identity probe, output under `target/`,
//! same parse-back self-check as the full run.

use std::time::Instant;

use float_bench::{f, selfcheck, table};
use float_core::{AccelMode, ExperimentConfig, SelectorChoice};
use float_sweep::{frontier, run_sweep, Halving, Knob, PrunedTrial, SweepOptions, SweepPlan};
use serde::{Deserialize, Serialize};

#[derive(Serialize, Deserialize)]
struct WorkerScaling {
    workers: usize,
    seconds: f64,
    trials_per_hour: f64,
    speedup_vs_1: f64,
}

#[derive(Serialize, Deserialize)]
struct FrontierRow {
    idx: usize,
    label: String,
    seed: u64,
    mean_accuracy: f64,
    sim_round_time_s: f64,
    upload_mb: f64,
    on_frontier: bool,
    jsonl: String,
}

#[derive(Serialize, Deserialize)]
struct PruningSummary {
    eta: usize,
    r0: usize,
    rounds_executed: usize,
    full_grid_rounds: usize,
    /// `rounds_executed / full_grid_rounds`, percent — the acceptance
    /// gate wants ≤ 50 in the full run.
    rounds_executed_pct: f64,
    survivors: usize,
    pruned: usize,
    /// Why each pruned trial stopped: rung, rounds run, its score there,
    /// and the cut line (the last promoted trial's score).
    pruned_trials: Vec<PrunedTrial>,
    best_idx: usize,
    best_accuracy: f64,
    grid_best_idx: usize,
    grid_best_accuracy: f64,
    /// The surviving best trial's report equals the grid's best-trial
    /// report bit-for-bit.
    best_matches_grid: bool,
}

#[derive(Serialize, Deserialize)]
struct Amortization {
    shard_hits: u64,
    shard_derivations: u64,
    shard_resident: usize,
    index_builds: u64,
    index_builds_saved: u64,
    runs_attached: u64,
}

#[derive(Serialize, Deserialize)]
struct BenchReport {
    benchmark: String,
    quick: bool,
    trials: usize,
    rounds: usize,
    root_seed: u64,
    host_parallelism: usize,
    reports_identical_across_workers: bool,
    worker_scaling: Vec<WorkerScaling>,
    amortization: Amortization,
    pruning: PruningSummary,
    frontier: Vec<FrontierRow>,
}

fn usage() -> ! {
    eprintln!(
        "usage: sweepexp [--rounds N] [--workers N] [--seed S] [--eta N] [--r0 N] \
         [--out PATH] [--quick]"
    );
    std::process::exit(2);
}

fn main() {
    let mut rounds = 0usize; // 0 ⇒ mode default (18 full, 8 quick)
    let mut workers = 0usize; // 0 ⇒ mode default
    let mut root_seed = 7u64;
    let mut eta = 0usize; // 0 ⇒ mode default
    let mut r0 = 0usize; // 0 ⇒ mode default
    let mut out = String::new();
    let mut quick = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--rounds" => rounds = val().parse().unwrap_or_else(|_| usage()),
            "--workers" => workers = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => root_seed = val().parse().unwrap_or_else(|_| usage()),
            "--eta" => eta = val().parse().unwrap_or_else(|_| usage()),
            "--r0" => r0 = val().parse().unwrap_or_else(|_| usage()),
            "--out" => out = val(),
            "--quick" => quick = true,
            _ => usage(),
        }
    }
    if root_seed == 0 {
        usage();
    }

    let host = std::thread::available_parallelism().map_or(1, usize::from);
    if rounds == 0 {
        rounds = if quick { 8 } else { 18 };
    }
    if workers == 0 {
        workers = if quick { 4 } else { host.clamp(2, 8) };
    }
    if out.is_empty() {
        out = if quick {
            "target/BENCH_sweep_ci.json".to_string()
        } else {
            "BENCH_sweep.json".to_string()
        };
    }
    let obs_dir = std::path::PathBuf::from(if quick {
        "target/obs/sweep_ci"
    } else {
        "target/obs/sweep"
    });

    // The grid: cohort size × local epochs over the shared population.
    // 3×3 in the full run, 2×2 in CI.
    let base = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Off, rounds);
    let axes: Vec<Vec<Knob>> = if quick {
        vec![
            vec![Knob::CohortSize(5), Knob::CohortSize(10)],
            vec![Knob::LocalEpochs(1), Knob::LocalEpochs(2)],
        ]
    } else {
        vec![
            vec![
                Knob::CohortSize(5),
                Knob::CohortSize(10),
                Knob::CohortSize(15),
            ],
            vec![
                Knob::LocalEpochs(1),
                Knob::LocalEpochs(2),
                Knob::LocalEpochs(3),
            ],
        ]
    };
    let halving = Halving {
        eta: if eta != 0 {
            eta
        } else {
            2 + usize::from(!quick)
        },
        r0: if r0 != 0 { r0 } else { 2 + usize::from(!quick) },
    };
    let plan = SweepPlan::grid(base, root_seed, &axes);
    eprintln!(
        "sweepexp: {} trials × {} rounds, root seed {}, workers 1 vs {}, host parallelism {}",
        plan.len(),
        rounds,
        root_seed,
        workers,
        host
    );

    // Worker-scaling A/B over the full grid. Both arms write trial JSONL
    // (same I/O in both timings); the reports must be bit-identical — the
    // orchestrator's determinism contract.
    let timed_grid = |w: usize| {
        let opts = SweepOptions {
            workers: w,
            halving: None,
            obs_dir: Some(obs_dir.clone()),
        };
        let start = Instant::now();
        let outcome = run_sweep(&plan, &opts).expect("grid sweep runs");
        let seconds = start.elapsed().as_secs_f64();
        let tph = plan.len() as f64 / seconds.max(1e-9) * 3600.0;
        eprintln!("  workers {w:>2}: {seconds:7.3}s  {tph:8.1} trials/h");
        (seconds, tph, outcome)
    };
    let (secs_1, tph_1, grid_1) = timed_grid(1);
    let (secs_n, tph_n, grid_n) = timed_grid(workers);
    let identical = grid_1.results == grid_n.results;
    if !identical {
        eprintln!("WARNING: per-trial reports diverged across worker counts — determinism bug!");
    }
    let worker_scaling = vec![
        WorkerScaling {
            workers: 1,
            seconds: secs_1,
            trials_per_hour: tph_1,
            speedup_vs_1: 1.0,
        },
        WorkerScaling {
            workers,
            seconds: secs_n,
            trials_per_hour: tph_n,
            speedup_vs_1: tph_n / tph_1.max(1e-9),
        },
    ];

    // Successive-halving arm on the same plan: fewer rounds, same winner.
    let halved = run_sweep(
        &plan,
        &SweepOptions {
            workers,
            halving: Some(halving),
            obs_dir: None,
        },
    )
    .expect("halving sweep runs");
    let grid_best = grid_n.best().expect("grid has trials");
    let halved_best = halved.best().expect("halving kept at least one trial");
    // Compare identity and report bits, not the record wholesale — the
    // grid arm carries a JSONL path the halving arm doesn't.
    let best_matches_grid =
        halved_best.idx == grid_best.idx && halved_best.report == grid_best.report;
    let executed_pct =
        halved.rounds_executed as f64 / halved.full_grid_rounds.max(1) as f64 * 100.0;
    eprintln!(
        "  halving (eta {}, r0 {}): {} of {} rounds ({executed_pct:.0}%), \
         best trial {} (acc {:.4}) vs grid best {} (acc {:.4})",
        halving.eta,
        halving.r0,
        halved.rounds_executed,
        halved.full_grid_rounds,
        halved_best.idx,
        halved_best.report.accuracy.mean,
        grid_best.idx,
        grid_best.report.accuracy.mean,
    );
    let prune_rows: Vec<Vec<String>> = halved
        .pruned
        .iter()
        .map(|p| {
            vec![
                p.idx.to_string(),
                p.label.clone(),
                p.rung.to_string(),
                p.budget.to_string(),
                f(p.accuracy),
                f(p.cut),
            ]
        })
        .collect();
    eprint!(
        "{}",
        table(
            &["idx", "pruned trial", "rung", "rounds", "acc", "cut"],
            &prune_rows
        )
    );
    let pruning = PruningSummary {
        eta: halving.eta,
        r0: halving.r0,
        rounds_executed: halved.rounds_executed,
        full_grid_rounds: halved.full_grid_rounds,
        rounds_executed_pct: executed_pct,
        survivors: halved.results.len(),
        pruned: halved.pruned.len(),
        pruned_trials: halved.pruned.clone(),
        best_idx: halved_best.idx,
        best_accuracy: halved_best.report.accuracy.mean,
        grid_best_idx: grid_best.idx,
        grid_best_accuracy: grid_best.report.accuracy.mean,
        best_matches_grid,
    };

    // Multi-objective frontier over the full grid's final records.
    let points = frontier(&grid_n.results);
    let mut rows = Vec::new();
    let frontier_rows: Vec<FrontierRow> = points
        .iter()
        .zip(&grid_n.results)
        .map(|(p, rec)| {
            rows.push(vec![
                p.idx.to_string(),
                p.label.clone(),
                f(p.accuracy),
                f(p.sim_round_time_s),
                f(p.upload_mb),
                if p.on_frontier {
                    "*".into()
                } else {
                    String::new()
                },
            ]);
            FrontierRow {
                idx: p.idx,
                label: p.label.clone(),
                seed: rec.seed,
                mean_accuracy: p.accuracy,
                sim_round_time_s: p.sim_round_time_s,
                upload_mb: p.upload_mb,
                on_frontier: p.on_frontier,
                jsonl: rec.jsonl.clone().unwrap_or_default(),
            }
        })
        .collect();
    eprint!(
        "{}",
        table(
            &["idx", "trial", "acc", "round_s", "upload_mb", "pareto"],
            &rows
        )
    );

    let amort = grid_n.amortization;
    eprintln!(
        "  amortization: {} shard derivations for {} runs ({} hits), \
         calendar built once ({} builds saved)",
        amort.shard_derivations, amort.runs_attached, amort.shard_hits, amort.index_builds_saved
    );

    let report = BenchReport {
        benchmark: "sweep".to_string(),
        quick,
        trials: plan.len(),
        rounds,
        root_seed,
        host_parallelism: host,
        reports_identical_across_workers: identical,
        worker_scaling,
        amortization: Amortization {
            shard_hits: amort.shard_hits,
            shard_derivations: amort.shard_derivations,
            shard_resident: amort.shard_resident,
            index_builds: amort.index_builds,
            index_builds_saved: amort.index_builds_saved,
            runs_attached: amort.runs_attached,
        },
        pruning,
        frontier: frontier_rows,
    };
    selfcheck::write_report(&out, &report);

    // Parse-back self-check: the emitted JSON must round-trip, carry
    // in-range accuracies and positive throughput, and the trial event
    // streams it points at must replay from disk.
    let parsed: BenchReport = selfcheck::parse_back(&out);
    assert_eq!(parsed.frontier.len(), plan.len());
    assert!(
        parsed.frontier.iter().any(|r| r.on_frontier),
        "frontier cannot be empty"
    );
    for row in &parsed.frontier {
        selfcheck::assert_unit(row.mean_accuracy, &format!("trial {}: accuracy", row.idx));
        selfcheck::assert_positive(
            row.sim_round_time_s,
            &format!("trial {}: round time", row.idx),
        );
        selfcheck::assert_positive(row.upload_mb, &format!("trial {}: upload volume", row.idx));
        let stream = std::fs::read_to_string(&row.jsonl)
            .unwrap_or_else(|e| panic!("cannot read back {}: {e}", row.jsonl));
        let events = float_obs::sink::from_jsonl(&stream).expect("trial event stream replays");
        assert!(!events.is_empty(), "trial {}: empty event stream", row.idx);
    }
    for w in &parsed.worker_scaling {
        selfcheck::assert_positive(w.trials_per_hour, "trials/hour");
    }
    assert!(
        parsed.pruning.rounds_executed < parsed.pruning.full_grid_rounds,
        "halving must execute fewer rounds than the full grid"
    );
    eprintln!(
        "self-check passed: {} trials parsed, event streams replay, pruning saves rounds",
        parsed.frontier.len()
    );

    // Acceptance gates. Byte-identity always; the full run additionally
    // demands ≥ 2x pruning savings with an unchanged winner.
    let mut failed = !identical;
    if !quick {
        if executed_pct > 50.0 {
            eprintln!("FAIL: halving executed {executed_pct:.0}% of grid rounds (gate: <= 50%)");
            failed = true;
        }
        if !best_matches_grid {
            eprintln!("FAIL: halving's best trial does not match the full grid's best");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
