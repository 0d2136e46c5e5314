//! Sweep-orchestrator determinism contract: per-trial reports derived
//! from `split_seed(root, trial_idx)` are invariant to the worker count,
//! to which other trials run alongside them (interleaving), and to
//! whether successive-halving pruning is on — for the trials that
//! survive it; under pruning the whole outcome is invariant to the worker
//! count. A small pinned grid guards the whole stack against silent drift.

use proptest::prelude::*;

use float::core::trial::run_trial;
use float::core::{AccelMode, SelectorChoice};
use float::sweep::{run_sweep, Halving, Knob, SweepOptions, SweepPlan};

/// A tiny population so each proptest case stays in the milliseconds.
fn tiny_plan(rounds: usize, root_seed: u64, cohorts: &[usize]) -> SweepPlan {
    let mut base =
        float::core::ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Off, rounds);
    base.num_clients = 12;
    base.cohort_size = 3;
    base.mean_samples = 24;
    let axes = vec![cohorts.iter().map(|&c| Knob::CohortSize(c)).collect()];
    SweepPlan::grid(base, root_seed, &axes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Worker count is a scheduling knob, never a results knob.
    #[test]
    fn reports_invariant_to_worker_count(
        root_seed in 1u64..1_000_000,
        workers in 2usize..6,
        rounds in 2usize..4,
    ) {
        let plan = tiny_plan(rounds, root_seed, &[2, 3]);
        let seq = run_sweep(&plan, &SweepOptions::default()).expect("sequential");
        let par = run_sweep(
            &plan,
            &SweepOptions { workers, ..Default::default() },
        )
        .expect("parallel");
        prop_assert_eq!(seq.results, par.results, "workers={} diverged", workers);
    }

    /// Under halving the *whole* outcome — survivors, prune records with
    /// their scores and cut lines, rounds executed — is invariant to the
    /// worker count, and so to the order trials finish a rung in. Only
    /// the shard store's hit / miss split may depend on who asked first.
    #[test]
    fn halving_outcome_invariant_to_worker_count(
        root_seed in 1u64..1_000_000,
        eta in 2usize..4,
    ) {
        let plan = tiny_plan(4, root_seed, &[2, 3, 4, 5]);
        let halved = |workers| {
            let opts = SweepOptions {
                workers,
                halving: Some(Halving { eta, r0: 1 }),
                ..Default::default()
            };
            let mut outcome = run_sweep(&plan, &opts).expect("halving");
            outcome.amortization.shard_hits = 0;
            outcome.amortization.shard_derivations = 0;
            outcome
        };
        let seq = halved(1);
        prop_assert_eq!(&seq, &halved(4), "worker count changed the outcome");
        // No round runs twice: each trial executed exactly the last
        // budget it reached.
        let reached: usize = seq.pruned.iter().map(|p| p.budget).sum::<usize>()
            + seq.results.iter().map(|r| r.rounds_budget).sum::<usize>();
        prop_assert_eq!(seq.rounds_executed, reached);
        prop_assert_eq!(seq.amortization.runs_attached, plan.len() as u64);
    }

    /// A trial's report does not depend on which other trials share the
    /// sweep: running any single trial alone (its own population build,
    /// owned caches) reproduces the in-sweep record bit-for-bit.
    #[test]
    fn reports_invariant_to_trial_interleaving(
        root_seed in 1u64..1_000_000,
        idx in 0usize..3,
    ) {
        let plan = tiny_plan(2, root_seed, &[2, 3, 4]);
        let sweep = run_sweep(
            &plan,
            &SweepOptions { workers: 3, ..Default::default() },
        )
        .expect("sweep");
        let alone = run_trial(plan.trial_config(idx, 2), None).expect("standalone trial");
        prop_assert_eq!(&sweep.results[idx].report, &alone, "trial {} diverged", idx);
    }

    /// Pruning decides *which* trials finish, never the bits of those
    /// that do: every halving survivor equals its full-grid record.
    #[test]
    fn pruning_preserves_surviving_trial_bits(
        root_seed in 1u64..1_000_000,
        eta in 2usize..4,
    ) {
        let plan = tiny_plan(4, root_seed, &[2, 3, 4]);
        let grid = run_sweep(&plan, &SweepOptions::default()).expect("grid");
        let halved = run_sweep(
            &plan,
            &SweepOptions {
                workers: 2,
                halving: Some(Halving { eta, r0: 1 }),
                ..Default::default()
            },
        )
        .expect("halving");
        prop_assert!(halved.rounds_executed < grid.rounds_executed);
        prop_assert_eq!(
            halved.results.len() + halved.pruned.len(),
            plan.len(),
            "every trial must be a survivor or pruned"
        );
        for rec in &halved.results {
            let full = grid.results.iter().find(|r| r.idx == rec.idx).expect("in grid");
            prop_assert_eq!(rec, full, "survivor {} diverged under pruning", rec.idx);
        }
    }
}

/// The pinned golden: a 2×2 grid (cohort × epochs) on the tiny
/// population, serialized record-for-record. Regenerate after an
/// intentional simulation change with:
///
/// ```text
/// BLESS_SWEEP=1 cargo test --test sweep_determinism golden
/// ```
#[test]
fn small_grid_reproduces_pinned_golden() {
    let mut base = float::core::ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Off, 3);
    base.num_clients = 12;
    base.mean_samples = 24;
    let axes = vec![
        vec![Knob::CohortSize(2), Knob::CohortSize(3)],
        vec![Knob::LocalEpochs(1), Knob::LocalEpochs(2)],
    ];
    let plan = SweepPlan::grid(base, 11, &axes);
    let outcome = run_sweep(
        &plan,
        &SweepOptions {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("golden sweep");
    let got = serde_json::to_string_pretty(&outcome.results).expect("records serialize");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/pinned_sweep_small.json"
    );
    if std::env::var("BLESS_SWEEP").is_ok() {
        std::fs::write(path, format!("{got}\n")).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden present — bless with BLESS_SWEEP=1");
    assert_eq!(got, want.trim_end(), "sweep records drifted from golden");
}
