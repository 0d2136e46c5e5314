//! Chaos tests for the fault-injection harness: under *any* fault
//! schedule, experiment runs must complete without panicking, reports must
//! stay free of NaN/Inf, and the fault bookkeeping (quarantines, duplicate
//! suppression, stall retries) must agree between the ledger and report,
//! and — with telemetry on — between both and the event stream.

use proptest::prelude::*;

use float::core::audit::audit;
use float::core::{AccelMode, Experiment, ExperimentConfig, ExperimentReport, SelectorChoice};
use float::obs::ObsConfig;
use float::sim::FaultPlan;

/// Run with telemetry on — pure observation, so the run is the one an
/// untraced config makes — and assert the ledger↔stream audit finds no
/// broken identity.
fn run_with_plan(
    selector: SelectorChoice,
    accel: AccelMode,
    rounds: usize,
    seed: u64,
    plan: FaultPlan,
) -> ExperimentReport {
    let mut cfg = ExperimentConfig::small(selector, accel, rounds);
    cfg.seed = seed;
    cfg.fault_plan = plan;
    cfg.obs = ObsConfig::on();
    let (report, telemetry) = Experiment::new(cfg).expect("valid config").run_traced();
    let async_engine = selector == SelectorChoice::FedBuff;
    let failed = audit(&report, &telemetry.events, async_engine);
    assert_eq!(failed, vec![], "{}: broken identities", report.label);
    report
}

/// The invariants every faulted run must uphold.
fn assert_hardened(r: &ExperimentReport) {
    assert!(r.is_finite(), "report carries NaN/Inf: {}", r.label);
    assert_eq!(
        r.total_quarantined, r.resources.quarantined,
        "report and ledger disagree on quarantines"
    );
    // The ledger sees every executed attempt; the report counts the ones
    // whose completion events drained (in async, some are still in flight
    // at run end), so the ledger can only ever be ahead.
    assert!(
        r.resources.completions + r.resources.dropouts >= r.total_completions + r.total_dropouts,
        "ledger lost attempts"
    );
    for round in &r.rounds {
        assert!(
            round.quarantined <= round.dropped,
            "round {:?}",
            round.round
        );
    }
}

proptest! {
    // Each case is a full (short) experiment run; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn sync_runs_survive_arbitrary_fault_schedules(
        seed in any::<u64>(),
        crash in 0.0f64..0.25,
        stall in 0.0f64..0.25,
        duplicate in 0.0f64..0.2,
        corrupt in 0.0f64..0.2,
        retries in 0u32..3,
    ) {
        let plan = FaultPlan {
            crash_rate: crash,
            stall_rate: stall,
            duplicate_rate: duplicate,
            corrupt_rate: corrupt,
            stall_max_retries: retries,
            stall_backoff_s: 30.0,
        };
        let r = run_with_plan(SelectorChoice::FedAvg, AccelMode::Rlhf, 3, seed, plan);
        assert_hardened(&r);
        prop_assert_eq!(r.rounds.len(), 3);
        // Synchronous runs drain every attempt, so the ledger identity is
        // exact: every execution (including each stall retry) is either a
        // completion or a dropout.
        prop_assert_eq!(
            r.resources.completions + r.resources.dropouts,
            r.total_completions + r.total_dropouts + r.stall_retries
        );
    }

    #[test]
    fn async_runs_survive_arbitrary_fault_schedules(
        seed in any::<u64>(),
        crash in 0.0f64..0.25,
        stall in 0.0f64..0.25,
        duplicate in 0.0f64..0.2,
        corrupt in 0.0f64..0.2,
    ) {
        let plan = FaultPlan {
            crash_rate: crash,
            stall_rate: stall,
            duplicate_rate: duplicate,
            corrupt_rate: corrupt,
            stall_max_retries: 1,
            stall_backoff_s: 10.0,
        };
        let r = run_with_plan(SelectorChoice::FedBuff, AccelMode::Rlhf, 3, seed, plan);
        assert_hardened(&r);
        // The async engine never retries stalls (a stalled slot is simply
        // reclaimed at the timeout), so no backoff may leak into the clock.
        prop_assert_eq!(r.stall_retries, 0);
    }
}

#[test]
fn every_selector_survives_chaos() {
    // The quarantine feedback path reaches each selector's penalty logic.
    for selector in [
        SelectorChoice::FedAvg,
        SelectorChoice::Oort,
        SelectorChoice::Refl,
        SelectorChoice::FedBuff,
        SelectorChoice::Tifl,
    ] {
        let r = run_with_plan(selector, AccelMode::Off, 4, 11, FaultPlan::chaos());
        assert_hardened(&r);
    }
}

#[test]
fn quarantines_surface_in_ledger_and_report() {
    // Corrupt-only plan: every injected fault is a payload poisoning, so
    // quarantines must appear and nothing else may fire.
    let plan = FaultPlan {
        corrupt_rate: 0.3,
        ..FaultPlan::none()
    };
    let r = run_with_plan(SelectorChoice::FedAvg, AccelMode::Off, 5, 3, plan);
    assert_hardened(&r);
    assert!(r.total_quarantined > 0, "30% corrupt rate injected nothing");
    assert_eq!(r.stall_retries, 0);
    assert_eq!(r.duplicates_suppressed, 0);
    let per_round: usize = r.rounds.iter().map(|x| x.quarantined).sum();
    assert_eq!(per_round as u64, r.total_quarantined);
}

#[test]
fn stall_retries_add_backoff_to_the_wall_clock() {
    let plan = FaultPlan {
        stall_rate: 0.3,
        stall_max_retries: 2,
        stall_backoff_s: 120.0,
        ..FaultPlan::none()
    };
    let mut no_backoff = plan;
    no_backoff.stall_backoff_s = 0.0;
    let with = run_with_plan(SelectorChoice::FedAvg, AccelMode::Off, 5, 9, plan);
    let without = run_with_plan(SelectorChoice::FedAvg, AccelMode::Off, 5, 9, no_backoff);
    assert_hardened(&with);
    assert!(with.stall_retries > 0, "30% stall rate retried nothing");
    // The backoff knob changes only wall time: same fault draws, same
    // outcomes, strictly more clock.
    assert_eq!(with.stall_retries, without.stall_retries);
    assert_eq!(with.total_completions, without.total_completions);
    assert!(with.wall_clock_h > without.wall_clock_h);
}

#[test]
fn duplicate_deliveries_are_suppressed_not_double_counted() {
    let plan = FaultPlan {
        duplicate_rate: 0.4,
        ..FaultPlan::none()
    };
    let dup = run_with_plan(SelectorChoice::FedAvg, AccelMode::Off, 5, 3, plan);
    let clean = run_with_plan(
        SelectorChoice::FedAvg,
        AccelMode::Off,
        5,
        3,
        FaultPlan::none(),
    );
    assert_hardened(&dup);
    assert!(
        dup.duplicates_suppressed > 0,
        "40% dup rate injected nothing"
    );
    // Duplicate delivery perturbs neither outcomes nor (post-dedup)
    // aggregation in the sync engine: the run must match a clean one
    // everywhere it counts.
    assert_eq!(dup.total_completions, clean.total_completions);
    assert_eq!(dup.client_accuracies, clean.client_accuracies);
    assert_eq!(dup.resources, clean.resources);
}

#[test]
fn faulted_runs_are_reproducible() {
    let a = run_with_plan(
        SelectorChoice::Oort,
        AccelMode::Rlhf,
        4,
        21,
        FaultPlan::chaos(),
    );
    let b = run_with_plan(
        SelectorChoice::Oort,
        AccelMode::Rlhf,
        4,
        21,
        FaultPlan::chaos(),
    );
    assert_eq!(a, b, "same seed + same plan must reproduce bit-identically");
}
