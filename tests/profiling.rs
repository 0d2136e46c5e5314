//! Online-profiling contract: profiling off reproduces the pinned
//! oracle-path goldens byte-for-byte; profiling on is bit-identical
//! across worker-thread counts; the bounded store's accounting
//! identities always hold; and the estimators are pure functions of the
//! observation sequence.

use float::core::{AccelMode, Experiment, ExperimentConfig, ExperimentReport, SelectorChoice};
use float::profile::{ClientProfiler, Observation, ObservedOutcome, ProfilingConfig};
use float::sim::FaultPlan;
use proptest::prelude::*;

fn run(cfg: ExperimentConfig) -> ExperimentReport {
    Experiment::new(cfg).expect("valid config").run()
}

fn profiled(selector: SelectorChoice, rounds: usize, plan: FaultPlan) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small(selector, AccelMode::Rlhf, rounds);
    cfg.fault_plan = plan;
    cfg.profiling = ProfilingConfig::on();
    cfg
}

/// Profiling off is the oracle path: the pinned pre-profiling reports
/// must reproduce byte-for-byte (same serialization, same bits).
#[test]
fn profiling_off_reproduces_pinned_reports_byte_for_byte() {
    let cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Rlhf, 12);
    assert_eq!(
        cfg.profiling,
        ProfilingConfig::off(),
        "presets must default to the oracle path"
    );
    let got = serde_json::to_string_pretty(&run(cfg)).expect("report serializes");
    let want = include_str!("data/pinned_pool0_fedavg_rlhf.json");
    assert_eq!(got, want.trim_end(), "fedavg+rlhf report drifted");

    let mut cfg = ExperimentConfig::small(SelectorChoice::Oort, AccelMode::Off, 10);
    cfg.fault_plan = FaultPlan::chaos();
    let got = serde_json::to_string_pretty(&run(cfg)).expect("report serializes");
    let want = include_str!("data/pinned_pool0_oort_chaos.json");
    assert_eq!(got, want.trim_end(), "oort+chaos report drifted");
}

/// Profiled runs must be bit-identical across worker-thread counts: the
/// profiler folds observations only in the sequential commit phase and
/// is read only in the sequential plan phase.
#[test]
fn profiled_runs_are_thread_count_invariant() {
    for plan in [FaultPlan::none(), FaultPlan::chaos()] {
        // Sync engine, profiling-aware selector.
        let cfg = profiled(SelectorChoice::Oort, 8, plan);
        let mut one = cfg;
        one.num_threads = 1;
        let mut four = cfg;
        four.num_threads = 4;
        assert_eq!(
            run(one),
            run(four),
            "oort profiled ({plan:?}): 1 vs 4 threads diverged"
        );

        // Async engine: commits happen at completion-event order, which
        // must itself be thread-count invariant with profiling on.
        let cfg = profiled(SelectorChoice::FedBuff, 8, plan);
        let mut one = cfg;
        one.num_threads = 1;
        let mut four = cfg;
        four.num_threads = 4;
        assert_eq!(
            run(one),
            run(four),
            "fedbuff profiled ({plan:?}): 1 vs 4 threads diverged"
        );
    }
}

/// Cold-only mode folds nothing and consults nothing, but must still be
/// deterministic, finite, and distinctly labelled.
#[test]
fn cold_only_is_deterministic_and_labelled() {
    let mut cfg = profiled(SelectorChoice::Oort, 6, FaultPlan::chaos());
    cfg.profiling = ProfilingConfig::cold_only();
    let a = run(cfg);
    let b = run(cfg);
    assert_eq!(a, b);
    assert!(a.is_finite());
    assert!(a.label.ends_with("+prof0"), "label was {}", a.label);
}

/// The bounded store's accounting identities, end to end through a real
/// run with a capacity small enough to force evictions.
#[test]
fn bounded_store_accounting_identities_hold_under_eviction() {
    let mut cfg = profiled(SelectorChoice::Oort, 10, FaultPlan::chaos());
    cfg.profiling.capacity = 4; // far below the ~40-client population
    let (report, stats) = Experiment::new(cfg)
        .expect("valid config")
        .run_with_profiler_stats();
    let stats = stats.expect("profiling on must surface stats");
    assert!(report.is_finite());
    assert_eq!(stats.capacity, 4);
    assert!(stats.observations > 0, "chaos run observed nothing");
    assert!(stats.evictions > 0, "capacity 4 must evict");
    assert_eq!(
        stats.inserted,
        stats.evictions + stats.resident as u64,
        "inserted == evictions + resident"
    );
    assert!(stats.resident <= stats.capacity);
    assert!(stats.peak_resident <= stats.capacity);
    assert_eq!(
        stats.observations,
        stats.suppressed
            + stats.completed
            + stats.stalled
            + stats.quarantined
            + stats.oom
            + stats.dropped,
        "every observation lands in exactly one kind counter"
    );
    assert_eq!(stats.suppressed, 0, "normal mode suppresses nothing");

    // Cold-only: every observation is suppressed, nothing is stored.
    let mut cfg = profiled(SelectorChoice::Oort, 6, FaultPlan::chaos());
    cfg.profiling = ProfilingConfig::cold_only();
    let (_, stats) = Experiment::new(cfg)
        .expect("valid config")
        .run_with_profiler_stats();
    let stats = stats.expect("cold-only still surfaces stats");
    assert!(stats.observations > 0);
    assert_eq!(stats.suppressed, stats.observations);
    assert_eq!(stats.inserted, 0);
    assert_eq!(stats.resident, 0);
}

/// Profiling off surfaces no stats at all — the profiler is never built.
#[test]
fn profiling_off_surfaces_no_stats() {
    let cfg = ExperimentConfig::small(SelectorChoice::Oort, AccelMode::Off, 3);
    let (_, stats) = Experiment::new(cfg)
        .expect("valid config")
        .run_with_profiler_stats();
    assert_eq!(stats, None);
}

/// Index → outcome kind; index 0 is Completed, 1..5 the non-completions.
fn kind_of(idx: u8) -> ObservedOutcome {
    match idx {
        0 => ObservedOutcome::Completed,
        1 => ObservedOutcome::Stalled,
        2 => ObservedOutcome::Quarantined,
        3 => ObservedOutcome::DroppedOom,
        _ => ObservedOutcome::Dropped,
    }
}

fn arb_observation() -> impl Strategy<Value = (usize, Observation)> {
    (
        (0usize..12, 0u64..50, 0u8..5, 1.0f64..5000.0),
        (0u8..2, 0.1f64..500.0),
        (0u8..2, 0.01f64..50.0),
    )
        .prop_map(
            |((client, round, kind, duration_s), (has_mbps, mbps), (has_gflops, gflops))| {
                (
                    client,
                    Observation {
                        round,
                        kind: kind_of(kind),
                        duration_s,
                        upload_mbps: (has_mbps == 1).then_some(mbps),
                        compute_gflops: (has_gflops == 1).then_some(gflops),
                    },
                )
            },
        )
}

proptest! {
    /// The profiler is a pure function of the observation sequence: two
    /// instances fed the same sequence are equal — estimates, LRU
    /// residency, stats, everything `PartialEq` can see.
    #[test]
    fn profiler_state_is_a_pure_function_of_the_sequence(
        seq in prop::collection::vec(arb_observation(), 1..120),
        capacity in 1usize..8,
    ) {
        let mut a = ClientProfiler::new(ProfilingConfig::on(), capacity);
        let mut b = ClientProfiler::new(ProfilingConfig::on(), capacity);
        for (client, obs) in &seq {
            a.observe(*client, obs);
        }
        for (client, obs) in &seq {
            b.observe(*client, obs);
        }
        prop_assert_eq!(&a, &b);
        for client in 0..12 {
            prop_assert_eq!(a.estimate(client), b.estimate(client));
        }
    }

    /// Accounting identities hold for arbitrary sequences and tiny
    /// capacities: the store never exceeds its bound and every insert is
    /// either still resident or accounted as an eviction.
    #[test]
    fn accounting_identities_hold_for_arbitrary_sequences(
        seq in prop::collection::vec(arb_observation(), 0..200),
        capacity in 1usize..6,
    ) {
        let mut p = ClientProfiler::new(ProfilingConfig::on(), capacity);
        for (client, obs) in &seq {
            p.observe(*client, obs);
            let s = p.stats();
            prop_assert!(s.resident <= capacity);
            prop_assert!(s.peak_resident <= capacity);
            prop_assert_eq!(s.inserted, s.evictions + s.resident as u64);
        }
        let s = p.stats();
        prop_assert_eq!(s.observations, seq.len() as u64);
        prop_assert_eq!(
            s.observations,
            s.suppressed + s.completed + s.stalled + s.quarantined + s.oom + s.dropped
        );
    }

    /// Quarantined and dropped outcomes update reliability only: the
    /// latency/bandwidth estimates visible before and after are bitwise
    /// identical, while the reliability estimate never increases.
    #[test]
    fn non_completions_never_move_latency_or_bandwidth(
        warmup in prop::collection::vec(
            (0u64..10, 1.0f64..2000.0, 0.1f64..100.0, 0.01f64..10.0), 1..20),
        kind_idx in 1u8..5,
        duration_s in 1.0f64..5000.0,
    ) {
        let kind = kind_of(kind_idx);
        let mut p = ClientProfiler::new(ProfilingConfig::on(), 4);
        for (round, duration_s, mbps, gflops) in &warmup {
            p.observe(0, &Observation {
                round: *round,
                kind: ObservedOutcome::Completed,
                duration_s: *duration_s,
                upload_mbps: Some(*mbps),
                compute_gflops: Some(*gflops),
            });
        }
        let before = p.estimate(0).expect("warmed-up client has an estimate");
        p.observe(0, &Observation::replay(99, kind, duration_s));
        let after = p.estimate(0).expect("client still resident");
        prop_assert_eq!(before.latency_s, after.latency_s);
        prop_assert_eq!(before.latency_p50_s, after.latency_p50_s);
        prop_assert_eq!(before.latency_p90_s, after.latency_p90_s);
        prop_assert_eq!(before.bandwidth_mbps, after.bandwidth_mbps);
        prop_assert_eq!(before.bandwidth_peak_mbps, after.bandwidth_peak_mbps);
        prop_assert_eq!(before.compute_gflops, after.compute_gflops);
        prop_assert!(after.reliability <= before.reliability);
        prop_assert_eq!(after.observations, before.observations + 1);
    }
}
