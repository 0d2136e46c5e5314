//! Server-optimizer layer contract: the default FedAvg path reproduces
//! the pinned pre-optimizer reports byte-for-byte, every optimizer and
//! drift correction runs under every selector and accel mode, and all
//! configurations — including their optimizer/variate state — are
//! bit-identical across worker-thread counts, faults and all.

use proptest::prelude::*;

use float::core::optim::ServerOptimizerChoice;
use float::core::{AccelMode, Experiment, ExperimentConfig, SelectorChoice};
use float::sim::FaultPlan;

fn run(cfg: ExperimentConfig) -> float::core::ExperimentReport {
    Experiment::new(cfg).expect("valid config").run()
}

/// The six algorithm variants the comparison harness sweeps: the four
/// server optimizers plus FedAvg with each drift correction.
fn apply_variant(cfg: &mut ExperimentConfig, variant: usize) {
    match variant {
        0 => {}
        1 => cfg.server_optim = ServerOptimizerChoice::FedAvgM,
        2 => cfg.server_optim = ServerOptimizerChoice::FedAdam,
        3 => cfg.server_optim = ServerOptimizerChoice::FedYogi,
        4 => cfg.prox_mu = 0.1,
        _ => cfg.scaffold = true,
    }
}

const NUM_VARIANTS: usize = 6;

/// Selecting `ServerOptimizerChoice::FedAvg` explicitly (the default)
/// must route through the optimizer layer and still reproduce the PR 6
/// pinned reports byte-for-byte — the layer's FedAvg apply is the
/// historical `g += delta` walk, not a reimplementation.
#[test]
fn explicit_fedavg_reproduces_pinned_reports_byte_for_byte() {
    let mut cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Rlhf, 12);
    assert_eq!(
        cfg.server_optim,
        ServerOptimizerChoice::FedAvg,
        "preset must default to FedAvg"
    );
    cfg.server_optim = ServerOptimizerChoice::FedAvg;
    let got = serde_json::to_string_pretty(&run(cfg)).expect("report serializes");
    let want = include_str!("data/pinned_pool0_fedavg_rlhf.json");
    assert_eq!(got, want.trim_end(), "fedavg+rlhf report drifted");

    let mut cfg = ExperimentConfig::small(SelectorChoice::Oort, AccelMode::Off, 10);
    cfg.fault_plan = FaultPlan::chaos();
    cfg.server_optim = ServerOptimizerChoice::FedAvg;
    let got = serde_json::to_string_pretty(&run(cfg)).expect("report serializes");
    let want = include_str!("data/pinned_pool0_oort_chaos.json");
    assert_eq!(got, want.trim_end(), "oort+chaos report drifted");
}

/// Every optimizer and both drift corrections complete a short run under
/// every selector (accel fixed to RLHF, the paper's full configuration).
#[test]
fn all_variants_run_under_every_selector() {
    for selector in SelectorChoice::ALL_EXTENDED {
        for variant in 0..NUM_VARIANTS {
            let mut cfg = ExperimentConfig::small(selector, AccelMode::Rlhf, 3);
            apply_variant(&mut cfg, variant);
            let r = run(cfg);
            assert_eq!(r.rounds.len(), 3, "{selector:?} variant {variant}");
            assert!(
                r.total_completions + r.total_dropouts > 0,
                "{selector:?} variant {variant} did nothing"
            );
            assert!(
                r.client_accuracies.iter().all(|a| a.is_finite()),
                "{selector:?} variant {variant} produced non-finite accuracy"
            );
        }
    }
}

/// Every optimizer and both drift corrections complete a short run under
/// every accel mode (selector fixed to FedAvg).
#[test]
fn all_variants_run_under_every_accel_mode() {
    let modes = [
        AccelMode::Off,
        AccelMode::Static(2),
        AccelMode::Heuristic,
        AccelMode::Rl,
        AccelMode::Rlhf,
        AccelMode::RlhfExtended,
    ];
    for accel in modes {
        for variant in 0..NUM_VARIANTS {
            let mut cfg = ExperimentConfig::small(SelectorChoice::FedAvg, accel, 3);
            apply_variant(&mut cfg, variant);
            let r = run(cfg);
            assert_eq!(r.rounds.len(), 3, "{accel:?} variant {variant}");
            assert!(
                r.client_accuracies.iter().all(|a| a.is_finite()),
                "{accel:?} variant {variant} produced non-finite accuracy"
            );
        }
    }
}

/// Non-default algorithm choices are spelled out in the report label;
/// the default keeps the historical format (pinned by the goldens).
#[test]
fn labels_distinguish_algorithm_variants() {
    let labels: Vec<String> = (0..NUM_VARIANTS)
        .map(|variant| {
            let mut cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Off, 1);
            apply_variant(&mut cfg, variant);
            run(cfg).label
        })
        .collect();
    assert_eq!(labels[0], "off(fedavg)/cifar10");
    assert_eq!(labels[1], "off(fedavg)/cifar10@fedavgm");
    assert_eq!(labels[2], "off(fedavg)/cifar10@fedadam");
    assert_eq!(labels[3], "off(fedavg)/cifar10@fedyogi");
    assert_eq!(labels[4], "off(fedavg)/cifar10+prox");
    assert_eq!(labels[5], "off(fedavg)/cifar10+scaffold");
}

/// Optimizer moment buffers and SCAFFOLD variates live in the sequential
/// commit phase, so every configuration must be bit-identical across 1
/// vs 4 worker threads — under chaos faults, which exercise quarantine,
/// duplicates, and stall retries through the optimizer path.
#[test]
fn every_variant_is_thread_count_invariant_under_chaos() {
    let mut cfgs = Vec::new();
    for variant in 0..NUM_VARIANTS {
        let mut cfg = ExperimentConfig::small(SelectorChoice::Oort, AccelMode::Rlhf, 5);
        apply_variant(&mut cfg, variant);
        cfgs.push((format!("variant {variant}"), cfg));
    }
    // The heaviest composition: an adaptive optimizer with both drift
    // corrections, non-IID data, the RLHF agent and telemetry.
    let mut cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Rlhf, 5);
    cfg.alpha = Some(0.1);
    cfg.seed = 42;
    cfg.obs = float::obs::ObsConfig::on();
    cfg.server_optim = ServerOptimizerChoice::FedYogi;
    cfg.prox_mu = 0.1;
    cfg.scaffold = true;
    cfgs.push(("fedyogi+prox+scaffold".to_string(), cfg));
    // The async engine aggregates on its own path; cover it too.
    let mut cfg = ExperimentConfig::small(SelectorChoice::FedBuff, AccelMode::Off, 4);
    cfg.server_optim = ServerOptimizerChoice::FedAdam;
    cfgs.push(("fedbuff fedadam".to_string(), cfg));
    for (what, mut cfg) in cfgs {
        cfg.fault_plan = FaultPlan::chaos();
        let mut one = cfg;
        one.num_threads = 1;
        let mut four = cfg;
        four.num_threads = 4;
        assert_eq!(
            run(one),
            run(four),
            "{what}: 1 vs 4 threads diverged under chaos"
        );
    }
}

/// Drift corrections compose: FedProx + SCAFFOLD + an adaptive server
/// optimizer together still run, converge on finite numbers, and stay
/// deterministic.
#[test]
fn composed_corrections_run_and_are_deterministic() {
    let mut cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Rlhf, 4);
    cfg.server_optim = ServerOptimizerChoice::FedYogi;
    cfg.prox_mu = 0.05;
    cfg.scaffold = true;
    let a = run(cfg);
    let b = run(cfg);
    assert_eq!(a, b, "composed run not deterministic");
    assert_eq!(a.label, "float-rlhf(fedavg)/cifar10@fedyogi+prox+scaffold");
    assert!(a.client_accuracies.iter().all(|x| x.is_finite()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property: for any root seed and variant, a chaos-faulted run is
    /// bit-identical across 1 vs 4 worker threads — optimizer state
    /// updates (moment buffers, control variates) never depend on the
    /// parallel execute phase's scheduling.
    #[test]
    fn optimizer_state_is_thread_invariant_for_any_seed(
        seed in 0u64..10_000,
        variant in 0usize..NUM_VARIANTS,
    ) {
        let mut cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Rlhf, 3);
        cfg.seed = seed;
        cfg.fault_plan = FaultPlan::chaos();
        apply_variant(&mut cfg, variant);
        let mut one = cfg;
        one.num_threads = 1;
        let mut four = cfg;
        four.num_threads = 4;
        prop_assert_eq!(run(one), run(four));
    }
}
