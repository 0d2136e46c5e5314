//! The pause/resume contract of [`Experiment::run_to`]: a run stopped at
//! any round boundary, scored there, and continued later commits the same
//! report and the same event stream as the uninterrupted run. Successive
//! halving rests on it — a survivor's record *is* its full-budget run, and
//! a rung score is that run's accuracy read at the rung's budget.
//!
//! Every order-sensitive subsystem is on (RLHF agent, chaos faults, online
//! profiler, telemetry), for both synchronous selectors with cross-round
//! state (FedAvg, Oort) and for the FedBuff event loop, whose in-flight
//! attempts span the pause. A parked trial also holds its evaluation
//! shards — its own, or the sweep's shared copy, which another trial may
//! fill and read while this one is paused — and the prune masks of its
//! current model (a FedBuff round whose buffer stayed empty does not
//! aggregate, so filled slots can cross a boundary), under the agent's
//! choices or a static prune policy that trains no agent.

use proptest::prelude::*;

use float::accel::{AccelAction, ActionCatalogue};
use float::core::trial::SharedPopulation;
use float::core::{AccelMode, Experiment, ExperimentConfig, ExperimentReport, SelectorChoice};
use float::obs::{sink, ObsConfig, Telemetry};
use float::profile::ProfilingConfig;
use float::sim::FaultPlan;

const SELECTORS: [SelectorChoice; 3] = [
    SelectorChoice::FedAvg,
    SelectorChoice::Oort,
    SelectorChoice::FedBuff,
];

/// A population small enough that a proptest case stays in milliseconds.
fn config(selector: SelectorChoice, rounds: usize, threads: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small(selector, AccelMode::Rlhf, rounds);
    cfg.num_clients = 24;
    cfg.cohort_size = 6;
    cfg.mean_samples = 24;
    cfg.eval_every = 2;
    cfg.fault_plan = FaultPlan::chaos();
    cfg.profiling = ProfilingConfig::on();
    cfg.obs = ObsConfig::on();
    cfg.num_threads = threads;
    cfg
}

fn uninterrupted(cfg: ExperimentConfig) -> (ExperimentReport, Telemetry) {
    Experiment::new(cfg).expect("valid config").run_traced()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `run_to(k); accuracy(); run_to(n)` + finalise ≡ `run()`, for every
    /// split point `0 ≤ k ≤ n` — standalone or as a sweep trial, on the
    /// whole population or a sample of it. While a sweep trial is parked,
    /// a sibling on the same population runs from start to finish.
    #[test]
    fn a_paused_run_resumes_to_the_same_bytes(
        selector in 0usize..3,
        n in 1usize..7,
        split in 0usize..7,
        four_threads in any::<bool>(),
        shared in any::<bool>(),
        sampled in any::<bool>(),
        static_prune in any::<bool>(),
    ) {
        let k = split % (n + 1);
        let mut cfg = config(SELECTORS[selector], n, if four_threads { 4 } else { 1 });
        if static_prune {
            let prune50 = ActionCatalogue::paper().index_of(AccelAction::Prune50);
            cfg.accel = AccelMode::Static(prune50.expect("in the paper catalogue"));
        }
        cfg.data_seed = 77;
        cfg.eval_sample = if sampled { 5 } else { 0 };
        let (want, want_telemetry) = uninterrupted(cfg);

        let population = SharedPopulation::build(&cfg).expect("valid population");
        let mut exp = if shared {
            Experiment::new_shared(cfg, &population)
        } else {
            Experiment::new(cfg)
        }
        .expect("valid config");
        exp.run_to(k);
        let score = exp.accuracy();
        prop_assert!((0.0..=1.0).contains(&score), "score {} at round {}", score, k);
        if shared {
            let mut sibling = cfg;
            sibling.seed += 1;
            sibling.eval_sample = 0;
            Experiment::new_shared(sibling, &population).expect("same population").run();
        }
        exp.run_to(n);
        let (got, got_telemetry) = exp.run_traced();

        prop_assert_eq!(&got, &want, "report diverged after a pause at {}", k);
        prop_assert_eq!(
            sink::to_jsonl(&got_telemetry.events),
            sink::to_jsonl(&want_telemetry.events),
            "event stream diverged after a pause at {}",
            k
        );
        prop_assert_eq!(got_telemetry.summary, want_telemetry.summary);
        if k == n {
            // Paused at the end, the score is the report's own accuracy.
            prop_assert_eq!(score.to_bits(), want.accuracy.mean.to_bits());
        }
    }

    /// `accuracy()` is a pure read: any number of calls at any boundaries
    /// leaves the final report and event stream unchanged.
    #[test]
    fn accuracy_calls_never_change_the_run(
        selector in 0usize..3,
        n in 1usize..6,
        calls in proptest::collection::vec(0usize..3, 7),
    ) {
        let cfg = config(SELECTORS[selector], n, 1);
        let (want, want_telemetry) = uninterrupted(cfg);

        let mut exp = Experiment::new(cfg).expect("valid config");
        for (boundary, &times) in calls.iter().enumerate().take(n + 1) {
            exp.run_to(boundary);
            let scores: Vec<u64> = (0..times).map(|_| exp.accuracy().to_bits()).collect();
            prop_assert!(scores.windows(2).all(|w| w[0] == w[1]), "score is not a pure read");
        }
        let (got, got_telemetry) = exp.run_traced();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(
            sink::to_jsonl(&got_telemetry.events),
            sink::to_jsonl(&want_telemetry.events)
        );
    }
}

/// `run_to` clamps to the configured rounds and never runs a round twice.
#[test]
fn run_to_clamps_and_is_idempotent() {
    let cfg = config(SelectorChoice::FedBuff, 4, 1);
    let (want, _) = uninterrupted(cfg);
    let mut exp = Experiment::new(cfg).expect("valid config");
    exp.run_to(3);
    exp.run_to(1); // behind the cursor: nothing to do
    exp.run_to(3);
    exp.run_to(100); // clamped to 4
    exp.run_to(100);
    assert_eq!(exp.run(), want);
}
