//! Cross-module edge cases: degenerate-but-legal configurations that the
//! runtime must survive gracefully.

use float::core::aggregate::{aggregate, PendingUpdate};
use float::core::{AccelMode, Experiment, ExperimentConfig, SelectorChoice};
use float::data::federated::FederatedConfig;
use float::data::{ShardSpec, Task};
use float::traces::InterferenceModel;

fn base(rounds: usize) -> ExperimentConfig {
    ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Off, rounds)
}

#[test]
fn cohort_equals_population() {
    let mut cfg = base(4);
    cfg.cohort_size = cfg.num_clients;
    let r = Experiment::new(cfg).expect("valid").run();
    // Every round tasks at most the whole population (fewer when some
    // clients are unavailable).
    for rec in &r.rounds {
        assert!(rec.selected <= cfg.num_clients);
    }
    assert!(r.total_completions > 0);
}

#[test]
fn single_client_population() {
    let mut cfg = base(5);
    cfg.num_clients = 1;
    cfg.cohort_size = 1;
    cfg.async_concurrency = 1;
    cfg.async_buffer = 1;
    let r = Experiment::new(cfg).expect("valid").run();
    assert_eq!(r.client_accuracies.len(), 1);
}

#[test]
fn generous_deadline_eliminates_deadline_dropouts() {
    let mut cfg = base(6);
    cfg.deadline_s = 1e9;
    cfg.failure_hazard_per_s = 0.0;
    let r = Experiment::new(cfg).expect("valid").run();
    assert_eq!(
        r.total_dropouts, 0,
        "no deadline, no hazard — but {} dropouts",
        r.total_dropouts
    );
}

#[test]
fn brutal_deadline_drops_everyone_but_run_survives() {
    let mut cfg = base(4);
    cfg.deadline_s = 0.001;
    let r = Experiment::new(cfg).expect("valid").run();
    assert_eq!(r.total_completions, 0);
    // The global model never aggregates, so accuracy is the init model's —
    // but the report is still well-formed.
    assert_eq!(r.rounds.len(), 4);
    assert!(r.accuracy.mean >= 0.0);
}

#[test]
fn no_interference_is_strictly_easier() {
    let mut busy = base(10);
    busy.interference = InterferenceModel::paper_dynamic();
    let busy_r = Experiment::new(busy).expect("valid").run();
    let mut free = base(10);
    free.interference = InterferenceModel::None;
    let free_r = Experiment::new(free).expect("valid").run();
    assert!(
        free_r.total_dropouts <= busy_r.total_dropouts,
        "no-interference dropped more ({} vs {})",
        free_r.total_dropouts,
        busy_r.total_dropouts
    );
}

#[test]
fn one_round_experiment_reports_once() {
    let r = Experiment::new(base(1)).expect("valid").run();
    assert_eq!(r.rounds.len(), 1);
    // The single round is also the final round, so it must carry an
    // accuracy evaluation.
    assert!(r.rounds[0].mean_accuracy.is_some());
}

#[test]
fn aggregate_of_identical_deltas_is_that_delta() {
    let mut global = vec![1.0f32, -2.0, 3.0];
    let updates: Vec<PendingUpdate> = (0..5)
        .map(|i| PendingUpdate {
            client: i,
            delta: vec![0.5, 0.5, -1.0],
            samples: 10 * (i + 1),
            staleness: i as u64,
        })
        .collect();
    aggregate(&mut global, &updates);
    assert!((global[0] - 1.5).abs() < 1e-6);
    assert!((global[1] + 1.5).abs() < 1e-6);
    assert!((global[2] - 2.0).abs() < 1e-6);
}

#[test]
fn tiny_dirichlet_alpha_still_generates() {
    let cfg = FederatedConfig {
        task: Task::Cifar10,
        num_clients: 12,
        mean_samples: 30,
        alpha: Some(0.001), // near one-hot label distributions
        test_fraction: 0.25,
    };
    let d = ShardSpec::new(cfg, 3);
    for i in 0..d.num_clients() {
        let train = d.train_shard(i);
        assert!(!train.is_empty());
        // With alpha ~ 0, most clients should be (near) single-class.
        let hist = train.label_histogram();
        let nonzero = hist.iter().filter(|&&c| c > 0).count();
        assert!(nonzero >= 1);
    }
}

#[test]
fn zero_test_fraction_keeps_all_samples_for_training() {
    let cfg = FederatedConfig {
        task: Task::Cifar10,
        num_clients: 6,
        mean_samples: 40,
        alpha: Some(0.5),
        test_fraction: 0.0,
    };
    let d = ShardSpec::new(cfg, 3);
    for i in 0..d.num_clients() {
        // Test shards degrade to the guaranteed singleton.
        assert_eq!(d.test_shard(i).len(), 1);
        assert!(d.train_shard(i).len() > 1);
    }
}

#[test]
fn experiments_with_all_static_interference_levels_run() {
    for interference in [
        InterferenceModel::None,
        InterferenceModel::paper_static(),
        InterferenceModel::paper_dynamic(),
        InterferenceModel::unstable_network(),
    ] {
        let mut cfg = base(3);
        cfg.interference = interference;
        let r = Experiment::new(cfg).expect("valid").run();
        assert_eq!(r.rounds.len(), 3, "{}", interference.name());
    }
}

#[test]
fn fedbuff_with_buffer_of_one_aggregates_every_completion() {
    let mut cfg = ExperimentConfig::small(SelectorChoice::FedBuff, AccelMode::Off, 5);
    cfg.async_buffer = 1;
    let r = Experiment::new(cfg).expect("valid").run();
    assert!(
        r.total_completions >= 5,
        "only {} completions",
        r.total_completions
    );
}

#[test]
fn round_log_jsonl_matches_round_count() {
    let r = Experiment::new(base(7)).expect("valid").run();
    let jsonl = r.round_log_jsonl();
    assert_eq!(jsonl.lines().count(), 7);
    for line in jsonl.lines() {
        let _: serde_json::Value = serde_json::from_str(line).expect("valid JSON");
    }
}
