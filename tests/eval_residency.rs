//! Resident test shards against the derivation they replace. A
//! population holds each client's test shard once: the accel agent's
//! reward and every full-population evaluation sweep read the same store,
//! so whichever reaches a client first derives it and every later reader
//! gets it; a sweep's trials share that copy too. None of that may move a
//! bit: the twin here scores the global model on a test shard derived
//! afresh from the spec for every client of every sweep — what
//! `eval_all_clients` did before shards stayed resident.

use rand::Rng;

use float::core::trial::{EvalShardStats, SharedPopulation, EVAL_RESIDENT_CAP};
use float::core::{AccelMode, Experiment, ExperimentConfig, ExperimentReport, SelectorChoice};
use float::data::ShardSpec;
use float::sim::FaultPlan;
use float::tensor::rng::{seed_rng, split_seed};

fn config(selector: SelectorChoice, eval_sample: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small(selector, AccelMode::Rlhf, 6);
    cfg.num_clients = 24;
    cfg.cohort_size = 6;
    cfg.mean_samples = 24;
    cfg.eval_every = 2;
    cfg.eval_sample = eval_sample;
    cfg.fault_plan = FaultPlan::chaos();
    cfg
}

/// The evaluation set, drawn by the rule DESIGN.md §13 states: the
/// first `eval_sample` positions of a forward Fisher–Yates shuffle of every
/// client id, seeded from stream 7, ascending; everyone when unsampled.
fn eval_clients(cfg: &ExperimentConfig) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..cfg.num_clients).collect();
    if cfg.eval_sample != 0 && cfg.eval_sample < cfg.num_clients {
        let mut rng = seed_rng(split_seed(cfg.seed, 7));
        for i in 0..cfg.eval_sample {
            let j = rng.gen_range(i..cfg.num_clients);
            ids.swap(i, j);
        }
        ids.truncate(cfg.eval_sample);
        ids.sort_unstable();
    }
    ids
}

/// The counters of a test-shard store that has derived each resident
/// shard once, and nothing past its bound.
fn held_once(stats: EvalShardStats) -> bool {
    stats.derivations == stats.resident as u64
}

/// Run `cfg` one round at a time, on a population of its own, and check
/// every recorded accuracy against the twin. Returns the report with the
/// counters of the trial's evaluation shards and of the population's store,
/// read after the last round (finalisation reuses that round's sweep).
fn run_against_twin(cfg: ExperimentConfig) -> (ExperimentReport, EvalShardStats, EvalShardStats) {
    let spec = ShardSpec::new(cfg.federated_config(), split_seed(cfg.population_seed(), 1));
    let clients = eval_clients(&cfg);
    let population = SharedPopulation::build(&cfg).expect("valid config");
    let mut exp = Experiment::new_shared(cfg, &population).expect("its own population");
    let mut fresh: Vec<Vec<f64>> = Vec::new();
    for round in 0..cfg.rounds {
        exp.run_to(round + 1);
        let model = exp.global_model();
        fresh.push(
            clients
                .iter()
                .map(|&c| f64::from(model.evaluate(&spec.test_shard(c)).accuracy))
                .collect(),
        );
    }
    let stats = exp.eval_shard_stats();
    let population_stats = population.eval_shard_stats();
    let report = exp.run();
    for (round, record) in report.rounds.iter().enumerate() {
        let is_eval = round % cfg.eval_every == 0 || round + 1 == cfg.rounds;
        let want = is_eval.then(|| fresh[round].iter().sum::<f64>() / clients.len() as f64);
        assert_eq!(
            record.mean_accuracy.map(f64::to_bits),
            want.map(f64::to_bits),
            "round {round}"
        );
    }
    assert_eq!(&report.client_accuracies, fresh.last().expect("rounds > 0"));
    (report, stats, population_stats)
}

fn json(report: &ExperimentReport) -> String {
    serde_json::to_string(report).expect("report serialises")
}

#[test]
fn recorded_accuracies_equal_freshly_derived_shards() {
    for selector in [SelectorChoice::FedAvg, SelectorChoice::FedBuff] {
        for eval_sample in [0, 7] {
            let cfg = config(selector, eval_sample);
            let (report, stats, population) = run_against_twin(cfg);
            // Stepping round by round is the same run.
            let whole = Experiment::new(cfg).expect("valid config").run();
            assert_eq!(json(&report), json(&whole));
            // Four sweeps (rounds 0, 2, 4, 5) and the agent's reads, one
            // derivation per client.
            let n = eval_clients(&cfg).len();
            assert_eq!(
                stats,
                EvalShardStats {
                    resident: n,
                    derivations: n as u64
                },
                "{selector:?} eval_sample {eval_sample}"
            );
            // A sampled set keeps its own copy; the agent still reads the
            // population's store, and derives each of its shards once.
            assert!(
                held_once(population) && population.resident > 0,
                "{selector:?} eval_sample {eval_sample}: {population:?}"
            );
        }
    }
}

#[test]
fn a_set_past_the_bound_keeps_the_bound_resident_and_derives_the_rest() {
    let over = 150;
    let mut cfg = config(SelectorChoice::FedAvg, 0);
    cfg.num_clients = EVAL_RESIDENT_CAP + over;
    cfg.mean_samples = 4;
    cfg.rounds = 3;
    cfg.eval_every = 1;
    cfg.fault_plan = FaultPlan::none();
    let (report, stats, population) = run_against_twin(cfg);
    assert_eq!(stats, population, "the whole population is the set");
    // Without faults nothing retries, so each completed attempt read its
    // client's shard once, for both of the agent's accuracy passes.
    let agent_reads_past: u64 = report
        .completed_count
        .iter()
        .filter(|&(c, _)| c >= EVAL_RESIDENT_CAP)
        .map(|(_, n)| n)
        .sum();
    assert!(
        agent_reads_past > 0,
        "the run must score an attempt past the bound"
    );
    // Three sweeps: the resident prefix once, the tail every time, and the
    // tail again for every agent read past the bound.
    assert_eq!(
        stats,
        EvalShardStats {
            resident: EVAL_RESIDENT_CAP,
            derivations: (EVAL_RESIDENT_CAP + 3 * over) as u64 + agent_reads_past
        }
    );
}

#[test]
fn full_population_trials_share_one_copy_and_sampled_trials_keep_their_own() {
    let mut base = config(SelectorChoice::FedAvg, 0);
    base.data_seed = 4242;
    let shared = SharedPopulation::build(&base).expect("valid population");
    let everyone = EvalShardStats {
        resident: base.num_clients,
        derivations: base.num_clients as u64,
    };
    for seed in [11, 12] {
        let mut cfg = base;
        cfg.seed = seed;
        let trial = Experiment::new_shared(cfg, &shared).expect("same population");
        let alone = Experiment::new(cfg).expect("valid config");
        assert_eq!(json(&trial.run()), json(&alone.run()), "seed {seed}");
        // The second trial finds every shard already there.
        assert_eq!(shared.eval_shard_stats(), everyone, "seed {seed}");
    }
    let mut cfg = base;
    cfg.seed = 13;
    cfg.eval_sample = 7;
    let mut trial = Experiment::new_shared(cfg, &shared).expect("same population");
    trial.run_to(cfg.rounds);
    assert_eq!(
        trial.eval_shard_stats(),
        EvalShardStats {
            resident: 7,
            derivations: 7
        }
    );
    let alone = Experiment::new(cfg).expect("valid config");
    assert_eq!(json(&trial.run()), json(&alone.run()));
    assert_eq!(shared.eval_shard_stats(), everyone);
}
