//! Population smoke run: a 10 000-client synchronous experiment, 5
//! rounds, fault-free and under the hostile chaos preset, each at 1 and
//! 4 worker threads. Asserts the population-scale contract end to end:
//!
//! - no panic, no NaN/Inf in any report;
//! - bit-identical reports across thread counts (fault-free and chaos);
//! - training-data memory bounded by the shard cache — peak residency
//!   never exceeds the cache capacity, and the capacity is a small
//!   fraction of the population (no up-front per-client datasets);
//! - sampled evaluation returns exactly `eval_sample` accuracies.
//!
//! ```text
//! cargo run --release --example population_smoke
//! ```

use float::core::{
    AccelMode, Experiment, ExperimentConfig, ExperimentReport, SelectorChoice, ShardCacheStats,
};
use float::data::Task;
use float::sim::FaultPlan;
use float_bench::Scale;

const ROUNDS: usize = 5;
const SEED: u64 = 20240422;

fn config(chaos: bool, threads: usize) -> ExperimentConfig {
    let mut cfg = Scale::Pop10k.config(Task::Femnist, SelectorChoice::FedAvg, AccelMode::Rlhf);
    cfg.rounds = ROUNDS;
    cfg.eval_every = ROUNDS;
    cfg.seed = SEED;
    cfg.num_threads = threads;
    if chaos {
        cfg.fault_plan = FaultPlan::chaos();
    }
    cfg
}

fn run(chaos: bool, threads: usize) -> (ExperimentReport, ShardCacheStats) {
    let (report, cache, _) = Experiment::new(config(chaos, threads))
        .expect("config validates")
        .run_with_population_stats();
    (report, cache)
}

fn check(chaos: bool) -> (ExperimentReport, ShardCacheStats) {
    let label = if chaos { "chaos" } else { "fault-free" };
    let (one, stats_one) = run(chaos, 1);
    let (four, stats_four) = run(chaos, 4);
    assert_eq!(
        one, four,
        "{label}: population reports must be bit-identical across thread counts"
    );
    assert!(one.is_finite(), "{label}: report carries NaN/Inf");
    let num_clients = config(chaos, 1).num_clients;
    for (name, stats) in [("1-thread", &stats_one), ("4-thread", &stats_four)] {
        assert!(
            stats.peak_resident <= stats.capacity,
            "{label} {name}: cache exceeded capacity ({} > {})",
            stats.peak_resident,
            stats.capacity
        );
        assert!(
            stats.capacity < num_clients,
            "{label} {name}: cache capacity {} not a strict subset of the {} clients",
            stats.capacity,
            num_clients
        );
    }
    let eval_sample = config(chaos, 1).eval_sample;
    assert_eq!(
        one.client_accuracies.len(),
        eval_sample,
        "{label}: sampled evaluation must report exactly eval_sample accuracies"
    );
    (one, stats_one)
}

fn main() {
    let num_clients = config(false, 1).num_clients;
    println!("population_smoke: {num_clients} clients, {ROUNDS} rounds, sync FedAvg + RLHF");

    for chaos in [false, true] {
        let label = if chaos { "chaos" } else { "fault-free" };
        let (report, stats) = check(chaos);
        println!(
            "  [{label}] mean acc {:.3}  dropouts {}  cache {}/{} resident \
             (hits {} misses {} evictions {})",
            report.accuracy.mean,
            report.total_dropouts,
            stats.peak_resident,
            stats.capacity,
            stats.hits,
            stats.misses,
            stats.evictions
        );
    }
    println!("population smoke passed: bit-identical across threads, memory bounded by cache");
}
