//! Population smoke run: a 10 000-client synchronous experiment, 5
//! rounds, fault-free and under the hostile chaos preset, each at 1 and
//! 4 worker threads. Asserts the population-scale contract end to end:
//!
//! - no panic, no NaN/Inf in any report;
//! - bit-identical reports across thread counts (fault-free and chaos);
//! - training-data memory bounded by the shard cache — peak residency
//!   never exceeds the cache capacity, and the capacity is a small
//!   fraction of the population (no up-front per-client datasets);
//! - test shards have one bounded owner, the population's store, which
//!   the agent's reward and evaluation both read: at most
//!   `EVAL_RESIDENT_CAP` resident, each resident shard derived once on the
//!   small legs, and the same counters at 1 and 4 threads;
//! - sampled evaluation returns exactly `eval_sample` accuracies;
//! - the full availability sweep keeps 4 bytes per client (one
//!   interruption threshold each), and the availability index at most 2.2 on
//!   the 10k legs (two bytes of diurnal window, the row and its
//!   popcounts).
//!
//! A pooled leg runs the 10k preset with the 10M preset's candidate pool:
//! it builds no sweep table at all. A small leg runs the same config at
//! 200 clients — the other side of the auto capacity's choice
//! (`SHARD_RESIDENT_CAP`) — sync and FedBuff:
//! the cache holds the population whole, derives each shard at most once
//! and never evicts, under the same thread-count bit-identity.
//!
//! ```text
//! cargo run --release --example population_smoke
//! ```

use float::core::config::SHARD_RESIDENT_CAP;
use float::core::trial::{EvalShardStats, SharedPopulation, EVAL_RESIDENT_CAP};
use float::core::{
    AccelMode, Experiment, ExperimentConfig, ExperimentReport, SelectorChoice, ShardCacheStats,
};
use float::data::Task;
use float::sim::FaultPlan;
use float::traces::AvailabilityStats;
use float_bench::Scale;

const ROUNDS: usize = 5;
const SEED: u64 = 20240422;
/// The small leg's population, held whole by the auto-sized cache.
const RESIDENT_CLIENTS: usize = 200;

/// One leg of the smoke run: the 10k preset at `num_clients` clients (its
/// evaluation sample cut down with it).
#[derive(Clone, Copy)]
struct Leg {
    selector: SelectorChoice,
    num_clients: usize,
    candidate_pool: usize,
    chaos: bool,
}

fn config(leg: Leg, threads: usize) -> ExperimentConfig {
    let mut cfg = Scale::Pop10k.config(Task::Femnist, leg.selector, AccelMode::Rlhf);
    cfg.num_clients = leg.num_clients;
    cfg.eval_sample = cfg.eval_sample.min(leg.num_clients);
    cfg.rounds = ROUNDS;
    cfg.eval_every = ROUNDS;
    cfg.seed = SEED;
    cfg.num_threads = threads;
    cfg.candidate_pool = leg.candidate_pool;
    if leg.chaos {
        cfg.fault_plan = FaultPlan::chaos();
    }
    cfg
}

struct Run {
    report: ExperimentReport,
    cache: ShardCacheStats,
    avail: AvailabilityStats,
    test_shards: EvalShardStats,
}

fn run(leg: Leg, threads: usize) -> Run {
    let cfg = config(leg, threads);
    let population = SharedPopulation::build(&cfg).expect("config validates");
    let (report, cache, avail) = Experiment::new_shared(cfg, &population)
        .expect("its own population")
        .run_with_population_stats();
    Run {
        report,
        cache,
        avail,
        test_shards: population.eval_shard_stats(),
    }
}

fn check(leg: Leg) -> Run {
    let label = if leg.chaos { "chaos" } else { "fault-free" };
    let num_clients = leg.num_clients;
    let one = run(leg, 1);
    let four = run(leg, 4);
    assert_eq!(
        one.report, four.report,
        "{label}: population reports must be bit-identical across thread counts"
    );
    assert_eq!(
        one.test_shards, four.test_shards,
        "{label}: test-shard counters must not depend on the thread count"
    );
    let tests = one.test_shards;
    assert!(
        tests.resident <= num_clients.min(EVAL_RESIDENT_CAP),
        "{label}: {} test shards resident for {num_clients} clients",
        tests.resident
    );
    if num_clients <= EVAL_RESIDENT_CAP {
        assert_eq!(
            tests.derivations, tests.resident as u64,
            "{label}: a population under the bound derives each test shard once"
        );
    }
    assert!(one.report.is_finite(), "{label}: report carries NaN/Inf");
    for (name, stats) in [("1-thread", &one.cache), ("4-thread", &four.cache)] {
        assert!(
            stats.peak_resident <= stats.capacity,
            "{label} {name}: cache exceeded capacity ({} > {})",
            stats.peak_resident,
            stats.capacity
        );
        if num_clients <= SHARD_RESIDENT_CAP {
            assert_eq!(
                (stats.capacity, stats.evictions),
                (num_clients, 0),
                "{label} {name}: a population under the cap is held whole, never evicted"
            );
            assert!(
                stats.misses <= num_clients as u64,
                "{label} {name}: {} derivations for {num_clients} clients",
                stats.misses
            );
        } else {
            assert!(
                stats.capacity < num_clients,
                "{label} {name}: cache capacity {} not a strict subset of the {} clients",
                stats.capacity,
                num_clients
            );
        }
    }
    let table_bytes = match leg.candidate_pool {
        0 => 4 * num_clients,
        _ => 0,
    };
    assert_eq!(
        one.avail.sweep_models_bytes, table_bytes,
        "{label}: the full sweep keeps 4 B per client, a pooled run none"
    );
    if num_clients == Scale::Pop10k.num_clients() {
        // Two bytes of diurnal window per client, plus the membership row
        // (1/8 B) and its superblock popcounts (1/1024 B).
        let per_client = one.avail.index_heap_bytes as f64 / num_clients as f64;
        assert!(
            per_client <= 2.2,
            "{label}: the availability index holds {per_client:.3} B per client"
        );
    }
    let eval_sample = config(leg, 1).eval_sample;
    assert_eq!(
        one.report.client_accuracies.len(),
        eval_sample,
        "{label}: sampled evaluation must report exactly eval_sample accuracies"
    );
    one
}

fn main() {
    println!("population_smoke: {ROUNDS} rounds, RLHF, each leg at 1 and 4 threads");
    let pop10k = Scale::Pop10k.num_clients();
    for (selector, num_clients, candidate_pool) in [
        (SelectorChoice::FedAvg, pop10k, 0),
        (
            SelectorChoice::FedAvg,
            pop10k,
            Scale::Pop10m.candidate_pool(),
        ),
        (SelectorChoice::FedAvg, RESIDENT_CLIENTS, 0),
        (SelectorChoice::FedBuff, RESIDENT_CLIENTS, 0),
    ] {
        for chaos in [false, true] {
            let label = if chaos { "chaos" } else { "fault-free" };
            let Run {
                report,
                cache: stats,
                test_shards: tests,
                ..
            } = check(Leg {
                selector,
                num_clients,
                candidate_pool,
                chaos,
            });
            println!(
                "  [{num_clients} clients, pool {candidate_pool}, {}, {label}] mean acc {:.3}  dropouts {}  \
                 cache {}/{} resident (hits {} misses {} evictions {})  \
                 test shards {} resident ({} derived)",
                selector.name(),
                report.accuracy.mean,
                report.total_dropouts,
                stats.peak_resident,
                stats.capacity,
                stats.hits,
                stats.misses,
                stats.evictions,
                tests.resident,
                tests.derivations
            );
        }
    }
    println!(
        "population smoke passed: bit-identical across threads, memory bounded by cache, \
         test shards held once"
    );
}
