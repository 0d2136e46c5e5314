//! Population scale — round throughput and peak memory at 10k / 100k / 1M
//! / 10M clients.
//!
//! The claim under test: with lazy shards, a two-byte-a-client
//! availability index, sampled candidate pools, top-k selection, and
//! sampled evaluation, per-round cost is one pass over the index's bits
//! plus O(cohort) and memory is O(index + caches), so a
//! ten-million-client population runs on a laptop. Each row reports
//! rounds/sec plus the process high-water RSS (`VmHWM`), the shard
//! cache's peak residency, and the availability substrate's footprint:
//! index heap bytes, row bits changed per round, tracked (non-full)
//! batteries, trace-cache residency, and the sweep's exact tie fallbacks.
//!
//! A population scale (`10k`, `100k`, `1m`, `10m`) runs that preset's
//! sync and async rows. Any other scale runs the 10k rows plus a pooled
//! stand-in: the 10M preset's config (candidate_pool 2048) downsized to
//! 10k clients, which exercises the pooled planner path without the 10M
//! wall clock. One population per process keeps each row's `VmHWM` — a
//! monotone per-process high-water mark — attributable to that row.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use float_core::{AccelMode, Experiment, ExperimentConfig, SelectorChoice};
use float_data::Task;

use crate::rows_table;
use crate::scale::Scale;

/// One benchmark configuration's throughput and residency.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PopulationRow {
    /// Population size.
    pub clients: usize,
    /// `sync`, `async` or `sync-pooled`.
    pub mode: String,
    /// Rounds run.
    pub rounds: usize,
    /// Wall seconds of the run.
    pub seconds: f64,
    /// Rounds per wall second.
    pub rounds_per_sec: f64,
    /// Process high-water RSS after this run, MiB (monotone across rows).
    pub peak_rss_mb: f64,
    /// Shard-cache capacity the runtime resolved for this population.
    pub cache_capacity: usize,
    /// Most shards ever resident at once — must stay <= cache_capacity.
    pub cache_peak_resident: usize,
    /// Shard-cache hits.
    pub cache_hits: u64,
    /// Shard-cache misses.
    pub cache_misses: u64,
    /// Shard-cache evictions.
    pub cache_evictions: u64,
    /// Candidate-pool size the run planned with (0 = full sweep).
    pub candidate_pool: usize,
    /// Heap footprint of the availability index (windows + bitset), MiB.
    pub index_heap_mb: f64,
    /// Mean row bits changed per index advance: the clients that switched
    /// on or off in a one-position step.
    pub avail_transitions_per_round: f64,
    /// Most non-full batteries tracked at once (lazy battery residency).
    pub peak_tracked_batteries: usize,
    /// Client traces resident in the bounded rederivation cache at end.
    pub trace_cache_resident: usize,
    /// Capacity of that cache.
    pub trace_cache_capacity: usize,
    /// Heap held by eagerly materialized sweep models, MiB (0 under
    /// pooling — the pooled path never builds them).
    pub sweep_models_mb: f64,
    /// Full-sweep interruption draws that tied their client's one-byte
    /// key and took the exact rule, ~2⁻¹¹ of the available clients' draws
    /// (0 under pooling).
    pub sweep_exact_fallbacks: u64,
}

/// Full population-scale result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Population {
    /// Rows in run order.
    pub rows: Vec<PopulationRow>,
}

/// Peak resident set size of this process in MiB, from `/proc/self/status`
/// (`VmHWM`). Returns 0.0 where procfs is unavailable.
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .map_or(0.0, |kb: f64| kb / 1024.0)
}

/// Run one configuration and collect its row, including the availability
/// substrate's residency stats.
fn run_row(cfg: ExperimentConfig, mode: &str) -> PopulationRow {
    let (rounds, clients) = (cfg.rounds, cfg.num_clients);
    let (capacity, pool) = (cfg.resolved_shard_cache(), cfg.candidate_pool);
    let exp = Experiment::new(cfg).expect("valid config");
    let start = Instant::now();
    let (report, stats, avail) = exp.run_with_population_stats();
    let seconds = start.elapsed().as_secs_f64();
    assert!(report.is_finite(), "report carries NaN/Inf at {clients}");
    let mib = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    PopulationRow {
        clients,
        mode: mode.to_string(),
        rounds,
        seconds,
        rounds_per_sec: rounds as f64 / seconds.max(1e-9),
        peak_rss_mb: peak_rss_mb(),
        cache_capacity: capacity,
        cache_peak_resident: stats.peak_resident,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        cache_evictions: stats.evictions,
        candidate_pool: pool,
        index_heap_mb: mib(avail.index_heap_bytes),
        avail_transitions_per_round: if avail.rounds_advanced > 0 {
            avail.transitions_applied as f64 / avail.rounds_advanced as f64
        } else {
            0.0
        },
        peak_tracked_batteries: avail.peak_tracked_batteries,
        trace_cache_resident: avail.trace_cache_resident,
        trace_cache_capacity: avail.trace_cache_capacity,
        sweep_models_mb: mib(avail.sweep_models_bytes),
        sweep_exact_fallbacks: avail.sweep_exact_fallbacks,
    }
}

/// Run the population benchmark at the given scale.
pub fn run(scale: Scale) -> Population {
    let preset = if scale.is_population() {
        scale
    } else {
        Scale::Pop10k
    };
    let mut rows: Vec<PopulationRow> = [
        ("sync", SelectorChoice::FedAvg),
        ("async", SelectorChoice::FedBuff),
    ]
    .into_iter()
    .map(|(mode, selector)| run_row(preset.config(Task::Femnist, selector, AccelMode::Off), mode))
    .collect();
    if !scale.is_population() {
        // The 10M preset's pooled-planner config at a 10k population. The
        // pool must shrink with it to satisfy `candidate_pool <=
        // num_clients`; 2048 of 10k still forces the sampled path.
        let mut cfg = Scale::Pop10m.config(Task::Femnist, SelectorChoice::FedAvg, AccelMode::Off);
        cfg.num_clients = 10_000;
        rows.push(run_row(cfg, "sync-pooled"));
    }
    Population { rows }
}

impl Population {
    /// Text rendering: one row per configuration.
    pub fn render(&self) -> String {
        format!(
            "Population scale — FEMNIST, accel off (sync fedavg, async fedbuff)\n{}",
            rows_table(
                &self.rows,
                &[
                    "rounds",
                    "seconds",
                    "cache_hits",
                    "cache_misses",
                    "trace_cache_capacity"
                ]
            )
        )
    }
}
