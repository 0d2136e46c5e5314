//! The two passes over a workload: the untraced one that measures the
//! end-to-end metrics, and the traced one that measures the layers.

use std::collections::HashMap;
use std::time::Instant;

use float_core::{AccelMode, Experiment, ExperimentConfig};
use float_obs::ObsConfig;
use float_sweep::SweepPlan;
use serde_json::{Map, Value};

use crate::json::{object, value};

use crate::host;
use crate::probes::{self, LayerTimes};
use crate::spans::Tracer;
use crate::stats::{median, percentile, MIN_SAMPLES};
use crate::workloads::{
    self, experiment_sample, Job, Phases, Pinned, Sample, SimOutcome, SweepCounts,
};

/// Samples run and thrown away before timing starts, so caches are full
/// and lazy set-up is done.
const WARM_UPS: usize = 2;

pub type Metrics = Vec<(&'static str, f64)>;

/// Counts samples and the reasons any failed. A sample fails when the
/// program panics or errs, when an output check of its workload fails, or
/// when its outputs differ from the first sample's of the same variant:
/// the simulator is deterministic, so a run seed must produce the same
/// report every time.
#[derive(Default)]
pub struct Checker {
    /// By variant: the digest and outcomes of its first sample.
    references: HashMap<usize, (u64, SimOutcome)>,
    pub attempted: usize,
    pub failures: Vec<String>,
}

impl Checker {
    /// `same_report`: compare the report digest (untraced samples), not
    /// just the simulated outcomes (traced samples, whose reports also
    /// carry wall-clock telemetry).
    fn admit(
        &mut self,
        variant: usize,
        result: Result<Sample, String>,
        same_report: bool,
    ) -> Option<Sample> {
        self.attempted += 1;
        let sample = match result {
            Ok(sample) => sample,
            Err(why) => {
                self.failures.push(why);
                return None;
            }
        };
        let (digest, sim) = *self
            .references
            .entry(variant)
            .or_insert((sample.digest, sample.sim));
        if same_report && digest != sample.digest {
            self.failures.push(format!(
                "report digest {:016x} differs from {digest:016x}, variant {variant}'s first",
                sample.digest
            ));
            return None;
        }
        if sim != sample.sim {
            self.failures.push(format!(
                "outcomes {:?} differ from {sim:?}, variant {variant}'s first",
                sample.sim
            ));
            return None;
        }
        Some(sample)
    }

    /// Count one more check, failed if `outcome` is an error.
    fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        self.failures.extend(outcome.err());
    }
}

/// What one pass over one workload produced.
pub struct Pass {
    pub metrics: Metrics,
    pub checker: Checker,
    /// Written beside the executable for whoever wants the detail.
    pub detail: Value,
}

fn median_of(samples: &[Sample], field: impl Fn(&Sample) -> f64) -> f64 {
    median(&samples.iter().map(field).collect::<Vec<_>>())
}

/// The low 48 bits of a report digest: as many as a JSON number carries
/// exactly.
fn digest48(digest: u64) -> f64 {
    (digest & ((1 << 48) - 1)) as f64
}

/// The untraced pass over a workload's variants in turn: `WARM_UPS`
/// discarded samples, then timed samples until `seconds` have passed and at
/// least `MIN_SAMPLES` are in.
///
/// A time is reported at the reference clock: each sample's wall time is
/// scaled by the clock probe taken either side of it, which takes the
/// host's clock-rate switching out of the result (see
/// `host::clock_probe_s`). The run's figure is the lower quartile of
/// those, the lowest with ten samples below it: what else the host does to
/// a sample — a neighbour on the core, the memory bus — only ever adds
/// time, in stretches, and the quartile holds still where the median
/// follows how many samples a run happened to have inside a stretch.
pub fn end_to_end(variants: &[Pinned], seconds: f64) -> Pass {
    let name = variants[0].name;
    let mut checker = Checker::default();
    let mut turns = (0..variants.len()).cycle();
    for variant in turns.by_ref().take(WARM_UPS) {
        checker.admit(variant, variants[variant].sample(None), true);
    }
    let (mut samples, mut clock_s) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut before = host::clock_probe_s();
    while start.elapsed().as_secs_f64() < seconds || samples.len() < MIN_SAMPLES {
        let variant = turns.next().expect("a cycle does not end");
        let admitted = checker.admit(variant, variants[variant].sample(None), true);
        let after = host::clock_probe_s();
        match admitted {
            Some(sample) => {
                samples.push(sample);
                clock_s.push((before + after) / 2.0);
            }
            // A workload that cannot run fails the same way every time.
            None if samples.is_empty() => break,
            None => {}
        }
        before = after;
    }
    let mut metrics = Vec::new();
    let mut detail = vec![
        ("samples", value(&samples)),
        ("clock_probe_s", value(&clock_s)),
    ];
    if !samples.is_empty() {
        let at_reference = |field: fn(&Sample) -> f64| -> Vec<f64> {
            let scaled = samples
                .iter()
                .zip(&clock_s)
                .map(|(sample, clock)| field(sample) * host::REFERENCE_PROBE_S / clock);
            scaled.collect()
        };
        let runs = at_reference(|s| s.run_s);
        metrics.push(("run_s", percentile(&runs, 0.25)));
        let setups = at_reference(|s| s.setup_s);
        metrics.push(("setup_s", percentile(&setups, 0.25)));
        metrics.push(("peak_rss_mib", host::peak_rss_mib().unwrap_or(f64::NAN)));
        // For the reader, not bounded: this host's slow stretches put the
        // run-to-run spread of either at the 25 % a bound may be.
        let wall = median_of(&samples, |s| s.run_s);
        let p75 = percentile(&runs, 0.75);
        eprintln!(
            "floatbench: {name}: {} samples, run_s lower quartile {:.6} p75 {p75:.6} \
             at the reference clock, median {wall:.6} by the wall clock",
            runs.len(),
            percentile(&runs, 0.25),
        );
        detail.push(("run_s_p75", value(&p75)));
        detail.push(("run_wall_s_median", value(&wall)));
    }
    Pass {
        metrics,
        checker,
        detail: object(detail),
    }
}

/// `median(base) / median(variant)` run time over interleaved pairs: how
/// much faster the variant ran.
fn speedup(pairs: usize, base: ExperimentConfig, variant: ExperimentConfig) -> Result<f64, String> {
    let run_s = |cfg| experiment_sample(cfg, &mut None, None).map(|s| s.run_s);
    let (mut b, mut v) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        b.push(run_s(base)?);
        v.push(run_s(variant)?);
    }
    Ok(median(&b) / median(&v))
}

/// The traced pass: whole samples, traced and untraced in alternation
/// (their difference is the tracing overhead); the counters only a
/// dedicated entry point returns; the per-layer probes; and a few
/// informational pairs.
pub fn per_layer(pinned: &Pinned, seconds: f64) -> Pass {
    let mut tracer = Tracer::new(pinned.name);
    let mut checker = Checker::default();
    let mut metrics = Metrics::new();
    // The clock probe, taken at the start, between the stages and at the
    // end: per-layer times are raw host times, and these say how fast the
    // host's clock ran while they were taken.
    let mut reference_s = vec![host::clock_probe_s()];

    let (plain, traced) = whole_samples(pinned, seconds, &mut tracer, &mut checker, &mut metrics);
    reference_s.push(host::clock_probe_s());
    if let (Some(first), false) = (plain.first(), traced.is_empty()) {
        let cfg = pinned.probe_config();
        let run_s = median_of(&plain, |s| s.run_s);
        let rounds = first.rounds as f64;
        metrics.push(("sim_final_acc", first.sim.final_acc));
        metrics.push(("sim_dropout_frac", first.sim.dropout_frac));
        metrics.push(("sim_wall_h", first.sim.wall_h));
        metrics.push(("sim_wasted_frac", first.sim.wasted_frac));
        metrics.push(("report_digest48", digest48(first.digest)));
        metrics.push(("core.run_ms_per_round", run_s * 1e3 / rounds));
        let traced_run_s = median_of(&traced, |s| s.run_s);
        metrics.push(("core.trace_overhead_frac", traced_run_s / run_s - 1.0));
        metrics.push(("core.traced_samples", traced.len() as f64));
        metrics.push((
            "core.retries_per_round",
            first.stall_retries as f64 / rounds,
        ));
        metrics.push(("obs.events_per_round", first.events as f64 / rounds));

        // Phase totals come from the traced samples. A sweep's trials
        // keep their telemetry to themselves, so its phases come from
        // the full grid run trial by trial.
        let (phases, phase_rounds) = match (&pinned.job, first.sweep) {
            (Job::Sweep(plan), Some(sweep)) => {
                let grid = sweep_metrics(plan, &sweep, first, run_s, &mut tracer, &mut metrics);
                checker.check(grid.as_ref().map(|_| ()).map_err(String::clone));
                grid.unwrap_or_default()
            }
            _ => {
                metrics.push(("sweep.rounds_executed_frac", 1.0));
                metrics.push(("sweep.halving_regret", 0.0));
                metrics.push(("sweep.trials_per_h", 3600.0 / run_s));
                let mut phases = Phases::default();
                for s in &traced {
                    phases.add(&s.phases.expect("traced experiment reports phases"));
                }
                (phases, traced.iter().map(|s| s.rounds).sum())
            }
        };
        phase_metrics(&phases, phase_rounds, &mut metrics);
        checker.check(counters(pinned, cfg, &mut metrics));
        let layer = tracer
            .span("probes", |t| probes::run(&cfg, t, &mut metrics))
            .0;
        reference_s.push(host::clock_probe_s());
        accounting(&cfg, &layer, first, &phases, run_s, &mut metrics);
        checker.check(informational_pairs(pinned, cfg, run_s, &mut metrics));
    }
    reference_s.push(host::clock_probe_s());
    let (lo, hi) = (
        percentile(&reference_s, 0.01),
        percentile(&reference_s, 1.0),
    );
    metrics.push(("host.ref_spread", hi / lo - 1.0));
    metrics.push(("host.ref_ms", median(&reference_s) * 1e3));

    let mut self_ms = Map::new();
    for (id, span) in tracer.spans().iter().enumerate() {
        let so_far = self_ms
            .get(&span.name)
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        let total = so_far + tracer.self_ns(id) as f64 / 1e6;
        self_ms.insert(span.name.clone(), value(&total));
    }
    let detail = object([
        ("reference_s", value(&reference_s)),
        ("self_ms_by_span", Value::Object(self_ms)),
        ("spans", value(&tracer.spans().to_vec())),
    ]);
    Pass {
        metrics,
        checker,
        detail,
    }
}

/// One warm-up, then untraced and traced samples in alternation for a
/// third of the run; the rest of the traced pass does a pinned amount of
/// work that fits the remainder.
fn whole_samples(
    pinned: &Pinned,
    seconds: f64,
    tracer: &mut Tracer,
    checker: &mut Checker,
    metrics: &mut Metrics,
) -> (Vec<Sample>, Vec<Sample>) {
    checker.admit(0, pinned.sample(None), true);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let oncpu_start = host::oncpu_ns();
    while start.elapsed().as_secs_f64() < seconds * 0.3 || traced.len() < 3 {
        // Alternate which goes first so drift in host speed cancels.
        for with_tracer in [traced.len() % 2 == 1, traced.len() % 2 == 0] {
            if with_tracer {
                traced.extend(checker.admit(0, pinned.sample(Some(&mut *tracer)), false));
            } else {
                plain.extend(checker.admit(0, pinned.sample(None), true));
            }
        }
        if plain.is_empty() || traced.is_empty() {
            break;
        }
    }
    let wall_ns = start.elapsed().as_nanos() as f64;
    if let (Some(a), Some(b)) = (oncpu_start, host::oncpu_ns()) {
        metrics.push(("host.oncpu_frac", (b - a) as f64 / wall_ns));
    }
    (plain, traced)
}

/// The sweep's own counts, its full grid for the phase totals, and two
/// checks on it. Pruning decides which trials finish, never the bits of
/// those that do, so the winner's outcomes must equal its full-grid
/// run's. Whether halving *finds* the grid's best trial is a property of
/// the search, reported as regret, not a failure.
fn sweep_metrics(
    plan: &SweepPlan,
    sweep: &SweepCounts,
    first: &Sample,
    run_s: f64,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> Result<(Phases, usize), String> {
    let frac = sweep.rounds_executed as f64 / sweep.full_grid_rounds as f64;
    metrics.push(("sweep.rounds_executed_frac", frac));
    metrics.push(("sweep.trials_per_h", sweep.trials as f64 * 3600.0 / run_s));
    let gets = (sweep.shard_hits + sweep.shard_derivations) as f64;
    metrics.push(("data.shard_hit_ratio", sweep.shard_hits as f64 / gets));
    metrics.push(("data.shard_derivations", sweep.shard_derivations as f64));
    let (grid, phases, rounds) = tracer
        .span("sweep.full_grid", |t| workloads::full_grid(plan, t))
        .0?;
    let best = grid.iter().map(|o| o.final_acc).fold(f64::MIN, f64::max);
    metrics.push(("sweep.halving_regret", best - first.sim.final_acc));
    if grid[sweep.winner] != first.sim {
        return Err(format!(
            "trial {} ended on {:?} under halving, {:?} in the full grid",
            sweep.winner, first.sim, grid[sweep.winner]
        ));
    }
    Ok((phases, rounds))
}

fn phase_metrics(phases: &Phases, rounds: usize, metrics: &mut Metrics) {
    let per_round = |count: u64| count as f64 / rounds.max(1) as f64;
    let phase_us = phases.plan_us + phases.execute_us + phases.commit_us;
    let run_us = phases.run_us.max(1) as f64;
    metrics.push(("core.plan_ms_per_round", per_round(phases.plan_us) / 1e3));
    metrics.push((
        "core.execute_ms_per_round",
        per_round(phases.execute_us) / 1e3,
    ));
    metrics.push((
        "core.commit_ms_per_round",
        per_round(phases.commit_us) / 1e3,
    ));
    metrics.push(("core.unattributed_frac", 1.0 - phase_us as f64 / run_us));
    metrics.push(("core.execute_share", phases.execute_us as f64 / run_us));
    metrics.push(("core.attempts_per_round", per_round(phases.attempts)));
}

/// Counters only a dedicated entry point returns, one run each.
fn counters(pinned: &Pinned, cfg: ExperimentConfig, metrics: &mut Metrics) -> Result<(), String> {
    let (_, cache, avail) = Experiment::new(cfg)?.run_with_population_stats();
    let per_round = avail.transitions_applied as f64 / avail.rounds_advanced.max(1) as f64;
    metrics.push(("traces.transitions_per_round", per_round));
    // A sweep reports its sweep-wide shard store instead.
    if matches!(pinned.job, Job::Experiment(_)) {
        let gets = (cache.hits + cache.misses) as f64;
        metrics.push(("data.shard_hit_ratio", cache.hits as f64 / gets));
        metrics.push(("data.shard_derivations", cache.misses as f64));
    }
    let learns = matches!(
        cfg.accel,
        AccelMode::Rl | AccelMode::Rlhf | AccelMode::RlhfExtended
    );
    let rows = if learns {
        let (_, agent) = Experiment::new(cfg)?.run_capturing_agent();
        agent.table().num_rows()
    } else {
        0
    };
    metrics.push(("rl.qtable_entries", rows as f64));
    let (_, profiler) = Experiment::new(cfg)?.run_with_profiler_stats();
    let resident = profiler.map_or(0, |p| p.resident);
    metrics.push(("profile.store_resident", resident as f64));
    Ok(())
}

/// What the outside probes account for: of the execute phase, per
/// attempt; of a run, the selection and the availability sweep per round.
fn accounting(
    cfg: &ExperimentConfig,
    layer: &LayerTimes,
    first: &Sample,
    phases: &Phases,
    run_s: f64,
    metrics: &mut Metrics,
) {
    let accel_s = if cfg.accel == AccelMode::Off {
        0.0
    } else {
        layer.apply_action_s + layer.transform_update_s
    };
    // Every attempt is simulated; only one that completes trains (with an
    // evaluation before and after) and transforms its update.
    let completed = 1.0 - first.sim.dropout_frac;
    let trained_s = accel_s + cfg.local_epochs as f64 * layer.train_epoch_s + 2.0 * layer.eval_s;
    let per_attempt_s = layer.client_round_s + completed * trained_s;
    let execute_s = phases.execute_us.max(1) as f64 / 1e6;
    metrics.push((
        "core.execute_accounted_frac",
        phases.attempts as f64 * per_attempt_s / execute_s,
    ));
    let per_round_s = layer.select_s + layer.avail_sweep_s;
    metrics.push((
        "core.select_avail_share",
        per_round_s * first.rounds as f64 / run_s,
    ));
}

/// Informational pairs; too noisy on a shared two-core host to gate on,
/// reported so that a claim about them has a number to cite.
fn informational_pairs(
    pinned: &Pinned,
    cfg: ExperimentConfig,
    run_s: f64,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let with = |obs| ExperimentConfig { obs, ..cfg };
    let overhead = speedup(2, with(ObsConfig::on()), with(ObsConfig::off()))? - 1.0;
    metrics.push(("obs.enabled_overhead_frac", overhead));
    let two = ExperimentConfig {
        num_threads: 2,
        ..cfg
    };
    let engine = match &pinned.job {
        // A sweep spreads trials, not attempts, over its workers.
        Job::Sweep(plan) => run_s / workloads::sweep_two_workers(plan)?,
        Job::Experiment(_) => speedup(1, cfg, two)?,
    };
    metrics.push(("core.engine_speedup_t2", engine));
    let piped = ExperimentConfig {
        pipeline_rounds: true,
        ..two
    };
    metrics.push(("core.pipeline_speedup_t2", speedup(1, two, piped)?));
    Ok(())
}
