//! The four workloads: their pinned configurations, one sample of each,
//! and the checks a sample's outputs must pass.
//!
//! Every workload is a closed loop with one caller: the next sample starts
//! when the previous one has returned. Sizes are pinned here, never
//! calibrated to the host, so a sample is the same work on every commit.
//! The program under test receives only the `ExperimentConfig` /
//! `SweepPlan` built from `--seed`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use float_core::optim::ServerOptimizerChoice;
use float_core::trial::SharedPopulation;
use float_core::{AccelMode, Experiment, ExperimentConfig, ExperimentReport, SelectorChoice};
use float_data::Task;
use float_obs::{sink, Event, ObsConfig, Phase};
use float_profile::ProfilingConfig;
use float_sim::FaultPlan;
use float_sweep::{run_sweep, Halving, Knob, SweepOptions, SweepOutcome, SweepPlan};
use float_tensor::rng::split_seed;
use serde::Serialize;

use crate::json::{object, value};
use crate::spans::Tracer;

/// `(name, why)` of each workload, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "train_heavy",
        "paper sec. 6.1 setup (200 clients, FedAvg, RLHF accel): wall is the execute phase (GEMM, local SGD, accel transforms); population and selection cost nothing",
    ),
    (
        "pop1m_oort",
        "1M clients, Oort, accel off: the availability sweep and Oort scoring of the whole eligible set dominate; training is a small share; carries set-up time and memory",
    ),
    (
        "async_chaos",
        "FedBuff event loop with chaos faults, online profiler and telemetry on: the same runtime driven the other way (retries, dedup, quarantine, event stream to JSONL)",
    ),
    (
        "sweep_halving",
        "3x3 grid (learning rate x server optimizer) under successive halving over one shared population, workers=1: many short trials on a warm shard store; tuning cost is the result",
    ),
];

/// What one sample runs.
pub enum Job {
    Experiment(ExperimentConfig),
    Sweep(SweepPlan),
}

/// A workload with its configuration pinned for one `--seed`.
pub struct Pinned {
    pub name: &'static str,
    pub job: Job,
}

/// Set-ups timed back to back per sample; a sample's `setup_s` is their
/// mean. Building a 200-client experiment takes ~100 us, too short to
/// time once; the 1M-client build takes ~90 ms and is timed alone.
fn setup_reps(cfg: &ExperimentConfig) -> usize {
    if cfg.num_clients >= 100_000 {
        1
    } else {
        32
    }
}

/// The population every experiment workload runs on. `--seed` draws the
/// run (selection, exploration, faults, model init), not the population:
/// a fresh 200-client population per seed moves `train_heavy`'s work by
/// 13 % between seeds (quartile distance over median, counted in trained
/// samples), a fixed one by 9 %, and the host's own noise is on top.
const POPULATION_SEED: u64 = 20_240_422;

/// Run seeds an untraced pass cycles through, all drawn from `--seed`.
/// What a seed draws sets how much work a run is (which clients are
/// picked, how many drop out: 9 % between seeds on `train_heavy`, quartile
/// distance over median), so a pass that timed one run seed would report
/// that draw and not the program. Sixteen put a pass within 3 % of any
/// other's work, and every sample past the first cycle still repeats an
/// earlier one, whose report it must reproduce.
pub const VARIANTS: u64 = 16;

/// `--seed` split into the run seed of each variant.
pub fn variant_seeds(seed: u64) -> Vec<u64> {
    (0..VARIANTS).map(|k| split_seed(seed, k)).collect()
}

/// The successive-halving schedule of `sweep_halving`.
pub const HALVING: Halving = Halving { eta: 3, r0: 2 };

impl Pinned {
    /// Pin workload `name` for `seed`; `None` for an unknown name.
    ///
    /// Presets plus overrides rather than struct literals, so a field
    /// added to `ExperimentConfig` later does not stop the benchmark from
    /// building; every field that sets the amount of work is assigned
    /// here and the resolved config is written out with each result.
    pub fn new(name: &str, seed: u64) -> Option<Pinned> {
        // One stream per workload; a sweep's root seed must not be 0.
        let stream = |k: u64| split_seed(seed, k).max(1);
        let (name, job) = match name {
            "train_heavy" => {
                let mut c = ExperimentConfig::paper_e2e(
                    Task::Femnist,
                    SelectorChoice::FedAvg,
                    AccelMode::Rlhf,
                    12,
                );
                c.num_clients = 200;
                c.cohort_size = 30;
                c.local_epochs = 5;
                c.batch_size = 20;
                c.mean_samples = 120;
                c.eval_every = 6;
                c.seed = stream(1);
                ("train_heavy", Job::Experiment(c))
            }
            "pop1m_oort" => {
                let mut c = ExperimentConfig::paper_e2e(
                    Task::Femnist,
                    SelectorChoice::Oort,
                    AccelMode::Off,
                    6,
                );
                c.num_clients = 1_000_000;
                c.cohort_size = 16;
                c.local_epochs = 2;
                c.batch_size = 16;
                c.mean_samples = 80;
                c.eval_sample = 256;
                c.eval_every = c.rounds;
                c.candidate_pool = 0;
                c.shard_cache = 0;
                c.seed = stream(2);
                ("pop1m_oort", Job::Experiment(c))
            }
            "async_chaos" => {
                let mut c = ExperimentConfig::small(SelectorChoice::FedBuff, AccelMode::Rlhf, 90);
                c.num_clients = 200;
                c.async_concurrency = 60;
                c.async_buffer = 16;
                c.local_epochs = 2;
                c.batch_size = 16;
                c.mean_samples = 60;
                c.eval_every = 5;
                c.fault_plan = FaultPlan::chaos();
                c.profiling = ProfilingConfig::on();
                c.obs = ObsConfig::on();
                c.seed = stream(3);
                ("async_chaos", Job::Experiment(c))
            }
            "sweep_halving" => {
                let mut c = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Rlhf, 54);
                c.num_clients = 80;
                c.cohort_size = 10;
                c.local_epochs = 2;
                c.batch_size = 16;
                c.mean_samples = 60;
                c.eval_every = 5;
                // Axes on which every trial costs the same. On a cohort x
                // epochs grid a trial costs up to 9x another, so which one
                // survives the early rungs — a coin toss after two rounds —
                // moved a sweep's work by 31 % between seeds. (A sweep's
                // root seed is also its population seed, so here the
                // population does change with `--seed`.)
                let axes = [
                    [0.02, 0.05, 0.1].map(Knob::LearningRate).to_vec(),
                    [
                        ServerOptimizerChoice::FedAvg,
                        ServerOptimizerChoice::FedAvgM,
                        ServerOptimizerChoice::FedAdam,
                    ]
                    .map(Knob::ServerOptim)
                    .to_vec(),
                ];
                (
                    "sweep_halving",
                    Job::Sweep(SweepPlan::grid(c, stream(4), &axes)),
                )
            }
            _ => return None,
        };
        let mut pinned = Pinned { name, job };
        if let Job::Experiment(c) = &mut pinned.job {
            // All end-to-end timing is single-threaded: two threads on
            // this two-core shared host swing 2x from run to run.
            c.num_threads = 1;
            c.pipeline_rounds = false;
            c.data_seed = POPULATION_SEED;
        }
        Some(pinned)
    }

    /// The experiment config whose shapes the per-layer probes use: the
    /// workload's own, or for the sweep its middle trial at full budget.
    pub fn probe_config(&self) -> ExperimentConfig {
        match &self.job {
            Job::Experiment(c) => *c,
            Job::Sweep(plan) => plan.trial_config(plan.len() / 2, plan.full_budget()),
        }
    }

    /// The pinned configuration as JSON, serialised from the config
    /// itself.
    pub fn config_json(&self) -> serde_json::Value {
        match &self.job {
            Job::Experiment(c) => value(c),
            Job::Sweep(plan) => {
                let trials: Vec<_> = (0..plan.len())
                    .map(|i| plan.trial_config(i, plan.full_budget()))
                    .collect();
                object([
                    ("halving", value(&HALVING)),
                    ("workers", value(&1u64)),
                    ("trials", value(&trials)),
                ])
            }
        }
    }

    /// Run one sample and check its outputs. With a tracer the sample is
    /// the *traced* variant: spans around each call and, for experiments,
    /// wall-clock phase timers switched on inside the program.
    ///
    /// # Errors
    ///
    /// Returns why the sample failed: a panic, an `Err` from the program,
    /// or an output check.
    pub fn sample(&self, mut tracer: Option<&mut Tracer>) -> Result<Sample, String> {
        catch_unwind(AssertUnwindSafe(|| match &self.job {
            Job::Experiment(cfg) => {
                let mut cfg = *cfg;
                if tracer.is_some() {
                    cfg.obs = ObsConfig::profiled();
                }
                experiment_sample(cfg, &mut tracer, None)
            }
            Job::Sweep(plan) => sweep_sample(plan, &mut tracer),
        }))
        .unwrap_or_else(|panic| Err(format!("panicked: {}", panic_message(&panic))))
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> &str {
    panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("(no message)")
}

/// The simulated outcomes of a run. A deterministic simulator repeats
/// them exactly, so a change that only makes the simulator faster must
/// leave every one bit-equal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SimOutcome {
    pub final_acc: f64,
    pub dropout_frac: f64,
    pub wall_h: f64,
    pub wasted_frac: f64,
}

impl SimOutcome {
    fn of(report: &ExperimentReport) -> Self {
        let r = &report.resources;
        let attempts = report.total_completions + report.total_dropouts;
        SimOutcome {
            final_acc: report.accuracy.mean,
            dropout_frac: report.total_dropouts as f64 / attempts.max(1) as f64,
            wall_h: report.wall_clock_h,
            wasted_frac: r.wasted_compute_h / r.total_compute_h().max(f64::MIN_POSITIVE),
        }
    }
}

/// Per-phase wall time inside `core.run`, from `PhaseSpan` events.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct Phases {
    pub plan_us: u64,
    pub execute_us: u64,
    pub commit_us: u64,
    /// Wall time of the `core.run` span the phases lie in.
    pub run_us: u64,
    pub attempts: u64,
}

impl Phases {
    pub fn add(&mut self, other: &Phases) {
        self.plan_us += other.plan_us;
        self.execute_us += other.execute_us;
        self.commit_us += other.commit_us;
        self.run_us += other.run_us;
        self.attempts += other.attempts;
    }
}

/// What one sample measured.
#[derive(Debug, Clone, Serialize)]
pub struct Sample {
    pub setup_s: f64,
    pub run_s: f64,
    /// FNV-1a of the serialised report (sweep: of the whole outcome).
    pub digest: u64,
    pub sim: SimOutcome,
    /// Rounds the sample executed (sweep: over all rungs).
    pub rounds: usize,
    pub stall_retries: u64,
    /// Telemetry events handed to the caller.
    pub events: usize,
    /// Only on traced samples of experiments.
    pub phases: Option<Phases>,
    /// Sweep only.
    pub sweep: Option<SweepCounts>,
}

#[derive(Debug, Clone, Copy, Serialize)]
pub struct SweepCounts {
    pub winner: usize,
    pub trials: usize,
    pub rounds_executed: usize,
    pub full_grid_rounds: usize,
    pub shard_hits: u64,
    pub shard_derivations: u64,
}

/// FNV-1a over the JSON text of `value`. The serde shim writes maps in
/// sorted order, so the text — and the digest — is a function of the
/// value alone.
pub fn digest<T: Serialize>(value: &T) -> u64 {
    let text = serde_json::to_string(value).expect("report serialises");
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Time `f`, inside a span when tracing.
fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &str,
    f: impl FnOnce() -> T,
) -> (T, f64, Option<usize>) {
    match tracer {
        Some(t) => {
            let (out, id) = t.span(name, |_| f());
            (out, t.duration_ns(id) as f64 / 1e9, Some(id))
        }
        None => {
            let start = Instant::now();
            let out = f();
            (out, start.elapsed().as_secs_f64(), None)
        }
    }
}

/// One experiment, set-up and run timed apart. Telemetry is taken (and
/// serialised, as a user exporting it would) whenever the config enables
/// it.
pub fn experiment_sample(
    cfg: ExperimentConfig,
    tracer: &mut Option<&mut Tracer>,
    shared: Option<&SharedPopulation>,
) -> Result<Sample, String> {
    let reps = setup_reps(&cfg);
    let (exp, setup_s, _) = timed(tracer, "core.new", || {
        let mut built = None;
        for _ in 0..reps {
            built = Some(match shared {
                None => Experiment::new(cfg),
                Some(population) => Experiment::new_shared(cfg, population),
            });
        }
        built.expect("at least one set-up")
    });
    let (exp, setup_s) = (exp?, setup_s / reps as f64);
    let ((report, telemetry), run_s, run_span) = timed(tracer, "core.run", || {
        if cfg.obs.enabled {
            let (report, telemetry) = exp.run_traced();
            (report, Some(telemetry))
        } else {
            (exp.run(), None)
        }
    });
    let mut sample = Sample {
        setup_s,
        run_s,
        digest: digest(&report),
        sim: SimOutcome::of(&report),
        rounds: report.rounds.len(),
        stall_retries: report.stall_retries,
        events: 0,
        phases: None,
        sweep: None,
    };
    if !report.is_finite() {
        return Err("report holds a non-finite value".into());
    }
    if !cfg.fault_plan.is_empty() && report.total_quarantined == 0 {
        return Err("chaos faults quarantined no update".into());
    }
    let Some(telemetry) = telemetry else {
        return Ok(sample);
    };
    // The export a user of the stream pays for is part of the run.
    let (jsonl, jsonl_s, _) = timed(tracer, "obs.to_jsonl", || sink::to_jsonl(&telemetry.events));
    sample.run_s += jsonl_s;
    sample.events = telemetry.events.len();
    let parsed = sink::from_jsonl(&jsonl)?;
    if parsed.len() != telemetry.events.len() {
        return Err(format!(
            "JSONL round trip kept {} of {} events",
            parsed.len(),
            telemetry.events.len()
        ));
    }
    let outcomes = telemetry.summary.event_count("client_outcome");
    // The ledger, not the per-round totals: the async engine commits an
    // attempt at launch, so attempts still in flight at the end are in
    // the ledger and the stream but in no round's record.
    let committed = report.resources.completions + report.resources.dropouts;
    if outcomes != committed {
        return Err(format!(
            "{outcomes} ClientOutcome events for {committed} committed attempts"
        ));
    }
    if cfg.obs.wall_timers {
        let mut phases = Phases {
            run_us: (run_s * 1e6) as u64,
            attempts: telemetry.summary.counter("attempts_executed"),
            ..Phases::default()
        };
        let mut children = Vec::new();
        for event in &telemetry.events {
            if let Event::PhaseSpan { phase, wall_us, .. } = *event {
                let (total, name) = match phase {
                    Phase::Plan => (&mut phases.plan_us, "core.plan"),
                    Phase::Execute => (&mut phases.execute_us, "core.execute"),
                    Phase::Commit => (&mut phases.commit_us, "core.commit"),
                };
                *total += wall_us;
                children.push((name, wall_us * 1000));
            }
        }
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), run_span) {
            t.add_children(id, &children);
        }
        sample.phases = Some(phases);
    }
    Ok(sample)
}

fn sweep_options() -> SweepOptions {
    SweepOptions {
        workers: 1,
        halving: Some(HALVING),
        obs_dir: None,
    }
}

/// One sweep. `run_sweep` builds its own shared population inside, so
/// set-up is timed on a separate build of the same population.
fn sweep_sample(plan: &SweepPlan, tracer: &mut Option<&mut Tracer>) -> Result<Sample, String> {
    let population = plan.trial_config(0, plan.full_budget());
    let reps = setup_reps(&population);
    let (built, setup_s, _) = timed(tracer, "core.shared_population", || {
        (0..reps).try_for_each(|_| SharedPopulation::build(&population).map(drop))
    });
    built?;
    let setup_s = setup_s / reps as f64;
    let (outcome, run_s, _) = timed(tracer, "sweep.run_sweep", || {
        run_sweep(plan, &sweep_options())
    });
    sweep_checked(plan, &outcome?, setup_s, run_s)
}

fn sweep_checked(
    plan: &SweepPlan,
    outcome: &SweepOutcome,
    setup_s: f64,
    run_s: f64,
) -> Result<Sample, String> {
    let best = outcome.best().ok_or("sweep finished no trial")?;
    if outcome.results.iter().any(|t| !t.report.is_finite()) {
        return Err("a trial report holds a non-finite value".into());
    }
    if outcome.rounds_executed * 2 > outcome.full_grid_rounds {
        return Err(format!(
            "halving executed {} of {} grid rounds, more than half",
            outcome.rounds_executed, outcome.full_grid_rounds
        ));
    }
    Ok(Sample {
        setup_s,
        run_s,
        digest: digest(outcome),
        sim: SimOutcome::of(&best.report),
        rounds: outcome.rounds_executed,
        stall_retries: outcome.results.iter().map(|t| t.report.stall_retries).sum(),
        events: 0,
        phases: None,
        sweep: Some(SweepCounts {
            winner: best.idx,
            trials: plan.len(),
            rounds_executed: outcome.rounds_executed,
            full_grid_rounds: outcome.full_grid_rounds,
            shard_hits: outcome.amortization.shard_hits,
            shard_derivations: outcome.amortization.shard_derivations,
        }),
    })
}

/// Run every trial of the grid at full budget with phase timers on, and
/// return each trial's outcomes with the phase totals and rounds over all
/// of them.
///
/// # Errors
///
/// Returns the first trial's failure.
pub fn full_grid(
    plan: &SweepPlan,
    tracer: &mut Tracer,
) -> Result<(Vec<SimOutcome>, Phases, usize), String> {
    let population = plan.trial_config(0, plan.full_budget());
    let shared = SharedPopulation::build(&population)?;
    let mut phases = Phases::default();
    let mut outcomes = Vec::new();
    let mut rounds = 0;
    for idx in 0..plan.len() {
        let mut cfg = plan.trial_config(idx, plan.full_budget());
        cfg.obs = ObsConfig::profiled();
        let sample = experiment_sample(cfg, &mut Some(&mut *tracer), Some(&shared))?;
        phases.add(&sample.phases.expect("profiled run reports phases"));
        rounds += sample.rounds;
        outcomes.push(sample.sim);
    }
    Ok((outcomes, phases, rounds))
}

/// The sweep with two workers instead of one (informational).
pub fn sweep_two_workers(plan: &SweepPlan) -> Result<f64, String> {
    let opts = SweepOptions {
        workers: 2,
        ..sweep_options()
    };
    let start = Instant::now();
    run_sweep(plan, &opts)?;
    Ok(start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_workload_pins_and_validates() {
        for (name, why) in WORKLOADS {
            let pinned = Pinned::new(name, 7).expect(name);
            assert_eq!(pinned.name, name);
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
            pinned.probe_config().validate().expect(name);
            assert_eq!(pinned.probe_config().num_threads, 1);
        }
        assert!(Pinned::new("nope", 7).is_none());
    }

    #[test]
    fn seed_zero_still_gives_a_sweep_root() {
        let Job::Sweep(plan) = Pinned::new("sweep_halving", 0).expect("pins").job else {
            panic!("sweep_halving is a sweep");
        };
        assert_ne!(plan.root_seed(), 0);
    }

    #[test]
    fn digest_is_stable_across_serialisations_and_sees_changes() {
        let mut cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Rlhf, 2);
        cfg.num_threads = 1;
        let report = Experiment::new(cfg).expect("valid").run();
        // technique_stats is a HashMap: a clone rehashes it, so equal
        // digests show the text does not follow iteration order.
        assert_eq!(digest(&report), digest(&report.clone()));
        let back: ExperimentReport =
            serde_json::from_str(&serde_json::to_string(&report).expect("serialises"))
                .expect("parses");
        assert_eq!(digest(&report), digest(&back));
        let mut changed = report.clone();
        changed.total_dropouts += 1;
        assert_ne!(digest(&report), digest(&changed));
    }
}
