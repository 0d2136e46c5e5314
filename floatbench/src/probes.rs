//! Per-layer probes: each times calls into one crate's public functions,
//! from outside, on inputs shaped like the named workload's. A probe runs
//! a pinned number of calls (never calibrated to the host), `REPS` times,
//! and reports the median per call; every repetition is a span.

use std::hint::black_box;

use float_accel::compress::compress_f32_update;
use float_accel::{apply::transform_update, apply_action_protected, ActionCatalogue};
use float_core::aggregate::PendingUpdate;
use float_core::{AccelMode, ExperimentConfig, SelectorChoice, ServerOptimizer};
use float_data::{ShardCache, ShardSpec};
use float_models::RoundCost;
use float_obs::{sink, Collector, Event, ObsConfig, OutcomeKind};
use float_profile::{ClientProfiler, Observation, ObservedOutcome, ProfilingConfig};
use float_rl::state::Level5;
use float_rl::{AgentConfig, DeadlineLevel, GlobalState, LocalState, RlhfAgent};
use float_select::{
    ClientSelector, FedAvgSelector, FedBuffSelector, OortSelector, ReflSelector, SelectionFeedback,
    TiflSelector,
};
use float_sim::{apply_outcome_fault, execute_client_round, RoundParams};
use float_tensor::rng::split_seed;
use float_tensor::{kernels, Mlp, MlpConfig, Sgd};
use float_traces::ResourceSampler;

use crate::spans::Tracer;
use crate::stats::{geomean, median};

/// Repetitions per probe; the median is reported.
const REPS: usize = 5;

/// Hidden width of the runtime's proxy model (`PROXY_HIDDEN` in
/// `float-core`, which is private there).
const PROXY_HIDDEN: usize = 128;

/// Candidate-pool size of the 10M-client preset, the only user of pools.
const POOL: usize = 2048;

/// Seconds per call of the probes the accounting metrics are built from.
pub struct LayerTimes {
    pub apply_action_s: f64,
    pub transform_update_s: f64,
    pub client_round_s: f64,
    pub train_epoch_s: f64,
    pub eval_s: f64,
    pub select_s: f64,
    pub avail_sweep_s: f64,
}

/// Median seconds per call over `REPS` batches of `batch` calls. `setup`
/// builds fresh state for each batch outside the timed span.
fn per_call<S>(
    tracer: &mut Tracer,
    name: &str,
    batch: usize,
    mut setup: impl FnMut() -> S,
    mut call: impl FnMut(&mut S, usize),
) -> f64 {
    let per: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut state = setup();
            let ((), id) = tracer.span(name, |_| {
                for i in 0..batch {
                    call(&mut state, i);
                }
            });
            tracer.duration_ns(id) as f64 / 1e9 / batch as f64
        })
        .collect();
    median(&per)
}

fn fill(len: usize, seed: u64) -> Vec<f32> {
    (0..len as u64)
        .map(|i| (split_seed(seed, i) >> 40) as f32 / (1u64 << 23) as f32 - 1.0)
        .collect()
}

fn selector(cfg: &ExperimentConfig, seed: u64) -> Box<dyn ClientSelector> {
    match cfg.selector {
        SelectorChoice::FedAvg => Box::new(FedAvgSelector::new(seed)),
        SelectorChoice::Oort => Box::new(OortSelector::new(seed, cfg.deadline_s / 2.0)),
        SelectorChoice::Refl => Box::new(ReflSelector::new(seed, cfg.deadline_s)),
        SelectorChoice::FedBuff => Box::new(FedBuffSelector::new(
            seed,
            cfg.async_concurrency,
            cfg.async_buffer,
        )),
        SelectorChoice::Tifl => Box::new(TiflSelector::new(seed)),
    }
}

fn agent_states() -> Vec<(LocalState, DeadlineLevel)> {
    let mut out = Vec::new();
    for hf in DeadlineLevel::ALL {
        for cpu in Level5::ALL {
            for mem in Level5::ALL {
                for net in Level5::ALL {
                    out.push((LocalState { cpu, mem, net }, hf));
                }
            }
        }
    }
    out
}

/// Run every probe on `cfg`'s shapes, push `(metric, value)` pairs onto
/// `out`, and return the per-call times the accounting metrics need.
pub fn run(
    cfg: &ExperimentConfig,
    tracer: &mut Tracer,
    out: &mut Vec<(&'static str, f64)>,
) -> LayerTimes {
    let seed = cfg.seed;
    let pop_seed = cfg.population_seed();
    let n = cfg.num_clients;
    let spec = ShardSpec::new(cfg.federated_config(), split_seed(pop_seed, 1));
    let synth = *spec.synthetic();
    let (dim, classes, batch) = (synth.feature_dim, synth.num_classes, cfg.batch_size);
    let mlp_cfg = MlpConfig::new(dim, &[PROXY_HIDDEN], classes);
    let model = Mlp::new(&mlp_cfg, split_seed(seed, 6));
    let params = model.params();
    let protected = model.protected_mask();
    // A few real client shards; their mean size scales the accounting.
    let shards: Vec<_> = (0..n.min(16)).map(|c| spec.shard_pair(c)).collect();
    let mean_train =
        shards.iter().map(|(train, _)| train.len()).sum::<usize>() as f64 / shards.len() as f64;

    // ---- tensor -----------------------------------------------------
    // The five GEMMs of one MLP training step at the workload's batch.
    type Gemm = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);
    let gemms: [(Gemm, usize, usize, usize); 5] = [
        (kernels::gemm_nn, batch, dim, PROXY_HIDDEN),
        (kernels::gemm_nn, batch, PROXY_HIDDEN, classes),
        (kernels::gemm_tn, dim, batch, PROXY_HIDDEN),
        (kernels::gemm_tn, PROXY_HIDDEN, batch, classes),
        (kernels::gemm_nt, batch, classes, PROXY_HIDDEN),
    ];
    let gflops: Vec<f64> = gemms
        .iter()
        .map(|&(gemm, m, k, nn)| {
            let (a, b) = (fill(m * k, 1), fill(k * nn, 2));
            let s = per_call(
                tracer,
                "tensor.gemm",
                4000,
                || vec![0.0f32; m * nn],
                |c, _| gemm(m, k, nn, black_box(&a), black_box(&b), black_box(c)),
            );
            2.0 * (m * k * nn) as f64 / s / 1e9
        })
        .collect();
    out.push(("tensor.gemm_gflops", geomean(&gflops)));

    let train_epoch_s = per_call(
        tracer,
        "tensor.train_epoch",
        shards.len() * 2,
        || (model.clone(), Sgd::new(cfg.learning_rate)),
        |(m, opt), i| {
            black_box(m.train_epoch(&shards[i % shards.len()].0, batch, opt, i as u64));
        },
    );
    out.push(("tensor.train_samples_per_s", mean_train / train_epoch_s));
    let eval_s = per_call(
        tracer,
        "tensor.evaluate",
        shards.len() * 16,
        || model.clone(),
        |m, i| {
            black_box(m.evaluate_mut(&shards[i % shards.len()].1));
        },
    );
    out.push(("tensor.eval_us", eval_s * 1e6));

    // ---- accel ------------------------------------------------------
    let catalogue = match cfg.accel {
        AccelMode::RlhfExtended => ActionCatalogue::extended(),
        _ => ActionCatalogue::paper(),
    };
    let actions: Vec<_> = catalogue.iter().collect();
    let base_cost = RoundCost::vanilla(
        &cfg.arch.profile(),
        mean_train as usize,
        cfg.local_epochs,
        batch,
    );
    let apply_action_s = per_call(
        tracer,
        "accel.apply_action",
        actions.len() * 32,
        || (),
        |(), i| {
            let action = actions[i % actions.len()];
            black_box(apply_action_protected(
                action,
                base_cost,
                &params,
                i as u64,
                Some(&protected),
            ));
        },
    );
    out.push(("accel.apply_action_us", apply_action_s * 1e6));
    // A real update: what one local epoch moves the parameters by.
    let delta: Vec<f32> = {
        let mut local = model.clone();
        local.train_epoch(&shards[0].0, batch, &mut Sgd::new(cfg.learning_rate), 1);
        local
            .params()
            .iter()
            .zip(&params)
            .map(|(l, g)| l - g)
            .collect()
    };
    let plans: Vec<_> = actions
        .iter()
        .map(|&a| apply_action_protected(a, base_cost, &params, 1, Some(&protected)))
        .collect();
    let transform_update_s = per_call(
        tracer,
        "accel.transform_update",
        actions.len() * 32,
        || (),
        |(), i| {
            let k = i % actions.len();
            black_box(transform_update(actions[k], &delta, &plans[k]));
        },
    );
    out.push(("accel.transform_update_us", transform_update_s * 1e6));
    let compress_s = per_call(
        tracer,
        "accel.compress",
        64,
        || (),
        |(), _| {
            black_box(compress_f32_update(black_box(&delta)));
        },
    );
    out.push((
        "accel.compress_mb_per_s",
        (delta.len() * 4) as f64 / 1e6 / compress_s,
    ));

    // ---- traces -----------------------------------------------------
    let trace_seed = split_seed(pop_seed, 2);
    // A call on a small population is too short to time in `rounds`
    // calls: repeat each round's call as often as makes up 200k clients.
    let scale = (200_000 / n).max(1);
    let mut heap_bytes = 0;
    let build_s = per_call(
        tracer,
        "traces.build_index",
        scale,
        || (),
        |(), _| heap_bytes = black_box(ResourceSampler::build_index(n, trace_seed)).heap_bytes(),
    );
    out.push(("traces.index_build_ms", build_s * 1e3));
    out.push((
        "traces.index_heap_mib",
        heap_bytes as f64 / (1 << 20) as f64,
    ));

    let mut pristine = ResourceSampler::new(n, cfg.interference, trace_seed);
    pristine.prewarm_full_sweep();
    let rounds = cfg.rounds;
    let mut eligible = Vec::new();
    let avail_sweep_s = per_call(
        tracer,
        "traces.available_clients",
        rounds * scale,
        || pristine.clone(),
        |s, i| s.available_clients_into(i / scale, &mut eligible),
    );
    out.push(("traces.avail_sweep_us", avail_sweep_s * 1e6));
    let mut pool = Vec::new();
    let pool_s = per_call(
        tracer,
        "traces.candidate_pool",
        rounds * scale,
        || pristine.clone(),
        |s, i| {
            black_box(s.candidate_pool_into(i / scale, POOL.min(n), i as u64, &mut pool));
        },
    );
    out.push(("traces.pool_sample_us", pool_s * 1e6));
    // First touch of a client derives its trace bundle (miss); the second
    // pass over the same clients replays the bounded cache (hit).
    let touched = n.min(2048);
    let copies = (4096 / touched).max(1);
    let mut warm = pristine.clone();
    let miss_s = per_call(
        tracer,
        "traces.snapshot_miss",
        touched * copies,
        || vec![pristine.clone(); copies],
        |s, i| {
            black_box(s[i / touched].snapshot(i % touched, 0));
        },
    );
    for c in 0..touched {
        warm.snapshot(c, 0);
    }
    let hit_s = per_call(
        tracer,
        "traces.snapshot_hit",
        touched * 16,
        || (),
        |(), i| {
            black_box(warm.snapshot(i % touched, 1 + i / touched));
        },
    );
    out.push(("traces.snapshot_miss_ns", miss_s * 1e9));
    out.push(("traces.snapshot_hit_ns", hit_s * 1e9));

    // ---- sim --------------------------------------------------------
    let snaps: Vec<_> = (0..n.min(64))
        .map(|c| (warm.snapshot(c, 0), warm.client(c).profile))
        .collect();
    let round_params = RoundParams {
        deadline_s: cfg.deadline_s,
        failure_hazard_per_s: cfg.failure_hazard_per_s,
    };
    let client_round_s = per_call(
        tracer,
        "sim.client_round",
        500_000,
        || (),
        |(), i| {
            let (snap, profile) = &snaps[i % snaps.len()];
            black_box(execute_client_round(
                snap,
                profile,
                &base_cost,
                &round_params,
                i as u64,
            ));
        },
    );
    out.push(("sim.client_round_ns", client_round_s * 1e9));
    let outcome = execute_client_round(&snaps[0].0, &snaps[0].1, &base_cost, &round_params, 1);
    let fault_s = per_call(
        tracer,
        "sim.fault_draw",
        500_000,
        || (),
        |(), i| {
            let mut outcome = outcome;
            if let Some(kind) = cfg
                .fault_plan
                .draw(seed, (i / 64) as u64, (i % 64) as u64, 0)
            {
                if !kind.affects_payload() {
                    apply_outcome_fault(&mut outcome, kind, &round_params);
                }
            }
            black_box(outcome);
        },
    );
    out.push(("sim.fault_draw_ns", fault_s * 1e9));

    // ---- data -------------------------------------------------------
    let cached = n.min(cfg.resolved_shard_cache());
    let miss_s = per_call(
        tracer,
        "data.shard_miss",
        cached,
        || ShardCache::new(spec.clone(), cached),
        |cache, c| {
            black_box(cache.get(c));
        },
    );
    let mut resident = ShardCache::new(spec.clone(), cached);
    for c in 0..cached {
        resident.get(c);
    }
    let hit_s = per_call(
        tracer,
        "data.shard_hit",
        cached * 1024,
        || (),
        |(), i| {
            black_box(resident.get(i % cached));
        },
    );
    out.push(("data.shard_miss_us", miss_s * 1e6));
    out.push(("data.shard_hit_ns", hit_s * 1e9));

    // ---- select -----------------------------------------------------
    // The workload's selector over round 0's eligible set, fed back each
    // round as the runtime does so its per-client records grow.
    pristine.clone().available_clients_into(0, &mut eligible);
    let target = if cfg.selector == SelectorChoice::FedBuff {
        cfg.async_buffer
    } else {
        cfg.cohort_size
    };
    let mut cohort = Vec::new();
    let select_s = per_call(
        tracer,
        "select.select",
        rounds * scale,
        || selector(cfg, split_seed(seed, 3)),
        |sel, i| {
            let round = i / scale;
            sel.select_into(round, &eligible, target, &mut cohort);
            let results: Vec<_> = cohort
                .iter()
                .map(|&client| SelectionFeedback {
                    client,
                    completed: client % 4 != 0,
                    duration_s: 60.0 + (client % 97) as f64,
                    utility: 1.0 + (client % 13) as f64,
                    was_available: true,
                    quarantined: false,
                })
                .collect();
            sel.feedback(round, &results);
        },
    );
    out.push(("select.select_us", select_s * 1e6));

    // ---- rl ---------------------------------------------------------
    let states = agent_states();
    let global = GlobalState::from_raw(batch, cfg.local_epochs, cfg.cohort_size);
    let mut agent = RlhfAgent::new(AgentConfig::rlhf(actions.len()), split_seed(seed, 4));
    for (i, &(local, hf)) in states.iter().enumerate() {
        agent.feedback(i, global, local, hf, i % actions.len(), 1.0, 0.5, 1, rounds);
    }
    let choose_s = per_call(
        tracer,
        "rl.choose_action",
        20_000,
        || agent.clone(),
        |a, i| {
            let (local, hf) = states[i % states.len()];
            black_box(a.choose_action(global, local, hf, rounds / 2, rounds));
        },
    );
    let feedback_s = per_call(
        tracer,
        "rl.feedback",
        20_000,
        || agent.clone(),
        |a, i| {
            let (local, hf) = states[i % states.len()];
            a.feedback(
                i % n,
                global,
                local,
                hf,
                i % actions.len(),
                1.0,
                0.4,
                rounds / 2,
                rounds,
            );
        },
    );
    out.push(("rl.choose_action_ns", choose_s * 1e9));
    out.push(("rl.feedback_ns", feedback_s * 1e9));

    // ---- profile ----------------------------------------------------
    let profiling = if cfg.profiling.enabled {
        cfg.profiling
    } else {
        ProfilingConfig::on()
    };
    let observation = |i: usize| Observation {
        round: (i / 64) as u64,
        kind: if i.is_multiple_of(5) {
            ObservedOutcome::Dropped
        } else {
            ObservedOutcome::Completed
        },
        duration_s: 60.0 + (i % 97) as f64,
        upload_mbps: Some(5.0 + (i % 7) as f64),
        compute_gflops: Some(2.0 + (i % 3) as f64),
    };
    let mut profiler = ClientProfiler::for_population(profiling, n);
    let observe_s = per_call(
        tracer,
        "profile.observe",
        100_000,
        || ClientProfiler::for_population(profiling, n),
        |p, i| p.observe(i % touched, &observation(i)),
    );
    for i in 0..touched * 2 {
        profiler.observe(i % touched, &observation(i));
    }
    let estimate_s = per_call(
        tracer,
        "profile.estimate",
        200_000,
        || (),
        |(), i| {
            black_box(profiler.estimate(i % touched));
        },
    );
    out.push(("profile.observe_ns", observe_s * 1e9));
    out.push(("profile.estimate_ns", estimate_s * 1e9));

    // ---- obs --------------------------------------------------------
    let event = |i: usize| match i % 4 {
        0 => Event::AccelDecision {
            round: (i / 64) as u64,
            client: (i % n) as u64,
            state: format!("s{}h1", i % 125),
            action: "quant8".into(),
            q: 0.25,
            explore: i.is_multiple_of(8),
        },
        1 => Event::RoundStart {
            round: (i / 64) as u64,
            sim_s: i as f64,
            eligible: n as u64,
            selected: target as u64,
        },
        _ => Event::ClientOutcome {
            round: (i / 64) as u64,
            client: (i % n) as u64,
            attempt: 0,
            outcome: OutcomeKind::Completed,
            sim_duration_s: 60.0 + (i % 97) as f64,
        },
    };
    let events: Vec<Event> = (0..32_768).map(event).collect();
    let record_s = per_call(
        tracer,
        "obs.record",
        events.len(),
        || (Collector::new(ObsConfig::on()), events.clone().into_iter()),
        |(collector, feed), _| collector.record(feed.next().expect("one event per call")),
    );
    let jsonl_s = per_call(
        tracer,
        "obs.to_jsonl",
        1,
        || (),
        |(), _| {
            black_box(sink::to_jsonl(&events));
        },
    );
    out.push(("obs.record_ns", record_s * 1e9));
    out.push((
        "obs.jsonl_ns_per_event",
        jsonl_s * 1e9 / events.len() as f64,
    ));

    // ---- core -------------------------------------------------------
    let updates: Vec<PendingUpdate> = (0..target)
        .map(|i| PendingUpdate {
            client: i,
            delta: delta.iter().map(|d| d * (1.0 + i as f32 / 64.0)).collect(),
            samples: 60 + i,
            staleness: (i % 4) as u64,
        })
        .collect();
    let aggregate_s = per_call(
        tracer,
        "core.aggregate",
        64,
        || (ServerOptimizer::new(cfg.server_optim), params.clone()),
        |(optim, global), _| {
            black_box(optim.aggregate(global, &updates));
        },
    );
    out.push(("core.aggregate_us", aggregate_s * 1e6));

    LayerTimes {
        apply_action_s,
        transform_update_s,
        client_round_s,
        train_epoch_s,
        eval_s,
        select_s,
        avail_sweep_s,
    }
}
