//! Shape-level reproduction tests of the paper's headline claims, run at
//! reduced scale through the figure harness. Absolute numbers differ from
//! the paper (simulated substrate); these tests pin down the *direction*
//! and rough *factor* of each claim so regressions in any subsystem
//! surface as figure-shape breakage.

use float_bench::figs;
use float_bench::Scale;

/// All claims tests run at quick scale in release-ish time. They are
/// deterministic (every subsystem is seeded), so no flakiness margin is
/// needed beyond the shape assertions themselves.
const SCALE: Scale = Scale::Quick;

#[test]
fn fig2_shape_async_is_faster_but_hungrier() {
    let fig = figs::fig2::run(SCALE);
    let get = |name: &str| {
        fig.rows
            .iter()
            .find(|r| r.algorithm == name)
            .unwrap_or_else(|| panic!("missing {name}"))
    };
    let fedavg = get("fedavg");
    let fedbuff = get("fedbuff");
    // Async wall-clock well below sync (paper: one third to half).
    assert!(
        fedbuff.wall_clock_h < 0.6 * fedavg.wall_clock_h,
        "fedbuff {}h !<< fedavg {}h",
        fedbuff.wall_clock_h,
        fedavg.wall_clock_h
    );
    // Async over-selects.
    assert!(fedbuff.selected > fedavg.selected);
    // REFL biases selection away from some clients (never-completed count
    // strictly worse than FedAvg's).
    let refl = get("refl");
    assert!(
        refl.never_completed >= fedavg.never_completed,
        "refl never-completed {} < fedavg {}",
        refl.never_completed,
        fedavg.never_completed
    );
}

#[test]
fn fig3_shape_dropouts_cost_accuracy_refl_suffers_most() {
    let fig = figs::fig3::run(SCALE);
    for algo in ["fedavg", "oort", "refl", "fedbuff"] {
        let penalty = fig
            .dropout_penalty(algo)
            .unwrap_or_else(|| panic!("missing rows for {algo}"));
        assert!(
            penalty > 0.0,
            "{algo}: dropouts did not reduce accuracy (penalty {penalty})"
        );
    }
    // REFL is the most dropout-sensitive of the synchronous baselines
    // (its availability-window predictions go stale under dynamic
    // resources). FedBuff's penalty is excluded from this comparison: its
    // asynchronous aggregation changes what ND means (see EXPERIMENTS.md).
    let refl = fig.dropout_penalty("refl").expect("refl rows");
    for algo in ["fedavg", "oort"] {
        let p = fig.dropout_penalty(algo).expect("rows");
        assert!(refl > p, "refl penalty {refl} !> {algo} penalty {p}");
    }
}

#[test]
fn fig4_shape_dynamic_interference_is_most_variable() {
    let fig = figs::fig4::run(SCALE);
    let cv = |scenario: &str, resource: &str| {
        fig.rows
            .iter()
            .find(|r| r.scenario == scenario && r.resource == resource)
            .map(|r| r.temporal_cv)
            .unwrap_or_else(|| panic!("missing {scenario}/{resource}"))
    };
    // Dynamic interference adds compute variability over the no- and
    // static-interference scenarios.
    assert!(cv("dynamic-interference", "compute-gflops") > cv("no-interference", "compute-gflops"));
    assert!(
        cv("dynamic-interference", "compute-gflops") > cv("static-interference", "compute-gflops")
    );
    // Mean effective compute shrinks as interference grows.
    let mean = |scenario: &str| {
        fig.rows
            .iter()
            .find(|r| r.scenario == scenario && r.resource == "compute-gflops")
            .map(|r| r.mean)
            .expect("row exists")
    };
    assert!(mean("no-interference") > mean("static-interference"));
    assert!(mean("no-interference") > mean("dynamic-interference"));
}

#[test]
fn fig5_shape_no_single_static_config_wins_everywhere() {
    let fig = figs::fig5::run(SCALE);
    // Within each scenario, heavier pruning always completes at least as
    // many clients…
    for scenario in [
        "no-interference",
        "static-interference",
        "dynamic-interference",
    ] {
        let s = |tech: &str| {
            fig.pruning_sweep
                .iter()
                .find(|r| r.scenario == scenario && r.technique == tech)
                .unwrap_or_else(|| panic!("missing {scenario}/{tech}"))
        };
        assert!(
            s("prune75").successful >= s("prune25").successful,
            "{scenario}: prune75 {} !>= prune25 {}",
            s("prune75").successful,
            s("prune25").successful
        );
        // …but costs accuracy.
        assert!(
            s("prune75").accuracy < s("prune25").accuracy,
            "{scenario}: prune75 accuracy {} !< prune25 {}",
            s("prune75").accuracy,
            s("prune25").accuracy
        );
    }
}

#[test]
fn fig6_shape_float_beats_heuristic_beats_vanilla() {
    let fig = figs::fig6::run(SCALE);
    let get = |mode: &str| {
        fig.rows
            .iter()
            .find(|r| r.mode == mode)
            .unwrap_or_else(|| panic!("missing {mode}"))
    };
    let off = get("off");
    let heuristic = get("heuristic");
    let float = get("float-rlhf");
    // Dropout ordering: FLOAT < heuristic < vanilla.
    assert!(float.dropped < heuristic.dropped);
    assert!(heuristic.dropped < off.dropped);
    // Resource-waste ordering on compute.
    assert!(float.wasted_compute_h < off.wasted_compute_h);
    // Accuracy: FLOAT at least matches the heuristic, both above vanilla.
    assert!(heuristic.accuracy > off.accuracy);
    assert!(float.accuracy >= heuristic.accuracy - 0.01);
}

#[test]
fn fig8_shape_agent_overhead_bounds_hold() {
    let fig = figs::fig8::run();
    assert!(fig.paper_bounds_hold(), "{}", fig.render());
    // Memory grows linearly-ish in the state count.
    let first = &fig.rows[0];
    let last = fig.rows.last().expect("rows");
    assert!(last.memory_bytes > first.memory_bytes);
}

#[test]
fn fig10_shape_partial_training_loses_under_unstable_network() {
    let fig = figs::fig10::run(SCALE);
    // Under the unstable-network scenario, within *network-constrained
    // states*, the partial-training family's learned participation success
    // must trail pruning's (partial training does not shrink
    // communication — the Fig. 10c lesson). The comparison conditions on
    // the state because the agent routes aggressive actions into the
    // hardest states, which would otherwise deflate them unconditionally.
    let partial = fig
        .family_participation_low_net("unstable-network", "partial")
        .expect("partial family present in low-net states");
    let prune = fig
        .family_participation_low_net("unstable-network", "prune")
        .expect("prune family present in low-net states");
    assert!(
        prune > partial,
        "unstable network, low-net states: prune {prune} !> partial {partial}"
    );
}

#[test]
fn fig11_shape_human_feedback_helps() {
    let fig = figs::fig11::run(SCALE);
    let (rl, rlhf) = fig.pair().expect("both ablation rows");
    // Direction-level reproduction: human feedback must not hurt
    // participation (the paper reports a 2x dropout gap; our gap is
    // smaller — see EXPERIMENTS.md) and must not cost accuracy beyond
    // noise.
    assert!(
        rlhf.dropped as f64 <= rl.dropped as f64 * 1.05,
        "RLHF dropped {} materially above RL {}",
        rlhf.dropped,
        rl.dropped
    );
    assert!(
        rlhf.accuracy >= rl.accuracy - 0.02,
        "RLHF accuracy {} clearly below RL {}",
        rlhf.accuracy,
        rl.accuracy
    );
}

#[test]
fn fig12_shape_float_improves_every_baseline() {
    let fig = figs::fig12::run(SCALE);
    for task in ["femnist", "cifar10", "speech"] {
        for sel in ["fedavg", "oort", "refl", "fedbuff"] {
            let red = fig
                .dropout_reduction(task, sel)
                .unwrap_or_else(|| panic!("missing {task}/{sel}"));
            assert!(
                red >= 0.75,
                "{task}/{sel}: FLOAT materially increased dropouts (reduction {red})"
            );
        }
    }
    // Dropout reductions are material on the vision tasks with FedAvg.
    let femnist = fig.dropout_reduction("femnist", "fedavg").expect("row");
    assert!(femnist > 1.1, "femnist/fedavg reduction only {femnist}x");
    // Speech drops fewer clients than FEMNIST to begin with (lighter
    // model), so FLOAT has less headroom there — the paper's explanation
    // for its small Speech gains.
    let v_fem = fig.row("femnist", "fedavg", "vanilla").expect("row");
    let v_sp = fig.row("speech", "fedavg", "vanilla").expect("row");
    assert!(
        v_sp.dropouts < v_fem.dropouts,
        "speech vanilla dropouts {} !< femnist {}",
        v_sp.dropouts,
        v_fem.dropouts
    );
}

#[test]
fn fig13_shape_openimage_gains() {
    let fig = figs::fig13::run(SCALE);
    for sel in ["fedavg", "oort", "refl", "fedbuff"] {
        let red = fig
            .e2e
            .dropout_reduction("openimage", sel)
            .unwrap_or_else(|| panic!("missing openimage/{sel}"));
        assert!(red >= 0.75, "openimage/{sel}: reduction {red}");
    }
}

/// Each profile-gap trial runs in the mode its row names, and its
/// replayed convergence curve carries well-formed error quantiles.
#[test]
fn profile_gap_rows_are_mode_correct() {
    let fig = figs::profile_gap::run(SCALE);
    assert_eq!(fig.rows.len(), 3 * fig.gaps.len());
    for row in &fig.rows {
        let cell = format!("{}/{}/{}", row.selector, row.fault, row.mode);
        let suffix_ok = match row.mode.as_str() {
            "oracle" => !row.label.contains("+prof"),
            "profiled" => row.label.ends_with("+prof"),
            _ => row.label.ends_with("+prof0"),
        };
        assert!(suffix_ok, "{cell}: label {}", row.label);
        assert_eq!(
            row.profile_observations > 0,
            row.mode != "oracle",
            "{cell}: {} profiler observations",
            row.profile_observations
        );
        assert!(
            !row.error_rounds.is_empty(),
            "{cell}: no predictions scored"
        );
        for e in &row.error_rounds {
            assert!(
                e.predictions > 0 && e.p50.is_finite() && e.p90.is_finite() && e.p50 <= e.p90,
                "{cell}: malformed error quantiles at round {}",
                e.round
            );
        }
    }
}

/// Successive halving executes fewer rounds than the full grid, and the
/// grid has a non-empty Pareto frontier.
#[test]
fn sweep_halving_saves_rounds_and_frontier_is_nonempty() {
    let fig = figs::sweep::run(SCALE);
    assert!(
        fig.pruning.rounds_executed < fig.pruning.full_grid_rounds,
        "halving ran {} of {} rounds",
        fig.pruning.rounds_executed,
        fig.pruning.full_grid_rounds
    );
    assert_eq!(fig.frontier.len(), fig.trials);
    assert!(fig.frontier.iter().any(|r| r.on_frontier));
}

/// The pooled planner never builds the full-sweep table (so no sweep
/// draw falls back to the exact rule), and training
/// data stays bounded by a shard cache far smaller than the population.
#[test]
fn population_rows_keep_memory_bounded() {
    let fig = figs::population::run(SCALE);
    let pooled = fig
        .rows
        .iter()
        .find(|r| r.candidate_pool > 0)
        .expect("pooled stand-in row");
    assert_eq!(pooled.sweep_models_mb, 0.0);
    assert_eq!(pooled.sweep_exact_fallbacks, 0);
    for row in &fig.rows {
        assert!(
            row.cache_peak_resident <= row.cache_capacity && row.cache_capacity < row.clients,
            "{} clients ({}): {} resident, capacity {}",
            row.clients,
            row.mode,
            row.cache_peak_resident,
            row.cache_capacity
        );
    }
}
