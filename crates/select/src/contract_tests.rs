//! The in-place selection contract, for all five selectors, oracle and
//! profiled: drawing in the caller's buffer — which holds the previous
//! round's leftovers until it is refilled — picks the cohort the copying
//! wrapper picks and leaves the same selector state, and Oort matches its
//! dense reference.

use std::fmt::Debug;

use float_profile::{ClientProfiler, Observation, ObservedOutcome, ProfilingConfig};
use float_tensor::rng::seed_rng;
use rand::Rng;

use crate::{
    ClientSelector, FedAvgSelector, FedBuffSelector, OortSelector, ReflSelector, SelectionFeedback,
    TiflSelector,
};

/// Rounds per run: past TiFL's first re-tiering (its tenth selection)
/// and Oort's first pacer decision (after twenty rounds of feedback).
const ROUNDS: usize = 24;

/// The reference's signature: `select_in_place`'s, with `eligible` kept.
type Reference<S> = fn(&mut S, usize, &[u32], usize, Option<&ClientProfiler>, &mut Vec<usize>);

/// The wrapper's path: `select_into` on the oracle path, and the same
/// private copy made here on the profiled one (the wrapper takes no
/// profiles).
fn through_copy<S: ClientSelector>(
    s: &mut S,
    round: usize,
    eligible: &[u32],
    target: usize,
    profiles: Option<&ClientProfiler>,
    cohort: &mut Vec<usize>,
) {
    match profiles {
        None => s.select_into(round, eligible, target, cohort),
        Some(p) => s.select_in_place(round, &mut eligible.to_vec(), target, Some(p), cohort),
    }
}

fn debug<S: Debug>(s: &S) -> String {
    format!("{s:?}")
}

/// Drive two clones of `selector` for [`ROUNDS`] rounds over churning
/// pools of sparse ids, targets of zero, of a few clients and past the
/// pool's size, and every feedback kind (plus a stranger's): one clone
/// selects in place in one buffer reused across rounds, as the sync
/// engine does, the other through `reference`. Cohorts and `state` must
/// agree after every round.
fn check<S: ClientSelector + Clone>(
    name: &str,
    selector: S,
    seed: u64,
    profiled: bool,
    reference: Reference<S>,
    state: fn(&S) -> String,
) {
    let mut in_place = selector.clone();
    let mut referenced = selector;
    let mut profiler = ClientProfiler::new(ProfilingConfig::on(), 256);
    let mut rng = seed_rng(seed);
    let population: Vec<u32> = (0..600u32)
        .map(|i| 3 * i + rng.gen_range(0..3u32))
        .collect();
    let mut buf = Vec::new();
    for round in 0..ROUNDS {
        let eligible: Vec<u32> = population
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(0.6))
            .collect();
        let target = match round % 4 {
            0 => eligible.len() + 5,
            1 => 0,
            _ => rng.gen_range(1..40),
        };
        let what = format!("{name} (seed {seed}, profiled {profiled}) round {round}");
        buf.clear();
        buf.extend_from_slice(&eligible);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let profiles = profiled.then_some(&profiler);
        in_place.select_in_place(round, &mut buf, target, profiles, &mut got);
        reference(
            &mut referenced,
            round,
            &eligible,
            target,
            profiles,
            &mut want,
        );
        assert_eq!(got, want, "{what}: cohort");
        assert_eq!(state(&in_place), state(&referenced), "{what}: state");
        let mut distinct = got.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), got.len(), "{what}: duplicate ids");
        assert!(
            got.iter()
                .all(|&c| eligible.binary_search(&(c as u32)).is_ok()),
            "{what}: a pick outside the pool"
        );

        let stranger = population[rng.gen_range(0..population.len())] as usize;
        let mut fb = Vec::new();
        for &client in got.iter().chain(rng.gen_bool(0.5).then_some(&stranger)) {
            if rng.gen_bool(0.3) {
                continue; // still in flight, for FedBuff
            }
            let kind = rng.gen_range(0..4u32);
            let duration_s = [30.0, 45.0, 600.0][rng.gen_range(0..3usize)];
            fb.push(SelectionFeedback {
                client,
                completed: kind < 2,
                duration_s,
                utility: if kind < 2 {
                    rng.gen_range(0.0..3.0)
                } else {
                    0.0
                },
                was_available: rng.gen_bool(0.8),
                quarantined: kind == 3,
            });
            let outcome = match kind {
                0 | 1 => ObservedOutcome::Completed,
                2 => ObservedOutcome::Dropped,
                _ => ObservedOutcome::Quarantined,
            };
            let obs = Observation::replay(round as u64, outcome, duration_s);
            profiler.observe(client, &obs);
        }
        in_place.feedback(round, &fb);
        referenced.feedback(round, &fb);
    }
}

#[test]
fn every_selector_draws_in_place_as_the_wrapper_does() {
    for seed in [1, 2, 3] {
        for profiled in [false, true] {
            let fedavg = FedAvgSelector::new(seed);
            check("fedavg", fedavg, seed, profiled, through_copy, debug);
            let oort = OortSelector::new(seed, 60.0);
            check("oort", oort, seed, profiled, through_copy, debug);
            let refl = ReflSelector::new(seed, 100.0);
            check("refl", refl, seed, profiled, through_copy, debug);
            let fedbuff = FedBuffSelector::new(seed, 50, 10);
            check("fedbuff", fedbuff, seed, profiled, through_copy, debug);
            let tifl = TiflSelector::new(seed);
            check("tifl", tifl, seed, profiled, through_copy, debug);
        }
    }
}

#[test]
fn oort_in_place_matches_dense_reference() {
    for seed in [1, 2, 3] {
        for profiled in [false, true] {
            check(
                "oort vs dense",
                OortSelector::new(seed, 60.0),
                seed,
                profiled,
                |s, round, eligible, target, profiles, cohort| {
                    s.select_dense_reference(round, eligible, target, profiles, cohort)
                },
                |s| format!("{:?}", s.snapshot()),
            );
        }
    }
}
