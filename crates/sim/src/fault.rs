//! Deterministic fault injection: seeded schedules of adversarial
//! per-client round perturbations.
//!
//! FLOAT's pitch is surviving hostile client conditions, yet a benign
//! simulator only ever exercises the deadline-miss path. This module adds
//! the failure modes real FL deployments see — mid-round crashes, network
//! stalls past the server timeout, duplicate update delivery, and corrupt
//! (non-finite) payloads — as a *deterministic* schedule: whether a fault
//! hits client `c` in round `r` is a pure function of `(seed, r, c,
//! attempt)`, drawn through the same [`split_seed`] stream discipline as
//! every other stochastic subsystem. That purity is what lets the runtime
//! keep its bit-identical-across-thread-counts guarantee with faults
//! enabled, and what makes every chaos run reproducible from its seed.

use serde::{Deserialize, Serialize};

use float_tensor::rng::{first_f64, split_seed};

use crate::round::{ClientRoundOutcome, DropReason, RoundParams};

/// Stream tag separating fault draws from every other consumer of the
/// experiment seed.
const FAULT_STREAM: u64 = 0xFA17;

/// How far past the deadline a stalled upload runs, as a fraction of the
/// deadline. The server notices the stall only when the timeout fires, so
/// the stalled client burns at least this much extra wall time.
const STALL_OVERRUN: f64 = 0.25;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// The device dies mid-round after completing its work locally; the
    /// update never leaves the device.
    MidRoundCrash,
    /// The upload stalls past the server's deadline. Unlike a crash the
    /// client is still alive, so the sync engine may retry it (bounded,
    /// with backoff).
    NetworkStall,
    /// The update arrives twice (an at-least-once transport retransmits).
    /// The payload is valid; the server must not double-count it.
    DuplicateDelivery,
    /// The payload arrives corrupted: the delta carries non-finite values
    /// (NaN / ±Inf). Server-side validation must quarantine it before it
    /// poisons the global model.
    CorruptPayload,
}

impl FaultKind {
    /// Stable display name, used by telemetry events and digests.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::MidRoundCrash => "mid-round-crash",
            FaultKind::NetworkStall => "network-stall",
            FaultKind::DuplicateDelivery => "duplicate-delivery",
            FaultKind::CorruptPayload => "corrupt-payload",
        }
    }

    /// Whether this fault perturbs the wire payload (handled by the
    /// runtime) rather than the round outcome (handled by
    /// [`apply_outcome_fault`]).
    pub fn affects_payload(self) -> bool {
        matches!(
            self,
            FaultKind::DuplicateDelivery | FaultKind::CorruptPayload
        )
    }
}

/// A seeded, deterministic fault schedule.
///
/// Each rate is the per-client-round probability of that fault firing;
/// the four rates partition the unit interval, so their sum must not
/// exceed 1 and at most one fault hits a given `(round, client, attempt)`.
/// An all-zero plan (the [`Default`]) injects nothing and costs nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability of a mid-round crash per client-round.
    pub crash_rate: f64,
    /// Probability of a network stall per client-round.
    pub stall_rate: f64,
    /// Probability of a duplicate delivery per client-round.
    pub duplicate_rate: f64,
    /// Probability of a corrupt (non-finite) payload per client-round.
    pub corrupt_rate: f64,
    /// How many times the sync engine re-requests a stalled upload before
    /// giving up on the client for the round (0 disables retries).
    pub stall_max_retries: u32,
    /// Wall-clock backoff the server waits before each stall retry,
    /// seconds (added to the round's wall time per retry).
    pub stall_backoff_s: f64,
}

impl FaultPlan {
    /// The empty plan: no faults, no retries. Identical to `Default`.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A hostile-but-plausible chaos preset: every fault kind active at a
    /// few percent per client-round, with two bounded stall retries.
    pub fn chaos() -> Self {
        FaultPlan {
            crash_rate: 0.05,
            stall_rate: 0.05,
            duplicate_rate: 0.05,
            corrupt_rate: 0.05,
            stall_max_retries: 2,
            stall_backoff_s: 30.0,
        }
    }

    /// Whether this plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.crash_rate == 0.0
            && self.stall_rate == 0.0
            && self.duplicate_rate == 0.0
            && self.corrupt_rate == 0.0
    }

    /// Validate the plan.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: every rate
    /// must be a finite probability, the rates must sum to at most 1, and
    /// the backoff must be finite and non-negative.
    pub fn validate(&self) -> Result<(), String> {
        for (name, rate) in [
            ("crash_rate", self.crash_rate),
            ("stall_rate", self.stall_rate),
            ("duplicate_rate", self.duplicate_rate),
            ("corrupt_rate", self.corrupt_rate),
        ] {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault {name} {rate} must be in [0, 1]"));
            }
        }
        let sum = self.crash_rate + self.stall_rate + self.duplicate_rate + self.corrupt_rate;
        if sum > 1.0 + 1e-12 {
            return Err(format!("fault rates sum to {sum} > 1"));
        }
        if !self.stall_backoff_s.is_finite() || self.stall_backoff_s < 0.0 {
            return Err(format!(
                "stall_backoff_s {} must be finite and non-negative",
                self.stall_backoff_s
            ));
        }
        Ok(())
    }

    /// The fault (if any) scheduled for `(round, client, attempt)` under
    /// experiment `seed`.
    ///
    /// A pure function: no state is consumed, so the draw is identical no
    /// matter which worker thread asks, in what order, or how many times —
    /// the property the parallel-determinism tests pin down. `attempt`
    /// distinguishes stall retries, so a retried upload faces fresh
    /// (deterministic) fault risk rather than replaying the stall forever.
    pub fn draw(&self, seed: u64, round: u64, client: u64, attempt: u32) -> Option<FaultKind> {
        if self.is_empty() {
            return None;
        }
        let s = split_seed(
            split_seed(seed, FAULT_STREAM.wrapping_add(round)),
            (client << 8) | u64::from(attempt),
        );
        let x = first_f64(s);
        let mut edge = self.crash_rate;
        if x < edge {
            return Some(FaultKind::MidRoundCrash);
        }
        edge += self.stall_rate;
        if x < edge {
            return Some(FaultKind::NetworkStall);
        }
        edge += self.duplicate_rate;
        if x < edge {
            return Some(FaultKind::DuplicateDelivery);
        }
        edge += self.corrupt_rate;
        if x < edge {
            return Some(FaultKind::CorruptPayload);
        }
        None
    }
}

/// Apply an outcome-level fault to a client round.
///
/// Only *completed* outcomes are perturbed: a client that already dropped
/// (unavailable, out of memory, deadline miss, stochastic failure)
/// produced no payload for the fault to hit, so the injection is a no-op.
/// Payload-level faults ([`FaultKind::affects_payload`]) leave the outcome
/// untouched here — the runtime corrupts or duplicates the wire payload
/// itself.
pub fn apply_outcome_fault(
    outcome: &mut ClientRoundOutcome,
    kind: FaultKind,
    params: &RoundParams,
) {
    if !outcome.completed() {
        return;
    }
    match kind {
        FaultKind::MidRoundCrash => {
            // The work was done and the resources burned; the update is
            // simply gone.
            outcome.dropped = Some(DropReason::InjectedCrash);
        }
        FaultKind::NetworkStall => {
            // The upload hangs until the server timeout fires; the client
            // burns the whole stalled window.
            let stalled_total = params.deadline_s * (1.0 + STALL_OVERRUN);
            if outcome.total_s() < stalled_total {
                outcome.upload_s = stalled_total - outcome.download_s - outcome.train_s;
            }
            outcome.deadline_overrun = outcome.deadline_overrun.max(STALL_OVERRUN);
            outcome.dropped = Some(DropReason::NetworkStall);
        }
        FaultKind::DuplicateDelivery | FaultKind::CorruptPayload => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_kind_names_are_unique() {
        let kinds = [
            FaultKind::MidRoundCrash,
            FaultKind::NetworkStall,
            FaultKind::DuplicateDelivery,
            FaultKind::CorruptPayload,
        ];
        let mut names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len());
    }

    fn completed_outcome() -> ClientRoundOutcome {
        ClientRoundOutcome {
            dropped: None,
            download_s: 10.0,
            train_s: 50.0,
            upload_s: 10.0,
            memory_bytes: 1e9,
            energy_j: 100.0,
            deadline_overrun: 0.0,
        }
    }

    fn params() -> RoundParams {
        RoundParams {
            deadline_s: 240.0,
            failure_hazard_per_s: 0.0,
        }
    }

    #[test]
    fn empty_plan_never_draws() {
        let p = FaultPlan::none();
        for round in 0..50u64 {
            for client in 0..20u64 {
                assert_eq!(p.draw(7, round, client, 0), None);
            }
        }
    }

    #[test]
    fn draw_is_pure_and_deterministic() {
        let p = FaultPlan::chaos();
        for round in 0..30u64 {
            for client in 0..10u64 {
                assert_eq!(p.draw(42, round, client, 0), p.draw(42, round, client, 0));
            }
        }
    }

    #[test]
    fn retry_attempts_draw_independently() {
        // A stalled first attempt must not deterministically stall every
        // retry: somewhere in a modest grid the draws must differ.
        let p = FaultPlan {
            stall_rate: 0.5,
            ..FaultPlan::none()
        };
        let differs = (0..100u64).any(|c| p.draw(1, 0, c, 0) != p.draw(1, 0, c, 1));
        assert!(differs, "attempt index never changed the draw");
    }

    #[test]
    fn rates_partition_roughly() {
        let p = FaultPlan {
            crash_rate: 0.25,
            stall_rate: 0.25,
            duplicate_rate: 0.25,
            corrupt_rate: 0.25,
            ..FaultPlan::none()
        };
        let mut counts = [0usize; 4];
        for c in 0..2000u64 {
            match p.draw(9, 0, c, 0) {
                Some(FaultKind::MidRoundCrash) => counts[0] += 1,
                Some(FaultKind::NetworkStall) => counts[1] += 1,
                Some(FaultKind::DuplicateDelivery) => counts[2] += 1,
                Some(FaultKind::CorruptPayload) => counts[3] += 1,
                None => {}
            }
        }
        for (i, &n) in counts.iter().enumerate() {
            assert!(
                (350..650).contains(&n),
                "kind {i} drawn {n}/2000 times, expected ~500"
            );
        }
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let mut p = FaultPlan::chaos();
        assert!(p.validate().is_ok());
        p.crash_rate = 1.5;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::chaos();
        p.corrupt_rate = f64::NAN;
        assert!(p.validate().is_err());
        let mut p = FaultPlan {
            crash_rate: 0.5,
            stall_rate: 0.6,
            ..FaultPlan::none()
        };
        assert!(p.validate().is_err(), "rates summing past 1 must fail");
        p = FaultPlan::chaos();
        p.stall_backoff_s = -1.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn crash_drops_a_completed_outcome() {
        let mut o = completed_outcome();
        apply_outcome_fault(&mut o, FaultKind::MidRoundCrash, &params());
        assert_eq!(o.dropped, Some(DropReason::InjectedCrash));
        // Resources stay burned.
        assert!(o.energy_j > 0.0 && o.train_s > 0.0);
    }

    #[test]
    fn stall_overruns_the_deadline() {
        let mut o = completed_outcome();
        apply_outcome_fault(&mut o, FaultKind::NetworkStall, &params());
        assert_eq!(o.dropped, Some(DropReason::NetworkStall));
        assert!(o.total_s() >= params().deadline_s * (1.0 + STALL_OVERRUN) - 1e-9);
        assert!(o.deadline_overrun >= STALL_OVERRUN);
        assert!(o.total_s().is_finite());
    }

    #[test]
    fn payload_faults_leave_the_outcome_alone() {
        for kind in [FaultKind::DuplicateDelivery, FaultKind::CorruptPayload] {
            let mut o = completed_outcome();
            apply_outcome_fault(&mut o, kind, &params());
            assert_eq!(o, completed_outcome());
            assert!(kind.affects_payload());
        }
        assert!(!FaultKind::MidRoundCrash.affects_payload());
    }

    #[test]
    fn faults_never_touch_already_dropped_outcomes() {
        for kind in [
            FaultKind::MidRoundCrash,
            FaultKind::NetworkStall,
            FaultKind::DuplicateDelivery,
            FaultKind::CorruptPayload,
        ] {
            let mut o = completed_outcome();
            o.dropped = Some(DropReason::DeadlineMiss);
            let before = o;
            apply_outcome_fault(&mut o, kind, &params());
            assert_eq!(o, before);
        }
    }
}
