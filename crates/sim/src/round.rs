//! Execution of one client's local round against its resource snapshot.

use rand::Rng;
use serde::{Deserialize, Serialize};

use float_models::RoundCost;
use float_tensor::rng::{seed_rng, split_seed};
use float_traces::compute::DeviceProfile;
use float_traces::ResourceSnapshot;

/// Why a client failed to contribute its update this round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DropReason {
    /// Client was unavailable when the round started (diurnal off-period,
    /// interruption, or depleted battery).
    Unavailable,
    /// Training memory requirement exceeded available device memory.
    OutOfMemory,
    /// The round exceeded the deadline (synchronous) or staleness bound
    /// (asynchronous).
    DeadlineMiss,
    /// The device went away mid-round (user activity, network loss,
    /// battery death during the round).
    MidRoundFailure,
    /// Fault injection: the device crashed mid-round after finishing its
    /// local work ([`crate::fault::FaultKind::MidRoundCrash`]).
    InjectedCrash,
    /// Fault injection: the upload stalled past the server's timeout
    /// ([`crate::fault::FaultKind::NetworkStall`]).
    NetworkStall,
    /// The update arrived but server-side validation rejected it: the
    /// payload carried non-finite values (corrupt wire bytes or diverged
    /// training). Quarantined updates never reach aggregation.
    Quarantined,
}

/// Fixed parameters of a round execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundParams {
    /// Deadline in seconds for the full download→train→upload pipeline.
    pub deadline_s: f64,
    /// Per-second hazard rate of a mid-round failure when the device is
    /// under load (scaled by round duration).
    pub failure_hazard_per_s: f64,
}

/// Outcome of attempting one client round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientRoundOutcome {
    /// `None` if the client completed; `Some(reason)` if it dropped.
    pub dropped: Option<DropReason>,
    /// Time spent downloading the global model, seconds.
    pub download_s: f64,
    /// Time spent training, seconds.
    pub train_s: f64,
    /// Time spent uploading the update, seconds.
    pub upload_s: f64,
    /// Peak training memory used, bytes.
    pub memory_bytes: f64,
    /// Energy drawn from the battery, joules.
    pub energy_j: f64,
    /// How far past the deadline the client ran, as a fraction of the
    /// deadline (0 if it finished in time). This is the paper's
    /// "deadline difference" human-feedback signal (Table 1).
    pub deadline_overrun: f64,
}

impl ClientRoundOutcome {
    /// Total wall time of the attempt, seconds.
    pub fn total_s(&self) -> f64 {
        self.download_s + self.train_s + self.upload_s
    }

    /// Whether the client completed and contributed its update.
    pub fn completed(&self) -> bool {
        self.dropped.is_none()
    }
}

/// Estimate the wall time of a round with `cost` under `snapshot`, without
/// executing it. Used by FLOAT's human-feedback signal: the deadline
/// difference a client would incur on a *vanilla* round reveals its
/// underlying capability even in rounds where acceleration rescued it.
pub fn estimate_round_time_s(snapshot: &ResourceSnapshot, cost: &RoundCost) -> f64 {
    let mbps = snapshot.effective_mbps.max(1e-3);
    let gflops = snapshot.effective_gflops.max(1e-4);
    (cost.download_bytes + cost.upload_bytes) * 8.0 / (mbps * 1e6)
        + cost.train_flops / (gflops * 1e9)
}

/// Execute one client round.
///
/// The client downloads the global model, trains, and uploads its update;
/// each phase's latency comes from dividing the [`RoundCost`] quantities by
/// the snapshot's effective throughput/bandwidth. Failure modes are
/// evaluated in order: availability → memory admission → deadline →
/// stochastic mid-round failure. Even a dropped client consumes the
/// resources it spent up to the failure point — that waste is exactly what
/// the paper's inefficiency metrics count.
pub fn execute_client_round(
    snapshot: &ResourceSnapshot,
    profile: &DeviceProfile,
    cost: &RoundCost,
    params: &RoundParams,
    seed: u64,
) -> ClientRoundOutcome {
    // Phase latencies. Guard all denominators: a fully interfered client
    // has epsilon resources, not zero, but stay defensive.
    let mbps = snapshot.effective_mbps.max(1e-3);
    let gflops = snapshot.effective_gflops.max(1e-4);
    let download_s = cost.download_bytes * 8.0 / (mbps * 1e6);
    let train_s = cost.train_flops / (gflops * 1e9);
    let upload_s = cost.upload_bytes * 8.0 / (mbps * 1e6);
    let total_s = download_s + train_s + upload_s;

    let energy_j = cost.train_flops / 1e12 * profile.compute_j_per_tflop
        + (cost.download_bytes + cost.upload_bytes) / 1e6 * profile.net_j_per_mb;

    let mut outcome = ClientRoundOutcome {
        dropped: None,
        download_s,
        train_s,
        upload_s,
        memory_bytes: cost.memory_bytes,
        energy_j,
        deadline_overrun: ((total_s - params.deadline_s) / params.deadline_s).max(0.0),
    };

    if !snapshot.available {
        // Never started: no resources burned.
        outcome.dropped = Some(DropReason::Unavailable);
        outcome.download_s = 0.0;
        outcome.train_s = 0.0;
        outcome.upload_s = 0.0;
        outcome.memory_bytes = 0.0;
        outcome.energy_j = 0.0;
        return outcome;
    }

    if cost.memory_bytes > snapshot.effective_memory_bytes {
        // Admission failure: the download happened, training never did.
        outcome.dropped = Some(DropReason::OutOfMemory);
        outcome.train_s = 0.0;
        outcome.upload_s = 0.0;
        outcome.energy_j = cost.download_bytes / 1e6 * profile.net_j_per_mb;
        return outcome;
    }

    if total_s > params.deadline_s {
        // Straggler: it worked the full deadline (the server cuts it off)
        // and all of that work is wasted.
        outcome.dropped = Some(DropReason::DeadlineMiss);
        return outcome;
    }

    // Stochastic mid-round failure with hazard proportional to duration.
    let p_fail = 1.0 - (-params.failure_hazard_per_s * total_s).exp();
    let mut rng = seed_rng(split_seed(seed, 0xF41));
    if rng.gen::<f64>() < p_fail {
        outcome.dropped = Some(DropReason::MidRoundFailure);
        return outcome;
    }

    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use float_models::Architecture;
    use float_traces::{InterferenceModel, ResourceSampler};

    fn fast_snapshot() -> ResourceSnapshot {
        ResourceSnapshot {
            available: true,
            effective_gflops: 50.0,
            effective_mbps: 100.0,
            effective_memory_bytes: 1e10,
            cpu_fraction: 1.0,
            mem_fraction: 1.0,
            net_fraction: 1.0,
            battery_fraction: 1.0,
        }
    }

    fn profile() -> DeviceProfile {
        let mut s = ResourceSampler::new(1, InterferenceModel::None, 1);
        s.client(0).profile
    }

    /// A few-minute deadline, and a small per-second failure hazard so
    /// multi-minute rounds on flaky devices fail noticeably often while
    /// sub-minute rounds rarely do.
    fn paper_default() -> RoundParams {
        RoundParams {
            deadline_s: 240.0,
            failure_hazard_per_s: 4.0e-4,
        }
    }

    fn small_cost() -> RoundCost {
        RoundCost::vanilla(&Architecture::ShuffleNetV2.profile(), 50, 1, 16)
    }

    #[test]
    fn fast_client_completes() {
        let out = execute_client_round(
            &fast_snapshot(),
            &profile(),
            &small_cost(),
            &paper_default(),
            3,
        );
        assert!(out.completed(), "dropped: {:?}", out.dropped);
        assert!(out.total_s() > 0.0);
        assert_eq!(out.deadline_overrun, 0.0);
    }

    #[test]
    fn unavailable_client_burns_nothing() {
        let mut snap = fast_snapshot();
        snap.available = false;
        let out = execute_client_round(&snap, &profile(), &small_cost(), &paper_default(), 3);
        assert_eq!(out.dropped, Some(DropReason::Unavailable));
        assert_eq!(out.total_s(), 0.0);
        assert_eq!(out.energy_j, 0.0);
    }

    #[test]
    fn memory_pressure_drops_client() {
        let mut snap = fast_snapshot();
        snap.effective_memory_bytes = 1.0; // nothing fits
        let out = execute_client_round(&snap, &profile(), &small_cost(), &paper_default(), 3);
        assert_eq!(out.dropped, Some(DropReason::OutOfMemory));
        assert_eq!(out.train_s, 0.0);
    }

    #[test]
    fn slow_client_misses_deadline() {
        let mut snap = fast_snapshot();
        snap.effective_gflops = 0.001;
        let out = execute_client_round(&snap, &profile(), &small_cost(), &paper_default(), 3);
        assert_eq!(out.dropped, Some(DropReason::DeadlineMiss));
        assert!(out.deadline_overrun > 0.0);
    }

    #[test]
    fn deadline_overrun_scales_with_slowness() {
        let params = paper_default();
        let mut slow = fast_snapshot();
        slow.effective_gflops = 0.01;
        let mut slower = fast_snapshot();
        slower.effective_gflops = 0.005;
        let a = execute_client_round(&slow, &profile(), &small_cost(), &params, 3);
        let b = execute_client_round(&slower, &profile(), &small_cost(), &params, 3);
        assert!(b.deadline_overrun > a.deadline_overrun);
    }

    #[test]
    fn acceleration_rescues_straggler() {
        // A client that misses the deadline vanilla completes with 75%
        // pruning — FLOAT's core mechanism at the single-round level.
        let mut snap = fast_snapshot();
        snap.effective_gflops = 11.0; // vanilla ≈ 300 s train, over deadline
        snap.effective_mbps = 100.0;
        let params = paper_default();
        let vanilla = RoundCost::vanilla(&Architecture::ResNet34.profile(), 60, 5, 20);
        let out_v = execute_client_round(&snap, &profile(), &vanilla, &params, 3);
        assert_eq!(out_v.dropped, Some(DropReason::DeadlineMiss));
        let pruned = vanilla
            .scale_compute(0.25)
            .scale_upload(0.25)
            .scale_memory(0.25);
        let out_p = execute_client_round(&snap, &profile(), &pruned, &params, 3);
        assert!(
            out_p.completed(),
            "pruned client still dropped: {:?}",
            out_p.dropped
        );
    }

    #[test]
    fn mid_round_failure_is_deterministic_per_seed() {
        let snap = fast_snapshot();
        let params = RoundParams {
            deadline_s: 1e9,
            failure_hazard_per_s: 0.5, // huge hazard so failures happen
        };
        let cost = RoundCost::vanilla(&Architecture::ResNet34.profile(), 200, 5, 20);
        let a = execute_client_round(&snap, &profile(), &cost, &params, 7);
        let b = execute_client_round(&snap, &profile(), &cost, &params, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn energy_scales_with_work() {
        let snap = fast_snapshot();
        let params = RoundParams {
            deadline_s: 1e9,
            failure_hazard_per_s: 0.0,
        };
        let c1 = small_cost();
        let c5 = RoundCost::vanilla(&Architecture::ShuffleNetV2.profile(), 50, 5, 16);
        let e1 = execute_client_round(&snap, &profile(), &c1, &params, 3).energy_j;
        let e5 = execute_client_round(&snap, &profile(), &c5, &params, 3).energy_j;
        assert!(e5 > e1);
    }
}
