//! The online client profiler: a bounded, deterministic fold over the
//! commit-phase observation stream.
//!
//! Update rules (the ISSUE 9 contract):
//! - every observation bumps the client's reliability counters;
//! - only **completed** attempts update latency / bandwidth / compute
//!   estimates — a quarantined or dropped attempt must never teach the
//!   profiler how fast a client is, only how reliable it is;
//! - stalls and OOM kills are counted separately so straggle and memory
//!   pressure can be estimated as Beta-style probabilities.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::config::ProfilingConfig;
use crate::estimator::{Ewma, P2Quantile};

/// How an observed attempt ended, as seen from the commit phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ObservedOutcome {
    /// The update arrived and was applied (duplicates count here too:
    /// the client did the work and the wire carried the bytes).
    Completed,
    /// The attempt hit the stall path (network outage past deadline).
    Stalled,
    /// The update arrived but was quarantined (non-finite payload).
    /// Updates reliability only — never latency or bandwidth.
    Quarantined,
    /// Dropped by the memory killer.
    DroppedOom,
    /// Dropped for any other reason (deadline, crash, battery, ...).
    Dropped,
}

/// One commit-phase observation of a client attempt.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Aggregation round the attempt was committed in.
    pub round: u64,
    /// How the attempt ended.
    pub kind: ObservedOutcome,
    /// Simulated wall time of the attempt, seconds.
    pub duration_s: f64,
    /// Witnessed upload throughput in Mbit/s, when the attempt
    /// completed and the uplink phase took measurable time.
    pub upload_mbps: Option<f64>,
    /// Witnessed training throughput in GFLOP/s, when the attempt
    /// completed and the training phase took measurable time.
    pub compute_gflops: Option<f64>,
}

impl Observation {
    /// An observation reconstructed from a telemetry event stream,
    /// which carries outcome kind and duration but not phase rates.
    pub fn replay(round: u64, kind: ObservedOutcome, duration_s: f64) -> Self {
        Self {
            round,
            kind,
            duration_s,
            upload_mbps: None,
            compute_gflops: None,
        }
    }
}

/// Per-client estimator state.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ClientProfile {
    latency: Ewma,
    latency_p50: P2Quantile,
    latency_p90: P2Quantile,
    bandwidth: Ewma,
    /// Highest upload throughput ever witnessed (Mbit/s; 0 = none). The
    /// reference scale for turning a bandwidth estimate into a relative
    /// network-availability fraction without consulting the trace oracle.
    bandwidth_peak: f64,
    compute: Ewma,
    observed: u64,
    completed: u64,
    quarantined: u64,
    stalled: u64,
    oom: u64,
    last_round: u64,
}

impl ClientProfile {
    fn new() -> Self {
        Self {
            latency: Ewma::new(),
            latency_p50: P2Quantile::new(0.5),
            latency_p90: P2Quantile::new(0.9),
            bandwidth: Ewma::new(),
            bandwidth_peak: 0.0,
            compute: Ewma::new(),
            observed: 0,
            completed: 0,
            quarantined: 0,
            stalled: 0,
            oom: 0,
            last_round: 0,
        }
    }

    fn observe(&mut self, obs: &Observation) {
        self.observed += 1;
        self.last_round = obs.round;
        match obs.kind {
            ObservedOutcome::Completed => {
                self.completed += 1;
                if obs.duration_s.is_finite() && obs.duration_s > 0.0 {
                    self.latency.observe(obs.duration_s);
                    self.latency_p50.observe(obs.duration_s);
                    self.latency_p90.observe(obs.duration_s);
                }
                if let Some(mbps) = obs.upload_mbps {
                    if mbps.is_finite() && mbps > 0.0 {
                        self.bandwidth.observe(mbps);
                        if mbps > self.bandwidth_peak {
                            self.bandwidth_peak = mbps;
                        }
                    }
                }
                if let Some(gflops) = obs.compute_gflops {
                    if gflops.is_finite() && gflops > 0.0 {
                        self.compute.observe(gflops);
                    }
                }
            }
            ObservedOutcome::Quarantined => self.quarantined += 1,
            ObservedOutcome::Stalled => self.stalled += 1,
            ObservedOutcome::DroppedOom => self.oom += 1,
            ObservedOutcome::Dropped => {}
        }
    }

    fn estimate(&self) -> ClientEstimate {
        ClientEstimate {
            latency_s: self.latency.value(),
            latency_p50_s: self.latency_p50.value(),
            latency_p90_s: self.latency_p90.value(),
            bandwidth_mbps: self.bandwidth.value(),
            bandwidth_peak_mbps: (self.bandwidth_peak > 0.0).then_some(self.bandwidth_peak),
            compute_gflops: self.compute.value(),
            reliability: beta_mean(self.completed, self.observed),
            straggle_p: beta_mean(self.stalled, self.observed),
            oom_p: beta_mean(self.oom, self.observed),
            observations: self.observed,
            completions: self.completed,
            quarantines: self.quarantined,
            last_round: self.last_round,
        }
    }
}

/// Beta(1, 1)-prior posterior mean for `hits` out of `trials`.
fn beta_mean(hits: u64, trials: u64) -> f64 {
    (hits as f64 + 1.0) / (trials as f64 + 2.0)
}

/// A point-in-time snapshot of everything the profiler believes about
/// one client. All fields derive purely from observed outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientEstimate {
    /// EWMA of completed-attempt durations, seconds.
    pub latency_s: Option<f64>,
    /// Streaming median of completed-attempt durations, seconds.
    pub latency_p50_s: Option<f64>,
    /// Streaming p90 of completed-attempt durations, seconds.
    pub latency_p90_s: Option<f64>,
    /// EWMA of witnessed upload throughput, Mbit/s.
    pub bandwidth_mbps: Option<f64>,
    /// Highest upload throughput ever witnessed, Mbit/s — the client's
    /// empirical link ceiling, used to express `bandwidth_mbps` as a
    /// relative availability fraction.
    pub bandwidth_peak_mbps: Option<f64>,
    /// EWMA of witnessed training throughput, GFLOP/s.
    pub compute_gflops: Option<f64>,
    /// Beta-mean completion probability: (completed+1)/(observed+2).
    pub reliability: f64,
    /// Beta-mean stall probability: (stalled+1)/(observed+2).
    pub straggle_p: f64,
    /// Beta-mean OOM probability: (oom+1)/(observed+2).
    pub oom_p: f64,
    /// Total attempts observed for this client.
    pub observations: u64,
    /// Completed attempts observed for this client.
    pub completions: u64,
    /// Quarantined attempts observed for this client.
    pub quarantines: u64,
    /// Round of the most recent observation.
    pub last_round: u64,
}

/// Store accounting, ShardCache-style. The identities
/// `inserted == evictions + resident`, `resident <= capacity`, and
/// `observations == suppressed + sum(per-kind counters)` always hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ProfilerStats {
    /// Observations offered to the profiler (including suppressed).
    pub observations: u64,
    /// Observations discarded because `cold_only` is set.
    pub suppressed: u64,
    /// Completed attempts recorded.
    pub completed: u64,
    /// Stalled attempts recorded.
    pub stalled: u64,
    /// Quarantined attempts recorded.
    pub quarantined: u64,
    /// OOM-dropped attempts recorded.
    pub oom: u64,
    /// Other dropped attempts recorded.
    pub dropped: u64,
    /// Distinct clients ever inserted into the store.
    pub inserted: u64,
    /// Clients evicted to stay within capacity.
    pub evictions: u64,
    /// Clients currently resident.
    pub resident: usize,
    /// High-water mark of resident clients.
    pub peak_resident: usize,
    /// Configured capacity.
    pub capacity: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    profile: ClientProfile,
    last_used: u64,
}

/// The bounded, deterministic per-client profile store.
///
/// Reads (`observed`, `estimate`) take `&self` and never touch the LRU
/// clock; only [`ClientProfiler::observe`] mutates state. Eviction
/// picks the unique minimum `last_used` stamp (stamps are issued from a
/// strictly increasing clock, so the minimum is unique), which makes
/// the resident set a pure function of the observation sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientProfiler {
    cfg: ProfilingConfig,
    capacity: usize,
    clock: u64,
    clients: HashMap<usize, Entry>,
    global_latency: Ewma,
    global_bandwidth: Ewma,
    global_bandwidth_peak: f64,
    global_compute: Ewma,
    global_observed: u64,
    global_completed: u64,
    global_stalled: u64,
    global_oom: u64,
    stats: ProfilerStats,
}

impl ClientProfiler {
    /// Build a profiler with an explicit store capacity (clients).
    ///
    /// # Panics
    /// If `capacity == 0` — a zero-capacity profiler cannot hold any
    /// estimate and would silently degrade to cold-start everywhere.
    pub fn new(cfg: ProfilingConfig, capacity: usize) -> Self {
        assert!(capacity > 0, "profiler capacity must be positive");
        Self {
            cfg,
            capacity,
            clock: 0,
            clients: HashMap::new(),
            global_latency: Ewma::new(),
            global_bandwidth: Ewma::new(),
            global_bandwidth_peak: 0.0,
            global_compute: Ewma::new(),
            global_observed: 0,
            global_completed: 0,
            global_stalled: 0,
            global_oom: 0,
            stats: ProfilerStats {
                capacity,
                ..ProfilerStats::default()
            },
        }
    }

    /// Build a profiler for a population, using the config's capacity
    /// resolution rule.
    pub fn for_population(cfg: ProfilingConfig, num_clients: usize) -> Self {
        let capacity = cfg.resolved_capacity(num_clients);
        Self::new(cfg, capacity)
    }

    /// Fold one commit-phase observation into the store.
    pub fn observe(&mut self, client: usize, obs: &Observation) {
        self.stats.observations += 1;
        if self.cfg.cold_only {
            self.stats.suppressed += 1;
            return;
        }
        match obs.kind {
            ObservedOutcome::Completed => self.stats.completed += 1,
            ObservedOutcome::Stalled => self.stats.stalled += 1,
            ObservedOutcome::Quarantined => self.stats.quarantined += 1,
            ObservedOutcome::DroppedOom => self.stats.oom += 1,
            ObservedOutcome::Dropped => self.stats.dropped += 1,
        }

        // Population-level running estimates (the GlobalPrior source).
        self.global_observed += 1;
        if obs.kind == ObservedOutcome::Completed {
            self.global_completed += 1;
            if obs.duration_s.is_finite() && obs.duration_s > 0.0 {
                self.global_latency.observe(obs.duration_s);
            }
            if let Some(mbps) = obs.upload_mbps {
                if mbps.is_finite() && mbps > 0.0 {
                    self.global_bandwidth.observe(mbps);
                    if mbps > self.global_bandwidth_peak {
                        self.global_bandwidth_peak = mbps;
                    }
                }
            }
            if let Some(gflops) = obs.compute_gflops {
                if gflops.is_finite() && gflops > 0.0 {
                    self.global_compute.observe(gflops);
                }
            }
        }
        if obs.kind == ObservedOutcome::Stalled {
            self.global_stalled += 1;
        }
        if obs.kind == ObservedOutcome::DroppedOom {
            self.global_oom += 1;
        }

        self.clock += 1;
        let stamp = self.clock;
        if let Some(entry) = self.clients.get_mut(&client) {
            entry.profile.observe(obs);
            entry.last_used = stamp;
            return;
        }
        if self.clients.len() >= self.capacity {
            // Evict the least-recently-observed client. Stamps are
            // unique (strictly increasing clock), so the victim is
            // deterministic regardless of HashMap iteration order.
            if let Some(&victim) = self
                .clients
                .iter()
                .min_by(|a, b| a.1.last_used.cmp(&b.1.last_used))
                .map(|(k, _)| k)
            {
                self.clients.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        let mut profile = ClientProfile::new();
        profile.observe(obs);
        self.clients.insert(
            client,
            Entry {
                profile,
                last_used: stamp,
            },
        );
        self.stats.inserted += 1;
        self.stats.resident = self.clients.len();
        if self.clients.len() > self.stats.peak_resident {
            self.stats.peak_resident = self.clients.len();
        }
    }

    /// Has this client ever been observed (and is still resident)?
    pub fn observed(&self, client: usize) -> bool {
        !self.cfg.cold_only && self.clients.contains_key(&client)
    }

    /// The current estimate for a client, `None` if never observed (or
    /// evicted, or `cold_only` — the cold-start path in all cases).
    pub fn estimate(&self, client: usize) -> Option<ClientEstimate> {
        if self.cfg.cold_only {
            return None;
        }
        self.clients.get(&client).map(|e| e.profile.estimate())
    }

    /// Population-level estimate (the `GlobalPrior` cold-start source);
    /// `None` before anything has been observed.
    pub fn global_estimate(&self) -> Option<ClientEstimate> {
        if self.cfg.cold_only || self.global_observed == 0 {
            return None;
        }
        Some(ClientEstimate {
            latency_s: self.global_latency.value(),
            latency_p50_s: self.global_latency.value(),
            latency_p90_s: self.global_latency.value(),
            bandwidth_mbps: self.global_bandwidth.value(),
            bandwidth_peak_mbps: (self.global_bandwidth_peak > 0.0)
                .then_some(self.global_bandwidth_peak),
            compute_gflops: self.global_compute.value(),
            reliability: beta_mean(self.global_completed, self.global_observed),
            straggle_p: beta_mean(self.global_stalled, self.global_observed),
            oom_p: beta_mean(self.global_oom, self.global_observed),
            observations: self.global_observed,
            completions: self.global_completed,
            quarantines: 0,
            last_round: 0,
        })
    }

    /// Store accounting snapshot.
    pub fn stats(&self) -> ProfilerStats {
        let mut s = self.stats;
        s.resident = self.clients.len();
        s
    }

    /// Deterministically ordered (client, estimate) table — resident
    /// clients sorted by id. For dump/report tooling.
    pub fn table(&self) -> Vec<(usize, ClientEstimate)> {
        let mut rows: Vec<(usize, ClientEstimate)> = self
            .clients
            .iter()
            .map(|(&c, e)| (c, e.profile.estimate()))
            .collect();
        rows.sort_by_key(|(c, _)| *c);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completed(round: u64, duration_s: f64) -> Observation {
        Observation {
            round,
            kind: ObservedOutcome::Completed,
            duration_s,
            upload_mbps: Some(8.0),
            compute_gflops: Some(2.0),
        }
    }

    fn profiler(capacity: usize) -> ClientProfiler {
        ClientProfiler::new(ProfilingConfig::on(), capacity)
    }

    #[test]
    fn completed_attempts_move_every_estimate() {
        let mut p = profiler(8);
        p.observe(3, &completed(0, 10.0));
        let est = p.estimate(3).unwrap();
        assert_eq!(est.latency_s, Some(10.0));
        assert_eq!(est.bandwidth_mbps, Some(8.0));
        assert_eq!(est.bandwidth_peak_mbps, Some(8.0));
        assert_eq!(est.compute_gflops, Some(2.0));
        assert_eq!(est.completions, 1);
        assert!((est.reliability - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn quarantine_updates_reliability_never_latency() {
        let mut p = profiler(8);
        p.observe(3, &completed(0, 10.0));
        let before = p.estimate(3).unwrap();
        p.observe(
            3,
            &Observation::replay(1, ObservedOutcome::Quarantined, 99.0),
        );
        let after = p.estimate(3).unwrap();
        assert_eq!(after.latency_s, before.latency_s);
        assert_eq!(after.latency_p90_s, before.latency_p90_s);
        assert_eq!(after.bandwidth_mbps, before.bandwidth_mbps);
        assert!(after.reliability < before.reliability);
        assert_eq!(after.quarantines, 1);
    }

    #[test]
    fn drops_and_stalls_never_touch_latency_either() {
        let mut p = profiler(8);
        p.observe(3, &completed(0, 10.0));
        p.observe(3, &Observation::replay(1, ObservedOutcome::Dropped, 500.0));
        p.observe(3, &Observation::replay(2, ObservedOutcome::Stalled, 500.0));
        p.observe(
            3,
            &Observation::replay(3, ObservedOutcome::DroppedOom, 500.0),
        );
        let est = p.estimate(3).unwrap();
        assert_eq!(est.latency_s, Some(10.0));
        assert_eq!(est.observations, 4);
        assert_eq!(est.completions, 1);
        assert!((est.straggle_p - 2.0 / 6.0).abs() < 1e-12);
        assert!((est.oom_p - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_is_bounded_and_accounted() {
        let mut p = profiler(3);
        for pass in 0..4u64 {
            for c in 0..12usize {
                p.observe(c, &completed(pass, 1.0 + c as f64));
            }
        }
        let s = p.stats();
        assert_eq!(s.resident, 3);
        assert_eq!(s.peak_resident, 3);
        assert_eq!(s.capacity, 3);
        assert_eq!(s.inserted, s.evictions + s.resident as u64);
        assert_eq!(s.observations, 48);
        assert_eq!(
            s.observations,
            s.suppressed + s.completed + s.stalled + s.quarantined + s.oom + s.dropped
        );
        // The last three observed clients are resident.
        assert!(p.observed(11) && p.observed(10) && p.observed(9));
        assert!(!p.observed(0));
    }

    #[test]
    fn reads_do_not_perturb_lru_order() {
        let mut p = profiler(2);
        p.observe(0, &completed(0, 1.0));
        p.observe(1, &completed(0, 2.0));
        // Reading client 0 must not refresh it...
        assert!(p.estimate(0).is_some());
        // ...so inserting client 2 evicts 0 (the least recently observed).
        p.observe(2, &completed(1, 3.0));
        assert!(!p.observed(0));
        assert!(p.observed(1) && p.observed(2));
    }

    #[test]
    fn cold_only_suppresses_everything() {
        let mut p = ClientProfiler::new(ProfilingConfig::cold_only(), 8);
        p.observe(3, &completed(0, 10.0));
        assert!(!p.observed(3));
        assert!(p.estimate(3).is_none());
        assert!(p.global_estimate().is_none());
        let s = p.stats();
        assert_eq!(s.observations, 1);
        assert_eq!(s.suppressed, 1);
        assert_eq!(s.resident, 0);
    }

    #[test]
    fn bandwidth_peak_is_a_running_max() {
        let mut p = profiler(8);
        for mbps in [4.0, 12.0, 6.0] {
            let mut o = completed(0, 1.0);
            o.upload_mbps = Some(mbps);
            p.observe(0, &o);
        }
        let est = p.estimate(0).unwrap();
        assert_eq!(est.bandwidth_peak_mbps, Some(12.0));
        assert!(est.bandwidth_mbps.unwrap() < 12.0);
        assert_eq!(p.global_estimate().unwrap().bandwidth_peak_mbps, Some(12.0));
    }

    #[test]
    fn global_prior_tracks_the_population() {
        let mut p = profiler(8);
        assert!(p.global_estimate().is_none());
        p.observe(0, &completed(0, 10.0));
        p.observe(1, &completed(0, 20.0));
        let g = p.global_estimate().unwrap();
        assert_eq!(g.latency_s, Some(0.3 * 20.0 + 0.7 * 10.0));
        assert_eq!(g.observations, 2);
    }

    #[test]
    fn profiler_is_a_pure_fold_of_its_observation_sequence() {
        let obs: Vec<(usize, Observation)> = (0..200)
            .map(|i| {
                let client = (i * 7) % 23;
                let kind = match i % 5 {
                    0 => ObservedOutcome::Dropped,
                    1 => ObservedOutcome::Stalled,
                    2 => ObservedOutcome::Quarantined,
                    _ => ObservedOutcome::Completed,
                };
                (
                    client,
                    Observation::replay(i as u64 / 10, kind, 1.0 + (i % 13) as f64),
                )
            })
            .collect();
        let mut a = profiler(16);
        let mut b = profiler(16);
        for (c, o) in &obs {
            a.observe(*c, o);
            b.observe(*c, o);
        }
        assert_eq!(a, b);
        assert_eq!(a.table(), b.table());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ClientProfiler::new(ProfilingConfig::on(), 0);
    }
}
