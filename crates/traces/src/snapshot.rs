//! The per-client, per-round resource snapshot — the single structure the
//! simulator executes against and the RLHF agent observes.
//!
//! At population scale the sampler is *lazy*: every per-client trace is a
//! pure function of `(seed, client)`, so little is kept per client: the
//! [`AvailabilityIndex`] holds each client's diurnal window in two bytes
//! and recomputes one membership bit per client when the day position
//! moves, the full sweep adds a 4-byte interruption threshold per client,
//! batteries are tracked sparsely (only clients that ever drained), and
//! full trace bundles are rederived on demand through a small bounded
//! cache. All of this is bit-identical to the eager implementation it
//! replaced: same RNG streams, same values, same iteration order.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use float_tensor::rng::{sample_distinct_into, seed_rng, split_seed};

use crate::availability::{population_tables, AvailabilityModel, BatteryState, InterruptionTable};
use crate::compute::DeviceProfile;
use crate::index::AvailabilityIndex;
use crate::interference::InterferenceModel;
use crate::network::{Mobility, NetworkGen, NetworkProfile};

/// Everything the simulator needs to know about one client's resources in
/// one round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceSnapshot {
    /// Whether the client is reachable at all this round (diurnal cycle,
    /// interruptions, battery policy).
    pub available: bool,
    /// Training throughput usable by FL this round, GFLOP/s
    /// (device capability × CPU fraction left by interference).
    pub effective_gflops: f64,
    /// Link bandwidth usable by FL this round, Mbit/s.
    pub effective_mbps: f64,
    /// Memory available to FL this round, bytes.
    pub effective_memory_bytes: f64,
    /// Fraction of CPU available to FL, `[0, 1]`.
    pub cpu_fraction: f64,
    /// Fraction of memory available to FL, `[0, 1]`.
    pub mem_fraction: f64,
    /// Fraction of nominal network capacity available to FL, `[0, 1]`.
    pub net_fraction: f64,
    /// Battery charge fraction, `[0, 1]`.
    pub battery_fraction: f64,
}

/// Per-client trace bundle: device profile, network generator, availability
/// model, battery.
#[derive(Debug, Clone)]
pub struct ClientTraces {
    /// Static capability profile.
    pub profile: DeviceProfile,
    /// Bandwidth process.
    pub network: NetworkGen,
    /// Diurnal availability model.
    pub availability: AvailabilityModel,
    /// Battery state as of the last completed charge epoch.
    pub battery: BatteryState,
}

/// Residency and activity counters of the lazy sampler, surfaced so the
/// population-scale bench can attribute memory and per-round work.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AvailabilityStats {
    /// Heap bytes owned by the availability index: 2 per client for the
    /// windows, plus the membership row and its popcounts.
    pub index_heap_bytes: usize,
    /// Row bits the index's advances have changed: per one-position step,
    /// the clients that switched; per longer jump, the net change (a
    /// client that switched off and back on in between counts zero).
    pub transitions_applied: u64,
    /// Number of index advances that moved the maintained row.
    pub rounds_advanced: u64,
    /// Clients currently carrying a non-full (tracked) battery.
    pub tracked_batteries: usize,
    /// High-water mark of tracked batteries.
    pub peak_tracked_batteries: usize,
    /// Trace-cache entries currently resident.
    pub trace_cache_resident: usize,
    /// Trace-cache capacity.
    pub trace_cache_capacity: usize,
    /// Bytes held by the full-sweep interruption table, 4 per client (0
    /// when the sampler has only served pooled queries).
    pub sweep_models_bytes: usize,
    /// Candidates drawn into pools since construction.
    pub pool_draws: u64,
    /// Pool candidates rejected by interruption or battery filters.
    pub pool_rejected: u64,
}

/// Bound on rederivable trace bundles kept resident at once.
const TRACE_CACHE_CAP: usize = 4096;

/// A rederivable per-client trace (everything but the battery, which is
/// mutable state owned by the sampler).
#[derive(Debug, Clone)]
struct CachedTrace {
    profile: DeviceProfile,
    network: NetworkGen,
    availability: AvailabilityModel,
}

/// Battery of a client that has drained at least once. `settled` counts
/// how many global charge epochs are already folded into `state`;
/// catching up replays the exact per-epoch `charge(capacity * 0.02)`
/// steps the eager implementation performed, so values are bit-identical.
#[derive(Debug, Clone, Copy)]
struct LazyBattery {
    state: BatteryState,
    settled: u64,
}

impl LazyBattery {
    fn settle(&mut self, epochs: u64) {
        let rate = self.state.capacity_j * 0.02;
        while self.settled < epochs {
            if self.state.remaining_j >= self.state.capacity_j {
                // Saturated: every remaining charge step is a no-op.
                self.settled = epochs;
                break;
            }
            self.state.charge(rate);
            self.settled += 1;
        }
    }
}

/// Clients per [`population_tables`] call in a builder that keeps only
/// some of its outputs; the rest land in stack scratch and are dropped.
const CHUNK: usize = 4096;

/// Deterministic factory producing [`ResourceSnapshot`]s for a population
/// of clients under an [`InterferenceModel`].
#[derive(Debug, Clone)]
pub struct ResourceSampler {
    num_clients: usize,
    interference: InterferenceModel,
    seed: u64,
    /// Population seed for [`DeviceProfile::derive`].
    pop_seed: u64,
    /// Diurnal availability index: built by `new`, or (the usual case) a
    /// clone of a shared population's, handed in through `with_shared`; a
    /// clone copies only the row. Advancing it recomputes the row, one bit
    /// per client, and the full sweep then reads every word of it: both
    /// are O(population) a round.
    index: AvailabilityIndex,
    /// Per-client interruption thresholds for the full-sweep path (the
    /// index holds the diurnal half), built on first use or handed in
    /// (never built when only pooled queries are served). `Arc`-shared so
    /// a sweep of trials over the same population pays the O(population)
    /// derivation once instead of once per trial.
    sweep_models: Option<Arc<InterruptionTable>>,
    /// Sparse battery state: absent ⇒ exactly full (a client that never
    /// drained can never leave full, since charging saturates).
    batteries: HashMap<usize, LazyBattery>,
    peak_batteries: usize,
    /// Global charge epochs applied so far ([`ResourceSampler::charge_all`]
    /// is O(1): it only bumps this counter).
    charge_epochs: u64,
    /// Bounded cache of rederivable trace bundles.
    cache: HashMap<usize, (u64, CachedTrace)>,
    cache_cap: usize,
    cache_tick: u64,
    /// Scratch for pool sampling: the drawn ranks, the sparse
    /// Fisher–Yates swaps behind them, and the candidates they resolve to.
    pool_ranks: Vec<usize>,
    pool_swap: HashMap<usize, usize>,
    pool_cands: Vec<usize>,
    pool_draws: u64,
    pool_rejected: u64,
    /// Scratch: sorted ids of batteries currently refusing training,
    /// rebuilt per sweep.
    blocked_scratch: Vec<usize>,
}

impl ResourceSampler {
    /// Build a sampler for `n` clients.
    ///
    /// Network profiles are assigned 60% 4G / 40% 5G with mixed mobility,
    /// mirroring the mix in the paper's trace set.
    pub fn new(n: usize, interference: InterferenceModel, seed: u64) -> Self {
        Self::with_shared(n, interference, seed, Self::build_index(n, seed), None)
    }

    /// The availability index `new` builds eagerly — a pure function of `(n, seed)`, exposed so a sweep orchestrator can
    /// build it once and hand clones to every trial over the same
    /// population via [`ResourceSampler::with_shared`].
    pub fn build_index(n: usize, seed: u64) -> AvailabilityIndex {
        let (mut phase, mut len, mut hi) = (vec![0; n], vec![0; n], [0; CHUNK]);
        for base in (0..n).step_by(CHUNK) {
            let end = n.min(base + CHUNK);
            let (p, l) = (&mut phase[base..end], &mut len[base..end]);
            population_tables(seed, base, p, l, &mut hi[..end - base]);
        }
        AvailabilityIndex::from_windows(phase, len)
    }

    /// The full-sweep interruption table — a pure function of `(n, seed)`.
    /// A sampler handed none builds it on its first full sweep; a shared
    /// population builds it with the index through
    /// [`ResourceSampler::build_index_and_sweep`].
    pub fn build_sweep_models(n: usize, seed: u64) -> InterruptionTable {
        let (mut phase, mut len, mut hi) = ([0; CHUNK], [0; CHUNK], vec![0; n]);
        for base in (0..n).step_by(CHUNK) {
            let end = n.min(base + CHUNK);
            let (p, l) = (&mut phase[..end - base], &mut len[..end - base]);
            population_tables(seed, base, p, l, &mut hi[base..end]);
        }
        InterruptionTable::from_thresholds(seed, hi)
    }

    /// `(build_index(n, seed), build_sweep_models(n, seed))` in one pass:
    /// each client's draws are made once, for both.
    pub fn build_index_and_sweep(n: usize, seed: u64) -> (AvailabilityIndex, InterruptionTable) {
        let (mut phase, mut len, mut hi) = (vec![0; n], vec![0; n], vec![0; n]);
        population_tables(seed, 0, &mut phase, &mut len, &mut hi);
        let index = AvailabilityIndex::from_windows(phase, len);
        (index, InterruptionTable::from_thresholds(seed, hi))
    }

    /// Build a sampler around a pre-built availability index (and,
    /// optionally, a pre-built full-sweep table). Behaviour is bit-identical
    /// to [`ResourceSampler::new`] *provided* the handles were derived
    /// from the same `(n, seed)` — both are pure functions of those two
    /// values, which is what makes sharing them across a sweep's trials
    /// value-transparent.
    ///
    /// # Panics
    ///
    /// Panics if a handle's population size disagrees with `n`.
    pub fn with_shared(
        n: usize,
        interference: InterferenceModel,
        seed: u64,
        index: AvailabilityIndex,
        sweep_models: Option<Arc<InterruptionTable>>,
    ) -> Self {
        assert_eq!(index.num_clients(), n, "availability index population");
        assert!(n as u64 <= 1 << 32, "client ids must fit u32: {n} clients");
        if let Some(models) = &sweep_models {
            assert_eq!(models.len(), n, "sweep-model population");
        }
        ResourceSampler {
            num_clients: n,
            interference,
            seed,
            pop_seed: split_seed(seed, 0xDE7),
            index,
            sweep_models,
            batteries: HashMap::new(),
            peak_batteries: 0,
            charge_epochs: 0,
            cache: HashMap::new(),
            cache_cap: n.clamp(1, TRACE_CACHE_CAP),
            cache_tick: 0,
            pool_ranks: Vec::new(),
            pool_swap: HashMap::new(),
            pool_cands: Vec::new(),
            pool_draws: 0,
            pool_rejected: 0,
            blocked_scratch: Vec::new(),
        }
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.num_clients
    }

    /// Residency and activity counters (see [`AvailabilityStats`]).
    pub fn availability_stats(&self) -> AvailabilityStats {
        AvailabilityStats {
            index_heap_bytes: self.index.heap_bytes(),
            transitions_applied: self.index.transitions_applied(),
            rounds_advanced: self.index.advances(),
            tracked_batteries: self.batteries.len(),
            peak_tracked_batteries: self.peak_batteries,
            trace_cache_resident: self.cache.len(),
            trace_cache_capacity: self.cache_cap,
            sweep_models_bytes: self.sweep_models.as_ref().map_or(0, |t| t.heap_bytes()),
            pool_draws: self.pool_draws,
            pool_rejected: self.pool_rejected,
        }
    }

    /// Rederive client `client`'s full trace bundle (identical to what the
    /// eager constructor used to build).
    fn derive_trace(&self, client: usize) -> CachedTrace {
        let s = split_seed(self.seed, 0x1000 + client as u64);
        let profile = DeviceProfile::derive(self.pop_seed, client);
        let net_profile = if s % 10 < 6 {
            NetworkProfile::FourG
        } else {
            NetworkProfile::FiveG
        };
        let mobility = match s % 3 {
            0 => Mobility::Stationary,
            1 => Mobility::Walking,
            _ => Mobility::Driving,
        };
        CachedTrace {
            profile,
            network: NetworkGen::new(net_profile, mobility, split_seed(s, 1)),
            availability: AvailabilityModel::for_client(self.seed, client),
        }
    }

    /// Fetch `client`'s trace bundle through the bounded cache. Eviction
    /// rederives later — [`NetworkGen`] is order-independent in its query
    /// round, so eviction can never change any sampled value.
    fn cached(&mut self, client: usize) -> &mut CachedTrace {
        self.cache_tick += 1;
        let tick = self.cache_tick;
        if !self.cache.contains_key(&client) {
            if self.cache.len() >= self.cache_cap {
                let victim = self
                    .cache
                    .iter()
                    .map(|(&id, e)| (e.0, id))
                    .min()
                    .expect("cache non-empty");
                self.cache.remove(&victim.1);
            }
            let t = self.derive_trace(client);
            self.cache.insert(client, (tick, t));
        }
        let entry = self.cache.get_mut(&client).expect("just inserted");
        entry.0 = tick;
        &mut entry.1
    }

    /// Battery state of `client` as of the current charge epoch, or `None`
    /// if it is exactly full (untracked).
    fn battery_state(&self, client: usize) -> Option<BatteryState> {
        self.batteries.get(&client).map(|b| {
            let mut s = *b;
            s.settle(self.charge_epochs);
            s.state
        })
    }

    /// Whether `client`'s battery admits training at the current epoch.
    fn battery_allows(&self, client: usize) -> bool {
        self.battery_state(client)
            .is_none_or(|s| s.allows_training())
    }

    /// Settle every tracked battery to the current epoch and drop the ones
    /// back at full charge (they are indistinguishable from untracked).
    fn settle_and_prune(&mut self) {
        let epochs = self.charge_epochs;
        self.batteries.retain(|_, b| {
            b.settle(epochs);
            b.state.remaining_j < b.state.capacity_j
        });
    }

    /// Materialize the per-client interruption table for the full-sweep
    /// path. Pooled samplers never pay this (4 B × population) cost.
    fn ensure_sweep_models(&mut self) {
        if self.sweep_models.is_none() {
            self.sweep_models = Some(Arc::new(Self::build_sweep_models(
                self.num_clients,
                self.seed,
            )));
        }
    }

    /// Pre-build the full-sweep availability models so the cost lands at
    /// construction time instead of inside the first round.
    pub fn prewarm_full_sweep(&mut self) {
        self.ensure_sweep_models();
    }

    /// A client's trace bundle (rederived through the bounded cache), with
    /// the battery settled to the current charge epoch.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn client(&mut self, client: usize) -> ClientTraces {
        assert!(client < self.num_clients, "client {client} out of range");
        let battery = self.battery_state(client);
        let t = self.cached(client);
        ClientTraces {
            profile: t.profile,
            network: t.network.clone(),
            availability: t.availability.clone(),
            battery: battery.unwrap_or_else(|| BatteryState::full(t.profile.battery_j)),
        }
    }

    /// A client's device profile, read through the bounded trace cache
    /// (the same cache touch as [`ResourceSampler::client`], without
    /// cloning the rest of the bundle).
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn profile(&mut self, client: usize) -> DeviceProfile {
        assert!(client < self.num_clients, "client {client} out of range");
        self.cached(client).profile
    }

    /// Drain a client's battery by `joules` (after it trains/communicates).
    /// Called by the simulator for participating clients.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn drain_battery(&mut self, client: usize, joules: f64) {
        assert!(client < self.num_clients, "client {client} out of range");
        let epochs = self.charge_epochs;
        let cap = self.cached(client).profile.battery_j;
        let entry = self.batteries.entry(client).or_insert(LazyBattery {
            state: BatteryState::full(cap),
            settled: epochs,
        });
        entry.settle(epochs);
        entry.state.drain(joules);
        self.peak_batteries = self.peak_batteries.max(self.batteries.len());
    }

    /// Trickle-charge every client's battery by a round's worth of charging
    /// (clients spend much of the diurnal cycle on power). O(1): full
    /// batteries stay full under charging, so only the sparse tracked set
    /// ever needs the epoch applied — lazily, on next access.
    pub fn charge_all(&mut self) {
        self.charge_epochs += 1;
    }

    /// Whether `client` is available at `round`: the availability bit of
    /// [`ResourceSampler::snapshot`] without sampling network bandwidth or
    /// interference fractions. Pure in everything but the battery, which the
    /// simulator mutates between rounds.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn is_available(&self, client: usize, round: usize) -> bool {
        assert!(client < self.num_clients, "client {client} out of range");
        AvailabilityModel::for_client(self.seed, client).available(round)
            && self.battery_allows(client)
    }

    /// Collect all available clients at `round` into `out` (cleared first),
    /// in ascending client order — identical to filtering
    /// `(0..n).filter(|&c| self.snapshot(c, round).available)`, but with
    /// the diurnal half read from the index's row, 64 clients a word,
    /// instead of from one derived model per client.
    pub fn available_clients_into(&mut self, round: usize, out: &mut Vec<u32>) {
        out.clear();
        self.index.advance_to(round);
        self.settle_and_prune();
        self.ensure_sweep_models();
        // Only tracked (recently drained) batteries can refuse training,
        // and there are few of them — snapshot the refusers into a sorted
        // scratch so the per-set-bit check is a binary search over a
        // handful of ids, not a hash probe per available client.
        let mut blocked = std::mem::take(&mut self.blocked_scratch);
        blocked.clear();
        blocked.extend(
            self.batteries
                .iter()
                .filter(|(_, b)| !b.state.allows_training())
                .map(|(&c, _)| c),
        );
        blocked.sort_unstable();
        let models = self.sweep_models.as_ref().expect("just built");
        out.reserve(self.index.count());
        // One interruption mask per row word: the 64 draws run branch-free
        // (and vectorized), then only the surviving bits are visited.
        for (w, &word) in self.index.row_words().iter().enumerate() {
            if word == 0 {
                continue;
            }
            let base = w * 64;
            let mut bits = word & models.clear_word(base, round);
            while bits != 0 {
                let c = base + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if blocked.is_empty() || blocked.binary_search(&c).is_err() {
                    out.push(c as u32);
                }
            }
        }
        self.blocked_scratch = blocked;
    }

    /// Draw a deterministic candidate pool of at most `k` clients for
    /// `round` into `out` (cleared first; ascending client order), and
    /// return the **exact** number of eligible clients (diurnally
    /// available ∩ battery-admitted) — counted over the index's row, never
    /// approximated by the pool size.
    ///
    /// The pool is a uniform sample without replacement of `k` clients
    /// from the diurnally-available set (all of them if fewer than `k`),
    /// drawn from `draw_seed` alone — independent of thread count, query
    /// history, and population layout. Sampled candidates then pass the
    /// same interruption + battery filters as the full sweep, so `out` is
    /// always a subset of what [`ResourceSampler::available_clients_into`]
    /// would produce, and may hold fewer than `k` clients.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (use the full sweep for that).
    pub fn candidate_pool_into(
        &mut self,
        round: usize,
        k: usize,
        draw_seed: u64,
        out: &mut Vec<u32>,
    ) -> usize {
        assert!(k > 0, "candidate_pool_into requires k > 0");
        out.clear();
        self.index.advance_to(round);
        self.settle_and_prune();
        let m = self.index.count();
        // Exact eligible count: diurnal minus the (sparse, recently
        // drained) tracked batteries that currently refuse training.
        let blocked = self
            .batteries
            .iter()
            .filter(|(&c, b)| self.index.contains(c) && !b.state.allows_training())
            .count();
        let eligible = m - blocked;

        let mut cands = std::mem::take(&mut self.pool_cands);
        cands.clear();
        if m <= k {
            for (w, &word) in self.index.row_words().iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    cands.push(w * 64 + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
        } else {
            // k distinct ranks uniform over 0..m, deterministic in
            // draw_seed, O(k) time and space.
            let ranks = &mut self.pool_ranks;
            sample_distinct_into(&mut seed_rng(draw_seed), m, k, &mut self.pool_swap, ranks);
            ranks.sort_unstable();
            self.index.select_ranks_into(ranks, &mut cands);
        }

        for &c in &cands {
            self.pool_draws += 1;
            let clear = match &self.sweep_models {
                Some(models) => models.clear(c, round),
                None => AvailabilityModel::for_client(self.seed, c).clear_of_interruption(round),
            };
            if clear
                && self
                    .batteries
                    .get(&c)
                    .is_none_or(|b| b.state.allows_training())
            {
                out.push(c as u32);
            } else {
                self.pool_rejected += 1;
            }
        }
        self.pool_cands = cands;
        eligible
    }

    /// Snapshot client `client` at `round`.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn snapshot(&mut self, client: usize, round: usize) -> ResourceSnapshot {
        assert!(client < self.num_clients, "client {client} out of range");
        let (cpu_f, mem_f, net_f) =
            self.interference
                .available_fractions(split_seed(self.seed, 0x1F), client, round);
        let battery = self.battery_state(client);
        let t = self.cached(client);
        let battery = battery.unwrap_or_else(|| BatteryState::full(t.profile.battery_j));
        let nominal_mbps = t.network.bandwidth_mbps(round);
        let battery_ok = battery.allows_training();
        let avail = t.availability.available(round) && battery_ok;
        ResourceSnapshot {
            available: avail,
            effective_gflops: t.profile.gflops * cpu_f,
            effective_mbps: nominal_mbps * net_f,
            effective_memory_bytes: t.profile.memory_bytes as f64 * mem_f,
            cpu_fraction: cpu_f,
            mem_fraction: mem_f,
            net_fraction: net_f,
            battery_fraction: battery.fraction(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_are_deterministic() {
        let mut a = ResourceSampler::new(10, InterferenceModel::paper_dynamic(), 9);
        let mut b = ResourceSampler::new(10, InterferenceModel::paper_dynamic(), 9);
        for c in 0..10 {
            for r in [0usize, 5, 50] {
                assert_eq!(a.snapshot(c, r), b.snapshot(c, r));
            }
        }
    }

    #[test]
    fn no_interference_keeps_full_fractions() {
        let mut s = ResourceSampler::new(5, InterferenceModel::None, 2);
        let snap = s.snapshot(0, 0);
        assert_eq!(snap.cpu_fraction, 1.0);
        assert_eq!(snap.net_fraction, 1.0);
        assert_eq!(snap.mem_fraction, 1.0);
    }

    #[test]
    fn interference_reduces_effective_resources() {
        let mut free = ResourceSampler::new(20, InterferenceModel::None, 4);
        let mut busy = ResourceSampler::new(20, InterferenceModel::paper_static(), 4);
        for c in 0..20 {
            let f = free.snapshot(c, 0);
            let b = busy.snapshot(c, 0);
            assert!(b.effective_gflops < f.effective_gflops);
            assert!(b.effective_mbps <= f.effective_mbps);
        }
    }

    #[test]
    fn empty_battery_blocks_availability() {
        let mut s = ResourceSampler::new(3, InterferenceModel::None, 6);
        let cap = s.client(1).battery.capacity_j;
        s.drain_battery(1, cap);
        // Find a round where the diurnal model would allow participation.
        let mut checked = false;
        for r in 0..200 {
            if s.client(1).availability.available(r) {
                assert!(!s.snapshot(1, r).available, "round {r} should be blocked");
                checked = true;
                break;
            }
        }
        assert!(checked, "no diurnal-available round found");
    }

    #[test]
    fn available_clients_into_matches_snapshot_filter() {
        let mut a = ResourceSampler::new(37, InterferenceModel::paper_dynamic(), 11);
        let mut b = a.clone();
        let mut buf = Vec::new();
        for r in 0..120 {
            a.available_clients_into(r, &mut buf);
            let brute: Vec<u32> = (0..b.num_clients())
                .filter(|&c| b.snapshot(c, r).available)
                .map(|c| c as u32)
                .collect();
            assert_eq!(buf, brute, "round {r}");
            // Drain one client to exercise battery gating mid-sequence.
            if r == 40 {
                let cap = a.client(3).battery.capacity_j;
                a.drain_battery(3, cap);
                b.drain_battery(3, cap);
            }
        }
    }

    #[test]
    fn is_available_matches_snapshot_bit() {
        let mut s = ResourceSampler::new(12, InterferenceModel::paper_static(), 4);
        for r in 0..50 {
            for c in 0..12 {
                let fast = s.is_available(c, r);
                assert_eq!(fast, s.snapshot(c, r).available, "client {c} round {r}");
            }
        }
    }

    #[test]
    fn charging_restores_training() {
        let mut s = ResourceSampler::new(2, InterferenceModel::None, 3);
        let cap = s.client(0).battery.capacity_j;
        s.drain_battery(0, cap);
        assert!(!s.client(0).battery.allows_training());
        for _ in 0..10 {
            s.charge_all();
        }
        assert!(s.client(0).battery.allows_training());
    }

    #[test]
    fn lazy_battery_matches_eager_replay() {
        // Interleave drains and charge epochs; compare against a manual
        // eager battery that charges every epoch.
        let mut s = ResourceSampler::new(4, InterferenceModel::None, 8);
        let cap = s.client(2).battery.capacity_j;
        let mut eager = BatteryState::full(cap);
        let rate = cap * 0.02;
        for step in 0..60 {
            if step % 7 == 3 {
                s.drain_battery(2, cap * 0.3);
                eager.drain(cap * 0.3);
            }
            s.charge_all();
            eager.charge(rate);
            assert_eq!(
                s.client(2).battery.remaining_j,
                eager.remaining_j,
                "step {step}"
            );
        }
    }

    #[test]
    fn sweep_agrees_on_non_monotone_rounds() {
        let mut lazy = ResourceSampler::new(77, InterferenceModel::paper_dynamic(), 13);
        let mut buf = Vec::new();
        for &r in &[5usize, 200, 3, 150, 150, 0, 95, 96] {
            lazy.available_clients_into(r, &mut buf);
            let mut fresh = ResourceSampler::new(77, InterferenceModel::paper_dynamic(), 13);
            let mut want = Vec::new();
            fresh.available_clients_into(r, &mut want);
            assert_eq!(buf, want, "round {r}");
        }
    }

    #[test]
    fn pool_is_subset_of_sweep_and_eligible_is_exact() {
        let mut s = ResourceSampler::new(250, InterferenceModel::paper_dynamic(), 21);
        let mut sweep = Vec::new();
        let mut pool = Vec::new();
        for r in 0..120 {
            let eligible = s.candidate_pool_into(r, 40, split_seed(99, r as u64), &mut pool);
            s.available_clients_into(r, &mut sweep);
            assert!(pool.len() <= 40, "round {r}");
            assert!(
                pool.iter().all(|c| sweep.contains(c)),
                "round {r}: pool not a subset"
            );
            assert!(pool.windows(2).all(|w| w[0] < w[1]), "round {r}: unsorted");
            // Exact eligible = brute-force diurnal ∩ battery count.
            let brute = (0..250)
                .filter(|&c| {
                    let ct = s.client(c);
                    ct.availability.diurnal_available(r) && ct.battery.allows_training()
                })
                .count();
            assert_eq!(eligible, brute, "round {r}: eligible count");
            if r == 30 {
                let cap = s.client(7).battery.capacity_j;
                s.drain_battery(7, cap);
            }
            s.charge_all();
        }
    }

    #[test]
    fn both_eligible_producers_emit_strictly_ascending_ids() {
        // The `ClientSelector::select_into` contract (Oort binary-searches
        // `eligible`): holds for the sweep and for both pool branches
        // (sampled ranks, and everyone when k covers the available set),
        // in any round order.
        let mut s = ResourceSampler::new(250, InterferenceModel::paper_dynamic(), 21);
        let mut out = Vec::new();
        for &r in &[5usize, 200, 3, 150, 150, 0, 95, 96] {
            s.available_clients_into(r, &mut out);
            assert!(out.windows(2).all(|w| w[0] < w[1]), "sweep, round {r}");
            for k in [40, 1000] {
                s.candidate_pool_into(r, k, split_seed(99, r as u64), &mut out);
                assert!(!out.is_empty(), "pool k={k}, round {r}: empty");
                assert!(out.windows(2).all(|w| w[0] < w[1]), "pool k={k}, round {r}");
            }
        }
    }

    #[test]
    fn pool_covers_everyone_when_small_population() {
        let mut s = ResourceSampler::new(30, InterferenceModel::None, 5);
        let mut pool = Vec::new();
        let mut sweep = Vec::new();
        for r in 0..50 {
            s.candidate_pool_into(r, 100, 1234, &mut pool);
            s.available_clients_into(r, &mut sweep);
            assert_eq!(pool, sweep, "round {r}: k ≥ population must equal sweep");
        }
    }

    #[test]
    fn pool_is_deterministic_in_draw_seed() {
        let mut a = ResourceSampler::new(400, InterferenceModel::paper_dynamic(), 17);
        let mut b = ResourceSampler::new(400, InterferenceModel::paper_dynamic(), 17);
        // b serves unrelated queries first; the pool must not care.
        let mut scratch = Vec::new();
        b.available_clients_into(7, &mut scratch);
        b.snapshot(3, 2);
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        for r in [0usize, 9, 50, 121] {
            let ea = a.candidate_pool_into(r, 32, split_seed(5, r as u64), &mut pa);
            let eb = b.candidate_pool_into(r, 32, split_seed(5, r as u64), &mut pb);
            assert_eq!(pa, pb, "round {r}");
            assert_eq!(ea, eb, "round {r} eligible");
        }
    }

    #[test]
    fn profile_matches_the_full_bundle_across_evictions() {
        // More clients than the trace cache holds, so the walk evicts.
        let n = TRACE_CACHE_CAP + 100;
        let mut a = ResourceSampler::new(n, InterferenceModel::None, 3);
        let mut b = ResourceSampler::new(n, InterferenceModel::None, 3);
        for c in (0..n).chain((0..n).step_by(7)) {
            assert_eq!(a.profile(c), b.client(c).profile, "client {c}");
        }
        let (sa, sb) = (a.availability_stats(), b.availability_stats());
        assert_eq!(sa.trace_cache_resident, sb.trace_cache_resident);
        assert_eq!(sa.trace_cache_resident, TRACE_CACHE_CAP);
    }

    #[test]
    fn stats_report_activity() {
        let mut s = ResourceSampler::new(100, InterferenceModel::None, 2);
        let mut pool = Vec::new();
        for r in 0..10 {
            s.candidate_pool_into(r, 16, r as u64, &mut pool);
        }
        let cap = s.client(0).battery.capacity_j;
        s.drain_battery(0, cap);
        let st = s.availability_stats();
        assert!(st.index_heap_bytes > 0);
        assert!(st.pool_draws > 0);
        assert_eq!(st.tracked_batteries, 1);
        assert_eq!(st.peak_tracked_batteries, 1);
        assert_eq!(st.sweep_models_bytes, 0, "pool path must not build sweep");
        assert!(st.trace_cache_resident <= st.trace_cache_capacity);
        s.available_clients_into(3, &mut pool);
        assert_eq!(s.availability_stats().sweep_models_bytes, 4 * 100);
    }
}
