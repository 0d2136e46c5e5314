//! Evaluation metrics matching the paper (§6.1 "Metrics"): top-10 % /
//! average / bottom-10 % client accuracy, dropout counts, per-technique
//! success/failure statistics, and resource-inefficiency totals.

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize, Value, Writer};

use float_accel::AccelAction;
use float_obs::TelemetrySummary;
use float_sim::LedgerTotals;

/// Summary of per-client accuracies: the paper's three-way split designed
/// to expose selection bias (top clients fine, bottom clients starved).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccuracySummary {
    /// Mean accuracy of the best-performing 10 % of clients.
    pub top10: f64,
    /// Mean accuracy across all clients.
    pub mean: f64,
    /// Mean accuracy of the worst-performing 10 % of clients.
    pub bottom10: f64,
}

impl AccuracySummary {
    /// Compute the three-way summary from per-client accuracies.
    ///
    /// Empty input yields all zeros. The decile is at least one client.
    pub fn from_accuracies(accs: &[f64]) -> Self {
        if accs.is_empty() {
            return AccuracySummary {
                top10: 0.0,
                mean: 0.0,
                bottom10: 0.0,
            };
        }
        let mut sorted = accs.to_vec();
        // total_cmp gives a real total order: NaNs sort to the top instead
        // of freezing wherever the comparison happened to see them, so a
        // poisoned accuracy cannot scramble the deciles.
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let decile = (n / 10).max(1);
        let bottom10 = sorted[..decile].iter().sum::<f64>() / decile as f64;
        let top10 = sorted[n - decile..].iter().sum::<f64>() / decile as f64;
        let mean = sorted.iter().sum::<f64>() / n as f64;
        AccuracySummary {
            top10,
            mean,
            bottom10,
        }
    }
}

/// Success / failure counts of one acceleration technique (Fig. 6 and 11,
/// right panels).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TechniqueStats {
    /// Client-rounds where the technique was applied and the client
    /// completed.
    pub successes: u64,
    /// Client-rounds where the technique was applied and the client
    /// dropped.
    pub failures: u64,
}

impl TechniqueStats {
    /// Success rate in `[0, 1]`; `0.0` when never applied.
    pub fn success_rate(&self) -> f64 {
        let total = self.successes + self.failures;
        if total == 0 {
            0.0
        } else {
            self.successes as f64 / total as f64
        }
    }

    /// Fold another technique's counts into this one (combining reports
    /// from sharded or repeated runs).
    pub fn merge(&mut self, other: &TechniqueStats) {
        self.successes += other.successes;
        self.failures += other.failures;
    }
}

/// One row of the per-round log.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round (or async aggregation) index.
    pub round: usize,
    /// Clients tasked this round.
    pub selected: usize,
    /// Clients whose updates were aggregated.
    pub completed: usize,
    /// Clients that dropped.
    pub dropped: usize,
    /// Of the dropped clients, how many were quarantined by payload
    /// validation (subset of `dropped`).
    #[serde(default)]
    pub quarantined: usize,
    /// Virtual wall-clock at the end of the round, seconds.
    pub clock_s: f64,
    /// Mean client accuracy, if this was an evaluation round.
    pub mean_accuracy: Option<f64>,
    /// Mean RLHF reward over the round's feedback events (None when the
    /// agent is off).
    pub mean_reward: Option<f64>,
    /// Exact number of eligible clients this round (diurnally available ∩
    /// battery-admitted), counted over the availability index's row.
    /// Only populated under candidate pooling
    /// (`ExperimentConfig::candidate_pool > 0`) — it is the truthful
    /// population-wide count, *never* the pool size. `None` on full-sweep
    /// runs, whose round logs stay byte-identical to pre-pool reports.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub eligible: Option<usize>,
}

/// One count per client of a population, kept only for the clients whose
/// count is not zero: a run touches a cohort's worth of clients a round,
/// so at a million clients a dense array is almost all zeros. It
/// serializes as that dense array, element for element, and reads one
/// back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientCounts {
    num_clients: usize,
    /// Client → count; no zero is ever stored.
    counts: BTreeMap<usize, u64>,
}

impl ClientCounts {
    /// All-zero counts over `num_clients` clients.
    pub fn new(num_clients: usize) -> Self {
        ClientCounts {
            num_clients,
            counts: BTreeMap::new(),
        }
    }

    /// Add one to `client`'s count.
    ///
    /// # Panics
    ///
    /// Panics if `client` is not below [`ClientCounts::len`].
    pub fn increment(&mut self, client: usize) {
        assert!(client < self.num_clients, "client {client} out of range");
        *self.counts.entry(client).or_insert(0) += 1;
    }

    /// Number of clients counted over, zeros included.
    pub fn len(&self) -> usize {
        self.num_clients
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.num_clients == 0
    }

    /// `client`'s count, `None` past the population.
    pub fn get(&self, client: usize) -> Option<u64> {
        (client < self.num_clients).then(|| self.counts.get(&client).copied().unwrap_or(0))
    }

    /// `(client, count)` of every non-zero count, in ascending client order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts.iter().map(|(&c, &n)| (c, n))
    }

    /// Sum over all clients.
    pub fn sum(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Number of clients whose count is zero.
    fn zeros(&self) -> usize {
        self.num_clients - self.counts.len()
    }
}

impl Serialize for ClientCounts {
    fn serialize(&self, w: &mut Writer<'_>) {
        let mut nonzero = self.counts.iter().peekable();
        w.open('[');
        for client in 0..self.num_clients {
            w.item();
            match nonzero.next_if(|&(&c, _)| c == client) {
                Some((_, n)) => n.serialize(w),
                None => w.raw("0"),
            }
        }
        w.close(']');
    }
}

impl Deserialize for ClientCounts {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let dense = Vec::<u64>::from_value(v)?;
        Ok(ClientCounts {
            num_clients: dense.len(),
            counts: (0..).zip(dense).filter(|&(_, n)| n > 0).collect(),
        })
    }
}

/// Full result of one experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Label, e.g. `"float-rlhf(fedavg)/femnist"`.
    pub label: String,
    /// Final accuracy summary over all clients.
    pub accuracy: AccuracySummary,
    /// Per-client final accuracies (for distribution plots).
    pub client_accuracies: Vec<f64>,
    /// Count of selections per client (Fig. 2a "C").
    pub selected_count: ClientCounts,
    /// Count of successful participations per client (Fig. 2a "S").
    pub completed_count: ClientCounts,
    /// Total dropout events across the run.
    pub total_dropouts: u64,
    /// Total completion events across the run.
    pub total_completions: u64,
    /// Updates rejected by server-side payload validation (non-finite
    /// deltas). Counted in `total_dropouts` too.
    #[serde(default)]
    pub total_quarantined: u64,
    /// Duplicate deliveries of the same client's update suppressed before
    /// aggregation.
    #[serde(default)]
    pub duplicates_suppressed: u64,
    /// Retries issued for network-stalled clients (sync engine's bounded
    /// retry/backoff).
    #[serde(default)]
    pub stall_retries: u64,
    /// Resource ledger totals.
    pub resources: LedgerTotals,
    /// Final virtual wall-clock, hours.
    pub wall_clock_h: f64,
    /// Per-technique success/failure statistics, keyed by action name.
    pub technique_stats: HashMap<String, TechniqueStats>,
    /// Per-round log.
    pub rounds: Vec<RoundRecord>,
    /// End-of-run telemetry totals (`None` unless the run enabled
    /// observability via `ExperimentConfig::obs`). Contains only
    /// simulated-state data, so it is covered by the report's bit-identical
    /// determinism guarantee.
    #[serde(default)]
    pub telemetry: Option<TelemetrySummary>,
}

impl ExperimentReport {
    /// Number of clients never selected during the run — the selection
    /// bias measure behind Fig. 2a.
    pub fn never_selected(&self) -> usize {
        self.selected_count.zeros()
    }

    /// Number of clients that never completed a round.
    pub fn never_completed(&self) -> usize {
        self.completed_count.zeros()
    }

    /// Record one technique outcome.
    pub fn record_technique(&mut self, action: AccelAction, success: bool) {
        let e = self
            .technique_stats
            .entry(action.name().to_string())
            .or_default();
        if success {
            e.successes += 1;
        } else {
            e.failures += 1;
        }
    }

    /// Mean reward across rounds that reported one (RLHF convergence
    /// trajectory, Fig. 9).
    pub fn reward_trajectory(&self) -> Vec<(usize, f64)> {
        self.rounds
            .iter()
            .filter_map(|r| r.mean_reward.map(|w| (r.round, w)))
            .collect()
    }

    /// Whether every floating-point quantity in the report is finite —
    /// the no-NaN/no-Inf invariant chaos runs assert even under hostile
    /// fault schedules.
    #[must_use = "is_finite reports an invariant check; ignoring it hides NaN/Inf corruption"]
    pub fn is_finite(&self) -> bool {
        [
            self.accuracy.top10,
            self.accuracy.mean,
            self.accuracy.bottom10,
        ]
        .iter()
        .all(|v| v.is_finite())
            && self.client_accuracies.iter().all(|v| v.is_finite())
            && self.wall_clock_h.is_finite()
            && self.resources.is_physical()
            && self.rounds.iter().all(|r| {
                r.clock_s.is_finite()
                    && r.mean_accuracy.is_none_or(f64::is_finite)
                    && r.mean_reward.is_none_or(f64::is_finite)
            })
    }

    /// Serialize the per-round log as JSON Lines (one round per line) —
    /// the analog of the paper artifact's per-round log files, convenient
    /// for `jq`/pandas post-processing.
    pub fn round_log_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.rounds {
            r.write_json(&mut out);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// The sparse counts write the bytes a dense `Vec<u64>` twin
        /// writes, compact and pretty, read back from them, and answer
        /// every query the twin answers.
        #[test]
        fn client_counts_write_the_dense_array(
            n in 0usize..300,
            increments in prop::collection::vec(any::<u16>(), 0..600),
        ) {
            let mut counts = ClientCounts::new(n);
            let mut twin = vec![0u64; n];
            for &c in increments.iter().filter(|_| n > 0) {
                let c = usize::from(c) % n;
                counts.increment(c);
                twin[c] += 1;
            }
            prop_assert_eq!(
                serde_json::to_string(&counts).unwrap(),
                serde_json::to_string(&twin).unwrap()
            );
            let pretty = serde_json::to_string_pretty(&counts).unwrap();
            prop_assert_eq!(&pretty, &serde_json::to_string_pretty(&twin).unwrap());
            let back: ClientCounts = serde_json::from_str(&pretty).unwrap();
            prop_assert_eq!(&back, &counts);
            let value = serde_json::to_value(&twin).unwrap();
            prop_assert_eq!(serde_json::from_value::<ClientCounts>(&value).unwrap(), counts.clone());
            prop_assert_eq!(counts.len(), n);
            for (c, &want) in twin.iter().enumerate() {
                prop_assert_eq!(counts.get(c), Some(want), "client {}", c);
            }
            prop_assert_eq!(counts.get(n), None);
            let nonzero: Vec<(usize, u64)> =
                twin.iter().copied().enumerate().filter(|&(_, k)| k > 0).collect();
            prop_assert_eq!(counts.iter().collect::<Vec<_>>(), nonzero);
            prop_assert_eq!(counts.sum(), twin.iter().sum::<u64>());
            prop_assert_eq!(counts.zeros(), twin.iter().filter(|&&k| k == 0).count());
        }
    }

    #[test]
    fn summary_of_uniform_accuracies() {
        let accs = vec![0.5; 20];
        let s = AccuracySummary::from_accuracies(&accs);
        assert!((s.top10 - 0.5).abs() < 1e-12);
        assert!((s.mean - 0.5).abs() < 1e-12);
        assert!((s.bottom10 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn summary_separates_deciles() {
        // 10 clients: accuracies 0.0..0.9.
        let accs: Vec<f64> = (0..10).map(|i| i as f64 / 10.0).collect();
        let s = AccuracySummary::from_accuracies(&accs);
        assert!((s.bottom10 - 0.0).abs() < 1e-12);
        assert!((s.top10 - 0.9).abs() < 1e-12);
        assert!((s.mean - 0.45).abs() < 1e-12);
        assert!(s.top10 > s.mean && s.mean > s.bottom10);
    }

    #[test]
    fn summary_of_empty_is_zero() {
        let s = AccuracySummary::from_accuracies(&[]);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn summary_handles_fewer_than_ten() {
        let s = AccuracySummary::from_accuracies(&[0.2, 0.8]);
        assert!((s.bottom10 - 0.2).abs() < 1e-12);
        assert!((s.top10 - 0.8).abs() < 1e-12);
    }

    #[test]
    fn summary_of_single_client_uses_it_for_every_decile() {
        let s = AccuracySummary::from_accuracies(&[0.42]);
        assert!((s.top10 - 0.42).abs() < 1e-12);
        assert!((s.mean - 0.42).abs() < 1e-12);
        assert!((s.bottom10 - 0.42).abs() < 1e-12);
    }

    #[test]
    fn summary_is_stable_with_nan_input() {
        // Regression: the old partial_cmp(..).unwrap_or(Equal) comparator
        // stopped sorting at the first NaN, leaving the deciles scrambled.
        // total_cmp sends NaNs to the top decile deterministically; the
        // bottom decile and the finite prefix stay correct.
        let mut accs: Vec<f64> = (0..20).map(|i| i as f64 / 20.0).collect();
        accs[7] = f64::NAN;
        let s = AccuracySummary::from_accuracies(&accs);
        assert!((s.bottom10 - (0.0 + 0.05) / 2.0).abs() < 1e-12);
        assert!(s.top10.is_nan(), "NaN must surface in the top decile");
        // Same input permuted must give the same summary (total order).
        accs.reverse();
        let s2 = AccuracySummary::from_accuracies(&accs);
        assert_eq!(s.bottom10.to_bits(), s2.bottom10.to_bits());
        assert_eq!(s.top10.to_bits(), s2.top10.to_bits());
    }

    #[test]
    fn technique_stats_merge_adds_counts() {
        let mut a = TechniqueStats {
            successes: 3,
            failures: 1,
        };
        let b = TechniqueStats {
            successes: 2,
            failures: 5,
        };
        a.merge(&b);
        assert_eq!(a.successes, 5);
        assert_eq!(a.failures, 6);
        assert!((a.success_rate() - 5.0 / 11.0).abs() < 1e-12);
        // Merging the empty stats is the identity.
        let before = a;
        a.merge(&TechniqueStats::default());
        assert_eq!(a, before);
    }

    /// One client, counted once.
    fn counted_once() -> ClientCounts {
        let mut counts = ClientCounts::new(1);
        counts.increment(0);
        counts
    }

    #[test]
    fn round_log_jsonl_is_one_valid_object_per_line() {
        let report = ExperimentReport {
            label: "t".into(),
            accuracy: AccuracySummary::from_accuracies(&[0.5]),
            client_accuracies: vec![0.5],
            selected_count: counted_once(),
            completed_count: counted_once(),
            total_dropouts: 0,
            total_completions: 1,
            total_quarantined: 0,
            duplicates_suppressed: 0,
            stall_retries: 0,
            resources: Default::default(),
            wall_clock_h: 1.0,
            technique_stats: Default::default(),
            telemetry: None,
            rounds: vec![
                RoundRecord {
                    round: 0,
                    selected: 3,
                    completed: 2,
                    dropped: 1,
                    quarantined: 1,
                    clock_s: 100.0,
                    mean_accuracy: Some(0.4),
                    mean_reward: None,
                    eligible: None,
                },
                RoundRecord {
                    round: 1,
                    selected: 3,
                    completed: 3,
                    dropped: 0,
                    quarantined: 0,
                    clock_s: 200.0,
                    mean_accuracy: None,
                    mean_reward: Some(0.7),
                    eligible: Some(5),
                },
            ],
        };
        assert!(report.is_finite());
        let jsonl = report.round_log_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON line");
            assert!(v.get("round").is_some());
        }
        let mut bad = report;
        bad.wall_clock_h = f64::NAN;
        assert!(!bad.is_finite());
    }

    #[test]
    fn technique_stats_rate() {
        let t = TechniqueStats {
            successes: 3,
            failures: 1,
        };
        assert!((t.success_rate() - 0.75).abs() < 1e-12);
        assert_eq!(TechniqueStats::default().success_rate(), 0.0);
    }
}
