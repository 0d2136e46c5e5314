//! Resource accounting: the paper's compute / communication / memory
//! (in)efficiency metrics.

use serde::{Deserialize, Serialize};

use crate::round::ClientRoundOutcome;

/// Accumulated resource usage, split into useful (completed rounds) and
/// wasted (dropped clients) work.
///
/// The paper reports "resource inefficiency" as the total computation and
/// communication *time in hours* and memory *in terabytes* consumed by
/// clients that dropped out (§6.1 Metrics, §6.2): that is exactly the
/// `wasted_*` side of this ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LedgerTotals {
    /// Training time of completed rounds, hours.
    pub useful_compute_h: f64,
    /// Transfer time of completed rounds, hours.
    pub useful_comm_h: f64,
    /// Memory held by completed rounds, terabytes (byte·rounds / 1e12).
    pub useful_memory_tb: f64,
    /// Training time of dropped clients, hours (wasted).
    pub wasted_compute_h: f64,
    /// Transfer time of dropped clients, hours (wasted).
    pub wasted_comm_h: f64,
    /// Memory held by dropped clients, terabytes (wasted).
    pub wasted_memory_tb: f64,
    /// Energy drawn by completed rounds, joules.
    pub useful_energy_j: f64,
    /// Energy drawn by dropped clients, joules (wasted).
    pub wasted_energy_j: f64,
    /// Completed client-rounds.
    pub completions: u64,
    /// Dropped client-rounds.
    pub dropouts: u64,
    /// Dropped client-rounds whose update reached the server but was
    /// quarantined by payload validation (non-finite deltas). Always a
    /// subset of `dropouts`.
    #[serde(default)]
    pub quarantined: u64,
}

impl LedgerTotals {
    /// Total compute hours (useful + wasted).
    pub fn total_compute_h(&self) -> f64 {
        self.useful_compute_h + self.wasted_compute_h
    }

    /// Total communication hours (useful + wasted).
    pub fn total_comm_h(&self) -> f64 {
        self.useful_comm_h + self.wasted_comm_h
    }

    /// Total memory terabytes (useful + wasted).
    pub fn total_memory_tb(&self) -> f64 {
        self.useful_memory_tb + self.wasted_memory_tb
    }

    /// Whether every total is finite and non-negative and the quarantine
    /// count stays within the dropout count — the physicality invariant
    /// chaos runs and property tests assert.
    #[must_use = "is_physical reports an invariant check; ignoring it hides ledger corruption"]
    pub fn is_physical(&self) -> bool {
        [
            self.useful_compute_h,
            self.useful_comm_h,
            self.useful_memory_tb,
            self.wasted_compute_h,
            self.wasted_comm_h,
            self.wasted_memory_tb,
            self.useful_energy_j,
            self.wasted_energy_j,
        ]
        .iter()
        .all(|v| v.is_finite() && *v >= 0.0)
            && self.quarantined <= self.dropouts
    }
}

/// Mutable accumulator over client-round outcomes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ResourceLedger {
    totals: LedgerTotals,
}

impl ResourceLedger {
    /// Fresh empty ledger.
    pub fn new() -> Self {
        ResourceLedger::default()
    }

    /// Record one client-round outcome.
    pub fn record(&mut self, outcome: &ClientRoundOutcome) {
        let compute_h = outcome.train_s / 3600.0;
        let comm_h = (outcome.download_s + outcome.upload_s) / 3600.0;
        let memory_tb = outcome.memory_bytes / 1e12;
        if outcome.completed() {
            self.totals.useful_compute_h += compute_h;
            self.totals.useful_comm_h += comm_h;
            self.totals.useful_memory_tb += memory_tb;
            self.totals.useful_energy_j += outcome.energy_j;
            self.totals.completions += 1;
        } else {
            self.totals.wasted_compute_h += compute_h;
            self.totals.wasted_comm_h += comm_h;
            self.totals.wasted_memory_tb += memory_tb;
            self.totals.wasted_energy_j += outcome.energy_j;
            self.totals.dropouts += 1;
            if outcome.dropped == Some(crate::round::DropReason::Quarantined) {
                self.totals.quarantined += 1;
            }
        }
    }

    /// Current totals.
    pub fn totals(&self) -> LedgerTotals {
        self.totals
    }

    /// Merge another ledger into this one.
    pub fn merge(&mut self, other: &ResourceLedger) {
        let o = other.totals;
        let t = &mut self.totals;
        t.useful_compute_h += o.useful_compute_h;
        t.useful_comm_h += o.useful_comm_h;
        t.useful_memory_tb += o.useful_memory_tb;
        t.wasted_compute_h += o.wasted_compute_h;
        t.wasted_comm_h += o.wasted_comm_h;
        t.wasted_memory_tb += o.wasted_memory_tb;
        t.useful_energy_j += o.useful_energy_j;
        t.wasted_energy_j += o.wasted_energy_j;
        t.completions += o.completions;
        t.dropouts += o.dropouts;
        t.quarantined += o.quarantined;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::DropReason;

    fn outcome(completed: bool, train_s: f64, comm_s: f64, mem: f64) -> ClientRoundOutcome {
        ClientRoundOutcome {
            dropped: if completed {
                None
            } else {
                Some(DropReason::DeadlineMiss)
            },
            download_s: comm_s / 2.0,
            train_s,
            upload_s: comm_s / 2.0,
            memory_bytes: mem,
            energy_j: 5.0,
            deadline_overrun: 0.0,
        }
    }

    #[test]
    fn useful_and_wasted_split() {
        let mut l = ResourceLedger::new();
        l.record(&outcome(true, 3600.0, 1800.0, 1e12));
        l.record(&outcome(false, 7200.0, 3600.0, 2e12));
        let t = l.totals();
        assert!((t.useful_compute_h - 1.0).abs() < 1e-9);
        assert!((t.wasted_compute_h - 2.0).abs() < 1e-9);
        assert!((t.useful_comm_h - 0.5).abs() < 1e-9);
        assert!((t.wasted_memory_tb - 2.0).abs() < 1e-9);
        assert_eq!(t.completions, 1);
        assert_eq!(t.dropouts, 1);
    }

    #[test]
    fn empty_ledger_has_zero_fractions() {
        let l = ResourceLedger::new();
        assert_eq!(l.totals().total_compute_h(), 0.0);
    }

    #[test]
    fn quarantined_outcomes_are_counted_as_dropouts_and_quarantines() {
        let mut l = ResourceLedger::new();
        let mut o = outcome(false, 100.0, 50.0, 1e9);
        o.dropped = Some(DropReason::Quarantined);
        l.record(&o);
        l.record(&outcome(false, 100.0, 50.0, 1e9)); // plain deadline miss
        let t = l.totals();
        assert_eq!(t.dropouts, 2);
        assert_eq!(t.quarantined, 1);
        assert!(t.is_physical());
    }

    #[test]
    fn merge_carries_quarantine_counts() {
        let mut a = ResourceLedger::new();
        let mut b = ResourceLedger::new();
        let mut o = outcome(false, 1.0, 1.0, 1.0);
        o.dropped = Some(DropReason::Quarantined);
        a.record(&o);
        b.record(&o);
        a.merge(&b);
        assert_eq!(a.totals().quarantined, 2);
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = ResourceLedger::new();
        a.record(&outcome(true, 3600.0, 3600.0, 1e12));
        let mut b = ResourceLedger::new();
        b.record(&outcome(false, 3600.0, 3600.0, 1e12));
        a.merge(&b);
        let t = a.totals();
        assert_eq!(t.completions, 1);
        assert_eq!(t.dropouts, 1);
        assert!((t.total_compute_h() - 2.0).abs() < 1e-9);
    }
}
