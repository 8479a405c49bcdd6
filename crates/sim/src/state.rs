//! The engine's per-run bookkeeping: admission verdicts, good-ID tallies
//! and the spend ledger.
//!
//! Every arrival session's join outcome lives in one packed
//! [`AdmissionMap`], because its departure needs the verdict long after the
//! join fired. All money lives in one [`FixedLedger`]: each `f64` charge is
//! rounded to Q64.64 fixed point once, at the charge, and every sum after
//! that is exact `i128` arithmetic, converted back to `f64` once per read
//! (timeline samples, the sealed report). Aggregate sweep costs (purge,
//! periodic) are the defense's one `f64` total, charged whole.
//!
//! [`FixedLedger`]: crate::cost::FixedLedger

use crate::admission::{self, AdmissionMap, AdmissionState};
use crate::cost::{Cost, FixedLedger, Ledger, Purpose};
use crate::defense::{PeriodicReport, PurgeCycles, PurgeReport};

/// What one run has recorded so far about its good IDs and its spending.
///
/// # Example
///
/// ```
/// use sybil_sim::cost::Cost;
/// use sybil_sim::state::RunState;
///
/// let mut state = RunState::new(100);
/// state.record_good_join(7, true, Cost::ONE);
/// assert!(state.record_good_depart(7));
/// assert!(!state.record_good_depart(8)); // never admitted
/// assert_eq!(state.good_total(), Cost::ONE);
/// ```
#[derive(Clone, Debug)]
pub struct RunState {
    admission: AdmissionMap,
    /// Bitset over the admission segments a join has written. Resident
    /// sources preallocate every segment (see [`preallocate_admission`]),
    /// so the report's memory gauge counts these, not allocated ones.
    ///
    /// [`preallocate_admission`]: RunState::preallocate_admission
    touched: Vec<u64>,
    ledger: FixedLedger,
    good_joins_admitted: u64,
    good_joins_refused: u64,
    /// Departures of admitted sessions and of initial residents.
    good_departures: u64,
}

impl RunState {
    /// Creates state for `n_sessions` arrival sessions.
    pub fn new(n_sessions: u64) -> Self {
        let segments = (n_sessions as usize).div_ceil(admission::SEGMENT_ENTRIES);
        RunState {
            admission: AdmissionMap::new(n_sessions),
            touched: vec![0u64; segments.div_ceil(64)],
            ledger: FixedLedger::default(),
            good_joins_admitted: 0,
            good_joins_refused: 0,
            good_departures: 0,
        }
    }

    /// Eagerly allocates every admission segment.
    ///
    /// Called by the engine before the event loop when the workload
    /// source opts in (see `WorkloadSource::preallocate_admission`), so
    /// first-touch segment boxes never allocate mid-loop. The
    /// [`admission_bytes`] gauge counts *touched* segments and does not
    /// move.
    ///
    /// [`admission_bytes`]: RunState::admission_bytes
    pub fn preallocate_admission(&mut self) {
        self.admission.preallocate();
    }

    /// Records a good join's outcome and entrance charge.
    pub fn record_good_join(&mut self, index: u64, admitted: bool, cost: Cost) {
        self.ledger.charge_good(Purpose::Entrance, cost);
        // The engine always writes a non-Pending outcome, so every join
        // marks its segment as touched.
        let segment = (index as usize) / admission::SEGMENT_ENTRIES;
        self.touched[segment / 64] |= 1 << (segment % 64);
        if admitted {
            self.admission.set(index, AdmissionState::Admitted);
            self.good_joins_admitted += 1;
        } else {
            self.admission.set(index, AdmissionState::Refused);
            self.good_joins_refused += 1;
        }
    }

    /// Records a session's departure. Returns true — and counts the
    /// departure — only if the session was admitted.
    pub fn record_good_depart(&mut self, index: u64) -> bool {
        if self.admission.get(index) != AdmissionState::Admitted {
            return false;
        }
        self.good_departures += 1;
        true
    }

    /// Records a t=0 resident's departure (initial residents are not
    /// arrival sessions and have no admission entry).
    pub fn record_initial_depart(&mut self) {
        self.good_departures += 1;
    }

    /// Charges good spending outside a join (initialization).
    pub fn charge_good(&mut self, purpose: Purpose, amount: Cost) {
        self.ledger.charge_good(purpose, amount);
    }

    /// Charges adversary spending.
    pub fn charge_adversary(&mut self, purpose: Purpose, amount: Cost) {
        self.ledger.charge_adversary(purpose, amount);
    }

    /// Applies a purge sweep: the aggregate good-side cost and the
    /// adversary's retention cost.
    pub fn apply_purge(&mut self, report: &PurgeReport) {
        self.ledger.charge_good(Purpose::Purge, report.good_cost);
        self.ledger.charge_adversary(Purpose::Purge, report.adv_cost);
    }

    /// Applies `cycles.cycles` purge cycles at once: each one's entrance
    /// batch and its purge, charged exactly as that many
    /// [`charge_adversary`](Self::charge_adversary) and
    /// [`apply_purge`](Self::apply_purge) calls would charge them.
    pub(crate) fn apply_purge_cycles(&mut self, cycles: &PurgeCycles) {
        let PurgeCycles { cycles: k, batch, purge, .. } = *cycles;
        self.ledger.charge_adversary_times(Purpose::Entrance, batch.spent, k);
        self.ledger.charge_good_times(Purpose::Purge, purge.good_cost, k);
        self.ledger.charge_adversary_times(Purpose::Purge, purge.adv_cost, k);
    }

    /// Applies a periodic charge.
    pub fn apply_periodic(&mut self, report: &PeriodicReport, adv_cost: Cost) {
        self.ledger.charge_good(Purpose::Periodic, report.good_cost);
        self.ledger.charge_adversary(Purpose::Periodic, adv_cost);
    }

    /// Total good spending right now (exact, then converted once).
    pub fn good_total(&self) -> Cost {
        self.ledger.good_total().to_cost()
    }

    /// Total adversary spending right now.
    pub fn adversary_total(&self) -> Cost {
        self.ledger.adversary_total().to_cost()
    }

    /// Resident bytes of the admission state as the report gauges it: the
    /// touched segments' payloads plus the directory, which is what a
    /// lazily allocated [`AdmissionMap::allocated_bytes`] reads.
    pub fn admission_bytes(&self) -> usize {
        let touched = self.touched.iter().map(|w| w.count_ones() as usize).sum();
        admission::canonical_bytes(self.admission.len(), touched)
    }

    /// Seals the state into the report-facing ledger and counters.
    pub fn finalize(self) -> SealedState {
        SealedState {
            admission_bytes: self.admission_bytes(),
            ledger: self.ledger.to_ledger(),
            good_joins_admitted: self.good_joins_admitted,
            good_joins_refused: self.good_joins_refused,
            good_departures: self.good_departures,
        }
    }
}

/// The state a finished run reports.
#[derive(Clone, Debug)]
pub struct SealedState {
    /// The float ledger the report carries.
    pub ledger: Ledger,
    /// Good joins admitted.
    pub good_joins_admitted: u64,
    /// Good joins refused.
    pub good_joins_refused: u64,
    /// Departures counted (admitted sessions plus initial residents).
    pub good_departures: u64,
    /// Admission-state memory gauge.
    pub admission_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Preallocation is invisible to the gauge: it reads what a lazily
    /// allocated map holding the same verdicts allocates.
    #[test]
    fn admission_gauge_counts_touched_segments_even_when_preallocated() {
        let n = 3 * admission::SEGMENT_ENTRIES as u64 + 17;
        let mut lazy = AdmissionMap::new(n);
        let mut state = RunState::new(n);
        state.preallocate_admission();
        for i in (0..n).step_by(3 * admission::SEGMENT_ENTRIES / 2) {
            state.record_good_join(i, true, Cost::ONE);
            lazy.set(i, AdmissionState::Admitted);
        }
        assert_eq!(lazy.allocated_segments(), 3, "one segment is never touched");
        assert_eq!(state.admission_bytes(), lazy.allocated_bytes());
    }

    #[test]
    fn sweep_charges_keep_the_total_exactly() {
        for total in [Cost(777.125), Cost(1234.567)] {
            let mut st = RunState::new(1000);
            for i in 0..600 {
                st.record_good_join(i, true, Cost::ZERO);
            }
            st.apply_purge(&PurgeReport {
                good_cost: total,
                adv_cost: Cost::ZERO,
                bad_removed: 0,
                skipped: false,
            });
            // Both are multiples of 2⁻⁶⁴, so the one rounding is exact.
            assert_eq!(st.good_total(), total);
            assert_eq!(st.finalize().ledger.good_purge(), total);
        }
    }

    #[test]
    fn departures_only_count_admitted_sessions() {
        let mut st = RunState::new(10);
        st.record_good_join(4, true, Cost::ONE);
        st.record_good_join(5, false, Cost::ONE);
        assert!(st.record_good_depart(4));
        assert!(!st.record_good_depart(5)); // refused
        assert!(!st.record_good_depart(6)); // never joined
        let sealed = st.finalize();
        assert_eq!(sealed.good_joins_admitted, 1);
        assert_eq!(sealed.good_joins_refused, 1);
        assert_eq!(sealed.good_departures, 1);
        assert_eq!(sealed.ledger.good_total(), Cost(2.0));
    }
}
