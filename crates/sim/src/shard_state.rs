//! Sharded defense state: per-shard admission slices and spend ledgers
//! reduced deterministically at epoch boundaries.
//!
//! PR 7 sharded workload *decode*; the defense's own bookkeeping — the
//! [`AdmissionMap`], the spend [`Ledger`], purge-sweep accounting — still
//! lived on the coordinator. [`ShardedDefenseState`] moves it out: every
//! arrival session `i` is owned by shard `i mod S` (the same ID-congruence
//! layout [`crate::shard::ShardedWorkload`] uses), which holds a local
//! admission slice and a per-shard ledger delta. Every [`EPOCH_EVENTS`]
//! processed events each shard emits one bounded [`EpochDelta`] message
//! that the root folds in canonical shard order `0, 1, …, S−1`.
//!
//! # Status: only `S = 1` runs outside tests
//!
//! Nothing in `crates/` or `src/` outside tests asks for more than one
//! state shard (`WorkloadSource::state_shards` is above 1 only for a
//! [`crate::shard::ShardedWorkload`], which has no production caller; see
//! that module's status note). The partitioning stays while the frozen
//! `benchmark/` package pins the sharded path. The Q64.64 [`FixedCost`] /
//! [`FixedLedger`] arithmetic is not part of what retires: it defines
//! every report's spend totals at `S = 1` and lives in [`crate::cost`].
//!
//! # Why totals are bit-identical at every shard count
//!
//! Floating-point addition is not associative, so per-shard `f64` partial
//! sums would make reported spend depend on S. All shard-resident money
//! therefore lives in [`FixedCost`] — a Q64.64 fixed-point integer. Each
//! `f64` charge is rounded to fixed-point *once* (a pure function of the
//! charge value, independent of which shard receives it); after that every
//! sum is exact `i128` arithmetic, which *is* associative, so any grouping
//! of deltas — one shard, thirty-two shards, flushed early or late —
//! folds to the same integer. The single conversion back to `f64` happens
//! at read time (timeline samples, the final report), again independent of
//! S. The reduction is thus a fixed-shape tree: leaves are the per-charge
//! roundings in global event order, and the interior is integer addition,
//! whose shape cannot affect the result.
//!
//! Aggregate sweep costs (purge, periodic) are computed by the defense as
//! one `f64` total, and the root is charged that total whole, at every
//! shard count: like the adversary's money, a sweep has no single owning
//! session. Nothing can tell. Every reader ([`good_total`], the sealed
//! report) folds root and shard balances into one integer sum per slot,
//! so which accumulator held a share never reaches an output: splitting
//! a sweep over the shards' live populations would cost an `i128`
//! division per purge and change no bit of any report.
//!
//! [`good_total`]: ShardedDefenseState::good_total
//! [`FixedCost`]: crate::cost::FixedCost

use crate::admission::{self, AdmissionMap, AdmissionState};
use crate::cost::{Cost, FixedLedger, Ledger, Purpose};
use crate::defense::{PeriodicReport, PurgeReport};

/// Events between epoch reductions. Matches the workload shards' batch
/// granularity: one bounded message per shard per epoch.
pub const EPOCH_EVENTS: u32 = 4096;

/// One shard's bounded epoch message: the counters and ledger balances its
/// slice accumulated since the previous reduction. Fixed size regardless
/// of slice population — this is the entire cross-shard contract.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochDelta {
    /// Good joins admitted in this shard's slice this epoch.
    pub good_joins_admitted: u64,
    /// Good joins refused in this shard's slice this epoch.
    pub good_joins_refused: u64,
    /// Departures of admitted sessions in this shard's slice this epoch.
    pub good_departures: u64,
    /// Money movements attributed to this shard this epoch.
    pub ledger: FixedLedger,
}

impl EpochDelta {
    /// Folds `other` into `self` (exact; associative).
    pub fn merge(&mut self, other: &EpochDelta) {
        self.good_joins_admitted += other.good_joins_admitted;
        self.good_joins_refused += other.good_joins_refused;
        self.good_departures += other.good_departures;
        self.ledger.merge(&other.ledger);
    }
}

/// One shard's slice of the defense state.
#[derive(Clone, Debug)]
struct StateShard {
    /// Admission outcomes for sessions `i` with `i mod S == shard`, keyed
    /// by the local index `i / S`.
    admission: AdmissionMap,
    /// Bitset over *global* segment indices this shard has written, so the
    /// report's memory gauge stays a pure function of the touched ID
    /// space, independent of S.
    touched: Vec<u64>,
    /// The accumulating epoch message.
    delta: EpochDelta,
}

/// Number of sessions `i < n` with `i mod shards == shard`.
fn slice_len(n: u64, shard: usize, shards: usize) -> u64 {
    n.saturating_sub(shard as u64).div_ceil(shards as u64)
}

/// The coordinator's view of defense state partitioned across `S` shards,
/// plus the root accumulator the epoch reduction folds into.
///
/// # Example
///
/// ```
/// use sybil_sim::cost::{Cost, Purpose};
/// use sybil_sim::shard_state::ShardedDefenseState;
///
/// let mut state = ShardedDefenseState::new(100, 4);
/// state.record_good_join(7, true, Cost::ONE); // owned by shard 7 mod 4
/// assert!(state.record_good_depart(7));
/// assert!(!state.record_good_depart(8)); // never admitted
/// assert_eq!(state.good_total(), Cost::ONE);
/// ```
#[derive(Clone, Debug)]
pub struct ShardedDefenseState {
    shards: Vec<StateShard>,
    /// Root accumulator: folded epoch messages plus charges with no single
    /// owning shard (initialization, adversary batches, purge and periodic
    /// sweeps, initial-resident departures).
    totals: EpochDelta,
    n_sessions: u64,
    events_since_flush: u32,
    epochs: u64,
}

impl ShardedDefenseState {
    /// Creates state for `n_sessions` arrival sessions partitioned across
    /// `shards` slices.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0.
    pub fn new(n_sessions: u64, shards: usize) -> Self {
        assert!(shards >= 1, "at least one state shard required");
        let segments = (n_sessions as usize).div_ceil(admission::SEGMENT_ENTRIES);
        let words = segments.div_ceil(64);
        ShardedDefenseState {
            shards: (0..shards)
                .map(|s| StateShard {
                    admission: AdmissionMap::new(slice_len(n_sessions, s, shards)),
                    touched: vec![0u64; words],
                    delta: EpochDelta::default(),
                })
                .collect(),
            totals: EpochDelta::default(),
            n_sessions,
            events_since_flush: 0,
            epochs: 0,
        }
    }

    /// The shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Eagerly allocates every admission segment on every shard slice.
    ///
    /// Called by the engine before the event loop when the workload
    /// source opts in (see `WorkloadSource::preallocate_admission`), so
    /// first-touch segment boxes never allocate mid-loop. The canonical
    /// [`admission_bytes`] gauge is a pure function of the *touched*
    /// bitset and does not move.
    ///
    /// [`admission_bytes`]: ShardedDefenseState::admission_bytes
    pub fn preallocate_admission(&mut self) {
        for shard in &mut self.shards {
            shard.admission.preallocate();
        }
    }

    /// Epoch reductions performed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    fn route(&self, index: u64) -> (usize, u64) {
        let shards = self.shards.len() as u64;
        ((index % shards) as usize, index / shards)
    }

    /// Records a good join's outcome and entrance charge on the owning
    /// shard.
    pub fn record_good_join(&mut self, index: u64, admitted: bool, cost: Cost) {
        let (s, local) = self.route(index);
        let shard = &mut self.shards[s];
        shard.delta.ledger.charge_good(Purpose::Entrance, cost);
        // The engine always writes a non-Pending outcome, so every join
        // marks its global segment as touched.
        let segment = (index as usize) / admission::SEGMENT_ENTRIES;
        shard.touched[segment / 64] |= 1 << (segment % 64);
        if admitted {
            shard.admission.set(local, AdmissionState::Admitted);
            shard.delta.good_joins_admitted += 1;
        } else {
            shard.admission.set(local, AdmissionState::Refused);
            shard.delta.good_joins_refused += 1;
        }
    }

    /// Records a session's departure on its owning shard. Returns true —
    /// and counts the departure — only if the session was admitted; the
    /// admission verdict lives in the shard's slice, not on the
    /// coordinator.
    pub fn record_good_depart(&mut self, index: u64) -> bool {
        let (s, local) = self.route(index);
        let shard = &mut self.shards[s];
        if shard.admission.get(local) != AdmissionState::Admitted {
            return false;
        }
        shard.delta.good_departures += 1;
        true
    }

    /// Records a t=0 resident's departure (root-owned: initial residents
    /// are not arrival sessions and have no owning shard).
    pub fn record_initial_depart(&mut self) {
        self.totals.good_departures += 1;
    }

    /// Charges good spending with no single owning shard (initialization).
    pub fn charge_root_good(&mut self, purpose: Purpose, amount: Cost) {
        self.totals.ledger.charge_good(purpose, amount);
    }

    /// Charges adversary spending. The adversary is one principal, not a
    /// workload session, so its money is always root-owned.
    pub fn charge_root_adversary(&mut self, purpose: Purpose, amount: Cost) {
        self.totals.ledger.charge_adversary(purpose, amount);
    }

    /// Applies a purge sweep: the aggregate good-side cost and the
    /// adversary's retention cost are both root-owned (see the module doc).
    pub fn apply_purge(&mut self, report: &PurgeReport) {
        self.totals.ledger.charge_good(Purpose::Purge, report.good_cost);
        self.totals.ledger.charge_adversary(Purpose::Purge, report.adv_cost);
    }

    /// Applies a periodic charge, root-owned like a purge sweep.
    pub fn apply_periodic(&mut self, report: &PeriodicReport, adv_cost: Cost) {
        self.totals.ledger.charge_good(Purpose::Periodic, report.good_cost);
        self.totals.ledger.charge_adversary(Purpose::Periodic, adv_cost);
    }

    /// Notes one processed simulation event; every [`EPOCH_EVENTS`]-th
    /// event triggers an epoch reduction. Event counts are shard-count
    /// invariant, so so is the flush schedule (and — because the deltas
    /// are integers — the totals would be identical under *any* schedule).
    pub fn note_event(&mut self) {
        self.events_since_flush += 1;
        if self.events_since_flush >= EPOCH_EVENTS {
            self.flush_epoch();
        }
    }

    /// Reduces: folds every shard's delta into the root in canonical shard
    /// order `0..S`. Exact, so any flush schedule yields the same totals.
    pub fn flush_epoch(&mut self) {
        self.events_since_flush = 0;
        self.epochs += 1;
        for shard in &mut self.shards {
            // `EpochDelta` is `Copy` and fixed-size: taking it resets the
            // shard's accumulator in place and moves the counters by
            // value, so the epoch reduction is allocation-free by
            // construction — no message buffers exist to pool.
            let delta = std::mem::take(&mut shard.delta);
            self.totals.merge(&delta);
        }
    }

    /// Total good spending right now (root plus unflushed deltas, folded
    /// in canonical order; exact, then converted once).
    pub fn good_total(&self) -> Cost {
        let mut total = self.totals.ledger.good_total();
        for shard in &self.shards {
            total += shard.delta.ledger.good_total();
        }
        total.to_cost()
    }

    /// Total adversary spending right now.
    pub fn adversary_total(&self) -> Cost {
        let mut total = self.totals.ledger.adversary_total();
        for shard in &self.shards {
            total += shard.delta.ledger.adversary_total();
        }
        total.to_cost()
    }

    /// Resident bytes of the admission state, reported as the canonical
    /// shard-count-invariant gauge: the union of touched *global* segments
    /// times the segment payload, plus the global directory. At S = 1 this
    /// equals the monolithic [`AdmissionMap::allocated_bytes`] exactly.
    pub fn admission_bytes(&self) -> usize {
        let words = self.shards[0].touched.len();
        let mut touched = 0usize;
        for w in 0..words {
            let mut union = 0u64;
            for shard in &self.shards {
                union |= shard.touched[w];
            }
            touched += union.count_ones() as usize;
        }
        admission::canonical_bytes(self.n_sessions, touched)
    }

    /// Final reduction: flushes the last partial epoch and seals the state
    /// into the report-facing ledger and counters.
    pub fn finalize(mut self) -> SealedState {
        let admission_bytes = self.admission_bytes();
        self.flush_epoch();
        SealedState {
            ledger: self.totals.ledger.to_ledger(),
            good_joins_admitted: self.totals.good_joins_admitted,
            good_joins_refused: self.totals.good_joins_refused,
            good_departures: self.totals.good_departures,
            admission_bytes,
        }
    }
}

/// The fully reduced state a finished run reports.
#[derive(Clone, Debug)]
pub struct SealedState {
    /// The float ledger the report carries.
    pub ledger: Ledger,
    /// Good joins admitted, over all shards.
    pub good_joins_admitted: u64,
    /// Good joins refused, over all shards.
    pub good_joins_refused: u64,
    /// Departures counted (admitted sessions plus initial residents).
    pub good_departures: u64,
    /// Canonical admission-state memory gauge.
    pub admission_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::FixedCost;

    #[test]
    fn fixed_point_is_exact_on_dyadic_values() {
        for v in [0.0, 1.0, 1.5, 150.0, 0.25, 1e7] {
            assert_eq!(FixedCost::from_cost(Cost(v)).to_cost(), Cost(v));
        }
        let mut sum = FixedCost::ZERO;
        for _ in 0..150 {
            sum += FixedCost::from_cost(Cost::ONE);
        }
        assert_eq!(sum.to_cost(), Cost(150.0));
    }

    #[test]
    fn fixed_ledger_round_trips_through_the_float_ledger() {
        let mut fl = FixedLedger::default();
        fl.charge_good(Purpose::Entrance, Cost(2.0));
        fl.charge_good(Purpose::Purge, Cost(3.0));
        fl.charge_good(Purpose::Periodic, Cost(5.0));
        fl.charge_adversary(Purpose::Entrance, Cost(7.0));
        fl.charge_adversary(Purpose::Purge, Cost(11.0));
        fl.charge_adversary(Purpose::Periodic, Cost(13.0));
        let l = fl.to_ledger();
        assert_eq!(l.good_entrance(), Cost(2.0));
        assert_eq!(l.good_purge(), Cost(3.0));
        assert_eq!(l.good_periodic(), Cost(5.0));
        assert_eq!(l.adversary_entrance(), Cost(7.0));
        assert_eq!(l.adversary_purge(), Cost(11.0));
        assert_eq!(l.adversary_periodic(), Cost(13.0));
        assert_eq!(fl.good_total().to_cost(), Cost(10.0));
        assert_eq!(fl.adversary_total().to_cost(), Cost(31.0));
    }

    /// Replays the same op script at several shard counts with different
    /// flush schedules; every observable must be bit-identical.
    #[test]
    fn totals_are_shard_count_invariant() {
        let n = 40_000u64; // several segments
        let run = |shards: usize, flush_every: usize| {
            let mut st = ShardedDefenseState::new(n, shards);
            st.charge_root_good(Purpose::Entrance, Cost(17.25));
            st.charge_root_adversary(Purpose::Entrance, Cost(3.5));
            for (k, i) in (0..n).step_by(11).enumerate() {
                // A non-dyadic cost exercises the single-rounding path.
                st.record_good_join(i, i % 3 != 0, Cost(1.0 / 3.0));
                if i % 5 == 0 {
                    st.record_good_depart(i);
                }
                if k % flush_every == 0 {
                    st.flush_epoch();
                }
            }
            st.record_initial_depart();
            st.apply_purge(&PurgeReport {
                good_cost: Cost(1234.567),
                adv_cost: Cost(89.01),
                bad_removed: 4,
                skipped: false,
            });
            st.apply_periodic(&PeriodicReport { good_cost: Cost(0.1), bad_dropped: 0 }, Cost(2.5));
            let good = st.good_total();
            let adv = st.adversary_total();
            let sealed = st.finalize();
            (
                good,
                adv,
                sealed.ledger,
                sealed.good_joins_admitted,
                sealed.good_joins_refused,
                sealed.good_departures,
                sealed.admission_bytes,
            )
        };
        let baseline = run(1, 7);
        for (shards, flush_every) in [(1, 3), (2, 7), (3, 2), (5, 13), (7, 1), (32, 5)] {
            assert_eq!(run(shards, flush_every), baseline, "S={shards} flush={flush_every}");
        }
    }

    #[test]
    fn admission_gauge_matches_the_monolithic_map_at_any_shard_count() {
        let n = 3 * admission::SEGMENT_ENTRIES as u64 + 17;
        let mut mono = AdmissionMap::new(n);
        for shards in [1usize, 2, 5, 16] {
            let mut st = ShardedDefenseState::new(n, shards);
            for i in (0..n).step_by(97) {
                st.record_good_join(i, true, Cost::ONE);
                mono.set(i, AdmissionState::Admitted);
            }
            assert_eq!(st.admission_bytes(), mono.allocated_bytes(), "S={shards}");
            mono = AdmissionMap::new(n); // reset for the next shard count
        }
    }

    #[test]
    fn sweep_distribution_preserves_the_total_exactly() {
        for shards in [7, 1] {
            for total in [Cost(777.125), Cost(1234.567)] {
                let mut st = ShardedDefenseState::new(1000, shards);
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
                assert_eq!(st.good_total(), total, "S={shards}");
                assert_eq!(st.finalize().ledger.good_purge(), total, "S={shards}");
            }
        }
    }

    #[test]
    fn departures_only_count_admitted_sessions() {
        let mut st = ShardedDefenseState::new(10, 3);
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

    #[test]
    fn epoch_cadence_flushes_every_epoch_events() {
        let mut st = ShardedDefenseState::new(10, 2);
        for _ in 0..EPOCH_EVENTS {
            st.note_event();
        }
        assert_eq!(st.epochs(), 1);
        for _ in 0..EPOCH_EVENTS - 1 {
            st.note_event();
        }
        assert_eq!(st.epochs(), 1);
        st.note_event();
        assert_eq!(st.epochs(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one state shard")]
    fn zero_shards_rejected() {
        ShardedDefenseState::new(10, 0);
    }
}
