//! The interface every simulated Sybil defense implements.
//!
//! A defense is a state machine fed the same event stream the paper's server
//! observes: join requests, departures, and the passage of time. The engine
//! (not the defense) knows ground truth; good IDs are tracked individually
//! (their sessions come from a churn trace) while Sybil IDs — which are
//! exchangeable, being controlled by a single adversary — are tracked in
//! aggregate batches. Defense *logic* may only depend on quantities the real
//! algorithm could observe: counts of joins/departures, membership size,
//! event times, and (for classifier-gated variants) classifier verdicts.

use crate::cost::Cost;
use crate::time::Time;

/// Outcome of a single (good) join attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Admission {
    /// The joiner solved the entrance challenge and is now a member.
    Admitted {
        /// Hardness of the entrance challenge that was solved.
        cost: Cost,
    },
    /// The joiner paid `cost` but was refused entry (classifier gate).
    Refused {
        /// Resource burned by the refused joiner (zero if refused pre-challenge).
        cost: Cost,
    },
}

impl Admission {
    /// Resource burned in this attempt, regardless of outcome.
    pub fn cost(&self) -> Cost {
        match *self {
            Admission::Admitted { cost } | Admission::Refused { cost } => cost,
        }
    }

    /// True if the attempt resulted in membership.
    pub fn is_admitted(&self) -> bool {
        matches!(self, Admission::Admitted { .. })
    }
}

/// Why a batched Sybil join stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchStop {
    /// The remaining budget cannot afford the next attempt.
    Budget,
    /// The defense's purge condition triggered mid-batch; the engine must
    /// resolve the purge before more joins are accepted.
    PurgeTriggered,
    /// The attempt limit was reached.
    MaxAttempts,
}

/// Outcome of a batched Sybil join attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchAdmission {
    /// Number of Sybil IDs actually admitted to membership.
    pub admitted: u64,
    /// Attempts consumed, including those refused by a classifier gate.
    pub attempts: u64,
    /// Total resource burned by the adversary in this batch.
    pub spent: Cost,
    /// Why the batch ended.
    pub stop: BatchStop,
}

/// Result of executing a purge (paper Figure 4, Step 2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PurgeReport {
    /// Total cost charged to good IDs (each solves a 1-hard challenge).
    pub good_cost: Cost,
    /// Total cost charged to the adversary for retained Sybil IDs.
    pub adv_cost: Cost,
    /// Number of Sybil IDs removed by the purge.
    pub bad_removed: u64,
    /// True if the purge was skipped by a heuristic (Heuristic 3).
    pub skipped: bool,
}

/// Identical purge cycles a defense applied in one call (see
/// [`Defense::repeat_purge_cycles`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PurgeCycles {
    /// How many cycles were applied; at least 1.
    pub cycles: u64,
    /// What is left of the budget after the last cycle: the budget less
    /// each cycle's `batch.spent`, one `f64` subtraction per cycle, as
    /// the engine would have subtracted them. The engine takes it as its
    /// budget.
    pub budget_left: Cost,
    /// What each cycle's batch reported (it stopped on the purge condition).
    pub batch: BatchAdmission,
    /// What each cycle's purge reported (not `skipped`: each one ran).
    pub purge: PurgeReport,
}

/// Result of a periodic charge (SybilControl tests, REMP recurring puzzles).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PeriodicReport {
    /// Total cost charged to good IDs this period.
    pub good_cost: Cost,
    /// Number of Sybil IDs dropped for non-payment.
    pub bad_dropped: u64,
}

/// Events a defense logs for post-run analysis.
///
/// Purges log none: the engine counts them from their [`PurgeReport`]s, and
/// at a high attack rate a record per purge would grow without bound (a
/// CCom cell at `T = 2²⁰` completes a purge every millisecond).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DefenseEvent {
    /// The join-rate estimator produced a new estimate over `[start, end)`.
    EstimateUpdated {
        /// Interval start (previous update time).
        start: Time,
        /// Interval end (this update time).
        end: Time,
        /// The new estimate of the good join rate, in IDs/second.
        estimate: f64,
    },
}

/// A simulated Sybil defense.
///
/// Methods that mutate accounting are paired with their ground-truth tag
/// (`good_*` vs `bad_*`) purely so the engine can route charges to the right
/// side of the ledger. Implementations must not let the tag influence any
/// decision the real algorithm could not make — classifier-gated defenses
/// receive their noisy signal through an internal classifier instead.
pub trait Defense {
    /// Human-readable name used in reports (e.g. `"ERGO"`, `"CCOM"`).
    fn name(&self) -> String;

    /// Initializes membership at time `now` with `n_good` good IDs and
    /// `n_bad` Sybil IDs, all of which solved a 1-hard initialization
    /// challenge. Returns the per-ID initialization cost (typically 1).
    fn init(&mut self, now: Time, n_good: u64, n_bad: u64) -> Cost;

    /// The current entrance-challenge hardness a joiner would be quoted.
    fn quote(&self, now: Time) -> Cost;

    /// A good ID requests to join at `now`.
    fn good_join(&mut self, now: Time) -> Admission;

    /// A good member that joined at `joined_at` departs.
    ///
    /// The join time is how the simulation communicates *which* ID departed
    /// without exposing identities: the algorithms only ever need an ID's
    /// age class (old/new relative to interval starts).
    fn good_depart(&mut self, now: Time, joined_at: Time);

    /// The adversary attempts up to `max_attempts` joins, spending at most
    /// `budget`. The defense admits attempts at the quoted (and possibly
    /// escalating) entrance cost until budget, the attempt limit, or its
    /// purge condition stops the batch.
    fn bad_join_batch(&mut self, now: Time, budget: Cost, max_attempts: u64) -> BatchAdmission;

    /// The adversary voluntarily departs up to `n` of its Sybil IDs
    /// (most recently joined first). Returns how many actually departed.
    fn bad_depart(&mut self, now: Time, n: u64) -> u64;

    /// True if the defense's purge condition currently holds.
    fn purge_due(&self, now: Time) -> bool;

    /// Executes a purge: every good member solves a 1-hard challenge; the
    /// adversary retains `retain_bad` Sybil IDs by paying 1 each. The engine
    /// has already clamped `retain_bad` to the `κ`-fraction cap and to the
    /// Sybil IDs present, but not to the adversary's budget: a strategy may
    /// retain more than it has accrued, and the budget goes negative.
    fn purge(&mut self, now: Time, retain_bad: u64) -> PurgeReport;

    /// Applies, in one call, cycles the engine would otherwise run one at a
    /// time at `now` within an adversary turn: each is
    /// `bad_join_batch(now, b, u64::MAX)` stopping on the purge condition,
    /// then `purge(now, 0)`, which retains nothing and so charges the
    /// adversary nothing. `b` is `budget` for the first cycle, and each
    /// later one's is the one before less `batch.spent`, in `f64` as the
    /// engine subtracts it.
    ///
    /// An implementation applies at most `max_cycles` cycles, only those
    /// whose batch `b` affords in full, and only when it can show each
    /// cycle reports the same [`PurgeCycles::batch`] and
    /// [`PurgeCycles::purge`]; the state it leaves is exactly what the
    /// cycles one at a time leave. It returns `None` when it applies none,
    /// which is the default: the engine then runs every cycle itself.
    fn repeat_purge_cycles(
        &mut self,
        _now: Time,
        _budget: Cost,
        _max_cycles: u64,
    ) -> Option<PurgeCycles> {
        None
    }

    /// The next time periodic work is due, if this defense does any.
    fn next_periodic(&self) -> Option<Time>;

    /// Cost each member must pay at the upcoming periodic charge.
    fn periodic_cost_per_member(&self, now: Time) -> Cost;

    /// Applies the periodic charge: good members pay; `bad_retained` Sybil
    /// IDs pay (adversary-funded) and the rest are dropped for non-payment.
    fn periodic_apply(&mut self, now: Time, bad_retained: u64) -> PeriodicReport;

    /// Current membership size (good + bad).
    fn n_members(&self) -> u64;

    /// Ground-truth count of Sybil members (engine bookkeeping only).
    fn n_bad(&self) -> u64;

    /// Ground-truth count of good members (engine bookkeeping only).
    fn n_good(&self) -> u64 {
        self.n_members() - self.n_bad()
    }

    /// Drains the defense's event log (estimator updates) into `out`,
    /// appending in the order the events occurred. The engine owns one
    /// recycled buffer and passes it here so the steady-state hot path
    /// allocates nothing; implementations append without leaving a copy
    /// behind.
    fn drain_events_into(&mut self, out: &mut Vec<DefenseEvent>);
}

impl Defense for Box<dyn Defense> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn init(&mut self, now: Time, n_good: u64, n_bad: u64) -> Cost {
        (**self).init(now, n_good, n_bad)
    }
    fn quote(&self, now: Time) -> Cost {
        (**self).quote(now)
    }
    fn good_join(&mut self, now: Time) -> Admission {
        (**self).good_join(now)
    }
    fn good_depart(&mut self, now: Time, joined_at: Time) {
        (**self).good_depart(now, joined_at)
    }
    fn bad_join_batch(&mut self, now: Time, budget: Cost, max_attempts: u64) -> BatchAdmission {
        (**self).bad_join_batch(now, budget, max_attempts)
    }
    fn bad_depart(&mut self, now: Time, n: u64) -> u64 {
        (**self).bad_depart(now, n)
    }
    fn purge_due(&self, now: Time) -> bool {
        (**self).purge_due(now)
    }
    fn purge(&mut self, now: Time, retain_bad: u64) -> PurgeReport {
        (**self).purge(now, retain_bad)
    }
    fn repeat_purge_cycles(
        &mut self,
        now: Time,
        budget: Cost,
        max_cycles: u64,
    ) -> Option<PurgeCycles> {
        (**self).repeat_purge_cycles(now, budget, max_cycles)
    }
    fn next_periodic(&self) -> Option<Time> {
        (**self).next_periodic()
    }
    fn periodic_cost_per_member(&self, now: Time) -> Cost {
        (**self).periodic_cost_per_member(now)
    }
    fn periodic_apply(&mut self, now: Time, bad_retained: u64) -> PeriodicReport {
        (**self).periodic_apply(now, bad_retained)
    }
    fn n_members(&self) -> u64 {
        (**self).n_members()
    }
    fn n_bad(&self) -> u64 {
        (**self).n_bad()
    }
    fn drain_events_into(&mut self, out: &mut Vec<DefenseEvent>) {
        (**self).drain_events_into(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_accessors() {
        let a = Admission::Admitted { cost: Cost(3.0) };
        let r = Admission::Refused { cost: Cost(1.0) };
        assert!(a.is_admitted());
        assert!(!r.is_admitted());
        assert_eq!(a.cost(), Cost(3.0));
        assert_eq!(r.cost(), Cost(1.0));
    }
}
