//! Minimal defense implementations for engine tests and examples.

use crate::cost::Cost;
use crate::defense::{
    Admission, BatchAdmission, BatchStop, Defense, DefenseEvent, PeriodicReport, PurgeReport,
};
use crate::time::Time;

/// A trivial defense: unit entrance cost, no purges, no periodic work.
///
/// Useful as an engine smoke-test fixture and as the "no defense beyond an
/// entry fee" baseline in examples. Every join costs exactly 1; members stay
/// until they depart.
#[derive(Clone, Debug, Default)]
pub struct UnitCostDefense {
    n_good: u64,
    n_bad: u64,
}

impl UnitCostDefense {
    /// Creates an empty instance.
    pub fn new() -> Self {
        UnitCostDefense::default()
    }
}

impl Defense for UnitCostDefense {
    fn name(&self) -> String {
        "unit-cost".into()
    }

    fn init(&mut self, _now: Time, n_good: u64, n_bad: u64) -> Cost {
        self.n_good = n_good;
        self.n_bad = n_bad;
        Cost::ONE
    }

    fn quote(&self, _now: Time) -> Cost {
        Cost::ONE
    }

    fn good_join(&mut self, _now: Time) -> Admission {
        self.n_good += 1;
        Admission::Admitted { cost: Cost::ONE }
    }

    fn good_depart(&mut self, _now: Time, _joined_at: Time) {
        self.n_good = self.n_good.saturating_sub(1);
    }

    fn bad_join_batch(&mut self, _now: Time, budget: Cost, max_attempts: u64) -> BatchAdmission {
        let affordable = budget.value() as u64;
        let n = affordable.min(max_attempts);
        self.n_bad += n;
        BatchAdmission {
            admitted: n,
            attempts: n,
            spent: Cost(n as f64),
            stop: if n == max_attempts { BatchStop::MaxAttempts } else { BatchStop::Budget },
        }
    }

    fn bad_depart(&mut self, _now: Time, n: u64) -> u64 {
        let d = n.min(self.n_bad);
        self.n_bad -= d;
        d
    }

    fn purge_due(&self, _now: Time) -> bool {
        false
    }

    fn purge(&mut self, _now: Time, retain_bad: u64) -> PurgeReport {
        let removed = self.n_bad - retain_bad.min(self.n_bad);
        self.n_bad = retain_bad.min(self.n_bad);
        PurgeReport {
            good_cost: Cost(self.n_good as f64),
            adv_cost: Cost(self.n_bad as f64),
            bad_removed: removed,
            skipped: false,
        }
    }

    fn next_periodic(&self) -> Option<Time> {
        None
    }

    fn periodic_cost_per_member(&self, _now: Time) -> Cost {
        Cost::ZERO
    }

    fn periodic_apply(&mut self, _now: Time, _bad_retained: u64) -> PeriodicReport {
        PeriodicReport { good_cost: Cost::ZERO, bad_dropped: 0 }
    }

    fn n_members(&self) -> u64 {
        self.n_good + self.n_bad
    }

    fn n_bad(&self) -> u64 {
        self.n_bad
    }

    fn drain_events_into(&mut self, _out: &mut Vec<DefenseEvent>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_cost_defense_counts() {
        let mut d = UnitCostDefense::new();
        assert_eq!(d.init(Time::ZERO, 10, 2), Cost::ONE);
        assert_eq!(d.n_members(), 12);
        assert_eq!(d.n_good(), 10);
        let a = d.good_join(Time(1.0));
        assert!(a.is_admitted());
        d.good_depart(Time(2.0), Time(1.0));
        assert_eq!(d.n_good(), 10);
        let b = d.bad_join_batch(Time(3.0), Cost(5.5), 100);
        assert_eq!(b.admitted, 5);
        assert_eq!(b.spent, Cost(5.0));
        assert_eq!(d.bad_depart(Time(4.0), 100), 7);
        assert_eq!(d.n_bad(), 0);
    }
}
