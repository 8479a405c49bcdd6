//! The SybilControl baseline (Li, Mittal, Caesar, Borisov — paper reference 67).
//!
//! Each ID solves a challenge to join, and every 0.5 seconds each ID tests
//! its neighbors with resource-burning challenges, dropping non-responders.
//! The tests are uncoordinated, so every live ID continuously burns
//! resources regardless of whether the system is under attack — the
//! always-on cost the paper contrasts Ergo against.
//!
//! The adversary keeps a Sybil ID alive by paying its test cost each period,
//! so the sustainable Sybil population scales linearly with `T`: the defense
//! cannot bound the bad fraction once
//! `T ≥ (test cost rate) × (good population) / 5` (bad/(bad+good) ≥ 1/6).
//! Figure 8 cuts the SybilControl curve at exactly that point.

use sybil_sim::cost::Cost;
use sybil_sim::defense::{
    Admission, BatchAdmission, BatchStop, Defense, DefenseEvent, PeriodicReport, PurgeReport,
};
use sybil_sim::time::Time;

/// Configuration for [`SybilControl`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SybilControlConfig {
    /// Seconds between test rounds (paper: 0.5 s).
    pub test_period: f64,
    /// Challenges each ID solves per test round (its own liveness proofs
    /// toward its neighbors; 1 with aggregated per-neighbor proofs).
    pub tests_per_round: f64,
    /// Entrance-challenge hardness.
    pub join_cost: f64,
}

impl Default for SybilControlConfig {
    fn default() -> Self {
        SybilControlConfig { test_period: 0.5, tests_per_round: 1.0, join_cost: 1.0 }
    }
}

/// The SybilControl defense.
#[derive(Clone, Debug)]
pub struct SybilControl {
    cfg: SybilControlConfig,
    n_good: u64,
    n_bad: u64,
    next_test: Time,
}

impl SybilControl {
    /// Creates an instance with the given configuration.
    pub fn new(cfg: SybilControlConfig) -> Self {
        assert!(cfg.test_period > 0.0 && cfg.tests_per_round >= 0.0 && cfg.join_cost >= 0.0);
        SybilControl { cfg, n_good: 0, n_bad: 0, next_test: Time::ZERO }
    }

    /// The spend rate (per second) this defense imposes on each live ID.
    pub fn per_id_rate(&self) -> f64 {
        self.cfg.tests_per_round / self.cfg.test_period
    }

    /// The adversary spend rate above which a `bound` bad fraction cannot be
    /// enforced (e.g. `1/6`), for a good population `n_good`.
    pub fn breakdown_rate(&self, n_good: u64, bound: f64) -> f64 {
        // Sustainable bad population b satisfies b·rate = T; fraction bound:
        // b/(b+g) < bound ⟺ b < g·bound/(1−bound).
        self.per_id_rate() * n_good as f64 * bound / (1.0 - bound)
    }
}

impl Default for SybilControl {
    fn default() -> Self {
        Self::new(SybilControlConfig::default())
    }
}

impl Defense for SybilControl {
    fn name(&self) -> String {
        "SybilControl".into()
    }

    fn init(&mut self, now: Time, n_good: u64, n_bad: u64) -> Cost {
        self.n_good = n_good;
        self.n_bad = n_bad;
        self.next_test = now + self.cfg.test_period;
        Cost(self.cfg.join_cost)
    }

    fn quote(&self, _now: Time) -> Cost {
        Cost(self.cfg.join_cost)
    }

    fn good_join(&mut self, _now: Time) -> Admission {
        self.n_good += 1;
        Admission::Admitted { cost: Cost(self.cfg.join_cost) }
    }

    fn good_depart(&mut self, _now: Time, _joined_at: Time) {
        self.n_good = self.n_good.saturating_sub(1);
    }

    fn bad_join_batch(&mut self, _now: Time, budget: Cost, max_attempts: u64) -> BatchAdmission {
        let affordable = if self.cfg.join_cost > 0.0 {
            (budget.value() / self.cfg.join_cost) as u64
        } else {
            max_attempts
        };
        let n = affordable.min(max_attempts);
        // Checked, so that release builds stop where debug builds do.
        self.n_bad = self.n_bad.checked_add(n).expect("membership counter overflow");
        BatchAdmission {
            admitted: n,
            attempts: n,
            spent: Cost(n as f64 * self.cfg.join_cost),
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
        // SybilControl has no global purge; nothing happens.
        let retain = retain_bad.min(self.n_bad);
        PurgeReport {
            good_cost: Cost::ZERO,
            adv_cost: Cost(retain as f64) * 0.0,
            bad_removed: 0,
            skipped: true,
        }
    }

    fn next_periodic(&self) -> Option<Time> {
        Some(self.next_test)
    }

    fn periodic_cost_per_member(&self, _now: Time) -> Cost {
        Cost(self.cfg.tests_per_round)
    }

    fn periodic_apply(&mut self, now: Time, bad_retained: u64) -> PeriodicReport {
        let dropped = self.n_bad - bad_retained.min(self.n_bad);
        self.n_bad = bad_retained.min(self.n_bad);
        self.next_test = now + self.cfg.test_period;
        PeriodicReport {
            good_cost: Cost(self.n_good as f64 * self.cfg.tests_per_round),
            bad_dropped: dropped,
        }
    }

    fn n_members(&self) -> u64 {
        self.n_good + self.n_bad
    }

    fn n_bad(&self) -> u64 {
        self.n_bad
    }

    fn drain_events_into(&mut self, _out: &mut Vec<DefenseEvent>) {
        // SybilControl logs no events; nothing to drain, nothing to allocate.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sybil_sim::adversary::{BudgetJoiner, FractionKeeper, NullAdversary};
    use sybil_sim::engine::{SimConfig, Simulation};
    use sybil_sim::workload::Workload;

    #[test]
    #[should_panic(expected = "membership counter overflow")]
    fn membership_counter_overflow_panics() {
        let mut sc = SybilControl::default();
        sc.init(Time::ZERO, 0, u64::MAX - 1);
        sc.bad_join_batch(Time(1.0), Cost(2.0 * sc.cfg.join_cost), 2);
    }

    #[test]
    fn periodic_cost_is_always_on() {
        // 100 good IDs, no attack, 100 s: 2 tests/s each → ~20 000 periodic.
        let w = Workload::new(vec![Time(1e9); 100], vec![]);
        let cfg = SimConfig { horizon: Time(100.0), ..SimConfig::default() };
        let r = Simulation::new(cfg, SybilControl::default(), NullAdversary, w).run();
        let periodic = r.ledger.good_periodic().value();
        assert!((periodic - 20_000.0).abs() < 300.0, "periodic {periodic}");
    }

    #[test]
    fn adversary_can_sustain_bad_ids_by_paying_tests() {
        // A maintaining adversary holds a 2% Sybil fraction by funding their
        // recurring tests; SybilControl never removes paying members.
        let w = Workload::new(vec![Time(1e9); 1000], vec![]);
        let cfg = SimConfig { horizon: Time(50.0), adv_rate: 100.0, ..SimConfig::default() };
        let r =
            Simulation::new(cfg, SybilControl::default(), FractionKeeper::new(0.02, 0.0), w).run();
        assert!(r.final_bad >= 15 && r.final_bad <= 25, "sustained {} Sybil IDs", r.final_bad);
        // Upkeep was charged to the adversary, not the good IDs.
        assert!(r.ledger.adversary_periodic().value() > 0.0);
    }

    #[test]
    fn join_only_adversary_cannot_hold_membership() {
        // The Figure-8 adversary spends only on entrance challenges; under
        // SybilControl its IDs die within one 0.5 s test round.
        let w = Workload::new(vec![Time(1e9); 1000], vec![]);
        let cfg = SimConfig { horizon: Time(100.0), adv_rate: 50.0, ..SimConfig::default() };
        let r = Simulation::new(cfg, SybilControl::default(), BudgetJoiner::new(50.0), w).run();
        assert!(r.bad_joins_admitted > 1000, "joined {}", r.bad_joins_admitted);
        assert!(r.final_bad < 60, "held {}", r.final_bad);
    }

    #[test]
    fn breakdown_rate_formula() {
        let sc = SybilControl::default();
        // 2 RB/s per ID, 10 000 good, bound 1/6: T* = 2·10⁴/5 = 4000.
        let t_star = sc.breakdown_rate(10_000, 1.0 / 6.0);
        assert!((t_star - 4000.0).abs() < 1e-9, "{t_star}");
        assert_eq!(sc.per_id_rate(), 2.0);
    }

    #[test]
    fn join_and_depart_bookkeeping() {
        let mut sc = SybilControl::default();
        sc.init(Time::ZERO, 10, 0);
        assert!(sc.good_join(Time(1.0)).is_admitted());
        assert_eq!(sc.n_members(), 11);
        sc.good_depart(Time(2.0), Time(1.0));
        assert_eq!(sc.n_good(), 10);
        let b = sc.bad_join_batch(Time(3.0), Cost(7.9), u64::MAX);
        assert_eq!(b.admitted, 7);
        assert_eq!(sc.bad_depart(Time(4.0), 3), 3);
        assert_eq!(sc.n_bad(), 4);
    }
}
