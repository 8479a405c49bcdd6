//! The REMP baseline (Rowaihy, Enck, McDaniel, La Porta — paper reference 99).
//!
//! Each ID solves a challenge to join and then recurring challenges every
//! `W` seconds, sized so that an adversary with maximum spend rate `Tmax`
//! cannot hold a Sybil majority: per Equation (4) of that paper (Equation 13 in
//! the paper), `L/W = Tmax/(κ·N)`, making the total good spend rate
//!
//! ```text
//! A_REMP = (1−κ)·N·L/W = (1−κ)·Tmax/κ
//! ```
//!
//! — a *constant*, paid whether or not an attack is underway, and valid only
//! for `T ≤ Tmax`. The paper runs REMP with `Tmax = 10⁷`.

use sybil_sim::cost::Cost;
use sybil_sim::defense::{
    Admission, BatchAdmission, BatchStop, Defense, DefenseEvent, PeriodicReport, PurgeReport,
};
use sybil_sim::time::Time;

/// Configuration for [`Remp`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RempConfig {
    /// The maximum adversary spend rate the deployment provisions against
    /// (paper: 10⁷).
    pub t_max: f64,
    /// Adversary power fraction κ (paper: 1/18).
    pub kappa: f64,
    /// Seconds between recurring challenges.
    pub period: f64,
}

impl Default for RempConfig {
    fn default() -> Self {
        RempConfig { t_max: 1e7, kappa: 1.0 / 18.0, period: 1.0 }
    }
}

/// The REMP defense.
#[derive(Clone, Debug)]
pub struct Remp {
    cfg: RempConfig,
    n_good: u64,
    n_bad: u64,
    next_charge: Time,
}

impl Remp {
    /// Creates an instance.
    ///
    /// # Panics
    ///
    /// Panics on non-positive `t_max`/`period` or `kappa` outside `(0, 1)`.
    pub fn new(cfg: RempConfig) -> Self {
        assert!(cfg.t_max > 0.0 && cfg.period > 0.0);
        assert!(cfg.kappa > 0.0 && cfg.kappa < 1.0);
        Remp { cfg, n_good: 0, n_bad: 0, next_charge: Time::ZERO }
    }

    /// The analytic good spend rate `(1−κ)·Tmax/κ` (Equation 13).
    pub fn analytic_good_rate(&self) -> f64 {
        (1.0 - self.cfg.kappa) * self.cfg.t_max / self.cfg.kappa
    }

    /// True if REMP's minority guarantee covers adversary spend rate `t`.
    pub fn guarantee_covers(&self, t: f64) -> bool {
        t <= self.cfg.t_max
    }
}

impl Default for Remp {
    fn default() -> Self {
        Self::new(RempConfig::default())
    }
}

impl Defense for Remp {
    fn name(&self) -> String {
        format!("REMP-{:.0e}", self.cfg.t_max)
    }

    fn init(&mut self, now: Time, n_good: u64, n_bad: u64) -> Cost {
        self.n_good = n_good;
        self.n_bad = n_bad;
        self.next_charge = now + self.cfg.period;
        Cost::ONE
    }

    /// Joining costs the same `L` as one recurring-challenge period: in
    /// Rowaihy et al.'s scheme newcomers prove the same work admission
    /// control demands of members. This is what keeps `N` stable and the
    /// cost line flat under Sybil floods.
    fn quote(&self, now: Time) -> Cost {
        self.periodic_cost_per_member(now)
    }

    fn good_join(&mut self, now: Time) -> Admission {
        let cost = self.quote(now);
        self.n_good += 1;
        Admission::Admitted { cost }
    }

    fn good_depart(&mut self, _now: Time, _joined_at: Time) {
        self.n_good = self.n_good.saturating_sub(1);
    }

    fn bad_join_batch(&mut self, now: Time, budget: Cost, max_attempts: u64) -> BatchAdmission {
        let join_cost = self.quote(now).value().max(f64::MIN_POSITIVE);
        let affordable = (budget.value() / join_cost) as u64;
        let n = affordable.min(max_attempts);
        // Checked, so that release builds stop where debug builds do.
        self.n_bad = self.n_bad.checked_add(n).expect("membership counter overflow");
        BatchAdmission {
            admitted: n,
            attempts: n,
            spent: Cost(n as f64 * join_cost),
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

    fn purge(&mut self, _now: Time, _retain_bad: u64) -> PurgeReport {
        PurgeReport { good_cost: Cost::ZERO, adv_cost: Cost::ZERO, bad_removed: 0, skipped: true }
    }

    fn next_periodic(&self) -> Option<Time> {
        Some(self.next_charge)
    }

    fn periodic_cost_per_member(&self, _now: Time) -> Cost {
        // L = Tmax·W/(κ·N): sized so holding κN Sybil IDs costs Tmax.
        let n = self.n_members().max(1) as f64;
        Cost(self.cfg.t_max * self.cfg.period / (self.cfg.kappa * n))
    }

    fn periodic_apply(&mut self, now: Time, bad_retained: u64) -> PeriodicReport {
        let per_id = self.periodic_cost_per_member(now).value();
        let dropped = self.n_bad - bad_retained.min(self.n_bad);
        self.n_bad = bad_retained.min(self.n_bad);
        self.next_charge = now + self.cfg.period;
        PeriodicReport { good_cost: Cost(self.n_good as f64 * per_id), bad_dropped: dropped }
    }

    fn n_members(&self) -> u64 {
        self.n_good + self.n_bad
    }

    fn n_bad(&self) -> u64 {
        self.n_bad
    }

    fn drain_events_into(&mut self, _out: &mut Vec<DefenseEvent>) {
        // REMP logs no events; nothing to drain, nothing to allocate.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sybil_sim::adversary::NullAdversary;
    use sybil_sim::engine::{SimConfig, Simulation};
    use sybil_sim::workload::Workload;

    #[test]
    #[should_panic(expected = "membership counter overflow")]
    fn membership_counter_overflow_panics() {
        let mut remp = Remp::default();
        remp.init(Time::ZERO, 0, u64::MAX - 1);
        remp.bad_join_batch(Time(1.0), Cost(2.0), 2);
    }

    #[test]
    fn analytic_rate_matches_equation_13() {
        let r = Remp::default();
        // (1 − 1/18)·18·10⁷ = 17·10⁷.
        assert!((r.analytic_good_rate() - 17.0e7).abs() < 1.0);
    }

    #[test]
    fn simulated_rate_matches_analytic_constant() {
        // Small Tmax so the numbers stay readable: Tmax = 1000, κ = 1/18.
        // With no Sybil members every member is good, so the measured rate
        // is Tmax/κ; under attack a κ-fraction of that capacity is Sybil-
        // funded, recovering the paper's (1−κ)·Tmax/κ. Either way it is a
        // constant independent of T.
        let cfg = RempConfig { t_max: 1000.0, ..RempConfig::default() };
        let remp = Remp::new(cfg);
        let analytic_no_attack = cfg.t_max / cfg.kappa;
        let w = Workload::new(vec![Time(1e9); 500], vec![]);
        let sim_cfg = SimConfig { horizon: Time(100.0), ..SimConfig::default() };
        let rep = Simulation::new(sim_cfg, remp, NullAdversary, w).run();
        let measured = rep.ledger.good_periodic().value() / 100.0;
        assert!(
            (measured - analytic_no_attack).abs() / analytic_no_attack < 0.05,
            "measured {measured} vs analytic {analytic_no_attack}"
        );
    }

    #[test]
    fn guarantee_cutoff() {
        let r = Remp::default();
        assert!(r.guarantee_covers(1e7));
        assert!(!r.guarantee_covers(1.1e7));
    }

    #[test]
    fn cost_independent_of_population() {
        // The constant A = (1−κ)Tmax/κ must not depend on N: doubling the
        // population halves the per-ID charge.
        let mut r = Remp::new(RempConfig { t_max: 900.0, ..RempConfig::default() });
        r.init(Time::ZERO, 100, 0);
        let c100 = r.periodic_cost_per_member(Time(1.0)).value();
        for _ in 0..100 {
            r.good_join(Time(1.0));
        }
        let c200 = r.periodic_cost_per_member(Time(1.0)).value();
        assert!((c100 / c200 - 2.0).abs() < 1e-9, "{c100} vs {c200}");
    }
}
