//! Integration tests for the paper's epoch/interval/iteration translation
//! lemmas (Figure 7): Lemma 1 — a GoodJEst interval intersects at most two
//! epochs; Lemma 11 — an Ergo iteration intersects at most two intervals.
//!
//! These hold when the bad fraction stays below 1/6, which a no-adversary
//! replay satisfies trivially and an attacked replay satisfies by Lemma 9.

use bankrupting_sybil::prelude::*;
use sybil_churn::detect_epochs;
use sybil_sim::defense::{Admission, BatchAdmission, DefenseEvent, PeriodicReport, PurgeReport};
use sybil_sim::Time as T;

/// Ergo, recording the instant of every purge it completes (iteration
/// boundaries; the report only counts them).
struct PurgeClock {
    inner: Ergo,
    purges: Vec<f64>,
}

impl Defense for PurgeClock {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn init(&mut self, now: T, n_good: u64, n_bad: u64) -> Cost {
        self.inner.init(now, n_good, n_bad)
    }
    fn quote(&self, now: T) -> Cost {
        self.inner.quote(now)
    }
    fn good_join(&mut self, now: T) -> Admission {
        self.inner.good_join(now)
    }
    fn good_depart(&mut self, now: T, joined_at: T) {
        self.inner.good_depart(now, joined_at)
    }
    fn bad_join_batch(&mut self, now: T, budget: Cost, max_attempts: u64) -> BatchAdmission {
        self.inner.bad_join_batch(now, budget, max_attempts)
    }
    fn bad_depart(&mut self, now: T, n: u64) -> u64 {
        self.inner.bad_depart(now, n)
    }
    fn purge_due(&self, now: T) -> bool {
        self.inner.purge_due(now)
    }
    fn purge(&mut self, now: T, retain_bad: u64) -> PurgeReport {
        let report = self.inner.purge(now, retain_bad);
        if !report.skipped {
            self.purges.push(now.as_secs());
        }
        report
    }
    fn next_periodic(&self) -> Option<T> {
        self.inner.next_periodic()
    }
    fn periodic_cost_per_member(&self, now: T) -> Cost {
        self.inner.periodic_cost_per_member(now)
    }
    fn periodic_apply(&mut self, now: T, bad_retained: u64) -> PeriodicReport {
        self.inner.periodic_apply(now, bad_retained)
    }
    fn n_members(&self) -> u64 {
        self.inner.n_members()
    }
    fn n_bad(&self) -> u64 {
        self.inner.n_bad()
    }
    fn drain_events_into(&mut self, out: &mut Vec<DefenseEvent>) {
        self.inner.drain_events_into(out)
    }
}

/// Runs Ergo over a workload and returns (interval spans, purge times).
fn replay(workload: Workload, horizon: T, t: f64) -> (Vec<(f64, f64)>, Vec<f64>) {
    let cfg = SimConfig { horizon, adv_rate: t, ..SimConfig::default() };
    let clock = PurgeClock { inner: Ergo::new(ErgoConfig::default()), purges: Vec::new() };
    let (report, clock) =
        Simulation::new(cfg, clock, BudgetJoiner::new(t), workload).run_with_defense();
    assert!(report.max_bad_fraction < 1.0 / 6.0, "invariant precondition violated");
    assert_eq!(clock.purges.len() as u64, report.purges);
    let intervals: Vec<(f64, f64)> =
        report.estimates.iter().map(|e| (e.start.as_secs(), e.end.as_secs())).collect();
    (intervals, clock.purges)
}

/// Counts spans from `spans` that strictly overlap `(lo, hi)`.
fn overlapping(spans: &[(f64, f64)], lo: f64, hi: f64) -> usize {
    spans.iter().filter(|&&(s, e)| s < hi && e > lo).count()
}

/// Closes the open tail of a span list at `horizon` (the in-progress
/// epoch/interval also counts toward the lemmas).
fn with_tail(mut spans: Vec<(f64, f64)>, horizon: f64) -> Vec<(f64, f64)> {
    let last_end = spans.last().map_or(0.0, |&(_, e)| e);
    if last_end < horizon {
        spans.push((last_end, horizon));
    }
    spans
}

#[test]
fn lemma1_interval_intersects_at_most_two_epochs() {
    for seed in [1u64, 2, 3] {
        for (alpha, beta) in [(1.0, 1.0), (2.0, 1.0), (2.0, 3.0)] {
            let gen = AbcTraceGenerator { n0: 800, rho0: 4.0, alpha, beta, epochs: 10 };
            let workload = gen.generate(seed);
            let horizon = workload.sessions.last().map_or(T(100.0), |s| s.join + 1.0);
            let epochs: Vec<(f64, f64)> = detect_epochs(&workload, horizon, (1, 2))
                .iter()
                .map(|e| (e.start.as_secs(), e.end.as_secs()))
                .collect();
            let epochs = with_tail(epochs, horizon.as_secs());
            let (intervals, _) = replay(workload, horizon, 0.0);
            assert!(!intervals.is_empty(), "no intervals completed (seed {seed})");
            for &(lo, hi) in &intervals {
                let n = overlapping(&epochs, lo, hi);
                assert!(
                    n <= 2,
                    "interval ({lo:.1}, {hi:.1}) intersects {n} epochs \
                     (alpha={alpha}, beta={beta}, seed={seed})"
                );
            }
        }
    }
}

#[test]
fn lemma11_iteration_intersects_at_most_two_intervals() {
    // Under attack, purges delimit iterations frequently; intervals are the
    // estimator's. Gnutella churn with a moderate adversary.
    let horizon = T(3_000.0);
    for seed in [5u64, 6] {
        let workload = networks::gnutella().generate(horizon, seed);
        let (intervals, purges) = replay(workload, horizon, 5_000.0);
        assert!(purges.len() > 5, "too few iterations to test (seed {seed})");
        let intervals = with_tail(intervals, horizon.as_secs());
        let mut prev = 0.0;
        for &p in &purges {
            let n = overlapping(&intervals, prev, p);
            assert!(n <= 2, "iteration ({prev:.1}, {p:.1}) intersects {n} intervals (seed {seed})");
            prev = p;
        }
    }
}

#[test]
fn section13_3_alternative_constants_preserve_lemma1() {
    // Section 13.3: with the interval threshold raised to 1/2, epochs must
    // be redefined at 3/5 for Lemma 1's proof to carry ("|S(t2)△S(t0)| ≥
    // (3/5)(5/6) = 1/2 ends an epoch under this new definition").
    use ergo_core::params::Ratio;
    for seed in [11u64, 12] {
        let gen = AbcTraceGenerator { n0: 800, rho0: 4.0, alpha: 1.5, beta: 1.0, epochs: 10 };
        let workload = gen.generate(seed);
        let horizon = workload.sessions.last().map_or(T(100.0), |s| s.join + 1.0);
        // Epochs at the 3/5 threshold.
        let epochs: Vec<(f64, f64)> = detect_epochs(&workload, horizon, (3, 5))
            .iter()
            .map(|e| (e.start.as_secs(), e.end.as_secs()))
            .collect();
        let epochs = with_tail(epochs, horizon.as_secs());
        // Ergo with the 1/2 interval threshold.
        let mut cfg = ErgoConfig::default();
        cfg.estimator.interval_threshold = Ratio::new(1, 2);
        let sim_cfg = SimConfig { horizon, ..SimConfig::default() };
        let report = Simulation::new(sim_cfg, Ergo::new(cfg), NullAdversary, workload).run();
        let intervals: Vec<(f64, f64)> =
            report.estimates.iter().map(|e| (e.start.as_secs(), e.end.as_secs())).collect();
        assert!(!intervals.is_empty(), "no intervals at the 1/2 threshold (seed {seed})");
        for &(lo, hi) in &intervals {
            let n = overlapping(&epochs, lo, hi);
            assert!(n <= 2, "interval ({lo:.1}, {hi:.1}) intersects {n} 3/5-epochs (seed {seed})");
        }
    }
}

#[test]
fn lemma2_interval_size_cannot_collapse() {
    // Lemma 2: |S(t')| ≥ 7/10 |S(t)| at interval ends — membership cannot
    // shrink by more than ~30% within one estimator interval. We check the
    // looser engine-observable consequence: successive interval estimates
    // stay within bounded ratios on a stationary workload.
    let horizon = T(20_000.0);
    let workload = networks::ethereum().generate(horizon, 9);
    let cfg = SimConfig { horizon, ..SimConfig::default() };
    let report =
        Simulation::new(cfg, Ergo::new(ErgoConfig::default()), NullAdversary, workload).run();
    let estimates: Vec<f64> = report.estimates.iter().map(|e| e.estimate).collect();
    assert!(estimates.len() >= 3);
    for w in estimates.windows(2) {
        let ratio = w[1] / w[0];
        assert!(
            (0.05..20.0).contains(&ratio),
            "estimate jumped by {ratio} between consecutive intervals"
        );
    }
}
