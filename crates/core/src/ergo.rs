//! The Ergo Sybil defense (paper Figure 4, Sections 7 and 9.2).
//!
//! Ergo executes over *iterations*:
//!
//! 1. **Entrance costs** — each joining ID solves a challenge of hardness
//!    `1 +` (number of IDs that joined in the last `1/J̃` seconds of the
//!    current iteration), where `J̃` is GoodJEst's estimate of the good join
//!    rate. Under attack this escalates arithmetically, so an adversary
//!    injecting `x` IDs per window pays `Θ(x²)` while each good joiner pays
//!    `O(x)` — the asymmetry behind Theorem 1's `O(√(TJ) + J)` bound.
//! 2. **Purges** — when the number of joins plus departures in the iteration
//!    exceeds `|S(τ)|/11`, every ID must re-solve a 1-hard challenge within
//!    one round. The adversary can keep at most a `κ`-fraction alive, which
//!    (Lemma 9) pins the bad fraction below `3κ ≤ 1/6` at all times.
//!
//! The same type implements the paper's baselines and heuristic variants via
//! [`ErgoConfig`]: CCom (constant entrance cost), ERGO-CH1/CH2 (Heuristics
//! 1–3), and ERGO-SF (classifier-gated joins, Heuristic 4).
//!
//! This struct implements [`sybil_sim::Defense`], so it plugs directly into
//! the simulation engine. Sybil joins are processed in batches with
//! closed-form arithmetic-series costs (see [`crate::window`]), keeping
//! simulations O(events) even at adversary spend rates of `2²⁰`/s.

use crate::gate::ClassifierGate;
use crate::goodjest::GoodJEst;
use crate::params::{EntrancePolicy, ErgoConfig};
use crate::symdiff::SymdiffTracker;
use crate::window::{batch_cost, max_affordable, JoinWindow};
use std::collections::VecDeque;
use sybil_sim::cost::Cost;
use sybil_sim::defense::{
    Admission, BatchAdmission, BatchStop, Defense, DefenseEvent, PeriodicReport, PurgeReport,
};
use sybil_sim::time::Time;

/// A (time, sequence) stamp totally ordering join events, including several
/// at the same instant (batched Sybil joins and inline purges can share a
/// timestamp).
type Stamp = (Time, u64);

/// A run of Sybil IDs that joined together.
#[derive(Clone, Copy, Debug)]
struct BadRun {
    stamp: Stamp,
    n: u64,
}

/// The Ergo defense state machine.
///
/// # Example
///
/// ```
/// use ergo_core::ergo::Ergo;
/// use ergo_core::params::ErgoConfig;
/// use sybil_sim::defense::Defense;
/// use sybil_sim::time::Time;
/// use sybil_sim::cost::Cost;
///
/// let mut ergo = Ergo::new(ErgoConfig::default());
/// ergo.init(Time::ZERO, 1000, 0);
/// // With no recent joins the entrance quote is the minimum, 1.
/// assert_eq!(ergo.quote(Time(1.0)), Cost(1.0));
/// ```
#[derive(Clone, Debug)]
pub struct Ergo {
    cfg: ErgoConfig,
    gate: Option<ClassifierGate>,
    est: GoodJEst,
    window: JoinWindow,
    // Membership (ground truth split is engine bookkeeping only; all
    // algorithm decisions below use aggregate counts and event streams).
    n_good: u64,
    n_bad: u64,
    bad_runs: VecDeque<BadRun>,
    // Monotone per-event sequence for same-instant ordering.
    seq: u64,
    // Estimator interval-start stamp (for classifying Sybil departures).
    est_start: Stamp,
    // Iteration state.
    iter_start: Time,
    iter_start_stamp: Stamp,
    iter_start_size: u64,
    /// Cached `⌊iter_start_size · num/den⌋` (see `recompute_admission_cap`).
    iter_admission_cap: u64,
    iter_events: u64,
    iter_joins: u64,
    iter_tracker: SymdiffTracker,
    iter_start_estimate: f64,
    events: Vec<DefenseEvent>,
    name_override: Option<String>,
}

impl Ergo {
    /// Creates an Ergo instance; call [`Defense::init`] before use.
    pub fn new(cfg: ErgoConfig) -> Self {
        Ergo {
            cfg,
            gate: None,
            est: GoodJEst::new(cfg.estimator, Time::ZERO, 0),
            window: JoinWindow::new(),
            n_good: 0,
            n_bad: 0,
            bad_runs: VecDeque::new(),
            seq: 0,
            est_start: (Time::ZERO, 0),
            iter_start: Time::ZERO,
            iter_start_stamp: (Time::ZERO, 0),
            iter_start_size: 0,
            iter_admission_cap: 0,
            iter_events: 0,
            iter_joins: 0,
            iter_tracker: SymdiffTracker::new(),
            iter_start_estimate: 0.0,
            events: Vec::new(),
            name_override: None,
        }
    }

    /// Attaches a classifier gate (Heuristic 4 / ERGO-SF).
    pub fn with_gate(mut self, gate: ClassifierGate) -> Self {
        self.gate = Some(gate);
        self
    }

    /// Overrides the reported name (e.g. `"ERGO-CH1"`).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name_override = Some(name.into());
        self
    }

    /// The estimator's current good-join-rate estimate `J̃`.
    pub fn estimate(&self) -> f64 {
        self.est.estimate()
    }

    /// Read access to the estimator (tests and analysis).
    pub fn estimator(&self) -> &GoodJEst {
        &self.est
    }

    /// Joins + departures observed in the current iteration.
    pub fn iteration_events(&self) -> u64 {
        self.iter_events
    }

    /// Start time of the current iteration (`τ` in Figure 4).
    pub fn iteration_start(&self) -> Time {
        self.iter_start
    }

    fn next_stamp(&mut self, now: Time) -> Stamp {
        let s = (now, self.seq);
        self.seq += 1;
        s
    }

    /// Re-captures the estimator interval-start stamp after estimator calls
    /// (the estimator may have rolled its interval during the call).
    fn sync_est_stamp(&mut self, _now: Time) {
        if self.est.interval_start() != self.est_start.0 {
            self.est_start = (self.est.interval_start(), self.seq);
        }
    }

    /// Window width `1/J̃` for the entrance rule.
    fn window_width(&self) -> f64 {
        let j = self.est.estimate();
        if j > 0.0 {
            1.0 / j
        } else {
            f64::INFINITY
        }
    }

    /// The iteration-progress counter: raw joins+departures by default, the
    /// symmetric difference under Heuristic 2.
    fn iter_progress(&self) -> u64 {
        if self.cfg.heuristics.h2_symdiff_trigger {
            self.iter_tracker.symdiff()
        } else {
            self.iter_events
        }
    }

    /// Admissions remaining before the purge condition trips
    /// (`progress · den > size · num`). Zero means it already has.
    ///
    /// Uses the per-iteration cached threshold `iter_admission_cap =
    /// ⌊size·num/den⌋` (see [`recompute_admission_cap`]): the condition
    /// `progress·den > size·num` is exactly `progress > cap`, so the hot
    /// path — this is consulted on every Sybil batch, and [`purge_due`]
    /// via the engine on every event — is a compare instead of 128-bit
    /// multiply/divide.
    ///
    /// [`recompute_admission_cap`]: Ergo::recompute_admission_cap
    /// [`purge_due`]: Defense::purge_due
    fn admissions_until_purge(&self) -> u64 {
        let progress = self.iter_progress();
        if progress > self.iter_admission_cap {
            return 0;
        }
        // Smallest k with progress + k > cap.
        (self.iter_admission_cap - progress).saturating_add(1)
    }

    /// Recomputes the cached `⌊iter_start_size·num/den⌋` threshold; must be
    /// called whenever `iter_start_size` changes (iteration resets).
    fn recompute_admission_cap(&mut self) {
        let th = self.cfg.iteration_threshold;
        let cap = (self.iter_start_size as u128 * th.num as u128) / th.den.max(1) as u128;
        self.iter_admission_cap = cap.min((u64::MAX - 1) as u128) as u64;
    }

    /// Records one admitted join in every counter that observes joins.
    fn note_join(&mut self, now: Time, n: u64, bad: bool) {
        if n == 0 {
            return;
        }
        let stamp = self.next_stamp(now);
        // Membership first and checked, so that a batch past u64 stops
        // here in every build profile — before the estimator's own size
        // counter, which only a debug build would catch — rather than
        // wrapping in release. One compare per batch, not per ID.
        if bad {
            self.n_bad = self.n_bad.checked_add(n).expect("membership counter overflow");
            self.bad_runs.push_back(BadRun { stamp, n });
        } else {
            self.n_good += n;
        }
        // The join-history window only feeds the rate-based quote; under a
        // constant entrance policy (CCom) recording it would be pure
        // overhead on the hottest path.
        if matches!(self.cfg.entrance, EntrancePolicy::RateBased) {
            self.window.record(now, n);
        }
        self.iter_events += n;
        self.iter_joins += n;
        self.iter_tracker.on_join(n);
        self.est.on_join(now, n);
        self.sync_est_stamp(now);
    }

    /// Removes up to `n` Sybil IDs, newest runs first, feeding the symmetric
    /// -difference trackers. Returns how many were removed.
    fn remove_bad_newest(&mut self, now: Time, n: u64, count_iter_events: bool) -> u64 {
        let mut remaining = n;
        let mut removed = 0;
        while remaining > 0 {
            let Some(run) = self.bad_runs.back_mut() else { break };
            let take = run.n.min(remaining);
            run.n -= take;
            let stamp = run.stamp;
            if run.n == 0 {
                self.bad_runs.pop_back();
            }
            remaining -= take;
            removed += take;
            self.apply_bad_departure(now, stamp, take, count_iter_events);
        }
        removed
    }

    /// Removes up to `n` Sybil IDs, oldest runs first (purge order).
    fn remove_bad_oldest(&mut self, now: Time, n: u64, count_iter_events: bool) -> u64 {
        let mut remaining = n;
        let mut removed = 0;
        while remaining > 0 {
            let Some(run) = self.bad_runs.front_mut() else { break };
            let take = run.n.min(remaining);
            run.n -= take;
            let stamp = run.stamp;
            if run.n == 0 {
                self.bad_runs.pop_front();
            }
            remaining -= take;
            removed += take;
            self.apply_bad_departure(now, stamp, take, count_iter_events);
        }
        removed
    }

    fn apply_bad_departure(&mut self, now: Time, stamp: Stamp, n: u64, count_iter_events: bool) {
        self.n_bad -= n;
        let old_for_est = stamp <= self.est_start;
        self.est.on_depart(now, old_for_est, n);
        self.sync_est_stamp(now);
        if count_iter_events {
            self.iter_events += n;
            if stamp <= self.iter_start_stamp {
                self.iter_tracker.on_depart_old(n);
            } else {
                self.iter_tracker.on_depart_new(n);
            }
        }
    }

    /// Starts a new iteration at `now` (after a purge or a Heuristic-3 skip).
    fn reset_iteration(&mut self, now: Time) {
        self.iter_start = now;
        self.iter_start_stamp = (now, self.seq);
        self.iter_start_size = self.n_members();
        self.recompute_admission_cap();
        self.iter_events = 0;
        self.iter_joins = 0;
        self.iter_tracker.reset();
        self.iter_start_estimate = self.est.estimate();
        self.window.clear();
    }

    /// Heuristic 3: should this purge be skipped? (Total join rate over the
    /// iteration below `c · J̃_prev` means the membership change was mostly
    /// benign departures, so purging buys little.)
    ///
    /// Inactive until GoodJEst has completed at least one interval: the
    /// heuristic compares against "the estimate from the prior iteration",
    /// and before the first interval only the (deliberately crude)
    /// initialization guess exists — trusting it would let the adversary
    /// accumulate Sybil IDs unboundedly during the warm-up phase.
    fn heuristic3_skips(&self, now: Time) -> bool {
        if !self.cfg.heuristics.h3_conditional_purge || self.est.update_count() == 0 {
            return false;
        }
        let dt = now - self.iter_start;
        if dt <= 0.0 {
            return false;
        }
        let join_rate = self.iter_joins as f64 / dt;
        join_rate < self.cfg.heuristics.h3_c * self.iter_start_estimate
    }
}

impl Defense for Ergo {
    fn name(&self) -> String {
        if let Some(n) = &self.name_override {
            return n.clone();
        }
        match (self.cfg.entrance, self.gate.is_some()) {
            (EntrancePolicy::Constant(_), _) => "CCOM".into(),
            (EntrancePolicy::RateBased, true) => "ERGO-SF".into(),
            (EntrancePolicy::RateBased, false) => "ERGO".into(),
        }
    }

    fn init(&mut self, now: Time, n_good: u64, n_bad: u64) -> Cost {
        self.n_good = n_good;
        self.n_bad = n_bad;
        self.seq = 0;
        self.bad_runs.clear();
        if n_bad > 0 {
            let stamp = self.next_stamp(now);
            self.bad_runs.push_back(BadRun { stamp, n: n_bad });
        }
        self.est = GoodJEst::new(self.cfg.estimator, now, n_good + n_bad);
        // Steady-state allocation budget: every growable Ergo structure
        // reserves its expected high-water here, outside the engine's
        // measured event loop, so processing events allocates nothing.
        // Clears during the run (purges, drains) all keep capacity.
        let n = (n_good + n_bad).min(1 << 16) as usize;
        self.window.reserve(n);
        self.est.reserve_log(4096);
        self.bad_runs.reserve(1024);
        // The engine drains the event log at every purge boundary (see
        // `Simulation::absorb_defense_events`), so the log holds at most
        // one iteration's worth of records between drains; a small reserve
        // covers the records logged before the first drain.
        self.events.reserve(64);
        self.est_start = (now, self.seq);
        self.reset_iteration(now);
        Cost::ONE
    }

    fn quote(&self, now: Time) -> Cost {
        match self.cfg.entrance {
            EntrancePolicy::Constant(c) => Cost(c),
            EntrancePolicy::RateBased => {
                Cost(1.0 + self.window.count_within(now, self.window_width()) as f64)
            }
        }
    }

    fn good_join(&mut self, now: Time) -> Admission {
        let cost = self.quote(now);
        if let Some(gate) = self.gate.as_mut() {
            if !gate.admit_good() {
                return Admission::Refused { cost };
            }
        }
        self.note_join(now, 1, false);
        Admission::Admitted { cost }
    }

    fn good_depart(&mut self, now: Time, joined_at: Time) {
        debug_assert!(self.n_good > 0, "good departure with no good members");
        self.n_good = self.n_good.saturating_sub(1);
        self.iter_events += 1;
        if joined_at <= self.iter_start {
            self.iter_tracker.on_depart_old(1);
        } else {
            self.iter_tracker.on_depart_new(1);
        }
        let old = self.est.classify_old(joined_at);
        self.est.on_depart(now, old, 1);
        self.sync_est_stamp(now);
    }

    fn bad_join_batch(&mut self, now: Time, budget: Cost, max_attempts: u64) -> BatchAdmission {
        let mut spent = 0.0f64;
        let mut admitted = 0u64;
        let mut attempts = 0u64;
        let budget = budget.value();

        let headroom = self.admissions_until_purge();
        if headroom == 0 {
            return BatchAdmission {
                admitted: 0,
                attempts: 0,
                spent: Cost::ZERO,
                stop: BatchStop::PurgeTriggered,
            };
        }

        match self.gate {
            None => {
                let q0 = self.quote(now).value();
                // Rate-based entrance costs escalate by 1 per admission
                // (each join enters the window); constant costs do not.
                let afford = match self.cfg.entrance {
                    EntrancePolicy::RateBased => max_affordable(q0, budget),
                    EntrancePolicy::Constant(c) => (budget / c.max(1e-12)) as u64,
                };
                let n = afford.min(headroom).min(max_attempts);
                spent = match self.cfg.entrance {
                    EntrancePolicy::RateBased => batch_cost(q0, n),
                    EntrancePolicy::Constant(c) => c * n as f64,
                };
                self.note_join(now, n, true);
                admitted = n;
                attempts = n;
                let stop = if self.admissions_until_purge() == 0 {
                    BatchStop::PurgeTriggered
                } else if attempts >= max_attempts {
                    BatchStop::MaxAttempts
                } else {
                    BatchStop::Budget
                };
                BatchAdmission { admitted, attempts, spent: Cost(spent), stop }
            }
            Some(_) => {
                // Classifier-gated: each attempt pays the current quote;
                // only false negatives are admitted. Refusals between two
                // admissions all pay the same quote, so we sample the
                // geometric gap and charge it in one step.
                let stop;
                loop {
                    if attempts >= max_attempts {
                        stop = BatchStop::MaxAttempts;
                        break;
                    }
                    let q = self.quote(now).value();
                    let refusals = self
                        .gate
                        .as_mut()
                        .expect("gate present in gated branch")
                        .refusals_before_bad_admit();
                    let attempts_left = max_attempts - attempts;
                    // Can the budget fund all refusals plus the admission?
                    let affordable_attempts = ((budget - spent) / q) as u64;
                    if refusals >= attempts_left || affordable_attempts <= refusals {
                        // Budget or attempt limit dies inside the refusal run.
                        let burn = affordable_attempts.min(attempts_left).min(refusals);
                        attempts += burn;
                        spent += burn as f64 * q;
                        stop = if attempts >= max_attempts {
                            BatchStop::MaxAttempts
                        } else {
                            BatchStop::Budget
                        };
                        break;
                    }
                    attempts += refusals + 1;
                    spent += (refusals + 1) as f64 * q;
                    self.note_join(now, 1, true);
                    admitted += 1;
                    if self.admissions_until_purge() == 0 {
                        stop = BatchStop::PurgeTriggered;
                        break;
                    }
                }
                BatchAdmission { admitted, attempts, spent: Cost(spent), stop }
            }
        }
    }

    fn bad_depart(&mut self, now: Time, n: u64) -> u64 {
        self.remove_bad_newest(now, n, true)
    }

    fn purge_due(&self, _now: Time) -> bool {
        // Equivalent to `iteration_threshold.lt_scaled(progress, size)`
        // via the cached cap — this runs on every engine event.
        self.iter_progress() > self.iter_admission_cap
    }

    fn purge(&mut self, now: Time, retain_bad: u64) -> PurgeReport {
        if self.heuristic3_skips(now) {
            // Not logged as a DefenseEvent: no consumer reads PurgeSkipped
            // (the report drops it on absorb, and the engine counts skips
            // from the PurgeReport), while under heavy attack skips can
            // end iterations every few admissions — logging them made the
            // event buffer the one allocation no init-time reserve could
            // bound.
            // A skipped purge still ends the iteration, so Heuristic 1's
            // deferred estimator update is released here too.
            self.est.on_purge_complete(now);
            self.sync_est_stamp(now);
            self.reset_iteration(now);
            return PurgeReport {
                good_cost: Cost::ZERO,
                adv_cost: Cost::ZERO,
                bad_removed: 0,
                skipped: true,
            };
        }
        let retain = retain_bad.min(self.n_bad);
        let to_remove = self.n_bad - retain;
        // Purge removals do not advance the (about-to-reset) iteration
        // counters, but they do update the estimator's symmetric difference.
        let removed = self.remove_bad_oldest(now, to_remove, false);
        debug_assert_eq!(removed, to_remove);
        let good_cost = Cost(self.n_good as f64);
        let adv_cost = Cost(retain as f64);
        self.est.on_purge_complete(now);
        self.sync_est_stamp(now);
        self.reset_iteration(now);
        self.events.push(DefenseEvent::PurgeCompleted { at: now, members_after: self.n_members() });
        PurgeReport { good_cost, adv_cost, bad_removed: removed, skipped: false }
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

    fn drain_events_into(&mut self, out: &mut Vec<DefenseEvent>) {
        if out.is_empty() {
            // Hand the filled buffer to the caller and keep theirs: the two
            // buffers ping-pong between engine and defense, so once both
            // have grown to the high-water mark nothing allocates again.
            std::mem::swap(out, &mut self.events);
        } else {
            out.extend_from_slice(&self.events);
            self.events.clear();
        }
        let events = &mut *out;
        self.est.drain_intervals_with(|rec| {
            events.push(DefenseEvent::EstimateUpdated {
                start: rec.start,
                end: rec.end,
                estimate: rec.estimate,
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Heuristics;

    fn fresh(n_good: u64) -> Ergo {
        let mut e = Ergo::new(ErgoConfig::default());
        e.init(Time::ZERO, n_good, 0);
        e
    }

    #[test]
    fn quote_starts_at_one_and_escalates() {
        let mut e = fresh(1000);
        assert_eq!(e.quote(Time(0.5)), Cost(1.0));
        // Initial estimate is 1000/s → window 1 ms. Two joins 0.1 ms apart
        // land in the same window.
        let a = e.good_join(Time(0.5));
        assert_eq!(a.cost(), Cost(1.0));
        let b = e.good_join(Time(0.5001));
        assert_eq!(b.cost(), Cost(2.0));
        // Outside the 1 ms window the quote falls back to 1.
        let c = e.good_join(Time(0.6));
        assert_eq!(c.cost(), Cost(1.0));
    }

    #[test]
    fn bad_batch_pays_arithmetic_series() {
        let mut e = fresh(10_000);
        // Budget 10 at quote 1: 1+2+3+4 = 10 → 4 admitted.
        let b = e.bad_join_batch(Time(1.0), Cost(10.0), u64::MAX);
        assert_eq!(b.admitted, 4);
        assert_eq!(b.spent, Cost(10.0));
        assert_eq!(b.stop, BatchStop::Budget);
        assert_eq!(e.n_bad(), 4);
    }

    #[test]
    fn batch_stops_at_purge_threshold() {
        let mut e = fresh(110);
        // Iteration threshold 1/11 of 110 = 10: the 11th event trips it.
        let b = e.bad_join_batch(Time(1.0), Cost(1e9), u64::MAX);
        assert_eq!(b.admitted, 11);
        assert_eq!(b.stop, BatchStop::PurgeTriggered);
        assert!(e.purge_due(Time(1.0)));
        // No more admissions until the purge resolves.
        let b2 = e.bad_join_batch(Time(1.0), Cost(1e9), u64::MAX);
        assert_eq!(b2.admitted, 0);
        assert_eq!(b2.stop, BatchStop::PurgeTriggered);
    }

    #[test]
    fn purge_flushes_unretained_bad_and_charges_good() {
        let mut e = fresh(110);
        e.bad_join_batch(Time(1.0), Cost(1e9), u64::MAX);
        let r = e.purge(Time(1.0), 3);
        assert_eq!(r.bad_removed, 8);
        assert_eq!(e.n_bad(), 3);
        assert_eq!(r.good_cost, Cost(110.0));
        assert_eq!(r.adv_cost, Cost(3.0));
        assert!(!e.purge_due(Time(1.0)));
        // New iteration: quote resets (window cleared).
        assert_eq!(e.quote(Time(1.0)), Cost(1.0));
    }

    #[test]
    fn departures_count_toward_iteration() {
        let mut e = fresh(110);
        for i in 0..10 {
            e.good_depart(Time(1.0 + i as f64), Time::ZERO);
        }
        assert!(!e.purge_due(Time(11.0)));
        e.good_depart(Time(11.0), Time::ZERO);
        assert!(e.purge_due(Time(11.0)));
    }

    #[test]
    fn ccom_quote_is_constant() {
        let mut e = Ergo::new(ErgoConfig::ccom());
        e.init(Time::ZERO, 1000, 0);
        assert_eq!(e.name(), "CCOM");
        for i in 0..50 {
            let a = e.good_join(Time(0.001 * i as f64));
            assert_eq!(a.cost(), Cost(1.0));
        }
    }

    #[test]
    fn heuristic2_ignores_join_depart_cycles() {
        // A churn-forcing adversary joins and departs the same IDs; the raw
        // counter trips the purge, the symmetric-difference trigger does not.
        let cfg_plain = ErgoConfig::default();
        let cfg_h2 = ErgoConfig::with_heuristics(Heuristics {
            h2_symdiff_trigger: true,
            ..Heuristics::none()
        });
        for (cfg, expect_due) in [(cfg_plain, true), (cfg_h2, false)] {
            let mut e = Ergo::new(cfg);
            e.init(Time::ZERO, 110, 0);
            for i in 0..12 {
                let t = Time(1.0 + i as f64);
                e.bad_join_batch(t, Cost(2.0), 1);
                e.bad_depart(t, 1);
            }
            assert_eq!(
                e.purge_due(Time(20.0)),
                expect_due,
                "h2={}",
                cfg.heuristics.h2_symdiff_trigger
            );
        }
    }

    #[test]
    fn heuristic3_skips_departure_driven_purges() {
        let cfg = ErgoConfig::with_heuristics(Heuristics::ch2());
        let mut e = Ergo::new(cfg);
        e.init(Time::ZERO, 400, 0);
        // Warm-up: Heuristic 3 is inactive until GoodJEst completes an
        // interval (118 old departures cross the 5/12 threshold on a
        // 400-member system), so the first purge is NOT skipped.
        for i in 0..118 {
            e.good_depart(Time(1.0 + i as f64), Time::ZERO);
        }
        assert!(e.purge_due(Time(119.0)));
        let first = e.purge(Time(119.0), 0);
        assert!(!first.skipped, "warm-up purge must execute");
        assert!(e.estimator().update_count() >= 1, "H1 released the estimate at the purge");
        // Second iteration ends purely by departures again: join rate 0 is
        // below c·J̃, so now Heuristic 3 skips the purge.
        for i in 0..30 {
            e.good_depart(Time(121.0 + i as f64), Time::ZERO);
        }
        assert!(e.purge_due(Time(160.0)));
        let second = e.purge(Time(160.0), 0);
        assert!(second.skipped);
        assert_eq!(second.good_cost, Cost::ZERO);
        // The iteration reset: not due anymore.
        assert!(!e.purge_due(Time(160.0)));
    }

    #[test]
    fn gate_refuses_bad_probabilistically() {
        let mut e =
            Ergo::new(ErgoConfig::default()).with_gate(ClassifierGate::with_accuracy(0.98, 42));
        e.init(Time::ZERO, 1_000_000, 0); // huge so no purge interferes
        let b = e.bad_join_batch(Time(1.0), Cost(10_000.0), u64::MAX);
        // ~2% of attempts admitted; refusal runs pay the current quote, which
        // climbs by 1 per admission, so ~k admissions cost ≈ 25k² total.
        assert!(b.attempts >= 500, "attempts {}", b.attempts);
        assert!(b.admitted < b.attempts / 10, "admitted {} of {}", b.admitted, b.attempts);
        assert!(b.spent.value() <= 10_000.0);
        assert_eq!(e.n_bad(), b.admitted);
    }

    #[test]
    fn gate_refuses_some_good() {
        let mut e =
            Ergo::new(ErgoConfig::default()).with_gate(ClassifierGate::with_accuracy(0.5, 7));
        e.init(Time::ZERO, 1000, 0);
        let outcomes: Vec<bool> =
            (0..200).map(|i| e.good_join(Time(i as f64)).is_admitted()).collect();
        let admitted = outcomes.iter().filter(|&&x| x).count();
        assert!(admitted > 60 && admitted < 140, "admitted {admitted}");
        // Refused good IDs still paid.
        assert!(outcomes.iter().any(|&x| !x));
    }

    #[test]
    fn estimator_intervals_logged() {
        let mut e = fresh(12);
        for k in 1..=40 {
            e.good_join(Time(k as f64));
        }
        let mut events = Vec::new();
        e.drain_events_into(&mut events);
        let estimates: Vec<_> =
            events.iter().filter(|ev| matches!(ev, DefenseEvent::EstimateUpdated { .. })).collect();
        assert!(!estimates.is_empty());
    }

    #[test]
    fn purge_events_logged() {
        let mut e = fresh(110);
        e.bad_join_batch(Time(1.0), Cost(1e9), u64::MAX);
        e.purge(Time(1.0), 0);
        let mut events = Vec::new();
        e.drain_events_into(&mut events);
        assert!(events.iter().any(|ev| matches!(ev, DefenseEvent::PurgeCompleted { .. })));
    }

    #[test]
    fn initial_bad_members_are_purgeable() {
        let mut e = Ergo::new(ErgoConfig::default());
        e.init(Time::ZERO, 100, 20);
        assert_eq!(e.n_members(), 120);
        assert_eq!(e.n_bad(), 20);
        // Force the iteration to end, then purge everything bad.
        for i in 0..12 {
            e.good_depart(Time(1.0 + i as f64), Time::ZERO);
        }
        let r = e.purge(Time(13.0), 0);
        assert_eq!(r.bad_removed, 20);
        assert_eq!(e.n_bad(), 0);
        assert_eq!(e.n_good(), 88);
    }

    /// Both profiles stop at the membership counter, ahead of the
    /// estimator's unchecked `size += n` that only a dev build traps.
    #[test]
    #[should_panic(expected = "membership counter overflow")]
    fn membership_counter_overflow_panics() {
        let cfg = ErgoConfig { entrance: EntrancePolicy::Constant(1.0), ..ErgoConfig::default() };
        let mut e = Ergo::new(cfg);
        e.init(Time::ZERO, 0, u64::MAX - 1);
        e.bad_join_batch(Time(1.0), Cost(2.0), 2);
    }

    #[test]
    fn voluntary_bad_departures_update_state() {
        let mut e = fresh(10_000);
        e.bad_join_batch(Time(1.0), Cost(100.0), u64::MAX);
        let before = e.n_bad();
        assert!(before > 0);
        let removed = e.bad_depart(Time(2.0), 3);
        assert_eq!(removed, 3.min(before));
        assert_eq!(e.n_bad(), before - removed);
        // Departing more than exist is clamped.
        let removed2 = e.bad_depart(Time(3.0), 1_000_000);
        assert_eq!(removed2, before - removed);
        assert_eq!(e.n_bad(), 0);
    }

    #[test]
    fn entrance_cost_asymmetry_good_pays_sqrt_of_adversary() {
        // Paper Section 7.1's intuition: if the adversary joins x IDs per
        // window, it pays Θ(x²) while a good joiner pays O(x).
        let mut e = fresh(1_000_000);
        // Pin the estimate via a long quiet period; initial estimate is 1e6/s
        // (window ~1 µs) — join bad IDs within one instant so they share a
        // window regardless.
        let b = e.bad_join_batch(Time(5.0), Cost(5050.0), u64::MAX);
        assert_eq!(b.admitted, 100); // 1+2+...+100 = 5050
        let good = e.good_join(Time(5.0));
        assert_eq!(good.cost(), Cost(101.0)); // pays x+1, not Θ(x²)
    }
}
