//! A reference Ergo in miniature (ROADMAP 1(a)): Figure 4 and GoodJEst
//! transcribed naively from the rules the `ergo`, `goodjest` and `window`
//! module docs quote from the paper — one record per ID, linear scans,
//! explicit sets for the symmetric difference, one join at a time — and a
//! differential test of production [`Ergo`] (default [`ErgoConfig`]: no
//! gate, no heuristics) against it over seeded random call sequences.
//!
//! Where the paper is silent the reference adopts production's rule and
//! says so at the site. Where production departs from the paper the
//! generator stays clear of the case and an `#[ignore]`d test holds the
//! minimal sequence; each is recorded under ROADMAP direction 1.

use ergo_core::{Ergo, ErgoConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use sybil_sim::cost::Cost;
use sybil_sim::defense::{
    Admission, BatchAdmission, BatchStop, Defense, DefenseEvent, PeriodicReport, PurgeReport,
};
use sybil_sim::time::Time;

/// One ID, kept after it departs: the entrance rule counts join *events*.
struct Member {
    bad: bool,
    joined: Time,
    /// The call that admitted it. IDs of one call joined at one instant
    /// and are indistinguishable afterwards.
    cohort: u64,
    present: bool,
}

#[derive(Default)]
struct Reference {
    /// Every ID ever admitted, in join order; the index is the ID.
    ids: Vec<Member>,
    cohorts: u64,
    /// GoodJEst: interval start `t`, the membership `S(t)`, and `J̃`.
    interval_start: Time,
    interval_set: BTreeSet<usize>,
    estimate: f64,
    /// Figure 4: the first ID of the current iteration, `|S(τ)|`, and the
    /// joins plus departures since `τ`.
    iteration_first_id: usize,
    iteration_size: u64,
    iteration_events: u64,
    events: Vec<DefenseEvent>,
}

impl Reference {
    fn present(&self) -> BTreeSet<usize> {
        (0..self.ids.len()).filter(|&i| self.ids[i].present).collect()
    }

    /// `|S(t') △ S(t)|`, by its definition.
    fn symdiff(&self) -> usize {
        self.present().symmetric_difference(&self.interval_set).count()
    }

    fn admit(&mut self, now: Time, bad: bool) {
        self.ids.push(Member { bad, joined: now, cohort: self.cohorts, present: true });
    }

    /// GoodJEst (Figure 5): the interval ends at the first time `t'` with
    /// `|S(t') △ S(t)| ≥ 5/12·|S(t')|`; then `J̃ ← |S(t')| / (t' − t)`.
    ///
    /// The paper is silent on simultaneous events. Production's rule: the
    /// IDs one call admits arrive — and later leave — as one event, so the
    /// condition is tested once per cohort, and an interval cannot end at
    /// the instant it started (the test repeats at the next event).
    fn goodjest(&mut self, now: Time) {
        let current = self.present();
        if 12 * self.symdiff() >= 5 * current.len() && now > self.interval_start {
            self.estimate = current.len() as f64 / (now - self.interval_start);
            let (start, end, estimate) = (self.interval_start, now, self.estimate);
            self.events.push(DefenseEvent::EstimateUpdated { start, end, estimate });
            self.interval_start = now;
            self.interval_set = current;
        }
    }

    /// Removes up to `n` Sybil IDs, one cohort at a time. The paper is
    /// silent on which Sybil IDs go; production's rule is oldest cohort
    /// first at a purge, newest first when the adversary withdraws IDs.
    fn remove_bad(&mut self, now: Time, n: u64, newest_first: bool, counts: bool) -> u64 {
        let mut removed = 0;
        while removed < n {
            let of_bad = self.ids.iter().filter(|m| m.bad && m.present).map(|m| m.cohort);
            let Some(cohort) = (if newest_first { of_bad.max() } else { of_bad.min() }) else {
                break;
            };
            for member in self.ids.iter_mut().filter(|m| m.bad && m.present && m.cohort == cohort) {
                if removed < n {
                    member.present = false;
                    removed += 1;
                    self.iteration_events += counts as u64;
                }
            }
            self.goodjest(now);
        }
        removed
    }
}

impl Defense for Reference {
    fn name(&self) -> String {
        "reference".into()
    }

    fn init(&mut self, now: Time, n_good: u64, n_bad: u64) -> Cost {
        *self = Reference::default();
        // Production's rule: the initial Sybil IDs are the oldest cohort.
        (0..n_bad).for_each(|_| self.admit(now, true));
        self.cohorts += 1;
        (0..n_good).for_each(|_| self.admit(now, false));
        // "The number of IDs at system initialization divided by the total
        // time taken for initialization" (1 s by default).
        self.estimate = (n_good + n_bad) as f64 / 1.0;
        (self.interval_start, self.interval_set) = (now, self.present());
        (self.iteration_first_id, self.iteration_size) = (self.ids.len(), n_good + n_bad);
        Cost::ONE
    }

    /// Step 1: "1 plus the number of IDs that have joined in the last 1/J̃
    /// seconds of the current iteration". The paper is silent on the
    /// window's end-points; production's rule is `(now − 1/J̃, now]`.
    fn quote(&self, now: Time) -> Cost {
        let width = if self.estimate > 0.0 { 1.0 / self.estimate } else { f64::INFINITY };
        let cutoff = now.as_secs() - width;
        let recent =
            self.ids[self.iteration_first_id..].iter().filter(|m| m.joined.as_secs() > cutoff);
        Cost(1.0 + recent.count() as f64)
    }

    fn good_join(&mut self, now: Time) -> Admission {
        let cost = self.quote(now);
        self.cohorts += 1;
        self.admit(now, false);
        self.iteration_events += 1;
        self.goodjest(now);
        Admission::Admitted { cost }
    }

    fn good_depart(&mut self, now: Time, joined_at: Time) {
        let leaver = self.ids.iter_mut().find(|m| !m.bad && m.present && m.joined == joined_at);
        leaver.expect("a present good ID joined then").present = false;
        self.iteration_events += 1;
        self.goodjest(now);
    }

    /// One join at a time: each pays the quote it meets, and nobody is
    /// admitted once the purge condition holds.
    fn bad_join_batch(&mut self, now: Time, budget: Cost, max_attempts: u64) -> BatchAdmission {
        self.cohorts += 1;
        let (mut admitted, mut spent) = (0, 0.0);
        let stop = loop {
            let quote = self.quote(now).value();
            if self.purge_due(now) {
                break BatchStop::PurgeTriggered;
            } else if admitted == max_attempts {
                break BatchStop::MaxAttempts;
            } else if spent + quote > budget.value() {
                break BatchStop::Budget;
            }
            self.admit(now, true);
            self.iteration_events += 1;
            (admitted, spent) = (admitted + 1, spent + quote);
        };
        if admitted > 0 {
            self.goodjest(now);
        }
        BatchAdmission { admitted, attempts: admitted, spent: Cost(spent), stop }
    }

    fn bad_depart(&mut self, now: Time, n: u64) -> u64 {
        self.remove_bad(now, n, true, true)
    }

    /// Step 2: purge "when the number of joins plus departures in the
    /// iteration exceeds |S(τ)|/11".
    fn purge_due(&self, _now: Time) -> bool {
        11 * self.iteration_events > self.iteration_size
    }

    /// Every ID re-solves a 1-hard challenge; the adversary keeps
    /// `retain_bad` IDs alive. The removals are not events of the next
    /// iteration, which starts here with an empty join history.
    fn purge(&mut self, now: Time, retain_bad: u64) -> PurgeReport {
        let retain = retain_bad.min(self.n_bad());
        let bad_removed = self.remove_bad(now, self.n_bad() - retain, false, false);
        (self.iteration_first_id, self.iteration_size) = (self.ids.len(), self.n_members());
        self.iteration_events = 0;
        self.events.push(DefenseEvent::PurgeCompleted { at: now, members_after: self.n_members() });
        let n_good = self.n_good();
        PurgeReport {
            good_cost: Cost(n_good as f64),
            adv_cost: Cost(retain as f64),
            bad_removed,
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
        self.ids.iter().filter(|m| m.present).count() as u64
    }

    fn n_bad(&self) -> u64 {
        self.ids.iter().filter(|m| m.present && m.bad).count() as u64
    }

    fn drain_events_into(&mut self, out: &mut Vec<DefenseEvent>) {
        out.append(&mut self.events);
    }
}

/// Production and the reference, fed the same calls.
struct Pair {
    production: Ergo,
    reference: Reference,
    /// The latest `J̃` logged and when (the generator scales its time steps
    /// by the entrance window `1/J̃` and keeps joins off interval starts).
    estimate: f64,
    interval_start: Time,
    calls: Vec<String>,
}

impl Pair {
    fn new(n_good: u64, n_bad: u64) -> Pair {
        let (production, reference) = (Ergo::new(ErgoConfig::default()), Reference::default());
        let (estimate, interval_start) = ((n_good + n_bad) as f64, Time::ZERO);
        let mut pair = Pair { production, reference, estimate, interval_start, calls: Vec::new() };
        let call = format!("init({n_good}, {n_bad})");
        pair.call(Time::ZERO, call, |d| d.init(Time::ZERO, n_good, n_bad));
        pair
    }

    /// Makes one call on both and compares its result and, after it, the
    /// quote, `purge_due`, the membership counts and the events logged;
    /// any difference fails with the call sequence so far.
    fn call<R: PartialEq + std::fmt::Debug>(
        &mut self,
        now: Time,
        call: String,
        f: impl Fn(&mut dyn Defense) -> R,
    ) -> R {
        let observe = |d: &mut dyn Defense| {
            let result = f(d);
            let mut events = Vec::new();
            d.drain_events_into(&mut events);
            // Production drains its purge log before its interval log;
            // compare the two streams each in its own order.
            events.sort_by_key(|e| matches!(e, DefenseEvent::EstimateUpdated { .. }));
            (result, d.quote(now), d.purge_due(now), d.n_members(), d.n_bad(), events)
        };
        self.calls.push(format!("t={}: {call}", now.as_secs()));
        let (production, reference) = (observe(&mut self.production), observe(&mut self.reference));
        assert_eq!(production, reference, "production vs reference after {:#?}", self.calls);
        if let Some(DefenseEvent::EstimateUpdated { estimate, end, .. }) = production.5.last() {
            (self.estimate, self.interval_start) = (*estimate, *end);
        }
        production.0
    }
}

fn pick<T: Copy>(rng: &mut StdRng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len())]
}

#[test]
fn production_agrees_with_the_reference_on_random_sequences() {
    for seed in 0..256 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_bad = pick(&mut rng, &[0, 0, 0, 1, 2, 6]);
        let mut pair = Pair::new(rng.gen_range(12..120u64), n_bad);
        // Join times of the good IDs present, for `good_depart`.
        let mut goods = vec![Time::ZERO; pair.reference.n_good() as usize];
        let mut now = Time::ZERO;
        for _ in 0..rng.gen_range(60..200u32) {
            // Steps on the scale of the entrance window 1/J̃, so quotes see
            // joins inside, on the edge of and outside it; a zero step
            // keeps several calls at one instant.
            let window = 1.0 / pair.estimate.max(0.05);
            let step = pick(&mut rng, &[0.0, 0.0, 0.3, 0.6, 1.0, 1.5, 8.0]) * window;
            let op = rng.gen_range(0..10u32);
            if pair.reference.purge_due(now) && rng.gen_bool(0.7) {
                let kappa_cap = (pair.reference.n_members() / 18).min(pair.reference.n_bad());
                let retain = rng.gen_range(0..=kappa_cap);
                let report = pair.call(now, format!("purge({retain})"), |d| d.purge(now, retain));
                assert!(!report.skipped);
                continue;
            }
            now += step;
            if op < 7 && now == pair.interval_start {
                // No ID joins at the instant an interval ended: see
                // `an_id_joining_at_the_instant_an_interval_ended_is_counted_twice`.
                now += 0.01 * window;
            }
            if op < 3 {
                goods.push(now);
                assert!(pair.call(now, "good_join".into(), |d| d.good_join(now)).is_admitted());
            } else if op < 7 {
                let budget = Cost(pick(&mut rng, &[0.5, 1.0, 3.0, 10.0, 40.0, 1e6]));
                let max = pick(&mut rng, &[1, 2, 5, u64::MAX]);
                let call = format!("bad_join_batch({}, {max})", budget.value());
                pair.call(now, call, |d| d.bad_join_batch(now, budget, max));
            } else if op < 9 && !goods.is_empty() {
                let joined_at = goods.swap_remove(rng.gen_range(0..goods.len()));
                let call = format!("good_depart(joined {})", joined_at.as_secs());
                pair.call(now, call, |d| d.good_depart(now, joined_at));
            } else {
                let n = rng.gen_range(1..6u64);
                pair.call(now, format!("bad_depart({n})"), |d| d.bad_depart(now, n));
            }
        }
    }
}

/// Production remembers an interval's start as a time (for good IDs) or a
/// `(time, sequence)` stamp (for Sybil cohorts) and takes a leaver for a
/// member of `S(t)` when its join stamp is `<=` that. An ID that joins at
/// the instant an interval ended, after it ended, compares equal: GoodJEst
/// counts it as new when it joins and as a departed member of `S(t)` when
/// it leaves — twice, where `S(t') △ S(t)` (Figure 5) has it not at all.
/// The engine meets the case whenever a purge that ends an interval is
/// followed by a Sybil batch at the same instant, so the fix moves
/// fingerprints; it is recorded under ROADMAP direction 1(a).
#[test]
#[ignore = "production disagrees with Figure 5 here; see ROADMAP direction 1(a)"]
fn an_id_joining_at_the_instant_an_interval_ended_is_counted_twice() {
    // A Sybil ID, at the start of the first interval: 2 against 0.
    let (t0, t1) = (Time::ZERO, Time(1.0));
    let mut pair = Pair::new(12, 0);
    pair.call(t0, "bad_join_batch(1, 1)".into(), |d| d.bad_join_batch(t0, Cost::ONE, 1));
    pair.call(t1, "bad_depart(1)".into(), |d| d.bad_depart(t1, 1));
    let sybil = (pair.production.estimator().symdiff(), pair.reference.symdiff() as u64);

    // A good ID: the ninth join ends the first interval at t = 9 (12·9 ≥
    // 5·21), the tenth follows at that instant, and both leave: 3 against 1.
    let mut pair = Pair::new(12, 0);
    for t in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 9.0].map(Time) {
        pair.call(t, "good_join".into(), |d| d.good_join(t));
    }
    for t in [10.0, 11.0].map(Time) {
        pair.call(t, "good_depart(joined 9)".into(), |d| d.good_depart(t, Time(9.0)));
    }
    let good = (pair.production.estimator().symdiff(), pair.reference.symdiff() as u64);
    assert_eq!((sybil.0, good.0), (sybil.1, good.1), "|S(t') △ S(t)|: production vs reference");
}
