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
//! the simulation engine. What a call costs:
//!
//! * an ungated Sybil batch is O(1) whatever its size: one closed-form
//!   arithmetic-series cost (see [`crate::window`]; how many IDs the
//!   budget affords is an integer square root for every rate-based quote
//!   below `2²⁴` and budget below `2⁵⁰`, see [`max_affordable`]) and one
//!   recorded event;
//! * a classifier-gated batch pays one geometric draw per admission (the
//!   refusals before it are charged in one step) plus O(1) bookkeeping: the
//!   quote and the purge condition advance by counting, and admissions
//!   reach the window, the counters and GoodJEst in stretches that end only
//!   where a single join would end an estimator interval. The draw is a
//!   load and a compare in the gate's refusal table (no `ln`, see
//!   [`ClassifierGate`]), and a multiply-compare tells a budget that
//!   funds the refusal run without dividing it by the quote;
//! * a purge or a voluntary departure is O(runs removed), a run being
//!   Sybil IDs that GoodJEst cannot tell apart (see `BadRun`), plus one
//!   step per estimator interval it ends;
//! * the identical batch→purge cycles an ungated cascade repeats at one
//!   instant are applied in one call (`repeat_purge_cycles`), counted by
//!   one division where a cycle's spend and the per-ID cost are integers
//!   and the budget is below `2⁵²` (every rate-based cascade, and CCom at
//!   an integral cost), else by walking the budget one cycle at a time.
//!
//! So a cell under attack costs O(events) plus one draw per gated
//! admission, even at adversary spend rates of `2²⁰`/s.

use crate::gate::ClassifierGate;
use crate::goodjest::GoodJEst;
use crate::params::{EntrancePolicy, ErgoConfig};
use crate::symdiff::SymdiffTracker;
use crate::window::{batch_cost, max_affordable, JoinWindow};
use std::collections::VecDeque;
use sybil_sim::cost::Cost;
use sybil_sim::defense::{
    Admission, BatchAdmission, BatchStop, Defense, DefenseEvent, PeriodicReport, PurgeCycles,
    PurgeReport,
};
use sybil_sim::time::Time;

/// `2⁵²`: below it a budget's ulp is at most 1/2, so subtracting an
/// integer from it is exact (see [`Ergo::cycles_afforded`]).
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// A (time, sequence) stamp totally ordering join events, including several
/// at the same instant (batched Sybil joins and inline purges can share a
/// timestamp).
type Stamp = (Time, u64);

/// A run of Sybil IDs, kept oldest first in `Ergo::bad_runs`.
///
/// GoodJEst sees a run by one of two rules:
///
/// * a **batch** run — the initial Sybils, or what one ungated
///   `bad_join_batch` call admitted — joined as one event and leaves as one
///   event per removal (ROADMAP direction 7's seam);
/// * a **gated** run holds IDs the classifier gate admitted one at a time,
///   and they leave one at a time: GoodJEst takes them in prefixes cut
///   where a single departure would end its interval (or set Heuristic 1's
///   `pending`), and each prefix is classified old or new afresh.
///
/// A stretch of gated admissions joins the back run only if that run is
/// gated and its stamp is strictly above both interval starts
/// (`est_start`, `iter_start_stamp`). Every ID in it is then new against
/// both, and stays on one side of every later boundary, which is always
/// set above every existing stamp — so no decision can tell the IDs
/// apart. A stretch whose first stamp *equals* a boundary (ROADMAP 1(a)'s
/// interval-start tie) gives that first ID a run of its own: it classifies
/// as old there and the rest of the stretch as new.
#[derive(Clone, Copy, Debug)]
struct BadRun {
    /// The first ID's stamp; the others' follow it.
    stamp: Stamp,
    n: u64,
    /// Admitted one at a time by the classifier gate.
    gated: bool,
}

/// Who an admitted join is, as [`Ergo::note_join`] files it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Joiner {
    Good,
    /// Sybil IDs one ungated call admitted together: one batch run.
    Batch,
    /// Sybil IDs the classifier gate admitted one at a time: a gated run.
    Gated,
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
    name_override: Option<String>,
}

impl Ergo {
    /// Creates an Ergo instance; call [`Defense::init`] before use.
    ///
    /// # Panics
    ///
    /// Panics when Heuristic 1's two copies disagree: Ergo reads the
    /// estimator's `align_to_iterations`, while the configuration's Debug
    /// text (a store identity) shows `heuristics.h1_align_estimates`.
    /// [`ErgoConfig::with_heuristics`] sets both.
    pub fn new(cfg: ErgoConfig) -> Self {
        assert_eq!(
            cfg.heuristics.h1_align_estimates, cfg.estimator.align_to_iterations,
            "Heuristic 1 is stored twice and the copies disagree: build the config with \
             ErgoConfig::with_heuristics"
        );
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

    /// Re-captures the estimator interval-start stamp after estimator calls
    /// (the estimator may have rolled its interval during the call).
    fn sync_est_stamp(&mut self) {
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

    /// What one more join at `now` adds to the quote while the window's
    /// width holds: 1 under the rate-based rule if a join at `now` is
    /// inside `(now − 1/J̃, now]` (never for a NaN width, which counts
    /// nothing), else 0.
    fn quote_step(&self, now: Time) -> f64 {
        let inside = now.as_secs() - self.window_width() < now.as_secs();
        if inside && matches!(self.cfg.entrance, EntrancePolicy::RateBased) {
            1.0
        } else {
            0.0
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

    /// How many ungated admissions `budget` affords from quote `q0`.
    /// Rate-based entrance costs escalate by 1 per admission (each join
    /// enters the window); constant costs do not.
    fn affordable(&self, q0: f64, budget: f64) -> u64 {
        match self.cfg.entrance {
            EntrancePolicy::RateBased => max_affordable(q0, budget),
            EntrancePolicy::Constant(c) => (budget / c.max(1e-12)) as u64,
        }
    }

    /// What `n` ungated admissions from quote `q0` cost.
    fn batch_spend(&self, q0: f64, n: u64) -> f64 {
        match self.cfg.entrance {
            EntrancePolicy::RateBased => batch_cost(q0, n),
            EntrancePolicy::Constant(c) => c * n as f64,
        }
    }

    /// How many batch→purge cycles of `h` admissions from quote `q0`,
    /// `spent` each, the budget `b` pays for, at most `max`, and
    /// what is left of `b` after them. The purge retains nothing, so it
    /// charges the budget 0.
    ///
    /// This is the engine's walk: before each subtraction, the cycle's
    /// spend must fit (`spent ≤ b`) and the ungated branch must afford
    /// the whole batch. One division stands in for the walk when `spent`
    /// is an integer, `b < 2⁵²` and the per-ID cost is an integer (every
    /// rate-based quote is `1 +` a count; a constant cost must be one).
    /// Then `spent ≤ b` implies the affordability test: rate-based,
    /// [`max_affordable`] is the largest `n` whose `batch_cost` is at most
    /// `b`, and `batch_cost(q0, h)` is `spent`; at a constant integral
    /// `c`, `spent ≤ b < 2⁵²` makes `spent = c·h` exact, so `b/c ≥ h` and
    /// its rounding too. And every subtraction is exact: `b`'s ulp is at
    /// most 1/2, so the integer `spent` and the difference are multiples
    /// of it, fewer than `2⁵³` of them. After `k` cycles `b` reads
    /// `b − k·spent` exactly, and `k` is `⌊b⌋ / spent` in integers.
    /// Anything else walks.
    fn cycles_afforded(&self, q0: f64, h: u64, spent: f64, mut b: f64, max: u64) -> (u64, f64) {
        let integral_cost = match self.cfg.entrance {
            EntrancePolicy::RateBased => true,
            EntrancePolicy::Constant(c) => c.fract() == 0.0,
        };
        if integral_cost && spent.fract() == 0.0 && spent >= 1.0 && (0.0..TWO_52).contains(&b) {
            let k = (b as u64 / spent as u64).min(max);
            return (k, b - k as f64 * spent);
        }
        // A budget below one batch's spend affords no batch; that compare
        // goes first because the affordability test costs a division or a
        // square root.
        let mut k = 0;
        while k < max && spent <= b && self.affordable(q0, b) >= h {
            b -= spent;
            k += 1;
        }
        (k, b)
    }

    /// Recomputes the cached `⌊iter_start_size·num/den⌋` threshold; must be
    /// called whenever `iter_start_size` changes (iteration resets).
    fn recompute_admission_cap(&mut self) {
        let th = self.cfg.iteration_threshold;
        let cap = (self.iter_start_size as u128 * th.num as u128) / th.den.max(1) as u128;
        self.iter_admission_cap = cap.min((u64::MAX - 1) as u128) as u64;
    }

    /// Records `n` admitted joins at `now`, as one event, in every counter
    /// that observes joins. Sybil joins become runs (see [`BadRun`]); a
    /// gated stretch takes a sequence number per ID, anything else one per
    /// call.
    fn note_join(&mut self, now: Time, n: u64, who: Joiner) {
        if n == 0 {
            return;
        }
        let stamp = (now, self.seq);
        self.seq += if who == Joiner::Gated { n } else { 1 };
        if who == Joiner::Good {
            self.n_good += n;
        } else {
            // Membership first and checked, so that a batch past u64 stops
            // here in every build profile — before the estimator's own size
            // counter, which only a debug build would catch — rather than
            // wrapping in release. One compare per batch, not per ID.
            self.n_bad = self.n_bad.checked_add(n).expect("membership counter overflow");
            if who == Joiner::Gated {
                self.file_gated_run(stamp, n);
            } else {
                self.bad_runs.push_back(BadRun { stamp, n, gated: false });
            }
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
        self.sync_est_stamp();
    }

    /// Files a stretch of `n` gated admissions, the first stamped `stamp`,
    /// against the interval starts as they stood before it joined.
    fn file_gated_run(&mut self, stamp: Stamp, mut n: u64) {
        let (est_start, iter_start) = (self.est_start, self.iter_start_stamp);
        let mut first = stamp;
        if stamp == est_start || stamp == iter_start {
            // The interval-start tie: this ID classifies as old against
            // the boundary it equals, the rest of the stretch as new.
            self.bad_runs.push_back(BadRun { stamp, n: 1, gated: true });
            (first.1, n) = (first.1 + 1, n - 1);
            if n == 0 {
                return;
            }
        }
        match self.bad_runs.back_mut() {
            Some(back) if back.gated && back.stamp > est_start && back.stamp > iter_start => {
                back.n += n;
            }
            _ => self.bad_runs.push_back(BadRun { stamp: first, n, gated: true }),
        }
    }

    /// Removes up to `n` Sybil IDs, newest runs first (voluntary
    /// departures) or oldest first (purge order), feeding the
    /// symmetric-difference trackers. Returns how many were removed.
    fn remove_bad(
        &mut self,
        now: Time,
        n: u64,
        newest_first: bool,
        count_iter_events: bool,
    ) -> u64 {
        let mut removed = 0;
        while removed < n {
            let end =
                if newest_first { self.bad_runs.back_mut() } else { self.bad_runs.front_mut() };
            let Some(run) = end else { break };
            let take = run.n.min(n - removed);
            run.n -= take;
            let run = *run;
            if run.n == 0 {
                if newest_first {
                    self.bad_runs.pop_back();
                } else {
                    self.bad_runs.pop_front();
                }
            }
            removed += take;
            self.apply_bad_departure(now, run, take, count_iter_events);
        }
        removed
    }

    /// Takes `n` IDs of `run` out of the counters and GoodJEst, by the
    /// run's rule (see [`BadRun`]).
    fn apply_bad_departure(&mut self, now: Time, run: BadRun, n: u64, count_iter_events: bool) {
        self.n_bad -= n;
        if run.gated {
            let mut left = n;
            while left > 0 {
                let old = run.stamp <= self.est_start;
                let k = left.min(self.est.departures_until_change(now, old));
                self.est.on_depart(now, old, k);
                self.sync_est_stamp();
                left -= k;
            }
        } else {
            self.est.on_depart(now, run.stamp <= self.est_start, n);
            self.sync_est_stamp();
        }
        if count_iter_events {
            self.iter_events += n;
            if run.stamp <= self.iter_start_stamp {
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
            self.bad_runs.push_back(BadRun { stamp: (now, 0), n: n_bad, gated: false });
            self.seq = 1;
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
        self.note_join(now, 1, Joiner::Good);
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
        self.sync_est_stamp();
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
                let n = self.affordable(q0, budget).min(headroom).min(max_attempts);
                spent = self.batch_spend(q0, n);
                self.note_join(now, n, Joiner::Batch);
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
                //
                // Past the draw, an admission costs O(1). It moves the
                // purge condition by exactly one (raw or Heuristic 2
                // counter alike), so the headroom counts down; until
                // GoodJEst's state changes it moves the quote by `step`.
                // Admissions reach the window, the counters and GoodJEst
                // as one stretch up to the one whose single join would
                // change that state (`until_change`, worked out at the
                // call's first admission and after each change: most calls
                // admit nobody).
                let mut q = self.quote(now).value();
                let (mut until_purge, mut until_change) = (headroom, 0);
                let (mut stretch, mut step) = (0, 0.0);
                let stop = loop {
                    if attempts >= max_attempts {
                        break BatchStop::MaxAttempts;
                    }
                    let refusals = self
                        .gate
                        .as_mut()
                        .expect("gate present in gated branch")
                        .refusals_before_bad_admit();
                    let attempts_left = max_attempts - attempts;
                    // Can the budget fund all refusals plus the admission,
                    // that is, is `⌊fl(left / q)⌋ > refusals`? A product
                    // settles most runs without the divide: with
                    // `n = refusals + 1` exact (below 2⁵³) and each rounding
                    // off by a factor of at most `1 ± 2⁻⁵³`,
                    // `fl(fl(n·q)·(1 + 2⁻⁵⁰)) ≤ left` (`4ε = 2⁻⁵⁰`) gives
                    // `left ≥ n·q·(1 + 2⁻⁵⁰)(1 − 2⁻⁵³)² > n·q`, so
                    // `fl(left / q) ≥ n`. Below, only `… <= refusals` and
                    // `min(…, refusals)` read the count, and `n` answers
                    // both as the exact count does.
                    let left = budget - spent;
                    let funded = refusals < 1 << 53
                        && (refusals + 1) as f64 * q * (1.0 + 4.0 * f64::EPSILON) <= left;
                    let affordable_attempts = if funded { refusals + 1 } else { (left / q) as u64 };
                    if refusals >= attempts_left || affordable_attempts <= refusals {
                        // Budget or attempt limit dies inside the refusal run.
                        let burn = affordable_attempts.min(attempts_left).min(refusals);
                        attempts += burn;
                        spent += burn as f64 * q;
                        break if attempts >= max_attempts {
                            BatchStop::MaxAttempts
                        } else {
                            BatchStop::Budget
                        };
                    }
                    attempts += refusals + 1;
                    spent += (refusals + 1) as f64 * q;
                    admitted += 1;
                    if until_change == 0 {
                        until_change = self.est.joins_until_change(now);
                        step = self.quote_step(now);
                    }
                    (stretch, until_change) = (stretch + 1, until_change - 1);
                    if until_change == 0 {
                        self.note_join(now, stretch, Joiner::Gated);
                        stretch = 0;
                        q = self.quote(now).value();
                    } else {
                        q += step;
                    }
                    until_purge -= 1;
                    if until_purge == 0 {
                        break BatchStop::PurgeTriggered;
                    }
                };
                self.note_join(now, stretch, Joiner::Gated);
                BatchAdmission { admitted, attempts, spent: Cost(spent), stop }
            }
        }
    }

    fn bad_depart(&mut self, now: Time, n: u64) -> u64 {
        self.remove_bad(now, n, true, true)
    }

    fn purge_due(&self, _now: Time) -> bool {
        // `progress · den > size · num` via the cached cap — this runs on
        // every engine event.
        self.iter_progress() > self.iter_admission_cap
    }

    fn purge(&mut self, now: Time, retain_bad: u64) -> PurgeReport {
        if self.heuristic3_skips(now) {
            // A skipped purge still ends the iteration, so Heuristic 1's
            // deferred estimator update is released here too.
            self.est.on_purge_complete(now);
            self.sync_est_stamp();
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
        let removed = self.remove_bad(now, to_remove, false, false);
        debug_assert_eq!(removed, to_remove);
        let good_cost = Cost(self.n_good as f64);
        let adv_cost = Cost(retain as f64);
        self.est.on_purge_complete(now);
        self.sync_est_stamp();
        self.reset_iteration(now);
        PurgeReport { good_cost, adv_cost, bad_removed: removed, skipped: false }
    }

    /// Applies the cycles of a purge cascade in closed form where each
    /// cycle provably leaves the state as it found it, but for `seq` (one
    /// per batch) and the iteration's start stamp: a batch of the whole
    /// headroom `h` joins as one run, the purge removes it, and the
    /// iteration resets. That needs
    ///
    /// * no gate, no Heuristic 2 or 3, and an estimator that rolls rather
    ///   than defers (no Heuristic 1);
    /// * no Sybil ID present, and an iteration that began at `now` and has
    ///   counted no event: every join and departure it counts moves
    ///   `iter_events`, so its threshold, window and counters are still
    ///   what the reset left, and `h` is the whole cap plus 1;
    /// * the batch's stamp `(now, seq)` strictly above the estimator's
    ///   interval start, so its IDs leave as new ones (at equality, the
    ///   interval-start tie, the engine runs that cycle itself);
    /// * GoodJEst absorbing `h` joins and their departure unchanged.
    ///
    /// `Ergo::cycles_afforded` counts the cycles and the budget they
    /// leave.
    fn repeat_purge_cycles(
        &mut self,
        now: Time,
        budget: Cost,
        max_cycles: u64,
    ) -> Option<PurgeCycles> {
        let plain = self.gate.is_none()
            && !self.cfg.heuristics.h2_symdiff_trigger
            && !self.cfg.heuristics.h3_conditional_purge
            && !self.cfg.estimator.align_to_iterations;
        if !plain || self.n_bad != 0 || self.iter_start != now || self.iter_events != 0 {
            return None;
        }
        let (h, q0) = (self.admissions_until_purge(), self.quote(now).value());
        let spent = self.batch_spend(q0, h);
        let (k, budget_left) = self.cycles_afforded(q0, h, spent, budget.value(), max_cycles);
        // `k == 0` is the common case: what a purge leaves of the budget
        // seldom affords another whole batch.
        if k == 0 || (now, self.seq) <= self.est_start || !self.est.absorbs_transient_joins(now, h)
        {
            return None;
        }
        self.seq += k;
        self.iter_start_stamp = (now, self.seq);
        Some(PurgeCycles {
            cycles: k,
            budget_left: Cost(budget_left),
            batch: BatchAdmission {
                admitted: h,
                attempts: h,
                spent: Cost(spent),
                stop: BatchStop::PurgeTriggered,
            },
            purge: PurgeReport {
                good_cost: Cost(self.n_good as f64),
                adv_cost: Cost::ZERO,
                bad_removed: h,
                skipped: false,
            },
        })
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

    /// Appends the estimator's completed intervals; purges log nothing
    /// (the engine counts them from their [`PurgeReport`]s).
    fn drain_events_into(&mut self, out: &mut Vec<DefenseEvent>) {
        self.est.drain_intervals_with(|rec| {
            out.push(DefenseEvent::EstimateUpdated {
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

    /// A hand-built config with Heuristic 1 on in `heuristics` alone would
    /// run without it while its Debug text says it is on.
    #[test]
    #[should_panic(expected = "Heuristic 1 is stored twice and the copies disagree")]
    fn a_config_whose_heuristic_1_copies_disagree_panics() {
        Ergo::new(ErgoConfig { heuristics: Heuristics::ch1(), ..ErgoConfig::default() });
    }

    /// Both profiles stop at the membership counter, ahead of the
    /// estimator's own size counter (checked too, for callers without a
    /// membership counter: `goodjest::tests::size_counter_overflow_panics`).
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

    /// One batch→purge cycle as the engine's loop runs it, the budget
    /// spent as the engine spends it.
    fn cycle(e: &mut Ergo, now: Time, budget: &mut f64) -> (BatchAdmission, PurgeReport) {
        let batch = e.bad_join_batch(now, Cost(*budget), u64::MAX);
        assert_eq!(batch.stop, BatchStop::PurgeTriggered);
        *budget -= batch.spent.value();
        (batch, e.purge(now, 0))
    }

    /// `repeat_purge_cycles` against the cycles one at a time, from the
    /// state one cycle at `now` leaves: the same reports, the same state,
    /// and the loop's next batch no longer whole (or capped by `max`).
    fn check_repeats(e: &Ergo, now: Time, budget: f64, max: u64) -> u64 {
        let (mut collapsed, mut looped) = (e.clone(), e.clone());
        let Some(cycles) = collapsed.repeat_purge_cycles(now, Cost(budget), max) else {
            return 0;
        };
        let mut b = budget;
        for _ in 0..cycles.cycles {
            assert_eq!(cycle(&mut looped, now, &mut b), (cycles.batch, cycles.purge));
        }
        assert_eq!(format!("{collapsed:?}"), format!("{looped:?}"));
        assert_eq!(cycles.budget_left.value().to_bits(), b.to_bits(), "budget {budget:e}");
        if cycles.cycles < max {
            let last = looped.bad_join_batch(now, Cost(b), u64::MAX);
            assert_eq!(last.stop, BatchStop::Budget, "{last:?}");
        }
        cycles.cycles
    }

    #[test]
    fn repeated_purge_cycles_leave_what_the_cycles_one_at_a_time_leave() {
        let odd_cost =
            ErgoConfig { entrance: EntrancePolicy::Constant(1.37), ..ErgoConfig::ccom() };
        for cfg in [ErgoConfig::ccom(), ErgoConfig::default(), odd_cost] {
            let mut e = Ergo::new(cfg);
            e.init(Time::ZERO, 1100, 0);
            let mut budget = 1e6;
            cycle(&mut e, Time(1.0), &mut budget);
            // Headroom 101: 101 at a constant 1, 5 151 from quote 1 rate-based.
            let per_cycle = e.batch_spend(1.0, 101);
            let k = check_repeats(&e, Time(1.0), 10.5 * per_cycle, u64::MAX);
            assert_eq!(k, 10, "{cfg:?}");
            assert_eq!(check_repeats(&e, Time(1.0), 10.5 * per_cycle, 4), 4);
            assert_eq!(check_repeats(&e, Time(1.0), 0.5 * per_cycle, u64::MAX), 0);
            // A few ulps either side of whole multiples of the spend. At
            // 1.37 the engine's own subtractions round, so 40 cycles'
            // worth may buy 39; integral spends subtract exactly, so an
            // ulp short of `m` cycles affords one fewer.
            for m in [1.0, 2.0, 7.0, 40.0] {
                for moved in [-4, -1, 0, 1, 4] {
                    let b = ulps(m * per_cycle, moved);
                    let k = check_repeats(&e, Time(1.0), b, u64::MAX);
                    assert_eq!(check_repeats(&e, Time(1.0), b, 3), k.min(3));
                    if per_cycle.fract() == 0.0 {
                        assert_eq!(k, m as u64 - u64::from(moved < 0), "{cfg:?} {b:e}");
                    }
                }
            }
            // Not after a batch that left Sybil IDs behind, nor with a gate.
            let mut partial = e.clone();
            assert_eq!(partial.bad_join_batch(Time(1.0), Cost(1.5), u64::MAX).admitted, 1);
            assert_eq!(partial.repeat_purge_cycles(Time(1.0), Cost(1e9), u64::MAX), None);
            // Nor once the iteration has counted an event, or began earlier.
            let mut joined = e.clone();
            joined.good_join(Time(1.0));
            assert_eq!(joined.repeat_purge_cycles(Time(1.0), Cost(1e9), u64::MAX), None);
            assert_eq!(e.clone().repeat_purge_cycles(Time(2.0), Cost(1e9), u64::MAX), None);
            let mut gated = Ergo::new(cfg).with_gate(ClassifierGate::with_accuracy(0.98, 1));
            gated.init(Time::ZERO, 1100, 0);
            cycle(&mut gated, Time(1.0), &mut 1e9);
            assert_eq!(gated.repeat_purge_cycles(Time(1.0), Cost(1e9), u64::MAX), None);
        }
    }

    /// The walk [`Ergo::cycles_afforded`] replaces where it can.
    fn walked(e: &Ergo, q0: f64, h: u64, spent: f64, mut b: f64, max: u64) -> (u64, f64) {
        let mut k = 0;
        while k < max && spent <= b && e.affordable(q0, b) >= h {
            b -= spent;
            k += 1;
        }
        (k, b)
    }

    /// `b` moved by `ulps` units in the last place (negative: down).
    fn ulps(b: f64, ulps: i32) -> f64 {
        (0..ulps.abs()).fold(b, |b, _| if ulps < 0 { b.next_down() } else { b.next_up() })
    }

    /// The division counts the cycles and leaves the budget the walk does,
    /// bit for bit, at budgets a few ulps either side of whole multiples
    /// of a cycle's spend, under the `max_cycles` cap and near `2⁵²`; a
    /// non-integral constant cost (1.37) walks.
    #[test]
    fn the_closed_cycle_count_is_the_walk() {
        let cost = |c| ErgoConfig { entrance: EntrancePolicy::Constant(c), ..ErgoConfig::ccom() };
        for cfg in [ErgoConfig::default(), ErgoConfig::ccom(), cost(3.0), cost(1.37)] {
            let e = Ergo::new(cfg);
            for (q0, h) in [(1.0, 1), (1.0, 101), (7.0, 101), (1.0, 4097), (250.0, 33)] {
                let spent = e.batch_spend(q0, h);
                for m in [0.0, 1.0, 2.0, 3.0, 7.0, 50.0, 1000.0] {
                    for moved in [-4, -1, 0, 1, 4, 8] {
                        let b = ulps(m * spent, moved);
                        for max in [u64::MAX, 3, 0] {
                            let (k, left) = e.cycles_afforded(q0, h, spent, b, max);
                            let (wk, wleft) = walked(&e, q0, h, spent, b, max);
                            assert_eq!((k, left.to_bits()), (wk, wleft.to_bits()), "{cfg:?} {b:e}");
                        }
                    }
                }
                // Near 2⁵² the walk is too long to run whole: cap it.
                for b in [ulps(TWO_52, -1), ulps(TWO_52, -3) - 0.5, TWO_52, 3e15 + 0.25] {
                    let (k, left) = e.cycles_afforded(q0, h, spent, b, 5);
                    let (wk, wleft) = walked(&e, q0, h, spent, b, 5);
                    assert_eq!((k, left.to_bits()), (wk, wleft.to_bits()), "{cfg:?} {b:e}");
                }
            }
        }
    }

    /// At interval threshold 1/20 the first whole batch ends GoodJEst's
    /// interval and the one after it is the interval-start tie: both run
    /// one at a time, and the cycles after them repeat.
    #[test]
    fn the_cycle_that_rolls_the_estimator_and_the_tie_after_it_are_not_repeated() {
        let mut cfg = ErgoConfig::ccom();
        cfg.estimator.interval_threshold = crate::params::Ratio::new(1, 20);
        let mut e = Ergo::new(cfg);
        e.init(Time::ZERO, 110, 0);
        let (now, mut budget) = (Time(1.0), 1e3);
        assert_eq!(check_repeats(&e, now, budget, u64::MAX), 0, "the batch would roll");
        cycle(&mut e, now, &mut budget);
        assert_eq!(e.estimator().update_count(), 1);
        assert_eq!((now, e.seq), e.est_start);
        assert_eq!(check_repeats(&e, now, budget, u64::MAX), 0, "the tie");
        cycle(&mut e, now, &mut budget);
        assert_eq!(check_repeats(&e, now, budget, u64::MAX), 88);
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

/// The classifier-gated branch of `bad_join_batch` as it stood before
/// admissions were noted in stretches — one quote, one `note_join` and one
/// purge check per admission, each admission a one-ID batch run that
/// GoodJEst sees join and leave on its own — kept verbatim as the reference
/// the production branch must reproduce decision for decision.
#[cfg(test)]
mod differential {
    use super::*;
    use crate::params::{Heuristics, Ratio};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The reference loop. `note_join(now, 1, Joiner::Batch)` files what
    /// `note_join(now, 1, true)` did: a one-ID run and one sequence number.
    fn reference_gated_batch(
        e: &mut Ergo,
        now: Time,
        budget: Cost,
        max_attempts: u64,
    ) -> BatchAdmission {
        let mut spent = 0.0f64;
        let mut admitted = 0u64;
        let mut attempts = 0u64;
        let budget = budget.value();

        let headroom = e.admissions_until_purge();
        if headroom == 0 {
            return BatchAdmission {
                admitted: 0,
                attempts: 0,
                spent: Cost::ZERO,
                stop: BatchStop::PurgeTriggered,
            };
        }
        let stop;
        loop {
            if attempts >= max_attempts {
                stop = BatchStop::MaxAttempts;
                break;
            }
            let q = e.quote(now).value();
            let refusals =
                e.gate.as_mut().expect("gate present in gated branch").refusals_before_bad_admit();
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
            e.note_join(now, 1, Joiner::Batch);
            admitted += 1;
            if e.admissions_until_purge() == 0 {
                stop = BatchStop::PurgeTriggered;
                break;
            }
        }
        BatchAdmission { admitted, attempts, spent: Cost(spent), stop }
    }

    /// What a caller can observe of an Ergo after a call at `now`, plus the
    /// estimator's and Heuristic 2's symmetric differences, which a
    /// misfiled run moves first.
    #[derive(Debug, PartialEq)]
    struct Seen {
        quote: Cost,
        purge_due: bool,
        n_members: u64,
        n_bad: u64,
        estimate: f64,
        iteration_events: u64,
        progress: u64,
        symdiff: u64,
        log: Vec<DefenseEvent>,
    }

    fn seen(e: &mut Ergo, now: Time) -> Seen {
        let mut log = Vec::new();
        e.drain_events_into(&mut log);
        Seen {
            quote: e.quote(now),
            purge_due: e.purge_due(now),
            n_members: e.n_members(),
            n_bad: e.n_bad(),
            estimate: e.estimate(),
            iteration_events: e.iteration_events(),
            progress: e.iter_progress(),
            symdiff: e.est.symdiff(),
            log,
        }
    }

    /// Production and the reference, fed the same calls.
    struct Pair {
        production: Ergo,
        reference: Ergo,
        case: String,
        calls: Vec<String>,
    }

    impl Pair {
        /// Makes one call on both (`f`'s flag says which is the reference)
        /// and compares its result and what is [`Seen`] after it; returns
        /// the result and whether an estimator interval ended.
        fn call<R: PartialEq + std::fmt::Debug>(
            &mut self,
            now: Time,
            call: String,
            f: impl Fn(&mut Ergo, bool) -> R,
        ) -> (R, bool) {
            self.calls.push(format!("t={}: {call}", now.as_secs()));
            let result = (f(&mut self.production, false), f(&mut self.reference, true));
            let after = (seen(&mut self.production, now), seen(&mut self.reference, now));
            if result.0 != result.1 || after.0 != after.1 {
                let recent = &self.calls[self.calls.len().saturating_sub(12)..];
                panic!(
                    "{}: stretches vs one at a time after {} calls, the last {recent:#?}:\n\
                     result {:?} vs {:?}\nafter {:#?}\nvs {:#?}",
                    self.case,
                    self.calls.len(),
                    result.0,
                    result.1,
                    after.0,
                    after.1
                );
            }
            (result.0, !after.0.log.is_empty())
        }
    }

    fn pick<T: Copy>(rng: &mut StdRng, from: &[T]) -> T {
        from[rng.gen_range(0..from.len())]
    }

    /// Seeded random call sequences on ERGO-SF at three accuracies,
    /// ERGO-SF-Full (Heuristics 1–3 and the gate) and a gated constant
    /// entrance (cost 1 or 0.3), each at interval thresholds 5/12, 1/2 and
    /// 7/9, with and without initial Sybils. Right after an estimator
    /// interval ends or a purge resolves, the next call is likely a Sybil
    /// batch at the same instant, so stretches start on an interval start
    /// (the tie). Half the budgets sit within a few ulps of a multiple of
    /// the quote, where the funding check's guard band decides.
    #[test]
    fn stretches_decide_what_one_admission_at_a_time_decided() {
        let thresholds = [Ratio::new(5, 12), Ratio::new(1, 2), Ratio::new(7, 9)];
        for case in 0..216u64 {
            let mut rng = StdRng::seed_from_u64(0xd1ff_e4e0 + case);
            let accuracy = [0.98, 0.92, 0.5][case as usize % 3];
            let mut cfg = match case / 3 % 4 {
                0 | 1 => ErgoConfig::default(),
                2 => ErgoConfig::with_heuristics(Heuristics::ch2()),
                // A fractional entrance cost makes `n·q` round.
                _ if case % 2 == 1 => {
                    ErgoConfig { entrance: EntrancePolicy::Constant(0.3), ..ErgoConfig::ccom() }
                }
                _ => ErgoConfig::ccom(),
            };
            cfg.estimator.interval_threshold = thresholds[(case / 12 % 3) as usize];
            // Longer iterations let more intervals end inside one call.
            if rng.gen_bool(0.4) {
                cfg.iteration_threshold = Ratio::new(1, 3);
            }
            let (n_good, n_bad) = (rng.gen_range(12..150u64), pick(&mut rng, &[0, 0, 1, 3, 20]));
            let gated = |cfg: ErgoConfig| {
                Ergo::new(cfg).with_gate(ClassifierGate::with_accuracy(accuracy, case))
            };
            let mut pair = Pair {
                production: gated(cfg),
                reference: gated(cfg),
                case: format!("case {case} (accuracy {accuracy}, {cfg:?}, {n_good}+{n_bad})"),
                calls: Vec::new(),
            };
            let init = format!("init({n_good}, {n_bad})");
            pair.call(Time::ZERO, init, |e, _| e.init(Time::ZERO, n_good, n_bad));
            let mut goods = vec![Time::ZERO; n_good as usize];
            let (mut now, mut seek) = (Time::ZERO, true);
            for _ in 0..rng.gen_range(100..300u32) {
                let tie = seek && rng.gen_bool(0.8);
                if pair.production.purge_due(now) && rng.gen_bool(0.7) {
                    let kappa_cap = pair.production.n_members() / 18;
                    let retain = rng.gen_range(0..=kappa_cap.min(pair.production.n_bad()));
                    pair.call(now, format!("purge({retain})"), |e, _| e.purge(now, retain));
                    seek = true;
                    continue;
                }
                let window = 1.0 / pair.production.estimate().max(0.05);
                if !tie {
                    now += pick(&mut rng, &[0.0, 0.3, 0.6, 1.0, 1.5, 8.0]) * window;
                }
                let op = if tie { pick(&mut rng, &[0, 3, 3, 3, 3]) } else { rng.gen_range(0..10) };
                let rolled = if op < 3 {
                    let (admission, rolled) =
                        pair.call(now, "good_join".into(), |e, _| e.good_join(now));
                    if admission.is_admitted() {
                        goods.push(now);
                    }
                    rolled
                } else if op < 7 {
                    // Exact multiples of the quote, and a few ulps either
                    // side, put the first run's funding on the guard band:
                    // `(1 + 2⁻⁵⁰)` is 4 to 8 ulps.
                    let budget = Cost(if rng.gen_bool(0.5) {
                        pick(&mut rng, &[0.5, 1.0, 3.0, 10.0, 40.0, 300.0, 5e3, 1e6])
                    } else {
                        let q = pair.production.quote(now).value();
                        let edge = pick(&mut rng, &[1.0, 2.0, 3.0, 4.0, 7.0, 50.0]) * q;
                        let ulps = pick(&mut rng, &[-4, -1, 0, 1, 4, 8]);
                        f64::from_bits(edge.to_bits().wrapping_add_signed(ulps))
                    });
                    let max = pick(&mut rng, &[1, 2, 5, 50, u64::MAX]);
                    let call = format!("bad_join_batch({}, {max})", budget.value());
                    pair.call(now, call, |e, reference| {
                        if reference {
                            reference_gated_batch(e, now, budget, max)
                        } else {
                            e.bad_join_batch(now, budget, max)
                        }
                    })
                    .1
                } else if op < 9 && !goods.is_empty() {
                    let joined_at = goods.swap_remove(rng.gen_range(0..goods.len()));
                    let call = format!("good_depart(joined {})", joined_at.as_secs());
                    pair.call(now, call, |e, _| e.good_depart(now, joined_at)).1
                } else {
                    let n = pick(&mut rng, &[1, 2, 5, 40]);
                    pair.call(now, format!("bad_depart({n})"), |e, _| e.bad_depart(now, n)).1
                };
                seek = rolled;
            }
        }
    }
}
