//! The GoodJEst good-join-rate estimator (paper Figure 5, Section 8).
//!
//! GoodJEst divides time into *intervals*: an interval ends at the first
//! time `t'` with `|S(t') △ S(t)| ≥ 5/12·|S(t')|`, where `t` is the interval
//! start. At that point the estimate is set to `J̃ ← |S(t')| / (t' − t)` and
//! a new interval begins.
//!
//! The estimator never learns which IDs are good: it observes only the join
//! and departure stream over *all* IDs. Theorem 2 proves that as long as the
//! fraction of bad IDs stays below 1/6 (which Ergo guarantees), `J̃` is
//! within `α,β`-polynomial factors of the true good join rate.
//!
//! # Example
//!
//! ```
//! use ergo_core::goodjest::GoodJEst;
//! use ergo_core::params::GoodJEstConfig;
//! use sybil_sim::time::Time;
//!
//! // 100 IDs at start; the initial estimate is |S(0)| / init_duration.
//! let mut est = GoodJEst::new(GoodJEstConfig::default(), Time::ZERO, 100);
//! assert_eq!(est.estimate(), 100.0);
//!
//! // Joins accumulate symmetric difference; with k joins the interval ends
//! // once 12·k ≥ 5·(100+k), i.e. at the 72nd join.
//! for i in 0..80 {
//!     est.on_join(Time(i as f64 + 1.0), 1);
//! }
//! // The interval rolled: the estimate now reflects ~2.4 IDs/s (172 IDs
//! // over 72 s) instead of the wild initialization guess.
//! assert!(est.estimate() < 10.0);
//! ```

use crate::params::GoodJEstConfig;
use crate::symdiff::SymdiffTracker;
use sybil_sim::time::Time;

/// A completed estimator interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IntervalRecord {
    /// Interval start `t`.
    pub start: Time,
    /// Interval end `t'`.
    pub end: Time,
    /// The estimate set at the end: `|S(t')| / (t' − t)`.
    pub estimate: f64,
}

/// The GoodJEst estimator state machine.
#[derive(Clone, Debug)]
pub struct GoodJEst {
    cfg: GoodJEstConfig,
    /// Interval start `t` (the last estimate-update time).
    t_start: Time,
    /// Symmetric difference vs membership at `t_start`.
    tracker: SymdiffTracker,
    /// Current system size `|S(t')|`.
    size: u64,
    /// Incremental threshold gap `den·symdiff − num·size` (for the
    /// interval threshold `num/den`). The end-of-interval condition
    /// `|S(t')△S(t)| ≥ num/den·|S(t')|` is exactly `gap ≥ 0`, so the
    /// per-event check — this estimator is consulted on every join and
    /// departure the engine dispatches — is a sign test on a running
    /// counter instead of two multiplications. Maintained exactly in
    /// integers (i128; [`GoodJEst::new`] bounds the ratio parts so the
    /// products can never overflow), so the semantics are bit-identical
    /// to recomputing `den·symdiff ≥ num·size`.
    gap: i128,
    /// Current estimate `J̃`.
    estimate: f64,
    /// Heuristic 1: the threshold has been crossed and the update is
    /// deferred until the iteration ends (post-purge).
    pending: bool,
    /// Intervals completed so far (estimate updates performed).
    updates: u64,
    /// Completed intervals, drained by the caller for analysis.
    log: Vec<IntervalRecord>,
}

impl GoodJEst {
    /// Initializes the estimator at time `now` with `initial_size` members.
    ///
    /// The initial estimate is `initial_size / cfg.init_duration`, mirroring
    /// the paper's "number of IDs at system initialization divided by the
    /// total time taken for initialization".
    pub fn new(cfg: GoodJEstConfig, now: Time, initial_size: u64) -> Self {
        assert!(cfg.init_duration > 0.0, "init duration must be positive");
        // The gap counter multiplies the ratio parts by u64 counters in
        // i128; bounding them at 2³² keeps every product (and the running
        // sum, whose magnitude is bounded by the current `den·symdiff` and
        // `num·size` terms) exactly representable.
        assert!(
            cfg.interval_threshold.num < (1 << 32) && cfg.interval_threshold.den < (1 << 32),
            "interval threshold parts must fit 32 bits"
        );
        GoodJEst {
            cfg,
            t_start: now,
            tracker: SymdiffTracker::new(),
            size: initial_size,
            gap: -(cfg.interval_threshold.num as i128) * initial_size as i128,
            estimate: initial_size as f64 / cfg.init_duration,
            pending: false,
            updates: 0,
            log: Vec::new(),
        }
    }

    /// Pre-reserves room for `n` interval records in the log. Called from
    /// `Defense::init` (outside the engine's measured steady-state span) so
    /// interval rolls never grow the log mid-loop; the drain-by-visit path
    /// keeps the capacity afterwards.
    pub fn reserve_log(&mut self, n: usize) {
        self.log.reserve(n);
    }

    /// Heap bytes the interval log holds, at its capacity.
    pub fn heap_bytes(&self) -> usize {
        self.log.capacity() * std::mem::size_of::<IntervalRecord>()
    }

    /// Number of completed intervals (estimate updates) so far. Zero means
    /// the current estimate is still the initialization guess.
    pub fn update_count(&self) -> u64 {
        self.updates
    }

    /// The current estimate `J̃` of the good join rate (IDs/second).
    pub fn estimate(&self) -> f64 {
        self.estimate
    }

    /// Start time of the current interval.
    pub fn interval_start(&self) -> Time {
        self.t_start
    }

    /// Current tracked system size `|S(t')|`.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Current symmetric difference vs the interval-start membership.
    pub fn symdiff(&self) -> u64 {
        self.tracker.symdiff()
    }

    /// True if a departure of an ID that joined at `joined_at` counts as an
    /// *old* member (present at the interval start) for this estimator.
    pub fn classify_old(&self, joined_at: Time) -> bool {
        joined_at <= self.t_start
    }

    /// Records `n` simultaneous joins.
    ///
    /// # Panics
    ///
    /// Panics with `estimator size overflow` if the size would pass
    /// `u64::MAX`, in every build profile: callers such as the admission
    /// gate feed joins without a membership counter of their own in front.
    pub fn on_join(&mut self, now: Time, n: u64) {
        self.size = self.size.checked_add(n).expect("estimator size overflow");
        self.tracker.on_join(n);
        // Δsymdiff = +n, Δsize = +n.
        let th = self.cfg.interval_threshold;
        self.gap += (th.den as i128 - th.num as i128) * n as i128;
        debug_assert_eq!(self.gap >= 0, th.le_scaled(self.tracker.symdiff(), self.size));
        self.maybe_roll(now);
    }

    /// Records `n` simultaneous departures; `old` says whether the departing
    /// IDs were members at the interval start (see [`classify_old`]).
    ///
    /// [`classify_old`]: GoodJEst::classify_old
    pub fn on_depart(&mut self, now: Time, old: bool, n: u64) {
        debug_assert!(self.size >= n, "departure underflow");
        let th = self.cfg.interval_threshold;
        // Mirror the counters' saturation exactly so the gap stays equal
        // to `den·symdiff − num·size` even for a misclassifying caller.
        let size_removed = n.min(self.size);
        self.size -= size_removed;
        if old {
            self.tracker.on_depart_old(n);
            // Δsymdiff = +n, Δsize = −size_removed.
            self.gap += th.den as i128 * n as i128 + th.num as i128 * size_removed as i128;
        } else {
            let sym_removed = n.min(self.tracker.new_present());
            self.tracker.on_depart_new(n);
            // Δsymdiff = −sym_removed, Δsize = −size_removed.
            self.gap +=
                th.num as i128 * size_removed as i128 - th.den as i128 * sym_removed as i128;
        }
        debug_assert_eq!(self.gap >= 0, th.le_scaled(self.tracker.symdiff(), self.size));
        self.maybe_roll(now);
    }

    /// Heuristic 1 hook: called at each iteration end (after the purge, or
    /// after a Heuristic-3 skip decision) so a deferred update uses the
    /// iteration-boundary membership. Skipped purges must still release
    /// deferred updates — otherwise Heuristics 1 and 3 deadlock, freezing
    /// the estimate and skipping purges forever.
    pub fn on_purge_complete(&mut self, now: Time) {
        if self.cfg.align_to_iterations && self.pending && now > self.t_start {
            self.roll(now);
        }
    }

    /// True if the interval-end condition `|S(t')△S(t)| ≥ 5/12·|S(t')|` holds.
    ///
    /// A sign test on the incrementally maintained gap counter — exactly
    /// equivalent to `interval_threshold.le_scaled(symdiff, size)`, which
    /// would cost two multiplications on the per-event path.
    pub fn threshold_met(&self) -> bool {
        self.gap >= 0
    }

    /// How many single joins at `now` can be recorded up to and including
    /// the first whose [`maybe_roll`](Self::maybe_roll) would change the
    /// estimator's state (roll the interval, or newly set Heuristic 1's
    /// `pending`); `u64::MAX` when none would. Every join moves the gap by
    /// the same `den − num`, so that many joins recorded as one
    /// [`on_join`](Self::on_join) leave the estimator exactly as single
    /// joins would.
    pub(crate) fn joins_until_change(&self, now: Time) -> u64 {
        let th = self.cfg.interval_threshold;
        self.events_until_change(now, th.den as i128 - th.num as i128)
    }

    /// The same for departures at `now` of IDs of one class (`old`, see
    /// [`classify_old`](Self::classify_old)), also cut where one departure
    /// would stop moving the gap by the same amount (the size, or for new
    /// IDs the new members present, running out). At least 1: a single
    /// departure is always exact.
    pub(crate) fn departures_until_change(&self, now: Time, old: bool) -> u64 {
        let th = self.cfg.interval_threshold;
        let (delta, steady) = if old {
            (th.den as i128 + th.num as i128, self.size)
        } else {
            (th.num as i128 - th.den as i128, self.size.min(self.tracker.new_present()))
        };
        self.events_until_change(now, delta).min(steady).max(1)
    }

    /// Whether `n` joins at `now` recorded as one event, then the same `n`
    /// IDs leaving as new ones in one event, leave the estimator exactly as
    /// it was: the joins change nothing ([`joins_until_change`] is past
    /// them), and the departures, which bring the gap back to where it is
    /// now, change nothing either.
    ///
    /// [`joins_until_change`]: Self::joins_until_change
    pub(crate) fn absorbs_transient_joins(&self, now: Time, n: u64) -> bool {
        self.joins_until_change(now) > n && (self.gap < 0 || self.inert(now))
    }

    /// Whether a crossing of the threshold at `now` would leave the state
    /// alone: under Heuristic 1 it only sets `pending`, once; otherwise it
    /// rolls, and only past the interval start.
    fn inert(&self, now: Time) -> bool {
        if self.cfg.align_to_iterations {
            self.pending
        } else {
            now <= self.t_start
        }
    }

    /// The least `k ≥ 1` with `gap + k·delta ≥ 0`, if reaching it changes
    /// state as [`maybe_roll`](Self::maybe_roll) would; `u64::MAX` if no
    /// event of this kind can.
    fn events_until_change(&self, now: Time, delta: i128) -> u64 {
        if self.inert(now) || (self.gap + delta < 0 && delta <= 0) {
            return u64::MAX;
        }
        if self.gap + delta >= 0 {
            return 1;
        }
        // Here `−gap > delta > 0`. In 64 bits when both fit: an `i128`
        // division is a library call.
        let need = -self.gap;
        match (u64::try_from(need), u64::try_from(delta)) {
            (Ok(need), Ok(delta)) => need.div_ceil(delta),
            _ => u64::try_from((need as u128).div_ceil(delta as u128)).unwrap_or(u64::MAX),
        }
    }

    fn maybe_roll(&mut self, now: Time) {
        if !self.threshold_met() {
            return;
        }
        if self.cfg.align_to_iterations {
            self.pending = true;
        } else if now > self.t_start {
            self.roll(now);
        }
        // If now == t_start the update waits for time to advance (a zero-
        // length interval would produce an infinite estimate); the threshold
        // re-fires on the next event.
    }

    fn roll(&mut self, now: Time) {
        let dt = now - self.t_start;
        debug_assert!(dt > 0.0);
        self.estimate = self.size as f64 / dt;
        self.log.push(IntervalRecord { start: self.t_start, end: now, estimate: self.estimate });
        self.t_start = now;
        self.tracker.reset();
        // symdiff re-anchors to 0: gap = −num·size (one multiply per
        // interval, not per event).
        self.gap = -(self.cfg.interval_threshold.num as i128) * self.size as i128;
        self.pending = false;
        self.updates += 1;
    }

    /// Visits and clears the completed-interval log without allocating —
    /// the log's capacity is retained for the next intervals.
    pub fn drain_intervals_with(&mut self, mut f: impl FnMut(IntervalRecord)) {
        for rec in self.log.drain(..) {
            f(rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Ratio;

    fn cfg() -> GoodJEstConfig {
        GoodJEstConfig::default()
    }

    /// The completed-interval log, drained.
    fn drain(est: &mut GoodJEst) -> Vec<IntervalRecord> {
        let mut log = Vec::new();
        est.drain_intervals_with(|rec| log.push(rec));
        log
    }

    #[test]
    fn initial_estimate_uses_init_duration() {
        let est = GoodJEst::new(GoodJEstConfig { init_duration: 2.0, ..cfg() }, Time::ZERO, 100);
        assert_eq!(est.estimate(), 50.0);
    }

    #[test]
    fn interval_rolls_at_symdiff_threshold() {
        // Size 12; threshold 5/12 → symdiff 5 with size fixed... but size
        // grows with joins. Use joins only: after k joins size = 12 + k,
        // symdiff = k; roll when 12·k ≥ 5·(12+k) → 7k ≥ 60 → k = 9
        // (12·9=108 ≥ 5·21=105).
        let mut est = GoodJEst::new(cfg(), Time::ZERO, 12);
        for k in 1..=8 {
            est.on_join(Time(k as f64), 1);
            assert!(drain(&mut est).is_empty(), "rolled early at k={k}");
        }
        est.on_join(Time(9.0), 1);
        let log = drain(&mut est);
        assert_eq!(log.len(), 1);
        // |S(t')| = 21 over 9 seconds.
        assert!((log[0].estimate - 21.0 / 9.0).abs() < 1e-12);
        assert_eq!(est.interval_start(), Time(9.0));
        assert_eq!(est.symdiff(), 0);
    }

    #[test]
    fn departures_of_old_ids_count_once() {
        // Old departures keep inflating the symmetric difference even after
        // the IDs are gone; new-join + new-depart pairs cancel.
        let mut est = GoodJEst::new(cfg(), Time::ZERO, 100);
        est.on_join(Time(1.0), 1);
        assert_eq!(est.symdiff(), 1);
        est.on_depart(Time(2.0), false, 1); // the new ID leaves: cancels
        assert_eq!(est.symdiff(), 0);
        est.on_depart(Time(3.0), true, 1); // an old ID leaves: sticks
        assert_eq!(est.symdiff(), 1);
        assert_eq!(est.size(), 99);
    }

    #[test]
    fn classify_old_uses_interval_start() {
        let mut est = GoodJEst::new(cfg(), Time(10.0), 50);
        assert!(est.classify_old(Time(10.0)));
        assert!(est.classify_old(Time(3.0)));
        assert!(!est.classify_old(Time(11.0)));
        // Roll the interval; the boundary moves.
        for k in 0..40 {
            est.on_join(Time(20.0 + k as f64), 1);
        }
        assert!(est.interval_start() > Time(10.0));
        assert!(est.classify_old(est.interval_start()));
    }

    #[test]
    fn heuristic1_defers_until_purge() {
        let mut est =
            GoodJEst::new(GoodJEstConfig { align_to_iterations: true, ..cfg() }, Time::ZERO, 12);
        for k in 1..=20 {
            est.on_join(Time(k as f64), 1);
        }
        // Threshold long since crossed, but no roll yet.
        assert!(drain(&mut est).is_empty());
        let before = est.estimate();
        est.on_purge_complete(Time(25.0));
        let log = drain(&mut est);
        assert_eq!(log.len(), 1);
        assert_ne!(est.estimate(), before);
        assert_eq!(log[0].end, Time(25.0));
    }

    #[test]
    fn zero_length_interval_deferred() {
        // All events at t=0: threshold crossing must not divide by zero.
        let mut est = GoodJEst::new(cfg(), Time::ZERO, 12);
        for _ in 0..30 {
            est.on_join(Time::ZERO, 1);
        }
        assert_eq!(est.estimate(), 12.0); // unchanged
                                          // Time advances: the next event rolls the interval.
        est.on_join(Time(2.0), 1);
        assert!(drain(&mut est).len() == 1);
    }

    #[test]
    fn batch_events_are_counted() {
        let mut est = GoodJEst::new(cfg(), Time::ZERO, 1000);
        est.on_join(Time(1.0), 500);
        // 12·500 ≥ 5·1500 → 6000 ≥ 7500: not yet.
        assert_eq!(drain(&mut est).len(), 0);
        est.on_join(Time(2.0), 200);
        // symdiff 700, size 1700: 8400 ≥ 8500? No.
        est.on_join(Time(3.0), 50);
        // symdiff 750, size 1750: 9000 ≥ 8750 → rolls.
        let log = drain(&mut est);
        assert_eq!(log.len(), 1);
        assert!((log[0].estimate - 1750.0 / 3.0).abs() < 1e-9);
    }

    /// The incremental gap counter agrees with recomputing the threshold
    /// from scratch under arbitrary valid join/departure interleavings
    /// (hand-rolled property loop; ops are a pure function of the seed).
    #[test]
    fn gap_counter_matches_recomputed_threshold() {
        for case in 0u64..48 {
            let threshold = match case % 3 {
                0 => Ratio::new(5, 12),
                1 => Ratio::new(1, 2),
                _ => Ratio::new(7, 9),
            };
            let cfg = GoodJEstConfig { interval_threshold: threshold, ..cfg() };
            let mut est = GoodJEst::new(cfg, Time::ZERO, 40);
            // Present IDs, tracked by join time so departures classify
            // against the estimator's *current* interval boundary.
            let mut present: Vec<Time> = vec![Time::ZERO; 40];
            let mut state = 99u64.wrapping_add(case.wrapping_mul(0x9E3779B97F4A7C15));
            for step in 0..300u64 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let now = Time(step as f64 * 0.5 + 0.5);
                if (state >> 33) % 2 == 0 || present.is_empty() {
                    // Batched joins exercise the n > 1 gap deltas.
                    let n = 1 + (state >> 40) % 3;
                    est.on_join(now, n);
                    present.extend(std::iter::repeat_n(now, n as usize));
                } else {
                    let idx = (state >> 7) as usize % present.len();
                    let joined_at = present.swap_remove(idx);
                    est.on_depart(now, est.classify_old(joined_at), 1);
                }
                // The estimator rolls intervals internally; after each op
                // the sign test must equal the two-multiply recomputation.
                assert_eq!(
                    est.threshold_met(),
                    threshold.le_scaled(est.symdiff(), est.size()),
                    "case {case} step {step}"
                );
                assert_eq!(est.size(), present.len() as u64, "case {case} step {step}");
            }
        }
    }

    /// What `maybe_roll` can change, and the counters a batched call must
    /// leave as single events do.
    fn state(e: &GoodJEst) -> (u64, bool, Time, i128, u64, u64, u64) {
        (e.updates, e.pending, e.t_start, e.gap, e.size, e.symdiff(), e.estimate.to_bits())
    }

    /// One event: a join (`kind` 0) or a departure of an old (1) or new (2)
    /// ID, `n` at once.
    fn event(e: &mut GoodJEst, now: Time, kind: u32, n: u64) {
        match kind {
            0 => e.on_join(now, n),
            _ => e.on_depart(now, kind == 1, n),
        }
    }

    /// The countdowns are exact: the single events before the counted one
    /// leave the interval and Heuristic 1's `pending` alone, the counted one
    /// changes one of them unless the count stopped where the gap's step
    /// would start to vary, and that many events recorded as one call leave the
    /// estimator exactly as the single events do. Joins that leave again at
    /// once leave it as it was exactly when `absorbs_transient_joins` says
    /// they do. Both profiles run it: in
    /// release only the arithmetic guards the closed form.
    #[test]
    fn countdowns_are_exact() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let thresholds = [Ratio::new(5, 12), Ratio::new(1, 2), Ratio::new(7, 9)];
        for case in 0u64..600 {
            let mut rng = StdRng::seed_from_u64(0xc0_de00 + case);
            let cfg = GoodJEstConfig {
                interval_threshold: thresholds[case as usize % 3],
                align_to_iterations: rng.gen_bool(0.5),
                ..cfg()
            };
            let mut est = GoodJEst::new(cfg, Time::ZERO, rng.gen_range(1..200));
            let mut t = 0.0;
            for _ in 0..rng.gen_range(0..80) {
                t += [0.0, 0.5, 1.0][rng.gen_range(0..3usize)];
                match rng.gen_range(0..4) {
                    0 => est.on_join(Time(t), rng.gen_range(1..4)),
                    1 if est.size > est.tracker.new_present() => est.on_depart(Time(t), true, 1),
                    2 if est.tracker.new_present() > 0 => est.on_depart(Time(t), false, 1),
                    _ => est.on_purge_complete(Time(t)),
                }
            }
            let now = Time(t + [0.0, 0.0, 1.0][rng.gen_range(0..3usize)]);
            for n in [1, 3, 40, 1 << 20] {
                let mut e = est.clone();
                e.on_join(now, n);
                let joined_quietly = (e.updates, e.pending) == (est.updates, est.pending);
                if joined_quietly {
                    e.on_depart(now, false, n);
                }
                let unchanged = joined_quietly && state(&e) == state(&est);
                let what = format!("case {case}: {n} transient joins");
                assert_eq!(est.absorbs_transient_joins(now, n), unchanged, "{what}");
            }
            for kind in 0..3u32 {
                let (k, steady) = match kind {
                    0 => (est.joins_until_change(now), u64::MAX),
                    1 => (est.departures_until_change(now, true), est.size),
                    _ => {
                        let steady = est.size.min(est.tracker.new_present());
                        (est.departures_until_change(now, false), steady)
                    }
                };
                if steady == 0 {
                    continue;
                }
                let mut single = est.clone();
                let walk = k.min(5_000);
                for i in 1..=walk {
                    let before = (single.updates, single.pending);
                    event(&mut single, now, kind, 1);
                    let changed = (single.updates, single.pending) != before;
                    let what = format!("case {case} kind {kind}: event {i} of {k}");
                    if i < k {
                        assert!(!changed, "{what} changed the state");
                    } else if !changed {
                        assert_eq!(k, steady, "{what} changed nothing");
                    }
                }
                if k <= walk {
                    let mut batched = est.clone();
                    event(&mut batched, now, kind, k);
                    assert_eq!(
                        state(&batched),
                        state(&single),
                        "case {case} kind {kind}: {k} at once"
                    );
                } else {
                    assert!(k > 5_000 && kind == 0, "case {case} kind {kind}: {k}");
                }
            }
        }
    }

    /// A gap beyond 64 bits takes the 128-bit division, and lands on the
    /// same event the closed form names.
    #[test]
    fn countdowns_past_64_bits_name_the_rolling_event() {
        // At 7/9 the joins would pass `u64::MAX` members first.
        for (threshold, kinds) in [(Ratio::new(5, 12), &[0, 1][..]), (Ratio::new(7, 9), &[1])] {
            let cfg = GoodJEstConfig { interval_threshold: threshold, ..cfg() };
            let est = GoodJEst::new(cfg, Time::ZERO, 1 << 62);
            assert!(u64::try_from(-est.gap).is_err());
            for &kind in kinds {
                let k = match kind {
                    0 => est.joins_until_change(Time(1.0)),
                    _ => est.departures_until_change(Time(1.0), true),
                };
                let mut e = est.clone();
                event(&mut e, Time(1.0), kind, k - 1);
                assert_eq!(e.updates, 0, "kind {kind}: rolled before event {k}");
                event(&mut e, Time(1.0), kind, 1);
                assert_eq!(e.updates, 1, "kind {kind}: event {k} did not roll");
            }
        }
    }

    /// Checked in both profiles: a release build stops where a dev build
    /// does instead of wrapping the size to a small number.
    #[test]
    #[should_panic(expected = "estimator size overflow")]
    fn size_counter_overflow_panics() {
        let mut est = GoodJEst::new(cfg(), Time::ZERO, u64::MAX - 1);
        est.on_join(Time(1.0), 1);
        est.on_join(Time(2.0), 1);
    }

    #[test]
    fn huge_threshold_parts_are_rejected() {
        let c = GoodJEstConfig { interval_threshold: Ratio::new(1 << 33, 1 << 34), ..cfg() };
        let result = std::panic::catch_unwind(|| GoodJEst::new(c, Time::ZERO, 10));
        assert!(result.is_err(), "32-bit bound on ratio parts must be enforced");
    }

    #[test]
    fn custom_threshold() {
        // Section 13.3 variant: interval threshold 1/2.
        let c = GoodJEstConfig { interval_threshold: Ratio::new(1, 2), ..cfg() };
        let mut est = GoodJEst::new(c, Time::ZERO, 10);
        for k in 1..=9 {
            est.on_join(Time(k as f64), 1);
        }
        // After k joins: 2k ≥ 10 + k → k ≥ 10.
        assert!(drain(&mut est).is_empty());
        est.on_join(Time(10.0), 1);
        assert_eq!(drain(&mut est).len(), 1);
    }
}
