//! Sliding-window join counting for the entrance cost.
//!
//! Ergo's Step 1 (paper Figure 4) quotes each joiner a challenge of hardness
//! "1 plus the number of IDs that have joined in the last `1/J̃` seconds of
//! the current iteration". This module maintains the join history of the
//! current iteration as a cumulative-count array with a sliding window
//! cursor, so the windowed count is O(1) for the engine's monotone query
//! pattern, and admitting a *batch* of `n` simultaneous joins has a
//! closed-form total cost
//!
//! ```text
//! cost(n) = n·q₀ + n(n−1)/2      where q₀ is the current quote,
//! ```
//!
//! because each admission raises the next joiner's quote by one. This is the
//! arithmetic-series escalation behind the paper's `Θ(x²)` adversary cost
//! intuition (Section 7.1).

use std::cell::Cell;
use sybil_sim::time::Time;

/// Join history of the current iteration, supporting O(1) amortized
/// appends and windowed counts that are O(1) for the monotone query
/// pattern the engine produces (a maintained sliding cursor), with an
/// O(log n) binary-search fallback when the window edge jumps.
#[derive(Clone, Debug, Default)]
pub struct JoinWindow {
    /// Join timestamps, time-sorted. Structure-of-arrays with `counts`:
    /// the window-boundary walks and searches in [`count_within`] read
    /// only timestamps, so splitting the former `(f64, u64)` pairs halves
    /// the bytes those scans pull through cache.
    ///
    /// [`count_within`]: JoinWindow::count_within
    times: Vec<f64>,
    /// Cumulative joins up to and including the same-index timestamp.
    counts: Vec<u64>,
    /// Memoized window boundary from the previous [`count_within`]
    /// query: the index of the first entry strictly inside that window.
    /// Simulation time is monotone and the window width (`1/J̃`) only
    /// moves at estimator updates, so consecutive queries' boundaries are
    /// usually within a step or two of each other — the next query walks
    /// from here instead of searching. Interior-mutable because quoting
    /// is a read-only operation to callers.
    ///
    /// [`count_within`]: JoinWindow::count_within
    cursor: Cell<usize>,
}

impl JoinWindow {
    /// An empty window.
    pub fn new() -> Self {
        JoinWindow::default()
    }

    /// Records `n` joins at time `now`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `now` precedes the last recorded join.
    pub fn record(&mut self, now: Time, n: u64) {
        if n == 0 {
            return;
        }
        let t = now.as_secs();
        let total = self.total() + n;
        if let Some(&last_t) = self.times.last() {
            debug_assert!(t >= last_t, "joins must be recorded in time order");
            if last_t == t {
                *self.counts.last_mut().expect("times and counts stay in lockstep") = total;
                return;
            }
        }
        self.times.push(t);
        self.counts.push(total);
    }

    /// Pre-reserves room for `n` distinct join timestamps. Called from
    /// `Defense::init` (outside the engine's measured steady-state span)
    /// so iteration-long histories never grow the arrays mid-loop;
    /// [`clear`] keeps capacity, so one reservation covers the whole run.
    ///
    /// [`clear`]: JoinWindow::clear
    pub fn reserve(&mut self, n: usize) {
        self.times.reserve(n);
        self.counts.reserve(n);
    }

    /// Total joins recorded this iteration.
    pub fn total(&self) -> u64 {
        self.counts.last().copied().unwrap_or(0)
    }

    /// Number of joins in the half-open window `(now − width, now]`.
    ///
    /// A non-positive or non-finite `width` counts nothing / everything
    /// respectively consistent with `1/J̃` semantics: `width = ∞` (estimate
    /// 0) counts the whole iteration; `width = 0` counts only joins at
    /// exactly `now`.
    pub fn count_within(&self, now: Time, width: f64) -> u64 {
        let n = self.times.len();
        if n == 0 {
            return 0;
        }
        let cutoff = now.as_secs() - width;
        if cutoff.is_nan() {
            // A NaN width (or NaN `now`) compares false to everything: the
            // cursor walks below would silently stay wherever the previous
            // query left them. Pin the pre-cursor behavior: count nothing,
            // deterministically.
            self.cursor.set(n);
            return 0;
        }
        // Joins strictly after `cutoff` are inside the window. Between
        // estimator updates the width is constant and `now` is monotone,
        // so the boundary index only creeps forward: resume the walk from
        // the previous query's boundary instead of searching. A few steps
        // in either direction covers the overwhelming share of queries;
        // if the boundary jumped (width change at an estimator update, or
        // a burst of appends), gallop outward from the stale cursor and
        // binary-search the bracket — O(log distance) over entries near
        // the cursor, never a cold full-array search.
        const MAX_WALK: usize = 8;
        let mut idx = self.cursor.get().min(n);
        let mut walked = 0usize;
        while walked < MAX_WALK && idx < n && self.times[idx] <= cutoff {
            idx += 1;
            walked += 1;
        }
        while walked < MAX_WALK && idx > 0 && self.times[idx - 1] > cutoff {
            idx -= 1;
            walked += 1;
        }
        if idx < n && self.times[idx] <= cutoff {
            // Boundary is further right: bracket it in (lo, hi].
            let mut step = 1usize;
            let mut lo = idx;
            while idx + step < n && self.times[idx + step] <= cutoff {
                lo = idx + step;
                step *= 2;
            }
            let hi = (idx + step).min(n);
            idx = lo + 1 + self.times[lo + 1..hi].partition_point(|&t| t <= cutoff);
        } else if idx > 0 && self.times[idx - 1] > cutoff {
            // Boundary is further left: gallop down, bracket in
            // [lo, lo + step/2] (clamped — we know it is below idx).
            let mut step = 1usize;
            let mut lo = idx;
            while lo > 0 && self.times[lo - 1] > cutoff {
                lo = lo.saturating_sub(step);
                step *= 2;
            }
            let hi = (lo + step / 2).min(idx);
            idx = lo + self.times[lo..hi].partition_point(|&t| t <= cutoff);
        }
        self.cursor.set(idx);
        let before = if idx == 0 { 0 } else { self.counts[idx - 1] };
        self.total() - before
    }

    /// Clears the history (called at each purge: the entrance rule reads
    /// "of the current iteration").
    pub fn clear(&mut self) {
        self.times.clear();
        self.counts.clear();
        self.cursor.set(0);
    }
}

/// Total cost of `n` simultaneous admissions starting from quote `q0`:
/// `n·q0 + n(n−1)/2`.
pub fn batch_cost(q0: f64, n: u64) -> f64 {
    let n = n as f64;
    n * q0 + n * (n - 1.0) / 2.0
}

/// The largest `n` with [`batch_cost`]`(q0, n) ≤ budget`.
///
/// The fixup loops below define the exact integer boundary; the closed
/// form only seeds them. The seed uses the cancellation-free form of the
/// quadratic root, `2·budget / (b + √(b² + 2·budget))`: the naive
/// `−b + √(b² + 2·budget)` loses all precision when `q0 ≫ budget` (large
/// standing quote, small increment), which used to send the fixup loops
/// walking hundreds of steps — a measurable fraction of whole-simulation
/// time under heavy attack.
pub fn max_affordable(q0: f64, budget: f64) -> u64 {
    if budget < q0 {
        return 0;
    }
    // Solve n²/2 + n(q0 − 1/2) − budget = 0 for the positive root.
    let b = q0 - 0.5;
    let disc = (b * b + 2.0 * budget).sqrt();
    let root = if b >= 0.0 { 2.0 * budget / (b + disc) } else { (disc - b).max(0.0) };
    let mut n = root as u64;
    // Floating-point safety: adjust to the exact integer boundary.
    while batch_cost(q0, n + 1) <= budget {
        n += 1;
    }
    while n > 0 && batch_cost(q0, n) > budget {
        n -= 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_window_counts_zero() {
        let w = JoinWindow::new();
        assert_eq!(w.count_within(Time(10.0), 5.0), 0);
        assert_eq!(w.total(), 0);
    }

    #[test]
    fn windowed_count() {
        let mut w = JoinWindow::new();
        w.record(Time(1.0), 2);
        w.record(Time(2.0), 3);
        w.record(Time(5.0), 1);
        assert_eq!(w.total(), 6);
        // Window (4, 5]: only the join at t=5.
        assert_eq!(w.count_within(Time(5.0), 1.0), 1);
        // Window (2, 5]: join at 5 only (t=2 is excluded: strictly after cutoff).
        assert_eq!(w.count_within(Time(5.0), 3.0), 1);
        // Window (1.5, 5]: joins at 2 and 5.
        assert_eq!(w.count_within(Time(5.0), 3.5), 4);
        // Whole history.
        assert_eq!(w.count_within(Time(5.0), 100.0), 6);
        // Zero width: only joins exactly at now... cutoff = now, t <= cutoff
        // excludes everything at or before now.
        assert_eq!(w.count_within(Time(5.0), 0.0), 0);
    }

    #[test]
    fn same_time_joins_merge() {
        let mut w = JoinWindow::new();
        w.record(Time(1.0), 1);
        w.record(Time(1.0), 2);
        assert_eq!(w.total(), 3);
        assert_eq!(w.count_within(Time(1.0), 0.5), 3);
    }

    /// A NaN width must return 0 regardless of where earlier queries left
    /// the cursor (regression: the walk loops all compare false on NaN and
    /// would otherwise serve a stale-cursor-dependent count).
    #[test]
    fn nan_width_counts_nothing_independent_of_cursor_state() {
        let mut w = JoinWindow::new();
        for i in 0..20 {
            w.record(Time(i as f64), 1);
        }
        for prime_width in [0.0, 3.0, 1e9] {
            w.count_within(Time(19.0), prime_width); // park the cursor somewhere
            assert_eq!(w.count_within(Time(19.0), f64::NAN), 0, "after width {prime_width}");
        }
        // And the cursor recovers for ordinary queries afterwards.
        assert_eq!(w.count_within(Time(19.0), 1e9), 20);
    }

    #[test]
    fn clear_resets() {
        let mut w = JoinWindow::new();
        w.record(Time(1.0), 5);
        w.clear();
        assert_eq!(w.total(), 0);
        assert_eq!(w.count_within(Time(2.0), 10.0), 0);
    }

    #[test]
    fn batch_cost_matches_series() {
        // q0=3, n=4: 3+4+5+6 = 18.
        assert_eq!(batch_cost(3.0, 4), 18.0);
        assert_eq!(batch_cost(1.0, 1), 1.0);
        assert_eq!(batch_cost(5.0, 0), 0.0);
    }

    #[test]
    fn max_affordable_boundaries() {
        // q0=1: cost(n) = n(n+1)/2. budget 10 → n=4 (cost 10).
        assert_eq!(max_affordable(1.0, 10.0), 4);
        assert_eq!(max_affordable(1.0, 9.99), 3);
        assert_eq!(max_affordable(1.0, 0.5), 0);
        assert_eq!(max_affordable(10.0, 9.0), 0);
        assert_eq!(max_affordable(10.0, 10.0), 1);
    }

    /// Closed-form affordability agrees with the greedy series sum.
    /// (Hand-rolled property loop: cases derive from deterministic seeds.)
    #[test]
    fn max_affordable_is_exact() {
        for case in 0u64..256 {
            let mut rng = StdRng::seed_from_u64(0x11aa_0000 + case);
            let q0 = rng.gen_range(1.0f64..1000.0);
            let budget = rng.gen_range(0.0f64..100_000.0);
            let n = max_affordable(q0, budget);
            assert!(batch_cost(q0, n) <= budget || n == 0, "case {case}");
            assert!(batch_cost(q0, n + 1) > budget, "case {case}");
        }
    }

    /// The stable root seed stays exact in the cancellation regime the
    /// naive `−b + √(b² + 2B)` form loses: a huge standing quote and a
    /// budget far below/near it.
    #[test]
    fn max_affordable_survives_cancellation_regime() {
        for &(q0, budget) in
            &[(1.0e9, 1.0e9), (1.0e9, 2.5e9), (5.0e8, 6.0e8), (1.0e12, 1.0e12), (3.7e10, 9.9e10)]
        {
            let n = max_affordable(q0, budget);
            assert!(batch_cost(q0, n) <= budget || n == 0, "q0={q0} budget={budget}");
            assert!(batch_cost(q0, n + 1) > budget, "q0={q0} budget={budget}");
        }
    }

    /// Why no affordability computation calls `floor` before `as u64`:
    /// the cast truncates toward zero, saturates and maps NaN to 0, so the
    /// two agree on every `f64` (a negative floors further down, and both
    /// saturate to 0).
    #[test]
    fn a_cast_to_u64_truncates_as_floor_then_cast_does() {
        let mut values = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0 - f64::EPSILON,
            -1.0,
            2f64.powi(53) - 1.0,
            2f64.powi(64),
            2f64.powi(64) * 1.5,
            f64::from_bits(2f64.powi(64).to_bits() - 1),
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut rng = StdRng::seed_from_u64(0x00f1_0042);
        for _ in 0..100_000 {
            // Every finite bit pattern is fair game: both signs, every
            // exponent from subnormal to 2¹⁰²³.
            let v = f64::from_bits(rng.gen::<u64>());
            if v.is_finite() {
                values.push(v);
            }
            values.push(rng.gen_range(-1.0e6f64..1.0e6));
            values.push(rng.gen_range(0.0f64..2.0e19));
        }
        for v in values {
            assert_eq!(v as u64, v.floor() as u64, "{v:e}");
        }
    }

    /// Windowed counts agree with brute force over the raw history.
    #[test]
    fn count_matches_brute_force() {
        for case in 0u64..128 {
            let mut rng = StdRng::seed_from_u64(0x22bb_0000 + case);
            let n_joins = rng.gen_range(0usize..50);
            let mut joins: Vec<(f64, u64)> = (0..n_joins)
                .map(|_| (rng.gen_range(0.0f64..100.0), rng.gen_range(1u64..5)))
                .collect();
            let width = rng.gen_range(0.0f64..50.0);
            joins.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut w = JoinWindow::new();
            for &(t, n) in &joins {
                w.record(Time(t), n);
            }
            let now = Time(100.0);
            let cutoff = 100.0 - width;
            let expect: u64 = joins.iter().filter(|&&(t, _)| t > cutoff).map(|&(_, n)| n).sum();
            assert_eq!(w.count_within(now, width), expect, "case {case}");
        }
    }

    /// The sliding cursor stays exact over realistic query *sequences*:
    /// monotone `now` interleaved with appends, widths that shrink and
    /// grow (moving the cutoff backwards), zero/huge widths, and clears.
    /// Every answer must match brute force over the raw history.
    #[test]
    fn cursor_sequences_match_brute_force() {
        for case in 0u64..64 {
            let mut rng = StdRng::seed_from_u64(0x33cc_0000 + case);
            let mut w = JoinWindow::new();
            let mut joins: Vec<(f64, u64)> = Vec::new();
            let mut now = 0.0f64;
            for step in 0..200 {
                match rng.gen_range(0u32..10) {
                    0..=3 => {
                        now += rng.gen_range(0.0f64..2.0);
                        let n = rng.gen_range(1u64..4);
                        w.record(Time(now), n);
                        joins.push((now, n));
                    }
                    4 if step % 37 == 4 => {
                        w.clear();
                        joins.clear();
                    }
                    _ => {
                        now += rng.gen_range(0.0f64..0.5);
                        // Mix tiny, medium, and whole-history widths so the
                        // cutoff sweeps forward and backward across queries.
                        let width = match rng.gen_range(0u32..4) {
                            0 => 0.0,
                            1 => rng.gen_range(0.0f64..1.0),
                            2 => rng.gen_range(0.0f64..20.0),
                            _ => 1e9,
                        };
                        let cutoff = now - width;
                        let expect: u64 =
                            joins.iter().filter(|&&(t, _)| t > cutoff).map(|&(_, n)| n).sum();
                        assert_eq!(
                            w.count_within(Time(now), width),
                            expect,
                            "case {case} step {step} width {width}"
                        );
                    }
                }
            }
        }
    }
}
