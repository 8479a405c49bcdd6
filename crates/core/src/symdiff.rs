//! O(1) symmetric-difference tracking.
//!
//! Because every joining ID is new (paper Section 2.1.1), the symmetric
//! difference between the membership set at an interval start and now
//! decomposes exactly as
//!
//! ```text
//! |S(now) △ S(start)| = (old members that have departed)
//!                     + (new members currently present)
//! ```
//!
//! where *old* means "was a member at `start`". Both counts update in O(1)
//! per event, so GoodJEst's `5/12` rule, Heuristic 2's purge trigger, and
//! the ABC model's epoch detection all run in constant time per event.
//! The caller classifies each departure as old or new (it knows join times);
//! this tracker just maintains the two counters.

/// Incremental symmetric-difference counter relative to a reference set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SymdiffTracker {
    old_departed: u64,
    new_present: u64,
}

impl SymdiffTracker {
    /// A tracker whose reference set is the current membership.
    pub fn new() -> Self {
        SymdiffTracker::default()
    }

    /// Records `n` joins (all new by definition).
    pub fn on_join(&mut self, n: u64) {
        self.new_present += n;
    }

    /// Records `n` departures of IDs that were members at the reference point.
    pub fn on_depart_old(&mut self, n: u64) {
        self.old_departed += n;
    }

    /// Records `n` departures of IDs that joined after the reference point.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if more new IDs depart than are present —
    /// that would mean the caller misclassified a departure.
    pub fn on_depart_new(&mut self, n: u64) {
        debug_assert!(self.new_present >= n, "more new departures than new members");
        self.new_present = self.new_present.saturating_sub(n);
    }

    /// The current symmetric difference versus the reference set.
    pub fn symdiff(&self) -> u64 {
        self.old_departed + self.new_present
    }

    /// Number of new members currently present (the `|B − A|` half).
    pub fn new_present(&self) -> u64 {
        self.new_present
    }

    /// Re-anchors the reference set to the current membership.
    pub fn reset(&mut self) {
        self.old_departed = 0;
        self.new_present = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn basic_accounting() {
        let mut t = SymdiffTracker::new();
        assert_eq!(t.symdiff(), 0);
        t.on_join(3);
        assert_eq!(t.symdiff(), 3);
        t.on_depart_new(1);
        assert_eq!(t.symdiff(), 2);
        t.on_depart_old(4);
        assert_eq!(t.symdiff(), 6);
        assert_eq!(t.new_present(), 2);
        assert_eq!(t.old_departed, 4);
        t.reset();
        assert_eq!(t.symdiff(), 0);
    }

    /// Reference model: explicit sets, |A △ B| recomputed from scratch.
    struct SetModel {
        start: HashSet<u64>,
        current: HashSet<u64>,
        next_id: u64,
    }

    impl SetModel {
        fn new(initial: u64) -> Self {
            let start: HashSet<u64> = (0..initial).collect();
            SetModel { current: start.clone(), start, next_id: initial }
        }

        fn join(&mut self) -> u64 {
            let id = self.next_id;
            self.next_id += 1;
            self.current.insert(id);
            id
        }

        fn depart(&mut self, id: u64) -> bool {
            let was_old = self.start.contains(&id);
            self.current.remove(&id);
            was_old
        }

        fn symdiff(&self) -> u64 {
            self.start.symmetric_difference(&self.current).count() as u64
        }
    }

    /// The O(1) tracker agrees with brute-force set recomputation under
    /// arbitrary interleavings of joins and departures. (Hand-rolled
    /// property loop: ops are a pure function of the case seed.)
    #[test]
    fn tracker_matches_brute_force() {
        for case in 0u64..64 {
            let mut model = SetModel::new(10);
            let mut tracker = SymdiffTracker::new();
            let mut present: Vec<u64> = (0..10).collect();
            let mut rng_state = 12345u64.wrapping_add(case.wrapping_mul(0x9E3779B97F4A7C15));
            let n_ops = 1 + (case as usize * 3) % 199;
            for _ in 0..n_ops {
                // Cheap deterministic op/index selection.
                rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
                match (rng_state >> 33) & 1 {
                    0 => {
                        let id = model.join();
                        present.push(id);
                        tracker.on_join(1);
                    }
                    _ => {
                        if present.is_empty() {
                            continue;
                        }
                        let idx = (rng_state % present.len() as u64) as usize;
                        let id = present.swap_remove(idx);
                        if model.depart(id) {
                            tracker.on_depart_old(1);
                        } else {
                            tracker.on_depart_new(1);
                        }
                    }
                }
                assert_eq!(tracker.symdiff(), model.symdiff(), "case {case}");
            }
        }
    }
}
