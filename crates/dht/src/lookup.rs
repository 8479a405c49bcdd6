//! Greedy, redundant, and wide-path lookup with successor-list replication.
//!
//! Data for `key` is replicated on the first `r` successors of `key`'s
//! position (the classic Chord defense against unreliable owners — here,
//! against a *Sybil* owner: with bad fraction `f < 1/6`, all `r` replicas
//! are Sybil with probability `≈ f^r`). A lookup succeeds when it reaches
//! any good replica.
//!
//! Three routing strategies, in increasing robustness:
//!
//! * **greedy** — one finger-routed path; touching a Sybil node loses the
//!   query, so success decays like `(1−f)^{hops}`;
//! * **redundant paths** — `q` independent greedy paths: success
//!   `1 − (1 − (1−f)^{hops})^q`, which *saturates* well below 1 for
//!   realistic hop counts;
//! * **wide path** — a frontier of `w` nodes advances together; a hop is
//!   lost only if the whole frontier is Sybil (`≈ f^w`), so success stays
//!   near-perfect exactly while `f` is bounded — the bound Ergo provides.

use crate::ring::{NodeEntry, Ring};
use rand::rngs::StdRng;
use rand::Rng;

/// The result of a lookup attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupOutcome {
    /// Reached a good replica of the key.
    Success {
        /// Hops taken.
        hops: u32,
    },
    /// A Sybil node captured the query.
    Captured {
        /// Hops taken before capture.
        hops: u32,
    },
    /// Hop budget exhausted (routing loop / stall).
    Exhausted,
}

impl LookupOutcome {
    /// True on success.
    pub fn is_success(&self) -> bool {
        matches!(self, LookupOutcome::Success { .. })
    }
}

/// The maximum hops before a lookup gives up.
const MAX_HOPS: u32 = 128;

/// Default replication factor: data lives on the key's first 8 successors.
pub const REPLICATION: usize = 8;

/// The positions of the key's replica set (first `r` successors).
fn replica_positions(ring: &Ring, key: u64, r: usize) -> Vec<u64> {
    let first = ring.successor_of(key);
    let mut out = vec![first.position];
    out.extend(
        ring.successors_after(first.position, r.saturating_sub(1)).iter().map(|e| e.position),
    );
    out
}

/// True if a good node at `current` can finish the lookup: it is itself a
/// good replica, or its successor-list knowledge reaches a good replica.
fn can_finish(ring: &Ring, current: &NodeEntry, replicas: &[u64], r: usize) -> bool {
    debug_assert!(!current.is_bad);
    if replicas.contains(&current.position) {
        return true;
    }
    ring.successors_after(current.position, r)
        .iter()
        .any(|s| !s.is_bad && replicas.contains(&s.position))
}

/// One greedy lookup from `origin` for `key` with replication `r`.
fn lookup_greedy_replicated(ring: &Ring, origin: NodeEntry, key: u64, r: usize) -> LookupOutcome {
    let replicas = replica_positions(ring, key, r);
    let mut current = origin;
    for hops in 0..MAX_HOPS {
        if current.is_bad {
            return LookupOutcome::Captured { hops };
        }
        if can_finish(ring, &current, &replicas, r) {
            return LookupOutcome::Success { hops };
        }
        // Greedy: the known node that most reduces clockwise distance to
        // the key.
        let dist = |p: u64| Ring::distance(p, key);
        let mut best = ring.successor_of(current.position.wrapping_add(1));
        let mut best_dist = dist(best.position);
        for f in ring.fingers(current.position) {
            let d = dist(f.position);
            if d < best_dist {
                best = f;
                best_dist = d;
            }
        }
        if best.position == current.position {
            return LookupOutcome::Exhausted;
        }
        current = best;
    }
    LookupOutcome::Exhausted
}

/// One greedy lookup with the default replication factor.
pub fn lookup_greedy(ring: &Ring, origin: NodeEntry, key: u64) -> LookupOutcome {
    lookup_greedy_replicated(ring, origin, key, REPLICATION)
}

/// A redundant lookup: `paths` greedy attempts from random good entry
/// points; succeeds if any path reaches a good replica. Returns the
/// outcome and the number of paths consumed.
///
/// Entry-point diversity models a joining ID knowing several members (the
/// paper's standard bootstrap assumption, Section 2.1.1).
pub fn lookup_redundant(
    ring: &Ring,
    key: u64,
    paths: u32,
    rng: &mut StdRng,
) -> (LookupOutcome, u32) {
    let good: Vec<NodeEntry> = ring.iter().filter(|n| !n.is_bad).copied().collect();
    assert!(!good.is_empty(), "no good entry points");
    let mut last = LookupOutcome::Exhausted;
    for attempt in 1..=paths {
        let origin = good[rng.gen_range(0..good.len())];
        last = lookup_greedy(ring, origin, key);
        if last.is_success() {
            return (last, attempt);
        }
    }
    (last, paths)
}

/// A *wide-path* lookup: the frontier holds up to `width` nodes per hop;
/// every good frontier node contributes its fingers toward the key, and
/// the next frontier is the `width` closest candidates.
///
/// Sybil frontier nodes stall (contribute nothing); they cannot inject
/// fake placements because a position is the hash of an ID. The lookup
/// fails at a hop only if no good frontier node remains.
pub fn lookup_wide(ring: &Ring, key: u64, width: usize, rng: &mut StdRng) -> LookupOutcome {
    assert!(width >= 1, "width must be at least 1");
    let r = REPLICATION;
    let replicas = replica_positions(ring, key, r);
    let all: Vec<NodeEntry> = ring.iter().copied().collect();
    if all.iter().all(|n| n.is_bad) {
        return LookupOutcome::Exhausted;
    }
    // Diverse entry points sampled from the membership (some may be Sybil).
    let mut frontier: Vec<NodeEntry> =
        (0..width).map(|_| all[rng.gen_range(0..all.len())]).collect();

    let dist = |p: u64| Ring::distance(p, key);
    for hops in 0..MAX_HOPS {
        if frontier.iter().any(|n| !n.is_bad && can_finish(ring, n, &replicas, r)) {
            return LookupOutcome::Success { hops };
        }
        let mut candidates: Vec<NodeEntry> = Vec::new();
        for node in &frontier {
            if node.is_bad {
                continue; // stalls
            }
            for f in ring.fingers(node.position) {
                candidates.push(f);
            }
            candidates.push(ring.successor_of(node.position.wrapping_add(1)));
        }
        if candidates.is_empty() {
            return LookupOutcome::Captured { hops };
        }
        candidates.sort_by_key(|n| dist(n.position));
        candidates.dedup_by_key(|n| n.position);
        candidates.truncate(width);
        if candidates == frontier {
            return LookupOutcome::Exhausted;
        }
        frontier = candidates;
    }
    LookupOutcome::Exhausted
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sybil_sim::id::Id;

    fn mixed_ring(n_good: u64, n_bad: u64) -> Ring {
        Ring::from_members(
            (0..n_good)
                .map(|i| (Id(i), false))
                .chain((0..n_bad).map(|i| (Id(1_000_000 + i), true))),
        )
    }

    #[test]
    fn all_good_ring_always_succeeds_in_log_hops() {
        let ring = mixed_ring(1024, 0);
        let origin = ring.any_good().unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let key: u64 = rng.gen();
            match lookup_greedy(&ring, origin, key) {
                LookupOutcome::Success { hops } => {
                    assert!(hops <= 24, "too many hops: {hops} for n=1024");
                }
                other => panic!("lookup failed on clean ring: {other:?}"),
            }
        }
    }

    #[test]
    fn lookup_reaches_every_owner() {
        let ring = mixed_ring(64, 0);
        let origin = ring.any_good().unwrap();
        for target in ring.iter() {
            match lookup_greedy(&ring, origin, target.position) {
                LookupOutcome::Success { .. } => {}
                other => panic!("failed to reach {target:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn sybil_nodes_capture_single_paths_sometimes() {
        let ring = mixed_ring(500, 250); // 1/3 bad: beyond Ergo's bound
        let mut rng = StdRng::seed_from_u64(2);
        let good: Vec<NodeEntry> = ring.iter().filter(|n| !n.is_bad).copied().collect();
        let captured = (0..300)
            .filter(|_| {
                let origin = good[rng.gen_range(0..good.len())];
                !lookup_greedy(&ring, origin, rng.gen()).is_success()
            })
            .count();
        assert!(captured > 50, "only {captured} captures at 1/3 bad");
    }

    #[test]
    fn path_redundancy_helps_but_saturates() {
        // At ~15% bad, one greedy path succeeds ~(1-f)^hops of the time;
        // 8 independent paths lift that substantially but stay visibly
        // below the wide-path strategy.
        let ring = mixed_ring(1000, 180); // ~15.3% bad
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 400;
        let one = (0..trials)
            .filter(|_| lookup_redundant(&ring, rng.gen(), 1, &mut rng).0.is_success())
            .count() as f64
            / trials as f64;
        let eight = (0..trials)
            .filter(|_| lookup_redundant(&ring, rng.gen(), 8, &mut rng).0.is_success())
            .count() as f64
            / trials as f64;
        assert!(one < 0.8, "single path too strong: {one}");
        assert!(eight > one, "redundancy must help: {eight} vs {one}");
    }

    #[test]
    fn wide_paths_recover_under_ergo_bound() {
        // Per-hop redundancy + replication: with the bad fraction under
        // Ergo's 1/6 bound, lookups become near-perfect.
        let ring = mixed_ring(1000, 180);
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 400;
        let ok =
            (0..trials).filter(|_| lookup_wide(&ring, rng.gen(), 8, &mut rng).is_success()).count();
        let rate = ok as f64 / trials as f64;
        assert!(rate > 0.99, "wide-path success rate {rate} under the bound");
    }

    #[test]
    fn wide_paths_still_fail_against_a_majority() {
        let ring = mixed_ring(200, 800);
        let mut rng = StdRng::seed_from_u64(6);
        let trials = 200;
        let ok =
            (0..trials).filter(|_| lookup_wide(&ring, rng.gen(), 8, &mut rng).is_success()).count();
        let rate = ok as f64 / trials as f64;
        assert!(rate < 0.95, "even wide paths degrade at 80% bad: {rate}");
    }

    #[test]
    fn replication_covers_sybil_owners() {
        // Keys whose first successor is Sybil are still retrievable from a
        // good replica further along the successor list.
        let ring = mixed_ring(900, 100);
        let mut rng = StdRng::seed_from_u64(7);
        let mut sybil_owned_successes = 0;
        let mut sybil_owned = 0;
        for _ in 0..2000 {
            let key: u64 = rng.gen();
            if ring.successor_of(key).is_bad {
                sybil_owned += 1;
                if lookup_wide(&ring, key, 8, &mut rng).is_success() {
                    sybil_owned_successes += 1;
                }
            }
        }
        assert!(sybil_owned > 50, "not enough Sybil-owned keys sampled");
        let rate = sybil_owned_successes as f64 / sybil_owned as f64;
        assert!(rate > 0.95, "Sybil-owned keys recovered at only {rate}");
    }
}
