//! The Chord-style ring.
//!
//! Node positions are the first 8 bytes of `SHA-256(id)`, so an adversary
//! cannot choose placements (IDs are assigned by the join-event counter,
//! paper Section 2.1.1) — it can only add *more* IDs, which is exactly
//! what Ergo prices.

use std::collections::BTreeMap;
use sybil_crypto::sha256::Sha256;
use sybil_sim::id::Id;

/// A node on the ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeEntry {
    /// The node's identifier.
    pub id: Id,
    /// Ring position (hash of the ID).
    pub position: u64,
    /// Ground truth for experiments: is this a Sybil node?
    pub is_bad: bool,
}

/// Hashes an ID to its ring position.
pub fn position_of(id: Id) -> u64 {
    let digest = Sha256::digest(&id.to_bytes());
    u64::from_be_bytes(digest.as_bytes()[..8].try_into().expect("8 bytes"))
}

/// A consistent-hashing ring with successor lists and finger tables.
#[derive(Clone, Debug, Default)]
pub struct Ring {
    nodes: BTreeMap<u64, NodeEntry>,
}

impl Ring {
    /// An empty ring.
    pub fn new() -> Self {
        Ring::default()
    }

    /// Builds a ring from `(id, is_bad)` pairs (position collisions — a
    /// 2⁻⁶⁴ event — keep the first occupant).
    pub fn from_members<I: IntoIterator<Item = (Id, bool)>>(members: I) -> Self {
        let mut ring = Ring::new();
        for (id, is_bad) in members {
            ring.join(id, is_bad);
        }
        ring
    }

    /// Adds a node.
    pub fn join(&mut self, id: Id, is_bad: bool) {
        let position = position_of(id);
        self.nodes.entry(position).or_insert(NodeEntry { id, position, is_bad });
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Fraction of nodes that are Sybil.
    pub fn bad_fraction(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes.values().filter(|n| n.is_bad).count() as f64 / self.nodes.len() as f64
    }

    /// The node responsible for `key`: the first node at or clockwise after
    /// the key's position.
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    pub fn successor_of(&self, key: u64) -> NodeEntry {
        assert!(!self.nodes.is_empty(), "successor on empty ring");
        *self
            .nodes
            .range(key..)
            .next()
            .map(|(_, e)| e)
            .unwrap_or_else(|| self.nodes.iter().next().map(|(_, e)| e).expect("nonempty"))
    }

    /// The `count` nodes clockwise after `position` (exclusive), wrapping.
    pub fn successors_after(&self, position: u64, count: usize) -> Vec<NodeEntry> {
        let mut out = Vec::with_capacity(count);
        for (_, e) in
            self.nodes.range(position.wrapping_add(1)..).chain(self.nodes.range(..=position))
        {
            if out.len() >= count {
                break;
            }
            out.push(*e);
        }
        out
    }

    /// The finger table of the node at `position`: successors of
    /// `position + 2^k` for `k = 0..64`, deduplicated.
    pub fn fingers(&self, position: u64) -> Vec<NodeEntry> {
        let mut out: Vec<NodeEntry> = Vec::with_capacity(64);
        for k in 0..64u32 {
            let target = position.wrapping_add(1u64 << k);
            let f = self.successor_of(target);
            if out.last().map(|l: &NodeEntry| l.position) != Some(f.position) {
                out.push(f);
            }
        }
        out
    }

    /// Clockwise distance from `from` to `to`.
    pub fn distance(from: u64, to: u64) -> u64 {
        to.wrapping_sub(from)
    }

    /// Iterates all nodes in position order.
    pub fn iter(&self) -> impl Iterator<Item = &NodeEntry> {
        self.nodes.values()
    }

    /// An arbitrary good node to originate lookups from (None if all bad).
    pub fn any_good(&self) -> Option<NodeEntry> {
        self.nodes.values().find(|n| !n.is_bad).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_of(n: u64) -> Ring {
        Ring::from_members((0..n).map(|i| (Id(i), false)))
    }

    #[test]
    fn positions_are_deterministic_and_spread() {
        let a = position_of(Id(1));
        assert_eq!(a, position_of(Id(1)));
        assert_ne!(a, position_of(Id(2)));
        // Hash spreading: 1000 nodes should not all land in one half.
        let ring = ring_of(1000);
        let below = ring.iter().filter(|e| e.position < u64::MAX / 2).count();
        assert!((300..700).contains(&below), "skewed spread: {below}");
    }

    #[test]
    fn successor_wraps_around() {
        let ring = ring_of(10);
        let max_pos = ring.iter().map(|e| e.position).max().unwrap();
        let min_pos = ring.iter().map(|e| e.position).min().unwrap();
        let succ = ring.successor_of(max_pos.wrapping_add(1));
        assert_eq!(succ.position, min_pos, "wrap to the smallest position");
    }

    #[test]
    fn successor_is_owner() {
        let ring = ring_of(100);
        // Every node is its own successor.
        for e in ring.iter() {
            assert_eq!(ring.successor_of(e.position).position, e.position);
        }
    }

    #[test]
    fn join_adds_a_node() {
        let mut ring = ring_of(10);
        assert_eq!(ring.len(), 10);
        assert_eq!(ring.bad_fraction(), 0.0);
        ring.join(Id(100), true);
        assert_eq!(ring.len(), 11);
        assert!(ring.bad_fraction() > 0.0);
    }

    #[test]
    fn successors_after_wraps_and_bounds() {
        let ring = ring_of(8);
        let first = ring.iter().next().unwrap().position;
        let succ = ring.successors_after(first, 8);
        assert_eq!(succ.len(), 8, "wraps all the way around");
        // Positions unique.
        let mut ps: Vec<u64> = succ.iter().map(|e| e.position).collect();
        ps.sort_unstable();
        ps.dedup();
        assert_eq!(ps.len(), 8);
    }

    #[test]
    fn fingers_shrink_distance() {
        let ring = ring_of(256);
        let origin = ring.iter().next().unwrap().position;
        let fingers = ring.fingers(origin);
        assert!(fingers.len() >= 6, "only {} fingers", fingers.len());
        // Fingers are roughly sorted by distance from the origin.
        let dists: Vec<u64> = fingers.iter().map(|f| Ring::distance(origin, f.position)).collect();
        let mut sorted = dists.clone();
        sorted.sort_unstable();
        assert_eq!(dists, sorted, "fingers out of distance order");
    }

    #[test]
    fn any_good_skips_sybils() {
        let ring = Ring::from_members([(Id(1), true), (Id(2), false), (Id(3), true)]);
        assert_eq!(ring.any_good().unwrap().id, Id(2));
        let all_bad = Ring::from_members([(Id(1), true)]);
        assert!(all_bad.any_good().is_none());
    }
}
