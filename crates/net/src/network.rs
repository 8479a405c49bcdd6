//! The synchronous round-based network.

use std::collections::HashMap;

/// A node address in the simulated network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// An in-flight or delivered message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Claimed sender (Byzantine nodes may lie; see [`crate::auth`]).
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// Payload.
    pub payload: M,
}

/// A synchronous network: messages sent in round `r` arrive in round `r+1`.
///
/// # Example
///
/// ```
/// use sybil_net::network::{Network, NodeId};
///
/// let mut net: Network<&str> = Network::new();
/// let a = net.register();
/// let b = net.register();
/// net.send(a, b, "hello");
/// assert!(net.inbox(b).is_empty()); // not delivered yet
/// net.step();
/// assert_eq!(net.inbox(b)[0].payload, "hello");
/// ```
#[derive(Clone, Debug)]
pub struct Network<M> {
    next_id: u64,
    round: u64,
    in_flight: Vec<Envelope<M>>,
    inboxes: HashMap<NodeId, Vec<Envelope<M>>>,
    /// Nodes whose outgoing messages are dropped (crash/partition injection).
    silenced: Vec<NodeId>,
    /// Directed links that drop messages.
    cut_links: Vec<(NodeId, NodeId)>,
    delivered: u64,
    dropped: u64,
}

impl<M> Default for Network<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Network<M> {
    /// An empty network at round 0.
    pub fn new() -> Self {
        Network {
            next_id: 0,
            round: 0,
            in_flight: Vec::new(),
            inboxes: HashMap::new(),
            silenced: Vec::new(),
            cut_links: Vec::new(),
            delivered: 0,
            dropped: 0,
        }
    }

    /// Registers a new node and returns its address.
    pub fn register(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        self.inboxes.insert(id, Vec::new());
        id
    }

    /// The current round number.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Queues a message for delivery next round.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not registered.
    pub fn send(&mut self, from: NodeId, to: NodeId, payload: M) {
        assert!(self.inboxes.contains_key(&to), "unknown recipient {to}");
        self.in_flight.push(Envelope { from, to, payload });
    }

    /// Queues a message to every registered node (including the sender).
    pub fn broadcast(&mut self, from: NodeId, payload: M)
    where
        M: Clone,
    {
        let targets: Vec<NodeId> = self.inboxes.keys().copied().collect();
        for to in targets {
            self.send(from, to, payload.clone());
        }
    }

    /// Injects a fault: all messages *from* `node` are dropped until
    /// [`restore`](Self::restore).
    pub fn silence(&mut self, node: NodeId) {
        if !self.silenced.contains(&node) {
            self.silenced.push(node);
        }
    }

    /// Clears a [`silence`](Self::silence) fault.
    pub fn restore(&mut self, node: NodeId) {
        self.silenced.retain(|&n| n != node);
    }

    /// Injects a fault on the directed link `from → to`.
    pub fn cut_link(&mut self, from: NodeId, to: NodeId) {
        if !self.cut_links.contains(&(from, to)) {
            self.cut_links.push((from, to));
        }
    }

    /// Advances one synchronous round, delivering queued messages (clearing
    /// last round's inboxes first).
    pub fn step(&mut self) {
        for inbox in self.inboxes.values_mut() {
            inbox.clear();
        }
        let pending = std::mem::take(&mut self.in_flight);
        for env in pending {
            if self.silenced.contains(&env.from) || self.cut_links.contains(&(env.from, env.to)) {
                self.dropped += 1;
                continue;
            }
            self.delivered += 1;
            self.inboxes.get_mut(&env.to).expect("recipient validated at send").push(env);
        }
        self.round += 1;
    }

    /// Messages delivered to `node` in the most recent round.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not registered.
    pub fn inbox(&self, node: NodeId) -> &[Envelope<M>] {
        self.inboxes.get(&node).expect("unknown node")
    }

    /// Total messages delivered so far (message-complexity accounting).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total messages dropped by fault injection.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_is_next_round() {
        let mut net: Network<u32> = Network::new();
        let a = net.register();
        let b = net.register();
        net.send(a, b, 7);
        assert!(net.inbox(b).is_empty());
        net.step();
        assert_eq!(net.inbox(b).len(), 1);
        assert_eq!(net.inbox(b)[0].from, a);
        // Inboxes clear the following round.
        net.step();
        assert!(net.inbox(b).is_empty());
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let mut net: Network<&str> = Network::new();
        let nodes: Vec<NodeId> = (0..5).map(|_| net.register()).collect();
        net.broadcast(nodes[0], "hi");
        net.step();
        for &n in &nodes {
            assert_eq!(net.inbox(n).len(), 1);
        }
        assert_eq!(net.delivered(), 5);
    }

    #[test]
    fn silenced_node_messages_drop() {
        let mut net: Network<u32> = Network::new();
        let a = net.register();
        let b = net.register();
        net.silence(a);
        net.send(a, b, 1);
        net.send(b, a, 2);
        net.step();
        assert!(net.inbox(b).is_empty());
        assert_eq!(net.inbox(a).len(), 1);
        assert_eq!(net.dropped(), 1);
        net.restore(a);
        net.send(a, b, 3);
        net.step();
        assert_eq!(net.inbox(b).len(), 1);
    }

    #[test]
    fn cut_link_is_directional() {
        let mut net: Network<u32> = Network::new();
        let a = net.register();
        let b = net.register();
        net.cut_link(a, b);
        net.send(a, b, 1);
        net.send(b, a, 2);
        net.step();
        assert!(net.inbox(b).is_empty());
        assert_eq!(net.inbox(a).len(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown recipient")]
    fn sending_to_unknown_node_panics() {
        let mut net: Network<u32> = Network::new();
        let a = net.register();
        net.send(a, NodeId(999), 1);
    }
}
