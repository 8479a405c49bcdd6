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
    delivered: u64,
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
            delivered: 0,
        }
    }

    /// Registers a new node and returns its address.
    pub fn register(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        self.inboxes.insert(id, Vec::new());
        id
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

    /// Advances one synchronous round, delivering queued messages (clearing
    /// last round's inboxes first).
    pub fn step(&mut self) {
        for inbox in self.inboxes.values_mut() {
            inbox.clear();
        }
        let pending = std::mem::take(&mut self.in_flight);
        for env in pending {
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
    #[should_panic(expected = "unknown recipient")]
    fn sending_to_unknown_node_panics() {
        let mut net: Network<u32> = Network::new();
        let a = net.register();
        net.send(a, NodeId(999), 1);
    }
}
