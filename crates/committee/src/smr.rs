//! Synchronous state-machine replication over the committee
//! (paper Section 12.2).
//!
//! The committee "makes use of State Machine Replication to agree on an
//! ordering of network events so as to execute GoodJEst and Ergo in
//! parallel". With synchrony and a good-majority committee, a two-round
//! broadcast-and-vote protocol suffices: the proposer broadcasts an entry,
//! every replica echoes a signed vote, and an entry commits when a majority
//! of votes agree. All messages travel over authenticated channels
//! ([`sybil_net::auth`]), so Byzantine replicas cannot forge votes from
//! good ones — they can only vote badly or stay silent.

use sybil_net::auth::AuthKeys;
use sybil_net::network::{Network, NodeId};

/// How a Byzantine replica misbehaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ByzantineMode {
    /// Votes against every proposal.
    RejectAll,
    /// Sends no votes at all.
    Silent,
    /// Votes accept to half the replicas and reject to the other half.
    Equivocate,
}

/// One replica in the cluster.
#[derive(Clone, Debug)]
struct Replica {
    node: NodeId,
    byzantine: Option<ByzantineMode>,
    log: Vec<u64>,
}

/// Wire messages.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Msg {
    Propose { seq: usize, entry: u64 },
    Vote { seq: usize, entry: u64, accept: bool },
}

fn encode(msg: &Msg) -> Vec<u8> {
    match *msg {
        Msg::Propose { seq, entry } => {
            let mut v = vec![0u8];
            v.extend_from_slice(&(seq as u64).to_be_bytes());
            v.extend_from_slice(&entry.to_be_bytes());
            v
        }
        Msg::Vote { seq, entry, accept } => {
            let mut v = vec![1u8, accept as u8];
            v.extend_from_slice(&(seq as u64).to_be_bytes());
            v.extend_from_slice(&entry.to_be_bytes());
            v
        }
    }
}

fn decode(bytes: &[u8]) -> Option<Msg> {
    match bytes.first()? {
        0 => {
            let seq = u64::from_be_bytes(bytes.get(1..9)?.try_into().ok()?) as usize;
            let entry = u64::from_be_bytes(bytes.get(9..17)?.try_into().ok()?);
            Some(Msg::Propose { seq, entry })
        }
        1 => {
            let accept = *bytes.get(1)? != 0;
            let seq = u64::from_be_bytes(bytes.get(2..10)?.try_into().ok()?) as usize;
            let entry = u64::from_be_bytes(bytes.get(10..18)?.try_into().ok()?);
            Some(Msg::Vote { seq, entry, accept })
        }
        _ => None,
    }
}

/// A synchronous SMR cluster of committee replicas.
pub struct SmrCluster {
    net: Network<sybil_net::auth::AuthenticatedMessage>,
    keys: AuthKeys,
    replicas: Vec<Replica>,
    committed: Vec<u64>,
}

impl SmrCluster {
    /// Builds a cluster with `n_good` honest replicas and the given
    /// Byzantine replicas.
    pub fn new(n_good: usize, byzantine: &[ByzantineMode], master_secret: &[u8]) -> Self {
        let mut net = Network::new();
        let mut replicas = Vec::new();
        for _ in 0..n_good {
            let node = net.register();
            replicas.push(Replica { node, byzantine: None, log: Vec::new() });
        }
        for &mode in byzantine {
            let node = net.register();
            replicas.push(Replica { node, byzantine: Some(mode), log: Vec::new() });
        }
        SmrCluster { net, keys: AuthKeys::new(master_secret), replicas, committed: Vec::new() }
    }

    /// The committed log (the ordering Ergo/GoodJEst consume).
    pub fn committed(&self) -> &[u64] {
        &self.committed
    }

    /// Total messages delivered (message-complexity accounting).
    pub fn messages_delivered(&self) -> u64 {
        self.net.delivered()
    }

    /// Proposes `entry` as the next log entry via an honest proposer;
    /// returns `true` if it committed on a majority of votes.
    ///
    /// Two synchronous rounds: propose broadcast, then votes.
    pub fn propose(&mut self, entry: u64) -> bool {
        let seq = self.committed.len();
        let proposer = self
            .replicas
            .iter()
            .find(|r| r.byzantine.is_none())
            .expect("at least one honest replica required")
            .node;

        // Round 1: authenticated propose to every replica.
        let targets: Vec<NodeId> = self.replicas.iter().map(|r| r.node).collect();
        for &to in &targets {
            let sealed = self.keys.seal(proposer, to, &encode(&Msg::Propose { seq, entry }));
            self.net.send(proposer, to, sealed);
        }
        self.net.step();

        // Round 2: every replica processes its inbox and votes to everyone.
        let mut outgoing = Vec::new();
        for r in &self.replicas {
            let inbox = self.net.inbox(r.node).to_vec();
            let mut proposal: Option<(usize, u64)> = None;
            for env in &inbox {
                let Some(payload) = self.keys.open(&env.payload) else { continue };
                if let Some(Msg::Propose { seq, entry }) = decode(payload) {
                    proposal = Some((seq, entry));
                }
            }
            let Some((pseq, pentry)) = proposal else { continue };
            match r.byzantine {
                None => {
                    // Honest: accept iff the proposal extends its log.
                    let accept = pseq == r.log.len();
                    for &to in &targets {
                        let m = Msg::Vote { seq: pseq, entry: pentry, accept };
                        outgoing.push((r.node, to, encode(&m)));
                    }
                }
                Some(ByzantineMode::RejectAll) => {
                    for &to in &targets {
                        let m = Msg::Vote { seq: pseq, entry: pentry, accept: false };
                        outgoing.push((r.node, to, encode(&m)));
                    }
                }
                Some(ByzantineMode::Silent) => {}
                Some(ByzantineMode::Equivocate) => {
                    for (i, &to) in targets.iter().enumerate() {
                        let m = Msg::Vote { seq: pseq, entry: pentry, accept: i % 2 == 0 };
                        outgoing.push((r.node, to, encode(&m)));
                    }
                }
            }
        }
        for (from, to, bytes) in outgoing {
            let sealed = self.keys.seal(from, to, &bytes);
            self.net.send(from, to, sealed);
        }
        self.net.step();

        // Tally at each replica; commit locally on majority accept.
        let majority = self.replicas.len() / 2 + 1;
        let mut committed_anywhere = false;
        let mut updates = Vec::new();
        for (idx, r) in self.replicas.iter().enumerate() {
            let mut accepts = 0;
            for env in self.net.inbox(r.node) {
                let Some(payload) = self.keys.open(&env.payload) else { continue };
                if let Some(Msg::Vote { seq: vseq, entry: ventry, accept }) = decode(payload) {
                    if vseq == seq && ventry == entry && accept {
                        accepts += 1;
                    }
                }
            }
            if accepts >= majority && r.byzantine.is_none() {
                updates.push(idx);
                committed_anywhere = true;
            }
        }
        for idx in updates {
            self.replicas[idx].log.push(entry);
        }
        if committed_anywhere {
            self.committed.push(entry);
        }
        committed_anywhere
    }

    /// True if all honest replicas hold identical logs (safety).
    pub fn honest_logs_consistent(&self) -> bool {
        let mut honest = self.replicas.iter().filter(|r| r.byzantine.is_none());
        let Some(first) = honest.next() else { return true };
        honest.all(|r| r.log == first.log)
    }

    /// The log length agreed by honest replicas (0 if inconsistent).
    pub fn honest_log_len(&self) -> usize {
        self.replicas.iter().find(|r| r.byzantine.is_none()).map_or(0, |r| r.log.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commits_with_honest_majority() {
        let mut cluster = SmrCluster::new(7, &[ByzantineMode::RejectAll; 3], b"secret");
        assert_eq!(cluster.replicas.len(), 10);
        for entry in 0..20 {
            assert!(cluster.propose(entry), "entry {entry} failed to commit");
        }
        assert_eq!(cluster.committed().len(), 20);
        assert!(cluster.honest_logs_consistent());
        assert_eq!(cluster.honest_log_len(), 20);
    }

    #[test]
    fn stalls_without_majority() {
        // 3 honest vs 7 rejecting: no entry can reach a majority.
        let mut cluster = SmrCluster::new(3, &[ByzantineMode::RejectAll; 7], b"secret");
        assert!(!cluster.propose(1));
        assert_eq!(cluster.committed().len(), 0);
        assert!(cluster.honest_logs_consistent());
    }

    #[test]
    fn silent_byzantines_are_tolerated() {
        let mut cluster = SmrCluster::new(6, &[ByzantineMode::Silent; 4], b"secret");
        for entry in 0..10 {
            assert!(cluster.propose(entry));
        }
        assert!(cluster.honest_logs_consistent());
    }

    #[test]
    fn equivocators_cannot_split_honest_logs() {
        let mut cluster = SmrCluster::new(8, &[ByzantineMode::Equivocate; 4], b"secret");
        for entry in 0..15 {
            cluster.propose(entry);
        }
        assert!(cluster.honest_logs_consistent());
    }

    #[test]
    fn message_complexity_is_quadratic_per_entry() {
        let mut cluster = SmrCluster::new(10, &[], b"secret");
        cluster.propose(1);
        // 10 proposes + 10*10 votes.
        assert_eq!(cluster.messages_delivered(), 110);
    }

    #[test]
    fn ordering_is_preserved() {
        let mut cluster = SmrCluster::new(5, &[ByzantineMode::RejectAll; 2], b"secret");
        for entry in [42, 7, 99] {
            cluster.propose(entry);
        }
        assert_eq!(cluster.committed(), &[42, 7, 99]);
    }
}
