//! The admission state machine: N shard workers behind a thin router,
//! with identities routed by congruence (`identity mod N`) — the gate's
//! counterpart of the simulator's sharded defense state. N = 1 is the
//! default deployment; the protocol is described in [`crate::service`].
//!
//! * Each **shard** owns the [`IdentityRecord`]s and the
//!   [`AdmissionMap`] slice of the identities congruent to its index
//!   (identity `i` lives in shard `i mod N` at local index `i / N`),
//!   mirroring the ID-congruence layout of
//!   `sybil_sim::shard_state`.
//! * The **router** owns what is inherently global and cheap: the
//!   connection table, the join-rate estimator and its window, the
//!   monotone counters, and the decision log.
//! * Every expensive digest runs **outside all locks**. A mining
//!   submission takes a shard lock twice — once to read the record,
//!   once to commit the transition after the digest — and re-checks the
//!   state under the second lock, so a raced duplicate costs its sender
//!   a digest but cannot double-admit.
//!
//! Driven serially, a `ShardedGate` produces the same decision log,
//! byte for byte, at every shard count — the tests in this module pin
//! it, and pin the log's SHA-256. Driven concurrently, log record order
//! follows the scheduler (so parallel benchmarks record no fingerprint),
//! but the counters and per-identity outcomes remain exact.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

use ergo_core::window::JoinWindow;
use ergo_core::GoodJEst;
use sybil_crypto::{Challenge, Digest, Sha256};
use sybil_sim::{AdmissionMap, AdmissionState, Time};

use crate::memhard::{fill_and_mix, meets_difficulty};
use crate::service::{
    challenge_nonce, logkind, quote_difficulty, token_for, ConnState, GateConfig, GateCounters,
    IdentityRecord, Response,
};
use crate::transport::SharedGate;
use crate::wire::{Frame, PROTOCOL_VERSION};

/// Locks a mutex, recovering from poisoning: gate state is monotone
/// counters, maps, and a log, all valid at every step, so a panicking
/// sibling must not take the shard down with it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The cheap global state behind the router lock.
struct Router {
    est: GoodJEst,
    window: JoinWindow,
    conns: HashMap<u64, ConnState>,
    next_conn: u64,
    /// The next identity to issue; identities are numbered globally and
    /// routed to shard `identity % N`.
    next_identity: u64,
    counters: GateCounters,
    log: Vec<u8>,
}

impl Router {
    fn push_record(&mut self, kind: u8, a: u64, b: u64) {
        self.log.push(kind);
        self.log.extend_from_slice(&a.to_le_bytes());
        self.log.extend_from_slice(&b.to_le_bytes());
    }

    fn drop_conn(&mut self, conn: u64, code: u64) -> Response {
        self.conns.remove(&conn);
        self.counters.dropped += 1;
        self.push_record(logkind::DROPPED, conn, code);
        Response::Drop
    }

    fn drop_unknown(&mut self, identity: u64) -> Response {
        self.counters.dropped += 1;
        self.push_record(logkind::DROPPED, identity, 3);
        Response::Drop
    }
}

/// One shard's slice of the identity space: records and admission states
/// of the identities congruent to the shard index, at local index
/// `identity / N`.
struct GateShard {
    /// `None` marks an identity the router has issued whose record has
    /// not landed yet — under concurrency, grants destined for one shard
    /// can commit out of issue order.
    records: Vec<Option<IdentityRecord>>,
    admission: AdmissionMap,
}

impl GateShard {
    fn new() -> Self {
        GateShard { records: Vec::new(), admission: AdmissionMap::new(0) }
    }

    /// Grows the slice to cover local index `local`.
    fn ensure(&mut self, local: usize) {
        if local >= self.records.len() {
            self.records.resize_with(local + 1, || None);
            self.admission.grow(self.records.len() as u64);
        }
    }

    fn record(&self, local: usize) -> Option<&IdentityRecord> {
        self.records.get(local).and_then(|r| r.as_ref())
    }
}

/// The admission service. See the module docs for the layout and
/// [`crate::service`] for the protocol.
pub struct ShardedGate {
    cfg: GateConfig,
    router: Mutex<Router>,
    shards: Vec<Mutex<GateShard>>,
}

impl ShardedGate {
    /// Creates a gate with `shards` shard workers and
    /// `cfg.initial_size` pre-admitted bootstrap identities, dealt
    /// round-robin across the shards by ID congruence.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(cfg: GateConfig, shards: usize) -> Self {
        assert!(shards >= 1, "a gate needs at least one shard");
        let mut slices: Vec<GateShard> = (0..shards).map(|_| GateShard::new()).collect();
        for i in 0..cfg.initial_size {
            let slice = &mut slices[(i % shards as u64) as usize];
            let local = (i / shards as u64) as usize;
            slice.ensure(local);
            slice.admission.set(local as u64, AdmissionState::Admitted);
            slice.records[local] =
                Some(IdentityRecord { client_tag: i, joined_at: Time::ZERO, departed: false });
        }
        let router = Router {
            est: GoodJEst::new(cfg.estimator, Time::ZERO, cfg.initial_size),
            window: JoinWindow::new(),
            conns: HashMap::new(),
            next_conn: 0,
            next_identity: cfg.initial_size,
            counters: GateCounters::default(),
            log: Vec::new(),
        };
        ShardedGate {
            cfg,
            router: Mutex::new(router),
            shards: slices.into_iter().map(Mutex::new).collect(),
        }
    }

    /// Runs `f` on the shard slice owning `identity`.
    fn with_shard<T>(&self, identity: u64, f: impl FnOnce(&mut GateShard, usize) -> T) -> T {
        let n = self.shards.len() as u64;
        let mut guard = lock(&self.shards[(identity % n) as usize]);
        f(&mut guard, (identity / n) as usize)
    }

    /// Opens a connection at time `now`: allocates an id, derives its
    /// challenge nonce, quotes a difficulty, and returns the hello frame
    /// the transport must send before reading anything.
    pub fn connect(&self, now: Time) -> (u64, Frame) {
        let mut r = lock(&self.router);
        let conn = r.next_conn;
        r.next_conn += 1;
        let nonce = challenge_nonce(self.cfg.seed, conn);
        let difficulty = quote_difficulty(&self.cfg, &r.est, &r.window, now);
        r.conns.insert(conn, ConnState { nonce, difficulty });
        r.push_record(logkind::HELLO, conn, difficulty);
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
            difficulty,
            nonce,
            mine_bits: self.cfg.mine_bits,
            mem_blocks: self.cfg.mem.blocks,
            mem_passes: self.cfg.mem.passes,
        };
        (conn, hello)
    }

    /// Handles one client frame on connection `conn` at time `now`.
    pub fn handle(&self, conn: u64, frame: &Frame, now: Time) -> Response {
        match *frame {
            Frame::Join { client_tag, solution } => {
                self.handle_join(conn, client_tag, solution, now)
            }
            Frame::MineSubmit { identity, token, salt } => {
                lock(&self.router).conns.remove(&conn);
                self.handle_mine(identity, &token, salt, now)
            }
            Frame::Depart { identity, token } => {
                lock(&self.router).conns.remove(&conn);
                self.handle_depart(identity, &token, now)
            }
            // Server-to-client frames arriving inbound are protocol
            // violations; drop without state changes.
            Frame::Hello { .. }
            | Frame::Granted { .. }
            | Frame::Admitted { .. }
            | Frame::DepartAck { .. } => lock(&self.router).drop_conn(conn, 1),
        }
    }

    fn handle_join(&self, conn: u64, client_tag: u64, solution: u64, now: Time) -> Response {
        // Removing (not reading) the state means a second Join on the
        // same connection — a replay — finds nothing and is dropped
        // before any hash is computed.
        let state = {
            let mut r = lock(&self.router);
            match r.conns.remove(&conn) {
                Some(s) => s,
                None => return r.drop_conn(conn, 0),
            }
        };
        let challenge =
            match Challenge::try_new(&state.nonce, &client_tag.to_be_bytes(), state.difficulty) {
                Ok(c) => c,
                // difficulty 0 cannot be quoted; defensive
                Err(_) => return lock(&self.router).drop_conn(conn, 2),
            };
        // The hash verification runs outside every lock.
        let verified = challenge.verify(&sybil_crypto::Solution { nonce: solution });
        let identity = {
            let mut r = lock(&self.router);
            r.counters.pow_verifications += 1;
            if !verified {
                r.counters.rejected_pow += 1;
                r.push_record(logkind::REJECTED_POW, conn, state.difficulty);
                return Response::Drop;
            }
            let identity = r.next_identity;
            r.next_identity += 1;
            r.window.record(now, 1);
            r.counters.granted += 1;
            r.push_record(logkind::GRANTED, conn, identity);
            identity
        };
        let token = token_for(&self.cfg.master_secret, identity, client_tag);
        self.with_shard(identity, |shard, local| {
            shard.ensure(local);
            // A fresh slot is Pending by construction.
            shard.records[local] =
                Some(IdentityRecord { client_tag, joined_at: now, departed: false });
        });
        Response::Reply(Frame::Granted { identity, token: *token.as_bytes() })
    }

    fn handle_mine(&self, identity: u64, token: &[u8; 32], salt: u64, now: Time) -> Response {
        let pending_tag = self.with_shard(identity, |shard, local| match shard.record(local) {
            Some(rec)
                if !rec.departed
                    && shard.admission.get(local as u64) == AdmissionState::Pending =>
            {
                Some(rec.client_tag)
            }
            _ => None,
        });
        let Some(client_tag) = pending_tag else {
            return lock(&self.router).drop_unknown(identity);
        };
        let expected = token_for(&self.cfg.master_secret, identity, client_tag);
        if !sybil_crypto::hmac::verify_tag(&expected, &Digest(*token)) {
            return lock(&self.router).drop_unknown(identity);
        }
        // The memory-hard digest — the dominant cost of the whole
        // service — runs outside every lock.
        let digest = fill_and_mix(expected.as_bytes(), salt, &self.cfg.mem);
        let admitted = meets_difficulty(&digest, self.cfg.mine_bits);
        let transitioned = self.with_shard(identity, |shard, local| match shard.record(local) {
            Some(rec)
                if !rec.departed
                    && shard.admission.get(local as u64) == AdmissionState::Pending =>
            {
                let state =
                    if admitted { AdmissionState::Admitted } else { AdmissionState::Refused };
                shard.admission.set(local as u64, state);
                true
            }
            // A concurrent submission won the race while the digest was
            // computing; this one still paid for its digest.
            _ => false,
        });
        let mut r = lock(&self.router);
        r.counters.mem_verifications += 1;
        if !transitioned {
            return r.drop_unknown(identity);
        }
        if admitted {
            r.est.on_join(now, 1);
            r.counters.admitted += 1;
            r.push_record(logkind::ADMITTED, identity, salt);
            Response::Reply(Frame::Admitted { identity })
        } else {
            r.counters.refused_mine += 1;
            r.push_record(logkind::MINE_REFUSED, identity, salt);
            Response::Drop
        }
    }

    fn handle_depart(&self, identity: u64, token: &[u8; 32], now: Time) -> Response {
        let admitted_rec = self.with_shard(identity, |shard, local| match shard.record(local) {
            Some(rec)
                if !rec.departed
                    && shard.admission.get(local as u64) == AdmissionState::Admitted =>
            {
                Some((rec.client_tag, rec.joined_at))
            }
            _ => None,
        });
        let Some((client_tag, joined_at)) = admitted_rec else {
            return lock(&self.router).drop_unknown(identity);
        };
        let expected = token_for(&self.cfg.master_secret, identity, client_tag);
        if !sybil_crypto::hmac::verify_tag(&expected, &Digest(*token)) {
            return lock(&self.router).drop_unknown(identity);
        }
        let departed = self.with_shard(identity, |shard, local| {
            match shard.records.get_mut(local).and_then(|r| r.as_mut()) {
                Some(rec)
                    if !rec.departed
                        && shard.admission.get(local as u64) == AdmissionState::Admitted =>
                {
                    rec.departed = true;
                    true
                }
                _ => false,
            }
        });
        let mut r = lock(&self.router);
        if !departed {
            return r.drop_unknown(identity);
        }
        let old = r.est.classify_old(joined_at);
        r.est.on_depart(now, old, 1);
        r.counters.departed += 1;
        r.push_record(logkind::DEPARTED, identity, 0);
        Response::Reply(Frame::DepartAck { identity })
    }

    /// The credential of a pre-admitted bootstrap identity (`None` for
    /// identities issued over the wire — those tokens exist only in the
    /// [`Frame::Granted`] that delivered them). The replay client uses
    /// this to depart initial members, standing in for the out-of-band
    /// credential distribution the paper's bootstrap assumes.
    pub fn bootstrap_token(&self, identity: u64) -> Option<Digest> {
        if identity >= self.cfg.initial_size {
            return None;
        }
        let tag = self
            .with_shard(identity, |shard, local| shard.record(local).map(|rec| rec.client_tag))?;
        Some(token_for(&self.cfg.master_secret, identity, tag))
    }

    /// Lifetime counters.
    pub fn counters(&self) -> GateCounters {
        lock(&self.router).counters
    }

    /// A copy of the raw decision log: 17-byte records of `(kind, a, b)`
    /// with little-endian `u64` operands. Contains connection ids,
    /// identities, difficulties, and salts — but never wall-clock time,
    /// so equal serially-driven inputs give equal logs on any machine;
    /// under concurrency the record order follows the scheduler.
    pub fn decision_log(&self) -> Vec<u8> {
        lock(&self.router).log.clone()
    }

    /// SHA-256 over the decision log: the run's decision fingerprint.
    pub fn fingerprint(&self) -> Digest {
        Sha256::digest(&lock(&self.router).log)
    }

    /// Current good-join-rate estimate (`J̃`).
    pub fn estimated_join_rate(&self) -> f64 {
        lock(&self.router).est.estimate()
    }

    /// Total identities ever issued (bootstrap included).
    pub fn identity_count(&self) -> u64 {
        lock(&self.router).next_identity
    }

    /// The number of shard workers.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The configuration the gate was built with.
    pub fn config(&self) -> &GateConfig {
        &self.cfg
    }

    /// Connections still holding challenge state (hello sent, no `Join`
    /// verified yet, not disconnected).
    #[cfg(test)]
    pub(crate) fn open_connections(&self) -> usize {
        lock(&self.router).conns.len()
    }
}

impl SharedGate for ShardedGate {
    fn connect(&self, now: Time) -> (u64, Frame) {
        ShardedGate::connect(self, now)
    }
    fn handle(&self, conn: u64, frame: &Frame, now: Time) -> Response {
        ShardedGate::handle(self, conn, frame, now)
    }
    fn disconnect(&self, conn: u64) {
        lock(&self.router).conns.remove(&conn);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::client::{replay, ReplayConfig};
    use crate::memhard::{mine, MemHardParams};
    use sybil_churn::networks;
    use sybil_crypto::Solver;
    use sybil_sim::workload_io::{write_workload_file, DiskWorkload};

    fn test_cfg() -> GateConfig {
        GateConfig {
            difficulty_floor: 4,
            mine_bits: 1,
            mem: MemHardParams { blocks: 4, passes: 1 },
            initial_size: 5,
            ..GateConfig::default()
        }
    }

    /// Phase one: solve the hello's PoW and collect the grant.
    fn join(gate: &ShardedGate, client_tag: u64, now: Time) -> (u64, [u8; 32]) {
        let (conn, hello) = gate.connect(now);
        let Frame::Hello { difficulty, nonce, .. } = hello else { panic!("expected hello") };
        let challenge = Challenge::new(&nonce, &client_tag.to_be_bytes(), difficulty);
        let solution = Solver::new().solve(&challenge).nonce;
        let reply = gate.handle(conn, &Frame::Join { client_tag, solution }, now);
        let Response::Reply(Frame::Granted { identity, token }) = reply else {
            panic!("expected grant, got {reply:?}")
        };
        (identity, token)
    }

    /// One full two-phase admission.
    fn admit(gate: &ShardedGate, client_tag: u64, now: Time) -> (u64, [u8; 32]) {
        let (identity, token) = join(gate, client_tag, now);
        let mined = mine(&token, gate.config().mine_bits, &gate.config().mem);
        let (conn, _) = gate.connect(now);
        let reply =
            gate.handle(conn, &Frame::MineSubmit { identity, token, salt: mined.salt }, now);
        assert_eq!(reply, Response::Reply(Frame::Admitted { identity }));
        (identity, token)
    }

    /// SHA-256 of the decision log the serial replay below produces,
    /// recorded from the monolithic service this gate replaced.
    const SERIAL_REPLAY_LOG_SHA256: &str =
        "55a8899c66d04af9149289251297480dfceb1b71c599bd9f4c6f033dc56fa1c8";

    #[test]
    fn serial_replay_is_byte_identical_at_every_shard_count() {
        // An identical churn replay (honest and adversarial traffic) at
        // every N produces the same decision log, byte for byte, the
        // same counters, and the pinned fingerprint.
        let workload = networks::gnutella().generate(Time(60.0), 17);
        let path =
            std::env::temp_dir().join(format!("sybil_gate_shard_eq_{}.wkld", std::process::id()));
        write_workload_file(&path, &workload).expect("write workload");
        let cfg = GateConfig { initial_size: 16, ..test_cfg() };
        let rcfg = ReplayConfig { horizon: Time(60.0), adversarial_fraction: 0.25, seed: 23 };
        let run = |shards| {
            let source = DiskWorkload::open(&path).expect("open workload");
            replay(source, ShardedGate::new(cfg.clone(), shards), &rcfg)
        };
        let (one, one_report) = run(1);
        assert!(one.counters().granted > 0, "replay must exercise the gate");
        assert_eq!(
            sybil_crypto::hex::encode(one.fingerprint().as_bytes()),
            SERIAL_REPLAY_LOG_SHA256,
            "the decision log moved"
        );
        for shards in [2usize, 3, 8] {
            let (gate, report) = run(shards);
            // Wall-clock measurements differ run to run; the behavioral
            // client-side tallies must not.
            assert_eq!(report.connections, one_report.connections, "{shards} shards");
            assert_eq!(report.admitted, one_report.admitted, "{shards} shards");
            assert_eq!(report.join_drops, one_report.join_drops, "{shards} shards");
            assert_eq!(report.departs, one_report.departs, "{shards} shards");
            assert_eq!(report.client_pow_work, one_report.client_pow_work, "{shards} shards");
            assert_eq!(report.mine_attempts, one_report.mine_attempts, "{shards} shards");
            assert_eq!(gate.decision_log(), one.decision_log(), "{shards} shards: log bytes");
            assert_eq!(gate.counters(), one.counters(), "{shards} shards: counters");
            assert_eq!(gate.identity_count(), one.identity_count());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn two_phase_admission_lands_on_the_congruent_shard() {
        let gate = ShardedGate::new(test_cfg(), 4);
        let (identity, token) = admit(&gate, 99, Time(1.0));
        assert_eq!(identity, 5, "first wire identity follows the bootstrap set");
        let c = gate.counters();
        assert_eq!((c.granted, c.admitted, c.rejected_pow), (1, 1, 0));
        // The record lives on shard identity % 4 and departs exactly once.
        let (conn, _) = gate.connect(Time(2.0));
        let reply = gate.handle(conn, &Frame::Depart { identity, token }, Time(2.0));
        assert_eq!(reply, Response::Reply(Frame::DepartAck { identity }));
        let (conn, _) = gate.connect(Time(3.0));
        let reply = gate.handle(conn, &Frame::Depart { identity, token }, Time(3.0));
        assert_eq!(reply, Response::Drop);
    }

    #[test]
    fn invalid_pow_costs_exactly_one_verification_and_frees_state() {
        // A high floor so the garbage solution cannot fluke past the
        // verifier (fluke probability is 1/difficulty).
        let gate = ShardedGate::new(GateConfig { difficulty_floor: 1 << 30, ..test_cfg() }, 2);
        let (conn, _) = gate.connect(Time(1.0));
        let reply =
            gate.handle(conn, &Frame::Join { client_tag: 7, solution: u64::MAX }, Time(1.0));
        assert_eq!(reply, Response::Drop);
        let after = gate.counters();
        assert_eq!(after.pow_verifications, 1, "exactly one hash verification");
        assert_eq!((after.rejected_pow, after.granted), (1, 0));
        assert!(lock(&gate.router).conns.is_empty(), "the connection's state is gone");
        // A retry on the same connection is dropped with ZERO further
        // verifications.
        let reply = gate.handle(conn, &Frame::Join { client_tag: 7, solution: 0 }, Time(1.0));
        assert_eq!(reply, Response::Drop);
        assert_eq!(gate.counters().pow_verifications, 1);
    }

    #[test]
    fn replayed_solution_fails_on_fresh_connection() {
        let gate = ShardedGate::new(test_cfg(), 2);
        let (conn, hello) = gate.connect(Time(1.0));
        let Frame::Hello { difficulty, nonce, .. } = hello else { panic!() };
        let challenge = Challenge::new(&nonce, &7u64.to_be_bytes(), difficulty);
        let solution = Solver::new().solve(&challenge).nonce;
        assert!(matches!(
            gate.handle(conn, &Frame::Join { client_tag: 7, solution }, Time(1.0)),
            Response::Reply(Frame::Granted { .. })
        ));
        // Same (tag, solution) on a new connection: the nonce differs, so
        // the old solution is worthless.
        let (conn2, hello2) = gate.connect(Time(1.0));
        let Frame::Hello { nonce: nonce2, .. } = hello2 else { panic!() };
        assert_ne!(nonce, nonce2, "per-connection nonces must differ");
        let reply = gate.handle(conn2, &Frame::Join { client_tag: 7, solution }, Time(1.0));
        assert_eq!(reply, Response::Drop);
        assert_eq!(gate.counters().rejected_pow, 1);
    }

    #[test]
    fn difficulty_rises_with_recent_joins_and_respects_cap() {
        let gate = ShardedGate::new(GateConfig { difficulty_cap: 6, ..test_cfg() }, 1);
        let (_, hello) = gate.connect(Time(1.0));
        let Frame::Hello { difficulty: d0, .. } = hello else { panic!() };
        assert_eq!(d0, 4, "floor quote before any joins");
        for i in 0..5 {
            join(&gate, 100 + i, Time(1.0));
        }
        let (_, hello) = gate.connect(Time(1.0));
        let Frame::Hello { difficulty: d1, .. } = hello else { panic!() };
        assert!(d1 > d0, "recent joins must raise the quote");
        assert!(d1 <= 6, "cap must bind, got {d1}");
    }

    #[test]
    fn decision_log_is_time_free_and_fingerprint_stable() {
        let run = |now_scale: f64| {
            let gate = ShardedGate::new(test_cfg(), 1);
            admit(&gate, 42, Time(1.0 * now_scale));
            join(&gate, 43, Time(2.0 * now_scale));
            (gate.decision_log(), gate.fingerprint())
        };
        let (log_a, fp_a) = run(1.0);
        let (log_b, fp_b) = run(1000.0);
        assert_eq!(log_a, log_b, "wall-clock must not leak into the log");
        assert_eq!(fp_a, fp_b);
        assert_eq!(log_a.len() % 17, 0, "records are fixed width");
    }

    #[test]
    fn bootstrap_identities_shard_across_workers_and_can_depart() {
        let cfg = test_cfg();
        let one = ShardedGate::new(cfg.clone(), 1);
        let gate = ShardedGate::new(cfg.clone(), 3);
        for i in 0..cfg.initial_size {
            // Dealt tokens do not depend on the shard count.
            let token = gate.bootstrap_token(i).expect("bootstrap identity");
            assert_eq!(Some(token), one.bootstrap_token(i), "identity {i}");
            let (conn, _) = gate.connect(Time(1.0));
            let reply = gate.handle(
                conn,
                &Frame::Depart { identity: i, token: *token.as_bytes() },
                Time(1.0),
            );
            assert_eq!(reply, Response::Reply(Frame::DepartAck { identity: i }));
        }
        assert!(gate.bootstrap_token(cfg.initial_size).is_none());
        assert_eq!(gate.counters().departed, cfg.initial_size);
    }

    #[test]
    fn forged_tokens_unknown_identities_and_inbound_server_frames_cost_no_digest() {
        let gate = ShardedGate::new(test_cfg(), 2);
        let (identity, token) = join(&gate, 7, Time(1.0));
        let mut forged = token;
        forged[0] ^= 1;
        let (conn, _) = gate.connect(Time(1.0));
        let reply =
            gate.handle(conn, &Frame::MineSubmit { identity, token: forged, salt: 0 }, Time(1.0));
        assert_eq!(reply, Response::Drop);
        // Unknown identity: beyond anything issued.
        let (conn, _) = gate.connect(Time(1.0));
        let reply =
            gate.handle(conn, &Frame::MineSubmit { identity: 999, token, salt: 0 }, Time(1.0));
        assert_eq!(reply, Response::Drop);
        // A server-to-client frame arriving inbound.
        let (conn, _) = gate.connect(Time(1.0));
        let reply = gate.handle(conn, &Frame::Admitted { identity }, Time(1.0));
        assert_eq!(reply, Response::Drop);
        let c = gate.counters();
        assert_eq!(c.mem_verifications, 0, "no probe may cost a digest");
        assert_eq!(c.dropped, 3);
    }

    #[test]
    fn connect_and_close_leaves_no_connection_state() {
        use std::io::Read;
        use std::net::{TcpListener, TcpStream};

        let Ok(listener) = TcpListener::bind("127.0.0.1:0") else {
            eprintln!("skipping: cannot bind a localhost listener in this sandbox");
            return;
        };
        let addr = listener.local_addr().expect("bound listener has an address");
        let gate = Arc::new(ShardedGate::new(test_cfg(), 2));
        let server = Arc::clone(&gate);
        std::thread::spawn(move || {
            let _ = crate::transport::serve(listener, server, 2);
        });
        // Reads the hello, so the server's `connect` has happened.
        let open = || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let mut prefix = [0u8; 4];
            stream.read_exact(&mut prefix).expect("hello length prefix");
            stream
        };
        // The first connection holds one of the two handler slots. Each
        // of the 1 000 after it hangs up and waits for the server to close
        // its end, which the handler does last — after freeing the
        // connection's state and its slot — so each has run to its end,
        // and left the second slot free, before the next one dials.
        let _first = open();
        for _ in 0..1000 {
            let mut stream = open();
            stream.shutdown(std::net::Shutdown::Write).expect("hang up");
            let mut rest = Vec::new();
            stream.read_to_end(&mut rest).expect("the server closes its end");
        }
        let _last = open();
        let router = lock(&gate.router);
        let mut live: Vec<u64> = router.conns.keys().copied().collect();
        live.sort_unstable();
        assert_eq!(live, [0, 1001], "only the two open connections keep state");
        assert_eq!(router.log.len(), 1002 * 17);
        assert!(router.log.chunks(17).all(|record| record[0] == logkind::HELLO));
        assert_eq!(router.counters, GateCounters::default());
    }

    #[test]
    fn poisoned_router_and_shard_locks_keep_serving() {
        // A handler that panics while holding a lock poisons it; `lock`
        // recovers the guard, because every gate state transition is
        // complete before any panic point a handler could hit.
        let gate = Arc::new(ShardedGate::new(test_cfg(), 2));
        let poisoner = Arc::clone(&gate);
        let _ = std::thread::spawn(move || {
            let _router = poisoner.router.lock().unwrap();
            let _shards: Vec<_> = poisoner.shards.iter().map(|s| s.lock().unwrap()).collect();
            panic!("deliberate test panic to poison the gate's locks");
        })
        .join();
        assert!(gate.router.lock().is_err(), "the router lock must actually be poisoned");
        assert!(gate.shards.iter().all(|s| s.lock().is_err()), "and every shard lock");
        let (identity, _) = admit(&gate, 9, Time(1.0));
        assert_eq!(identity, 5);
        assert_eq!(gate.counters().dropped, 0);
    }

    #[test]
    fn concurrent_admissions_keep_counters_exact() {
        // Hammer one gate from several threads through &self. Constant
        // difficulty (floor == cap) keeps every hello solvable fast.
        let cfg = GateConfig {
            difficulty_floor: 8,
            difficulty_cap: 8,
            mine_bits: 0,
            mem: MemHardParams { blocks: 4, passes: 1 },
            initial_size: 0,
            ..GateConfig::default()
        };
        let gate = Arc::new(ShardedGate::new(cfg, 4));
        let threads = 4;
        let per_thread = 25u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let gate = Arc::clone(&gate);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let tag = ((t as u64) << 32) | i;
                        let (conn, hello) = gate.connect(Time(1.0));
                        let Frame::Hello {
                            difficulty,
                            nonce,
                            mine_bits,
                            mem_blocks,
                            mem_passes,
                            ..
                        } = hello
                        else {
                            panic!()
                        };
                        let challenge = Challenge::new(&nonce, &tag.to_be_bytes(), difficulty);
                        let solution = Solver::new().solve(&challenge).nonce;
                        let reply = gate.handle(
                            conn,
                            &Frame::Join { client_tag: tag, solution },
                            Time(1.0),
                        );
                        let Response::Reply(Frame::Granted { identity, token }) = reply else {
                            panic!("expected grant")
                        };
                        let mem = MemHardParams { blocks: mem_blocks, passes: mem_passes };
                        let mined = mine(&token, mine_bits, &mem);
                        let reply = gate.handle(
                            conn,
                            &Frame::MineSubmit { identity, token, salt: mined.salt },
                            Time(1.0),
                        );
                        assert_eq!(reply, Response::Reply(Frame::Admitted { identity }));
                    }
                });
            }
        });
        let total = threads as u64 * per_thread;
        let c = gate.counters();
        assert_eq!(c.granted, total);
        assert_eq!(c.admitted, total);
        assert_eq!(c.pow_verifications, total);
        assert_eq!(c.mem_verifications, total);
        assert_eq!((c.rejected_pow, c.refused_mine, c.dropped), (0, 0, 0));
        assert_eq!(gate.identity_count(), total);
        assert_eq!(gate.decision_log().len() % 17, 0, "records stay fixed width");
    }
}
