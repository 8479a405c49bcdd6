//! The admission state machine: one [`State`] behind one lock. The
//! protocol is described in [`crate::service`].
//!
//! * **Under the lock**: the connection table, the join-rate estimator
//!   and its window, one [`IdentityRecord`] and one [`AdmissionMap`]
//!   entry per identity ever issued, the monotone counters and the
//!   decision log. The state transition, the estimator call, the
//!   counters and the log record of one decision share one critical
//!   section, so the log is the order in which transitions happened and
//!   in which the estimator saw them.
//! * **Outside it**: every digest — the PoW verification, the token
//!   HMAC and the memory-hard `fill_and_mix`. A frame therefore takes
//!   the lock twice, once to read what the digest needs and once to
//!   commit, and **re-checks the record's state under the second
//!   acquisition**: a submission that raced it while the digest was
//!   computing costs its sender a digest but cannot double-admit or
//!   double-depart.
//!
//! Driven serially, the gate's decision log is a function of its input
//! alone — the tests in this module pin its SHA-256. Driven
//! concurrently, record order *across* identities follows the scheduler
//! (so parallel benchmarks record no fingerprint), but per identity
//! `GRANTED`, then `ADMITTED` or `MINE_REFUSED`, then `DEPARTED` appear
//! in that order, and the counters and per-identity outcomes are exact.

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
/// sibling must not take the gate down with it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Everything the gate knows that changes, behind the one lock.
struct State {
    est: GoodJEst,
    window: JoinWindow,
    conns: HashMap<u64, ConnState>,
    next_conn: u64,
    /// One record per identity ever issued, bootstrap set first:
    /// identity `i` is `records[i]`, the next to issue is `records.len()`.
    records: Vec<IdentityRecord>,
    admission: AdmissionMap,
    counters: GateCounters,
    log: Vec<u8>,
}

impl State {
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

    /// Issues the next identity and writes its record in the same step;
    /// a fresh admission slot is Pending by construction.
    fn issue(&mut self, client_tag: u64, joined_at: Time) -> u64 {
        let identity = self.records.len() as u64;
        self.records.push(IdentityRecord { client_tag, joined_at, departed: false });
        self.admission.grow(identity + 1);
        identity
    }

    /// The record of `identity` if it was issued, has not departed and is
    /// in admission state `state` — the check every transition makes
    /// before its digest and again before it commits.
    fn live(&self, identity: u64, state: AdmissionState) -> Option<&IdentityRecord> {
        let rec = self.records.get(usize::try_from(identity).ok()?)?;
        (!rec.departed && self.admission.get(identity) == state).then_some(rec)
    }
}

/// The admission service. See the module docs for what the lock covers
/// and [`crate::service`] for the protocol.
pub struct ShardedGate {
    cfg: GateConfig,
    state: Mutex<State>,
}

impl ShardedGate {
    /// Creates a gate with `cfg.initial_size` pre-admitted bootstrap
    /// identities. The type's name and `shards` are what the frozen
    /// `benchmark/` package compiles against (ROADMAP 1(d) renames the
    /// type `Gate` and drops the parameter).
    ///
    /// # Panics
    ///
    /// Panics unless `shards` is 1.
    pub fn new(cfg: GateConfig, shards: usize) -> Self {
        assert_eq!(shards, 1, "the gate is one state machine behind one lock");
        let mut state = State {
            est: GoodJEst::new(cfg.estimator, Time::ZERO, cfg.initial_size),
            window: JoinWindow::new(),
            conns: HashMap::new(),
            next_conn: 0,
            // Grown one bootstrap record at a time, not `with_capacity`:
            // amortised doubling leaves the headroom that keeps the first
            // grants from re-allocating a table `initial_size` long.
            records: Vec::new(),
            admission: AdmissionMap::new(0),
            counters: GateCounters::default(),
            log: Vec::new(),
        };
        for i in 0..cfg.initial_size {
            // Bootstrap identity `i` carries client tag `i`.
            state.issue(i, Time::ZERO);
            state.admission.set(i, AdmissionState::Admitted);
        }
        ShardedGate { cfg, state: Mutex::new(state) }
    }

    /// Opens a connection at time `now`: allocates an id, derives its
    /// challenge nonce, quotes a difficulty, and returns the hello frame
    /// the transport must send before reading anything.
    pub fn connect(&self, now: Time) -> (u64, Frame) {
        let mut s = lock(&self.state);
        let conn = s.next_conn;
        s.next_conn += 1;
        let nonce = challenge_nonce(self.cfg.seed, conn);
        let difficulty = quote_difficulty(&self.cfg, &s.est, &s.window, now);
        s.conns.insert(conn, ConnState { nonce, difficulty });
        s.push_record(logkind::HELLO, conn, difficulty);
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
                self.handle_mine(conn, identity, &token, salt, now)
            }
            Frame::Depart { identity, token } => self.handle_depart(conn, identity, &token, now),
            // Server-to-client frames arriving inbound are protocol
            // violations; drop without state changes.
            Frame::Hello { .. }
            | Frame::Granted { .. }
            | Frame::Admitted { .. }
            | Frame::DepartAck { .. } => lock(&self.state).drop_conn(conn, 1),
        }
    }

    fn handle_join(&self, conn: u64, client_tag: u64, solution: u64, now: Time) -> Response {
        // Removing (not reading) the state means a second Join on the
        // same connection — a replay — finds nothing and is dropped
        // before any hash is computed.
        let state = {
            let mut s = lock(&self.state);
            match s.conns.remove(&conn) {
                Some(state) => state,
                None => return s.drop_conn(conn, 0),
            }
        };
        let challenge =
            match Challenge::try_new(&state.nonce, &client_tag.to_be_bytes(), state.difficulty) {
                Ok(c) => c,
                // difficulty 0 cannot be quoted; defensive
                Err(_) => return lock(&self.state).drop_conn(conn, 2),
            };
        // The hash verification runs outside the lock.
        let verified = challenge.verify(&sybil_crypto::Solution { nonce: solution });
        let identity = {
            let mut s = lock(&self.state);
            s.counters.pow_verifications += 1;
            if !verified {
                s.counters.rejected_pow += 1;
                s.push_record(logkind::REJECTED_POW, conn, state.difficulty);
                return Response::Drop;
            }
            let identity = s.issue(client_tag, now);
            s.window.record(now, 1);
            s.counters.granted += 1;
            s.push_record(logkind::GRANTED, conn, identity);
            identity
        };
        let token = token_for(&self.cfg.master_secret, identity, client_tag);
        Response::Reply(Frame::Granted { identity, token: *token.as_bytes() })
    }

    fn handle_mine(
        &self,
        conn: u64,
        identity: u64,
        token: &[u8; 32],
        salt: u64,
        now: Time,
    ) -> Response {
        let client_tag = {
            let mut s = lock(&self.state);
            s.conns.remove(&conn);
            match s.live(identity, AdmissionState::Pending) {
                Some(rec) => rec.client_tag,
                None => return s.drop_unknown(identity),
            }
        };
        let expected = token_for(&self.cfg.master_secret, identity, client_tag);
        if !sybil_crypto::hmac::verify_tag(&expected, &Digest(*token)) {
            return lock(&self.state).drop_unknown(identity);
        }
        // The memory-hard digest — the dominant cost of the whole
        // service — runs outside the lock.
        let digest = fill_and_mix(expected.as_bytes(), salt, &self.cfg.mem);
        let admitted = meets_difficulty(&digest, self.cfg.mine_bits);
        let mut s = lock(&self.state);
        s.counters.mem_verifications += 1;
        if s.live(identity, AdmissionState::Pending).is_none() {
            // A concurrent submission won the race while the digest was
            // computing; this one still paid for its digest.
            return s.drop_unknown(identity);
        }
        if admitted {
            s.admission.set(identity, AdmissionState::Admitted);
            s.est.on_join(now, 1);
            s.counters.admitted += 1;
            s.push_record(logkind::ADMITTED, identity, salt);
            Response::Reply(Frame::Admitted { identity })
        } else {
            s.admission.set(identity, AdmissionState::Refused);
            s.counters.refused_mine += 1;
            s.push_record(logkind::MINE_REFUSED, identity, salt);
            Response::Drop
        }
    }

    fn handle_depart(&self, conn: u64, identity: u64, token: &[u8; 32], now: Time) -> Response {
        let (client_tag, joined_at) = {
            let mut s = lock(&self.state);
            s.conns.remove(&conn);
            match s.live(identity, AdmissionState::Admitted) {
                Some(rec) => (rec.client_tag, rec.joined_at),
                None => return s.drop_unknown(identity),
            }
        };
        let expected = token_for(&self.cfg.master_secret, identity, client_tag);
        if !sybil_crypto::hmac::verify_tag(&expected, &Digest(*token)) {
            return lock(&self.state).drop_unknown(identity);
        }
        let mut s = lock(&self.state);
        if s.live(identity, AdmissionState::Admitted).is_none() {
            // A concurrent departure of the same identity won the race.
            return s.drop_unknown(identity);
        }
        s.records[identity as usize].departed = true;
        let old = s.est.classify_old(joined_at);
        s.est.on_depart(now, old, 1);
        s.counters.departed += 1;
        s.push_record(logkind::DEPARTED, identity, 0);
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
        let tag = lock(&self.state).records[identity as usize].client_tag;
        Some(token_for(&self.cfg.master_secret, identity, tag))
    }

    /// Lifetime counters.
    pub fn counters(&self) -> GateCounters {
        lock(&self.state).counters
    }

    /// A copy of the raw decision log: 17-byte records of `(kind, a, b)`
    /// with little-endian `u64` operands, in the order the decisions
    /// took effect. Contains connection ids, identities, difficulties,
    /// and salts — but never wall-clock time, so equal serially-driven
    /// inputs give equal logs on any machine; under concurrency the
    /// order across identities follows the scheduler.
    pub fn decision_log(&self) -> Vec<u8> {
        lock(&self.state).log.clone()
    }

    /// SHA-256 over the decision log: the run's decision fingerprint.
    pub fn fingerprint(&self) -> Digest {
        Sha256::digest(&lock(&self.state).log)
    }

    /// Current good-join-rate estimate (`J̃`).
    pub fn estimated_join_rate(&self) -> f64 {
        lock(&self.state).est.estimate()
    }

    /// Total identities ever issued (bootstrap included).
    pub fn identity_count(&self) -> u64 {
        lock(&self.state).records.len() as u64
    }

    /// The configuration the gate was built with.
    pub fn config(&self) -> &GateConfig {
        &self.cfg
    }

    /// Connections still holding challenge state (hello sent, no `Join`
    /// verified yet, not disconnected).
    #[cfg(test)]
    pub(crate) fn open_connections(&self) -> usize {
        lock(&self.state).conns.len()
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
        lock(&self.state).conns.remove(&conn);
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
    fn serial_replay_reproduces_the_pinned_decision_log() {
        // A churn replay (honest and adversarial traffic) streamed from
        // disk produces the pinned decision log.
        let workload = networks::gnutella().generate(Time(60.0), 17);
        let path =
            std::env::temp_dir().join(format!("sybil_gate_replay_{}.wkld", std::process::id()));
        write_workload_file(&path, &workload).expect("write workload");
        let cfg = GateConfig { initial_size: 16, ..test_cfg() };
        let rcfg = ReplayConfig { horizon: Time(60.0), adversarial_fraction: 0.25, seed: 23 };
        let source = DiskWorkload::open(&path).expect("open workload");
        let (gate, _) = replay(source, ShardedGate::new(cfg, 1), &rcfg);
        assert!(gate.counters().granted > 0, "replay must exercise the gate");
        assert_eq!(
            sybil_crypto::hex::encode(gate.fingerprint().as_bytes()),
            SERIAL_REPLAY_LOG_SHA256,
            "the decision log moved"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "one state machine behind one lock")]
    fn a_second_shard_is_refused() {
        ShardedGate::new(test_cfg(), 2);
    }

    #[test]
    fn two_phase_admission_departs_exactly_once() {
        let gate = ShardedGate::new(test_cfg(), 1);
        let (identity, token) = admit(&gate, 99, Time(1.0));
        assert_eq!(identity, 5, "first wire identity follows the bootstrap set");
        let c = gate.counters();
        assert_eq!((c.granted, c.admitted, c.rejected_pow), (1, 1, 0));
        // The identity departs exactly once.
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
        let gate = ShardedGate::new(GateConfig { difficulty_floor: 1 << 30, ..test_cfg() }, 1);
        let (conn, _) = gate.connect(Time(1.0));
        let reply =
            gate.handle(conn, &Frame::Join { client_tag: 7, solution: u64::MAX }, Time(1.0));
        assert_eq!(reply, Response::Drop);
        let after = gate.counters();
        assert_eq!(after.pow_verifications, 1, "exactly one hash verification");
        assert_eq!((after.rejected_pow, after.granted), (1, 0));
        assert_eq!(gate.open_connections(), 0, "the connection's state is gone");
        // A retry on the same connection is dropped with ZERO further
        // verifications.
        let reply = gate.handle(conn, &Frame::Join { client_tag: 7, solution: 0 }, Time(1.0));
        assert_eq!(reply, Response::Drop);
        assert_eq!(gate.counters().pow_verifications, 1);
    }

    #[test]
    fn replayed_solution_fails_on_fresh_connection() {
        let gate = ShardedGate::new(test_cfg(), 1);
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
    fn every_bootstrap_identity_departs_exactly_once() {
        let cfg = test_cfg();
        let gate = ShardedGate::new(cfg.clone(), 1);
        for i in 0..cfg.initial_size {
            let token = gate.bootstrap_token(i).expect("bootstrap identity");
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
        let gate = ShardedGate::new(test_cfg(), 1);
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
        let gate = Arc::new(ShardedGate::new(test_cfg(), 1));
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
        let state = lock(&gate.state);
        let mut live: Vec<u64> = state.conns.keys().copied().collect();
        live.sort_unstable();
        assert_eq!(live, [0, 1001], "only the two open connections keep state");
        assert_eq!(state.log.len(), 1002 * 17);
        assert!(state.log.chunks(17).all(|record| record[0] == logkind::HELLO));
        assert_eq!(state.counters, GateCounters::default());
    }

    #[test]
    fn a_poisoned_lock_keeps_serving() {
        // A handler that panics while holding the lock poisons it; `lock`
        // recovers the guard, because every gate state transition is
        // complete before any panic point a handler could hit.
        let gate = Arc::new(ShardedGate::new(test_cfg(), 1));
        let poisoner = Arc::clone(&gate);
        let _ = std::thread::spawn(move || {
            let _state = poisoner.state.lock().unwrap();
            panic!("deliberate test panic to poison the gate's lock");
        })
        .join();
        assert!(gate.state.lock().is_err(), "the lock must actually be poisoned");
        let (identity, _) = admit(&gate, 9, Time(1.0));
        assert_eq!(identity, 5);
        assert_eq!(gate.counters().dropped, 0);
    }

    #[test]
    fn a_depart_racing_its_own_admission_is_logged_after_it() {
        // A client holds its token from `Granted`, so it can fire
        // `Depart` beside its own `MineSubmit`. Each of four clients is a
        // pair of threads: one joins, mines, hands the credential over a
        // rendezvous channel and — once the other has had its first
        // `Depart` refused, so it is looping when the admission commits —
        // submits; the other loops `Depart` until it is acknowledged.
        // The log must record every transition in the order it happened.
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::mpsc::sync_channel;

        const CLIENTS: u64 = 4;
        const SESSIONS: u64 = 2_000;
        let mem = MemHardParams { blocks: 4, passes: 1 };
        let gate = ShardedGate::new(
            GateConfig {
                difficulty_floor: 2,
                difficulty_cap: 2,
                mine_bits: 0,
                mem,
                initial_size: 0,
                ..GateConfig::default()
            },
            1,
        );
        let refused = AtomicU64::new(0);
        // Per client: the last session (counted from 1) whose departer is
        // looping, and the last whose admission has returned.
        let progress: Vec<[AtomicU64; 2]> = (0..CLIENTS).map(|_| Default::default()).collect();
        std::thread::scope(|scope| {
            for (client, [looping, admitted]) in progress.iter().enumerate() {
                let (gate, refused) = (&gate, &refused);
                let (hand_over, credentials) = sync_channel::<(u64, [u8; 32])>(0);
                let departer = scope.spawn(move || {
                    for session in 1..=SESSIONS {
                        let (identity, token) = credentials.recv().expect("a credential");
                        loop {
                            // Read before the try: a try that starts after
                            // the admission returned must be acknowledged.
                            let last = admitted.load(Ordering::SeqCst) >= session;
                            let (conn, _) = gate.connect(Time(1.0));
                            match gate.handle(conn, &Frame::Depart { identity, token }, Time(1.0)) {
                                Response::Reply(Frame::DepartAck { .. }) => break,
                                Response::Drop => refused.fetch_add(1, Ordering::SeqCst),
                                other => panic!("unexpected reply {other:?}"),
                            };
                            assert!(!last, "identity {identity} is admitted and cannot depart");
                            looping.store(session, Ordering::SeqCst);
                            std::thread::yield_now();
                        }
                    }
                });
                scope.spawn(move || {
                    for session in 1..=SESSIONS {
                        let tag = ((client as u64) << 32) | session;
                        let (identity, token) = join(gate, tag, Time(1.0));
                        let salt = mine(&token, 0, &mem).salt;
                        hand_over.send((identity, token)).expect("the departer is alive");
                        while looping.load(Ordering::SeqCst) < session {
                            assert!(!departer.is_finished(), "the departer died");
                            std::thread::yield_now();
                        }
                        let (conn, _) = gate.connect(Time(1.0));
                        let submit = Frame::MineSubmit { identity, token, salt };
                        let reply = gate.handle(conn, &submit, Time(1.0));
                        admitted.store(session, Ordering::SeqCst);
                        assert_eq!(reply, Response::Reply(Frame::Admitted { identity }));
                    }
                });
            }
        });

        let total = CLIENTS * SESSIONS;
        let c = gate.counters();
        assert_eq!((c.granted, c.admitted, c.departed), (total, total, total));
        assert_eq!(c.dropped, refused.load(Ordering::SeqCst), "one drop per refused depart");
        assert!(c.dropped >= total, "every departer was refused at least once");

        // Position of each identity's GRANTED, ADMITTED and DEPARTED
        // record, and how many records of each kind the log holds.
        let log = gate.decision_log();
        let mut position = vec![[usize::MAX; 3]; total as usize];
        let mut count = [0u64; 7];
        for (at, record) in log.chunks_exact(17).enumerate() {
            let a = u64::from_le_bytes(record[1..9].try_into().unwrap());
            let b = u64::from_le_bytes(record[9..17].try_into().unwrap());
            count[record[0] as usize] += 1;
            let (identity, step) = match record[0] {
                logkind::GRANTED => (b, 0),
                logkind::ADMITTED => (a, 1),
                logkind::DEPARTED => (a, 2),
                _ => continue,
            };
            let slot = &mut position[identity as usize][step];
            assert_eq!(*slot, usize::MAX, "identity {identity}: step {step} logged twice");
            *slot = at;
        }
        assert_eq!(log.len() % 17, 0, "records stay fixed width");
        // One connection per join, submission and depart attempt.
        assert_eq!(count[logkind::HELLO as usize], 3 * total + c.dropped);
        assert_eq!(count[logkind::GRANTED as usize], c.granted);
        assert_eq!(count[logkind::ADMITTED as usize], c.admitted);
        assert_eq!(count[logkind::DEPARTED as usize], c.departed);
        assert_eq!(count[logkind::DROPPED as usize], c.dropped);
        assert_eq!(
            count[logkind::REJECTED_POW as usize] + count[logkind::MINE_REFUSED as usize],
            0
        );
        let inverted: Vec<usize> = (0..total as usize)
            .filter(|&id| {
                let [granted, admitted, departed] = position[id];
                !(granted < admitted && admitted < departed && departed != usize::MAX)
            })
            .collect();
        assert!(
            inverted.is_empty(),
            "{} of {total} identities have GRANTED < ADMITTED < DEPARTED out of order, first {:?}",
            inverted.len(),
            inverted.first().map(|&id| (id, position[id]))
        );
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
        let gate = Arc::new(ShardedGate::new(cfg, 1));
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
