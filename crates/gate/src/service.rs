//! What every part of the gate shares: configuration, counters, the
//! reply type, per-connection and per-identity records, and the pure
//! functions (challenge nonce, identity token, difficulty quote) behind
//! the two defense phases. The state machine itself is
//! [`ShardedGate`](crate::sharded::ShardedGate).
//!
//! 1. **Pre-handshake PoW.** Every connection receives a fresh nonce
//!    and a difficulty quote in its hello; the first [`Frame::Join`]
//!    must carry a valid solution or the connection is silently dropped
//!    after exactly one hash verification — no identity, no token, no
//!    retained state. The quote scales with the estimated join rate:
//!    the floor plus the number of joins the estimator's window has
//!    seen in the last `1/J̃` seconds, mirroring the paper's
//!    join-rate-proportional entry cost.
//! 2. **Memory-hard identity mining.** A verified PoW earns a
//!    *provisional* identity and an HMAC token immediately (the keypair
//!    issue of the two-phase scheme); full admission requires a
//!    [`fill_and_mix`](crate::memhard::fill_and_mix) salt over the token
//!    that meets the published trailing-zero difficulty.
//!
//! Every decision appends a fixed-width record to an in-memory log that
//! contains no wall-clock data, so two replays of the same workload
//! produce byte-identical logs on any machine — the property the
//! determinism tests and the benchmark fingerprint pin.

use ergo_core::window::JoinWindow;
use ergo_core::{GoodJEst, GoodJEstConfig};
use sybil_crypto::{hmac_sha256, Digest, Sha256};
use sybil_sim::Time;

use crate::memhard::MemHardParams;
use crate::wire::Frame;

/// Tuning knobs for a gate instance.
#[derive(Clone, Debug)]
pub struct GateConfig {
    /// Minimum PoW difficulty quoted to any connection.
    pub difficulty_floor: u64,
    /// Ceiling on the adaptive difficulty quote.
    pub difficulty_cap: u64,
    /// Trailing zero bits the memory-hard mining digest must show.
    pub mine_bits: u8,
    /// Memory-hard fill/mix parameters, published in the hello.
    pub mem: MemHardParams,
    /// Good-join-rate estimator configuration.
    pub estimator: GoodJEstConfig,
    /// Identities pre-admitted at start (the bootstrap set the paper's
    /// system assumes exists before the adversary arrives).
    pub initial_size: u64,
    /// Secret for minting identity tokens. A real deployment draws this
    /// from an RNG at startup; tests and benchmarks fix it for
    /// reproducibility.
    pub master_secret: Vec<u8>,
    /// Seed for per-connection challenge nonces (deterministic given the
    /// connection sequence, so replays are reproducible).
    pub seed: u64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            difficulty_floor: 8,
            difficulty_cap: 1 << 20,
            mine_bits: 2,
            mem: MemHardParams::default(),
            estimator: GoodJEstConfig::default(),
            initial_size: 0,
            master_secret: b"sybil-gate-master".to_vec(),
            seed: 1,
        }
    }
}

/// What the server has promised one live connection.
pub(crate) struct ConnState {
    /// Challenge nonce sent in this connection's hello.
    pub(crate) nonce: [u8; 16],
    /// Difficulty quoted in this connection's hello.
    pub(crate) difficulty: u64,
}

/// What the gate remembers about one issued identity.
pub(crate) struct IdentityRecord {
    /// The client tag bound into the identity's token.
    pub(crate) client_tag: u64,
    /// When the identity was granted (estimator old/new classification).
    pub(crate) joined_at: Time,
    /// True once the identity departed; departed identities are inert.
    pub(crate) departed: bool,
}

/// Monotone counters over a gate's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GateCounters {
    /// PoW verifications performed (exactly one per [`Frame::Join`] that
    /// reached verification).
    pub pow_verifications: u64,
    /// Memory-hard digests computed to check mining submissions.
    pub mem_verifications: u64,
    /// Provisional identities issued (phase one passed).
    pub granted: u64,
    /// Identities fully admitted (phase two passed).
    pub admitted: u64,
    /// Joins dropped for a bad PoW solution.
    pub rejected_pow: u64,
    /// Mining submissions whose digest missed the difficulty.
    pub refused_mine: u64,
    /// Voluntary departures recorded.
    pub departed: u64,
    /// Frames dropped for protocol violations (no hello state, bad
    /// token, wrong direction, unknown identity).
    pub dropped: u64,
}

/// The gate's reply to one inbound frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Response {
    /// Send this frame back to the client.
    Reply(Frame),
    /// Say nothing and drop the connection (the silent-drop defense:
    /// failures cost the adversary a round-trip and teach them nothing).
    Drop,
}

/// Decision-log record kinds (first byte of each 17-byte record).
pub(crate) mod logkind {
    pub const HELLO: u8 = 0;
    pub const GRANTED: u8 = 1;
    pub const REJECTED_POW: u8 = 2;
    pub const ADMITTED: u8 = 3;
    pub const MINE_REFUSED: u8 = 4;
    pub const DEPARTED: u8 = 5;
    pub const DROPPED: u8 = 6;
}

/// The deterministic challenge nonce for connection `conn` under `seed`.
pub(crate) fn challenge_nonce(seed: u64, conn: u64) -> [u8; 16] {
    let mut h = Sha256::new();
    h.update(&seed.to_be_bytes());
    h.update(&conn.to_be_bytes());
    let digest = h.finalize();
    let mut nonce = [0u8; 16];
    nonce.copy_from_slice(&digest.as_bytes()[..16]);
    nonce
}

/// The HMAC credential for (`identity`, `client_tag`) under `master_secret`.
pub(crate) fn token_for(master_secret: &[u8], identity: u64, client_tag: u64) -> Digest {
    let mut material = [0u8; 16];
    material[..8].copy_from_slice(&identity.to_be_bytes());
    material[8..].copy_from_slice(&client_tag.to_be_bytes());
    hmac_sha256(master_secret, &material)
}

/// The adaptive difficulty schedule: floor plus the joins granted in the
/// last `1/J̃` seconds, capped. When the estimator sees no good joins
/// yet, the window is unbounded and every past join counts — the
/// conservative quote for a gate that cannot yet tell burst from
/// baseline.
pub(crate) fn quote_difficulty(
    cfg: &GateConfig,
    est: &GoodJEst,
    window: &JoinWindow,
    now: Time,
) -> u64 {
    let rate = est.estimate();
    let width = if rate > 0.0 { 1.0 / rate } else { f64::INFINITY };
    let recent = window.count_within(now, width);
    (cfg.difficulty_floor.max(1) + recent).min(cfg.difficulty_cap.max(1))
}
