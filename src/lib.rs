//! **bankrupting-sybil** — a from-scratch Rust reproduction of
//! *Bankrupting Sybil Despite Churn* (Gupta, Saia, Young — ICDCS 2021,
//! extended version arXiv:2010.06834).
//!
//! A Sybil attack floods a permissionless system with adversary-controlled
//! identifiers. The classic defense is resource burning (e.g. proof-of-work
//! entrance challenges), but traditional schemes make honest participants
//! pay at least as much as the attacker, all the time. This paper's
//! contribution — the **Ergo** defense — guarantees:
//!
//! 1. the fraction of Sybil IDs stays below `3κ ≤ 1/6` at all times
//!    (so Byzantine agreement & friends remain usable), and
//! 2. the good IDs' resource-burning rate is `O(√(T·J) + J)` — *sublinear*
//!    in the adversary's spend rate `T` and proportional to the good join
//!    rate `J` when there is no attack — despite churn whose rate may vary
//!    exponentially (the ABC model). A matching lower bound shows this is
//!    asymptotically optimal for a natural class of algorithms.
//!
//! # Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`core`](ergo_core) | Ergo, GoodJEst, heuristics, DefID invariant — the paper's contribution |
//! | [`sim`](sybil_sim) | discrete-event engine, cost ledger, adversary strategies, distributions |
//! | [`churn`](sybil_churn) | Bitcoin/BitTorrent/Ethereum/Gnutella workloads, ABC model tools |
//! | [`crypto`](sybil_crypto) | SHA-256, HMAC, `k`-hard proof-of-work challenges (from scratch) |
//! | [`defenses`](sybil_defenses) | CCom, SybilControl, REMP baselines; Theorem-3 lower bound |
//! | [`net`](sybil_net) | synchronous authenticated message passing |
//! | [`committee`](sybil_committee) | GenID, committee election, SMR, decentralized Ergo |
//! | [`dht`](sybil_dht) | Sybil-resistant DHT lookups (Section 13.2 future work; no maintenance under churn) |
//!
//! # Example
//!
//! ```
//! use bankrupting_sybil::prelude::*;
//!
//! let workload = networks::gnutella().generate(Time(500.0), 7);
//! let cfg = SimConfig { horizon: Time(500.0), adv_rate: 1000.0, ..SimConfig::default() };
//! let report = Simulation::new(
//!     cfg,
//!     Ergo::new(ErgoConfig::default()),
//!     BudgetJoiner::new(1000.0),
//!     workload,
//! ).run();
//! assert!(report.max_bad_fraction < 1.0 / 6.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub use ergo_core;
pub use sybil_churn;
pub use sybil_committee;
pub use sybil_crypto;
pub use sybil_defenses;
pub use sybil_dht;
pub use sybil_net;
pub use sybil_sim;

/// The most common imports for driving simulations.
pub mod prelude {
    pub use ergo_core::{
        bad_fraction_bound, ClassifierGate, Ergo, ErgoConfig, GoodJEst, Heuristics,
    };
    pub use sybil_churn::{networks, AbcTraceGenerator, ChurnModel};
    pub use sybil_sim::adversary::{
        BudgetJoiner, BurstJoiner, ChurnForcer, FractionKeeper, NullAdversary, PurgeSurvivor,
    };
    pub use sybil_sim::{Cost, Defense, Session, SimConfig, SimReport, Simulation, Time, Workload};
}
