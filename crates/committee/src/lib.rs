//! Decentralizing Ergo (paper Section 12): GenID bootstrap, committee
//! election, synchronous state-machine replication, and the committee-
//! coordinated defense.
//!
//! * [`genid`] — the GenID bootstrap: initial agreement on a membership set
//!   with a κ-bounded Sybil fraction plus a good-majority committee;
//! * [`election`] — `C·log N` committee sampling and within-iteration
//!   attrition (Lemma 18's ≥ 7/8 good-fraction invariant);
//! * [`smr`] — broadcast-and-vote SMR over authenticated channels, with
//!   Byzantine modes (reject-all, silent, equivocating) for fault injection;
//! * [`decentral`] — [`decentral::DecentralizedErgo`]: the full Theorem 4
//!   construction, byte-identical membership decisions to centralized Ergo
//!   plus committee tracking and message-complexity accounting.
//!
//! # Example
//!
//! ```
//! use sybil_committee::genid::bootstrap;
//!
//! let out = bootstrap(10_000, 1.0 / 18.0, 30.0, 7);
//! assert!(out.n_bad as f64 <= (out.n_good + out.n_bad) as f64 / 18.0);
//! assert!(out.committee.good_majority());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod decentral;
pub mod election;
pub mod genid;
pub mod smr;

pub use decentral::{CommitteeRecord, DecentralConfig, DecentralizedErgo};
pub use election::{attrition, committee_size, elect, Committee};
pub use genid::{bootstrap, GenIdOutcome};
pub use smr::{ByzantineMode, SmrCluster};
