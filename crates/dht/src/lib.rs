//! A Sybil-resistant distributed hash table on top of Ergo.
//!
//! The paper's Section 13.2 asks: *"Can we apply the results in this paper
//! to build and maintain a Sybil-resistant distributed hash table?"* This
//! crate is that construction, as a reproducible extension:
//!
//! * [`ring`] — a Chord-style ring: positions are SHA-256 hashes of IDs,
//!   each node keeps a successor list and `O(log n)` fingers;
//! * [`lookup`] — greedy iterative lookup, plus *redundant* lookup over
//!   independent paths: a Byzantine node can misroute or stall one path,
//!   but with the bad fraction pinned below `1/6` by Ergo, `q` diverse
//!   paths succeed with probability `≳ 1 − (1/6 + o(1))^q`;
//! * [`experiment`] — the success-rate experiment: lookups vs bad fraction
//!   with and without Ergo's bound, regenerated by
//!   `cargo bench --bench dht`.
//!
//! The point the experiment makes is the paper's: a DHT is only as good as
//! its Sybil bound. Without one, the adversary takes half the ring and
//! routing collapses; with Ergo's `< 1/6` invariant, redundant routing
//! stays near-perfect at any attack budget.
//!
//! Each ring is a snapshot: maintaining the ring under churn (the "and
//! maintain" half of Section 13.2's question) is not built.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod experiment;
pub mod lookup;
pub mod ring;

pub use lookup::{lookup_greedy, lookup_redundant, lookup_wide, LookupOutcome, REPLICATION};
pub use ring::{NodeEntry, Ring};
