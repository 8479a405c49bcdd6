//! Synchronous round-based message passing with authenticated channels.
//!
//! The decentralized variant of Ergo (paper Section 12) assumes synchronous
//! communication and "secure and authenticated communication channels
//! between all pairs of IDs in the committee", plus a channel between each
//! committee member and each system ID. This crate simulates that model:
//!
//! * [`network`] — a round-stepped, lossless network: sends queued during
//!   round `r` are delivered at round `r + 1` (the SMR's Byzantine members
//!   misbehave in `sybil-committee`, not in the network);
//! * [`auth`] — pairwise-keyed HMAC-SHA256 channel authentication (built on
//!   `sybil-crypto`), so forged senders are detectable exactly as the model
//!   assumes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod auth;
pub mod network;

pub use auth::{AuthKeys, AuthenticatedMessage};
pub use network::{Network, NodeId};
