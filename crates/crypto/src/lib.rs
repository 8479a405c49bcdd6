//! From-scratch cryptographic substrate for resource-burning (RB) challenges.
//!
//! The paper's defenses are agnostic to the concrete resource-burning scheme
//! (Section 2: "Our results are agnostic to the type of challenges employed").
//! This crate provides a complete, dependency-free proof-of-work instantiation:
//!
//! * [`sha256`] — the SHA-256 compression function and streaming hasher,
//!   validated against the NIST/FIPS 180-4 test vectors;
//! * [`hmac`] — HMAC-SHA256 (RFC 2104), used by the decentralized variant for
//!   authenticated committee channels;
//! * [`pow`] — `k`-hard resource-burning challenges: a challenge whose solution
//!   requires, in expectation, `k` units of hashing work and whose solutions
//!   "cannot be stolen or pre-computed" because they bind the challenger nonce
//!   and the solver identity;
//! * [`hex`] — a small hex encoder for digests, fingerprints and cache keys.
//!
//! # Example
//!
//! ```
//! use sybil_crypto::pow::{Challenge, Solver};
//!
//! // The server issues an 8-hard challenge bound to the joining ID "alice".
//! let challenge = Challenge::new(b"server-nonce-1", b"alice", 8);
//! let solution = Solver::new().solve(&challenge);
//! assert!(challenge.verify(&solution));
//! // A different identity cannot reuse the solution.
//! let stolen = Challenge::new(b"server-nonce-1", b"mallory", 8);
//! assert!(!stolen.verify(&solution));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod hex;
pub mod hmac;
pub mod pow;
pub mod sha256;

pub use hmac::{hmac_sha256, HmacSha256};
pub use pow::{Challenge, Solution, Solver, ZeroHardness};
pub use sha256::{Digest, Sha256};
