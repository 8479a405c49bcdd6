//! `sybil-gate`: a networked admission service for the ERGO defense.
//!
//! The simulator crates model admission control as function calls inside
//! one process; this crate puts the same machinery behind a wire. A
//! [`ShardedGate`] owns the identity ledger ([`sybil_sim::AdmissionMap`])
//! and the good-join-rate estimator ([`ergo_core::GoodJEst`]) and serves
//! join / challenge-response / depart requests over a length-prefixed
//! binary protocol ([`wire`]), either on TCP ([`transport::serve`]) or
//! through an in-process loopback that exercises the identical byte path
//! without sockets ([`transport::Loopback`]). The gate is one state
//! machine behind one lock, with every digest computed outside it; each
//! decision's transition, estimator update and log record are one
//! critical section, so the log is the order things happened.
//!
//! Two defense layers stand between a connection and membership:
//!
//! 1. a **pre-handshake proof-of-work** — the hello quotes a difficulty
//!    that scales with the estimated join rate, and a bad solution is
//!    silently dropped after exactly one hash verification, before any
//!    per-identity state exists;
//! 2. **memory-hard identity mining** ([`memhard`]) — a verified PoW
//!    earns a provisional identity and token at once, but full admission
//!    requires a fill-and-mix salt over that token, shifting the
//!    admission cost from pure compute to memory bandwidth.
//!
//! Every decision is appended to a wall-clock-free log, so any two runs
//! of the same workload produce byte-identical logs ([`client::replay`]
//! pins this); the `gate_bench` binary replays churn workloads through
//! the loopback and reports verification throughput and p50/p99/p999
//! admission latency.
//!
//! # Modules
//!
//! * [`wire`] — frame format, encode/decode, stream reader.
//! * [`memhard`] — fill-and-mix digest, difficulty predicate, miner.
//! * [`hist`] — fixed-footprint log-linear latency histogram.
//! * [`service`] — configuration, counters and the protocol's pure
//!   functions.
//! * [`sharded`] — the admission state machine and decision log.
//! * [`transport`] — loopback and TCP front ends.
//! * [`client`] — deterministic workload replay driver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod hist;
pub mod memhard;
pub mod service;
pub mod sharded;
pub mod transport;
pub mod wire;

pub use client::{replay, ReplayConfig, ReplayReport};
pub use hist::LatencyHist;
pub use memhard::{fill_and_mix, meets_difficulty, mine, MemHardParams, MineResult};
pub use service::{GateConfig, GateCounters, Response};
pub use sharded::ShardedGate;
pub use transport::{Loopback, SharedGate};
pub use wire::{read_frame, Frame, WireError, MAX_FRAME_LEN, PROTOCOL_VERSION};
