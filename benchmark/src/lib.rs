//! The repo's benchmark: five fixed-work workloads over replay, the
//! experiment grid and the TCP admission gate, measured end to end and,
//! in a separate traced run, layer by layer. See `README.md` beside this
//! crate and `BENCHMARK.json` at the repository root.

// Deny rather than forbid: the one sanctioned exception is the
// `sched_setaffinity` and `mallopt` calls in [`steady`], which carries a scoped allow.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod adapters;
pub mod catalog;
pub mod gate;
pub mod grid;
pub mod harness;
pub mod probes;
pub mod repeat;
pub mod replay;
pub mod stats;
pub mod steady;
pub mod trace;
