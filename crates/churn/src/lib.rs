//! Churn workloads for Sybil-defense evaluation.
//!
//! Provides the good-ID churn side of the paper's experiments:
//!
//! * [`session`] / [`arrival`] — session-time models (Weibull, exponential)
//!   and arrival processes (Poisson, diurnal);
//! * [`model`] — [`model::ChurnModel`] combining the two into a generator of
//!   [`sybil_sim::Workload`]s;
//! * [`networks`] — the paper's four evaluation networks: Bitcoin (synthetic
//!   substitute at measured scale), BitTorrent, Ethereum, and Gnutella;
//! * [`abc`] — the ABC (`α,β`-smoothness) churn model: epoch detection,
//!   smoothness measurement, and a compliant trace generator;
//! * [`halflife`] — the Liben-Nowell half-life, for comparison with epochs;
//! * [`epsilon`] — empirical validation of the per-round ε-departure bound.
//!
//! # Example
//!
//! ```
//! use sybil_churn::networks;
//! use sybil_sim::time::Time;
//!
//! let workload = networks::gnutella().generate(Time(1000.0), 42);
//! assert_eq!(workload.initial_size(), 10_000);
//! // Gnutella arrivals are Poisson at 1 ID/s.
//! let joins = workload.sessions.iter().filter(|s| s.join < Time(1000.0)).count();
//! assert!((joins as f64 / 1000.0 - 1.0).abs() < 0.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod abc;
pub mod arrival;
pub mod epsilon;
pub mod halflife;
pub mod model;
pub mod networks;
pub mod session;

pub use abc::{detect_epochs, estimate_beta, measure_alpha, AbcTraceGenerator, Epoch};
pub use arrival::ArrivalProcess;
pub use epsilon::{measure_epsilon, EpsilonReport};
pub use model::ChurnModel;
pub use session::SessionModel;
