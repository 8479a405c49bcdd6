//! Discrete-event simulation substrate for Sybil-defense experiments.
//!
//! This crate provides everything the experiments in *Bankrupting Sybil
//! Despite Churn* (ICDCS 2021) need below the defense algorithms themselves:
//!
//! * [`time`], [`id`], [`cost`] — core vocabulary types (virtual seconds,
//!   opaque identifiers, resource-burning units and the split ledger);
//! * [`queue`] — a deterministic, FIFO-tie-broken event queue;
//! * [`dist`] — from-scratch Weibull and exponential samplers, driving the
//!   churn workloads;
//! * [`workload`] / [`workload_io`] — good-ID session schedules replayed by
//!   the engine, resident in memory or streamed from a versioned on-disk
//!   format;
//! * [`admission`] — packed 2-bit per-session admission state;
//! * [`defense`] / [`adversary`] — the traits every simulated defense and
//!   attack strategy implement;
//! * [`engine`] — the simulation loop with budgeted adversaries, purge
//!   rounds, periodic charges, and invariant tracking, over one
//!   `(time, seq)` event order;
//! * [`state`] — the loop's admission verdicts, good-ID tallies and
//!   fixed-point spend ledger;
//! * [`report`] — run outputs.
//!
//! Ground truth (which IDs are Sybil) lives in the engine and the adversary;
//! defenses observe only event streams, as the paper's server does.
//!
//! # Example
//!
//! ```
//! use sybil_sim::adversary::BudgetJoiner;
//! use sybil_sim::engine::{SimConfig, Simulation};
//! use sybil_sim::testutil::UnitCostDefense;
//! use sybil_sim::time::Time;
//! use sybil_sim::workload::{Session, Workload};
//!
//! let workload = Workload::new(vec![Time(1e9); 50], vec![]);
//! let cfg = SimConfig { horizon: Time(100.0), adv_rate: 2.0, ..SimConfig::default() };
//! let report = Simulation::new(cfg, UnitCostDefense::new(), BudgetJoiner::new(2.0), workload).run();
//! // At unit entrance cost and T = 2, about 200 Sybil IDs join over 100 s.
//! assert!(report.bad_joins_admitted > 150);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod admission;
pub mod adversary;
pub mod cost;
pub mod defense;
pub mod dist;
pub mod engine;
pub mod id;
pub mod queue;
pub mod report;
pub mod state;
pub mod testutil;
pub mod time;
pub mod workload;
pub mod workload_io;

pub use admission::{AdmissionMap, AdmissionState};
pub use cost::{Cost, FixedCost, FixedLedger, Ledger, Purpose};
pub use defense::{Admission, BatchAdmission, BatchStop, Defense};
pub use engine::{SimBuildError, SimConfig, Simulation};
pub use id::Id;
pub use report::SimReport;
pub use state::RunState;
pub use time::Time;
pub use workload::{Session, SessionIndex, StreamEvent, Workload, WorkloadSource, WorkloadStream};
pub use workload_io::{write_workload, write_workload_file, DiskWorkload, ShardedWorkload};
