//! `sybil-exp` — experiment orchestration for paper-scale sweeps.
//!
//! The figure experiments are grids: an ordered set of **named axes**
//! (churn network × defense × adversary spend rate for the spend sweeps;
//! Sybil fraction, knob values, good fractions for the irregular ones),
//! each cell repeated for several trials. This crate owns everything
//! about running such a grid *well* at million-ID scale:
//!
//! * [`spec`] — declarative [`ExperimentSpec`](spec::ExperimentSpec)
//!   (serializable, versioned, named [`Axis`](spec::Axis) lists with
//!   injective escaped cell ids) and deterministic cell→seed derivation
//!   ([`spec::trial_seed`] / [`spec::defense_seed`] /
//!   [`ExperimentSpec::cell_seed`](spec::ExperimentSpec::cell_seed));
//! * [`cache`] — content-addressed on-disk
//!   [`WorkloadCache`](cache::WorkloadCache): each (churn model, seed,
//!   horizon) workload is generated once through
//!   [`sybil_sim::workload_io`] and disk-streamed into every cell and
//!   trial that shares it, with header validation on reuse and an
//!   oldest-first size-budget eviction policy;
//! * [`env`] — the strict `SYBIL_*` environment-knob parsing contract
//!   (unset → default, valid → override, garbage → abort with an
//!   actionable message), shared by the bench knobs and the gate
//!   service's `SYBIL_GATE_*` settings;
//! * [`json`] — the one JSON codec for `BENCH_*.json`: a value tree, a
//!   total reader and a writer that owns number formatting;
//! * [`stats`] — streaming [`Welford`](stats::Welford) mean/variance and
//!   t-based 95 % confidence intervals, so multi-trial aggregation never
//!   holds a cell's reports resident together;
//! * [`store`] — append-only [`ResultsStore`](store::ResultsStore): one
//!   flushed line per finished cell, so interrupted grids resume by
//!   skipping completed cells;
//! * [`pool`] — the chunked work-stealing pool
//!   ([`run_parallel_catch`](pool::run_parallel_catch)), instrumented
//!   with per-worker job/chunk/busy counters
//!   ([`PoolStats`](pool::PoolStats)) and panic-isolated: each job runs
//!   under `catch_unwind`, so one poisoned cell never aborts its
//!   siblings;
//! * [`fault`] — deterministic, seeded fault injection
//!   ([`FaultPlan`](fault::FaultPlan)) behind the `fault-inject` cargo
//!   feature: worker panics, IO errors, torn writes, and delays, pure in
//!   `(seed, site, key, attempt)` so chaos runs reproduce bit-for-bit;
//! * [`runner`] — [`run_spec_grid`](runner::run_spec_grid) (declarative
//!   grids; [`run_spec_grid_opts`](runner::run_spec_grid_opts) takes
//!   explicit options) and [`run_grid`](runner::run_grid) (explicit cell
//!   lists) tying the pieces together
//!   with a [`RunSummary`](runner::RunSummary), rejecting duplicate cell
//!   ids up front, retrying failed cells with bounded backoff, and
//!   quarantining cells that exhaust their retries as explicit holes
//!   (see the [`runner`] module docs for the failure semantics).
//!
//! The bench crate's experiments (one declaration each, see
//! `sybil_bench::experiment`) are thin maps from paper rosters to this
//! machinery. See `crates/exp/README.md` for the file formats,
//! resume semantics, and failure semantics.

// Deny rather than forbid: the one sanctioned exception is the
// `GlobalAlloc` impl in [`alloc`], which carries a scoped allow.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod cache;
pub mod env;
pub mod fault;
pub mod json;
pub mod pool;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod store;

pub use alloc::{counting_enabled, disarm_trap, trap_after, AllocStats, CountingAlloc};
pub use cache::{CacheStats, WorkloadCache};
pub use fault::FaultPlan;
pub use pool::{run_parallel_catch, JobOutcome, PoolStats};
pub use runner::{
    run_grid, run_spec_grid, run_spec_grid_opts, CellFailure, GridOptions, GridOutcome,
    RetryPolicy, RunSummary,
};
pub use spec::{defense_seed, trial_seed, Axis, AxisValue, CellSpec, ExperimentSpec};
pub use stats::{MetricSummary, Welford};
pub use store::{Durability, Record, ResultsStore};
