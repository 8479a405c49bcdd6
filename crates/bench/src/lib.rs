//! Experiment harness regenerating every figure in the paper's evaluation.
//!
//! Each module is one experiment from DESIGN.md's index, runnable both as a
//! library call and as a `cargo bench` target (`benches/` wrap these with
//! table printing and CSV output to `results/`):
//!
//! | Module | Paper artifact | Bench target |
//! |---|---|---|
//! | [`figure8`] | Figure 8: A vs T, Ergo vs baselines | `figure8` |
//! | [`figure9`] | Figure 9: GoodJEst estimate accuracy | `figure9` |
//! | [`figure10`] | Figure 10: heuristic variants | `figure10` |
//! | [`lower_bound_exp`] | Theorem 3 (Section 11) | `lower_bound` |
//! | [`committee_exp`] | Theorem 4 / Lemma 18 (Section 12) | `committee` |
//! | [`invariants_exp`] | Lemma 9 invariant + scaling fits | `invariants` |
//! | [`dht_exp`] | Section 13.2 extension: Sybil-resistant DHT | `dht` |
//! | [`ablation_exp`] | constants ablations (Sections 9.3, 13.3) + failure injection | `ablation` |
//!
//! The figure experiments execute through the `sybil-exp` orchestration
//! subsystem (see [`grid`] and `crates/exp/README.md`): multi-trial cells
//! (5 trials, 2 in FAST mode) fed by a content-addressed disk-streamed
//! workload cache, aggregated into `mean, ci95_lo, ci95_hi` columns, and
//! recorded in resumable per-experiment results stores under `results/`.
//! The `exp_millions` bin runs the Figure-8-shaped grid at 10⁶ initial
//! IDs; `exp_smoke` is the CI cold/warm-cache resume check.
//!
//! # Adding an experiment
//!
//! A driver declares its grid and supplies what differs — the per-trial
//! measurement and the record → row mapping; [`grid::TrialGrid`] owns the
//! rest (workload cache, trial seeds, pool, resumable store, summary):
//!
//! ```no_run
//! use ergo_core::{Ergo, ErgoConfig};
//! use sybil_bench::grid::TrialGrid;
//! use sybil_bench::sweep::{default_workers, fast_mode};
//! use sybil_churn::networks;
//! use sybil_exp::spec::{Axis, AXIS_NETWORK, AXIS_T};
//! use sybil_exp::{ExperimentSpec, GridOptions, Welford};
//! use sybil_sim::adversary::BudgetJoiner;
//! use sybil_sim::engine::{SimConfig, Simulation};
//! use sybil_sim::time::Time;
//!
//! let nets = [networks::gnutella(), networks::bitcoin()];
//! // 1. The axes (`TrialGrid::from_cells` takes an explicit cell list
//! //    when the grid is not a full product).
//! let spec = ExperimentSpec {
//!     name: "purge_count".into(),
//!     axes: vec![
//!         Axis::strs(AXIS_NETWORK, nets.iter().map(|n| n.name)),
//!         Axis::floats(AXIS_T, [0.0, 1024.0]),
//!     ],
//!     trials: 5,
//!     horizon: if fast_mode() { 500.0 } else { 10_000.0 },
//!     kappa: SimConfig::default().kappa,
//!     seed: 1,
//! };
//! // 2. The fingerprint context: everything the axis labels resolve to,
//! //    so editing a model or a default re-runs the grid instead of
//! //    resuming stale cells.
//! let context = format!("networks = {nets:?}\ndefense = {:?}\n", ErgoConfig::default());
//! let grid = TrialGrid::from_spec(spec, context, &nets);
//! // 3. The measurement: one cell's trials, folded into record fields.
//! let (cells, _summary) =
//!     grid.run(default_workers(), &GridOptions::default(), |cell, trials| {
//!         let t = cell.f64_value(AXIS_T);
//!         let mut purges = Welford::new();
//!         for trial in trials {
//!             let cfg =
//!                 SimConfig { horizon: Time(trial.horizon), adv_rate: t, ..SimConfig::default() };
//!             let defense = Ergo::new(ErgoConfig::default());
//!             let report =
//!                 Simulation::new(cfg, defense, BudgetJoiner::new(t), trial.workload()).run();
//!             purges.push(report.purges as f64);
//!         }
//!         let mut fields = vec![("trials".to_string(), trials.len() as f64)];
//!         fields.extend(purges.summary().fields("purges"));
//!         fields
//!     });
//! // 4. Record → row: cells arrive zipped with their records, in grid
//! //    order; a quarantined cell reads NaN.
//! for c in &cells {
//!     let (net, t) = (c.cell.str_value(AXIS_NETWORK), c.cell.f64_value(AXIS_T));
//!     println!("{net} T={t}: {} purges over {} trials", c.summary("purges").mean, c.trials());
//! }
//! ```
//!
//! Give the grid a `pub(crate) fn grid(fast: bool) -> TrialGrid` and add
//! it to `grid::tests::store_identities_are_pinned`, so a refactor cannot
//! silently orphan its results store.
//!
//! Set `SYBIL_BENCH_FAST=1` for a ~1-minute smoke run of the full suite;
//! the default is paper scale (10 000 s horizons, `T` up to `2²⁰`).
//! `SYBIL_BENCH_WORKERS=n` bounds parallelism.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation_exp;
pub mod committee_exp;
pub mod dht_exp;
pub mod figure10;
pub mod figure8;
pub mod figure9;
pub mod grid;
pub mod invariants_exp;
pub mod lower_bound_exp;
pub mod perf;
pub mod sweep;
pub mod table;

pub use sweep::{run_point, t_grid, Algo, RunParams, SpendPoint};
pub use table::Table;
