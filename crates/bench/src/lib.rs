//! Experiment harness regenerating every figure in the paper's evaluation.
//!
//! Each module is one experiment from DESIGN.md's index, declared as an
//! [`experiment::Experiment`] and registered by name in
//! [`experiment::REGISTRY`]; the one bench target runs them
//! (`cargo bench -p sybil-bench --bench experiments -- <name>`; no name
//! runs the eight paper experiments in order), printing each table and
//! writing it to `results/<csv>.csv`:
//!
//! | Module | Paper artifact | Name | CSVs |
//! |---|---|---|---|
//! | [`figure8`] | Figure 8: A vs T, Ergo vs baselines | `figure8`; `figure8_millions` at 10⁶ initial IDs | `figure8`, `figure8_summary`; `figure8_millions` |
//! | [`figure9`] | Figure 9: GoodJEst estimate accuracy | `figure9` | `figure9` |
//! | [`figure10`] | Figure 10: heuristic variants | `figure10` | `figure10` |
//! | [`lower_bound_exp`] | Theorem 3 (Section 11) | `lower_bound` | `lower_bound` |
//! | [`committee_exp`] | Theorem 4 / Lemma 18 (Section 12) | `committee` | `committee` |
//! | [`invariants_exp`] | Lemma 9 invariant + scaling fits | `invariants`; `invariants_millions` at 10⁶ initial IDs | `invariants`, `scaling`; `invariants_millions` |
//! | [`dht_exp`] | Section 13.2 extension: Sybil-resistant DHT | `dht` | `dht_grid`, `dht_end_to_end` |
//! | [`ablation_exp`] | constants ablations (Sections 9.3, 13.3) + failure injection | `ablation` | `ablation` |
//!
//! The experiments execute through the `sybil-exp` orchestration
//! subsystem (see [`grid`] and `crates/exp/README.md`): multi-trial cells
//! (5 trials, 2 in FAST mode) fed by a content-addressed disk-streamed
//! workload cache, aggregated into `mean, ci95_lo, ci95_hi` columns, and
//! recorded in resumable per-experiment results stores under `results/`.
//! A run exits 1 when a cell was quarantined (its row is blank; re-run to
//! fill the hole) or, for the two invariant experiments, `VIOLATED`; an
//! unknown name exits 2 listing the registry.
//!
//! # Adding an experiment
//!
//! A module, one registry line, one pin. The module declares the grid
//! and supplies what differs — the per-cell measurement that writes the
//! record fields and the columns that read them; [`grid::TrialGrid`] owns
//! the execution (workload cache, trial seeds, pool, resumable store,
//! summary) and [`experiment::run`] the output (banner, tables, CSVs,
//! timing, whether the run was complete):
//!
//! ```no_run
//! use ergo_core::{Ergo, ErgoConfig};
//! use sybil_bench::experiment::{self, Column, Experiment, Part, TableSpec};
//! use sybil_bench::grid::TrialGrid;
//! use sybil_bench::sweep::fast_mode;
//! use sybil_churn::networks;
//! use sybil_exp::spec::{Axis, AXIS_NETWORK, AXIS_T};
//! use sybil_exp::{Durability, ExperimentSpec, Welford};
//! use sybil_sim::adversary::BudgetJoiner;
//! use sybil_sim::engine::{SimConfig, Simulation};
//! use sybil_sim::time::Time;
//!
//! pub const EXPERIMENT: Experiment = Experiment {
//!     name: "purge_count",
//!     banner: "=== Purges per run, with and without an attack ===",
//!     parts,
//! };
//!
//! fn parts(fast: bool) -> Vec<Part> {
//!     let nets = [networks::gnutella(), networks::bitcoin()];
//!     // 1. The axes (`TrialGrid::from_cells` takes an explicit cell list
//!     //    when the grid is not a full product).
//!     let spec = ExperimentSpec {
//!         name: "purge_count".into(),
//!         axes: vec![
//!             Axis::strs(AXIS_NETWORK, nets.iter().map(|n| n.name)),
//!             Axis::floats(AXIS_T, [0.0, 1024.0]),
//!         ],
//!         trials: 5,
//!         horizon: if fast { 500.0 } else { 10_000.0 },
//!         kappa: SimConfig::default().kappa,
//!         seed: 1,
//!     };
//!     // 2. The fingerprint context: everything the axis labels resolve
//!     //    to, so editing a model or a default re-runs the grid instead
//!     //    of resuming stale cells.
//!     let context = format!("networks = {nets:?}\ndefense = {:?}\n", ErgoConfig::default());
//!     vec![Part {
//!         grid: TrialGrid::from_spec(spec, context, &nets),
//!         durability: Durability::Flush,
//!         // 3. The measurement: one cell's trials, folded into record
//!         //    fields (by convention a leading `trials` count).
//!         measure: Box::new(|cell, trials| {
//!             let t = cell.f64_value(AXIS_T);
//!             let mut purges = Welford::new();
//!             for trial in trials {
//!                 let cfg = SimConfig {
//!                     horizon: Time(trial.horizon),
//!                     adv_rate: t,
//!                     ..SimConfig::default()
//!                 };
//!                 let defense = Ergo::new(ErgoConfig::default());
//!                 let report =
//!                     Simulation::new(cfg, defense, BudgetJoiner::new(t), trial.workload()).run();
//!                 purges.push(report.purges as f64);
//!             }
//!             let mut fields = vec![("trials".to_string(), trials.len() as f64)];
//!             fields.extend(purges.summary().fields("purges"));
//!             fields
//!         }),
//!         violated: None,
//!         // 4. The output: ordered columns over each cell's axes and
//!         //    record fields, one row per cell in grid order; a
//!         //    quarantined cell renders blank.
//!         tables: vec![TableSpec::per_cell(
//!             "purge_count",
//!             vec![
//!                 Column::axis("network", AXIS_NETWORK),
//!                 Column::axis("T", AXIS_T),
//!                 Column::count("trials", "trials"),
//!                 Column::field("purges", "purges_mean"),
//!                 Column::field("ci95_lo", "purges_ci95_lo"),
//!                 Column::field("ci95_hi", "purges_ci95_hi"),
//!             ],
//!         )],
//!     }]
//! }
//!
//! // What `-- purge_count` does once the experiment is registered.
//! let complete = experiment::run(&EXPERIMENT, fast_mode());
//! ```
//!
//! Add `EXPERIMENT` to [`experiment::REGISTRY`], and its grid's store
//! identity and CSV header to `grid::tests::store_identities_are_pinned`
//! (the test walks the registry and fails on an experiment without a
//! pin), so a refactor cannot silently orphan its results store or
//! reshape its CSV.
//!
//! A column naming a field its cell's record lacks panics
//! ([`grid::CellResult::get`]): the field names are the schema, and a
//! blank would hide the disagreement. The store fingerprint hashes the
//! spec and the context, not the field names, so when a measurement gains
//! a field, change its context text in the same commit (a `fields v2`
//! line will do) — otherwise a store written before the change resumes
//! every cell and the run then aborts at render time.
//!
//! Set `SYBIL_BENCH_FAST=1` for a seconds-long smoke run of the full
//! suite; the default is paper scale (10 000 s horizons, `T` up to `2²⁰`).
//! `SYBIL_BENCH_WORKERS=n` bounds parallelism.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod ablation_exp;
pub mod committee_exp;
pub mod dht_exp;
pub mod experiment;
pub mod figure10;
pub mod figure8;
pub mod figure9;
pub mod grid;
pub mod invariants_exp;
pub mod lower_bound_exp;
pub mod perf;
pub mod sweep;
pub mod table;
