//! Extension experiment E8 — ablations of Ergo's design constants
//! (paper Sections 9.3 and 13.3) and failure injection at the model's
//! boundaries.
//!
//! * **Iteration threshold** (`1/11`): larger fractions purge less often
//!   (cheaper) but let the Sybil fraction climb higher between purges; the
//!   sweep exposes the safety/cost dial the paper's constants pin down.
//! * **Interval threshold** (`5/12`, with Section 13.3's `1/2` variant):
//!   changes estimator cadence and with it entrance-window sizing.
//! * **Estimator initialization** (`|S(0)|/init_duration`): the cold-start
//!   estimate the spec prescribes is wildly high; the sweep quantifies how
//!   much of Ergo's cost comes from the warm-up phase.
//! * **Purge round duration**: with non-instant rounds, good IDs departing
//!   mid-round exercise the `ε < 1/12` assumption.
//!
//! Each knob cell runs 5 workload seeds (2 in FAST mode; the Gnutella
//! workloads come from the shared disk cache), aggregated to `mean,
//! ci95_lo, ci95_hi`, and is recorded in a resumable results store.

use crate::experiment::{Column, Experiment, Part, TableSpec};
use crate::grid::{trials_for, TrialGrid};
use ergo_core::params::{ErgoConfig, GoodJEstConfig, Ratio};
use ergo_core::Ergo;
use sybil_churn::networks;
use sybil_exp::spec::{AxisValue, CellSpec};
use sybil_exp::{GridOptions, Welford};
use sybil_sim::adversary::BudgetJoiner;
use sybil_sim::engine::{SimConfig, Simulation};
use sybil_sim::time::Time;
use sybil_sim::workload::WorkloadSource;

/// The ablations, declared.
pub const EXPERIMENT: Experiment = Experiment {
    name: "ablation",
    banner: "=== Ablations: Ergo's constants and model boundaries ===",
    parts,
};

/// Runs one configuration against any workload source, returning
/// `(good spend rate, purges, max bad fraction)`.
pub fn run_cfg_with<W: WorkloadSource>(
    workload: W,
    cfg: ErgoConfig,
    round_duration: f64,
    t: f64,
    horizon: f64,
) -> (f64, u64, f64) {
    let sim =
        SimConfig { horizon: Time(horizon), adv_rate: t, round_duration, ..SimConfig::default() };
    let r = Simulation::new(sim, Ergo::new(cfg), BudgetJoiner::new(t), workload).run();
    (r.good_spend_rate(), r.purges, r.max_bad_fraction)
}

#[cfg(test)]
fn run_cfg(
    cfg: ErgoConfig,
    round_duration: f64,
    t: f64,
    horizon: f64,
    seed: u64,
) -> (f64, u64, f64) {
    run_cfg_with(
        networks::gnutella().generate(Time(horizon), seed),
        cfg,
        round_duration,
        t,
        horizon,
    )
}

/// The knob grid: `(knob, value, config, round_duration)`.
fn knob_grid() -> Vec<(String, String, ErgoConfig, f64)> {
    let mut grid = Vec::new();
    // 1. Iteration (purge) threshold.
    for (num, den) in [(1u64, 7u64), (1, 11), (1, 15), (1, 22)] {
        let cfg = ErgoConfig { iteration_threshold: Ratio::new(num, den), ..ErgoConfig::default() };
        grid.push(("iteration threshold".into(), format!("{num}/{den}"), cfg, 0.0));
    }
    // 2. Interval (estimator) threshold, incl. the Section 13.3 variant.
    for (num, den) in [(5u64, 12u64), (1, 2), (1, 4)] {
        let mut cfg = ErgoConfig::default();
        cfg.estimator.interval_threshold = Ratio::new(num, den);
        grid.push(("interval threshold".into(), format!("{num}/{den}"), cfg, 0.0));
    }
    // 3. Estimator initialization duration (cold-start cost).
    for init in [1.0f64, 100.0, 10_000.0] {
        let cfg = ErgoConfig {
            estimator: GoodJEstConfig { init_duration: init, ..GoodJEstConfig::default() },
            ..ErgoConfig::default()
        };
        grid.push(("estimator init duration".into(), format!("{init}s"), cfg, 0.0));
    }
    // 4. Purge round duration (ε exposure: departures during the round).
    for round in [0.0f64, 1.0, 5.0] {
        grid.push((
            "purge round duration".into(),
            format!("{round}s"),
            ErgoConfig::default(),
            round,
        ));
    }
    grid
}

/// The axis assignment for one knob cell. The knob list is a union of
/// per-knob sweeps rather than a cartesian product, so cells are built as
/// explicit [`CellSpec`] assignments (axes `knob`, `value`) — the
/// canonical escaped ids keep values like `1/11` and `5/12`
/// collision-free without the lossy character replacement the old
/// free-form keys used.
fn cell_spec(knob: &str, value: &str) -> CellSpec {
    CellSpec::new(vec![
        ("knob".into(), AxisValue::Str(knob.into())),
        ("value".into(), AxisValue::Str(value.into())),
    ])
}

/// The `(horizon, T)` every knob cell runs at.
fn scale(fast: bool) -> (f64, f64) {
    if fast {
        (400.0, 5_000.0)
    } else {
        (5_000.0, 20_000.0)
    }
}

/// The ablation grid, declared: one explicit cell per knob value.
fn grid(fast: bool) -> TrialGrid {
    let ((horizon, t), trials, base_seed) = (scale(fast), trials_for(fast), 61u64);
    let knobs = knob_grid();
    // The full knob grid (including the resolved ErgoConfigs) and the
    // churn model go into the fingerprint, so a code change to a default
    // constant or the Gnutella parameters re-runs the grid instead of
    // resuming stale cells. v3 marks the switch to canonical escaped
    // cell ids: the key scheme is part of the store's identity, so a
    // store written under the old free-form keys is displaced rather
    // than resumed with every lookup missing (and its records orphaned).
    let config = format!(
        "ablation v3 (canonical cell ids)\nhorizon = {horizon}\nT = {t}\ntrials = {trials}\n\
         seed = {base_seed}\nnetwork = {:?}\nknobs = {knobs:?}\n",
        networks::gnutella(),
    );
    let cells = knobs.iter().map(|(knob, value, _, _)| cell_spec(knob, value)).collect();
    TrialGrid::from_cells(
        "ablation",
        cells,
        &config,
        &[networks::gnutella()],
        trials,
        horizon,
        base_seed,
    )
}

fn parts(fast: bool) -> Vec<Part> {
    let (_, t) = scale(fast);
    let knobs = knob_grid();
    let columns = vec![
        Column::axis("knob", "knob"),
        Column::axis("value", "value"),
        Column::count("trials", "trials"),
        Column::field("mean", "good_rate_mean"),
        Column::field("ci95_lo", "good_rate_ci95_lo"),
        Column::field("ci95_hi", "good_rate_ci95_hi"),
        Column::field("purges", "purges_mean"),
        Column::field("max bad frac", "max_bad_fraction_mean"),
        Column::text("bound", "0.167".into()),
    ];
    vec![Part {
        grid: grid(fast),
        opts: GridOptions::default(),
        measure: Box::new(move |cell, trials| {
            let (_, _, cfg, round) = knobs
                .iter()
                .find(|(k, v, _, _)| cell.str_value("knob") == k && cell.str_value("value") == v)
                .expect("cell is a knob-grid entry");
            let mut rate = Welford::new();
            let mut purges = Welford::new();
            let mut frac = Welford::new();
            for trial in trials {
                let (a, p, f) = run_cfg_with(trial.workload(), *cfg, *round, t, trial.horizon);
                rate.push(a);
                purges.push(p as f64);
                frac.push(f);
            }
            let mut fields = vec![("trials".to_string(), trials.len() as f64)];
            fields.extend(rate.summary().fields("good_rate"));
            fields.extend(purges.summary().fields("purges"));
            fields.extend(frac.summary().fields("max_bad_fraction"));
            fields
        }),
        violated: None,
        tables: vec![TableSpec::per_cell("ablation", columns)],
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn looser_purge_threshold_purges_less_but_risks_more() {
        let tight = {
            let cfg =
                ErgoConfig { iteration_threshold: Ratio::new(1, 11), ..ErgoConfig::default() };
            run_cfg(cfg, 0.0, 5_000.0, 300.0, 3)
        };
        let loose = {
            let cfg = ErgoConfig { iteration_threshold: Ratio::new(1, 4), ..ErgoConfig::default() };
            run_cfg(cfg, 0.0, 5_000.0, 300.0, 3)
        };
        assert!(loose.1 < tight.1, "loose threshold should purge less");
        assert!(
            loose.2 > tight.2,
            "loose threshold should peak higher: {} vs {}",
            loose.2,
            tight.2
        );
    }

    #[test]
    fn nonzero_round_duration_still_bounded() {
        let (_, purges, frac) = run_cfg(ErgoConfig::default(), 1.0, 5_000.0, 300.0, 5);
        assert!(purges > 0);
        assert!(frac < 1.0 / 6.0 + 0.02, "fraction {frac} with 1 s purge rounds");
    }

    #[test]
    fn knob_grid_ids_are_unique_and_store_safe() {
        let grid = knob_grid();
        assert_eq!(grid.len(), 13);
        // Exercise the SAME id derivation run() uses for the store keys.
        let ids: std::collections::BTreeSet<String> =
            grid.iter().map(|(k, v, _, _)| cell_spec(k, v).id()).collect();
        assert_eq!(ids.len(), grid.len());
        for id in &ids {
            assert!(!id.chars().any(char::is_whitespace), "{id}");
        }
        // The old lossy replacement collapsed e.g. "1/11" and "1-11";
        // canonical escaping keeps such value pairs distinct.
        assert_ne!(
            cell_spec("iteration threshold", "1/11").id(),
            cell_spec("iteration threshold", "1-11").id()
        );
    }
}
