//! Experiment E6 — validating Theorem 1's two guarantees beyond the plotted
//! figures:
//!
//! 1. **Invariant** (Lemma 9): the Sybil fraction stays below `3κ ≤ 1/6`
//!    against *every* adversary strategy — steady joiners, savers that burst,
//!    churn-forcers (join/depart cycles), and purge-survivors that pay to
//!    retain the full κ-fraction at every purge.
//! 2. **Scaling**: Ergo's good spend rate grows like `√T` — we fit the
//!    log-log slope of `A(T)` per trial and report the fitted exponent with
//!    a 95 % confidence interval; Theorem 1 says ≈ 0.5 for Ergo (CCom's,
//!    for contrast, is ≈ 1).
//!
//! Both sweeps run through the `sybil-exp` subsystem: the adversary
//! strategy is a first-class named axis ([`AXIS_STRATEGY`]) whose values
//! are registry names resolved per cell via
//! [`sybil_sim::adversary::build_strategy`], workloads are materialized
//! once per trial in the content-addressed disk cache and streamed into
//! every cell, each cell aggregates its trials into `mean, ci95_lo,
//! ci95_hi`, and finished cells land in a resumable results store.
//! [`invariant_part`] is the shared declaration: the paper-scale
//! [`EXPERIMENT`], the 10⁶-ID [`MILLIONS`], and the tests' small
//! strategy-axis grids are all parameterizations of it.

use crate::experiment::{Column, Experiment, Part, TableSpec};
use crate::grid::{algo_of, trials_for, CellResult, TrialGrid};
use crate::sweep::{run_report_with, Algo};
use crate::table::fmt_num;
use ergo_core::{Ergo, ErgoConfig};
use sybil_churn::model::ChurnModel;
use sybil_churn::networks;
use sybil_exp::spec::{Axis, AxisValue, AXIS_ALGO, AXIS_NETWORK, AXIS_STRATEGY, AXIS_T};
use sybil_exp::{Durability, ExperimentSpec, GridOptions, Welford};
use sybil_sim::adversary::{
    build_strategy, strategy_fingerprint, StrategyParams, STRATEGY_BUDGET, STRATEGY_BURST,
    STRATEGY_CHURN_FORCE, STRATEGY_PURGE_SURVIVE,
};
use sybil_sim::engine::{SimConfig, Simulation};
use sybil_sim::time::Time;
use sybil_sim::SimReport;

/// Theorem 1's two guarantees beyond the plotted figures, declared.
pub const EXPERIMENT: Experiment = Experiment {
    name: "invariants",
    banner: "=== Theorem 1 beyond the figures: the Lemma 9 invariant, sqrt(T) scaling ===",
    parts,
};

/// The 10⁶-ID strategy × network invariant grid: every attack strategy
/// against the million-ID churn model, disk-streamed through the workload
/// cache at the `macro_millions` horizon — Lemma 9 at the scale the
/// ROADMAP's north star names.
///
/// Runs with [`Durability::Sync`]: every acknowledged cell is fsynced, so
/// a machine crash mid-run costs only in-flight cells.
pub const MILLIONS: Experiment = Experiment {
    name: "invariants_millions",
    banner: "=== Lemma 9 at 10^6 IDs: strategy x network invariant grid ===",
    parts: millions_parts,
};

/// The paper-scale invariant sweep — Gnutella and Ethereum churn, every
/// registered attack strategy, three spend-rate decades — and the scaling
/// fits.
fn parts(fast: bool) -> Vec<Part> {
    let invariants = invariant_part(
        "invariants",
        &[networks::gnutella(), networks::ethereum()],
        &strategy_roster(),
        if fast { &[1e3] } else { &[1e2, 1e4, 1e6] },
        trials_for(fast),
        if fast { 300.0 } else { 5_000.0 },
        23,
        GridOptions::default(),
    );
    vec![invariants, scaling_part(fast)]
}

fn millions_parts(fast: bool) -> Vec<Part> {
    vec![invariant_part(
        "invariants_millions",
        &[networks::millions(1_000_000)],
        &strategy_roster(),
        &[4_096.0, 65_536.0],
        trials_for(fast),
        500.0,
        23,
        GridOptions { durability: Durability::Sync, ..GridOptions::default() },
    )]
}

/// The Lemma 9 bound `3κ` (= 1/6 at the paper's κ = 1/18).
pub fn bound() -> f64 {
    3.0 * SimConfig::default().kappa
}

/// Lemma 9 failed in this cell: some trial's Sybil fraction reached the
/// bound (false for a quarantined cell, which has no data).
fn violated(r: &CellResult) -> bool {
    r.get("worst_bad_fraction") >= bound()
}

/// The strategy axis of the invariant experiments: every attack strategy
/// in the adversary registry (the `none` baseline is excluded — a cell
/// with no attack validates nothing about Lemma 9).
pub fn strategy_roster() -> Vec<&'static str> {
    vec![STRATEGY_BUDGET, STRATEGY_BURST, STRATEGY_CHURN_FORCE, STRATEGY_PURGE_SURVIVE]
}

/// What the names in `strategies` resolve to, for a store's fingerprint
/// context. Each fingerprint is taken at a sentinel rate (the actual rate
/// is the cell's T-axis value, already part of the cell): it pins the
/// *fixed* parameters a registry name implies, like the burst period.
pub(crate) fn strategy_fingerprints(strategies: &[&str]) -> String {
    let fingerprint = |s: &&str| strategy_fingerprint(s, &StrategyParams::rate(1.0));
    strategies.iter().map(fingerprint).collect::<Vec<_>>().join(", ")
}

/// Runs one strategy against one in-memory workload — the single-trial
/// form the quick tests use; the grids stream cached disk workloads
/// through the same configuration instead.
pub fn run_strategy_once(
    strategy: &str,
    network: &ChurnModel,
    t: f64,
    horizon: f64,
    seed: u64,
) -> SimReport {
    let workload = network.generate(Time(horizon), seed);
    let cfg = SimConfig { horizon: Time(horizon), adv_rate: t, ..SimConfig::default() };
    let adversary =
        build_strategy(strategy, &StrategyParams::rate(t)).unwrap_or_else(|e| panic!("{e}"));
    Simulation::new(cfg, Ergo::new(ErgoConfig::default()), adversary, workload).run()
}

/// Declares a (network × strategy × T) invariant experiment part:
/// multi-trial, cached disk-streamed workloads, resumable store at
/// `results/<name>.store`, one table `results/<name>.csv`.
///
/// The strategy axis carries registry names; each cell resolves its name
/// through [`build_strategy`] with `StrategyParams::rate(t)`, and records — next
/// to the trial statistics — the single worst instantaneous Sybil fraction
/// any trial reached: the invariant is about the worst case, so the
/// `held` verdict (and the run's exit status) reads that, not the mean.
/// `opts` is the grid's retry/durability policy. The per-strategy
/// parameter fingerprints are folded into the store's configuration
/// context, so a change to what a registry name *means* (a different
/// burst period, say) re-runs the grid instead of resuming stale cells.
///
/// # Panics
///
/// Panics if a strategy name is not registered.
#[allow(clippy::too_many_arguments)]
pub fn invariant_part(
    name: &str,
    nets: &[ChurnModel],
    strategies: &[&str],
    t_values: &[f64],
    trials: u32,
    horizon: f64,
    base_seed: u64,
    opts: GridOptions,
) -> Part {
    let spec = ExperimentSpec {
        name: name.into(),
        axes: vec![
            Axis::strs(AXIS_NETWORK, nets.iter().map(|n| n.name.to_string())),
            Axis::strs(AXIS_STRATEGY, strategies.iter().map(|s| s.to_string())),
            Axis::floats(AXIS_T, t_values.to_vec()),
        ],
        trials,
        horizon,
        kappa: SimConfig::default().kappa,
        seed: base_seed,
    };
    // The axes name networks and strategies by label; the context carries
    // what the labels resolve to.
    let context = format!(
        "invariants grid\nnetworks = {nets:?}\ndefense = {:?}\nstrategies = [{}]\n",
        ErgoConfig::default(),
        strategy_fingerprints(strategies),
    );
    let columns = vec![
        Column::axis("network", AXIS_NETWORK),
        Column::axis("adversary", AXIS_STRATEGY),
        Column::axis("T", AXIS_T),
        Column::count("trials", "trials"),
        Column::field("max bad frac", "max_bad_fraction_mean"),
        Column::field("ci95_lo", "max_bad_fraction_ci95_lo"),
        Column::field("ci95_hi", "max_bad_fraction_ci95_hi"),
        Column::field("worst", "worst_bad_fraction"),
        Column::text("bound (3k)", fmt_num(bound())),
        // A quarantined cell reads NaN: no verdict either way.
        Column::new("held", |r, _| match r.get("worst_bad_fraction") {
            worst if worst.is_nan() => "no-data".into(),
            _ if violated(r) => "VIOLATED".into(),
            _ => "yes".into(),
        }),
        Column::field("A", "good_rate_mean"),
    ];
    Part {
        grid: TrialGrid::from_spec(spec, context, nets),
        opts,
        measure: Box::new(|cell, trials| {
            let strategy = cell.str_value(AXIS_STRATEGY);
            let t = cell.f64_value(AXIS_T);
            let mut frac = Welford::new();
            let mut rate = Welford::new();
            let mut worst = 0.0f64;
            for trial in trials {
                let cfg =
                    SimConfig { horizon: Time(trial.horizon), adv_rate: t, ..SimConfig::default() };
                let adversary = build_strategy(strategy, &StrategyParams::rate(t))
                    .unwrap_or_else(|e| panic!("cell {}: {e}", cell.id()));
                let defense = Ergo::new(ErgoConfig::default());
                let report = Simulation::new(cfg, defense, adversary, trial.workload()).run();
                frac.push(report.max_bad_fraction);
                rate.push(report.good_spend_rate());
                worst = worst.max(report.max_bad_fraction);
            }
            let mut fields = vec![("trials".to_string(), trials.len() as f64)];
            fields.extend(frac.summary().fields("max_bad_fraction"));
            fields.push(("worst_bad_fraction".into(), worst));
            fields.extend(rate.summary().fields("good_rate"));
            fields
        }),
        violated: Some(violated),
        tables: vec![TableSpec::per_cell(name, columns)],
    }
}

/// The scaling grid, declared: (network × algo × T) over the attack
/// regime.
fn scaling_grid(fast: bool) -> TrialGrid {
    let exponents: &[u32] = if fast { &[12, 14, 16] } else { &[10, 12, 14, 16, 18, 20] };
    let nets = [networks::gnutella(), networks::bittorrent()];
    let roster = scaling_roster();
    let spec = ExperimentSpec {
        name: "scaling".into(),
        axes: vec![
            Axis::strs(AXIS_NETWORK, nets.iter().map(|n| n.name.to_string())),
            Axis::strs(AXIS_ALGO, roster.iter().map(|a| a.label())),
            Axis::floats(AXIS_T, exponents.iter().map(|&e| (1u64 << e) as f64)),
        ],
        trials: trials_for(fast),
        horizon: if fast { 500.0 } else { 10_000.0 },
        kappa: SimConfig::default().kappa,
        seed: 23,
    };
    let context = format!(
        "scaling grid\nnetworks = {nets:?}\nroster = {roster:?}\nergo = {:?}\nccom = {:?}\n",
        ErgoConfig::default(),
        ergo_core::params::ErgoConfig::ccom(),
    );
    TrialGrid::from_spec(spec, context, &nets)
}

fn scaling_roster() -> [Algo; 2] {
    [Algo::Ergo, Algo::CCom]
}

/// Fits the spend-rate scaling exponents for Ergo and CCom (Theorem 1 says
/// ≈ 0.5 for Ergo; CCom's `O(T+J)` gives ≈ 1).
///
/// Runs as a (network × algo × T) grid: each cell stores its per-trial
/// good spend rates (plus the `mean, ci95_lo, ci95_hi` triple), and the
/// table is derived from the per-trial columns — one log-log slope of
/// `A(T)` per trial (each trial contributes one full curve over its own
/// workload), aggregated to a mean with a 95 % confidence interval — so a
/// resumed grid re-fits from the store without re-running anything.
fn scaling_part(fast: bool) -> Part {
    let trials = trials_for(fast);
    let table = TableSpec {
        csv: "scaling".into(),
        heading: "--- spend-rate scaling: A ~ T^e ---",
        rows: Some(Box::new(move |cells| fit_curves(cells, trials))),
        columns: vec![
            Column::axis("network", AXIS_NETWORK),
            Column::axis("algorithm", AXIS_ALGO),
            Column::count("trials", "trials"),
            Column::field("A~T^e mean", "exponent_mean"),
            Column::field("ci95_lo", "exponent_ci95_lo"),
            Column::field("ci95_hi", "exponent_ci95_hi"),
            Column::count("points", "points"),
            Column::new("theory", |r, _| match r.cell.str_value(AXIS_ALGO) {
                "ERGO" => "0.5 (Thm 1)".into(),
                _ => "1.0 (O(T+J))".into(),
            }),
        ],
    };
    Part {
        grid: scaling_grid(fast),
        opts: GridOptions::default(),
        measure: Box::new(|cell, trials| {
            let algo = algo_of(&scaling_roster(), cell);
            let t = cell.f64_value(AXIS_T);
            let mut acc = Welford::new();
            let mut fields = vec![("trials".to_string(), trials.len() as f64)];
            for trial in trials {
                let cfg =
                    SimConfig { horizon: Time(trial.horizon), adv_rate: t, ..SimConfig::default() };
                let report = run_report_with(cfg, algo, t, trial.defense_seed, trial.workload());
                let rate = report.good_spend_rate();
                acc.push(rate);
                // Per-trial columns so the slope can be fit per trial from
                // a resumed store.
                fields.push((format!("good_rate_trial{}", trial.index), rate));
            }
            fields.extend(acc.summary().fields("good_rate"));
            fields
        }),
        violated: None,
        tables: vec![table],
    }
}

/// One row per (network, algo) curve: the per-trial slope fits, aggregated.
/// The T axis is innermost, so each curve is one contiguous run of cells.
fn fit_curves(cells: &[CellResult], trials: u32) -> Vec<CellResult> {
    let same_curve = |a: &CellResult, b: &CellResult| {
        [AXIS_NETWORK, AXIS_ALGO].iter().all(|x| a.cell.str_value(x) == b.cell.str_value(x))
    };
    cells
        .chunk_by(same_curve)
        .map(|curve| {
            let mut slopes = Welford::new();
            for trial in 0..trials {
                // Quarantined cells drop out of the fit; the remaining T
                // points still constrain the slope.
                let pts: Vec<(f64, f64)> = curve
                    .iter()
                    .filter(|r| r.record.is_some())
                    .map(|r| {
                        let rate = r.get(&format!("good_rate_trial{trial}"));
                        (r.cell.f64_value(AXIS_T).ln(), rate.max(1e-12).ln())
                    })
                    .collect();
                slopes.push(slope(&pts));
            }
            let label = |axis: &str| {
                (axis.to_string(), AxisValue::Str(curve[0].cell.str_value(axis).to_string()))
            };
            let mut fields = vec![("trials".to_string(), slopes.count() as f64)];
            fields.extend(slopes.summary().fields("exponent"));
            fields.push(("points".into(), curve.len() as f64));
            CellResult::row(vec![label(AXIS_NETWORK), label(AXIS_ALGO)], fields)
        })
        .collect()
}

/// Least-squares slope of `(x, y)` pairs.
fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_line_is_exact() {
        let pts: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, 3.0 + 0.5 * i as f64)).collect();
        assert!((slope(&pts) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn invariant_holds_for_all_strategies_small() {
        for strat in strategy_roster() {
            let r = run_strategy_once(strat, &networks::gnutella(), 2_000.0, 200.0, 29);
            assert!(r.max_bad_fraction < 1.0 / 6.0, "{strat}: fraction {}", r.max_bad_fraction);
        }
    }

    #[test]
    fn purge_survivor_pays_purge_costs() {
        let r =
            run_strategy_once(STRATEGY_PURGE_SURVIVE, &networks::gnutella(), 5_000.0, 200.0, 31);
        assert!(r.ledger.adversary_purge().value() > 0.0);
        // Still bounded, despite retention at the cap.
        assert!(r.max_bad_fraction < 1.0 / 6.0, "{}", r.max_bad_fraction);
    }
}
