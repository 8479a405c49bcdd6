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
//! [`run_invariant_grid`] is the shared engine: the paper-scale
//! [`run_invariants`], the 10⁶-ID [`run_invariants_millions`] bin, and the
//! CI smoke's strategy-axis grid are all parameterizations of it.

use crate::grid::{trials_for, TrialGrid};
use crate::sweep::{default_workers, fast_mode, run_report_with, Algo};
use crate::table::{fmt_num, Table};
use ergo_core::{Ergo, ErgoConfig};
use sybil_churn::model::ChurnModel;
use sybil_churn::networks;
use sybil_exp::runner::RunSummary;
use sybil_exp::spec::{Axis, AXIS_ALGO, AXIS_NETWORK, AXIS_STRATEGY, AXIS_T};
use sybil_exp::{ExperimentSpec, GridOptions, MetricSummary, Welford};
use sybil_sim::adversary::{
    build_strategy, strategy_fingerprint, StrategyParams, STRATEGY_BUDGET, STRATEGY_BURST,
    STRATEGY_CHURN_FORCE, STRATEGY_PURGE_SURVIVE,
};
use sybil_sim::engine::{SimConfig, Simulation};
use sybil_sim::time::Time;
use sybil_sim::SimReport;

/// The strategy axis of the invariant experiments: every attack strategy
/// in the adversary registry (the `none` baseline is excluded — a cell
/// with no attack validates nothing about Lemma 9).
pub fn strategy_roster() -> Vec<&'static str> {
    vec![STRATEGY_BUDGET, STRATEGY_BURST, STRATEGY_CHURN_FORCE, STRATEGY_PURGE_SURVIVE]
}

/// Registry parameters for one invariant cell: spend rate `t`, canonical
/// defaults for everything else (60 s burst period).
pub fn cell_params(t: f64) -> StrategyParams {
    StrategyParams::rate(t)
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
    let adversary = build_strategy(strategy, &cell_params(t)).unwrap_or_else(|e| panic!("{e}"));
    Simulation::new(cfg, Ergo::new(ErgoConfig::default()), adversary, workload).run()
}

/// One invariant-sweep cell, aggregated over trials.
#[derive(Clone, Debug)]
pub struct InvariantOutcome {
    /// Network.
    pub network: String,
    /// Strategy registry name.
    pub strategy: String,
    /// Adversary spend rate.
    pub t: f64,
    /// Trials behind the confidence intervals.
    pub trials: u64,
    /// Maximum instantaneous Sybil fraction, over trials.
    pub max_bad_fraction: MetricSummary,
    /// The single worst instantaneous fraction any trial reached — the
    /// invariant is about the worst case, so the pass/fail verdict uses
    /// this, not the mean.
    pub worst_bad_fraction: f64,
    /// The Lemma 9 bound `3κ` (= 1/6 at the paper's κ = 1/18).
    pub bound: f64,
    /// Whether every trial held the invariant throughout. Also `false`
    /// when the cell was quarantined and has no data — check
    /// `worst_bad_fraction.is_nan()` to tell "no data" from "violated".
    pub held: bool,
    /// Good spend rate over trials.
    pub good_rate: MetricSummary,
}

/// Declares a (network × strategy × T) invariant grid. The per-strategy
/// parameter fingerprints are folded into the store's configuration
/// context, so a change to what a registry name *means* (a different
/// burst period, say) re-runs the grid instead of resuming stale cells.
fn invariant_grid(
    name: &str,
    nets: &[ChurnModel],
    strategies: &[&str],
    t_values: &[f64],
    trials: u32,
    horizon: f64,
    base_seed: u64,
) -> TrialGrid {
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
    // what the labels resolve to. The strategy fingerprint is taken at a
    // sentinel rate (the actual rate is the cell's T-axis value, already
    // part of the spec): it pins the *fixed* parameters a registry name
    // implies, like the burst period.
    let context = format!(
        "invariants grid\nnetworks = {nets:?}\ndefense = {:?}\nstrategies = [{}]\n",
        ErgoConfig::default(),
        strategies
            .iter()
            .map(|s| strategy_fingerprint(s, &cell_params(1.0)))
            .collect::<Vec<_>>()
            .join(", "),
    );
    TrialGrid::from_spec(spec, context, nets)
}

/// The paper-scale invariant sweep, declared: Gnutella and Ethereum
/// churn, every registered attack strategy, three spend-rate decades.
pub(crate) fn invariants_grid(fast: bool) -> TrialGrid {
    let horizon = if fast { 300.0 } else { 5_000.0 };
    let t_values = if fast { vec![1e3] } else { vec![1e2, 1e4, 1e6] };
    invariant_grid(
        "invariants",
        &[networks::gnutella(), networks::ethereum()],
        &strategy_roster(),
        &t_values,
        trials_for(fast),
        horizon,
        23,
    )
}

/// Runs a (network × strategy × T) invariant grid through the `sybil-exp`
/// subsystem: multi-trial, cached disk-streamed workloads, resumable
/// store at `results/<name>.store`.
///
/// The strategy axis carries registry names; each cell resolves its name
/// through [`build_strategy`] with [`cell_params`]`(t)`. `opts` is the
/// grid's retry/durability policy — the `invariants_millions` bin passes
/// [`sybil_exp::Durability::Sync`] so acknowledged cells of a multi-hour
/// run survive machine crashes, not just process kills.
///
/// # Panics
///
/// Panics if the cache or store directories are unusable, or if a
/// strategy name is not registered.
#[allow(clippy::too_many_arguments)]
pub fn run_invariant_grid(
    name: &str,
    nets: &[ChurnModel],
    strategies: &[&str],
    t_values: &[f64],
    trials: u32,
    horizon: f64,
    base_seed: u64,
    opts: &GridOptions,
) -> (Vec<InvariantOutcome>, RunSummary) {
    run_invariants_on(
        &invariant_grid(name, nets, strategies, t_values, trials, horizon, base_seed),
        opts,
    )
}

fn run_invariants_on(grid: &TrialGrid, opts: &GridOptions) -> (Vec<InvariantOutcome>, RunSummary) {
    let kappa = SimConfig::default().kappa;
    let (results, summary) = grid.run(default_workers(), opts, |cell, trials| {
        let strategy = cell.str_value(AXIS_STRATEGY);
        let t = cell.f64_value(AXIS_T);
        let mut frac = Welford::new();
        let mut rate = Welford::new();
        let mut worst = 0.0f64;
        for trial in trials {
            let cfg =
                SimConfig { horizon: Time(trial.horizon), adv_rate: t, ..SimConfig::default() };
            let adversary = build_strategy(strategy, &cell_params(t))
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
    });
    let bound = 3.0 * kappa;
    let rows = results
        .iter()
        .map(|r| {
            // A quarantined cell reads NaN: `held` goes false (NaN is
            // never `< bound`) and the table renders "no-data", not a
            // fabricated verdict either way.
            let worst = r.get("worst_bad_fraction");
            InvariantOutcome {
                network: r.cell.str_value(AXIS_NETWORK).to_string(),
                strategy: r.cell.str_value(AXIS_STRATEGY).to_string(),
                t: r.cell.f64_value(AXIS_T),
                trials: r.trials(),
                max_bad_fraction: r.summary("max_bad_fraction"),
                worst_bad_fraction: worst,
                bound,
                held: worst < bound,
                good_rate: r.summary("good_rate"),
            }
        })
        .collect();
    (rows, summary)
}

/// Runs the paper-scale invariant sweep: Gnutella and Ethereum churn,
/// every registered attack strategy, three spend-rate decades.
pub fn run_invariants() -> Vec<InvariantOutcome> {
    run_invariants_on(&invariants_grid(fast_mode()), &GridOptions::default()).0
}

/// The 10⁶-ID strategy × network invariant grid (the `invariants_millions`
/// bin): every attack strategy against the million-ID churn model,
/// disk-streamed through the workload cache at the `macro_millions`
/// horizon — Lemma 9 at the scale the ROADMAP's north star names.
///
/// Runs with [`sybil_exp::Durability::Sync`]: every acknowledged cell is
/// fsynced, so a machine crash mid-run costs only in-flight cells. Returns
/// the summary too, so the bin can exit nonzero on quarantined holes.
pub fn run_invariants_millions() -> (Vec<InvariantOutcome>, RunSummary) {
    run_invariant_grid(
        "invariants_millions",
        &[networks::millions(1_000_000)],
        &strategy_roster(),
        &[4_096.0, 65_536.0],
        trials_for(fast_mode()),
        500.0,
        23,
        &GridOptions { durability: sybil_exp::Durability::Sync, ..GridOptions::default() },
    )
}

/// Log-log slope fit of `A(T)` for an algorithm over the attack regime,
/// aggregated over per-trial fits.
#[derive(Clone, Debug)]
pub struct ScalingFit {
    /// Network.
    pub network: String,
    /// Algorithm label.
    pub algo: String,
    /// Fitted exponent of `A ∝ T^e`: the slope is fit per trial (each
    /// trial contributes one full `A(T)` curve over its own workload) and
    /// the fits aggregate to a mean with a 95 % confidence interval.
    pub exponent: MetricSummary,
    /// Points in each per-trial fit.
    pub points: usize,
}

/// The scaling grid, declared: (network × algo × T) over the attack
/// regime.
pub(crate) fn scaling_grid(fast: bool) -> TrialGrid {
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
/// slope fit is computed afterwards from the per-trial columns — so a
/// resumed grid re-fits from the store without re-running anything.
pub fn run_scaling() -> Vec<ScalingFit> {
    let grid = scaling_grid(fast_mode());
    let roster = scaling_roster();
    let (results, _) = grid.run(default_workers(), &GridOptions::default(), |cell, trials| {
        let label = cell.str_value(AXIS_ALGO);
        let algo = *roster.iter().find(|a| a.label() == label).expect("scaling roster algo");
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
    });

    // The T axis is innermost, so each (network, algo) curve is one
    // contiguous run of cells; fit one slope per trial across it.
    let trials = trials_for(fast_mode());
    results
        .chunk_by(|a, b| {
            [AXIS_NETWORK, AXIS_ALGO].iter().all(|x| a.cell.str_value(x) == b.cell.str_value(x))
        })
        .map(|curve| {
            let mut slopes = Welford::new();
            for trial in 0..trials {
                let pts: Vec<(f64, f64)> = curve
                    .iter()
                    .filter_map(|r| {
                        // Quarantined cells drop out of the fit; the
                        // remaining T points still constrain the slope.
                        let record = r.record.as_ref()?;
                        let rate =
                            record.get(&format!("good_rate_trial{trial}")).unwrap_or_else(|| {
                                panic!("record {} lacks trial {trial} column", record.cell_id)
                            });
                        Some((r.cell.f64_value(AXIS_T).ln(), rate.max(1e-12).ln()))
                    })
                    .collect();
                slopes.push(slope(&pts));
            }
            ScalingFit {
                network: curve[0].cell.str_value(AXIS_NETWORK).to_string(),
                algo: curve[0].cell.str_value(AXIS_ALGO).to_string(),
                exponent: slopes.summary(),
                points: curve.len(),
            }
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

/// Formats the invariant sweep with trial means and 95 % confidence
/// bounds; the `held` verdict reflects the worst trial.
pub fn invariants_table(outcomes: &[InvariantOutcome]) -> Table {
    let mut table = Table::new(vec![
        "network",
        "adversary",
        "T",
        "trials",
        "max bad frac",
        "ci95_lo",
        "ci95_hi",
        "worst",
        "bound (3k)",
        "held",
        "A",
    ]);
    for o in outcomes {
        table.push(vec![
            o.network.clone(),
            o.strategy.clone(),
            fmt_num(o.t),
            o.trials.to_string(),
            fmt_num(o.max_bad_fraction.mean),
            fmt_num(o.max_bad_fraction.ci95_lo),
            fmt_num(o.max_bad_fraction.ci95_hi),
            fmt_num(o.worst_bad_fraction),
            fmt_num(o.bound),
            if o.worst_bad_fraction.is_nan() {
                "no-data".to_string() // quarantined cell: no verdict
            } else if o.held {
                "yes".to_string()
            } else {
                "VIOLATED".to_string()
            },
            fmt_num(o.good_rate.mean),
        ]);
    }
    table
}

/// Formats the scaling fits with per-trial-fit confidence bounds.
pub fn scaling_table(fits: &[ScalingFit]) -> Table {
    let mut table = Table::new(vec![
        "network",
        "algorithm",
        "trials",
        "A~T^e mean",
        "ci95_lo",
        "ci95_hi",
        "points",
        "theory",
    ]);
    for f in fits {
        let theory = if f.algo == "ERGO" { "0.5 (Thm 1)" } else { "1.0 (O(T+J))" };
        table.push(vec![
            f.network.clone(),
            f.algo.clone(),
            f.exponent.n.to_string(),
            fmt_num(f.exponent.mean),
            fmt_num(f.exponent.ci95_lo),
            fmt_num(f.exponent.ci95_hi),
            f.points.to_string(),
            theory.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::results_dir;

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

    /// The Lemma 9 assertion over the *migrated* grid path: a small
    /// strategy-axis grid (every registered attack strategy) through the
    /// real cache + store machinery must hold `max_bad_fraction < 3κ` in
    /// every cell, and resume bit-identically.
    #[test]
    fn migrated_grid_holds_lemma9_across_strategies_and_resumes() {
        let name = format!("invariants-test-{}", std::process::id());
        let nets = [networks::gnutella()];
        let opts = GridOptions::default();
        let run = || {
            run_invariant_grid(&name, &nets, &strategy_roster(), &[2_000.0], 2, 120.0, 29, &opts)
        };
        let (rows, summary) = run();
        assert_eq!(rows.len(), strategy_roster().len());
        assert_eq!(summary.cells_executed, rows.len());
        for row in &rows {
            assert!((row.bound - 1.0 / 6.0).abs() < 1e-12, "bound is 3k = 1/6");
            assert!(
                row.held && row.worst_bad_fraction < row.bound,
                "{}/{}: worst fraction {} >= {}",
                row.network,
                row.strategy,
                row.worst_bad_fraction,
                row.bound
            );
            assert_eq!(row.trials, 2);
            assert!(
                row.max_bad_fraction.ci95_lo <= row.max_bad_fraction.mean
                    && row.max_bad_fraction.mean <= row.max_bad_fraction.ci95_hi
            );
        }
        // Warm re-run resumes every cell with bit-identical aggregates.
        let (rows2, summary2) = run();
        assert_eq!(summary2.cells_executed, 0);
        assert_eq!(summary2.cells_skipped, rows.len());
        for (a, b) in rows.iter().zip(&rows2) {
            assert_eq!(a.strategy, b.strategy);
            assert_eq!(a.max_bad_fraction.mean.to_bits(), b.max_bad_fraction.mean.to_bits());
            assert_eq!(a.good_rate.mean.to_bits(), b.good_rate.mean.to_bits());
        }
        std::fs::remove_file(results_dir().join(format!("{name}.store"))).ok();
        std::fs::remove_file(results_dir().join(format!("{name}.spec"))).ok();
    }
}
