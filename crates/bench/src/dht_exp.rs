//! Extension experiment E7 — the Sybil-resistant DHT (paper Section 13.2):
//! lookup success rates across Sybil fractions and routing strategies, and
//! an end-to-end run where the ring membership comes from an actual
//! Ergo-defended simulation.
//!
//! The end-to-end cell runs through the `sybil-exp` subsystem as a
//! (strategy × T) grid: the adversary strategy attacking the membership
//! run is a first-class named axis resolved through the registry, each
//! cell replays its trials' cached disk-streamed
//! Gnutella workloads, lookup RNG streams derive deterministically from
//! the frozen [`cell_seed`] contract, and finished cells land in a
//! resumable results store with `mean, ci95_lo, ci95_hi` aggregation.

use crate::grid::{trials_for, TrialGrid};
use crate::sweep::{default_workers, fast_mode};
use crate::table::{fmt_num, Table};
use ergo_core::{Ergo, ErgoConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sybil_churn::networks;
use sybil_dht::experiment::{run_grid, DhtCell};
use sybil_dht::{lookup_wide, Ring};
use sybil_exp::runner::RunSummary;
use sybil_exp::spec::{cell_seed, AxisValue, CellSpec, AXIS_STRATEGY, AXIS_T};
use sybil_exp::{GridOptions, MetricSummary, Welford};
use sybil_sim::adversary::{
    build_strategy, strategy_fingerprint, StrategyParams, STRATEGY_NONE, STRATEGY_PURGE_SURVIVE,
};
use sybil_sim::engine::{SimConfig, Simulation};
use sybil_sim::id::Id;
use sybil_sim::time::Time;
use sybil_sim::workload::WorkloadSource;

/// Runs the static success-rate grid.
pub fn run_static() -> Vec<DhtCell> {
    let (n, trials) = if fast_mode() { (500, 150) } else { (2_000, 600) };
    run_grid(n, trials, 29)
}

/// Formats the static grid.
pub fn to_table(cells: &[DhtCell]) -> Table {
    let mut table = Table::new(vec!["bad fraction", "strategy", "lookup success rate"]);
    for c in cells {
        table.push(vec![
            format!("{:.3}", c.bad_fraction),
            c.strategy.clone(),
            fmt_num(c.success_rate),
        ]);
    }
    table
}

/// One end-to-end membership-run trial.
#[derive(Clone, Debug)]
pub struct EndToEnd {
    /// Adversary spend rate during the membership run.
    pub t: f64,
    /// Final ring size.
    pub ring_size: usize,
    /// Final Sybil fraction on the ring.
    pub bad_fraction: f64,
    /// Wide-path lookup success rate on that ring.
    pub success_rate: f64,
}

/// Runs one end-to-end trial against any workload source: an Ergo
/// membership run under `strategy` at rate `t`, the final membership
/// materialized as the ring, and `lookups` wide-path lookups driven by a
/// deterministic RNG stream seeded with `lookup_seed`.
pub fn run_end_to_end_trial<W: WorkloadSource>(
    workload: W,
    strategy: &str,
    t: f64,
    horizon: f64,
    lookup_seed: u64,
    lookups: usize,
) -> EndToEnd {
    let cfg = SimConfig { horizon: Time(horizon), adv_rate: t, ..SimConfig::default() };
    let adversary =
        build_strategy(strategy, &StrategyParams::rate(t)).unwrap_or_else(|e| panic!("{e}"));
    let report = Simulation::new(cfg, Ergo::new(ErgoConfig::default()), adversary, workload).run();

    // Materialize the final membership as ring nodes. Identities are
    // opaque; only counts matter for the ring's composition.
    let n_bad = report.final_bad;
    let n_good = report.final_members - n_bad;
    let ring = Ring::from_members(
        (0..n_good).map(|i| (Id(i), false)).chain((0..n_bad).map(|i| (Id((1 << 41) | i), true))),
    );

    let mut rng = StdRng::seed_from_u64(lookup_seed);
    let ok =
        (0..lookups).filter(|_| lookup_wide(&ring, rng.gen(), 8, &mut rng).is_success()).count();
    EndToEnd {
        t,
        ring_size: ring.len(),
        bad_fraction: ring.bad_fraction(),
        success_rate: ok as f64 / lookups as f64,
    }
}

/// Runs one end-to-end trial with an in-memory workload and the
/// historical worst-case (purge-surviving) adversary — the single-trial
/// form the quick tests use.
pub fn run_end_to_end(t: f64, seed: u64) -> EndToEnd {
    let horizon = if fast_mode() { 300.0 } else { 2_000.0 };
    let lookups = lookups(fast_mode());
    run_end_to_end_trial(
        networks::gnutella().generate(Time(horizon), seed),
        STRATEGY_PURGE_SURVIVE,
        t,
        horizon,
        seed ^ 0xD417,
        lookups,
    )
}

/// One aggregated cell of the end-to-end grid.
#[derive(Clone, Debug)]
pub struct EndToEndSummary {
    /// Adversary strategy attacking the membership run.
    pub strategy: String,
    /// Adversary spend rate.
    pub t: f64,
    /// Trials behind the confidence intervals.
    pub trials: u64,
    /// Final ring size over trials.
    pub ring_size: MetricSummary,
    /// Final Sybil fraction over trials.
    pub bad_fraction: MetricSummary,
    /// Wide-path lookup success rate over trials.
    pub success_rate: MetricSummary,
}

/// The explicit cell list: strategy × T, except that the T = 0 baseline
/// is strategy-independent (every funded strategy idles at rate 0) and
/// runs once under the registry's `none` strategy.
fn grid_cells(strategies: &[&str], t_values: &[f64]) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for &t in t_values {
        let cell_strategies: &[&str] = if t == 0.0 { &[STRATEGY_NONE] } else { strategies };
        for strategy in cell_strategies {
            cells.push(CellSpec::new(vec![
                (AXIS_STRATEGY.into(), AxisValue::Str(strategy.to_string())),
                (AXIS_T.into(), AxisValue::F64(t)),
            ]));
        }
    }
    cells
}

/// Base seed of the end-to-end grid (workloads and lookup streams).
const BASE_SEED: u64 = 7;

/// Wide-path lookups per end-to-end trial.
fn lookups(fast: bool) -> usize {
    if fast {
        150
    } else {
        500
    }
}

/// The end-to-end grid, declared: explicit (strategy × T) cells over the
/// Gnutella churn model.
pub(crate) fn end_to_end_grid(fast: bool) -> TrialGrid {
    let horizon = if fast { 300.0 } else { 2_000.0 };
    let lookups = lookups(fast);
    let strategies = crate::invariants_exp::strategy_roster();
    let net = networks::gnutella();
    let (trials, base_seed) = (trials_for(fast), BASE_SEED);
    let config = format!(
        "dht end-to-end grid v2 (explicit cells; T=0 baseline runs once as strategy=none)\n\
         horizon = {horizon}\ntrials = {trials}\nseed = {base_seed}\nnetwork = {net:?}\n\
         defense = {:?}\nlookups = {lookups} wide-8\nstrategies = [{}]\n",
        ErgoConfig::default(),
        strategies
            .iter()
            .map(|s| strategy_fingerprint(s, &StrategyParams::rate(1.0)))
            .collect::<Vec<_>>()
            .join(", "),
    );
    let cells = grid_cells(&strategies, &[0.0, 1_000.0, 100_000.0]);
    TrialGrid::from_cells("dht_end_to_end", cells, &config, &[net], trials, horizon, base_seed)
}

/// Runs the end-to-end experiment as a (strategy × T) grid: Ergo
/// membership under every registered attack strategy, the surviving ring
/// measured with wide-path lookups. The attack rates are enormous — the
/// point is that lookups stay near-perfect *because* Ergo bounds the
/// Sybil fraction, not because the attack is small.
pub fn run_end_to_end_grid() -> (Vec<EndToEndSummary>, RunSummary) {
    let lookups = lookups(fast_mode());
    let (results, summary) = end_to_end_grid(fast_mode()).run(
        default_workers(),
        &GridOptions::default(),
        |cell, trials| {
            let strategy = cell.str_value(AXIS_STRATEGY);
            let t = cell.f64_value(AXIS_T);
            let mut ring_size = Welford::new();
            let mut bad_fraction = Welford::new();
            let mut success = Welford::new();
            for trial in trials {
                // Lookup randomness must differ per cell and trial but be
                // stable under resume: derive it from the canonical cell
                // id (the frozen `cell_seed` contract), which inherits
                // the id's no-collision guarantee.
                let lookup_seed = cell_seed(BASE_SEED, cell, trial.index as u64);
                let workload = trial.workload();
                let q = run_end_to_end_trial(
                    workload,
                    strategy,
                    t,
                    trial.horizon,
                    lookup_seed,
                    lookups,
                );
                ring_size.push(q.ring_size as f64);
                bad_fraction.push(q.bad_fraction);
                success.push(q.success_rate);
            }
            let mut fields = vec![("trials".to_string(), trials.len() as f64)];
            fields.extend(ring_size.summary().fields("ring_size"));
            fields.extend(bad_fraction.summary().fields("bad_fraction"));
            fields.extend(success.summary().fields("success_rate"));
            fields
        },
    );
    let rows = results
        .iter()
        .map(|r| EndToEndSummary {
            strategy: r.cell.str_value(AXIS_STRATEGY).to_string(),
            t: r.cell.f64_value(AXIS_T),
            trials: r.trials(),
            ring_size: r.summary("ring_size"),
            bad_fraction: r.summary("bad_fraction"),
            success_rate: r.summary("success_rate"),
        })
        .collect();
    (rows, summary)
}

/// Formats aggregated end-to-end outcomes with trial means and 95 %
/// confidence bounds for the lookup success rate.
pub fn end_to_end_table(cells: &[EndToEndSummary]) -> Table {
    let mut table = Table::new(vec![
        "adversary",
        "T (attack on membership)",
        "trials",
        "ring size",
        "Sybil fraction",
        "wide-8 success mean",
        "ci95_lo",
        "ci95_hi",
    ]);
    for c in cells {
        table.push(vec![
            c.strategy.clone(),
            fmt_num(c.t),
            c.trials.to_string(),
            fmt_num(c.ring_size.mean),
            format!("{:.4}", c.bad_fraction.mean),
            fmt_num(c.success_rate.mean),
            fmt_num(c.success_rate.ci95_lo),
            fmt_num(c.success_rate.ci95_hi),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_ring_is_lookupable() {
        let out = run_end_to_end(5_000.0, 3);
        assert!(out.bad_fraction < 1.0 / 6.0, "Ergo bound: {}", out.bad_fraction);
        assert!(out.success_rate > 0.95, "success {}", out.success_rate);
        assert!(out.ring_size > 1_000);
    }

    #[test]
    fn grid_collapses_the_t0_baseline_to_one_cell() {
        let strategies = crate::invariants_exp::strategy_roster();
        let cells = grid_cells(&strategies, &[0.0, 1_000.0, 100_000.0]);
        assert_eq!(cells.len(), 1 + 2 * strategies.len());
        let baselines: Vec<_> = cells.iter().filter(|c| c.f64_value(AXIS_T) == 0.0).collect();
        assert_eq!(baselines.len(), 1, "one strategy-independent baseline cell");
        assert_eq!(baselines[0].str_value(AXIS_STRATEGY), STRATEGY_NONE);
        let ids: std::collections::BTreeSet<String> = cells.iter().map(|c| c.id()).collect();
        assert_eq!(ids.len(), cells.len());
    }

    #[test]
    fn end_to_end_trial_is_deterministic_in_its_seeds() {
        let horizon = 200.0;
        let w = || networks::gnutella().generate(Time(horizon), 3);
        let a = run_end_to_end_trial(w(), STRATEGY_PURGE_SURVIVE, 5_000.0, horizon, 42, 100);
        let b = run_end_to_end_trial(w(), STRATEGY_PURGE_SURVIVE, 5_000.0, horizon, 42, 100);
        assert_eq!(a.ring_size, b.ring_size);
        assert_eq!(a.success_rate.to_bits(), b.success_rate.to_bits());
        // A different lookup seed may change outcomes but not the ring.
        let c = run_end_to_end_trial(w(), STRATEGY_PURGE_SURVIVE, 5_000.0, horizon, 43, 100);
        assert_eq!(a.ring_size, c.ring_size);
    }
}
