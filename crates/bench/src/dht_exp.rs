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

use crate::experiment::{Column, Experiment, Part, TableSpec};
use crate::grid::{trials_for, CellResult, TrialGrid};
use crate::invariants_exp::strategy_fingerprints;
use ergo_core::{Ergo, ErgoConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sybil_churn::networks;
use sybil_dht::{lookup_wide, Ring};
use sybil_exp::spec::{cell_seed, AxisValue, CellSpec, AXIS_STRATEGY, AXIS_T};
use sybil_exp::{Durability, Welford};
use sybil_sim::adversary::{build_strategy, StrategyParams, STRATEGY_NONE};
use sybil_sim::engine::{SimConfig, Simulation};
use sybil_sim::id::Id;
use sybil_sim::time::Time;
use sybil_sim::workload::WorkloadSource;

/// The Section 13.2 experiment, declared.
pub const EXPERIMENT: Experiment = Experiment {
    name: "dht",
    banner: "=== Sybil-resistant DHT (Section 13.2 extension) ===",
    parts,
};

/// The axis of the static sweep's rows that the end-to-end grid lacks:
/// the Sybil fraction the ring is built with.
const AXIS_BAD_FRACTION: &str = "bad fraction";

/// The static success-rate sweep (`sybil_dht::experiment::run_grid`) as
/// table rows: rings built at fixed Sybil fractions, every routing
/// strategy. It replays no workload and takes about a second, so it keeps
/// no store and is no grid: it rides on the end-to-end part as a table
/// whose rows ignore the cell results, and so runs after that grid.
fn static_rows(fast: bool) -> Vec<CellResult> {
    let (n, trials) = if fast { (500, 150) } else { (2_000, 600) };
    sybil_dht::experiment::run_grid(n, trials, 29)
        .into_iter()
        .map(|c| {
            let axes = vec![
                (AXIS_BAD_FRACTION.into(), AxisValue::F64(c.bad_fraction)),
                (AXIS_STRATEGY.into(), AxisValue::Str(c.strategy)),
            ];
            CellResult::row(axes, vec![("success_rate".into(), c.success_rate)])
        })
        .collect()
}

/// One end-to-end membership-run trial.
#[derive(Clone, Debug)]
pub struct EndToEnd {
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
        ring_size: ring.len(),
        bad_fraction: ring.bad_fraction(),
        success_rate: ok as f64 / lookups as f64,
    }
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
fn end_to_end_grid(fast: bool) -> TrialGrid {
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
        strategy_fingerprints(&strategies),
    );
    let cells = grid_cells(&strategies, &[0.0, 1_000.0, 100_000.0]);
    TrialGrid::from_cells("dht_end_to_end", cells, &config, &[net], trials, horizon, base_seed)
}

/// The part: Ergo membership under every registered attack strategy, the
/// surviving ring measured with wide-path lookups. The attack rates are
/// enormous — the point is that lookups stay near-perfect *because* Ergo
/// bounds the Sybil fraction, not because the attack is small.
fn parts(fast: bool) -> Vec<Part> {
    let lookups = lookups(fast);
    let tables = vec![
        TableSpec {
            csv: "dht_grid".into(),
            heading: "--- lookup success on rings of fixed Sybil fraction ---",
            rows: Some(Box::new(move |_| static_rows(fast))),
            columns: vec![
                Column::new("bad fraction", |r, _| {
                    format!("{:.3}", r.cell.f64_value(AXIS_BAD_FRACTION))
                }),
                Column::axis("strategy", AXIS_STRATEGY),
                Column::field("lookup success rate", "success_rate"),
            ],
        },
        TableSpec {
            csv: "dht_end_to_end".into(),
            heading: "--- end to end: ring membership from an Ergo run under attack ---",
            rows: None,
            columns: vec![
                Column::axis("adversary", AXIS_STRATEGY),
                Column::axis("T (attack on membership)", AXIS_T),
                Column::count("trials", "trials"),
                Column::field("ring size", "ring_size_mean"),
                Column::new("Sybil fraction", |r, _| format!("{:.4}", r.get("bad_fraction_mean"))),
                Column::field("wide-8 success mean", "success_rate_mean"),
                Column::field("ci95_lo", "success_rate_ci95_lo"),
                Column::field("ci95_hi", "success_rate_ci95_hi"),
            ],
        },
    ];
    vec![Part {
        grid: end_to_end_grid(fast),
        durability: Durability::Flush,
        measure: Box::new(move |cell, trials| {
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
                let (workload, horizon) = (trial.workload(), trial.horizon);
                let q = run_end_to_end_trial(workload, strategy, t, horizon, lookup_seed, lookups);
                ring_size.push(q.ring_size as f64);
                bad_fraction.push(q.bad_fraction);
                success.push(q.success_rate);
            }
            let mut fields = vec![("trials".to_string(), trials.len() as f64)];
            fields.extend(ring_size.summary().fields("ring_size"));
            fields.extend(bad_fraction.summary().fields("bad_fraction"));
            fields.extend(success.summary().fields("success_rate"));
            fields
        }),
        violated: None,
        tables,
    }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sybil_sim::adversary::STRATEGY_PURGE_SURVIVE;

    #[test]
    fn end_to_end_ring_is_lookupable() {
        let workload = networks::gnutella().generate(Time(2_000.0), 3);
        let out = run_end_to_end_trial(
            workload,
            STRATEGY_PURGE_SURVIVE,
            5_000.0,
            2_000.0,
            3 ^ 0xD417,
            500,
        );
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
