//! Experiment E5 — the decentralized variant (paper Section 12, Theorem 4
//! and Lemma 18): committee size stays `Θ(log n)` and its good fraction
//! stays ≥ 7/8 across iterations, under attack, while membership decisions
//! and costs match centralized Ergo exactly.
//!
//! The adversary strategy is a first-class named axis: Section 12's
//! guarantees, like Theorem 1's, are claimed against *every* strategy, so
//! the grid runs each registered attack strategy (not just the
//! purge-survivor worst case) through the `sybil-exp` subsystem —
//! multi-trial with cached disk-streamed workloads, `mean, ci95_lo,
//! ci95_hi` aggregation, and a resumable results store. The decentralized
//! and centralized runs of a trial replay the *same* cached on-disk
//! workload through two independent stream handles — the workload is
//! never cloned resident, and the cost-equality comparison is exact by
//! construction.

use crate::experiment::{Column, Experiment, Part, TableSpec};
use crate::grid::{trials_for, TrialGrid};
use crate::invariants_exp::strategy_fingerprints;
use crate::table::fmt_num;
use ergo_core::{Ergo, ErgoConfig};
use sybil_churn::model::ChurnModel;
use sybil_churn::networks;
use sybil_committee::{DecentralConfig, DecentralizedErgo};
use sybil_exp::spec::{AxisValue, CellSpec, AXIS_NETWORK, AXIS_STRATEGY, AXIS_T};
use sybil_exp::{GridOptions, Welford};
use sybil_sim::adversary::{build_strategy, StrategyParams, STRATEGY_NONE};
use sybil_sim::engine::{SimConfig, Simulation};
use sybil_sim::time::Time;
use sybil_sim::workload::WorkloadSource;

/// The Section 12 experiment, declared.
pub const EXPERIMENT: Experiment = Experiment {
    name: "committee",
    banner: "=== Decentralized Ergo: committee invariants (Theorem 4) ===",
    parts,
};

/// Lemma 18's committee good-fraction bound.
pub const COMMITTEE_BOUND: f64 = 7.0 / 8.0;

/// One decentralization trial (one workload seed, one strategy, one T).
#[derive(Clone, Debug)]
pub struct CommitteeTrial {
    /// Committees elected over the run.
    pub elections: usize,
    /// Mean committee size.
    pub mean_size: f64,
    /// Smallest good fraction any committee held (incl. attrition).
    pub min_good_fraction: f64,
    /// SMR messages exchanged.
    pub messages: u64,
    /// Good spend rate (must match centralized Ergo).
    pub good_rate: f64,
    /// Centralized Ergo's good spend rate on the identical run.
    pub centralized_rate: f64,
    /// Max bad fraction over the run.
    pub max_bad_fraction: f64,
}

/// Runs one decentralization trial: the decentralized and centralized
/// simulations replay `decentralized` and `centralized` — two independent
/// streams of the *same* workload (two [`DiskWorkload`] handles onto one
/// cache file in the grid; the old driver cloned a resident workload
/// instead).
///
/// [`DiskWorkload`]: sybil_sim::workload_io::DiskWorkload
pub fn run_trial<W1, W2>(
    decentralized: W1,
    centralized: W2,
    strategy: &str,
    t: f64,
    horizon: f64,
) -> CommitteeTrial
where
    W1: WorkloadSource,
    W2: WorkloadSource,
{
    let cfg = SimConfig { horizon: Time(horizon), adv_rate: t, ..SimConfig::default() };
    let adversary =
        build_strategy(strategy, &StrategyParams::rate(t)).unwrap_or_else(|e| panic!("{e}"));
    let (report, defense) = Simulation::new(
        cfg,
        DecentralizedErgo::new(DecentralConfig::default()),
        adversary,
        decentralized,
    )
    .run_with_defense();

    let adversary =
        build_strategy(strategy, &StrategyParams::rate(t)).unwrap_or_else(|e| panic!("{e}"));
    let central =
        Simulation::new(cfg, Ergo::new(ErgoConfig::default()), adversary, centralized).run();

    let history = defense.history();
    let mean_size = if history.is_empty() {
        defense.committee().size() as f64
    } else {
        history.iter().map(|r| r.elected.size() as f64).sum::<f64>() / history.len() as f64
    };
    CommitteeTrial {
        elections: history.len(),
        mean_size,
        min_good_fraction: defense.min_committee_good_fraction(),
        messages: defense.messages(),
        good_rate: report.good_spend_rate(),
        centralized_rate: central.good_spend_rate(),
        max_bad_fraction: report.max_bad_fraction,
    }
}

/// The part: per cell, the trial statistics of committee size, elections,
/// SMR traffic and both spend rates, plus the two worst cases the verdicts
/// read — the smallest good fraction any trial's committee held (Lemma 18
/// is about the worst case, not a mean) and the largest bad fraction.
fn parts(fast: bool) -> Vec<Part> {
    let columns = vec![
        Column::axis("network", AXIS_NETWORK),
        Column::axis("adversary", AXIS_STRATEGY),
        Column::axis("T", AXIS_T),
        Column::count("trials", "trials"),
        Column::field("elections", "elections_mean"),
        Column::field("mean size", "mean_size_mean"),
        Column::field("min good frac", "min_good_fraction"),
        Column::text("bound", fmt_num(COMMITTEE_BOUND)),
        Column::field("SMR msgs", "messages_mean"),
        Column::field("A decentralized", "good_rate_mean"),
        Column::field("ci95_lo", "good_rate_ci95_lo"),
        Column::field("ci95_hi", "good_rate_ci95_hi"),
        Column::field("A centralized", "centralized_rate_mean"),
        Column::field("max bad frac", "max_bad_fraction"),
    ];
    vec![Part {
        grid: grid(fast),
        opts: GridOptions::default(),
        measure: Box::new(|cell, trials| {
            let strategy = cell.str_value(AXIS_STRATEGY);
            let t = cell.f64_value(AXIS_T);
            let mut elections = Welford::new();
            let mut mean_size = Welford::new();
            let mut messages = Welford::new();
            let mut good_rate = Welford::new();
            let mut central_rate = Welford::new();
            let mut min_good_fraction = f64::INFINITY;
            let mut worst_bad = 0.0f64;
            for trial in trials {
                // Two handles onto the same cached file: the decentralized
                // and centralized runs replay one on-disk workload, no
                // resident clone.
                let q = run_trial(trial.workload(), trial.workload(), strategy, t, trial.horizon);
                elections.push(q.elections as f64);
                mean_size.push(q.mean_size);
                messages.push(q.messages as f64);
                good_rate.push(q.good_rate);
                central_rate.push(q.centralized_rate);
                min_good_fraction = min_good_fraction.min(q.min_good_fraction);
                worst_bad = worst_bad.max(q.max_bad_fraction);
            }
            let mut fields = vec![("trials".to_string(), trials.len() as f64)];
            fields.extend(elections.summary().fields("elections"));
            fields.extend(mean_size.summary().fields("mean_size"));
            fields.push(("min_good_fraction".into(), min_good_fraction));
            fields.extend(messages.summary().fields("messages"));
            fields.extend(good_rate.summary().fields("good_rate"));
            fields.extend(central_rate.summary().fields("centralized_rate"));
            fields.push(("max_bad_fraction".into(), worst_bad));
            fields
        }),
        violated: None,
        tables: vec![TableSpec::per_cell("committee", columns)],
    }]
}

/// The explicit cell list: network × strategy × T, except that the T = 0
/// baseline is strategy-independent — every funded strategy idles at rate
/// 0 — so it runs **once** per network under the registry's `none`
/// strategy instead of once per roster entry (at paper scale each
/// baseline cell is `trials × 2` full-horizon simulations).
fn grid_cells(nets: &[ChurnModel], strategies: &[&str], t_values: &[f64]) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for net in nets {
        for &t in t_values {
            let cell_strategies: &[&str] = if t == 0.0 { &[STRATEGY_NONE] } else { strategies };
            for strategy in cell_strategies {
                cells.push(CellSpec::new(vec![
                    (AXIS_NETWORK.into(), AxisValue::Str(net.name.to_string())),
                    (AXIS_STRATEGY.into(), AxisValue::Str(strategy.to_string())),
                    (AXIS_T.into(), AxisValue::F64(t)),
                ]));
            }
        }
    }
    cells
}

/// The committee grid, declared. Cells are not a full cartesian product
/// (the T = 0 baseline collapses the strategy axis, see [`grid_cells`]),
/// so they are listed explicitly.
fn grid(fast: bool) -> TrialGrid {
    let nets = networks::all_networks();
    let strategies = crate::invariants_exp::strategy_roster();
    let t_values = [0.0, 10_000.0];
    let (trials, base_seed) = (trials_for(fast), 17u64);
    let horizon = if fast { 300.0 } else { 10_000.0 };
    let config = format!(
        "committee grid v2 (explicit cells; T=0 baseline runs once per network as \
         strategy=none)\nhorizon = {horizon}\ntrials = {trials}\nseed = {base_seed}\n\
         t_values = {t_values:?}\nnetworks = {nets:?}\ndecentral = {:?}\nergo = {:?}\n\
         strategies = [{}]\n",
        DecentralConfig::default(),
        ErgoConfig::default(),
        strategy_fingerprints(&strategies),
    );
    let cells = grid_cells(&nets, &strategies, &t_values);
    TrialGrid::from_cells("committee", cells, &config, &nets, trials, horizon, base_seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sybil_exp::WorkloadCache;
    use sybil_sim::adversary::STRATEGY_PURGE_SURVIVE;
    use sybil_sim::workload_io::DiskWorkload;

    #[test]
    fn decentralized_matches_centralized_costs_and_keeps_committee() {
        // Generation is deterministic, so both runs replay one schedule.
        let workload = || networks::gnutella().generate(Time(400.0), 5);
        let out = run_trial(workload(), workload(), STRATEGY_PURGE_SURVIVE, 5_000.0, 400.0);
        assert!(
            (out.good_rate - out.centralized_rate).abs() / out.centralized_rate < 1e-9,
            "decentralized {} vs centralized {}",
            out.good_rate,
            out.centralized_rate
        );
        assert!(out.elections > 0);
        assert!(out.min_good_fraction >= COMMITTEE_BOUND, "{}", out.min_good_fraction);
        assert!(out.messages > 0);
        assert!(out.max_bad_fraction < 1.0 / 6.0);
    }

    /// The T = 0 baseline is strategy-independent, so the cell list must
    /// collapse it to a single `none` cell per network rather than
    /// simulating the identical no-attack run once per roster entry.
    #[test]
    fn grid_collapses_the_t0_baseline_to_one_cell_per_network() {
        let nets = [networks::gnutella(), networks::ethereum()];
        let strategies = crate::invariants_exp::strategy_roster();
        let cells = grid_cells(&nets, &strategies, &[0.0, 10_000.0]);
        assert_eq!(cells.len(), nets.len() * (1 + strategies.len()));
        let baselines: Vec<_> = cells.iter().filter(|c| c.f64_value(AXIS_T) == 0.0).collect();
        assert_eq!(baselines.len(), nets.len());
        for cell in baselines {
            assert_eq!(cell.str_value(AXIS_STRATEGY), STRATEGY_NONE);
        }
        // Ids stay distinct (the run would reject duplicates anyway).
        let ids: std::collections::BTreeSet<String> = cells.iter().map(|c| c.id()).collect();
        assert_eq!(ids.len(), cells.len());
    }

    /// The cost-equality claim, pinned bit-identically on the grid's real
    /// replay path: both runs stream the same cached on-disk workload
    /// (two handles, no resident clone), and the decentralized good spend
    /// sum must equal centralized Ergo's to the last bit.
    #[test]
    fn decentralized_spend_is_bit_identical_on_shared_disk_workload() {
        let dir = std::env::temp_dir().join(format!("sybil_committee_eq_{}", std::process::id()));
        let cache = WorkloadCache::open(&dir).unwrap();
        let net = networks::gnutella();
        let horizon = 300.0;
        let open = || -> DiskWorkload { cache.get_or_create(&net, Time(horizon), 7).unwrap() };
        for strategy in crate::invariants_exp::strategy_roster() {
            let out = run_trial(open(), open(), strategy, 5_000.0, horizon);
            assert_eq!(
                out.good_rate.to_bits(),
                out.centralized_rate.to_bits(),
                "{strategy}: decentralized {} != centralized {}",
                out.good_rate,
                out.centralized_rate
            );
        }
        assert_eq!(cache.stats().misses, 1, "one generation serves every replay");
        std::fs::remove_dir_all(&dir).ok();
    }
}
