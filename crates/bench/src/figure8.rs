//! Experiment E1 — the paper's **Figure 8**: good spend rate `A` versus
//! adversary spend rate `T` for ERGO, CCOM, SybilControl, REMP-1e7, and
//! ERGO-SF(98), over the Bitcoin, BitTorrent, Gnutella, and Ethereum
//! workloads.
//!
//! Setup mirrors Section 10.1: κ = 1/18, `T ∈ 2⁰…2²⁰`, 10 000 simulated
//! seconds per point — repeated for 5 (2 in FAST mode) independent workload
//! seeds per cell through the `sybil-exp` subsystem: workloads are
//! materialized once per (network, trial) in the content-addressed disk
//! cache and replayed into every (algorithm, T) cell; each cell reports
//! `mean, ci95_lo, ci95_hi` per metric and is recorded in a resumable
//! results store.
//!
//! Expected shape (paper): Ergo matches every baseline for `T ≥ 100` and
//! beats them by up to two orders of magnitude at large `T` (its `A` grows
//! like `√T`); ERGO-SF gains up to three orders; REMP is the flat constant
//! `(1−κ)·Tmax/κ ≈ 1.7·10⁸`; SybilControl's curve is cut once it can no
//! longer enforce a `< 1/6` bad fraction.

use crate::experiment::{Column, Experiment, Part, TableSpec};
use crate::grid::{algo_of, ergo_mean, spend_columns, spend_part, trials_for, CellResult};
use crate::sweep::{t_grid, Algo};
use crate::table::fmt_num;
use sybil_churn::model::ChurnModel;
use sybil_churn::networks;
use sybil_exp::spec::{AXIS_ALGO, AXIS_NETWORK, AXIS_T};

/// Figure 8, declared.
pub const EXPERIMENT: Experiment = Experiment {
    name: "figure8",
    banner: "=== Figure 8: good spend rate A vs adversary spend rate T ===\n\
             (paper Section 10.1; kappa = 1/18, 10 000 s per point)",
    parts,
};

/// The million-ID Figure-8-shaped grid (ROADMAP "scale sweeps to
/// million-ID workloads"): the [`networks::millions`] model at 10⁶ initial
/// IDs, ERGO / CCOM / SybilControl, four attack rates, ≥ 5 trials per
/// cell — every run disk-streamed from the content-addressed cache, so
/// resident workload memory stays at two read buffers per run instead of
/// the ~16 MB schedule.
///
/// The horizon is 500 s (as in the `macro_millions` perf scenario): at
/// this scale each trial replays ~170 k events, so the full grid is
/// minutes, not hours, and still exercises every million-ID code path.
pub const MILLIONS: Experiment = Experiment {
    name: "figure8_millions",
    banner: "=== Figure 8 at 10^6 IDs: A vs T, disk-streamed multi-trial grid ===",
    parts: millions_parts,
};

/// The Figure 8 algorithm roster.
pub fn roster() -> Vec<Algo> {
    vec![Algo::Ergo, Algo::CCom, Algo::SybilControl, Algo::Remp(1e7), Algo::ErgoSf(0.98)]
}

/// The `(horizon, T grid)` of the sweep Figures 8 and 10 share.
pub(crate) fn sweep(fast: bool) -> (f64, Vec<f64>) {
    if fast {
        (500.0, vec![0.0, 16.0, 1024.0, 65_536.0])
    } else {
        (10_000.0, t_grid())
    }
}

fn parts(fast: bool) -> Vec<Part> {
    let (horizon, t_grid) = sweep(fast);
    let (nets, roster) = (networks::all_networks(), roster());
    let tables = vec![
        TableSpec::per_cell("figure8", columns(&nets, &roster)),
        // The headline comparison: each baseline's spend relative to Ergo
        // at the largest attack, per network (the paper reports "up to 2
        // orders of magnitude better", and 3 with the classifier). Ratios
        // compare trial means.
        TableSpec {
            csv: "figure8_summary".into(),
            heading: "--- baseline cost relative to ERGO at the largest attack ---",
            rows: Some(Box::new(|cells| {
                let t_max = cells.iter().map(|c| c.cell.f64_value(AXIS_T)).fold(0.0, f64::max);
                let baseline_at_t_max = |c: &&CellResult| {
                    c.cell.f64_value(AXIS_T) == t_max && c.cell.str_value(AXIS_ALGO) != "ERGO"
                };
                cells.iter().filter(baseline_at_t_max).cloned().collect()
            })),
            columns: vec![
                Column::axis("network", AXIS_NETWORK),
                Column::axis("baseline", AXIS_ALGO),
                Column::axis("T", AXIS_T),
                Column::new("A_baseline / A_ERGO", |r, cells| {
                    let ergo = ergo_mean(cells, r).expect("ERGO is on the Figure 8 roster");
                    fmt_num(r.get("good_rate_mean") / ergo)
                }),
            ],
        },
    ];
    let part = spend_part("figure8", &nets, &roster, &t_grid, trials_for(fast), horizon, 1);
    vec![Part { tables, ..part }]
}

fn millions_parts(fast: bool) -> Vec<Part> {
    let nets = [networks::millions(1_000_000)];
    let roster = [Algo::Ergo, Algo::CCom, Algo::SybilControl];
    let t_grid = [0.0, 64.0, 4096.0, 65_536.0];
    let tables = vec![TableSpec::per_cell("figure8_millions", columns(&nets, &roster))];
    let part = spend_part("figure8_millions", &nets, &roster, &t_grid, trials_for(fast), 500.0, 1);
    vec![Part { tables, ..part }]
}

/// The Figure 8 columns: `A/T`, and whether the algorithm's guarantee
/// covers the cell's `T` (the curve cutoffs).
fn columns(nets: &[ChurnModel], roster: &[Algo]) -> Vec<Column> {
    let relative = Column::new("A/T", |r, _| match r.cell.f64_value(AXIS_T) {
        t if t > 0.0 => fmt_num(r.get("good_rate_mean") / t),
        _ => "-".into(),
    });
    let (nets, roster) = (nets.to_vec(), roster.to_vec());
    let mut columns = spend_columns("algorithm", relative);
    columns.push(Column::new("guarantee", move |r, _| {
        let network = r.cell.str_value(AXIS_NETWORK);
        let n_good = nets.iter().find(|n| n.name == network).expect("declared network");
        let covered = algo_of(&roster, &r.cell)
            .guarantee_covers(r.cell.f64_value(AXIS_T), n_good.initial_size);
        if covered { "ok" } else { "CUT" }.into()
    }));
    columns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_report, RunParams};

    #[test]
    fn roster_matches_figure8_legend() {
        let labels: Vec<String> = roster().iter().map(|a| a.label()).collect();
        assert_eq!(labels, vec!["ERGO", "CCOM", "SybilControl", "REMP-1e7", "ERGO-SF(98)"]);
    }

    #[test]
    fn mini_sweep_produces_expected_ordering() {
        // A single heavy-attack point per algorithm on Gnutella at reduced
        // horizon: Ergo must beat CCom, and REMP must be its flat constant.
        let net = networks::gnutella();
        let params = RunParams { horizon: 300.0, ..RunParams::default() };
        let t = 20_000.0;
        let rate = |algo| run_report(&net, algo, t, params).good_spend_rate();
        let (ergo, ccom, remp) = (rate(Algo::Ergo), rate(Algo::CCom), rate(Algo::Remp(1e7)));
        assert!(ergo < ccom, "ERGO {ergo} vs CCOM {ccom}");
        // REMP charges ~Tmax/κ regardless of T.
        assert!(remp > 1e8, "REMP {remp}");
    }
}
