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

use crate::grid::{run_spend, run_spend_grid, spend_grid, trials_for, SpendSummary, TrialGrid};
use crate::sweep::{fast_mode, t_grid, Algo};
use crate::table::{fmt_num, Table};
use sybil_churn::networks;

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

/// The Figure 8 grid, declared.
pub(crate) fn grid(fast: bool) -> TrialGrid {
    let (horizon, t_grid) = sweep(fast);
    spend_grid(
        "figure8",
        &networks::all_networks(),
        &roster(),
        &t_grid,
        trials_for(fast),
        horizon,
        1,
    )
}

/// Runs the full Figure 8 sweep (multi-trial, cached disk-streamed
/// workloads, resumable) and returns the aggregated cells.
pub fn run() -> Vec<SpendSummary> {
    run_spend(&grid(fast_mode()), &roster()).0
}

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
///
/// Returns the run summary too, so the `exp_millions` bin can exit
/// nonzero when cells were quarantined.
pub fn run_millions() -> (Vec<SpendSummary>, sybil_exp::RunSummary) {
    run_spend_grid(
        "figure8_millions",
        &[networks::millions(1_000_000)],
        &[Algo::Ergo, Algo::CCom, Algo::SybilControl],
        &[0.0, 64.0, 4096.0, 65_536.0],
        trials_for(fast_mode()),
        500.0,
        1,
    )
}

/// Formats the cells as the per-network series the paper plots, with the
/// trial mean and 95 % confidence bounds for `A`.
pub fn to_table(points: &[SpendSummary]) -> Table {
    let mut table = Table::new(vec![
        "network",
        "algorithm",
        "T",
        "trials",
        "mean",
        "ci95_lo",
        "ci95_hi",
        "A/T",
        "max bad frac",
        "purges",
        "guarantee",
    ]);
    for p in points {
        table.push(vec![
            p.network.clone(),
            p.algo.clone(),
            fmt_num(p.t),
            p.good_rate.n.to_string(),
            fmt_num(p.good_rate.mean),
            fmt_num(p.good_rate.ci95_lo),
            fmt_num(p.good_rate.ci95_hi),
            if p.t > 0.0 { fmt_num(p.good_rate.mean / p.t) } else { "-".into() },
            fmt_num(p.max_bad_fraction.mean),
            fmt_num(p.purges.mean),
            if p.guarantee { "ok".into() } else { "CUT".to_string() },
        ]);
    }
    table
}

/// The headline comparison: each baseline's spend relative to Ergo at the
/// largest attack, per network (the paper reports "up to 2 orders of
/// magnitude better", and 3 with the classifier). Ratios compare trial
/// means.
pub fn improvement_summary(points: &[SpendSummary]) -> Table {
    let mut table = Table::new(vec!["network", "baseline", "T", "A_baseline / A_ERGO"]);
    let t_max = points.iter().map(|p| p.t).fold(0.0, f64::max);
    for net in networks::all_networks() {
        let ergo_a = points
            .iter()
            .find(|p| p.network == net.name && p.algo == "ERGO" && p.t == t_max)
            .map(|p| p.good_rate.mean);
        let Some(ergo_a) = ergo_a else { continue };
        for p in points {
            if p.network == net.name && p.t == t_max && p.algo != "ERGO" {
                table.push(vec![
                    p.network.clone(),
                    p.algo.clone(),
                    fmt_num(p.t),
                    fmt_num(p.good_rate.mean / ergo_a),
                ]);
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_point, RunParams};

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
        let ergo = run_point(&net, Algo::Ergo, t, params);
        let ccom = run_point(&net, Algo::CCom, t, params);
        let remp = run_point(&net, Algo::Remp(1e7), t, params);
        assert!(
            ergo.good_rate < ccom.good_rate,
            "ERGO {} vs CCOM {}",
            ergo.good_rate,
            ccom.good_rate
        );
        // REMP charges ~Tmax/κ regardless of T.
        assert!(remp.good_rate > 1e8, "REMP {}", remp.good_rate);
    }
}
