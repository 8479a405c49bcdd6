//! Experiment E3 — the paper's **Figure 10**: Ergo versus its cost-reduction
//! heuristics (Section 10.3).
//!
//! Same setup as Figure 8 — including the multi-trial, cached,
//! disk-streamed execution through `sybil-exp` — with the roster ERGO,
//! ERGO-CH1 (Heuristics 1+2), ERGO-CH2 (Heuristics 1+2+3), ERGO-SF(92),
//! and ERGO-SF(98) (Heuristics 1–4 with classifier accuracies 0.92 /
//! 0.98).
//!
//! Expected shape (paper): the classifier variants dominate for large `T`
//! (up to three orders of magnitude better than plain Ergo), with ERGO-SF
//! curves pulling further ahead as `T` grows; CH1/CH2 give modest
//! improvements concentrated at small `T` (purge-frequency effects).

use crate::figure8::sweep;
use crate::grid::{run_spend, spend_grid, trials_for, SpendSummary, TrialGrid};
use crate::sweep::{fast_mode, Algo};
use crate::table::{fmt_num, Table};
use sybil_churn::networks;

/// The Figure 10 roster.
pub fn roster() -> Vec<Algo> {
    vec![Algo::Ergo, Algo::ErgoCh1, Algo::ErgoCh2, Algo::ErgoSfFull(0.92), Algo::ErgoSfFull(0.98)]
}

/// The Figure 10 grid, declared.
pub(crate) fn grid(fast: bool) -> TrialGrid {
    let (horizon, t_grid) = sweep(fast);
    spend_grid(
        "figure10",
        &networks::all_networks(),
        &roster(),
        &t_grid,
        trials_for(fast),
        horizon,
        1,
    )
}

/// Runs the full Figure 10 sweep (multi-trial, resumable).
pub fn run() -> Vec<SpendSummary> {
    run_spend(&grid(fast_mode()), &roster()).0
}

/// Formats the sweep as the paper's per-panel series with trial means and
/// 95 % confidence bounds.
pub fn to_table(points: &[SpendSummary]) -> Table {
    let mut table = Table::new(vec![
        "network",
        "variant",
        "T",
        "trials",
        "mean",
        "ci95_lo",
        "ci95_hi",
        "vs ERGO",
        "max bad frac",
        "purges",
    ]);
    for p in points {
        let ergo_a = points
            .iter()
            .find(|q| q.network == p.network && q.t == p.t && q.algo == "ERGO")
            .map(|q| q.good_rate.mean);
        table.push(vec![
            p.network.clone(),
            p.algo.clone(),
            fmt_num(p.t),
            p.good_rate.n.to_string(),
            fmt_num(p.good_rate.mean),
            fmt_num(p.good_rate.ci95_lo),
            fmt_num(p.good_rate.ci95_hi),
            ergo_a.map_or("-".into(), |a| {
                if a > 0.0 {
                    format!("{:.2}x", p.good_rate.mean / a)
                } else {
                    "-".into()
                }
            }),
            fmt_num(p.max_bad_fraction.mean),
            fmt_num(p.purges.mean),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_point, RunParams};

    #[test]
    fn roster_matches_figure10_legend() {
        let labels: Vec<String> = roster().iter().map(|a| a.label()).collect();
        assert_eq!(labels, vec!["ERGO", "ERGO-CH1", "ERGO-CH2", "ERGO-SF(92)", "ERGO-SF(98)"]);
    }

    #[test]
    fn classifier_variant_beats_plain_ergo_under_attack() {
        let net = networks::gnutella();
        let params = RunParams { horizon: 300.0, ..RunParams::default() };
        let t = 50_000.0;
        let plain = run_point(&net, Algo::Ergo, t, params);
        let sf = run_point(&net, Algo::ErgoSfFull(0.98), t, params);
        assert!(
            sf.good_rate < plain.good_rate,
            "ERGO-SF {} vs ERGO {}",
            sf.good_rate,
            plain.good_rate
        );
        // Invariant still holds with heuristics + gate.
        assert!(sf.max_bad_fraction < 1.0 / 6.0);
    }
}
