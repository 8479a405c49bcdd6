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

use crate::experiment::{Column, Experiment, Part, TableSpec};
use crate::figure8::sweep;
use crate::grid::{ergo_mean, spend_columns, spend_part, trials_for};
use crate::sweep::Algo;
use sybil_churn::networks;

/// Figure 10, declared.
pub const EXPERIMENT: Experiment = Experiment {
    name: "figure10",
    banner: "=== Figure 10: Ergo heuristics (Section 10.3) ===",
    parts,
};

/// The Figure 10 roster.
pub fn roster() -> Vec<Algo> {
    vec![Algo::Ergo, Algo::ErgoCh1, Algo::ErgoCh2, Algo::ErgoSfFull(0.92), Algo::ErgoSfFull(0.98)]
}

fn parts(fast: bool) -> Vec<Part> {
    let (horizon, t_grid) = sweep(fast);
    let vs_ergo = Column::new("vs ERGO", |r, cells| match ergo_mean(cells, r) {
        Some(ergo) if ergo > 0.0 => format!("{:.2}x", r.get("good_rate_mean") / ergo),
        _ => "-".into(),
    });
    let tables = vec![TableSpec::per_cell("figure10", spend_columns("variant", vs_ergo))];
    let nets = networks::all_networks();
    let part = spend_part("figure10", &nets, &roster(), &t_grid, trials_for(fast), horizon, 1);
    vec![Part { tables, ..part }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_report, RunParams};

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
        let plain = run_report(&net, Algo::Ergo, t, params);
        let sf = run_report(&net, Algo::ErgoSfFull(0.98), t, params);
        assert!(
            sf.good_spend_rate() < plain.good_spend_rate(),
            "ERGO-SF {} vs ERGO {}",
            sf.good_spend_rate(),
            plain.good_spend_rate()
        );
        // Invariant still holds with heuristics + gate.
        assert!(sf.max_bad_fraction < 1.0 / 6.0);
    }
}
