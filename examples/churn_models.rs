//! Scenario: exploring the ABC churn model (paper Sections 2.1, 4, 5).
//!
//! Generates traces with prescribed `(α, β)` smoothness, detects their
//! epochs, and measures empirical `α`/`β` back; then characterizes the four
//! evaluation networks' churn — epochs, rates, smoothness, and the
//! Liben-Nowell half-life the paper compares epochs against.
//!
//! Run with: `cargo run --release --example churn_models`

use bankrupting_sybil::prelude::*;
use sybil_churn::abc::{detect_epochs, estimate_beta, measure_alpha};
use sybil_churn::halflife::half_life_from;

fn main() {
    // --- 1. Synthetic ABC traces: generate with (α, β), measure them back ---
    println!("--- ABC trace generation: configured vs measured smoothness ---");
    println!(
        "{:>8} {:>8} {:>10} {:>12} {:>12}",
        "alpha", "beta", "epochs", "alpha (meas)", "beta (meas)"
    );
    for (alpha, beta) in [(1.0, 1.0), (2.0, 1.0), (2.0, 4.0), (4.0, 8.0)] {
        let gen = AbcTraceGenerator { n0: 600, rho0: 3.0, alpha, beta, epochs: 8 };
        let workload = gen.generate(17);
        // Analyze up to the last generated arrival (members that never
        // depart get a sentinel departure far beyond this).
        let horizon = workload.sessions.last().map_or(Time(1.0), |s| s.join + 1.0);
        let epochs = detect_epochs(&workload, horizon, (1, 2));
        let a = measure_alpha(&epochs);
        let b = estimate_beta(&workload, &epochs, horizon);
        println!("{alpha:>8.1} {beta:>8.1} {:>10} {a:>12.2} {b:>12.2}", epochs.len());
    }
    println!(
        "\n(α permits exponential rate drift across epochs — a factor-2 α compounds \
         to 2^k over k epochs; β bounds within-epoch burstiness.)"
    );

    // --- 2. The four evaluation networks ---
    println!("\n--- churn characteristics of the evaluation networks (5 000 s) ---");
    println!(
        "{:>11} {:>8} {:>9} {:>8} {:>10} {:>10} {:>12}",
        "network", "epochs", "rho(avg)", "alpha", "beta(est)", "hl (t=0)", "epoch 1 len"
    );
    let horizon = Time(5_000.0);
    for net in networks::all_networks() {
        let workload = net.generate(horizon, 3);
        let epochs = detect_epochs(&workload, horizon, (1, 2));
        let alpha = measure_alpha(&epochs);
        let beta = estimate_beta(&workload, &epochs, horizon);
        let rho_avg = if epochs.is_empty() {
            // The join rate over the whole horizon.
            let joins = workload.sessions.iter().filter(|s| s.join < horizon).count();
            joins as f64 / horizon.as_secs()
        } else {
            epochs.iter().map(Epoch::rho).sum::<f64>() / epochs.len() as f64
        };
        let hl = half_life_from(&workload, Time::ZERO, horizon).value();
        println!(
            "{:>11} {:>8} {:>9.2} {:>8.2} {:>10.2} {:>10} {:>12}",
            net.name,
            epochs.len(),
            rho_avg,
            alpha,
            beta,
            hl.map_or("> horizon".into(), |v| format!("{v:.0}s")),
            epochs.first().map_or("-".into(), |e| format!("{:.0}s", e.len())),
        );
    }

    // --- 3. Epoch vs half-life (paper Section 4.2) ---
    println!("\n--- at least one epoch per half-life (Gnutella) ---");
    let workload = networks::gnutella().generate(horizon, 9);
    let epochs = detect_epochs(&workload, horizon, (1, 2));
    let hl = half_life_from(&workload, Time::ZERO, horizon);
    match hl.value() {
        Some(v) => {
            let epochs_within = epochs.iter().filter(|e| e.end.as_secs() <= v).count();
            println!(
                "half-life from t=0: {v:.0}s | epochs ending within it: {epochs_within} (theory: >= 1)"
            );
        }
        None => println!("half-life not reached within the horizon"),
    }
}

use sybil_churn::Epoch;
