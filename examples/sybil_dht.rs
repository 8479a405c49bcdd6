//! Scenario: a Sybil-resistant distributed hash table (paper Section 13.2).
//!
//! Builds a Chord-style ring whose membership comes from an Ergo-defended
//! system under heavy attack, then compares routing strategies: a single
//! greedy path (dies on any Sybil hop), independent path retries
//! (saturate), and wide paths with successor-list replication (near-perfect
//! — but only because Ergo pins the Sybil fraction below 1/6).
//!
//! Run with: `cargo run --release --example sybil_dht`

use bankrupting_sybil::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sybil_dht::experiment::run_grid;
use sybil_dht::{lookup_wide, Ring};
use sybil_sim::id::Id;

fn main() {
    // --- 1. Strategy comparison on fixed Sybil fractions ---
    println!("--- lookup success rate by routing strategy (2000-node ring) ---");
    println!("{:>13} {:>10} {:>10} {:>10}", "bad fraction", "greedy-1", "paths-8", "wide-8");
    for row in run_grid(2_000, 400, 3).chunks(3) {
        let [g, p, w] = row else { unreachable!("three strategies a fraction") };
        println!(
            "{:>13.3} {:>10.3} {:>10.3} {:>10.3}",
            g.bad_fraction, g.success_rate, p.success_rate, w.success_rate
        );
    }
    println!(
        "\nwide paths only work while the Sybil fraction is bounded — \
         the bound is what Ergo provides."
    );

    // --- 2. End to end: membership from an Ergo run under attack ---
    let horizon = Time(1_500.0);
    let t = 50_000.0;
    println!(
        "\n--- DHT over an Ergo-defended membership (T = {t}/s, purge-surviving attacker) ---"
    );
    let workload = networks::gnutella().generate(horizon, 13);
    let cfg = SimConfig { horizon, adv_rate: t, ..SimConfig::default() };
    let report =
        Simulation::new(cfg, Ergo::new(ErgoConfig::default()), PurgeSurvivor::new(t), workload)
            .run();
    let n_bad = report.final_bad;
    let n_good = report.final_members - n_bad;
    println!(
        "membership after the attack: {} nodes, Sybil fraction {:.4} (bound 1/6)",
        report.final_members,
        n_bad as f64 / report.final_members as f64
    );

    let ring = Ring::from_members(
        (0..n_good).map(|i| (Id(i), false)).chain((0..n_bad).map(|i| (Id((1 << 41) | i), true))),
    );
    let mut rng = StdRng::seed_from_u64(99);
    let trials = 500;
    let ok =
        (0..trials).filter(|_| lookup_wide(&ring, rng.gen(), 8, &mut rng).is_success()).count();
    println!(
        "wide-8 lookups on that ring: {}/{} successful ({:.1}%)",
        ok,
        trials,
        100.0 * ok as f64 / trials as f64
    );
    assert!(report.max_bad_fraction < 1.0 / 6.0);
}
