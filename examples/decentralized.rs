//! Scenario: running Ergo without a server (paper Section 12).
//!
//! 1. Bootstraps the system with GenID — every participant solves a *real*
//!    SHA-256 proof-of-work challenge — and elects a `Θ(log n)` committee.
//! 2. Demonstrates the committee's synchronous SMR over authenticated
//!    channels, with Byzantine replicas trying to reject and equivocate.
//! 3. Runs the full committee-coordinated defense against an attack and
//!    verifies Theorem 4: identical costs to centralized Ergo, committee
//!    good fraction ≥ 7/8 throughout.
//!
//! Run with: `cargo run --release --example decentralized`

use bankrupting_sybil::prelude::*;
use sybil_committee::{bootstrap, ByzantineMode, DecentralConfig, DecentralizedErgo, SmrCluster};

fn main() {
    // --- 1. GenID bootstrap with real proof-of-work ---
    let n_good = 500;
    let kappa = 1.0 / 18.0;
    let work = sybil_committee::genid::solve_bootstrap_challenges(n_good, b"genesis-nonce");
    let outcome = bootstrap(n_good, kappa, 30.0, 7);
    println!("--- GenID bootstrap ---");
    println!("{} good IDs solved 1-hard PoW challenges ({} total hash units burned)", n_good, work);
    let members = outcome.n_good + outcome.n_bad;
    println!(
        "agreed set: {} members ({:.1}% Sybil, kappa bound {:.1}%)",
        members,
        outcome.n_bad as f64 / members as f64 * 100.0,
        kappa * 100.0
    );
    println!(
        "initial committee: {} seats, {:.1}% good (majority: {})",
        outcome.committee.size(),
        outcome.committee.good_fraction() * 100.0,
        outcome.committee.good_majority()
    );

    // --- 2. SMR over authenticated channels ---
    println!("\n--- committee SMR (7 honest, 2 rejecting, 1 equivocating) ---");
    let mut cluster = SmrCluster::new(
        7,
        &[ByzantineMode::RejectAll, ByzantineMode::RejectAll, ByzantineMode::Equivocate],
        b"committee-master-secret",
    );
    for event in [101u64, 102, 103, 104, 105] {
        let committed = cluster.propose(event);
        println!("  propose event {event}: committed = {committed}");
    }
    println!(
        "honest logs consistent: {} | messages exchanged: {}",
        cluster.honest_logs_consistent(),
        cluster.messages_delivered()
    );

    // --- 3. The full decentralized defense under attack ---
    println!("\n--- decentralized Ergo vs centralized, same attack (T = 20 000/s) ---");
    let horizon = Time(1_500.0);
    let t = 20_000.0;
    let workload = networks::gnutella().generate(horizon, 11);
    let cfg = SimConfig { horizon, adv_rate: t, ..SimConfig::default() };

    let (decentral_report, defense) = Simulation::new(
        cfg,
        DecentralizedErgo::new(DecentralConfig::default()),
        PurgeSurvivor::new(t),
        workload.clone(),
    )
    .run_with_defense();
    let central_report =
        Simulation::new(cfg, Ergo::new(ErgoConfig::default()), PurgeSurvivor::new(t), workload)
            .run();

    println!(
        "good spend rate: decentralized {:.1}/s vs centralized {:.1}/s (identical decisions)",
        decentral_report.good_spend_rate(),
        central_report.good_spend_rate()
    );
    println!(
        "committees elected: {} | mean size {:.0} | min good fraction {:.3} (bound 7/8 = 0.875)",
        defense.history().len(),
        defense.history().iter().map(|r| r.elected.size() as f64).sum::<f64>()
            / defense.history().len().max(1) as f64,
        defense.min_committee_good_fraction()
    );
    println!("SMR messages for event sequencing: {}", defense.messages());
    assert!(defense.min_committee_good_fraction() >= 7.0 / 8.0);
    assert!(decentral_report.max_bad_fraction < 1.0 / 6.0);
    println!("\nTheorem 4 invariants verified.");
}
