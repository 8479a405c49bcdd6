//! What the engine does with a strategy's purge retention: it clamps it to
//! the `κ` cap and to the Sybil IDs present, and charges 1 per retained ID
//! whatever the budget holds. `FractionKeeper`'s funded top-ups rely on
//! that (Figure 9 holds a Sybil fraction, not a spend rate). A clamp to the
//! budget would move decisions, so it is a deliberate change to this test.

use ergo_core::ergo::Ergo;
use ergo_core::params::ErgoConfig;
use sybil_sim::adversary::FractionKeeper;
use sybil_sim::cost::Cost;
use sybil_sim::engine::{SimConfig, Simulation};
use sybil_sim::time::Time;
use sybil_sim::workload::{Session, Workload};

#[test]
fn purge_retention_is_clamped_to_the_cap_and_not_to_the_budget() {
    // 200 residents and 10 initial Sybils; 100 good joins end four
    // iterations (at 20, 21, 23 and 25 joins, as |S|/11 grows).
    let sessions = (0..100).map(|i| Session::new(Time(1.0 + 0.1 * i as f64), Time(1e9))).collect();
    let workload = Workload::new(vec![Time(1e9); 200], sessions);
    // No spend rate: the budget is 0 throughout.
    let cfg = SimConfig { horizon: Time(50.0), initial_bad: 10, ..SimConfig::default() };
    let keeper = FractionKeeper::new(0.25, 0.0);
    let report = Simulation::new(cfg, Ergo::new(ErgoConfig::ccom()), keeper, workload).run();
    assert_eq!(report.purges, 4);
    // The keeper asks for a quarter; each purge keeps all 10, under a cap
    // of ⌊(200 + good joins + 10)/18⌋ ≥ 12, and pays 10 it never had.
    assert_eq!(report.final_bad, 10);
    assert_eq!(report.ledger.adversary_purge(), Cost(40.0));
    assert_eq!(report.ledger.adversary_entrance(), Cost(10.0));
}
