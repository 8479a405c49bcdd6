//! Closed-form purge cycles against the loop they stand in for.
//!
//! Every config runs twice: as is, and with its adversary behind
//! [`Looped`], which answers `false` to `stationary_within_instant` and so
//! makes the engine run every batch→purge cycle itself. The two runs must
//! agree on the whole `SimReport` except `purges_collapsed`, its timeline
//! sampled every 0.01 s included, and on the final defense's `Debug` text.

use std::fmt::Debug;

use ergo_core::ergo::Ergo;
use ergo_core::params::{EntrancePolicy, ErgoConfig, Ratio};
use sybil_churn::networks;
use sybil_defenses as defs;
use sybil_sim::adversary::{
    build_strategy, Adversary, AdversaryAction, BudgetJoiner, BurstJoiner, DefenseView,
    StrategyParams, STRATEGY_CHURN_FORCE, STRATEGY_FRACTION_KEEP, STRATEGY_PURGE_SURVIVE,
};
use sybil_sim::cost::Cost;
use sybil_sim::defense::Defense;
use sybil_sim::engine::{SimConfig, Simulation};
use sybil_sim::time::Time;
use sybil_sim::workload::{Session, Workload};
use sybil_sim::SimReport;

/// Forwards everything to the strategy inside except
/// `stationary_within_instant`, which keeps its default `false`.
struct Looped<A>(A);

impl<A: Adversary> Adversary for Looped<A> {
    fn name(&self) -> String {
        self.0.name()
    }
    fn next_wakeup(&self, now: Time) -> Option<Time> {
        self.0.next_wakeup(now)
    }
    fn needs_quote(&self) -> bool {
        self.0.needs_quote()
    }
    fn act(&mut self, view: &DefenseView, budget: Cost) -> AdversaryAction {
        self.0.act(view, budget)
    }
    fn purge_retention(&mut self, view: &DefenseView, cap: u64, budget: Cost) -> u64 {
        self.0.purge_retention(view, cap, budget)
    }
    fn periodic_retention(&mut self, view: &DefenseView, cost_per_id: Cost, budget: Cost) -> u64 {
        self.0.periodic_retention(view, cost_per_id, budget)
    }
}

/// Equal but for `purges_collapsed`; timelines compared point by point so
/// a failure names the first sample that differs.
fn assert_same(what: &str, mut fast: SimReport, mut slow: SimReport) {
    assert_eq!(slow.purges_collapsed, 0, "{what}: the looped run collapsed purges");
    fast.purges_collapsed = 0;
    let (fast_line, slow_line) =
        (std::mem::take(&mut fast.timeline), std::mem::take(&mut slow.timeline));
    assert_eq!(fast, slow, "{what}");
    let first =
        (0..fast_line.len().max(slow_line.len())).find(|&i| fast_line.get(i) != slow_line.get(i));
    if let Some(i) = first {
        panic!(
            "{what}: timelines differ at sample {i}: {:?} vs {:?}",
            fast_line.get(i),
            slow_line.get(i)
        );
    }
}

/// Runs `cfg` both ways, sampling the timeline, and returns the report of
/// the run as is.
fn both_ways<D: Defense + Debug, A: Adversary>(
    what: &str,
    cfg: SimConfig,
    defense: impl Fn() -> D,
    adversary: impl Fn() -> A,
    workload: &Workload,
) -> SimReport {
    let cfg = SimConfig { timeline_resolution: Some(0.01), ..cfg };
    let (fast, fast_defense) =
        Simulation::new(cfg, defense(), adversary(), workload.clone()).run_with_defense();
    let (slow, slow_defense) =
        Simulation::new(cfg, defense(), Looped(adversary()), workload.clone()).run_with_defense();
    assert_eq!(format!("{fast_defense:?}"), format!("{slow_defense:?}"), "{what}: defense");
    assert_same(what, fast.clone(), slow);
    fast
}

fn attack(horizon: f64, t: f64) -> SimConfig {
    SimConfig { horizon: Time(horizon), adv_rate: t, ..SimConfig::default() }
}

/// 150 residents, 30 of them leaving over the first 10 s, and a session
/// every 0.37 s.
fn synthetic() -> Workload {
    let initial =
        (0..150).map(|i| Time(if i < 30 { 2.0 + 0.25 * i as f64 } else { 1e9 })).collect();
    let sessions = (0..30)
        .map(|i| Session::new(Time(0.37 * i as f64), Time(0.37 * i as f64 + 4.0 + (i % 7) as f64)))
        .collect();
    Workload::new(initial, sessions)
}

/// The `(horizon, T)` pairs each workload runs at: `2³⁰` only briefly,
/// since there every turn runs the full 100 000 rounds one at a time on
/// the looped side.
fn rates(horizon: f64) -> [(f64, f64); 4] {
    [(horizon, 1024.0), (horizon, 32_768.0), (horizon, 1_048_576.0), (0.025, 1_073_741_824.0)]
}

/// CCom and Ergo over a workload at every rate: `(defense, T, report)`.
fn ccom_and_ergo(
    name: &str,
    workload: &Workload,
    horizon: f64,
) -> Vec<(&'static str, f64, SimReport)> {
    let mut reports = Vec::new();
    for (algo, defense) in [("CCOM", defs::ccom as fn() -> Ergo), ("ERGO", defs::ergo)] {
        for (horizon, t) in rates(horizon) {
            let what = format!("{name} {algo} T={t}");
            let r =
                both_ways(&what, attack(horizon, t), defense, || BudgetJoiner::new(t), workload);
            reports.push((algo, t, r));
        }
    }
    reports
}

/// Both defenses collapse at `2²⁰` and up, and at `2³⁰` turns run out of
/// rounds on both sides alike.
#[test]
fn a_synthetic_workload_reads_the_same_both_ways() {
    for (algo, t, r) in ccom_and_ergo("synthetic", &synthetic(), 10.0) {
        assert!(t < 1e6 || r.purges_collapsed > 0, "{algo} T={t}");
        assert_eq!(r.adversary_turn_truncations > 0, t > 1e9, "{algo} T={t}");
    }
}

#[test]
fn the_four_networks_read_the_same_both_ways() {
    for net in networks::all_networks() {
        // Figure 8's FAST horizon.
        let reports = ccom_and_ergo(net.name, &net.generate(Time(500.0), 1), 500.0);
        for (algo, t, r) in reports {
            let cascades = t > 1e9 || (algo == "CCOM" && t > 1e6);
            assert!(!cascades || r.purges_collapsed > 0, "{} {algo} T={t}", net.name);
        }
    }
}

/// Initial Sybils, a constant entrance of 1.37 (each batch's spend rounds
/// in the budget, which runs out partway through a batch at every turn's
/// end), and interval thresholds at which a Sybil batch ends GoodJEst's
/// interval inside a cascade, so the cycle after it is the interval-start
/// tie.
#[test]
fn initial_sybils_odd_costs_and_rolls_inside_a_cascade_read_the_same_both_ways() {
    let (w, t) = (synthetic(), 1_048_576.0);
    let budget = || BudgetJoiner::new(t);
    let seeded = SimConfig { initial_bad: 7, ..attack(10.0, t) };
    for (algo, defense) in [("CCOM", defs::ccom as fn() -> Ergo), ("ERGO", defs::ergo)] {
        let r = both_ways(&format!("{algo} with initial Sybils"), seeded, defense, budget, &w);
        assert!(r.purges_collapsed > 0);
    }
    let odd =
        || Ergo::new(ErgoConfig { entrance: EntrancePolicy::Constant(1.37), ..ErgoConfig::ccom() });
    assert!(both_ways("constant 1.37", attack(10.0, t), odd, budget, &w).purges_collapsed > 0);
    for den in [12, 20] {
        for base in [ErgoConfig::ccom(), ErgoConfig::default()] {
            let mut cfg = base;
            cfg.estimator.interval_threshold = Ratio::new(1, den);
            let what = format!("{:?} at interval threshold 1/{den}", cfg.entrance);
            let r = both_ways(&what, attack(10.0, t), || Ergo::new(cfg), budget, &w);
            assert!(r.estimates.len() > 100, "{what}: {} intervals", r.estimates.len());
            assert!(r.purges_collapsed > 0, "{what}");
        }
    }
}

#[test]
fn burst_joiner_reads_the_same_both_ways() {
    let w = synthetic();
    let t = 1_048_576.0;
    let r = both_ways("burst", attack(10.0, t), defs::ccom, || BurstJoiner::new(t, 0.7), &w);
    assert!(r.purges_collapsed > 0);
}

/// Where the engine must not call the closed form, or the defense must
/// decline: purge rounds that take time, a classifier gate, Heuristics
/// 1–3, and strategies that read the view, keep Sybil IDs or depart.
#[test]
fn nothing_collapses_where_a_cycle_is_not_provably_repeated() {
    let (w, t) = (synthetic(), 1_048_576.0);
    let budget = || BudgetJoiner::new(t);
    let timed = SimConfig { round_duration: 0.5, ..attack(10.0, t) };
    let r = both_ways("CCOM, 0.5 s rounds", timed, defs::ccom, budget, &w);
    assert_eq!(r.purges_collapsed, 0);
    let gated = [
        ("ERGO-SF", (|| defs::ergo_sf(0.98, 5)) as fn() -> Ergo),
        ("ERGO-CH1", defs::ergo_ch1),
        ("ERGO-CH2", defs::ergo_ch2),
    ];
    for (name, defense) in gated {
        assert_eq!(both_ways(name, attack(10.0, t), defense, budget, &w).purges_collapsed, 0);
    }
    let params = StrategyParams::rate(t).with_target_fraction(0.1);
    for strategy in [STRATEGY_CHURN_FORCE, STRATEGY_PURGE_SURVIVE, STRATEGY_FRACTION_KEEP] {
        let adversary = || build_strategy(strategy, &params).expect("registry strategy");
        let r = both_ways(strategy, attack(10.0, t), defs::ccom, adversary, &w);
        assert_eq!(r.purges_collapsed, 0, "{strategy}");
    }
}

/// Strategies and defenses built behind boxes keep the closed form.
#[test]
fn boxed_strategies_and_defenses_forward_the_closed_form() {
    let (w, t) = (synthetic(), 1_048_576.0);
    let cfg = attack(10.0, t);
    let concrete = Simulation::new(cfg, defs::ccom(), BudgetJoiner::new(t), w.clone()).run();
    let boxed: Box<dyn Defense> = Box::new(defs::ccom());
    let strategy = build_strategy("budget", &StrategyParams::rate(t)).expect("registry strategy");
    let through_boxes = Simulation::new(cfg, boxed, strategy, w).run();
    assert!(concrete.purges_collapsed > 0);
    assert_eq!(through_boxes, concrete);
}
