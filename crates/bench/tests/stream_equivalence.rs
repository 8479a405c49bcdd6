//! Stream equivalence at the bench layer: the *real* paper defenses and
//! registry adversaries, not the sim crate's unit-cost stand-ins.
//!
//! The sim-crate suite (`crates/sim/tests/stream_equivalence.rs`) pins the
//! engine's event order from disk against memory; this one pins that
//! nothing in the defense stack — entrance-cost math, purge scheduling,
//! classifier gates, REMP's rate-limiting — can tell a workload replayed
//! from its file from the same workload resident. Every run is compared as
//! a full [`SimReport`] bit pattern, except the stream's own memory gauge.

use sybil_bench::sweep::{run_report_with, Algo, AlgoVisitor};
use sybil_churn::networks;
use sybil_exp::defense_seed;
use sybil_sim::adversary::{build_strategy, Adversary, StrategyParams, STRATEGY_NAMES};
use sybil_sim::defense::Defense;
use sybil_sim::engine::{SimConfig, Simulation};
use sybil_sim::time::Time;
use sybil_sim::workload_io::{write_workload_file, DiskWorkload};
use sybil_sim::{SimReport, Workload, WorkloadSource};

fn workload(horizon: f64) -> Workload {
    networks::gnutella().generate(Time(horizon), 9)
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sybil_bench_stream_eq_{tag}_{}.wkld", std::process::id()))
}

/// Memory accounting legitimately differs between the two sources (vectors
/// vs read buffers); everything else must match bit-for-bit.
fn normalized(mut report: SimReport) -> SimReport {
    report.workload_stream_bytes = 0;
    report
}

/// Every Figure-8/10 roster defense under a `BudgetJoiner` adversary.
#[test]
fn every_roster_defense_replays_identically_from_disk() {
    let horizon = 120.0;
    let w = workload(horizon);
    let path = temp_path("defenses");
    write_workload_file(&path, &w).expect("write workload");
    let t = 512.0;
    let cfg = SimConfig { horizon: Time(horizon), adv_rate: t, ..SimConfig::default() };
    let roster = [
        Algo::Ergo,
        Algo::CCom,
        Algo::SybilControl,
        Algo::Remp(1e7),
        Algo::ErgoSf(0.95),
        Algo::ErgoCh1,
        Algo::ErgoCh2,
        Algo::ErgoSfFull(0.95),
    ];
    for algo in roster {
        let mem = run_report_with(cfg, algo, t, defense_seed(1), w.clone());
        let disk = DiskWorkload::open(&path).expect("open workload");
        let dsk = run_report_with(cfg, algo, t, defense_seed(1), disk);
        assert_eq!(normalized(mem), normalized(dsk), "{}", algo.label());
    }
    std::fs::remove_file(&path).ok();
}

/// Every registered attack strategy against Ergo.
#[test]
fn every_registry_strategy_replays_identically_from_disk_under_ergo() {
    struct Runner<W> {
        cfg: SimConfig,
        adversary: Box<dyn Adversary>,
        source: W,
    }
    impl<W: WorkloadSource> AlgoVisitor for Runner<W> {
        type Out = SimReport;
        fn visit<D: Defense + 'static>(self, defense: D) -> SimReport {
            Simulation::new(self.cfg, defense, self.adversary, self.source).run()
        }
    }

    let horizon = 100.0;
    let w = workload(horizon);
    let path = temp_path("strategies");
    write_workload_file(&path, &w).expect("write workload");
    let t = 64.0;
    let cfg = SimConfig { horizon: Time(horizon), adv_rate: t, ..SimConfig::default() };
    let params = StrategyParams::rate(t).with_target_fraction(0.25).with_seed(5);
    for strategy in STRATEGY_NAMES {
        let adversary = || build_strategy(strategy, &params).expect("registry strategy");
        let mem = Algo::Ergo
            .dispatch(defense_seed(2), Runner { cfg, adversary: adversary(), source: w.clone() });
        let disk = DiskWorkload::open(&path).expect("open workload");
        let dsk = Algo::Ergo
            .dispatch(defense_seed(2), Runner { cfg, adversary: adversary(), source: disk });
        assert_eq!(normalized(mem), normalized(dsk), "{strategy}");
    }
    std::fs::remove_file(&path).ok();
}
