//! Shard equivalence at the bench layer: the *real* paper defenses and
//! registry adversaries, not the sim crate's unit-cost stand-ins.
//!
//! The sim-crate suite (`crates/sim/tests/shard_equivalence.rs`) pins the
//! engine's merge order; this one pins that nothing in the defense stack
//! — entrance-cost math, purge scheduling, classifier gates, REMP's
//! rate-limiting — observes the shard count either. Every run is compared
//! as a full [`SimReport`] bit pattern across S ∈ {1, 2, 3, 5, 7, 16, 32},
//! in memory and disk-streamed.

use sybil_bench::sweep::{run_report_with, Algo, AlgoVisitor};
use sybil_churn::networks;
use sybil_exp::defense_seed;
use sybil_sim::adversary::{build_strategy, Adversary, StrategyParams, STRATEGY_NAMES};
use sybil_sim::defense::Defense;
use sybil_sim::engine::{SimConfig, Simulation};
use sybil_sim::time::Time;
use sybil_sim::workload_io::{write_workload_file, DiskWorkload};
use sybil_sim::{ShardedWorkload, SimReport, Workload};

/// The shard counts the acceptance criteria pin. 5 and 32 exercise the
/// sharded defense state (per-shard admission slices and ledgers); a
/// prime-heavy set against the generated gnutella trace guarantees
/// non-divisor (ragged-slice) layouts at several scales.
const SHARD_COUNTS: [usize; 7] = [1, 2, 3, 5, 7, 16, 32];

fn workload(horizon: f64) -> Workload {
    networks::gnutella().generate(Time(horizon), 9)
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sybil_bench_shard_eq_{tag}_{}.wkld", std::process::id()))
}

/// Every Figure-8/10 roster defense, BudgetJoiner adversary, S-invariant.
#[test]
fn real_defenses_are_shard_invariant() {
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
        let run = |source: ShardedWorkload| run_report_with(cfg, algo, t, defense_seed(1), source);
        let baseline = run(ShardedWorkload::from_workload(w.clone(), 1));
        for shards in SHARD_COUNTS {
            let mem = run(ShardedWorkload::from_workload(w.clone(), shards));
            assert_eq!(mem, baseline, "{}: memory, {shards} shards", algo.label());
            let disk = DiskWorkload::open(&path).expect("open workload");
            let dsk = run(ShardedWorkload::from_disk(disk, shards));
            assert_eq!(dsk, baseline, "{}: disk, {shards} shards", algo.label());
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Every registered attack strategy against a real defense, S-invariant.
#[test]
fn registry_strategies_are_shard_invariant_under_a_real_defense() {
    struct Runner {
        cfg: SimConfig,
        adversary: Box<dyn Adversary>,
        source: ShardedWorkload,
    }
    impl AlgoVisitor for Runner {
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
        let run = |source: ShardedWorkload| {
            let adversary = build_strategy(strategy, &params).expect("registry strategy");
            Algo::Ergo.dispatch(defense_seed(2), Runner { cfg, adversary, source })
        };
        let baseline = run(ShardedWorkload::from_workload(w.clone(), 1));
        for shards in SHARD_COUNTS {
            let mem = run(ShardedWorkload::from_workload(w.clone(), shards));
            assert_eq!(mem, baseline, "{strategy}: memory, {shards} shards");
            let disk = DiskWorkload::open(&path).expect("open workload");
            let dsk = run(ShardedWorkload::from_disk(disk, shards));
            assert_eq!(dsk, baseline, "{strategy}: disk, {shards} shards");
        }
    }
    std::fs::remove_file(&path).ok();
}
