//! Property test: the disk-streaming workload path replays bit-identical
//! `SimReport`s to the in-memory path.
//!
//! Randomized (seeded-loop) workloads stress exactly the places the two
//! paths could diverge:
//!
//! * duplicate join times (FIFO tie-breaking through the eager-equivalent
//!   sequence numbering),
//! * sessions straddling the horizon (join inside, depart outside),
//! * sessions entirely past the horizon,
//! * initial departures on both sides of the horizon, with ties,
//! * ties between workload events and dynamic events (adversary wakeups
//!   and timeline samples land on the same coarse time grid),
//! * ties between initial departures and session joins or departures —
//!   the one place the two sources number differently,
//! * every registry strategy, whose float accumulation order (budget
//!   accrual partitions sums at every event pop) any reordering shows in,
//! * workloads with nothing or almost nothing in them.

use ergo_core::{Ergo, ErgoConfig};
use sybil_sim::adversary::{
    build_strategy, BudgetJoiner, NullAdversary, StrategyParams, STRATEGY_NAMES,
};
use sybil_sim::engine::{SimConfig, Simulation};
use sybil_sim::testutil::UnitCostDefense;
use sybil_sim::time::Time;
use sybil_sim::workload::{Session, Workload};
use sybil_sim::workload_io::{write_workload_file, DiskWorkload};
use sybil_sim::SimReport;

/// SplitMix64: a tiny deterministic generator for the trial workloads.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A randomized workload on a coarse 0.5 s time grid (guaranteeing
/// duplicate join times and collisions with integer-time dynamic events),
/// with roughly a third of sessions and initial departures straddling or
/// exceeding the horizon.
fn random_workload(seed: u64, horizon: f64) -> Workload {
    let mut s = seed;
    let grid = |r: u64, span: f64| (r % (span * 2.0) as u64) as f64 * 0.5;
    let n_initial = 5 + (splitmix(&mut s) % 40) as usize;
    let initial: Vec<Time> =
        (0..n_initial).map(|_| Time(grid(splitmix(&mut s), horizon * 1.5))).collect();
    let n_sessions = 10 + (splitmix(&mut s) % 60) as usize;
    let sessions: Vec<Session> = (0..n_sessions)
        .map(|_| {
            let join = grid(splitmix(&mut s), horizon * 1.2);
            let len = grid(splitmix(&mut s), horizon);
            Session::new(Time(join), Time(join + len))
        })
        .collect();
    Workload::new(initial, sessions)
}

fn temp_path(tag: &str, n: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sybil_stream_eq_{tag}_{}_{n}.bin", std::process::id()))
}

/// Memory accounting legitimately differs between the two sources (vectors
/// vs read buffers); everything else must match bit-for-bit.
fn normalized(mut report: SimReport) -> SimReport {
    report.workload_stream_bytes = 0;
    report
}

#[test]
fn disk_replay_is_bit_identical_to_memory_replay() {
    let horizon = 50.0;
    for trial in 0..25u64 {
        let workload = random_workload(trial.wrapping_mul(0x5DEE_CE66).wrapping_add(3), horizon);
        workload.validate().expect("generated workload is valid");
        let path = temp_path("budget", trial);
        write_workload_file(&path, &workload).expect("write workload");
        let disk = DiskWorkload::open(&path).expect("open workload");

        // An attacking run: budget accrual partitions float sums at every
        // event pop, so any ordering difference shows up in the ledger.
        let cfg = SimConfig {
            horizon: Time(horizon),
            adv_rate: 3.0,
            initial_bad: 2,
            record_good_joins: true,
            timeline_resolution: Some(1.0),
            ..SimConfig::default()
        };
        let mem =
            Simulation::new(cfg, UnitCostDefense::new(), BudgetJoiner::new(3.0), workload.clone())
                .run();
        let dsk = Simulation::new(cfg, UnitCostDefense::new(), BudgetJoiner::new(3.0), disk).run();
        assert_eq!(normalized(mem), normalized(dsk), "trial {trial}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn disk_replay_matches_under_truncated_recording() {
    // The recorded series (timeline samples, good join times) must be
    // identical across sources too.
    let horizon = 80.0;
    for trial in 0..10u64 {
        let workload = random_workload(trial.wrapping_mul(0xA5A5).wrapping_add(17), horizon);
        let path = temp_path("caps", trial);
        write_workload_file(&path, &workload).expect("write workload");
        let disk = DiskWorkload::open(&path).expect("open workload");

        let cfg = SimConfig {
            horizon: Time(horizon),
            record_good_joins: true,
            timeline_resolution: Some(0.5),
            ..SimConfig::default()
        };
        let mem =
            Simulation::new(cfg, UnitCostDefense::new(), NullAdversary, workload.clone()).run();
        let dsk = Simulation::new(cfg, UnitCostDefense::new(), NullAdversary, disk).run();
        assert!(!mem.timeline.is_empty());
        assert_eq!(normalized(mem), normalized(dsk), "trial {trial}");
        std::fs::remove_file(&path).ok();
    }
}

/// Initial departures are the only events whose sequence numbers differ
/// between the sources (the disk stream numbers them from
/// `2·session_count`, memory from the last session seq). Whole-second
/// times make every initial departure share its instant with session
/// joins and session departures, so a disk numbering that put an initial
/// departure before a session event of the same instant would reorder
/// them. Under Ergo the order matters: a departure counts towards the
/// purge trigger and moves GoodJEst, both of which price the next join.
#[test]
fn initial_departures_tying_with_session_events_replay_identically() {
    let horizon = 40.0;
    for trial in 0..8u64 {
        let mut s = trial.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(5);
        let whole = |s: &mut u64, span: u64| (splitmix(s) % span) as f64;
        let initial: Vec<Time> = (0..80).map(|_| Time(1.0 + whole(&mut s, 45))).collect();
        let sessions: Vec<Session> = (0..120)
            .map(|_| {
                let join = whole(&mut s, 42);
                Session::new(Time(join), Time(join + 1.0 + whole(&mut s, 12)))
            })
            .collect();
        let workload = Workload::new(initial, sessions);
        let path = temp_path("initial_ties", trial);
        write_workload_file(&path, &workload).expect("write workload");
        let disk = DiskWorkload::open(&path).expect("open workload");

        let cfg = SimConfig {
            horizon: Time(horizon),
            adv_rate: 20.0,
            timeline_resolution: Some(1.0),
            ..SimConfig::default()
        };
        let ergo = || Ergo::new(ErgoConfig::default());
        let mem = Simulation::new(cfg, ergo(), BudgetJoiner::new(20.0), workload.clone()).run();
        let dsk = Simulation::new(cfg, ergo(), BudgetJoiner::new(20.0), disk).run();
        assert!(mem.good_departures > 40 && mem.purges > 0, "trial {trial}: {mem:?}");
        assert_eq!(normalized(mem), normalized(dsk), "trial {trial}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn heavy_tie_workload_replays_identically() {
    // Worst-case FIFO stress: every session joins at one of two times and
    // several depart at the exact horizon.
    let horizon = 10.0;
    let sessions: Vec<Session> = (0..40)
        .map(|i| {
            let join = if i % 2 == 0 { 2.0 } else { 5.0 };
            let depart = match i % 4 {
                0 => 5.0,            // ties with the other join wave
                1 => horizon,        // departs exactly at the horizon
                2 => horizon + 50.0, // straddles the horizon
                _ => 7.5,
            };
            Session::new(Time(join), Time(depart))
        })
        .collect();
    let workload = Workload::new(vec![Time(2.0); 10], sessions);
    let path = temp_path("ties", 0);
    write_workload_file(&path, &workload).expect("write workload");
    let disk = DiskWorkload::open(&path).expect("open workload");

    let cfg = SimConfig { horizon: Time(horizon), adv_rate: 1.0, ..SimConfig::default() };
    let mem =
        Simulation::new(cfg, UnitCostDefense::new(), BudgetJoiner::new(1.0), workload.clone())
            .run();
    let dsk = Simulation::new(cfg, UnitCostDefense::new(), BudgetJoiner::new(1.0), disk).run();
    // Sanity: the tie storm actually processed events.
    assert!(mem.good_joins_admitted + mem.good_joins_refused == 40);
    assert!(mem.good_departures > 10);
    assert_eq!(normalized(mem), normalized(dsk));
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_registry_strategy_replays_identically_from_disk() {
    let horizon = 60.0;
    let workload = random_workload(0xBEEF, horizon);
    let path = temp_path("strategies", 0);
    write_workload_file(&path, &workload).expect("write workload");
    let t = 5.0;
    let cfg = SimConfig {
        horizon: Time(horizon),
        adv_rate: t,
        initial_bad: 3,
        timeline_resolution: Some(2.0),
        ..SimConfig::default()
    };
    let params = StrategyParams::rate(t).with_target_fraction(0.2).with_seed(11);
    for strategy in STRATEGY_NAMES {
        let adversary = || build_strategy(strategy, &params).expect("registry strategy");
        let mem = Simulation::new(cfg, UnitCostDefense::new(), adversary(), workload.clone()).run();
        let disk = DiskWorkload::open(&path).expect("open workload");
        let dsk = Simulation::new(cfg, UnitCostDefense::new(), adversary(), disk).run();
        assert_eq!(normalized(mem), normalized(dsk), "{strategy}");
    }
    std::fs::remove_file(&path).ok();
}

/// Nothing, one event, and events exactly at the horizon (which is inside
/// the run: a stream that stopped short of it would drop them).
#[test]
fn empty_and_tiny_workloads_replay_identically_from_disk() {
    let horizon = Time(10.0);
    let cases = [
        Workload::default(),
        Workload::new(vec![Time(1.0)], vec![]),
        Workload::new(vec![], vec![Session::new(Time(1.0), Time(2.0))]),
        Workload::new(vec![Time(5.0); 3], vec![Session::new(Time(0.0), Time(100.0))]),
        Workload::new(vec![horizon, Time(11.0)], vec![Session::new(horizon, horizon)]),
    ];
    let cfg = SimConfig { horizon, adv_rate: 2.0, ..SimConfig::default() };
    for (case, workload) in cases.into_iter().enumerate() {
        let path = temp_path("tiny", case as u64);
        write_workload_file(&path, &workload).expect("write workload");
        let disk = DiskWorkload::open(&path).expect("open workload");
        let mem =
            Simulation::new(cfg, UnitCostDefense::new(), BudgetJoiner::new(2.0), workload).run();
        let dsk = Simulation::new(cfg, UnitCostDefense::new(), BudgetJoiner::new(2.0), disk).run();
        assert_eq!(normalized(mem), normalized(dsk), "case {case}");
        std::fs::remove_file(&path).ok();
    }
}
