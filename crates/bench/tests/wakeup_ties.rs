//! The adversary's wakeups against every event they can tie with, pinned.
//!
//! `BudgetJoiner` wakes every 0.01 s. Each config here puts another event
//! on those same instants: a timeline sample every 0.01 s, purge rounds of
//! 0.01 s (a purge a wakeup queues resolves on the next wakeup),
//! SybilControl's periodic tests every 0.01 s, and session joins, session
//! departures and initial departures placed on wakeup instants. Every
//! instant is accumulated as the engine accumulates it (`now + 0.01` from
//! zero), so the ties are exact. At a tie the `(time, seq)` order decides
//! who goes first, and the run's every decision follows from it.
//!
//! Each report is pinned by the SHA-256 of its `Debug` text, with
//! `queue_pops` zeroed: that count says where the engine kept an event,
//! not what happened. The same config replayed from a `DiskWorkload` must
//! hash the same once its stream's memory gauge is set to the resident
//! run's. ERGO-SF is left out: its classifier draws through `ln`, so its
//! text could depend on the platform's libm.

use sybil_crypto::Sha256;
use sybil_defenses as defs;
use sybil_sim::adversary::BudgetJoiner;
use sybil_sim::defense::Defense;
use sybil_sim::engine::{SimConfig, Simulation};
use sybil_sim::testutil::UnitCostDefense;
use sybil_sim::time::Time;
use sybil_sim::workload::{Session, Workload};
use sybil_sim::workload_io::{write_workload_file, DiskWorkload};
use sybil_sim::{SimReport, WorkloadSource};

const STEP: f64 = 0.01;
const HORIZON: f64 = 3.0;
/// A spend rate whose wakeup step is the 0.01 s floor.
const RATE: f64 = 4096.0;

/// The wakeup instants in `[0, HORIZON]`, summed the way the engine sums
/// them.
fn instants() -> Vec<Time> {
    let mut at = Time::ZERO;
    let mut out = Vec::new();
    while at <= Time(HORIZON) {
        out.push(at);
        at += STEP;
    }
    out
}

/// 120 residents, one in four leaving on a wakeup instant; 60 sessions
/// joining on wakeup instants, most leaving on one too and a few past the
/// horizon; 10 more joining and leaving between wakeups.
fn workload() -> Workload {
    let at = instants();
    let initial = (0..120).map(|i| if i % 4 == 0 { at[7 + 2 * i] } else { Time(1e9) }).collect();
    let on_grid = (0..60).map(|i| {
        let join = 1 + 4 * i;
        let depart = if i % 9 == 8 { Time(HORIZON + 1.0) } else { at[join + 3 + i % 13] };
        Session::new(at[join], depart)
    });
    let off_grid = (0..10).map(|i| {
        let join = at[5 + 25 * i] + STEP / 2.0;
        Session::new(join, join + 0.4)
    });
    Workload::new(initial, on_grid.chain(off_grid).collect())
}

fn run<D: Defense, W: WorkloadSource>(cfg: SimConfig, defense: D, source: W) -> SimReport {
    Simulation::new(cfg, defense, BudgetJoiner::new(RATE), source).run()
}

fn sha256_of_debug(mut report: SimReport) -> String {
    report.queue_pops = 0;
    Sha256::digest(format!("{report:?}").as_bytes()).to_string()
}

/// Runs `defense` from memory and from disk under `cfg` and returns the
/// one hash both must have.
fn pinned_hash<D: Defense>(
    what: &str,
    cfg: SimConfig,
    defense: impl Fn() -> D,
    w: &Workload,
) -> String {
    let path = std::env::temp_dir()
        .join(format!("sybil_bench_wakeup_ties_{what}_{}.wkld", std::process::id()));
    write_workload_file(&path, w).expect("write workload");
    let resident = run(cfg, defense(), w.clone());
    let mut streamed = run(cfg, defense(), DiskWorkload::open(&path).expect("open workload"));
    std::fs::remove_file(&path).ok();
    assert!(resident.queue_pops <= resident.events_processed, "{what}");
    assert_eq!(resident.timeline.len(), instants().len(), "{what}: a sample per wakeup");
    streamed.workload_stream_bytes = resident.workload_stream_bytes;
    let hash = sha256_of_debug(resident);
    assert_eq!(sha256_of_debug(streamed), hash, "{what}: disk and memory differ");
    hash
}

fn sybilcontrol() -> defs::SybilControl {
    defs::SybilControl::new(defs::SybilControlConfig {
        test_period: STEP,
        ..defs::SybilControlConfig::default()
    })
}

/// `(defense, purge round duration, report hash)`: one config per
/// defense, and one more with 0.01 s purge rounds for each that purges.
#[test]
fn wakeup_ties_are_pinned() {
    let w = workload();
    let cfg = |round_duration| SimConfig {
        horizon: Time(HORIZON),
        adv_rate: RATE,
        round_duration,
        timeline_resolution: Some(STEP),
        ..SimConfig::default()
    };
    let got = [
        ("unit-cost", 0.0, pinned_hash("unit", cfg(0.0), UnitCostDefense::new, &w)),
        ("SybilControl", 0.0, pinned_hash("sc", cfg(0.0), sybilcontrol, &w)),
        ("CCOM", 0.0, pinned_hash("ccom0", cfg(0.0), defs::ccom, &w)),
        ("ERGO", 0.0, pinned_hash("ergo0", cfg(0.0), defs::ergo, &w)),
        ("CCOM", STEP, pinned_hash("ccom1", cfg(STEP), defs::ccom, &w)),
        ("ERGO", STEP, pinned_hash("ergo1", cfg(STEP), defs::ergo, &w)),
    ];
    let got: Vec<_> = got.iter().map(|(name, rd, hash)| (*name, *rd, hash.as_str())).collect();
    assert_eq!(got, PINNED);
}

const PINNED: &[(&str, f64, &str)] = &[
    ("unit-cost", 0.0, "3cd66ea0a1b0c836cf36f20cfce93ac053f4ea32ef66dd186d208b8d3ab6e367"),
    ("SybilControl", 0.0, "88748bcdaa05e016c268fbbfadf9aa222ec20ee4aa3cc21688271f825061b3ea"),
    ("CCOM", 0.0, "3b87f71bac13065095f541ba300728317ec83fb749688a7775da3b4d2085df41"),
    ("ERGO", 0.0, "23c763e5c4eb505956ae6a4f6f1e86183d49e440364e9d26fc94a9bd88dda128"),
    ("CCOM", STEP, "8212a38a341825cb70bacb220ad53b077cb884d49af48c7e2eaad553f45c2d39"),
    ("ERGO", STEP, "c5de39f3d8a5ca60b5539c1429120ef04b81e5b123bf95ca51f43206d9531d1a"),
];
