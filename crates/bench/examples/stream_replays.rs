//! `replay_stream`'s operation on its own: writes the benchmark's workload
//! once (`networks::millions(1_000_000)`, horizon 4 000 s, seed 1) to a
//! temporary file, replays it `replays` times from disk under Ergo at
//! `T = 0`, and prints the minimum and median wall time of one replay
//! (open included, as the benchmark times it), the events each replay
//! processed and the events the calendar queue served
//! (`SimReport::queue_pops`). Generation and writing are not timed.
//!
//! ```text
//! cargo run --release -p sybil-bench --example stream_replays -- [replays=10]
//! ```
use std::time::Instant;
use sybil_bench::sweep::{self, Algo};
use sybil_churn::networks;
use sybil_sim::engine::SimConfig;
use sybil_sim::time::Time;
use sybil_sim::workload_io::{write_workload_file, DiskWorkload};

const IDS: u64 = 1_000_000;
const HORIZON: f64 = 4000.0;
const SEED: u64 = 1;

fn main() {
    let replays: usize = match std::env::args().nth(1) {
        None => 10,
        Some(arg) => arg.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            eprintln!("replays must be a positive integer, got '{arg}'");
            std::process::exit(2)
        }),
    };
    let path = std::env::temp_dir().join(format!("stream_replays_{}.wkld", std::process::id()));
    let workload = networks::millions(IDS).generate(Time(HORIZON), SEED);
    write_workload_file(&path, &workload)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    drop(workload);
    let cfg = SimConfig { horizon: Time(HORIZON), ..SimConfig::default() };
    let mut walls = Vec::with_capacity(replays);
    let mut counts = None;
    for _ in 0..replays {
        let started = Instant::now();
        let disk = DiskWorkload::open(&path)
            .unwrap_or_else(|e| panic!("cannot open {}: {e}", path.display()));
        let report =
            sweep::run_report_with(cfg, Algo::Ergo, 0.0, sybil_exp::defense_seed(SEED), disk);
        walls.push(started.elapsed().as_secs_f64() * 1e3);
        let these = (report.events_processed, report.queue_pops);
        assert!(counts.is_none_or(|c| c == these), "replays of one file differ: {these:?}");
        counts = Some(these);
    }
    std::fs::remove_file(&path).ok();
    walls.sort_by(f64::total_cmp);
    let (events, queue_pops) = counts.expect("at least one replay");
    println!(
        "{replays} replays: min {:.1} ms, median {:.1} ms per replay; \
         {events} events, {queue_pops} queue pops",
        walls[0],
        walls[replays / 2]
    );
}
