//! The engine performance baseline: a fixed micro/macro suite whose results
//! are written to `BENCH_engine.json` so every subsequent PR has a
//! trajectory to beat.
//!
//! Two layers:
//!
//! * **Queue micro-bench** — raw [`EventQueue`] push/pop throughput under
//!   an engine-like access pattern (time advances monotonically, events
//!   land near-future).
//! * **Macro scenarios** — full [`Simulation`] runs through the same
//!   [`crate::sweep::run_report`] path the figure sweeps use, measured in
//!   engine events per wall second. `macro_sweep` is the headline number: a
//!   miniature Figure-8-style sweep cell grid.
//!
//! Every scenario is deterministic (fixed seeds); the JSON also records the
//! run's counter fingerprint so regressions in *behavior* (not just speed)
//! are visible in the artifact diff.

use crate::sweep::{run_report_measured, run_report_with_measured, Algo, LoopAllocs, RunParams};
use std::time::Instant;
use sybil_churn::networks;
use sybil_exp::defense_seed;
use sybil_sim::engine::SimConfig;
use sybil_sim::queue::EventQueue;
use sybil_sim::time::Time;
use sybil_sim::workload_io::{write_workload_file, DiskWorkload};
use sybil_sim::ShardedWorkload;

/// One measured macro scenario.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Scenario name (stable across PRs; used as the JSON key).
    pub name: String,
    /// Engine events dispatched.
    pub events: u64,
    /// Wall-clock seconds.
    pub wall_secs: f64,
    /// Events per wall second — the headline throughput number.
    pub events_per_sec: f64,
    /// Peak pending-event count across the runs.
    pub peak_queue_len: usize,
    /// Peak resident workload + admission memory across the scenario's
    /// cells: the engine's packed admission map plus whatever the workload
    /// stream retains (for disk-streamed scenarios, two read buffers; for
    /// in-memory ones, the schedule vectors).
    pub resident_bytes: usize,
    /// Workload shards the scenario replayed with (1 = the monolithic
    /// engine loop; the `macro_scale_s*` family varies this).
    pub shards: usize,
    /// Allocator calls during the steady-state event loop (summed over the
    /// scenario's cells, minimum across reps; engine thread only). Zero
    /// when counting is off — the report's top-level `alloc_counting`
    /// field says which.
    pub loop_allocs: u64,
    /// Bytes requested by those loop allocations.
    pub loop_alloc_bytes: u64,
    /// `loop_allocs / events` — the budget `bench_compare` gates on. The
    /// core single-shard scenarios must hold this at exactly zero.
    pub allocs_per_event: f64,
    /// Behavior fingerprint: counters that must not change for identical
    /// seeds when only performance work happens.
    pub fingerprint: Fingerprint,
}

/// Counter fingerprint of a deterministic run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Fingerprint {
    /// Total good joins admitted.
    pub good_joins_admitted: u64,
    /// Total Sybil joins admitted.
    pub bad_joins_admitted: u64,
    /// Total purges executed.
    pub purges: u64,
    /// Total good spend.
    pub good_spend: f64,
    /// Total adversary spend.
    pub adv_spend: f64,
}

/// One measured queue micro-bench.
#[derive(Clone, Debug)]
pub struct QueueBenchResult {
    /// Bench name (`queue_calendar`).
    pub name: String,
    /// Push+pop operations performed.
    pub ops: u64,
    /// Wall-clock seconds.
    pub wall_secs: f64,
    /// Operations per wall second.
    pub ops_per_sec: f64,
}

/// The full suite result.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Queue micro-bench results.
    pub queue: Vec<QueueBenchResult>,
    /// Macro scenario results.
    pub scenarios: Vec<ScenarioResult>,
}

/// The macro scenario grid. `macro_sweep` (the acceptance headline)
/// aggregates a miniature Figure-8-style cell grid; the single-cell
/// scenarios isolate heavy-churn and heavy-periodic defenses.
/// One scenario cell: `(algo, T, horizon, seed)`.
type Cell = (Algo, f64, f64, u64);

fn scenario_specs() -> Vec<(&'static str, Vec<Cell>)> {
    let sweep_cells: Vec<Cell> = {
        let mut cells = Vec::new();
        for algo in [Algo::Ergo, Algo::CCom, Algo::SybilControl] {
            for t in [0.0, 64.0, 4096.0, 65_536.0] {
                cells.push((algo, t, 1000.0, 1));
            }
        }
        cells
    };
    vec![
        ("macro_sweep", sweep_cells),
        ("gnutella_ergo_t1024", vec![(Algo::Ergo, 1024.0, 2000.0, 1)]),
        ("gnutella_sybilcontrol_t64", vec![(Algo::SybilControl, 64.0, 500.0, 2)]),
    ]
}

/// Repetitions per measurement; the fastest rep is reported. Machine
/// noise (scheduler, frequency scaling, cache pollution from sibling
/// containers) only ever *adds* time, so best-of-K is the stable estimator
/// of intrinsic cost.
fn reps() -> u32 {
    std::env::var("SYBIL_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(5)
}

/// Parses a `SYBIL_BENCH_ALLOC` setting: `1` forces allocation counting on
/// (the run aborts unless the binary was built with `--features
/// alloc-count`, so "measured" can never silently mean "all zeros"), `0`
/// forces the allocation columns off even in a counting build, and unset
/// publishes whatever the build provides. Strict like the other knobs:
/// anything else is an error, not a silent default.
fn parse_alloc_mode(raw: Result<String, std::env::VarError>) -> Result<Option<bool>, String> {
    sybil_exp::env::parse("SYBIL_BENCH_ALLOC", raw, |v| match v {
        "1" => Ok(true),
        "0" => Ok(false),
        _ => Err("is not valid: use 1 (require the counting allocator; abort if the binary \
                  was not built with --features alloc-count), 0 (report zeros even in a \
                  counting build), or unset (publish whatever the build measures)"
            .to_string()),
    })
}

/// Whether this run publishes *measured* allocation numbers, resolving the
/// `SYBIL_BENCH_ALLOC` override against the live-probe of the global
/// allocator. Cached for the process lifetime.
pub fn alloc_counting() -> bool {
    static COUNTING: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *COUNTING.get_or_init(|| {
        let forced = sybil_exp::env::or_abort(parse_alloc_mode(std::env::var("SYBIL_BENCH_ALLOC")));
        let live = sybil_exp::alloc::counting_enabled();
        match forced {
            Some(true) if !live => {
                eprintln!(
                    "SYBIL_BENCH_ALLOC=1 but the counting allocator is not registered: \
                     rebuild with `--features alloc-count` (sybil-bench forwards it to \
                     sybil-exp)"
                );
                std::process::exit(2);
            }
            Some(on) => on,
            None => live,
        }
    })
}

/// The `SYBIL_BENCH_ALLOC` setting this run resolved to, for the JSON
/// (`"1"`, `"0"`, or `"auto"` when unset).
fn alloc_mode_label() -> &'static str {
    match sybil_exp::env::or_abort(parse_alloc_mode(std::env::var("SYBIL_BENCH_ALLOC"))) {
        Some(true) => "1",
        Some(false) => "0",
        None => "auto",
    }
}

/// Runs one named scenario (a list of `(algo, T, horizon, seed)` cells,
/// executed sequentially on the calling thread) and measures aggregate
/// engine throughput, best-of-[`reps`].
fn run_scenario(name: &str, cells: &[Cell]) -> ScenarioResult {
    let net = networks::gnutella();
    let mut best_wall = f64::INFINITY;
    let mut events = 0u64;
    let mut peak = 0usize;
    let mut resident = 0usize;
    let mut best_allocs = LoopAllocs { allocs: u64::MAX, bytes: u64::MAX };
    let mut fp = Fingerprint::default();
    for rep in 0..reps() {
        let started = Instant::now();
        let mut rep_events = 0u64;
        let mut rep_peak = 0usize;
        let mut rep_resident = 0usize;
        let mut rep_allocs = LoopAllocs::default();
        let mut rep_fp = Fingerprint::default();
        for &(algo, t, horizon, seed) in cells {
            let params = RunParams { horizon, seed, ..RunParams::default() };
            let (report, allocs) = run_report_measured(&net, algo, t, params);
            rep_events += report.events_processed;
            rep_peak = rep_peak.max(report.peak_queue_len);
            rep_resident = rep_resident.max(report.admission_bytes + report.workload_stream_bytes);
            rep_allocs.allocs += allocs.allocs;
            rep_allocs.bytes += allocs.bytes;
            rep_fp.good_joins_admitted += report.good_joins_admitted;
            rep_fp.bad_joins_admitted += report.bad_joins_admitted;
            rep_fp.purges += report.purges;
            rep_fp.good_spend += report.ledger.good_total().value();
            rep_fp.adv_spend += report.ledger.adversary_total().value();
        }
        let wall = started.elapsed().as_secs_f64();
        if rep == 0 {
            (events, peak, resident, fp) = (rep_events, rep_peak, rep_resident, rep_fp);
        } else {
            assert_eq!(rep_events, events, "{name}: nondeterministic event count");
            assert_eq!(rep_fp, fp, "{name}: nondeterministic fingerprint");
        }
        // Min across reps, like the wall clock: a first rep can pay
        // one-time warmup inside the loop (thread-local lazy init); the
        // steady-state claim is the repeatable floor.
        best_allocs.allocs = best_allocs.allocs.min(rep_allocs.allocs);
        best_allocs.bytes = best_allocs.bytes.min(rep_allocs.bytes);
        best_wall = best_wall.min(wall);
    }
    let measured = if alloc_counting() { best_allocs } else { LoopAllocs::default() };
    ScenarioResult {
        name: name.to_string(),
        events,
        wall_secs: best_wall,
        events_per_sec: events as f64 / best_wall.max(1e-12),
        peak_queue_len: peak,
        resident_bytes: resident,
        shards: 1,
        loop_allocs: measured.allocs,
        loop_alloc_bytes: measured.bytes,
        allocs_per_event: measured.allocs as f64 / (events as f64).max(1.0),
        fingerprint: fp,
    }
}

/// The million-ID churn model behind `macro_millions` — now shared with
/// the `exp_millions` grid driver via [`networks::millions`].
fn millions_model() -> sybil_churn::model::ChurnModel {
    networks::millions(1_000_000)
}

/// The `macro_millions` scenario: a 1 000 000-initial-ID workload generated
/// once, written to the on-disk format, and replayed through the
/// disk-streaming [`DiskWorkload`] source — the in-memory schedule is
/// dropped before any measured run, so the reported `resident_bytes`
/// (packed admission map + stream read buffers) is the engine's actual
/// workload footprint at million-ID scale.
fn run_macro_millions() -> ScenarioResult {
    let (algo, t, horizon, seed) = (Algo::Ergo, 4096.0, 500.0, 1u64);
    let path =
        std::env::temp_dir().join(format!("sybil_macro_millions_{}.wkld", std::process::id()));
    {
        let workload = millions_model().generate(Time(horizon), seed);
        write_workload_file(&path, &workload)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    } // The resident schedule is dropped here; replays stream from disk.

    let mut best_wall = f64::INFINITY;
    let mut events = 0u64;
    let mut peak = 0usize;
    let mut resident = 0usize;
    let mut best_allocs = LoopAllocs { allocs: u64::MAX, bytes: u64::MAX };
    let mut fp = Fingerprint::default();
    for rep in 0..reps() {
        let started = Instant::now();
        let disk = DiskWorkload::open(&path)
            .unwrap_or_else(|e| panic!("cannot open {}: {e}", path.display()));
        let cfg = SimConfig { horizon: Time(horizon), adv_rate: t, ..SimConfig::default() };
        // Same defense seeding as `run_report`, so the scenario is pinned
        // the same way the sweep cells are.
        let (report, allocs) = run_report_with_measured(cfg, algo, t, defense_seed(seed), disk);
        let wall = started.elapsed().as_secs_f64();
        let rep_fp = Fingerprint {
            good_joins_admitted: report.good_joins_admitted,
            bad_joins_admitted: report.bad_joins_admitted,
            purges: report.purges,
            good_spend: report.ledger.good_total().value(),
            adv_spend: report.ledger.adversary_total().value(),
        };
        if rep == 0 {
            events = report.events_processed;
            peak = report.peak_queue_len;
            resident = report.admission_bytes + report.workload_stream_bytes;
            fp = rep_fp;
        } else {
            assert_eq!(report.events_processed, events, "macro_millions: nondeterministic");
            assert_eq!(rep_fp, fp, "macro_millions: nondeterministic fingerprint");
        }
        best_allocs.allocs = best_allocs.allocs.min(allocs.allocs);
        best_allocs.bytes = best_allocs.bytes.min(allocs.bytes);
        best_wall = best_wall.min(wall);
    }
    std::fs::remove_file(&path).ok();
    let measured = if alloc_counting() { best_allocs } else { LoopAllocs::default() };
    ScenarioResult {
        name: "macro_millions".to_string(),
        events,
        wall_secs: best_wall,
        events_per_sec: events as f64 / best_wall.max(1e-12),
        peak_queue_len: peak,
        resident_bytes: resident,
        shards: 1,
        loop_allocs: measured.allocs,
        loop_alloc_bytes: measured.bytes,
        allocs_per_event: measured.allocs as f64 / (events as f64).max(1.0),
        fingerprint: fp,
    }
}

/// The shard counts the `macro_scale` family measures. The scenario names
/// carry the count (`macro_scale_s1`, …) so `bench_compare` can pair a
/// wide run with its 1-shard baseline and gate the speedup.
const MACRO_SCALE_SHARDS: [usize; 3] = [1, 2, 4];

/// The `macro_scale_s{1,2,4}` scenarios: one 10 000 000-initial-ID
/// workload generated once, written to disk, and replayed through the
/// sharded shared-nothing engine ([`ShardedWorkload`]) at each shard
/// count.
///
/// The event counts and behavior fingerprints are asserted identical
/// across shard counts before anything is reported — the engine's
/// determinism contract at bench scale. Throughput scaling across the
/// `_s*` columns is what `bench_compare` gates on machines with enough
/// cores (recorded as the report's `available_parallelism`); on a 1-core
/// runner the extra shards only add coordination cost, which is exactly
/// what the honest numbers should show.
fn run_macro_scale_family() -> Vec<ScenarioResult> {
    let (algo, t, horizon, seed) = (Algo::Ergo, 4096.0, 300.0, 1u64);
    let path = std::env::temp_dir().join(format!("sybil_macro_scale_{}.wkld", std::process::id()));
    {
        let workload = networks::millions(10_000_000).generate(Time(horizon), seed);
        write_workload_file(&path, &workload)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    } // The resident schedule is dropped here; replays stream from disk.

    let mut out = Vec::new();
    for shards in MACRO_SCALE_SHARDS {
        let name = format!("macro_scale_s{shards}");
        let mut best_wall = f64::INFINITY;
        let mut events = 0u64;
        let mut peak = 0usize;
        let mut resident = 0usize;
        let mut best_allocs = LoopAllocs { allocs: u64::MAX, bytes: u64::MAX };
        let mut fp = Fingerprint::default();
        for rep in 0..reps() {
            let started = Instant::now();
            let disk = DiskWorkload::open(&path)
                .unwrap_or_else(|e| panic!("cannot open {}: {e}", path.display()));
            let cfg = SimConfig { horizon: Time(horizon), adv_rate: t, ..SimConfig::default() };
            // The counters are thread-local: at S > 1 they cover the
            // coordinator's merge loop, not the producer threads (whose
            // batch buffers are pooled; see `sybil-sim::shard`).
            let (report, allocs) = run_report_with_measured(
                cfg,
                algo,
                t,
                defense_seed(seed),
                ShardedWorkload::from_disk(disk, shards),
            );
            let wall = started.elapsed().as_secs_f64();
            let rep_fp = Fingerprint {
                good_joins_admitted: report.good_joins_admitted,
                bad_joins_admitted: report.bad_joins_admitted,
                purges: report.purges,
                good_spend: report.ledger.good_total().value(),
                adv_spend: report.ledger.adversary_total().value(),
            };
            if rep == 0 {
                events = report.events_processed;
                peak = report.peak_queue_len;
                resident = report.admission_bytes + report.workload_stream_bytes;
                fp = rep_fp;
            } else {
                assert_eq!(report.events_processed, events, "{name}: nondeterministic");
                assert_eq!(rep_fp, fp, "{name}: nondeterministic fingerprint");
            }
            best_allocs.allocs = best_allocs.allocs.min(allocs.allocs);
            best_allocs.bytes = best_allocs.bytes.min(allocs.bytes);
            best_wall = best_wall.min(wall);
        }
        let measured = if alloc_counting() { best_allocs } else { LoopAllocs::default() };
        out.push(ScenarioResult {
            name,
            events,
            wall_secs: best_wall,
            events_per_sec: events as f64 / best_wall.max(1e-12),
            peak_queue_len: peak,
            resident_bytes: resident,
            shards,
            loop_allocs: measured.allocs,
            loop_alloc_bytes: measured.bytes,
            allocs_per_event: measured.allocs as f64 / (events as f64).max(1.0),
            fingerprint: fp,
        });
    }
    std::fs::remove_file(&path).ok();
    for s in &out[1..] {
        assert_eq!(s.events, out[0].events, "{}: event count varies with shard count", s.name);
        assert_eq!(
            s.fingerprint, out[0].fingerprint,
            "{}: behavior fingerprint varies with shard count",
            s.name
        );
    }
    out
}

/// Engine-like queue access pattern: a standing population of pending
/// events over the horizon, advancing time by pop-then-push-near-future.
fn run_queue_bench(name: &str, mut q: EventQueue<u64>, n_ops: u64) -> QueueBenchResult {
    let horizon = 10_000.0;
    let standing = 5_000u64;
    let mut state = 0x00dd_c0de_5eed_1234u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 11
    };
    let started = Instant::now();
    // Seed the standing population.
    for i in 0..standing {
        q.push(Time(next() as f64 % horizon), i);
    }
    let mut ops = standing;
    let mut acc = 0u64;
    while ops < n_ops {
        let (now, v) = q.pop().expect("standing population");
        acc = acc.wrapping_add(v);
        // Reschedule near-future relative to the popped time, mimicking
        // depart/periodic/adversary pushes; occasionally far-future.
        let dt = if ops.is_multiple_of(17) {
            (next() % 1000) as f64
        } else {
            (next() % 64) as f64 * 0.25
        };
        q.push(Time((now.as_secs() + dt).min(horizon * 2.0)), v);
        ops += 2;
    }
    std::hint::black_box(acc);
    let wall_secs = started.elapsed().as_secs_f64();
    QueueBenchResult {
        name: name.to_string(),
        ops,
        wall_secs,
        ops_per_sec: ops as f64 / wall_secs.max(1e-12),
    }
}

/// Runs the full suite. All measurements are single-threaded so the
/// numbers compare engine work, not scheduling luck.
pub fn run_suite() -> PerfReport {
    let n_ops = if crate::sweep::fast_mode() { 400_000 } else { 2_000_000 };
    let queue_calendar = (0..reps())
        .map(|_| {
            let q = EventQueue::with_horizon(Time(20_000.0), 8192);
            run_queue_bench("queue_calendar", q, n_ops)
        })
        .min_by(|a, b| a.wall_secs.total_cmp(&b.wall_secs))
        .expect("at least one rep");
    let queue = vec![queue_calendar];
    let mut scenarios: Vec<ScenarioResult> =
        scenario_specs().iter().map(|(name, cells)| run_scenario(name, cells)).collect();
    // Million-ID scale runs at full size even in FAST mode: the replay is
    // subsecond, and keeping it identical keeps its fingerprint comparable
    // between CI and the committed baseline. The 10⁷-ID shard-scaling
    // family follows the same rule: shrinking it in FAST mode would change
    // its fingerprint and break the `bench_compare` drift gate.
    scenarios.push(run_macro_millions());
    scenarios.extend(run_macro_scale_family());
    PerfReport { queue, scenarios }
}

/// Serializes the report as pretty-printed JSON through [`sybil_exp::json`].
pub fn to_json(report: &PerfReport) -> String {
    use sybil_exp::json::Value;
    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    // The nested-parallelism split the experiment layer would use on
    // this machine: `workers` outer grid cells × `cell_shards` in-cell
    // shard workers (each also owning its slice of the defense state),
    // with the outer pool shrunk to keep the thread product bounded.
    let workers = crate::sweep::default_workers();
    let cell_shards = sybil_exp::pool::default_shards();
    let queue = report.queue.iter().map(|q| {
        let body = Value::obj([
            ("ops", q.ops.into()),
            ("wall_secs", q.wall_secs.into()),
            ("ops_per_sec", q.ops_per_sec.into()),
        ]);
        (q.name.clone(), body)
    });
    let scenarios = report.scenarios.iter().map(|s| {
        let fp = &s.fingerprint;
        let body = Value::obj([
            ("events", s.events.into()),
            ("wall_secs", s.wall_secs.into()),
            ("events_per_sec", s.events_per_sec.into()),
            ("peak_queue_len", s.peak_queue_len.into()),
            ("resident_bytes", s.resident_bytes.into()),
            ("shards", s.shards.into()),
            ("loop_allocs", s.loop_allocs.into()),
            ("loop_alloc_bytes", s.loop_alloc_bytes.into()),
            ("allocs_per_event", s.allocs_per_event.into()),
            (
                "fingerprint",
                Value::obj([
                    ("good_joins_admitted", fp.good_joins_admitted.into()),
                    ("bad_joins_admitted", fp.bad_joins_admitted.into()),
                    ("purges", fp.purges.into()),
                    ("good_spend", fp.good_spend.into()),
                    ("adv_spend", fp.adv_spend.into()),
                ]),
            ),
        ]);
        (s.name.clone(), body)
    });
    Value::obj([
        ("generated_unix_secs", unix_secs.into()),
        // Recorded so `bench_compare` can make its shard-scaling gate
        // hardware-aware: a 1-core runner cannot demonstrate a speedup.
        (
            "available_parallelism",
            std::thread::available_parallelism().map_or(1, |n| n.get()).into(),
        ),
        (
            "shard_budget",
            Value::obj([
                ("workers", workers.into()),
                ("cell_shards", cell_shards.into()),
                ("outer_pool", sybil_exp::pool::shard_budget(workers, cell_shards).into()),
            ]),
        ),
        // Whether the alloc_* scenario fields are live measurements (counting
        // allocator registered and not forced off) or structural zeros, plus
        // the SYBIL_BENCH_ALLOC setting that produced them — so a JSON is
        // self-describing no matter how its run was built or invoked.
        ("alloc_counting", alloc_counting().into()),
        ("alloc_mode", alloc_mode_label().into()),
        ("queue", Value::obj(queue)),
        ("scenarios", Value::obj(scenarios)),
    ])
    .to_pretty()
}

/// Renders a human-readable summary table.
pub fn render(report: &PerfReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>14} {:>10} {:>16} {:>12} {:>14} {:>12}\n",
        "benchmark",
        "events/ops",
        "wall (s)",
        "throughput/s",
        "peak queue",
        "resident KiB",
        "loop allocs"
    ));
    for q in &report.queue {
        out.push_str(&format!(
            "{:<28} {:>14} {:>10.3} {:>16.0} {:>12} {:>14} {:>12}\n",
            q.name, q.ops, q.wall_secs, q.ops_per_sec, "-", "-", "-"
        ));
    }
    for s in &report.scenarios {
        out.push_str(&format!(
            "{:<28} {:>14} {:>10.3} {:>16.0} {:>12} {:>14} {:>12}\n",
            s.name,
            s.events,
            s.wall_secs,
            s.events_per_sec,
            s.peak_queue_len,
            s.resident_bytes.div_ceil(1024),
            s.loop_allocs
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic() {
        let cells = [(Algo::Ergo, 64.0, 50.0, 3u64)];
        let a = run_scenario("det", &cells);
        let b = run_scenario("det", &cells);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.events, b.events);
        assert!(a.events > 0);
    }

    /// Every field `to_json` writes reads back through the `exp::json`
    /// reader at the nesting level it was written at, with its value.
    #[test]
    fn json_round_trips_field_for_field() {
        use sybil_exp::json::{parse, Value};
        let mut report = PerfReport {
            queue: vec![QueueBenchResult {
                name: "queue_calendar".into(),
                ops: 10,
                wall_secs: 0.1,
                ops_per_sec: 100.0,
            }],
            scenarios: vec![ScenarioResult {
                name: "s".into(),
                events: 5,
                wall_secs: 0.5,
                events_per_sec: 10.0,
                peak_queue_len: 3,
                resident_bytes: 4096,
                shards: 4,
                loop_allocs: 7,
                loop_alloc_bytes: 256,
                allocs_per_event: 1.4,
                fingerprint: Fingerprint {
                    good_joins_admitted: 11,
                    bad_joins_admitted: 12,
                    purges: 13,
                    good_spend: 14.5,
                    adv_spend: 1e-5,
                },
            }],
        };
        let root = parse(to_json(&report).as_bytes()).unwrap();
        let keys: Vec<&str> = root.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "generated_unix_secs",
                "available_parallelism",
                "shard_budget",
                "alloc_counting",
                "alloc_mode",
                "queue",
                "scenarios"
            ]
        );
        assert!(root.num("generated_unix_secs").unwrap() > 0.0);
        assert!(root.num("available_parallelism").unwrap() >= 1.0);
        let budget = root.get("shard_budget").unwrap();
        assert!(budget.num("outer_pool").unwrap() >= 1.0);
        assert!(budget.num("workers").unwrap() >= budget.num("outer_pool").unwrap());
        assert_eq!(root.get("alloc_counting"), Some(&Value::Bool(alloc_counting())));
        assert_eq!(root.get("alloc_mode").and_then(Value::as_str), Some(alloc_mode_label()));

        let expect = |body: &Value, fields: &[(&str, f64)]| {
            assert_eq!(body.members().len(), fields.len());
            for ((key, value), &(want_key, want)) in body.members().iter().zip(fields) {
                assert_eq!(key, want_key);
                assert_eq!(value, &Value::Num(want), "{key}");
            }
        };
        let queue = root.get("queue").unwrap();
        assert_eq!(queue.members().len(), 1);
        expect(
            queue.get("queue_calendar").unwrap(),
            &[("ops", 10.0), ("wall_secs", 0.1), ("ops_per_sec", 100.0)],
        );
        let scenarios = root.get("scenarios").unwrap();
        assert_eq!(scenarios.members().len(), 1);
        let s = scenarios.get("s").unwrap();
        expect(
            &Value::obj(s.members()[..9].iter().cloned()),
            &[
                ("events", 5.0),
                ("wall_secs", 0.5),
                ("events_per_sec", 10.0),
                ("peak_queue_len", 3.0),
                ("resident_bytes", 4096.0),
                ("shards", 4.0),
                ("loop_allocs", 7.0),
                ("loop_alloc_bytes", 256.0),
                ("allocs_per_event", 1.4),
            ],
        );
        assert_eq!(s.members().len(), 10);
        expect(
            s.get("fingerprint").unwrap(),
            &[
                ("good_joins_admitted", 11.0),
                ("bad_joins_admitted", 12.0),
                ("purges", 13.0),
                ("good_spend", 14.5),
                ("adv_spend", 1e-5),
            ],
        );
        // `purges` lives in the fingerprint, not at scenario level.
        assert_eq!(s.get("purges"), None);

        // A non-finite throughput is written as null and reads back as
        // "non-finite", not as a missing field.
        report.scenarios[0].events_per_sec = f64::INFINITY;
        let json = to_json(&report);
        assert!(json.contains("\"events_per_sec\": null"), "{json}");
        let root = parse(json.as_bytes()).unwrap();
        let err = root.get("scenarios").unwrap().get("s").unwrap().num("events_per_sec");
        assert!(err.unwrap_err().contains("non-finite"));
    }

    #[test]
    fn queue_bench_runs() {
        let r = run_queue_bench("q", EventQueue::with_horizon(Time(20_000.0), 8192), 10_000);
        assert!(r.ops >= 10_000);
        assert!(r.ops_per_sec > 0.0);
    }
}
