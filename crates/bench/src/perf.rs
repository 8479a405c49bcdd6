//! The engine performance baseline: a fixed micro/macro suite whose results
//! are written to `BENCH_engine.json` so every subsequent PR has a
//! trajectory to beat.
//!
//! Two layers:
//!
//! * **Queue micro-benches** — raw [`EventQueue`] push/pop throughput
//!   under an engine-like access pattern (time advances monotonically,
//!   events land near-future): `queue_calendar` at a standing population
//!   of 5 000, and [`QUEUE_DEPTHS`]' probes at 10², 10⁴ and 10⁶, which
//!   `bench_compare` holds flat. The same JSON section carries
//!   `ledger_charge`, the ledger's half of a purge round trip
//!   (`run_ledger_bench`), and `sha256_64b`, the machine-speed
//!   calibration: not code under test, and for that reason the only entry
//!   `bench_compare` scales floors by.
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
use sybil_sim::cost::{Cost, Purpose};
use sybil_sim::defense::PurgeReport;
use sybil_sim::engine::SimConfig;
use sybil_sim::queue::EventQueue;
use sybil_sim::shard_state::ShardedDefenseState;
use sybil_sim::time::Time;
use sybil_sim::workload_io::{write_workload_file, DiskWorkload};

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
    /// Allocator calls during the steady-state event loop (summed over the
    /// scenario's cells, minimum across reps; engine thread only). Zero
    /// when counting is off — the report's top-level `alloc_counting`
    /// field says which.
    pub loop_allocs: u64,
    /// Bytes requested by those loop allocations.
    pub loop_alloc_bytes: u64,
    /// `loop_allocs / events` — the budget `bench_compare` gates on. The
    /// three fully resident scenarios must hold this at exactly zero.
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
    /// Bench name (`queue_calendar`, `queue_depth_1e2`…, `ledger_charge`,
    /// `sha256_64b`).
    pub name: String,
    /// Operations performed: pushes plus pops, ledger calls, or hashes.
    pub ops: u64,
    /// Wall-clock seconds.
    pub wall_secs: f64,
    /// Operations per wall second.
    pub ops_per_sec: f64,
}

impl QueueBenchResult {
    fn new(name: &str, ops: u64, wall_secs: f64) -> Self {
        let ops_per_sec = ops as f64 / wall_secs.max(1e-12);
        QueueBenchResult { name: name.to_string(), ops, wall_secs, ops_per_sec }
    }
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
fn reps() -> usize {
    sybil_exp::env::or_abort(parse_reps(std::env::var("SYBIL_BENCH_REPS")))
}

/// Parses a `SYBIL_BENCH_REPS` setting (default 5). Strict like every
/// other knob: `0` or garbage is an error, not a silent default.
fn parse_reps(raw: Result<String, std::env::VarError>) -> Result<usize, String> {
    let reps = sybil_exp::env::positive_usize(
        "SYBIL_BENCH_REPS",
        raw,
        "best-of-K needs at least one repetition (unset the variable for the default 5)",
    )?;
    Ok(reps.unwrap_or(5))
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

/// What one repetition of a scenario observed, folded over its cells.
#[derive(Default)]
struct Rep {
    events: u64,
    peak_queue_len: usize,
    resident_bytes: usize,
    allocs: LoopAllocs,
    fingerprint: Fingerprint,
}

impl Rep {
    /// Folds one cell in: counters and spend add, gauges take the maximum.
    fn absorb(&mut self, report: &sybil_sim::SimReport, allocs: LoopAllocs) {
        self.events += report.events_processed;
        self.peak_queue_len = self.peak_queue_len.max(report.peak_queue_len);
        self.resident_bytes =
            self.resident_bytes.max(report.admission_bytes + report.workload_stream_bytes);
        self.allocs.allocs += allocs.allocs;
        self.allocs.bytes += allocs.bytes;
        let fp = &mut self.fingerprint;
        fp.good_joins_admitted += report.good_joins_admitted;
        fp.bad_joins_admitted += report.bad_joins_admitted;
        fp.purges += report.purges;
        fp.good_spend += report.ledger.good_total().value();
        fp.adv_spend += report.ledger.adversary_total().value();
    }
}

/// Measures `run` best-of-[`reps`] on the calling thread. Every repetition
/// must reproduce the first one's event count and fingerprint; wall clock
/// and allocation counts report the minimum across repetitions — a first
/// rep can pay one-time warmup inside the loop (thread-local lazy init),
/// and the steady-state claim is the repeatable floor.
fn measure(name: &str, mut run: impl FnMut(&mut Rep)) -> ScenarioResult {
    let mut best_wall = f64::INFINITY;
    let mut best_allocs = LoopAllocs { allocs: u64::MAX, bytes: u64::MAX };
    let mut first: Option<Rep> = None;
    for _ in 0..reps() {
        let started = Instant::now();
        let mut rep = Rep::default();
        run(&mut rep);
        best_wall = best_wall.min(started.elapsed().as_secs_f64());
        best_allocs.allocs = best_allocs.allocs.min(rep.allocs.allocs);
        best_allocs.bytes = best_allocs.bytes.min(rep.allocs.bytes);
        match &first {
            None => first = Some(rep),
            Some(first) => {
                assert_eq!(rep.events, first.events, "{name}: nondeterministic event count");
                assert_eq!(
                    rep.fingerprint, first.fingerprint,
                    "{name}: nondeterministic fingerprint"
                );
            }
        }
    }
    let rep = first.expect("at least one repetition");
    let measured = if alloc_counting() { best_allocs } else { LoopAllocs::default() };
    ScenarioResult {
        name: name.to_string(),
        events: rep.events,
        wall_secs: best_wall,
        events_per_sec: rep.events as f64 / best_wall.max(1e-12),
        peak_queue_len: rep.peak_queue_len,
        resident_bytes: rep.resident_bytes,
        loop_allocs: measured.allocs,
        loop_alloc_bytes: measured.bytes,
        allocs_per_event: measured.allocs as f64 / (rep.events as f64).max(1.0),
        fingerprint: rep.fingerprint,
    }
}

/// Runs one named scenario: a list of `(algo, T, horizon, seed)` cells on
/// the Gnutella model, executed sequentially, aggregate engine throughput.
fn run_scenario(name: &str, cells: &[Cell]) -> ScenarioResult {
    let net = networks::gnutella();
    measure(name, |rep| {
        for &(algo, t, horizon, seed) in cells {
            let params = RunParams { horizon, seed, ..RunParams::default() };
            let (report, allocs) = run_report_measured(&net, algo, t, params);
            rep.absorb(&report, allocs);
        }
    })
}

/// One `(Ergo, T = 4096, seed 1)` replay of the workload file at `path`
/// through the disk-streaming [`DiskWorkload`] source, with the same
/// defense seeding as `run_report` so the scenario is pinned the way the
/// sweep cells are.
fn replay_ergo(path: &std::path::Path, horizon: f64, rep: &mut Rep) {
    let source =
        DiskWorkload::open(path).unwrap_or_else(|e| panic!("cannot open {}: {e}", path.display()));
    let (algo, t, seed) = (Algo::Ergo, 4096.0, 1u64);
    let cfg = SimConfig { horizon: Time(horizon), adv_rate: t, ..SimConfig::default() };
    let (report, allocs) = run_report_with_measured(cfg, algo, t, defense_seed(seed), source);
    rep.absorb(&report, allocs);
}

/// A disk-streamed scenario: the [`networks::millions`] workload at `ids`
/// initial IDs (seed 1) is generated once and written to a temp file, and
/// the in-memory schedule is dropped before any measured run — so the
/// reported `resident_bytes` (packed admission map + stream read buffers)
/// is the engine's actual workload footprint at that scale.
///
/// `macro_millions` is 10⁶ IDs over 500 s, `macro_scale` 10⁷ over 300 s.
fn run_streamed(name: &str, ids: u64, horizon: f64) -> ScenarioResult {
    let path = std::env::temp_dir().join(format!("sybil_{name}_{}.wkld", std::process::id()));
    let workload = networks::millions(ids).generate(Time(horizon), 1);
    write_workload_file(&path, &workload)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    drop(workload);
    let result = measure(name, |rep| replay_ergo(&path, horizon, rep));
    std::fs::remove_file(&path).ok();
    result
}

/// The queue probes' deterministic pseudo-random stream.
fn probe_rng() -> impl FnMut() -> u64 {
    let mut state = 0x00dd_c0de_5eed_1234u64;
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 11
    }
}

/// Engine-like queue access pattern: a standing population of pending
/// events over the horizon, advancing time by pop-then-push-near-future.
fn run_queue_bench(name: &str, mut q: EventQueue<u64>, n_ops: u64) -> QueueBenchResult {
    let horizon = 10_000.0;
    let standing = 5_000u64;
    let mut next = probe_rng();
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
    QueueBenchResult::new(name, ops, started.elapsed().as_secs_f64())
}

/// The standing populations of the depth probes, by bench name.
/// `bench_compare` holds the last to at most twice the cost of the first.
pub const QUEUE_DEPTHS: [(&str, usize); 3] =
    [("queue_depth_1e2", 100), ("queue_depth_1e4", 10_000), ("queue_depth_1e6", 1_000_000)];

/// Pop+push pairs at a standing population of `depth`, which
/// [`run_queue_bench`]'s 5 000 cannot vary. The queue is built as the
/// engine builds its own (one bucket per expected event) and filled
/// uniformly over the horizon, untimed; each timed pair pops the minimum
/// and pushes in the engine's mix — about 90 % one mean inter-event gap
/// ahead (the next arrival: the cursor's bucket or the one after), about
/// 10 % uniformly over the rest of the horizon (a session's departure).
/// A fill is spent after `depth / 2` pairs, before the residents thin
/// out; fresh fills repeat until `n_ops / 2` pairs are timed.
fn run_queue_depth_bench(name: &str, depth: usize, n_ops: u64) -> QueueBenchResult {
    let horizon = 10_000.0;
    let gap = horizon / depth as f64;
    let mut next = probe_rng();
    let pairs_per_fill = (depth as u64 / 2).clamp(1, n_ops / 2);
    let mut pairs = 0u64;
    let mut wall_secs = 0.0;
    let mut acc = 0u64;
    while pairs < n_ops / 2 {
        let mut q: EventQueue<u64> = EventQueue::with_horizon(Time(horizon), depth);
        for i in 0..depth as u64 {
            q.push(Time(next() as f64 % horizon), i);
        }
        let started = Instant::now();
        for _ in 0..pairs_per_fill {
            let (now, v) = q.pop().expect("standing population");
            acc = acc.wrapping_add(v);
            let r = next();
            let ahead = if r.is_multiple_of(10) {
                (r / 10) as f64 % (horizon - now.as_secs())
            } else {
                gap
            };
            q.push(now + ahead, v);
        }
        wall_secs += started.elapsed().as_secs_f64();
        pairs += pairs_per_fill;
    }
    std::hint::black_box(acc);
    QueueBenchResult::new(name, 2 * pairs, wall_secs)
}

/// What the engine's ledger does once per purge round trip (ROADMAP
/// 4(b)): the adversary's batch is charged to the root, then the purge it
/// triggered is applied — three `f64` → Q64.64 conversions and three
/// checked `i128` sums. One state shard with `members` admitted sessions,
/// as the engine has at the purge (a ledger that splits a sweep over its
/// members, as PR 24's parent did, pays for it here); costs are seeded
/// and non-dyadic, from a table built untimed. An op is one of the two
/// calls, so a pair costs two, as in the queue probes.
fn run_ledger_bench(name: &str, n_ops: u64) -> QueueBenchResult {
    let members = 1024u64;
    let mut state = ShardedDefenseState::new(members, 1);
    for i in 0..members {
        state.record_good_join(i, true, Cost::ONE);
    }
    let mut next = probe_rng();
    let mut cost = || Cost((next() % 1_000_000) as f64 / 3.0);
    let table: Vec<(Cost, PurgeReport)> = (0..256)
        .map(|_| {
            let purge =
                PurgeReport { good_cost: cost(), adv_cost: cost(), bad_removed: 0, skipped: false };
            (cost(), purge)
        })
        .collect();
    let pairs = n_ops / 2;
    let started = Instant::now();
    for pair in 0..pairs {
        let (spent, purge) = &table[pair as usize % table.len()];
        state.charge_root_adversary(Purpose::Entrance, *spent);
        state.apply_purge(purge);
    }
    let wall_secs = started.elapsed().as_secs_f64();
    std::hint::black_box((state.good_total(), state.adversary_total()));
    QueueBenchResult::new(name, 2 * pairs, wall_secs)
}

/// Runs the full suite. All measurements are single-threaded so the
/// numbers compare engine work, not scheduling luck.
pub fn run_suite() -> PerfReport {
    let n_ops = if crate::sweep::fast_mode() { 400_000 } else { 2_000_000 };
    let best_of = |run: &dyn Fn() -> QueueBenchResult| {
        (0..reps())
            .map(|_| run())
            .min_by(|a, b| a.wall_secs.total_cmp(&b.wall_secs))
            .expect("at least one rep")
    };
    let mut queue = vec![best_of(&|| {
        let q = EventQueue::with_horizon(Time(20_000.0), 8192);
        run_queue_bench("queue_calendar", q, n_ops)
    })];
    for (name, depth) in QUEUE_DEPTHS {
        queue.push(best_of(&|| run_queue_depth_bench(name, depth, n_ops)));
    }
    queue.push(best_of(&|| run_ledger_bench("ledger_charge", n_ops)));
    // The machine-speed calibration `bench_compare` scales by: SHA-256,
    // because the entries above are code under test.
    queue.push(best_of(&|| {
        let (ops, wall_secs) = sybil_crypto::sha256::calibrate_64b();
        QueueBenchResult::new("sha256_64b", ops, wall_secs)
    }));
    let mut scenarios: Vec<ScenarioResult> =
        scenario_specs().iter().map(|(name, cells)| run_scenario(name, cells)).collect();
    // The streamed scenarios run at full size even in FAST mode: each
    // replay is subsecond, and shrinking one would change its fingerprint
    // and break the `bench_compare` drift gate against the committed
    // baseline.
    scenarios.push(run_streamed("macro_millions", 1_000_000, 500.0));
    scenarios.push(run_streamed("macro_scale", 10_000_000, 300.0));
    PerfReport { queue, scenarios }
}

/// Serializes the report as pretty-printed JSON through [`sybil_exp::json`].
pub fn to_json(report: &PerfReport) -> String {
    use sybil_exp::json::Value;
    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
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
        // Provenance only (no gate reads it): the cores of the machine
        // that produced the numbers.
        (
            "available_parallelism",
            std::thread::available_parallelism().map_or(1, |n| n.get()).into(),
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
    // An op is one push or one pop (one ledger call), so a pair costs two.
    out.push_str("ns per pop+push (ledger_charge: per charge+purge):");
    for q in report.queue.iter().filter(|q| q.name != "sha256_64b") {
        out.push_str(&format!("  {} {:.1}", q.name, 2e9 / q.ops_per_sec));
    }
    out.push('\n');
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
    fn json_is_well_formed_enough() {
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
        let sections = ["alloc_counting", "alloc_mode", "queue", "scenarios"];
        assert_eq!(keys[..2], ["generated_unix_secs", "available_parallelism"]);
        assert_eq!(keys[2..], sections);
        assert!(root.num("generated_unix_secs").unwrap() > 0.0);
        assert!(root.num("available_parallelism").unwrap() >= 1.0);
        assert_eq!(root.get("alloc_counting"), Some(&Value::Bool(alloc_counting())));
        assert_eq!(root.get("alloc_mode").and_then(Value::as_str), Some(alloc_mode_label()));
        // The measured sections, member for member and in order (`purges`
        // lives in the fingerprint, not at scenario level).
        let want = |text: &str| parse(text.as_bytes()).unwrap();
        assert_eq!(
            root.get("queue"),
            Some(&want(r#"{"queue_calendar": {"ops": 10, "wall_secs": 0.1, "ops_per_sec": 100}}"#))
        );
        assert_eq!(
            root.get("scenarios"),
            Some(&want(
                r#"{"s": {"events": 5, "wall_secs": 0.5, "events_per_sec": 10,
                    "peak_queue_len": 3, "resident_bytes": 4096, "loop_allocs": 7, "loop_alloc_bytes": 256, "allocs_per_event": 1.4,
                    "fingerprint": {"good_joins_admitted": 11, "bad_joins_admitted": 12,
                                    "purges": 13, "good_spend": 14.5, "adv_spend": 0.00001}}}"#
            ))
        );

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
    fn reps_parsing_is_strict() {
        use std::env::VarError;
        assert_eq!(parse_reps(Err(VarError::NotPresent)), Ok(5));
        assert_eq!(parse_reps(Ok("3".into())), Ok(3));
        for bad in ["0", "abc", "-1", "2.5", ""] {
            let err = parse_reps(Ok(bad.into())).unwrap_err();
            assert!(err.contains("SYBIL_BENCH_REPS"), "{err}");
        }
    }

    #[test]
    fn queue_bench_runs() {
        let r = run_queue_bench("q", EventQueue::with_horizon(Time(20_000.0), 8192), 10_000);
        assert!(r.ops >= 10_000);
        assert!(r.ops_per_sec > 0.0);
        // 50 pairs a fill at depth 100: exactly 10 000 timed ops.
        let r = run_queue_depth_bench("d", 100, 10_000);
        assert_eq!(r.ops, 10_000);
        assert!(r.ops_per_sec > 0.0);
        // A fill deeper than the whole budget is cut short, not skipped.
        assert_eq!(run_queue_depth_bench("d", 10_000, 1_000).ops, 1_000);
        let r = run_ledger_bench("l", 1_001);
        assert_eq!(r.ops, 1_000);
        assert!(r.ops_per_sec > 0.0);
    }
}
