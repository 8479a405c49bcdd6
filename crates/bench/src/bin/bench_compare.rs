//! `bench_compare` — the CI bench-regression gate.
//!
//! Compares a freshly generated `BENCH_engine.json` against the committed
//! baseline and fails (exit 1) when any scenario present in both
//! regresses by more than the tolerance in events/sec, when a baseline
//! scenario, gate scenario or `"queue"` entry disappears, or when a shared
//! scenario's behavior fingerprint drifts (fingerprints are seed-pinned
//! counters, so drift means the simulation's *behavior* changed, not just
//! its speed).
//!
//! ```text
//! Usage: bench_compare BASELINE.json FRESH.json [--tolerance 0.25]
//! ```
//!
//! Two sources of cross-machine noise are handled explicitly:
//!
//! * **Hardware speed.** The committed baseline is generated on a
//!   developer workstation; CI runs on slower shared runners. Both
//!   reports carry a `sha256_64b` calibration entry in their `"queue"`
//!   section — a chain of SHA-256 hashes, a pure CPU proxy that slows
//!   with the *machine* — and the scenario floor is scaled by its
//!   fresh/baseline ratio before the tolerance applies. The ratio is
//!   never read from the `queue_*` entries beside it: they are code under
//!   test, and a queue that got 2.3× faster would fail every scenario it
//!   had sped up by less. The ratio is 1.0 unless both reports carry the
//!   entry (a fresh report that lost it fails: `micro_failures`). Two of
//!   the entries, `queue_calendar` and `ledger_charge`, are held to the
//!   same scaled floor as a scenario. The calibration is itself code,
//!   SHA-256's portable compression body (`calibrate_64b` runs it on
//!   every CPU, whatever body `Sha256` picks), so the rule is
//!   `perf`'s: a change to the portable body regenerates the committed
//!   report in the same change, or it reads as a faster machine and raises
//!   every floor by its speed-up. The calibration is CPU-bound and can
//!   miss how far a contended box slows the memory-bound scenarios, so
//!   when a floor fails every shared scenario's own fresh/baseline ratio
//!   is printed beside it. It can also run ahead of the probes: on a box
//!   whose portable SHA-256 runs twice the committed report's speed while
//!   its queue and ledger hardly move, `queue_calendar` and
//!   `ledger_charge` FAIL as 48–53 % regressions on unchanged code.
//! * **libm rounding.** The spend fields of a fingerprint are f64 sums
//!   whose `ln`/`powf` inputs are not correctly rounded and may differ by
//!   ulps across libm versions; they are compared with a 1e-9 relative
//!   tolerance. The integer counters are compared exactly.
//!
//! The `"gate"` section holds the admission-service scenarios. They are
//! gated on two axes: the `decision_fingerprint` (a SHA-256 over the
//! service's wall-clock-free decision log) must match the baseline
//! exactly, and `verifications_per_sec` must clear the same
//! machine-adjusted floor the engine scenarios use.
//!
//! Both reports are read by `perf::from_json`, the reader beside the
//! `perf::to_json` that wrote them, which owns the format: a report
//! missing any field is a parse error naming it. Both carry measured
//! allocation counts (`bench_report` always counts), so the two alloc
//! gates of [`alloc_failures`] always apply.

use std::process::ExitCode;
use sybil_bench::perf::{self, GateResult, PerfReport, QueueBenchResult, ScenarioResult};

/// Absolute per-event slack for the alloc *regression* gate (scenarios
/// outside `perf::scenario_specs`: the disk-streamed `macro_millions` and
/// `macro_scale`, whose counts are deterministic). Catches a reintroduced
/// per-event allocation, which costs 1.0 per event — three orders of
/// magnitude above the slack.
const ALLOC_ABS_SLACK: f64 = 0.001;

/// Compares gate scenarios: exact decision-fingerprint identity, plus the
/// machine-adjusted verifications/sec floor.
fn compare_gate(
    baseline: &[GateResult],
    fresh: &[GateResult],
    tolerance: f64,
    speed_ratio: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for base in baseline {
        let Some(now) = fresh.iter().find(|s| s.name == base.name) else {
            failures
                .push(format!("gate scenario {:?} disappeared from the fresh report", base.name));
            continue;
        };
        if base.decision_fingerprint != now.decision_fingerprint {
            failures.push(format!(
                "gate scenario {:?}: decision fingerprint drifted — the admission decisions \
                 changed, not just their speed\n  baseline: {}\n  fresh:    {}",
                base.name, base.decision_fingerprint, now.decision_fingerprint
            ));
        }
        failures.extend(floor_failure(
            format_args!("gate scenario {:?}", base.name),
            &base.name,
            "verifications/s",
            (base.verifications_per_sec, now.verifications_per_sec),
            tolerance,
            speed_ratio,
        ));
    }
    failures
}

/// The one throughput floor every gated number is held to: the baseline,
/// rescaled to the fresh machine, less the tolerance. Prints the pair as
/// `name`'s line of the comparison table.
fn floor_failure(
    what: std::fmt::Arguments<'_>,
    name: &str,
    unit: &str,
    (base, now): (f64, f64),
    tolerance: f64,
    speed_ratio: f64,
) -> Option<String> {
    println!(
        "  {name:<28} baseline {base:>14.0} {unit:<15} fresh {now:>14.0} {unit:<15} ({:+.1}%)",
        100.0 * (now / base - 1.0)
    );
    let expected = base * speed_ratio;
    (now < expected * (1.0 - tolerance)).then(|| {
        format!(
            "{what}: {now:.0} {unit} is a {:.0}% {FLOOR_FAILED} \
             {expected:.0} (raw baseline {base:.0} × speed ratio {speed_ratio:.2}; tolerance \
             {:.0}%)",
            100.0 * (1.0 - now / expected),
            100.0 * tolerance,
        )
    })
}

/// What every failed throughput floor says.
const FLOOR_FAILED: &str = "regression from the machine-adjusted baseline";

/// Whether the code or the box moved, printed when a floor fails: every
/// shared scenario's fresh/baseline events/s beside the `sha256_64b`
/// ratio that scaled the floors. Scenarios the change cannot reach that
/// slowed far more than the calibration say the box was contended, not
/// that the code regressed. Nothing here is gated.
fn box_moved(
    baseline: &[ScenarioResult],
    fresh: &[ScenarioResult],
    speed_ratio: f64,
) -> Vec<String> {
    let mut lines = vec![format!(
        "a floor failed; fresh/baseline events/s beside sha256_64b {speed_ratio:.2}×:"
    )];
    for base in baseline {
        if let Some(now) = fresh.iter().find(|s| s.name == base.name) {
            let ratio = now.events_per_sec / base.events_per_sec;
            lines.push(format!("  {:<28} {ratio:.2}× (sha256_64b {speed_ratio:.2}×)", base.name));
        }
    }
    lines
}

/// The `ops_per_sec` of the `"queue"` entry `name`, if the report has one.
fn ops_per_sec(queue: &[QueueBenchResult], name: &str) -> Option<f64> {
    queue.iter().find(|q| q.name == name).map(|q| q.ops_per_sec)
}

/// The fresh/baseline machine-speed ratio: that of the `sha256_64b`
/// calibration entries, 1.0 unless both reports carry one (a fresh report
/// that lost it fails in [`micro_failures`]). The `queue_*` entries are
/// code under test and never enter it.
fn speed_ratio(baseline: &[QueueBenchResult], fresh: &[QueueBenchResult]) -> f64 {
    let sha256 = |queue| ops_per_sec(queue, "sha256_64b").filter(|&ops| ops > 0.0);
    match (sha256(baseline), sha256(fresh)) {
        (Some(base), Some(now)) => now / base,
        _ => 1.0,
    }
}

/// How much more a pop+push pair may cost at the deepest standing
/// population of `perf::QUEUE_DEPTHS` than at the shallowest.
const MAX_DEPTH_COST_RATIO: f64 = 2.0;

/// Holds the queue flat in depth: within the fresh report
/// alone, so no machine scaling applies. A fresh report that lost a probe
/// the baseline has fails in [`micro_failures`] instead.
fn depth_failures(fresh: &[QueueBenchResult]) -> Vec<String> {
    let [(shallowest, _), .., (deepest, _)] = perf::QUEUE_DEPTHS;
    let (Some(shallow), Some(deep)) = (ops_per_sec(fresh, shallowest), ops_per_sec(fresh, deepest))
    else {
        return Vec::new();
    };
    let ratio = shallow / deep;
    println!("  {deepest} costs {ratio:.2}× {shallowest} per pop+push");
    if ratio <= MAX_DEPTH_COST_RATIO {
        return Vec::new();
    }
    vec![format!(
        "{deepest} costs {ratio:.2}× {shallowest} per pop+push (limit \
         {MAX_DEPTH_COST_RATIO}×): the event queue is no longer flat in depth"
    )]
}

/// The `"queue"` entries that are one layer of an engine event and
/// nothing else — the event queue at the engine's own depth, the ledger's
/// half of a purge round trip — and so carry a throughput floor of their
/// own, scaled as a scenario's is. They are never the scale.
const FLOORED_MICROS: [&str; 2] = ["queue_calendar", "ledger_charge"];

/// Fails each baseline `"queue"` entry the fresh report lost (a renamed or
/// dropped probe would take its gate with it) and holds [`FLOORED_MICROS`]
/// to the machine-adjusted floor. A baseline without an entry does not
/// gate it.
fn micro_failures(
    baseline: &[QueueBenchResult],
    fresh: &[QueueBenchResult],
    tolerance: f64,
    speed_ratio: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for QueueBenchResult { name, ops_per_sec: base, .. } in baseline {
        let Some(now) = ops_per_sec(fresh, name) else {
            failures.push(format!("queue entry {name:?} disappeared from the fresh report"));
            continue;
        };
        if !FLOORED_MICROS.contains(&name.as_str()) {
            continue;
        }
        failures.extend(floor_failure(
            format_args!("{name}"),
            name,
            "ops/s",
            (*base, now),
            tolerance,
            speed_ratio,
        ));
    }
    failures
}

/// Compares baseline vs fresh; returns human-readable failures.
///
/// `speed_ratio` rescales the baseline throughput to the fresh machine
/// (see the module docs) before the tolerance applies.
fn compare(
    baseline: &[ScenarioResult],
    fresh: &[ScenarioResult],
    tolerance: f64,
    speed_ratio: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for base in baseline {
        let Some(now) = fresh.iter().find(|s| s.name == base.name) else {
            failures.push(format!("scenario {:?} disappeared from the fresh report", base.name));
            continue;
        };
        if !base.fingerprint.matches(&now.fingerprint) {
            failures.push(format!(
                "scenario {:?}: behavior fingerprint changed\n  baseline: {:?}\n  fresh:    {:?}",
                base.name, base.fingerprint, now.fingerprint
            ));
        }
        failures.extend(floor_failure(
            format_args!("scenario {:?}", base.name),
            &base.name,
            "events/s",
            (base.events_per_sec, now.events_per_sec),
            tolerance,
            speed_ratio,
        ));
        let (rounds, collapsed, purges) =
            (now.adversary_rounds, now.purges_collapsed, now.fingerprint.purges);
        println!(
            "  {:<28} {rounds} adversary rounds, {collapsed} of {purges} purges collapsed",
            ""
        );
        println!("  {:<28} {} queue pops (baseline {})", "", now.queue_pops, base.queue_pops);
    }
    failures
}

/// Gates steady-state allocation budgets within and across reports. Both
/// reports are measurements: `bench_report` registers the counting
/// allocator, and `perf::run_suite` refuses to run without it.
///
/// * **Zero budget** — every fully resident scenario
///   (`perf::scenario_specs`) in the fresh report must hold
///   `allocs_per_event` at exactly zero. Nothing there is lazily
///   materialized inside the loop. This gate needs no baseline: zero is
///   the contract, not a relative floor.
/// * **Regression** — a shared scenario's `allocs_per_event` may not
///   exceed the baseline beyond [`ALLOC_ABS_SLACK`]. Allocation counts are
///   event-order-determined, not machine-speed-dependent, so no speed
///   ratio applies.
fn alloc_failures(baseline: &[ScenarioResult], fresh: &[ScenarioResult]) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, _) in perf::scenario_specs() {
        let Some(now) = fresh.iter().find(|s| s.name == name) else { continue };
        let ape = now.allocs_per_event;
        if ape > 0.0 {
            failures.push(format!(
                "scenario {name:?}: {ape} allocation(s) per event in the steady-state loop — \
                 the zero-allocation hot-path contract is broken (something in the per-event \
                 path allocates again; see crates/sim/README.md, \"Allocation budget\")",
            ));
        }
    }
    for base in baseline {
        let Some(now) = fresh.iter().find(|s| s.name == base.name) else { continue };
        let (then, now) = (base.allocs_per_event, now.allocs_per_event);
        if now > then + ALLOC_ABS_SLACK {
            failures.push(format!(
                "scenario {:?}: allocs/event grew from {then} to {now} \
                 (slack {ALLOC_ABS_SLACK}) — the steady-state loop allocates more than \
                 the committed baseline",
                base.name,
            ));
        }
    }
    failures
}

fn usage() -> ! {
    eprintln!("Usage: bench_compare BASELINE.json FRESH.json [--tolerance 0.25]");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut tolerance = 0.25f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--tolerance" {
            let Some(v) = it.next().and_then(|v| v.parse().ok()) else { usage() };
            tolerance = v;
        } else {
            paths.push(arg.clone());
        }
    }
    if paths.len() != 2 || !(0.0..1.0).contains(&tolerance) {
        usage();
    }
    let read = |path: &str| -> PerfReport {
        let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        sybil_exp::json::parse(&bytes)
            .and_then(|root| perf::from_json(&root))
            .unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
    };
    let PerfReport { scenarios: baseline, gate: base_gate, queue: base_queue } = read(&paths[0]);
    let PerfReport { scenarios: fresh, gate: fresh_gate, queue: fresh_queue } = read(&paths[1]);
    let ratio = speed_ratio(&base_queue, &fresh_queue);
    println!(
        "comparing {} baseline scenario(s) against {} (machine speed ratio {ratio:.2})",
        baseline.len(),
        paths[1]
    );
    let mut failures = compare(&baseline, &fresh, tolerance, ratio);
    for s in fresh.iter().filter(|s| !baseline.iter().any(|b| b.name == s.name)) {
        println!("  {:<28} new scenario (no baseline), {:.0} events/s", s.name, s.events_per_sec);
    }
    failures.extend(compare_gate(&base_gate, &fresh_gate, tolerance, ratio));
    failures.extend(micro_failures(&base_queue, &fresh_queue, tolerance, ratio));
    failures.extend(depth_failures(&fresh_queue));
    failures.extend(alloc_failures(&baseline, &fresh));
    if failures.iter().any(|f| f.contains(FLOOR_FAILED)) {
        for line in box_moved(&baseline, &fresh, ratio) {
            println!("{line}");
        }
    }
    if failures.is_empty() {
        println!(
            "OK: no scenario regressed more than {:.0}% (machine-adjusted)",
            100.0 * tolerance
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sybil_bench::perf::Fingerprint;
    use sybil_exp::json::parse;

    fn fp(purges: u64) -> Fingerprint {
        Fingerprint {
            good_joins_admitted: 1,
            bad_joins_admitted: 2,
            purges,
            good_spend: 1000.0,
            adv_spend: 500.0,
        }
    }

    fn scenario(name: &str, eps: f64, purges: u64) -> ScenarioResult {
        ScenarioResult {
            name: name.into(),
            events_per_sec: eps,
            fingerprint: fp(purges),
            ..ScenarioResult::default()
        }
    }

    /// The two-scenario baseline the scenario gates are tested against.
    fn baseline(eps: f64, purges: u64) -> Vec<ScenarioResult> {
        vec![scenario("a", eps, purges), scenario("b", 50.0, 1)]
    }

    /// `"queue"` entries from `(name, ops_per_sec)` pairs.
    fn queue(entries: &[(&str, f64)]) -> Vec<QueueBenchResult> {
        let entry = |&(name, ops_per_sec): &(&str, f64)| QueueBenchResult {
            name: name.into(),
            ops_per_sec,
            ..QueueBenchResult::default()
        };
        entries.iter().map(entry).collect()
    }

    fn gate(vps: f64, fingerprint: &str) -> Vec<GateResult> {
        vec![GateResult {
            name: "gate_honest".into(),
            verifications_per_sec: vps,
            decision_fingerprint: fingerprint.into(),
            ..GateResult::default()
        }]
    }

    /// `report` as `perf::to_json` writes it, read back by `from_json`.
    fn round_trip(report: &PerfReport) -> Result<PerfReport, String> {
        perf::from_json(&parse(perf::to_json(report).as_bytes()).unwrap())
    }

    /// A report the writer wrote reads back whole, and compares clean
    /// against itself.
    #[test]
    fn parses_scenarios_and_queue() {
        let report = PerfReport {
            queue: queue(&[("queue_calendar", 2e7)]),
            scenarios: baseline(1234.5, 7),
            gate: gate(5e4, "abc123"),
        };
        let read = round_trip(&report).unwrap();
        assert_eq!(read, report);
        assert!(compare(&read.scenarios, &report.scenarios, 0.25, 1.0).is_empty());
        assert!(compare_gate(&read.gate, &report.gate, 0.25, 1.0).is_empty());
        assert!(micro_failures(&read.queue, &report.queue, 0.25, 1.0).is_empty());
    }

    /// The committed report reads and passes every gate against itself.
    #[test]
    fn parses_the_real_report_shape() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
        let bytes = std::fs::read(path).unwrap();
        let report = perf::from_json(&parse(&bytes).unwrap()).unwrap();
        let names = |names: Vec<&str>| names.join(" ");
        assert_eq!(
            names(report.queue.iter().map(|q| q.name.as_str()).collect()),
            "queue_calendar queue_depth_1e2 queue_depth_1e4 queue_depth_1e6 ledger_charge \
             sha256_64b"
        );
        let resident = perf::scenario_specs().into_iter().map(|(name, _)| name);
        assert_eq!(
            names(report.scenarios.iter().map(|s| s.name.as_str()).collect()),
            names(resident.chain(["macro_millions", "macro_scale"]).collect())
        );
        assert_eq!(
            names(report.gate.iter().map(|g| g.name.as_str()).collect()),
            "gate_honest gate_adversarial"
        );
        let (scenarios, queue) = (&report.scenarios, &report.queue);
        assert_eq!(speed_ratio(queue, queue), 1.0);
        assert!(compare(scenarios, scenarios, 0.25, 1.0).is_empty());
        assert!(compare_gate(&report.gate, &report.gate, 0.25, 1.0).is_empty());
        assert!(micro_failures(queue, queue, 0.25, 1.0).is_empty());
        assert!(depth_failures(queue).is_empty());
        assert!(alloc_failures(scenarios, scenarios).is_empty());
    }

    #[test]
    fn flags_regressions_and_disappearances_but_not_noise() {
        let baseline = baseline(1000.0, 7);
        let b = scenario("b", 50.0, 1);
        // 10% slower: within a 25% tolerance.
        assert!(compare(&baseline, &[scenario("a", 900.0, 7), b.clone()], 0.25, 1.0).is_empty());
        // 30% slower: flagged.
        let failures = compare(&baseline, &[scenario("a", 700.0, 7), b.clone()], 0.25, 1.0);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("regression"), "{}", failures[0]);
        // Missing scenario: flagged.
        assert!(compare(&baseline, &[b], 0.25, 1.0)[0].contains("disappeared"));
    }

    #[test]
    fn speed_ratio_rescales_the_floor_for_slower_machines() {
        let baseline = baseline(1000.0, 7);
        let b = scenario("b", 25.0, 1);
        // Fresh machine runs the calibration at half speed: 500 ev/s on
        // scenario "a" (and 25 on "b") is expected, not a regression.
        let halved = vec![scenario("a", 500.0, 7), b.clone()];
        assert!(compare(&baseline, &halved, 0.25, 0.5).is_empty());
        // But at ratio 1.0 the same numbers fail.
        assert!(!compare(&baseline, &halved, 0.25, 1.0).is_empty());
        // And a real engine regression still fails under the scaled floor.
        let engine_only = vec![scenario("a", 300.0, 7), b];
        assert_eq!(compare(&baseline, &engine_only, 0.25, 0.5).len(), 1);
    }

    /// A failed floor says it failed in the words `main` looks for, and
    /// the box report then gives each shared scenario's own ratio beside
    /// the calibration's (a scenario only one side has is left out).
    #[test]
    fn a_failed_floor_prints_every_shared_scenario_ratio_beside_the_calibration() {
        let baseline = baseline(1000.0, 7);
        let fresh = [scenario("a", 500.0, 7), scenario("c", 1.0, 1)];
        let failures = compare(&baseline, &fresh, 0.25, 0.8);
        assert!(failures.iter().any(|f| f.contains(FLOOR_FAILED)), "{failures:?}");
        let lines = box_moved(&baseline, &fresh, 0.8);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("sha256_64b 0.80×"), "{lines:?}");
        assert!(
            lines[1].contains('a') && lines[1].contains("0.50× (sha256_64b 0.80×)"),
            "{lines:?}"
        );
    }

    #[test]
    fn speed_ratio_is_the_sha256_calibration_alone() {
        let calibrated = |calendar: f64, sha256: f64| {
            queue(&[("queue_calendar", calendar), ("sha256_64b", sha256)])
        };
        assert_eq!(speed_ratio(&calibrated(100.0, 100.0), &calibrated(50.0, 200.0)), 2.0);
        // Without the calibration on both sides there is no ratio: the
        // shared `queue_calendar` is not a stand-in.
        let uncalibrated = queue(&[("queue_calendar", 100.0)]);
        assert_eq!(speed_ratio(&uncalibrated, &calibrated(230.0, 200.0)), 1.0);
        assert_eq!(speed_ratio(&calibrated(100.0, 100.0), &uncalibrated), 1.0);
        assert_eq!(speed_ratio(&[], &[]), 1.0);
    }

    /// PR 23's failure, pinned: the queue got 2.3× faster, every scenario
    /// a little, and the old ratio (read off `queue_calendar`) failed all
    /// of them as "56-60 % regressions".
    #[test]
    fn a_faster_queue_bench_does_not_fail_unchanged_scenarios() {
        let scenarios = baseline(1000.0, 7);
        let calibrated =
            |calendar: f64| queue(&[("queue_calendar", calendar), ("sha256_64b", 7e5)]);
        let ratio = speed_ratio(&calibrated(20e6), &calibrated(46e6));
        assert_eq!(ratio, 1.0);
        assert!(compare(&scenarios, &scenarios, 0.25, ratio).is_empty());
        // What a ratio of 2.3 made of the same pair of reports.
        assert_eq!(compare(&scenarios, &scenarios, 0.25, 2.3).len(), 2);
    }

    #[test]
    fn the_calendar_and_ledger_probes_have_a_scaled_floor_and_are_never_the_scale() {
        let probes = |calendar: f64, ledger: f64, sha256: f64| {
            queue(&[
                ("queue_calendar", calendar),
                ("ledger_charge", ledger),
                ("sha256_64b", sha256),
            ])
        };
        let base = probes(46e6, 230e6, 1.4e6);
        // A ledger probe 3× faster moves no ratio and fails nothing.
        assert_eq!(speed_ratio(&base, &probes(46e6, 700e6, 1.4e6)), 1.0);
        assert!(micro_failures(&base, &probes(46e6, 700e6, 1.4e6), 0.25, 1.0).is_empty());
        // 20 % slower: inside the tolerance. 30 % slower: named.
        assert!(micro_failures(&base, &probes(37e6, 184e6, 1.4e6), 0.25, 1.0).is_empty());
        let failures = micro_failures(&base, &probes(46e6, 160e6, 1.4e6), 0.25, 1.0);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].starts_with("ledger_charge: "), "{}", failures[0]);
        // On a machine at half speed, half the throughput is expected.
        assert!(micro_failures(&base, &probes(23e6, 115e6, 0.7e6), 0.25, 0.5).is_empty());
        // A baseline without the probes does not gate them.
        let old = queue(&[("sha256_64b", 1.4e6)]);
        assert!(micro_failures(&old, &probes(1.0, 1.0, 1.4e6), 0.25, 1.0).is_empty());
    }

    /// A probe the baseline has and the fresh report lost fails, so a PR
    /// that renames or drops one cannot take its gate with it: the
    /// ledger's floor, the depth gate and the speed ratio.
    #[test]
    fn a_queue_entry_missing_from_the_fresh_report_fails() {
        let names = ["queue_calendar", "queue_depth_1e2", "queue_depth_1e6", "ledger_charge"];
        let mut entries: Vec<(&str, f64)> = names.iter().map(|&n| (n, 50e6)).collect();
        entries.push(("sha256_64b", 2e6));
        let base = queue(&entries);
        assert!(micro_failures(&base, &base, 0.25, 1.0).is_empty());
        for lost in ["ledger_charge", "queue_depth_1e6", "sha256_64b"] {
            let fresh: Vec<_> = base.iter().filter(|q| q.name != lost).cloned().collect();
            let failures = micro_failures(&base, &fresh, 0.25, speed_ratio(&base, &fresh));
            assert_eq!(failures.len(), 1, "{lost}: {failures:?}");
            let want = format!("queue entry {lost:?} disappeared from the fresh report");
            assert_eq!(failures[0], want);
        }
    }

    #[test]
    fn the_deepest_queue_probe_may_cost_twice_the_shallowest_and_no_more() {
        let depths = |shallow: f64, deep: f64| {
            queue(&[
                ("queue_calendar", 1.0),
                ("queue_depth_1e2", shallow),
                ("queue_depth_1e4", 1.0),
                ("queue_depth_1e6", deep),
            ])
        };
        assert!(depth_failures(&depths(80e6, 75e6)).is_empty());
        assert!(depth_failures(&depths(80e6, 40e6)).is_empty());
        let failures = depth_failures(&depths(80e6, 39e6));
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("no longer flat in depth"), "{}", failures[0]);
    }

    #[test]
    fn flags_fingerprint_drift_even_when_fast() {
        let baseline = baseline(1000.0, 7);
        let drifted = vec![scenario("a", 5000.0, 8), scenario("b", 50.0, 1)];
        let failures = compare(&baseline, &drifted, 0.25, 1.0);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("fingerprint"), "{}", failures[0]);
    }

    /// There is one report shape: a gate section does not make up for a
    /// missing `"scenarios"`.
    #[test]
    fn a_gate_section_does_not_stand_in_for_scenarios() {
        let report =
            PerfReport { queue: Vec::new(), scenarios: Vec::new(), gate: gate(5e4, "abc") };
        let root = parse(perf::to_json(&report).as_bytes()).unwrap();
        assert_eq!(perf::from_json(&root).unwrap(), report);
        let sybil_exp::json::Value::Obj(mut members) = root else { panic!("not an object") };
        members.retain(|(key, _)| key != "scenarios");
        let err = perf::from_json(&sybil_exp::json::Value::Obj(members)).unwrap_err();
        assert_eq!(err, "no scenarios");
    }

    #[test]
    fn gate_fingerprint_drift_fails_even_when_fast() {
        let baseline = gate(50000.0, "abc123");
        let failures = compare_gate(&baseline, &gate(90000.0, "def456"), 0.25, 1.0);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("decision fingerprint drifted"), "{}", failures[0]);
        // Identical fingerprints and healthy throughput: clean.
        assert!(compare_gate(&baseline, &gate(48000.0, "abc123"), 0.25, 1.0).is_empty());
    }

    #[test]
    fn gate_throughput_floor_is_machine_adjusted() {
        let baseline = gate(50000.0, "abc123");
        let halved = gate(25000.0, "abc123");
        // On a machine whose sha256 proxy runs at half speed this is fine…
        assert!(compare_gate(&baseline, &halved, 0.25, 0.5).is_empty());
        // …but on an equal machine it is a real regression.
        let failures = compare_gate(&baseline, &halved, 0.25, 1.0);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("regression"), "{}", failures[0]);
        // Disappearance is flagged.
        assert!(compare_gate(&baseline, &[], 0.25, 1.0)[0].contains("disappeared"));
    }

    /// A throughput written as `null` (the run produced a non-finite
    /// number) is reported as such, not as a missing field.
    #[test]
    fn non_finite_throughput_is_named_in_the_parse_error() {
        let report = |eps: f64, vps: f64| PerfReport {
            queue: Vec::new(),
            scenarios: baseline(eps, 7),
            gate: gate(vps, "abc123"),
        };
        let err = round_trip(&report(f64::NAN, 1.0)).unwrap_err();
        assert_eq!(err, "scenarios: a: events_per_sec is non-finite (written as null)");
        let err = round_trip(&report(1.0, f64::INFINITY)).unwrap_err();
        assert_eq!(err, "gate: gate_honest: verifications_per_sec is non-finite (written as null)");
    }

    fn alloc_scenario(name: &str, allocs_per_event: f64) -> ScenarioResult {
        ScenarioResult { allocs_per_event, ..scenario(name, 1000.0, 1) }
    }

    #[test]
    fn zero_alloc_budget_gates_the_core_scenarios() {
        // A core scenario allocating in the steady-state loop fails…
        let fresh =
            vec![alloc_scenario("macro_sweep", 0.25), alloc_scenario("macro_millions", 0.01)];
        let failures = alloc_failures(&[], &fresh);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("macro_sweep"), "{}", failures[0]);
        assert!(failures[0].contains("zero-allocation"), "{}", failures[0]);
        // …at exactly zero it passes (macro_millions is not zero-gated).
        let clean = vec![
            alloc_scenario("macro_sweep", 0.0),
            alloc_scenario("gnutella_ergo_t1024", 0.0),
            alloc_scenario("gnutella_sybilcontrol_t64", 0.0),
            alloc_scenario("macro_millions", 0.01),
        ];
        assert!(alloc_failures(&[], &clean).is_empty());
    }

    /// The zero budget covers every resident scenario `perf` runs, so one
    /// added there is gated without a change here.
    #[test]
    fn every_resident_scenario_is_zero_gated() {
        let specs = perf::scenario_specs();
        assert_eq!(specs.len(), 5);
        for (name, _) in specs {
            let failures = alloc_failures(&[], &[alloc_scenario(name, 1e-6)]);
            assert_eq!(failures.len(), 1, "{name}");
            assert!(failures[0].starts_with(&format!("scenario {name:?}: ")), "{}", failures[0]);
        }
    }

    #[test]
    fn alloc_regression_gate_allows_the_slack_and_no_more() {
        let baseline = vec![alloc_scenario("macro_millions", 0.001)];
        // Growth beyond the slack fails.
        let grown = vec![alloc_scenario("macro_millions", 0.1)];
        let failures = alloc_failures(&baseline, &grown);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("allocs/event grew"), "{}", failures[0]);
        // Within the slack: scheduling jitter, not a regression.
        let jitter = vec![alloc_scenario("macro_millions", 0.0015)];
        assert!(alloc_failures(&baseline, &jitter).is_empty());
    }

    #[test]
    fn spend_sums_tolerate_libm_ulp_drift_but_not_real_drift() {
        let a = fp(7);
        let mut ulp = a.clone();
        ulp.good_spend = 1000.0 * (1.0 + 1e-12); // cross-libm rounding
        assert!(a.matches(&ulp));
        let mut real = a.clone();
        real.good_spend = 1001.0; // an actual behavior change
        assert!(!a.matches(&real));
        let mut counter = a.clone();
        counter.bad_joins_admitted += 1; // counters are exact
        assert!(!a.matches(&counter));
    }
}
