//! `bench_compare` — the CI bench-regression gate.
//!
//! Compares a freshly generated `BENCH_engine.json` against the committed
//! baseline and fails (exit 1) when any scenario present in both
//! regresses by more than the tolerance in events/sec, when a baseline
//! scenario disappears, or when a shared scenario's behavior fingerprint
//! drifts (fingerprints are seed-pinned counters, so drift means the
//! simulation's *behavior* changed, not just its speed).
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
//!   had sped up by less. A report without the entry is compared at ratio
//!   1.0. Two of those entries, `queue_calendar` and `ledger_charge`, are
//!   held to the same scaled floor as a scenario (`micro_failures`).
//! * **libm rounding.** The spend fields of a fingerprint are f64 sums
//!   whose `ln`/`powf` inputs are not correctly rounded and may differ by
//!   ulps across libm versions; they are compared with a 1e-9 relative
//!   tolerance. The integer counters are compared exactly.
//!
//! Reports may also (or only) carry a `"gate"` section — the admission
//! service baseline `gate_bench` writes to `BENCH_gate.json`. Gate
//! scenarios are gated on two axes: the `decision_fingerprint` (a SHA-256
//! over the service's wall-clock-free decision log) must match the
//! baseline exactly, and `verifications_per_sec` must clear the same
//! machine-adjusted floor the engine scenarios use. A report whose only
//! payload is a gate section needs no `"scenarios"` block.
//!
//! Reports are read through `sybil_exp::json` (the codec `bench_report`
//! and `gate_bench` write them with). Every lookup is by nesting level,
//! and added per-scenario keys are ignored, so the baseline may predate
//! fields the fresh report has.

use std::process::ExitCode;
use sybil_exp::json::Value;

/// The seed-pinned behavior counters of one scenario.
#[derive(Clone, Debug, PartialEq)]
struct Fp {
    good_joins_admitted: f64,
    bad_joins_admitted: f64,
    purges: f64,
    good_spend: f64,
    adv_spend: f64,
}

impl Fp {
    /// True when `other` is behaviorally identical: exact on the integer
    /// counters, within `REL_TOL` on the libm-dependent spend sums.
    fn matches(&self, other: &Fp) -> bool {
        const REL_TOL: f64 = 1e-9;
        let close = |a: f64, b: f64| (a - b).abs() <= REL_TOL * a.abs().max(b.abs());
        self.good_joins_admitted == other.good_joins_admitted
            && self.bad_joins_admitted == other.bad_joins_admitted
            && self.purges == other.purges
            && close(self.good_spend, other.good_spend)
            && close(self.adv_spend, other.adv_spend)
    }
}

/// One scenario's comparable slice of the report.
#[derive(Clone, Debug, PartialEq)]
struct Scenario {
    name: String,
    events_per_sec: f64,
    fingerprint: Fp,
    /// Steady-state allocator calls per event, when the report was
    /// produced by an `alloc-count` build (`None` for baselines that
    /// predate the field — the alloc gates then skip that side).
    allocs_per_event: Option<f64>,
}

/// Scenarios whose steady-state event loop must allocate **exactly
/// nothing**: the hot path's zero-allocation contract, gated whenever the
/// fresh report was measured (`alloc_counting: true`). Fully resident, so
/// nothing is lazily materialized inside the loop.
const ZERO_ALLOC_SCENARIOS: &[&str] =
    &["macro_sweep", "gnutella_ergo_t1024", "gnutella_sybilcontrol_t64"];

/// Absolute per-event slack for the alloc *regression* gate (scenarios
/// outside the zero list: the disk-streamed `macro_millions` and
/// `macro_scale`, whose counts are deterministic). Catches a reintroduced
/// per-event allocation, which costs 1.0 per event — three orders of
/// magnitude above the slack.
const ALLOC_ABS_SLACK: f64 = 0.001;

/// The `(name, body)` entries of the report's top-level section `key`
/// (none when the section is absent).
fn section<'a>(root: &'a Value, key: &str) -> &'a [(String, Value)] {
    root.get(key).map_or(&[], Value::members)
}

/// Parses the `"scenarios"` section of a `BENCH_engine.json`. A report
/// carrying only a `"gate"` section (`BENCH_gate.json`) legitimately has
/// no scenarios; anything else without them is malformed.
fn parse_scenarios(root: &Value) -> Result<Vec<Scenario>, String> {
    if root.get("scenarios").is_none() && root.get("gate").is_none() {
        return Err("no \"scenarios\" section".to_string());
    }
    let mut out = Vec::new();
    for (name, body) in section(root, "scenarios") {
        let fp = body.get("fingerprint").ok_or_else(|| format!("{name}: no fingerprint"))?;
        let fp_field = |key: &str| fp.num(key).map_err(|e| format!("{name}: fingerprint: {e}"));
        out.push(Scenario {
            name: name.clone(),
            events_per_sec: body.num("events_per_sec").map_err(|e| format!("{name}: {e}"))?,
            fingerprint: Fp {
                good_joins_admitted: fp_field("good_joins_admitted")?,
                bad_joins_admitted: fp_field("bad_joins_admitted")?,
                purges: fp_field("purges")?,
                good_spend: fp_field("good_spend")?,
                adv_spend: fp_field("adv_spend")?,
            },
            allocs_per_event: body.num("allocs_per_event").ok(),
        });
    }
    Ok(out)
}

/// One admission-gate scenario's comparable slice of a `BENCH_gate.json`.
#[derive(Clone, Debug, PartialEq)]
struct GateScenario {
    name: String,
    verifications_per_sec: f64,
    /// Hex SHA-256 of the service's decision log; machine-independent by
    /// construction (the log carries no wall-clock data), so it is
    /// compared exactly.
    decision_fingerprint: String,
}

/// Parses the optional `"gate"` section into gate scenarios.
fn parse_gate(root: &Value) -> Result<Vec<GateScenario>, String> {
    let mut out = Vec::new();
    for (name, body) in section(root, "gate") {
        out.push(GateScenario {
            name: name.clone(),
            verifications_per_sec: body
                .num("verifications_per_sec")
                .map_err(|e| format!("{name}: {e}"))?,
            decision_fingerprint: body
                .get("decision_fingerprint")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{name}: no decision_fingerprint"))?
                .to_string(),
        });
    }
    Ok(out)
}

/// Compares gate scenarios: exact decision-fingerprint identity, plus the
/// machine-adjusted verifications/sec floor.
fn compare_gate(
    baseline: &[GateScenario],
    fresh: &[GateScenario],
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
            "verifications/s",
            (base.verifications_per_sec, now.verifications_per_sec),
            tolerance,
            speed_ratio,
        ));
    }
    failures
}

/// The one throughput floor every gated number is held to: the baseline,
/// rescaled to the fresh machine, less the tolerance.
fn floor_failure(
    what: std::fmt::Arguments<'_>,
    unit: &str,
    (base, now): (f64, f64),
    tolerance: f64,
    speed_ratio: f64,
) -> Option<String> {
    let expected = base * speed_ratio;
    (now < expected * (1.0 - tolerance)).then(|| {
        format!(
            "{what}: {now:.0} {unit} is a {:.0}% regression from the machine-adjusted baseline \
             {expected:.0} (raw baseline {base:.0} × speed ratio {speed_ratio:.2}; tolerance \
             {:.0}%)",
            100.0 * (1.0 - now / expected),
            100.0 * tolerance,
        )
    })
}

/// Parses the `"queue"` section into `(name, ops_per_sec)` pairs.
fn parse_queue(root: &Value) -> Vec<(String, f64)> {
    section(root, "queue")
        .iter()
        .filter_map(|(name, body)| Some((name.clone(), body.num("ops_per_sec").ok()?)))
        .collect()
}

/// Everything the gates read from one report.
struct Report {
    scenarios: Vec<Scenario>,
    gate: Vec<GateScenario>,
    queue: Vec<(String, f64)>,
    /// Whether the alloc fields are measurements. Reports predating (or
    /// built without) the counting allocator carry structural zeros; the
    /// alloc gates treat them as unmeasured.
    counting: bool,
}

fn read_report(root: &Value) -> Result<Report, String> {
    Ok(Report {
        scenarios: parse_scenarios(root)?,
        gate: parse_gate(root)?,
        queue: parse_queue(root),
        counting: root.get("alloc_counting") == Some(&Value::Bool(true)),
    })
}

/// The fresh/baseline machine-speed ratio: that of the `sha256_64b`
/// calibration entries, 1.0 unless both reports carry one. The `queue_*`
/// entries are code under test and never enter it.
fn speed_ratio(baseline: &[(String, f64)], fresh: &[(String, f64)]) -> f64 {
    let sha256 = |queue: &[(String, f64)]| {
        queue.iter().find(|(name, ops)| name == "sha256_64b" && *ops > 0.0).map(|(_, ops)| *ops)
    };
    match (sha256(baseline), sha256(fresh)) {
        (Some(base), Some(now)) => now / base,
        _ => 1.0,
    }
}

/// How much more a pop+push pair may cost at the deepest standing
/// population of `perf::QUEUE_DEPTHS` than at the shallowest.
const MAX_DEPTH_COST_RATIO: f64 = 2.0;

/// Holds the queue flat in depth (ROADMAP 4(a)): within the fresh report
/// alone, so no machine scaling applies. Reports without the depth
/// probes (gate reports) are not gated.
fn depth_failures(fresh: &[(String, f64)]) -> Vec<String> {
    let ops = |name: &str| fresh.iter().find(|(n, _)| n == name).map(|(_, ops)| *ops);
    let [(shallowest, _), .., (deepest, _)] = sybil_bench::perf::QUEUE_DEPTHS;
    let (Some(shallow), Some(deep)) = (ops(shallowest), ops(deepest)) else {
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

/// Holds each of [`FLOORED_MICROS`] present in both reports to the
/// machine-adjusted floor. A baseline that predates an entry does not
/// gate it.
fn micro_failures(
    baseline: &[(String, f64)],
    fresh: &[(String, f64)],
    tolerance: f64,
    speed_ratio: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for name in FLOORED_MICROS {
        let ops = |queue: &[(String, f64)]| queue.iter().find(|(n, _)| n == name).map(|(_, o)| *o);
        let (Some(base), Some(now)) = (ops(baseline), ops(fresh)) else { continue };
        println!(
            "  {name:<28} baseline {base:>14.0} op/s   fresh {now:>14.0} op/s   ({:+.1}%)",
            100.0 * (now / base - 1.0)
        );
        failures.extend(floor_failure(
            format_args!("{name}"),
            "ops/s",
            (base, now),
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
    baseline: &[Scenario],
    fresh: &[Scenario],
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
            "events/s",
            (base.events_per_sec, now.events_per_sec),
            tolerance,
            speed_ratio,
        ));
    }
    failures
}

/// Gates steady-state allocation budgets within and across reports.
///
/// Two independent gates, both conditioned on the *fresh* report being a
/// live measurement (`fresh_counting`; a non-counting build reports
/// structural zeros, which must never pass as a budget):
///
/// * **Zero budget** — every [`ZERO_ALLOC_SCENARIOS`] member present in
///   the fresh report must hold `allocs_per_event` at exactly zero. This
///   gate needs no baseline: zero is the contract, not a relative floor.
/// * **Regression** — when the baseline was *also* measured, a shared
///   scenario's `allocs_per_event` may not exceed the baseline beyond
///   [`ALLOC_ABS_SLACK`]. Allocation counts are event-order-determined,
///   not machine-speed-dependent, so no speed ratio applies.
fn alloc_failures(
    baseline: &[Scenario],
    fresh: &[Scenario],
    base_counting: bool,
    fresh_counting: bool,
) -> Vec<String> {
    let mut failures = Vec::new();
    if !fresh_counting {
        return failures; // Announced by the caller; not silently dropped.
    }
    for name in ZERO_ALLOC_SCENARIOS {
        let Some(now) = fresh.iter().find(|s| &s.name == name) else { continue };
        match now.allocs_per_event {
            Some(ape) if ape > 0.0 => failures.push(format!(
                "scenario {name:?}: {ape} allocation(s) per event in the steady-state loop — \
                 the zero-allocation hot-path contract is broken (something in the per-event \
                 path allocates again; see crates/sim/README.md, \"Allocation budget\")",
            )),
            Some(_) => {}
            None => failures.push(format!(
                "scenario {name:?}: report says alloc_counting: true but carries no \
                 allocs_per_event field",
            )),
        }
    }
    if base_counting {
        for base in baseline {
            let (Some(then), Some(now)) = (
                base.allocs_per_event,
                fresh.iter().find(|s| s.name == base.name).and_then(|s| s.allocs_per_event),
            ) else {
                continue;
            };
            if now > then + ALLOC_ABS_SLACK {
                failures.push(format!(
                    "scenario {:?}: allocs/event grew from {then} to {now} \
                     (slack {ALLOC_ABS_SLACK}) — the steady-state loop allocates more than \
                     the committed baseline",
                    base.name,
                ));
            }
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
    let read = |path: &str| -> Report {
        let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        sybil_exp::json::parse(&bytes)
            .and_then(|root| read_report(&root))
            .unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
    };
    let Report { scenarios: baseline, gate: base_gate, queue: base_queue, counting: base_counting } =
        read(&paths[0]);
    let Report { scenarios: fresh, gate: fresh_gate, queue: fresh_queue, counting: fresh_counting } =
        read(&paths[1]);
    let ratio = speed_ratio(&base_queue, &fresh_queue);
    println!(
        "comparing {} baseline scenario(s) against {} (machine speed ratio {ratio:.2})",
        baseline.len(),
        paths[1]
    );
    for base in &baseline {
        if let Some(now) = fresh.iter().find(|s| s.name == base.name) {
            println!(
                "  {:<28} baseline {:>14.0} ev/s   fresh {:>14.0} ev/s   ({:+.1}%)",
                base.name,
                base.events_per_sec,
                now.events_per_sec,
                100.0 * (now.events_per_sec / base.events_per_sec - 1.0),
            );
        }
    }
    for s in &fresh {
        if !baseline.iter().any(|b| b.name == s.name) {
            println!("  {:<28} new scenario (no baseline), {:.0} ev/s", s.name, s.events_per_sec);
        }
    }
    for base in &base_gate {
        if let Some(now) = fresh_gate.iter().find(|s| s.name == base.name) {
            println!(
                "  {:<28} baseline {:>14.0} vf/s   fresh {:>14.0} vf/s   ({:+.1}%)",
                base.name,
                base.verifications_per_sec,
                now.verifications_per_sec,
                100.0 * (now.verifications_per_sec / base.verifications_per_sec - 1.0),
            );
        }
    }
    let mut failures = compare(&baseline, &fresh, tolerance, ratio);
    failures.extend(compare_gate(&base_gate, &fresh_gate, tolerance, ratio));
    failures.extend(micro_failures(&base_queue, &fresh_queue, tolerance, ratio));
    failures.extend(depth_failures(&fresh_queue));
    if fresh_counting {
        if !base_counting {
            println!(
                "alloc regression gate skipped: baseline has no measured allocation data \
                 (zero-budget gate still applies)"
            );
        }
    } else {
        println!(
            "alloc gates skipped: fresh report was not produced by a counting build \
             (run bench_report with --features alloc-count to measure)"
        );
    }
    failures.extend(alloc_failures(&baseline, &fresh, base_counting, fresh_counting));
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

    fn fp(purges: f64) -> Fp {
        Fp {
            good_joins_admitted: 1.0,
            bad_joins_admitted: 2.0,
            purges,
            good_spend: 1000.0,
            adv_spend: 500.0,
        }
    }

    /// A scenario literal without allocation data.
    fn scale_scenario(name: &str, eps: f64, purges: f64) -> Scenario {
        Scenario {
            name: name.into(),
            events_per_sec: eps,
            fingerprint: fp(purges),
            allocs_per_event: None,
        }
    }

    /// A two-scenario engine report, built with the report writer.
    fn sample_report(eps: f64, purges: u64) -> Value {
        let scenario = |events: u64, eps: f64, purges: u64| {
            Value::obj([
                ("events", events.into()),
                ("events_per_sec", eps.into()),
                (
                    "fingerprint",
                    Value::obj([
                        ("good_joins_admitted", 1u64.into()),
                        ("bad_joins_admitted", 2u64.into()),
                        ("purges", purges.into()),
                        ("good_spend", 1000u64.into()),
                        ("adv_spend", 500u64.into()),
                    ]),
                ),
            ])
        };
        let calibration = Value::obj([
            ("ops", 1u64.into()),
            ("wall_secs", 1u64.into()),
            ("ops_per_sec", 20_000_000u64.into()),
        ]);
        Value::obj([
            ("queue", Value::obj([("queue_calendar", calibration)])),
            (
                "scenarios",
                Value::obj([("a", scenario(10, eps, purges)), ("b", scenario(5, 50.0, 1))]),
            ),
        ])
    }

    #[test]
    fn parses_scenarios_and_queue() {
        let json = sample_report(1234.5, 7);
        let s = parse_scenarios(&json).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].name, "a");
        assert_eq!(s[0].events_per_sec, 1234.5);
        assert_eq!(s[0].fingerprint, fp(7.0));
        assert_eq!(s[1].name, "b");
        assert_eq!(s[1].events_per_sec, 50.0);
        assert_eq!(parse_queue(&json), vec![("queue_calendar".to_string(), 20000000.0)]);
    }

    #[test]
    fn parses_the_real_report_shape() {
        use sybil_bench::perf::{Fingerprint, PerfReport, QueueBenchResult, ScenarioResult};
        let report = PerfReport {
            queue: vec![QueueBenchResult {
                name: "queue_calendar".into(),
                ops: 10,
                wall_secs: 0.1,
                ops_per_sec: 100.0,
            }],
            scenarios: vec![ScenarioResult {
                name: "macro_sweep".into(),
                events: 1000,
                wall_secs: 0.5,
                events_per_sec: 2000.0,
                peak_queue_len: 3,
                resident_bytes: 64,
                loop_allocs: 7,
                loop_alloc_bytes: 448,
                allocs_per_event: 0.007,
                fingerprint: Fingerprint {
                    good_joins_admitted: 1,
                    bad_joins_admitted: 2,
                    purges: 3,
                    good_spend: 4.5,
                    adv_spend: 6.0,
                },
            }],
        };
        let json = sybil_exp::json::parse(sybil_bench::perf::to_json(&report).as_bytes()).unwrap();
        let parsed = parse_scenarios(&json).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].name, "macro_sweep");
        assert_eq!(parsed[0].events_per_sec, 2000.0);
        assert_eq!(parsed[0].fingerprint.purges, 3.0);
        assert_eq!(parsed[0].fingerprint.good_spend, 4.5);
        assert_eq!(parsed[0].allocs_per_event, Some(0.007));
        assert_eq!(parse_queue(&json), vec![("queue_calendar".to_string(), 100.0)]);
        // The self-describing counting flag round-trips too (this test
        // binary has no registered counting allocator, so it is false).
        assert!(!read_report(&json).unwrap().counting);
    }

    #[test]
    fn flags_regressions_and_disappearances_but_not_noise() {
        let baseline = parse_scenarios(&sample_report(1000.0, 7)).unwrap();
        let scenario = |eps: f64, p: f64| scale_scenario("a", eps, p);
        let b = scale_scenario("b", 50.0, 1.0);
        // 10% slower: within a 25% tolerance.
        assert!(compare(&baseline, &[scenario(900.0, 7.0), b.clone()], 0.25, 1.0).is_empty());
        // 30% slower: flagged.
        let failures = compare(&baseline, &[scenario(700.0, 7.0), b.clone()], 0.25, 1.0);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("regression"), "{}", failures[0]);
        // Missing scenario: flagged.
        assert!(compare(&baseline, &[b], 0.25, 1.0)[0].contains("disappeared"));
    }

    #[test]
    fn speed_ratio_rescales_the_floor_for_slower_machines() {
        let baseline = parse_scenarios(&sample_report(1000.0, 7)).unwrap();
        let b = scale_scenario("b", 25.0, 1.0);
        // Fresh machine runs the calibration at half speed: 500 ev/s on
        // scenario "a" (and 25 on "b") is expected, not a regression.
        let halved = vec![scale_scenario("a", 500.0, 7.0), b.clone()];
        assert!(compare(&baseline, &halved, 0.25, 0.5).is_empty());
        // But at ratio 1.0 the same numbers fail.
        assert!(!compare(&baseline, &halved, 0.25, 1.0).is_empty());
        // And a real engine regression still fails under the scaled floor.
        let engine_only = vec![scale_scenario("a", 300.0, 7.0), b];
        assert_eq!(compare(&baseline, &engine_only, 0.25, 0.5).len(), 1);
    }

    #[test]
    fn speed_ratio_is_the_sha256_calibration_alone() {
        let queue = |calendar: f64, sha256: f64| {
            vec![("queue_calendar".to_string(), calendar), ("sha256_64b".to_string(), sha256)]
        };
        assert_eq!(speed_ratio(&queue(100.0, 100.0), &queue(50.0, 200.0)), 2.0);
        // Without the calibration on both sides there is no ratio: the
        // shared `queue_calendar` is not a stand-in.
        let uncalibrated = vec![("queue_calendar".to_string(), 100.0)];
        assert_eq!(speed_ratio(&uncalibrated, &queue(230.0, 200.0)), 1.0);
        assert_eq!(speed_ratio(&queue(100.0, 100.0), &uncalibrated), 1.0);
        assert_eq!(speed_ratio(&[], &[]), 1.0);
    }

    /// PR 23's failure, pinned: the queue got 2.3× faster, every scenario
    /// a little, and the old ratio (read off `queue_calendar`) failed all
    /// of them as "56-60 % regressions".
    #[test]
    fn a_faster_queue_bench_does_not_fail_unchanged_scenarios() {
        let scenarios = parse_scenarios(&sample_report(1000.0, 7)).unwrap();
        let queue = |calendar: f64| {
            vec![("queue_calendar".to_string(), calendar), ("sha256_64b".to_string(), 7e5)]
        };
        let ratio = speed_ratio(&queue(20e6), &queue(46e6));
        assert_eq!(ratio, 1.0);
        assert!(compare(&scenarios, &scenarios, 0.25, ratio).is_empty());
        // What a ratio of 2.3 made of the same pair of reports.
        assert_eq!(compare(&scenarios, &scenarios, 0.25, 2.3).len(), 2);
    }

    #[test]
    fn the_calendar_and_ledger_probes_have_a_scaled_floor_and_are_never_the_scale() {
        let queue = |calendar: f64, ledger: f64, sha256: f64| {
            vec![
                ("queue_calendar".to_string(), calendar),
                ("ledger_charge".to_string(), ledger),
                ("sha256_64b".to_string(), sha256),
            ]
        };
        let base = queue(46e6, 230e6, 1.4e6);
        // A ledger probe 3× faster moves no ratio and fails nothing.
        assert_eq!(speed_ratio(&base, &queue(46e6, 700e6, 1.4e6)), 1.0);
        assert!(micro_failures(&base, &queue(46e6, 700e6, 1.4e6), 0.25, 1.0).is_empty());
        // 20 % slower: inside the tolerance. 30 % slower: named.
        assert!(micro_failures(&base, &queue(37e6, 184e6, 1.4e6), 0.25, 1.0).is_empty());
        let failures = micro_failures(&base, &queue(46e6, 160e6, 1.4e6), 0.25, 1.0);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].starts_with("ledger_charge: "), "{}", failures[0]);
        // On a machine at half speed, half the throughput is expected.
        assert!(micro_failures(&base, &queue(23e6, 115e6, 0.7e6), 0.25, 0.5).is_empty());
        // A baseline from before the probe existed does not gate it, and
        // the depth probes are gated within a report, not across.
        let old = vec![("queue_depth_1e2".to_string(), 75e6), ("sha256_64b".to_string(), 1.4e6)];
        assert!(micro_failures(&old, &queue(1.0, 1.0, 1.4e6), 0.25, 1.0).is_empty());
    }

    #[test]
    fn the_deepest_queue_probe_may_cost_twice_the_shallowest_and_no_more() {
        let queue = |shallow: f64, deep: f64| {
            vec![
                ("queue_calendar".to_string(), 1.0),
                ("queue_depth_1e2".to_string(), shallow),
                ("queue_depth_1e4".to_string(), 1.0),
                ("queue_depth_1e6".to_string(), deep),
            ]
        };
        assert!(depth_failures(&queue(80e6, 75e6)).is_empty());
        assert!(depth_failures(&queue(80e6, 40e6)).is_empty());
        let failures = depth_failures(&queue(80e6, 39e6));
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("no longer flat in depth"), "{}", failures[0]);
        // A gate report carries no depth probes and is not gated.
        assert!(depth_failures(&[("sha256_64b".to_string(), 3e6)]).is_empty());
    }

    #[test]
    fn flags_fingerprint_drift_even_when_fast() {
        let baseline = parse_scenarios(&sample_report(1000.0, 7)).unwrap();
        let drifted = vec![scale_scenario("a", 5000.0, 8.0), scale_scenario("b", 50.0, 1.0)];
        let failures = compare(&baseline, &drifted, 0.25, 1.0);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("fingerprint"), "{}", failures[0]);
    }

    /// A gate-only report, built with the report writer.
    fn gate_report(vps: f64, fingerprint: &str) -> Value {
        let calibration = Value::obj([
            ("ops", 1u64.into()),
            ("wall_secs", 1u64.into()),
            ("ops_per_sec", 3_000_000u64.into()),
        ]);
        let honest = Value::obj([
            ("connections", 110_000u64.into()),
            ("verifications_per_sec", vps.into()),
            ("latency_p99_ns", 840u64.into()),
            ("decision_fingerprint", fingerprint.into()),
        ]);
        Value::obj([
            ("generated_unix_secs", 1u64.into()),
            ("available_parallelism", 4u64.into()),
            ("queue", Value::obj([("sha256_64b", calibration)])),
            ("gate", Value::obj([("gate_honest", honest)])),
        ])
    }

    #[test]
    fn gate_only_reports_parse_without_a_scenarios_section() {
        let json = gate_report(50000.0, "abc123");
        assert_eq!(parse_scenarios(&json).unwrap(), Vec::new());
        let gate = parse_gate(&json).unwrap();
        assert_eq!(gate.len(), 1);
        assert_eq!(gate[0].name, "gate_honest");
        assert_eq!(gate[0].verifications_per_sec, 50000.0);
        assert_eq!(gate[0].decision_fingerprint, "abc123");
        // The calibration entry feeds the shared speed-ratio machinery.
        assert_eq!(parse_queue(&json), vec![("sha256_64b".to_string(), 3000000.0)]);
        // But an engine report with neither section is still malformed.
        let queue_only = Value::obj([("queue", Value::obj::<&str>([]))]);
        assert!(parse_scenarios(&queue_only).is_err());
    }

    #[test]
    fn gate_fingerprint_drift_fails_even_when_fast() {
        let baseline = parse_gate(&gate_report(50000.0, "abc123")).unwrap();
        let drifted = parse_gate(&gate_report(90000.0, "def456")).unwrap();
        let failures = compare_gate(&baseline, &drifted, 0.25, 1.0);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("decision fingerprint drifted"), "{}", failures[0]);
        // Identical fingerprints and healthy throughput: clean.
        let same = parse_gate(&gate_report(48000.0, "abc123")).unwrap();
        assert!(compare_gate(&baseline, &same, 0.25, 1.0).is_empty());
    }

    #[test]
    fn gate_throughput_floor_is_machine_adjusted() {
        let baseline = parse_gate(&gate_report(50000.0, "abc123")).unwrap();
        let halved = parse_gate(&gate_report(25000.0, "abc123")).unwrap();
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
        let written =
            |report: Value| sybil_exp::json::parse(report.to_pretty().as_bytes()).unwrap();
        let err = parse_scenarios(&written(sample_report(f64::NAN, 7))).unwrap_err();
        assert!(err.contains("a: events_per_sec is non-finite"), "{err}");
        let err = parse_gate(&written(gate_report(f64::INFINITY, "abc123"))).unwrap_err();
        assert!(err.contains("gate_honest: verifications_per_sec is non-finite"), "{err}");
    }

    /// An alloc-measured scenario literal for the budget-gate tests.
    fn alloc_scenario(name: &str, ape: Option<f64>) -> Scenario {
        Scenario {
            name: name.into(),
            events_per_sec: 1000.0,
            fingerprint: fp(1.0),
            allocs_per_event: ape,
        }
    }

    #[test]
    fn zero_alloc_budget_gates_the_core_scenarios() {
        // A core scenario allocating in the steady-state loop fails…
        let fresh = vec![
            alloc_scenario("macro_sweep", Some(0.25)),
            alloc_scenario("macro_millions", Some(0.01)),
        ];
        let failures = alloc_failures(&[], &fresh, false, true);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("macro_sweep"), "{}", failures[0]);
        assert!(failures[0].contains("zero-allocation"), "{}", failures[0]);
        // …at exactly zero it passes (macro_millions is not zero-gated).
        let clean = vec![
            alloc_scenario("macro_sweep", Some(0.0)),
            alloc_scenario("gnutella_ergo_t1024", Some(0.0)),
            alloc_scenario("gnutella_sybilcontrol_t64", Some(0.0)),
            alloc_scenario("macro_millions", Some(0.01)),
        ];
        assert!(alloc_failures(&[], &clean, false, true).is_empty());
        // A non-counting fresh report is never gated: its zeros are
        // structural, not measurements.
        assert!(alloc_failures(&[], &fresh, false, false).is_empty());
        // Counting claimed but the field missing is itself a failure.
        let broken = vec![alloc_scenario("macro_sweep", None)];
        let failures = alloc_failures(&[], &broken, false, true);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("allocs_per_event"), "{}", failures[0]);
    }

    #[test]
    fn alloc_regression_gate_needs_both_sides_measured() {
        let baseline = vec![alloc_scenario("macro_millions", Some(0.001))];
        let grown = vec![alloc_scenario("macro_millions", Some(0.1))];
        // Both measured: growth beyond the slack fails.
        let failures = alloc_failures(&baseline, &grown, true, true);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("allocs/event grew"), "{}", failures[0]);
        // Within the slack: scheduling jitter, not a regression.
        let jitter = vec![alloc_scenario("macro_millions", Some(0.0015))];
        assert!(alloc_failures(&baseline, &jitter, true, true).is_empty());
        // Unmeasured baseline: only the zero-budget gate applies.
        assert!(alloc_failures(&baseline, &grown, false, true).is_empty());
    }

    #[test]
    fn spend_sums_tolerate_libm_ulp_drift_but_not_real_drift() {
        let a = fp(7.0);
        let mut ulp = a.clone();
        ulp.good_spend = 1000.0 * (1.0 + 1e-12); // cross-libm rounding
        assert!(a.matches(&ulp));
        let mut real = a.clone();
        real.good_spend = 1001.0; // an actual behavior change
        assert!(!a.matches(&real));
        let mut counter = a.clone();
        counter.bad_joins_admitted += 1.0; // counters are exact
        assert!(!a.matches(&counter));
    }
}
