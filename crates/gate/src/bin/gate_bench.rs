//! `gate_bench` — the admission-service performance baseline.
//!
//! Replays a ~110k-session churn workload (written to disk and read back
//! through the SYBWKLD0 loader, same as the engine benchmarks) through
//! the loopback transport twice — honest and 30%-adversarial — and
//! writes verification throughput, decision latency percentiles, and the
//! decision-log fingerprints to `BENCH_gate.json`.
//!
//! ```text
//! Usage: gate_bench [OUTPUT_PATH]
//!
//!   OUTPUT_PATH   where to write the JSON (default: BENCH_gate.json)
//! ```
//!
//! The scenarios always run at full size: the fingerprint gate in
//! `bench_compare` needs byte-identical decision logs between CI and the
//! committed baseline, and shrinking the workload would change them. The
//! `sha256_64b` calibration entry gives `bench_compare` a machine-speed
//! proxy so its throughput floor adapts to slow runners.

use std::io::Write as _;
use std::time::Instant;

use sybil_churn::{ArrivalProcess, ChurnModel, SessionModel};
use sybil_crypto::hex;
use sybil_gate::memhard::MemHardParams;
use sybil_gate::{replay, GateConfig, GateCounters, ReplayConfig, ReplayReport, ShardedGate};
use sybil_sim::{write_workload_file, DiskWorkload, Time, WorkloadSource};

/// The benchmark workload: sized so the replay opens well over 10⁵
/// connections (the committed-baseline contract).
const HORIZON: Time = Time(1100.0);
const WORKLOAD_SEED: u64 = 41;

fn model() -> ChurnModel {
    ChurnModel {
        name: "gate",
        initial_size: 2000,
        arrival: ArrivalProcess::Poisson { rate: 100.0 },
        session: SessionModel::Exponential { mean: 600.0 },
    }
}

fn gate_cfg(initial_size: u64) -> GateConfig {
    GateConfig {
        difficulty_floor: 8,
        difficulty_cap: 1 << 16,
        mine_bits: 2,
        mem: MemHardParams { blocks: 32, passes: 1 },
        initial_size,
        ..GateConfig::default()
    }
}

struct ScenarioResult {
    name: &'static str,
    report: ReplayReport,
    counters: GateCounters,
    /// Hex SHA-256 of the serial replay's decision log.
    fingerprint: String,
    wall_secs: f64,
}

fn run_scenario(
    name: &'static str,
    source: DiskWorkload,
    adversarial_fraction: f64,
    gate: ShardedGate,
) -> ScenarioResult {
    let cfg = ReplayConfig { horizon: HORIZON, adversarial_fraction, seed: 23 };
    let started = Instant::now();
    let (gate, report) = replay(source, gate, &cfg);
    let wall_secs = started.elapsed().as_secs_f64();
    let fingerprint = hex::encode(gate.fingerprint().as_bytes());
    ScenarioResult { name, counters: gate.counters(), fingerprint, report, wall_secs }
}

fn to_json(calibration: (u64, f64), scenarios: &[ScenarioResult]) -> String {
    use sybil_exp::json::Value;
    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (ops, wall) = calibration;
    let gate = scenarios.iter().map(|s| {
        let c = s.counters;
        let r = &s.report;
        let verifications_per_sec = if r.pow_handle_secs > 0.0 {
            c.pow_verifications as f64 / r.pow_handle_secs
        } else {
            f64::NAN
        };
        let body = Value::obj([
            ("connections", r.connections.into()),
            ("granted", c.granted.into()),
            ("admitted", c.admitted.into()),
            ("rejected_pow", c.rejected_pow.into()),
            ("refused_mine", c.refused_mine.into()),
            ("departed", c.departed.into()),
            ("pow_verifications", c.pow_verifications.into()),
            ("mem_verifications", c.mem_verifications.into()),
            ("client_pow_work", r.client_pow_work.into()),
            ("mine_attempts", r.mine_attempts.into()),
            ("verifications_per_sec", verifications_per_sec.into()),
            ("wall_secs", s.wall_secs.into()),
            ("latency_p50_ns", r.hist.percentile(0.50).into()),
            ("latency_p99_ns", r.hist.percentile(0.99).into()),
            ("latency_p999_ns", r.hist.percentile(0.999).into()),
            ("latency_max_ns", r.hist.max().into()),
            ("decision_fingerprint", s.fingerprint.as_str().into()),
        ]);
        (s.name, body)
    });
    Value::obj([
        ("generated_unix_secs", unix_secs.into()),
        (
            "available_parallelism",
            std::thread::available_parallelism().map_or(1, |n| n.get()).into(),
        ),
        (
            "queue",
            Value::obj([(
                "sha256_64b",
                Value::obj([
                    ("ops", ops.into()),
                    ("wall_secs", wall.into()),
                    ("ops_per_sec", (ops as f64 / wall).into()),
                ]),
            )]),
        ),
        ("gate", Value::obj(gate)),
    ])
    .to_pretty()
}

fn main() {
    let path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_gate.json".to_string());
    println!("=== Admission gate baseline ===");
    let started = Instant::now();

    let workload = model().generate(HORIZON, WORKLOAD_SEED);
    assert!(
        workload.session_count() >= 100_000,
        "benchmark contract: >= 1e5 sessions, got {}",
        workload.session_count()
    );
    // Round-trip through the on-disk format so the bench exercises the
    // same loader a real deployment replays captured traces with.
    let wl_path = std::env::temp_dir()
        .join(format!("gate_bench_{}_{WORKLOAD_SEED}.sybwkld", std::process::id()));
    write_workload_file(&wl_path, &workload).expect("write benchmark workload");

    let open = || DiskWorkload::open(&wl_path).expect("reopen benchmark workload");
    let initial = workload.initial_size();
    let mut scenarios = Vec::new();
    for (name, fraction) in [("gate_honest", 0.0), ("gate_adversarial", 0.3)] {
        let result = run_scenario(name, open(), fraction, ShardedGate::new(gate_cfg(initial), 1));
        let c = result.counters;
        println!(
            "{name:>18}: {} conns, {} admitted, {} rejected, {:.0} verifications/s, p99 {} ns",
            result.report.connections,
            c.admitted,
            c.rejected_pow,
            c.pow_verifications as f64 / result.report.pow_handle_secs,
            result.report.hist.percentile(0.99),
        );
        scenarios.push(result);
    }
    let _ = std::fs::remove_file(&wl_path);

    println!("calibrating machine speed (sha256_64b)...");
    let calibration = sybil_crypto::sha256::calibrate_64b();

    let json = to_json(calibration, &scenarios);
    let mut file =
        std::fs::File::create(&path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
    file.write_all(json.as_bytes()).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
    println!("elapsed: {:.1?}", started.elapsed());
}

#[cfg(test)]
mod tests {
    use super::*;
    use sybil_exp::json::{parse, Value};

    /// Every field the writer emits reads back through the `exp::json`
    /// reader at its nesting level, with its value.
    #[test]
    fn json_round_trips_field_for_field() {
        let mut report = ReplayReport {
            connections: 9,
            client_pow_work: 70,
            mine_attempts: 30,
            pow_handle_secs: 0.5,
            mine_handle_secs: 1.5,
            ..ReplayReport::default()
        };
        // Below 64 ns the histogram is exact: p50 = 20, p99 = p999 = max = 40.
        for ns in [10, 20, 30, 40] {
            report.hist.record(ns);
        }
        let counters = GateCounters {
            pow_verifications: 8,
            mem_verifications: 7,
            granted: 6,
            admitted: 5,
            rejected_pow: 4,
            refused_mine: 3,
            departed: 2,
            dropped: 1,
        };
        let serial = ScenarioResult {
            name: "gate_honest",
            report,
            counters,
            fingerprint: "abc123".into(),
            wall_secs: 2.5,
        };
        // No handle time at all: the rate is 0/0, written as null.
        let idle = ScenarioResult {
            name: "gate_idle",
            report: ReplayReport::default(),
            counters: GateCounters::default(),
            fingerprint: String::new(),
            wall_secs: 0.0,
        };
        let root = parse(to_json((1000, 0.25), &[serial, idle]).as_bytes()).unwrap();
        let keys: Vec<&str> = root.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["generated_unix_secs", "available_parallelism", "queue", "gate"]);
        assert!(root.num("available_parallelism").unwrap() >= 1.0);
        let calibration = root.get("queue").unwrap().get("sha256_64b").unwrap();
        assert_eq!(calibration.num("ops"), Ok(1000.0));
        assert_eq!(calibration.num("wall_secs"), Ok(0.25));
        assert_eq!(calibration.num("ops_per_sec"), Ok(4000.0));

        // The measured scenario, member for member and in order.
        let gate = root.get("gate").unwrap();
        assert_eq!(gate.members().len(), 2);
        let want = br#"{"connections": 9, "granted": 6, "admitted": 5, "rejected_pow": 4,
            "refused_mine": 3, "departed": 2, "pow_verifications": 8, "mem_verifications": 7,
            "client_pow_work": 70, "mine_attempts": 30, "verifications_per_sec": 16,
            "wall_secs": 2.5, "latency_p50_ns": 20, "latency_p99_ns": 40,
            "latency_p999_ns": 40, "latency_max_ns": 40, "decision_fingerprint": "abc123"}"#;
        assert_eq!(gate.get("gate_honest"), Some(&parse(want).unwrap()));

        let idle = gate.get("gate_idle").unwrap();
        assert_eq!(idle.get("decision_fingerprint").and_then(Value::as_str), Some(""));
        assert_eq!(idle.get("verifications_per_sec"), Some(&Value::Null));
        assert!(idle.num("verifications_per_sec").unwrap_err().contains("non-finite"));
    }
}
