//! The benchmark's contract: `BENCHMARK.json` agrees with the catalog and
//! stays inside the driver's limits, every workload's smoke run is
//! correct, the traced smoke prints every per-layer metric, and a seed
//! fixes every count and fingerprint.

use std::collections::BTreeSet;
use std::process::Command;
use std::time::Instant;

use sybil_benchmark::catalog::{self, END_TO_END, PER_LAYER, WORKLOADS};
use sybil_benchmark::repeat::metric_value;

fn valid_name(name: &str) -> bool {
    let charset = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().all(charset)
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn valid_unit(unit: &str) -> bool {
    let charset = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(charset)
}

#[test]
fn manifest_file_is_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk =
        std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    assert_eq!(
        on_disk,
        catalog::manifest_json(),
        "BENCHMARK.json drifted from the catalog: regenerate it with `--manifest`"
    );
    assert!(on_disk.len() <= 64 * 1024);
}

#[test]
fn catalog_is_inside_the_driver_limits() {
    assert_eq!(WORKLOADS.len(), 5);
    assert_eq!(END_TO_END.len(), 4);
    assert!(!PER_LAYER.is_empty() && PER_LAYER.len() <= 128);
    assert!((1..=60).contains(&catalog::RUN_SECONDS));

    let mut names = BTreeSet::new();
    for (name, why) in WORKLOADS {
        assert!(valid_name(name), "{name}");
        assert!(why.len() <= 200 && !why.contains('\n') && !why.contains('"'), "{name}: {why}");
        assert!(names.insert(name), "{name} is used twice");
    }
    for (name, unit, better, bound) in END_TO_END {
        assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
        assert!(matches!(better, "higher" | "lower"), "{name}: {better}");
        assert!(bound > 0.0 && bound <= 0.25, "{name}: {bound}");
        assert!(names.insert(name), "{name} is used twice");
    }
    for (name, unit, better) in PER_LAYER {
        assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
        assert!(matches!(better, "higher" | "lower"), "{name}: {better}");
        assert!(names.insert(name), "{name} is used twice");
    }
    let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").expect("setup_s is required");
    assert_eq!((setup.1, setup.2), ("s", "lower"));
    let largest = END_TO_END.iter().map(|m| m.3).fold(0.0, f64::max);
    assert_eq!(setup.3, largest, "setup_s carries the largest bound");
}

/// Runs one smoke and returns `(result line, fingerprint)`.
fn smoke(workload: &str, seed: u64, trace: bool) -> (String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_sybil-benchmark"))
        .args(["--workload", workload, "--smoke", "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary starts");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(output.status.success(), "{workload}: {stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default().to_string();
    let fingerprint = stderr
        .split("fingerprint ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("{workload}: no fingerprint in {stderr}"))
        .to_string();
    (line, fingerprint)
}

fn attempted(line: &str) -> u64 {
    let rest = line.split("\"attempted\": ").nth(1).expect("a result line");
    rest[..rest.find(',').expect("a result line")].parse().expect("a whole number")
}

#[test]
fn untraced_smoke_is_correct_and_quick() {
    let started = Instant::now();
    for (workload, _) in WORKLOADS {
        let (line, _) = smoke(workload, 1, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{workload}: {line}");
        assert!(line.contains("\"failed\": 0, "), "{workload}: {line}");
        assert!(attempted(&line) >= 1);
        for (name, unit, _, _) in END_TO_END {
            let value =
                metric_value(&line, name).unwrap_or_else(|| panic!("{workload}: no {name}"));
            assert!(value > 0.0, "{workload}: {name} = {value} must never be 0");
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert_eq!(line.matches("\"value\": ").count(), END_TO_END.len(), "{workload}: {line}");
    }
    assert!(started.elapsed().as_secs() < 5, "five smokes took {:?}", started.elapsed());
}

/// The per-layer metrics that are exact counts of the fixed work.
fn is_exact_count(name: &str) -> bool {
    name.starts_with("gate.counters.")
        || name.ends_with(".calls")
        || matches!(
            name,
            "sim.engine.events"
                | "sim.engine.purges"
                | "sim.engine.peak_queue_len"
                | "exp.simulate.cells"
                | "gate.client.pow_hashes"
                | "gate.client.mine_attempts"
                | "gate.client.samples"
                | "run.passes"
        )
}

#[test]
fn traced_smoke_prints_every_layer_and_a_seed_fixes_every_count() {
    for (workload, _) in WORKLOADS {
        let (first, fingerprint) = smoke(workload, 3, true);
        let (second, again) = smoke(workload, 3, true);
        let (untraced, plain) = smoke(workload, 3, false);
        assert_eq!(fingerprint, again, "{workload}: same seed, different fingerprint");
        assert_eq!(fingerprint, plain, "{workload}: tracing changed the fingerprint");
        assert_eq!(attempted(&first), attempted(&untraced));
        assert!(first.contains("\"correct\": true") && first.contains("\"failed\": 0, "));
        assert_eq!(first.matches("\"value\": ").count(), PER_LAYER.len(), "{workload}: {first}");
        for (name, _, _) in PER_LAYER {
            let a = metric_value(&first, name).unwrap_or_else(|| panic!("{workload}: no {name}"));
            let b = metric_value(&second, name).expect("the second run prints the same names");
            if is_exact_count(name) {
                assert_eq!(a, b, "{workload}: {name} differs between same-seed runs");
            }
        }
        let (_, other_seed) = smoke(workload, 4, false);
        assert_ne!(fingerprint, other_seed, "{workload}: the seed does not reach the inputs");

        // The bypass predictions hold exactly.
        let layer = |name: &str| metric_value(&first, name).expect("printed above");
        match workload {
            "replay_attack" => {
                assert_eq!(layer("sim.workload_io.decode.calls"), 0.0);
                assert!(
                    layer("sim.adversary.calls") > 0.0 && layer("defense.bad_batch.calls") > 0.0
                );
            }
            "replay_stream" => {
                assert_eq!(layer("sim.adversary.calls"), 0.0);
                assert_eq!(layer("defense.bad_batch.calls"), 0.0);
                assert!(layer("sim.workload_io.decode.calls") > 0.0);
            }
            "grid_fig8" => {
                assert_eq!(layer("exp.simulate.cells"), 60.0);
                // 4 networks x 2 trials; workers racing on one key both miss.
                assert!(layer("exp.cache.misses") >= 8.0);
                assert_eq!(layer("exp.runner.quarantined"), 0.0);
            }
            "gate_admit" => {
                assert_eq!(layer("gate.counters.admitted"), attempted(&first) as f64);
                assert_eq!(layer("gate.counters.mem_verifications"), attempted(&first) as f64);
                assert!(layer("gate.memhard.share") > 0.0);
            }
            _ => {
                assert_eq!(layer("gate.counters.rejected_pow"), attempted(&first) as f64);
                assert_eq!(layer("gate.counters.mem_verifications"), 0.0);
                assert_eq!(layer("gate.memhard.share"), 0.0);
                assert_eq!(layer("gate.client.busy_s"), 0.0);
            }
        }
        if !workload.starts_with("gate_") {
            assert_eq!(layer("gate.service.connect.calls"), 0.0);
        }
    }
}
