//! Regenerates `BENCH_engine.json`, the one committed performance report:
//! `cargo bench -p sybil-bench --bench bench_report -- [OUT.json]` (a
//! relative path is taken from the repository root; a bare `cargo bench`
//! skips this target). The binary registers the counting allocator, so
//! the report's alloc columns are always measured. `perf::run_suite()`
//! measures the engine (`SYBIL_BENCH_FAST=1` shrinks the queue
//! micro-benches, `SYBIL_BENCH_REPS` is best-of-K,
//! `SYBIL_BENCH_ALLOC_TRAP=N` aborts at the `N`-th allocation of a
//! measured loop; a `SYBIL_BENCH_*` name no bench target reads exits 2),
//! then the admission gate replays a ~110k-session churn workload through its
//! loopback transport, honest and 30 % adversarial: always at full size
//! and once each, since the decision fingerprints are only comparable at
//! that size and are the determinism check.

use std::path::Path;
use std::time::Instant;

use sybil_bench::perf::{self, GateResult};
use sybil_churn::{ArrivalProcess, ChurnModel, SessionModel};
use sybil_crypto::hex;
use sybil_gate::{replay, GateConfig, MemHardParams, ReplayConfig, ShardedGate};
use sybil_sim::{write_workload_file, DiskWorkload, Time, WorkloadSource};

// Every heap allocation in this process is counted on thread-local
// counters; the perf scenarios read the deltas around the engine's
// steady-state loop and publish allocs_per_event.
#[global_allocator]
static ALLOC: sybil_exp::alloc::CountingAlloc = sybil_exp::alloc::CountingAlloc;

/// The two gate scenarios. The workload goes through the on-disk format,
/// the loader a deployment replays captured traces with.
fn run_gate_scenarios() -> Vec<GateResult> {
    let horizon = Time(1100.0);
    let workload = ChurnModel {
        name: "gate",
        initial_size: 2000,
        arrival: ArrivalProcess::Poisson { rate: 100.0 },
        session: SessionModel::Exponential { mean: 600.0 },
    }
    .generate(horizon, 41);
    assert!(workload.session_count() >= 100_000, "the gate workload has >= 1e5 sessions");
    let path = std::env::temp_dir().join(format!("sybil_gate_{}.wkld", std::process::id()));
    write_workload_file(&path, &workload)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    let gate_cfg = GateConfig {
        difficulty_floor: 8,
        difficulty_cap: 1 << 16,
        mine_bits: 2,
        mem: MemHardParams { blocks: 32, passes: 1 },
        initial_size: workload.initial_size(),
        ..GateConfig::default()
    };
    drop(workload);
    let results = [("gate_honest", 0.0), ("gate_adversarial", 0.3)].map(|(name, fraction)| {
        let source = DiskWorkload::open(&path)
            .unwrap_or_else(|e| panic!("cannot open {}: {e}", path.display()));
        let cfg = ReplayConfig { horizon, adversarial_fraction: fraction, seed: 23 };
        let started = Instant::now();
        let (gate, r) = replay(source, ShardedGate::new(gate_cfg.clone(), 1), &cfg);
        let (c, h) = (gate.counters(), &r.hist);
        GateResult {
            name: name.to_string(),
            connections: r.connections,
            granted: c.granted,
            admitted: c.admitted,
            rejected_pow: c.rejected_pow,
            refused_mine: c.refused_mine,
            departed: c.departed,
            pow_verifications: c.pow_verifications,
            mem_verifications: c.mem_verifications,
            client_pow_work: r.client_pow_work,
            mine_attempts: r.mine_attempts,
            // Not finite, and so written as `null`, if no time was spent
            // in `Join` handling.
            verifications_per_sec: c.pow_verifications as f64 / r.pow_handle_secs,
            wall_secs: started.elapsed().as_secs_f64(),
            latency_ns: [h.percentile(0.50), h.percentile(0.99), h.percentile(0.999), h.max()],
            decision_fingerprint: hex::encode(gate.fingerprint().as_bytes()),
        }
    });
    std::fs::remove_file(&path).ok();
    results.into()
}

fn main() {
    sybil_bench::sweep::reject_unknown_env();
    // `cargo bench` appends `--bench` to the arguments of every target.
    let out = std::env::args().skip(1).find(|a| a != "--bench");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path =
        root.canonicalize().unwrap_or(root).join(out.as_deref().unwrap_or("BENCH_engine.json"));
    let started = Instant::now();
    let mut report = perf::run_suite();
    report.gate = run_gate_scenarios();
    print!("{}", perf::render(&report));
    println!(
        "SHA-256 backend: {} (sha256_64b always runs the portable body)",
        sybil_crypto::sha256::backend()
    );
    std::fs::write(&path, perf::to_json(&report))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("\nwrote {} in {:.1?}", path.display(), started.elapsed());
}
