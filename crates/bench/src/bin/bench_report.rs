//! `bench_report` — the engine performance baseline.
//!
//! Runs a fixed micro/macro suite (queue throughput, plus
//! deterministic full-engine sweep scenarios) and writes the results to
//! `BENCH_engine.json` so subsequent PRs have a trajectory to beat.
//!
//! ```text
//! Usage: bench_report [OUTPUT_PATH]
//!
//!   OUTPUT_PATH   where to write the JSON (default: BENCH_engine.json)
//!   SYBIL_BENCH_FAST=1 shrinks the queue micro-benches for CI smoke runs
//!   SYBIL_BENCH_REPS=K measures best-of-K (default 5)
//!   SYBIL_BENCH_ALLOC=1 requires the counting allocator (build with
//!                 --features alloc-count); =0 forces the alloc columns
//!                 to structural zeros; unset publishes what the build
//!                 measures. Recorded in the JSON as alloc_mode.
//! ```

use std::io::Write;
use sybil_bench::perf;

// Under `alloc-count` every heap allocation in this process is counted on
// thread-local counters; the perf scenarios read the deltas around the
// engine's steady-state loop and publish allocs_per_event.
#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: sybil_exp::alloc::CountingAlloc = sybil_exp::alloc::CountingAlloc;

fn main() {
    let path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_engine.json".to_string());
    println!("=== Engine performance baseline ===");
    let started = std::time::Instant::now();
    let report = perf::run_suite();
    print!("{}", perf::render(&report));
    let json = perf::to_json(&report);
    let mut file =
        std::fs::File::create(&path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
    file.write_all(json.as_bytes()).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("\nwrote {path}");
    println!("elapsed: {:.1?}", started.elapsed());
}
