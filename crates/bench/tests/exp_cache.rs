//! Integration tests for the `sybil-exp` workload cache feeding real
//! simulation cells: cold and warm cache runs must produce bit-identical
//! `SimReport`s, and a corrupted cache entry must be rejected and
//! regenerated — never silently replayed.

use std::path::PathBuf;
use sybil_bench::sweep::{run_report_with, Algo};
use sybil_churn::networks;
use sybil_exp::{defense_seed, WorkloadCache};
use sybil_sim::engine::SimConfig;
use sybil_sim::time::Time;
use sybil_sim::SimReport;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sybil_exp_cache_it_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the small (algo × T) cell grid against cache-served workloads.
fn run_cells(cache: &WorkloadCache, horizon: f64, seed: u64) -> Vec<SimReport> {
    let net = networks::gnutella();
    let mut reports = Vec::new();
    for algo in [Algo::Ergo, Algo::CCom] {
        for t in [0.0, 256.0] {
            let disk = cache.get_or_create(&net, Time(horizon), seed).expect("cache entry");
            let cfg = SimConfig { horizon: Time(horizon), adv_rate: t, ..SimConfig::default() };
            reports.push(run_report_with(cfg, algo, t, defense_seed(seed), disk));
        }
    }
    reports
}

#[test]
fn cold_and_warm_cache_runs_are_bit_identical() {
    let dir = temp_dir("coldwarm");
    let (horizon, seed) = (120.0, 7u64);

    let cold_cache = WorkloadCache::open(&dir).unwrap();
    let cold = run_cells(&cold_cache, horizon, seed);
    let stats = cold_cache.stats();
    assert_eq!(stats.misses, 1, "one workload generation for the whole grid");
    assert_eq!(stats.hits, 3, "remaining cells replay the cached file");

    // A fresh cache handle over the same directory: every cell is a hit.
    let warm_cache = WorkloadCache::open(&dir).unwrap();
    let warm = run_cells(&warm_cache, horizon, seed);
    let stats = warm_cache.stats();
    assert_eq!((stats.hits, stats.misses), (4, 0));

    // Full `SimReport` equality — every counter, ledger entry, and float
    // bit — between runs fed by generation-then-replay and replay-only.
    assert_eq!(cold, warm);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_cache_entry_is_regenerated_not_replayed() {
    let dir = temp_dir("corrupt");
    let (horizon, seed) = (120.0, 9u64);
    let net = networks::gnutella();

    let cache = WorkloadCache::open(&dir).unwrap();
    let reference = run_cells(&cache, horizon, seed);
    let entry = cache.entry_path(&net, Time(horizon), seed);
    let good_bytes = std::fs::read(&entry).unwrap();

    // Truncation: the header length check must reject it.
    std::fs::write(&entry, &good_bytes[..good_bytes.len() - 9]).unwrap();
    let after_truncation = run_cells(&cache, horizon, seed);
    assert!(cache.stats().rejected >= 1, "truncated entry must be rejected");
    assert_eq!(reference, after_truncation);
    assert_eq!(
        std::fs::read(&entry).unwrap(),
        good_bytes,
        "regenerated entry must be byte-identical to the original"
    );

    // Garbage bytes: the magic check must reject it.
    std::fs::write(&entry, b"not a workload file at all").unwrap();
    let after_garbage = run_cells(&cache, horizon, seed);
    assert!(cache.stats().rejected >= 2, "garbage entry must be rejected");
    assert_eq!(reference, after_garbage);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn distinct_grid_seeds_share_nothing() {
    // Paranoia for the content addressing: two trials of the same model
    // must land in distinct entries and produce distinct reports.
    let dir = temp_dir("seeds");
    let cache = WorkloadCache::open(&dir).unwrap();
    let net = networks::gnutella();
    let a = cache.entry_path(&net, Time(120.0), 1);
    let b = cache.entry_path(&net, Time(120.0), 2);
    assert_ne!(a, b);
    let ra = run_cells(&cache, 120.0, 1);
    let rb = run_cells(&cache, 120.0, 2);
    assert_ne!(ra[0], rb[0], "different workload seeds must differ observably");
    std::fs::remove_dir_all(&dir).ok();
}
