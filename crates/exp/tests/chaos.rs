//! The chaos suite: seeded fault plans replayed against small grids and
//! the workload cache, asserting **crash-equivalence** — a fault-injected
//! run (plus, where needed, a plain resume) converges to a result store
//! whose canonical bytes are identical to a fault-free run's.
//!
//! Requires the `fault-inject` feature:
//!
//! ```text
//! cargo test -p sybil-exp --features fault-inject --test chaos
//! ```
//!
//! The seed matrix defaults to `1,2,3` and is overridable via
//! `SYBIL_CHAOS_SEEDS` (comma-separated u64s) so CI can shard seeds
//! across jobs. Every fault decision is pure in `(seed, site, key,
//! attempt)`, so a failing seed replays exactly.

#![cfg(feature = "fault-inject")]

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use sybil_churn::arrival::ArrivalProcess;
use sybil_churn::session::SessionModel;
use sybil_churn::ChurnModel;
use sybil_exp::fault::with_plan;
use sybil_exp::{
    run_grid, Durability, FaultPlan, GridOptions, GridOutcome, ResultsStore, RetryPolicy,
    WorkloadCache,
};
use sybil_sim::time::Time;

/// Shared fingerprint for every grid in the suite: canonical bytes embed
/// it, so fault-free and fault-injected stores render identical headers.
const FP: &str = "chaos-suite-v1";

fn chaos_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/chaos"))
        .join(format!("{tag}_{}_{}", std::process::id(), COUNTER.fetch_add(1, Ordering::Relaxed)));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The CI-overridable seed matrix.
fn chaos_seeds() -> Vec<u64> {
    match std::env::var("SYBIL_CHAOS_SEEDS") {
        Ok(text) => text
            .split(',')
            .map(|s| s.trim().parse().expect("SYBIL_CHAOS_SEEDS must be comma-separated u64s"))
            .collect(),
        Err(_) => vec![1, 2, 3],
    }
}

/// A six-cell grid whose fields are pure functions of the payload, so
/// every run — whatever faults it survived — must produce the same store.
fn cells() -> Vec<(String, u64)> {
    (0..6u64).map(|i| (format!("cell-{i}"), i)).collect()
}

fn run_chaos_grid(store: &Path, opts: &GridOptions) -> GridOutcome {
    run_grid("chaos", FP, store, cells(), None, 3, opts, |&payload: &u64| {
        vec![
            ("mean".to_string(), payload as f64 * 2.0),
            ("sq".to_string(), (payload * payload) as f64),
        ]
    })
    .expect("chaos grid run failed")
}

/// Retries without wall-clock backoff: chaos convergence is guaranteed by
/// the plan's fault cap, not by waiting out a real transient.
fn fast_retry(max_attempts: u32) -> GridOptions {
    GridOptions {
        retry: RetryPolicy { max_attempts, base_delay_ms: 0, max_delay_ms: 0 },
        durability: Durability::Flush,
    }
}

/// The order-insensitive store identity (header + sorted cell lines).
fn canonical(store: &Path) -> Vec<u8> {
    let (store, _) = ResultsStore::open(store, FP).expect("reopen chaos store");
    store.canonical_bytes().expect("canonical bytes")
}

/// A fault-free reference run. Wrapped in a zero-probability plan so it
/// holds the global plan lock: a concurrently running chaos test must not
/// leak its faults into the baseline.
fn baseline(dir: &Path) -> Vec<u8> {
    let store = dir.join("baseline.store");
    let outcome = with_plan(FaultPlan::new(0), || run_chaos_grid(&store, &fast_retry(3)));
    assert!(!outcome.summary.has_holes(), "baseline must be fault-free");
    assert_eq!(outcome.summary.panics, 0, "zero-probability plan injected a panic");
    canonical(&store)
}

fn toy_model() -> ChurnModel {
    ChurnModel {
        name: "chaos-toy",
        initial_size: 50,
        arrival: ArrivalProcess::Poisson { rate: 1.0 },
        session: SessionModel::Exponential { mean: 100.0 },
    }
}

/// Worker panics mid-grid: every cell retries to success and the final
/// store is bit-identical to the fault-free run's canonical bytes.
#[test]
fn panic_storm_converges_to_fault_free_result() {
    let dir = chaos_dir("panics");
    let want = baseline(&dir);
    let mut faults_fired = 0;
    for seed in chaos_seeds() {
        let store = dir.join(format!("panics_{seed}.store"));
        // Cap 2 with 4 attempts: at most two injected panics per cell, so
        // convergence is guaranteed, not probabilistic.
        let plan = FaultPlan::new(seed).with_panics(0.5).with_cap(2);
        let outcome = with_plan(plan, || run_chaos_grid(&store, &fast_retry(4)));
        assert!(!outcome.summary.has_holes(), "seed {seed}: grid must converge");
        assert_eq!(outcome.summary.cells_executed, 6);
        faults_fired += outcome.summary.panics;
        assert_eq!(canonical(&store), want, "seed {seed}: store diverged from fault-free run");
    }
    assert!(faults_fired > 0, "no panic fired across the whole seed matrix — seam dead?");
    fs::remove_dir_all(&dir).ok();
}

/// Store appends fail (outright IO errors and torn short writes): the
/// self-healing append truncates the torn tail, the runner retries, and
/// the store converges bit-exactly.
#[test]
fn store_append_faults_self_heal_and_converge() {
    let dir = chaos_dir("appends");
    let want = baseline(&dir);
    let mut faults_fired = 0;
    for seed in chaos_seeds() {
        let store = dir.join(format!("appends_{seed}.store"));
        let plan = FaultPlan::new(seed).with_io_errors(0.5).with_short_writes(0.5).with_cap(2);
        let outcome = with_plan(plan, || run_chaos_grid(&store, &fast_retry(4)));
        assert!(!outcome.summary.has_holes(), "seed {seed}: grid must converge");
        faults_fired += outcome.summary.retries;
        assert_eq!(canonical(&store), want, "seed {seed}: store diverged from fault-free run");
    }
    assert!(faults_fired > 0, "no append fault fired across the seed matrix — seam dead?");
    fs::remove_dir_all(&dir).ok();
}

/// The full mixed chaos plan with retries too scarce to absorb it: cells
/// may quarantine (explicit holes + failure manifest), and a plain
/// fault-free re-run fills exactly the holes — crash-equivalence.
#[test]
fn full_chaos_then_resume_is_crash_equivalent() {
    let dir = chaos_dir("mixed");
    let want = baseline(&dir);
    for seed in chaos_seeds() {
        let store = dir.join(format!("mixed_{seed}.store"));
        let manifest = dir.join(format!("mixed_{seed}.store.failures"));
        let chaotic = with_plan(FaultPlan::chaos(seed), || run_chaos_grid(&store, &fast_retry(2)));
        let holes = chaotic.summary.quarantined.len();
        if holes > 0 {
            assert!(manifest.exists(), "seed {seed}: quarantine must leave a manifest");
            let text = fs::read_to_string(&manifest).unwrap();
            for failure in &chaotic.summary.quarantined {
                assert!(text.contains(&failure.cell_id), "seed {seed}: manifest misses a cell");
            }
            let none: Vec<_> = chaotic.records.iter().filter(|r| r.is_none()).collect();
            assert_eq!(none.len(), holes, "seed {seed}: holes must match quarantined cells");
        }
        // The crash-recovery path the drivers document: just run again.
        let resumed = with_plan(FaultPlan::new(0), || run_chaos_grid(&store, &fast_retry(3)));
        assert!(!resumed.summary.has_holes(), "seed {seed}: resume must fill every hole");
        assert_eq!(resumed.summary.cells_skipped, 6 - holes, "seed {seed}");
        assert_eq!(resumed.summary.cells_executed, holes, "seed {seed}");
        assert!(!manifest.exists(), "seed {seed}: hole-free run must clear the manifest");
        assert_eq!(canonical(&store), want, "seed {seed}: store diverged from fault-free run");
    }
    fs::remove_dir_all(&dir).ok();
}

/// A run killed mid-append: the store ends in a torn record. Reopening
/// drops the torn tail, the resume re-executes exactly the lost cell, and
/// the final store is bit-identical to an uninterrupted run.
#[test]
fn kill_mid_append_then_resume_recovers() {
    let dir = chaos_dir("kill");
    let want = baseline(&dir);
    let store = dir.join("kill.store");
    let first = with_plan(FaultPlan::new(0), || run_chaos_grid(&store, &fast_retry(3)));
    assert!(!first.summary.has_holes());

    // Tear the last record as a kill during its append would: keep the
    // line start plus a prefix of the fields, lose the trailing newline.
    let bytes = fs::read(&store).unwrap();
    let last_line =
        bytes.windows(6).rposition(|w| w == b"\ncell ").expect("store must hold records") + 1;
    fs::write(&store, &bytes[..last_line + 12]).unwrap();

    let resumed = with_plan(FaultPlan::new(0), || run_chaos_grid(&store, &fast_retry(3)));
    assert_eq!(resumed.summary.cells_skipped, 5, "only the torn cell may re-run");
    assert_eq!(resumed.summary.cells_executed, 1);
    assert!(resumed.summary.resumed);
    assert_eq!(canonical(&store), want, "recovered store diverged from fault-free run");
    fs::remove_dir_all(&dir).ok();
}

/// Injected cache write/rename failures: `get_or_create` falls back to
/// regeneration and still serves bytes identical to a fault-free cache.
#[test]
fn cache_regenerates_after_injected_write_failures() {
    let dir = chaos_dir("cache_io");
    let model = toy_model();
    let clean = WorkloadCache::open(dir.join("clean")).unwrap();
    let want = with_plan(FaultPlan::new(0), || {
        fs::read(clean.get_or_create(&model, Time(150.0), 7).unwrap().path()).unwrap()
    });
    for seed in chaos_seeds() {
        let cache = WorkloadCache::open(dir.join(format!("faulty_{seed}"))).unwrap();
        // Cap 1 per site: at most one write failure and one rename failure
        // before the internal retry bound (4) must succeed.
        let plan = FaultPlan::new(seed).with_io_errors(1.0).with_cap(1);
        let got = with_plan(plan, || {
            let disk = cache
                .get_or_create(&model, Time(150.0), 7)
                .expect("cache must regenerate through injected failures");
            fs::read(disk.path()).unwrap()
        });
        assert_eq!(got, want, "seed {seed}: regenerated workload differs");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "seed {seed}: exactly one generation may land");
    }
    fs::remove_dir_all(&dir).ok();
}

/// Concurrent writers racing on one cache entry while short writes tear
/// their temp files: every writer converges to the same byte-identical
/// entry and no torn temp is ever renamed into place.
#[test]
fn concurrent_cache_writers_under_short_writes_converge() {
    let dir = chaos_dir("cache_race");
    let model = toy_model();
    let clean = WorkloadCache::open(dir.join("clean")).unwrap();
    let want = with_plan(FaultPlan::new(0), || {
        fs::read(clean.get_or_create(&model, Time(150.0), 9).unwrap().path()).unwrap()
    });
    for seed in chaos_seeds() {
        let cache = WorkloadCache::open(dir.join(format!("race_{seed}"))).unwrap();
        // Cap 3 shared across all writers of this key; each writer has 4
        // internal tries, so every thread outlives the fault budget.
        let plan = FaultPlan::new(seed).with_short_writes(0.9).with_cap(3);
        let all: Vec<Vec<u8>> = with_plan(plan, || {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        scope.spawn(|| {
                            let disk = cache
                                .get_or_create(&model, Time(150.0), 9)
                                .expect("every racing writer must converge");
                            fs::read(disk.path()).unwrap()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("writer thread panicked")).collect()
            })
        });
        for (i, got) in all.iter().enumerate() {
            assert_eq!(got, &want, "seed {seed}: writer {i} saw torn or divergent bytes");
        }
    }
    fs::remove_dir_all(&dir).ok();
}
