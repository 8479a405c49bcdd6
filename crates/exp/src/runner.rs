//! Grid orchestration: resume-aware parallel execution of experiment
//! cells.
//!
//! [`run_grid`] is the generic engine: given `(cell id, payload)` pairs and
//! a cell-runner closure, it loads the results store, skips every cell the
//! store already has, executes the remainder on the pool, heaviest cell
//! first (appending each record as its cell finishes, so a killed run
//! resumes mid-grid), and reports a [`RunSummary`] with skip/execute
//! counts, cache behavior, and pool-efficiency stats. Cell sets that are
//! not a full cartesian product (e.g. the ablation knob list) come here
//! with [`CellSpec::id`] as the key, which keeps the canonical
//! collision-free id derivation.
//!
//! [`run_spec_grid`] (and [`run_spec_grid_with`], the same with an
//! explicit [`Durability`]) layers the declarative [`ExperimentSpec`] on
//! top: it validates the spec, writes its canonical text next to the store
//! for provenance, and enumerates the named-axis grid.
//!
//! # Failure semantics
//!
//! A cell that panics or whose store append fails does **not** abort the
//! grid, and is not retried: a cell is a pure function of its payload, so
//! a panic would only repeat. It is *quarantined* at once: the grid
//! completes with that cell as an explicit hole (`None` in
//! [`GridOutcome::records`]), the failures are listed in a
//! `<store>.failures` manifest next to the store, and
//! [`RunSummary::has_holes`] tells the driver to exit nonzero. A plain
//! re-run resumes every recorded cell and re-attempts exactly the holes.
//!
//! Every entry point rejects duplicate cell ids up front: two cells that
//! would share a results-store key can only be a driver bug (the aliasing
//! class the named-axis ids exist to prevent), and running them would
//! silently merge their records.

use crate::cache::{CacheStats, WorkloadCache};
use crate::pool::{run_parallel_catch, JobOutcome, PoolStats};
use crate::spec::{CellSpec, ExperimentSpec};
use crate::store::{Durability, Record, ResultsStore};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One quarantined cell: it panicked or its append failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellFailure {
    /// The cell's results-store id.
    pub cell_id: String,
    /// The failure (panic message or append error).
    pub error: String,
}

/// What one grid run did, for operator-facing summaries.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Experiment name.
    pub experiment: String,
    /// Cells in the grid.
    pub cells_total: usize,
    /// Cells skipped because the store already had them.
    pub cells_skipped: usize,
    /// Cells executed this run.
    pub cells_executed: usize,
    /// Whether prior results were resumed.
    pub resumed: bool,
    /// Workload-cache behavior over this run (zeroed when no cache is
    /// attached, e.g. the closed-form lower-bound experiment).
    pub cache: CacheStats,
    /// Pool scheduling stats for the executed cells; caught panics are
    /// [`PoolStats::total_panics`].
    pub pool: PoolStats,
    /// Always 0: cells are not retried. Kept for readers of the summary.
    pub retries: u64,
    /// Cells that panicked or whose append failed, quarantined as holes.
    pub quarantined: Vec<CellFailure>,
    /// Where the failure manifest was written (only when cells were
    /// quarantined).
    pub manifest_path: Option<PathBuf>,
    /// Wall seconds for the whole grid run (including store I/O).
    pub wall_secs: f64,
    /// Where the results store lives.
    pub store_path: PathBuf,
}

impl RunSummary {
    /// True if the grid completed with quarantined cells — the driver
    /// should render the holes and exit nonzero.
    pub fn has_holes(&self) -> bool {
        !self.quarantined.is_empty()
    }

    /// Renders a compact multi-line summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "experiment {}: {} cells ({} executed, {} skipped via resume) in {:.2}s\n",
            self.experiment,
            self.cells_total,
            self.cells_executed,
            self.cells_skipped,
            self.wall_secs
        );
        out.push_str(&format!("  store: {}\n", self.store_path.display()));
        out.push_str(&format!("  {}\n", self.cache.render()));
        if self.cells_executed > 0 {
            out.push_str(&format!("  {}\n", self.pool.render()));
        }
        for failure in &self.quarantined {
            out.push_str(&format!("  QUARANTINED {}: {}\n", failure.cell_id, failure.error));
        }
        if let Some(manifest) = &self.manifest_path {
            out.push_str(&format!("  failure manifest: {}\n", manifest.display()));
        }
        out
    }
}

/// Result of a grid run: per-cell records in grid order plus the summary.
#[derive(Clone, Debug)]
pub struct GridOutcome {
    /// One slot per cell, in the order the cells were supplied. Skipped
    /// cells carry the record loaded from the store; quarantined cells are
    /// `None` — explicit holes the drivers render as blank CSV cells.
    pub records: Vec<Option<Record>>,
    /// Run accounting.
    pub summary: RunSummary,
}

/// Runs a grid of `(cell id, payload)` cells with resume and quarantine.
///
/// `fingerprint` identifies the experiment configuration: a store created
/// under a different fingerprint is discarded and rebuilt, so a changed
/// grid can never silently serve stale cells. `run_cell` must be a pure
/// function of its payload (plus immutable shared state such as a
/// [`WorkloadCache`]) — it runs on pool worker threads.
///
/// Pending cells start in descending `T` (the cell id's
/// [`AXIS_T`](crate::spec::AXIS_T) value, stable, so grid order among
/// equal `T` and without a `T` axis); records come back in grid order.
/// Each finished cell is appended (and flushed) to the store *before* the
/// run completes, so interrupting a long grid loses at most the in-flight
/// cells. A cell that panics or whose append fails is quarantined (a
/// `None` hole in the outcome); see the module docs for the full failure
/// semantics.
#[allow(clippy::too_many_arguments)] // one past the limit
pub fn run_grid<C, F>(
    name: &str,
    fingerprint: &str,
    store_path: &Path,
    cells: Vec<(String, C)>,
    cache: Option<&WorkloadCache>,
    workers: usize,
    durability: Durability,
    run_cell: F,
) -> io::Result<GridOutcome>
where
    C: Send + Sync,
    F: Fn(&C) -> Vec<(String, f64)> + Send + Sync,
{
    let started = Instant::now();
    {
        let mut ids = std::collections::BTreeSet::new();
        for (id, _) in &cells {
            if !ids.insert(id.as_str()) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("experiment {name}: duplicate cell id {id:?} — two cells would alias in the results store"),
                ));
            }
        }
    }
    let cache_before = cache.map(|c| c.stats()).unwrap_or_default();
    let (store, resumed) = ResultsStore::open_with(store_path, fingerprint, durability)?;

    // Partition into already-done (record pulled from the store) and
    // pending, remembering each cell's grid position.
    let mut records: Vec<Option<Record>> = (0..cells.len()).map(|_| None).collect();
    let mut pending: Vec<(usize, String, C)> = Vec::new();
    for (idx, (id, payload)) in cells.into_iter().enumerate() {
        if let Some(done) = store.get(&id) {
            records[idx] = Some(done.clone());
        } else {
            pending.push((idx, id, payload));
        }
    }
    let cells_total = records.len();
    let cells_skipped = cells_total - pending.len();
    let cells_executed = pending.len();

    // A cell's cost grows with its attack rate `T`: starting the heavy
    // cells first leaves cheap ones for the end, where no worker waits
    // long on a sibling.
    let weight = |id: &str| crate::spec::id_t(id).unwrap_or(f64::NEG_INFINITY);
    pending.sort_by(|a, b| weight(&b.1).total_cmp(&weight(&a.1)));

    // Execute pending cells on the pool; append to the store inside the
    // job so completion is durable immediately.
    let store_ref = &store;
    let run_ref = &run_cell;
    let jobs: Vec<_> = pending
        .iter()
        .map(|(_, id, payload)| {
            move || {
                let record = Record::new(id.clone(), run_ref(payload));
                store_ref.append(&record).map(|()| record)
            }
        })
        .collect();
    let (outcomes, pool) = run_parallel_catch(jobs, workers);
    let mut quarantined = Vec::new();
    for ((idx, id, _), outcome) in pending.iter().zip(outcomes) {
        let error = match outcome {
            JobOutcome::Done(Ok(record)) => {
                records[*idx] = Some(record);
                continue;
            }
            JobOutcome::Done(Err(e)) => format!("results-store append failed: {e}"),
            JobOutcome::Panicked(msg) => format!("panicked: {msg}"),
        };
        quarantined.push(CellFailure { cell_id: id.clone(), error });
    }
    let manifest_path = write_failure_manifest(name, store_path, &quarantined)?;

    let cache_after = cache.map(|c| c.stats()).unwrap_or_default();
    let summary = RunSummary {
        experiment: name.to_string(),
        cells_total,
        cells_skipped,
        cells_executed,
        resumed,
        cache: CacheStats {
            hits: cache_after.hits - cache_before.hits,
            misses: cache_after.misses - cache_before.misses,
            rejected: cache_after.rejected - cache_before.rejected,
            evictions: cache_after.evictions - cache_before.evictions,
            // Sweeps happen once, at cache open: absolute, not a delta.
            temps_swept: cache_after.temps_swept,
            temp_sweep_failures: cache_after.temp_sweep_failures,
        },
        pool,
        retries: 0,
        quarantined,
        manifest_path,
        wall_secs: started.elapsed().as_secs_f64(),
        store_path: store_path.to_path_buf(),
    };
    Ok(GridOutcome { records, summary })
}

/// Writes `<store>.failures` listing the quarantined cells (or removes a
/// stale manifest once a resume fills every hole). Returns the manifest
/// path when one was written.
fn write_failure_manifest(
    name: &str,
    store_path: &Path,
    quarantined: &[CellFailure],
) -> io::Result<Option<PathBuf>> {
    let manifest = store_path.with_extension(match store_path.extension() {
        Some(ext) => format!("{}.failures", ext.to_string_lossy()),
        None => "failures".to_string(),
    });
    if quarantined.is_empty() {
        std::fs::remove_file(&manifest).ok();
        return Ok(None);
    }
    let mut text = format!("experiment {name}: {} quarantined cell(s)\n", quarantined.len());
    for failure in quarantined {
        text.push_str(&format!(
            "cell {} error={}\n",
            failure.cell_id,
            failure.error.replace('\n', " ")
        ));
    }
    std::fs::write(&manifest, text)?;
    Ok(Some(manifest))
}

/// Runs a declarative [`ExperimentSpec`] grid with resume.
///
/// The store lives at `<store_dir>/<name>.store`; the spec's canonical
/// text is written next to it as `<name>.spec` for provenance. Cells are
/// the cartesian product of the spec's named axes; `run_cell` receives
/// each [`CellSpec`] and returns the record fields for that cell
/// (typically the multi-trial `mean,ci95_lo,ci95_hi` triples produced by
/// [`crate::stats::Welford`]).
///
/// `context` is extra text folded into the store's fingerprint alongside
/// the spec. The spec itself names networks and algorithms only by
/// *label*; the driver must put everything those labels resolve to —
/// churn-model parameters, defense configurations — into `context`, so a
/// code change to what a label means invalidates stored cells the same
/// way a spec change does.
pub fn run_spec_grid<F>(
    spec: &ExperimentSpec,
    context: &str,
    store_dir: &Path,
    cache: Option<&WorkloadCache>,
    workers: usize,
    run_cell: F,
) -> io::Result<GridOutcome>
where
    F: Fn(&CellSpec) -> Vec<(String, f64)> + Send + Sync,
{
    run_spec_grid_with(spec, context, store_dir, cache, workers, Durability::Flush, run_cell)
}

/// [`run_spec_grid`] with an explicit store [`Durability`].
pub fn run_spec_grid_with<F>(
    spec: &ExperimentSpec,
    context: &str,
    store_dir: &Path,
    cache: Option<&WorkloadCache>,
    workers: usize,
    durability: Durability,
    run_cell: F,
) -> io::Result<GridOutcome>
where
    F: Fn(&CellSpec) -> Vec<(String, f64)> + Send + Sync,
{
    spec.validate().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    std::fs::create_dir_all(store_dir)?;
    std::fs::write(store_dir.join(format!("{}.spec", spec.name)), spec.to_text())?;
    let store_path = store_dir.join(format!("{}.store", spec.name));
    let cells: Vec<(String, CellSpec)> = spec.cells().into_iter().map(|c| (c.id(), c)).collect();
    let fingerprint = crate::spec::text_fingerprint(&format!("{}\n{context}", spec.to_text()));
    run_grid(&spec.name, &fingerprint, &store_path, cells, cache, workers, durability, run_cell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::fmt_f64_exact;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("sybil_exp_runner_{tag}_{}_{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn toy_spec() -> ExperimentSpec {
        ExperimentSpec::three_axis(
            "runner-test",
            vec!["netA".into(), "netB".into()],
            vec!["X".into()],
            vec![0.0, 8.0],
            2,
            10.0,
            0.05,
            1,
        )
    }

    #[test]
    fn cold_run_executes_all_and_warm_run_skips_all() {
        let dir = temp_dir("resume");
        let spec = toy_spec();
        let runs = AtomicU64::new(0);
        let run_cell = |c: &CellSpec| {
            runs.fetch_add(1, Ordering::Relaxed);
            vec![("mean".to_string(), c.f64_value(crate::spec::AXIS_T) * 2.0)]
        };
        let cold = run_spec_grid(&spec, "ctx", &dir, None, 2, run_cell).unwrap();
        assert_eq!(cold.summary.cells_total, 4);
        assert_eq!(cold.summary.cells_executed, 4);
        assert_eq!(cold.summary.cells_skipped, 0);
        assert!(!cold.summary.resumed);
        assert_eq!(runs.load(Ordering::Relaxed), 4);

        let warm = run_spec_grid(&spec, "ctx", &dir, None, 2, run_cell).unwrap();
        assert_eq!(warm.summary.cells_executed, 0);
        assert_eq!(warm.summary.cells_skipped, 4);
        assert!(warm.summary.resumed);
        assert_eq!(runs.load(Ordering::Relaxed), 4, "resume must not re-run cells");
        // Records identical (bit-level) and in grid order both times.
        assert_eq!(cold.records, warm.records);
        assert_eq!(warm.records[1].as_ref().unwrap().get("mean"), Some(16.0));
        // Provenance artifacts exist.
        assert!(dir.join("runner-test.spec").exists());
        assert!(dir.join("runner-test.store").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn changed_spec_invalidates_the_store() {
        let dir = temp_dir("invalidate");
        let spec = toy_spec();
        let run_cell = |c: &CellSpec| vec![("mean".to_string(), c.f64_value(crate::spec::AXIS_T))];
        run_spec_grid(&spec, "ctx", &dir, None, 1, run_cell).unwrap();
        let mut changed = toy_spec();
        changed.seed = 2;
        let out = run_spec_grid(&changed, "ctx", &dir, None, 1, run_cell).unwrap();
        assert_eq!(out.summary.cells_executed, 4, "new seed must re-run everything");
        assert_eq!(out.summary.cells_skipped, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_store_resumes_only_missing_cells() {
        let dir = temp_dir("partial");
        let spec = toy_spec();
        // Must match run_spec_grid's derivation: spec text + context.
        let fingerprint = crate::spec::text_fingerprint(&format!("{}\nctx", spec.to_text()));
        let store_path = dir.join("runner-test.store");
        // Pre-record one cell by hand.
        let cells = spec.cells();
        let (store, _) = ResultsStore::open(&store_path, &fingerprint).unwrap();
        store.append(&Record::new(cells[2].id(), vec![("mean".into(), 123.0)])).unwrap();
        drop(store);

        let out = run_spec_grid(&spec, "ctx", &dir, None, 2, |c: &CellSpec| {
            vec![("mean".to_string(), c.f64_value(crate::spec::AXIS_T))]
        })
        .unwrap();
        assert_eq!(out.summary.cells_skipped, 1);
        assert_eq!(out.summary.cells_executed, 3);
        // The skipped cell serves the stored value, not a recomputed one.
        assert_eq!(out.records[2].as_ref().unwrap().get("mean"), Some(123.0));
        let line = out.summary.render();
        assert!(line.contains("3 executed") && line.contains("1 skipped"), "{line}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_cell_ids_are_rejected_up_front() {
        let dir = temp_dir("dup");
        let cells = vec![("same".to_string(), 1u32), ("same".to_string(), 2u32)];
        let store_path = dir.join("dup.store");
        let flush = Durability::Flush;
        let err =
            run_grid("dup-test", "fp", &store_path, cells, None, 1, flush, |_| vec![]).unwrap_err();
        assert!(err.to_string().contains("duplicate cell id"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cell_grid_runs_explicit_assignments_with_canonical_ids() {
        use crate::spec::AxisValue;
        let dir = temp_dir("cellgrid");
        // Values that the old lossy-replace scheme would have aliased,
        // keyed the way explicit cell lists are: by `CellSpec::id`.
        let cells = || -> Vec<(String, f64)> {
            [("1/2", 0.5), ("1of2", 99.0)]
                .iter()
                .map(|&(label, v)| {
                    (CellSpec::new(vec![("frac".into(), AxisValue::Str(label.into()))]).id(), v)
                })
                .collect()
        };
        let store_path = dir.join("cells.store");
        let flush = Durability::Flush;
        let run = |&v: &f64| vec![("mean".to_string(), v)];
        let out = run_grid("cell-test", "fp", &store_path, cells(), None, 1, flush, run).unwrap();
        assert_eq!(out.summary.cells_executed, 2);
        // Both cells landed under distinct keys and resume independently.
        let warm = run_grid("cell-test", "fp", &store_path, cells(), None, 1, flush, run).unwrap();
        assert_eq!(warm.summary.cells_skipped, 2);
        assert_eq!(warm.records[0].as_ref().unwrap().get("mean"), Some(0.5));
        assert_eq!(warm.records[1].as_ref().unwrap().get("mean"), Some(99.0));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One worker starts the pending cells in descending `T`, equal `T`
    /// in grid order, and a grid without a `T` axis in grid order; the
    /// records come back in grid order all the same, and a warm re-run
    /// runs nothing.
    #[test]
    fn cells_start_heaviest_first_and_land_in_grid_order() {
        use crate::spec::Axis;
        let dir = temp_dir("order");
        let order = |spec: &ExperimentSpec| {
            let calls = std::sync::Mutex::new(Vec::new());
            let run_cell = |c: &CellSpec| {
                calls.lock().unwrap().push(c.id());
                vec![("mean".to_string(), 1.0)]
            };
            let cold = run_spec_grid(spec, "ctx", &dir, None, 1, run_cell).unwrap();
            let ids: Vec<String> = spec.cells().iter().map(CellSpec::id).collect();
            let landed: Vec<String> =
                cold.records.iter().map(|r| r.as_ref().unwrap().cell_id.clone()).collect();
            assert_eq!(landed, ids, "records in grid order");
            let warm = run_spec_grid(spec, "ctx", &dir, None, 1, run_cell).unwrap();
            assert_eq!((warm.summary.cells_skipped, warm.summary.cells_executed), (ids.len(), 0));
            assert_eq!(warm.records, cold.records);
            calls.into_inner().unwrap()
        };
        let mut spec = toy_spec();
        spec.axes[2] = Axis::floats(crate::spec::AXIS_T, [8.0, 0.0, 1024.0, 0.5]);
        let called = order(&spec);
        let t = |net: &str, t: &str| format!("network={net}/algo=X/T={t}");
        let half = fmt_f64_exact(0.5);
        let expected = [
            t("netA", "1024"),
            t("netB", "1024"),
            t("netA", "8"),
            t("netB", "8"),
            t("netA", &half),
            t("netB", &half),
            t("netA", "0"),
            t("netB", "0"),
        ];
        assert_eq!(called, expected);

        let no_t = ExperimentSpec {
            name: "runner-test-no-t".into(),
            axes: vec![Axis::strs("network", ["netB", "netA"]), Axis::floats("frac", [2.0, 1.0])],
            ..toy_spec()
        };
        let ids: Vec<String> = no_t.cells().iter().map(CellSpec::id).collect();
        assert_eq!(order(&no_t), ids);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A failing cell is quarantined after one attempt: the grid completes
    /// with an explicit hole and a failure manifest, every other cell
    /// lands, and a later healthy resume re-attempts exactly the hole
    /// (clearing the manifest). The resumed store is then the store of a
    /// run in which no cell failed, canonical byte for canonical byte.
    #[test]
    fn persistent_panic_quarantines_and_resume_fills_the_hole() {
        let dir = temp_dir("quarantine");
        let store_path = dir.join("q.store");
        let cells: Vec<(String, u32)> = (0..4).map(|i| (format!("cell-{i}"), i)).collect();
        let healthy = |&payload: &u32| vec![("mean".to_string(), payload as f64)];
        let flush = Durability::Flush;
        let broken_calls = AtomicU64::new(0);
        let out = run_grid(
            "q-test",
            "fp",
            &store_path,
            cells.clone(),
            None,
            2,
            flush,
            |payload: &u32| {
                if *payload == 1 {
                    broken_calls.fetch_add(1, Ordering::Relaxed);
                    panic!("cell 1 is broken");
                }
                healthy(payload)
            },
        )
        .unwrap();
        assert_eq!(broken_calls.load(Ordering::Relaxed), 1, "a failed cell is not retried");
        assert!(out.summary.has_holes());
        assert_eq!(out.summary.retries, 0);
        assert_eq!(out.summary.pool.total_panics(), 1);
        assert_eq!(out.summary.quarantined.len(), 1);
        let failure = &out.summary.quarantined[0];
        assert_eq!(failure.cell_id, "cell-1");
        assert!(failure.error.contains("cell 1 is broken"), "{}", failure.error);
        assert!(out.records[1].is_none(), "quarantined cell must be a hole");
        assert!(out.records[0].is_some() && out.records[2].is_some() && out.records[3].is_some());
        // The manifest names the cell.
        let manifest = out.summary.manifest_path.clone().expect("manifest written");
        let text = std::fs::read_to_string(&manifest).unwrap();
        assert_eq!(text, "experiment q-test: 1 quarantined cell(s)\ncell cell-1 error=panicked: cell 1 is broken\n");
        assert!(out.summary.render().contains("QUARANTINED cell-1"), "{}", out.summary.render());

        // Healthy resume: only the hole re-runs; the manifest is cleared.
        let runs = AtomicU64::new(0);
        let resumed = run_grid(
            "q-test",
            "fp",
            &store_path,
            cells.clone(),
            None,
            2,
            flush,
            |payload: &u32| {
                runs.fetch_add(1, Ordering::Relaxed);
                healthy(payload)
            },
        )
        .unwrap();
        assert_eq!(resumed.summary.cells_skipped, 3);
        assert_eq!(resumed.summary.cells_executed, 1);
        assert_eq!(runs.load(Ordering::Relaxed), 1, "resume re-attempts exactly the hole");
        assert!(!resumed.summary.has_holes());
        assert_eq!(resumed.records[1].as_ref().unwrap().get("mean"), Some(1.0));
        assert!(!manifest.exists(), "manifest must be cleared once hole-free");

        // Crash equivalence: quarantine + resume == a run with no failure.
        let clean_path = dir.join("clean.store");
        run_grid("q-test", "fp", &clean_path, cells, None, 2, flush, healthy).unwrap();
        let canonical = |path: &Path| ResultsStore::open(path, "fp").unwrap().0.canonical_bytes();
        assert_eq!(canonical(&store_path).unwrap(), canonical(&clean_path).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }
}
