//! CI smoke experiment for the `sybil-exp` subsystem, in three parts:
//!
//! 1. a tiny canonical three-axis Figure-8 grid run **cold** (fresh
//!    store, workloads generated into the cache) and then **warm** (same
//!    spec), asserting that the cold run executes every cell, the warm
//!    run skips them all (resume semantics), and the warm records are
//!    bit-identical to the cold ones;
//! 2. a **four-axis** named-axis spec (network × algo × T ×
//!    good-fraction, the fraction labels deliberately containing `/`)
//!    run cold→warm the same way, additionally asserting the results
//!    store holds exactly |grid| distinct cell keys — the structural
//!    guard against the historical cell-id aliasing bug;
//! 3. a **strategy-axis** grid (every registered attack strategy resolved
//!    through the adversary registry) run cold→warm, asserting resume,
//!    bit-identical aggregates, and the Lemma 9 invariant in every cell.
//!
//! Exits nonzero on any violation. CI uploads the resulting stores as
//! artifacts alongside `BENCH_engine.json`.

use sybil_bench::grid::{run_spend_grid, TrialGrid};
use sybil_bench::sweep::{default_workers, Algo};
use sybil_bench::table::results_dir;
use sybil_bench::{figure9, invariants_exp};
use sybil_churn::networks;
use sybil_exp::spec::{Axis, AXIS_ALGO, AXIS_NETWORK, AXIS_T};
use sybil_exp::{ExperimentSpec, GridOptions, ResultsStore};
use sybil_sim::engine::SimConfig;

fn main() {
    three_axis_smoke();
    four_axis_smoke();
    strategy_axis_smoke();
}

fn three_axis_smoke() {
    let name = "exp_smoke";
    let store = results_dir().join(format!("{name}.store"));
    // Guarantee a cold start: the smoke validates the cold→warm
    // transition, not incremental growth.
    std::fs::remove_file(&store).ok();

    let run = || {
        run_spend_grid(
            name,
            &[networks::gnutella()],
            &[Algo::Ergo, Algo::CCom],
            &[0.0, 1024.0],
            2,
            200.0,
            1,
        )
    };

    println!("--- cold run (fresh store) ---");
    let (cold_rows, cold) = run();
    assert_eq!(cold.cells_total, 4, "grid shape changed");
    assert_eq!(cold.cells_executed, 4, "cold run must execute every cell");
    assert_eq!(cold.cells_skipped, 0);

    println!("--- warm run (resume from store) ---");
    let (warm_rows, warm) = run();
    assert_eq!(warm.cells_executed, 0, "warm run must skip all completed cells");
    assert_eq!(warm.cells_skipped, 4);
    assert!(warm.resumed, "warm run must resume the existing store");

    for (a, b) in cold_rows.iter().zip(&warm_rows) {
        assert_eq!(
            a.good_rate.mean.to_bits(),
            b.good_rate.mean.to_bits(),
            "{}/{}/T={}: resumed mean differs from computed mean",
            a.network,
            a.algo,
            a.t
        );
        assert_eq!(a.purges.mean.to_bits(), b.purges.mean.to_bits());
        assert_eq!(a.good_rate.n, 2, "smoke runs two trials per cell");
    }

    println!(
        "exp_smoke OK: cold executed {} cells, warm skipped {} (store: {})",
        cold.cells_executed,
        warm.cells_skipped,
        store.display()
    );
}

/// The four-axis smoke: a named-axis grid beyond the canonical
/// `network × algo × T` shape, with a good-fraction axis whose labels
/// contain the store-separator character `/`.
fn four_axis_smoke() {
    let name = "exp_smoke_axes";
    let store_path = results_dir().join(format!("{name}.store"));
    std::fs::remove_file(&store_path).ok();

    let fracs: [(&str, f64); 2] = [("1/24", 1.0 / 24.0), ("1/6", 1.0 / 6.0)];
    let spec = ExperimentSpec {
        name: name.into(),
        axes: vec![
            Axis::strs(AXIS_NETWORK, ["gnutella"]),
            Axis::strs(AXIS_ALGO, ["ERGO"]),
            Axis::floats(AXIS_T, [0.0, 1024.0]),
            Axis::strs(figure9::AXIS_FRAC, fracs.iter().map(|&(label, _)| label)),
        ],
        trials: 2,
        horizon: 200.0,
        kappa: SimConfig::default().kappa,
        seed: 1,
    };
    let context = format!("exp_smoke 4-axis\nfracs = {fracs:?}\n");
    let grid = TrialGrid::from_spec(spec, context, &[networks::gnutella()]);

    let run = || {
        grid.run(default_workers(), &GridOptions::default(), |cell, trials| {
            let frac_label = cell.str_value(figure9::AXIS_FRAC);
            let fraction = fracs.iter().find(|(l, _)| *l == frac_label).expect("known fraction").1;
            let t = cell.f64_value(AXIS_T);
            let mut intervals = 0.0;
            let mut median_sum = 0.0;
            for trial in trials {
                let q = figure9::run_trial(trial.workload(), fraction, t, trial.horizon);
                intervals += q.intervals as f64;
                median_sum += q.median_ratio;
            }
            vec![("intervals".into(), intervals), ("median_sum".into(), median_sum)]
        })
    };

    println!("--- 4-axis cold run (fresh store) ---");
    let (cold_cells, cold) = run();
    let grid_size = grid.cells().len();
    assert_eq!(grid_size, 4, "grid shape changed");
    assert_eq!(cold.cells_total, grid_size);
    assert_eq!(cold.cells_executed, grid_size, "cold run must execute every cell");

    println!("--- 4-axis warm run (resume from store) ---");
    let (warm_cells, warm) = run();
    assert_eq!(warm.cells_executed, 0, "warm run must skip all completed cells");
    assert_eq!(warm.cells_skipped, grid_size);
    assert!(warm.resumed);
    assert!(!cold.has_holes(), "smoke run must not quarantine any cell");
    assert!(!warm.has_holes(), "warm smoke run must not quarantine any cell");
    for (a, b) in cold_cells.iter().zip(&warm_cells) {
        let a = a.record.as_ref().expect("no holes in smoke");
        let b = b.record.as_ref().expect("no holes in smoke");
        assert_eq!(a.cell_id, b.cell_id);
        for ((an, av), (bn, bv)) in a.fields.iter().zip(&b.fields) {
            assert_eq!(an, bn, "{}: field order changed", a.cell_id);
            assert_eq!(av.to_bits(), bv.to_bits(), "{}/{an}: resumed value differs", a.cell_id);
        }
    }

    // The store must hold exactly |grid| distinct cell keys: the two
    // `/`-laden fraction labels may not collapse onto one key.
    let (store, resumed) =
        ResultsStore::open(&store_path, grid.fingerprint()).expect("reopen store");
    assert!(resumed, "the declared fingerprint must be the one the runner bound the store to");
    assert_eq!(store.len(), grid_size, "store must hold exactly |grid| distinct cell keys");
    for cell in grid.cells() {
        assert!(store.is_done(&cell.id()), "missing cell {}", cell.id());
    }

    println!(
        "exp_smoke_axes OK: {} distinct cell keys for a {}-cell 4-axis grid (store: {})",
        store.len(),
        grid_size,
        store_path.display()
    );
}

/// The strategy-axis smoke: every registered attack strategy as axis
/// values, resolved per cell through the adversary registry, run
/// cold→warm through the shared invariant-grid engine.
fn strategy_axis_smoke() {
    let name = "exp_smoke_strategy";
    let store_path = results_dir().join(format!("{name}.store"));
    std::fs::remove_file(&store_path).ok();

    let nets = [networks::gnutella()];
    let strategies = invariants_exp::strategy_roster();
    let opts = GridOptions::default();
    let run = || {
        invariants_exp::run_invariant_grid(name, &nets, &strategies, &[1_024.0], 2, 200.0, 1, &opts)
    };

    println!("--- strategy-axis cold run (fresh store) ---");
    let (cold_rows, cold) = run();
    assert_eq!(cold.cells_total, strategies.len(), "grid shape changed");
    assert_eq!(cold.cells_executed, strategies.len(), "cold run must execute every cell");
    assert_eq!(cold.cells_skipped, 0);

    println!("--- strategy-axis warm run (resume from store) ---");
    let (warm_rows, warm) = run();
    assert_eq!(warm.cells_executed, 0, "warm run must skip all completed cells");
    assert_eq!(warm.cells_skipped, strategies.len());
    assert!(warm.resumed, "warm run must resume the existing store");

    for (a, b) in cold_rows.iter().zip(&warm_rows) {
        assert_eq!(a.strategy, b.strategy);
        assert_eq!(
            a.max_bad_fraction.mean.to_bits(),
            b.max_bad_fraction.mean.to_bits(),
            "{}: resumed mean differs from computed mean",
            a.strategy
        );
        assert_eq!(a.good_rate.mean.to_bits(), b.good_rate.mean.to_bits());
        assert!(
            a.held && a.worst_bad_fraction < a.bound,
            "{}: Lemma 9 violated in the smoke grid ({} >= {})",
            a.strategy,
            a.worst_bad_fraction,
            a.bound
        );
    }

    println!(
        "exp_smoke_strategy OK: {} strategy cells cold-executed, {} warm-skipped, \
         Lemma 9 held (store: {})",
        cold.cells_executed,
        warm.cells_skipped,
        store_path.display()
    );
}
