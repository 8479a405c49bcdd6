//! Store-level integration tests for strategy-axis experiment grids: a
//! grid whose cells differ only in their adversary-strategy axis value
//! must record one distinct results-store key per strategy, resume from
//! the store without re-executing, keep warm records bit-identical, and
//! hold the Lemma 9 invariant in every cell.

use sybil_bench::invariants_exp::{bound, invariant_part, strategy_roster};
use sybil_bench::table::results_dir;
use sybil_churn::networks;
use sybil_exp::spec::{Axis, AXIS_NETWORK, AXIS_STRATEGY, AXIS_T};
use sybil_exp::{ExperimentSpec, GridOptions, ResultsStore};
use sybil_sim::engine::SimConfig;

/// Rebuilds the exact spec `invariant_part` derives, so the test can pin
/// the written `.spec` file and enumerate the canonical cell ids the store
/// must contain without asking the part under test for either.
fn expected_spec(name: &str, trials: u32, horizon: f64, seed: u64) -> ExperimentSpec {
    ExperimentSpec {
        name: name.into(),
        axes: vec![
            Axis::strs(AXIS_NETWORK, ["gnutella"]),
            Axis::strs(AXIS_STRATEGY, strategy_roster().iter().map(|s| s.to_string())),
            Axis::floats(AXIS_T, [2_000.0]),
        ],
        trials,
        horizon,
        kappa: SimConfig::default().kappa,
        seed,
    }
}

#[test]
fn strategy_axis_grid_resumes_from_the_store_with_distinct_keys() {
    let name = format!("strategy-grid-test-{}", std::process::id());
    let nets = [networks::gnutella()];
    let (trials, horizon, seed) = (2u32, 100.0, 31u64);
    let part = invariant_part(
        &name,
        &nets,
        &strategy_roster(),
        &[2_000.0],
        trials,
        horizon,
        seed,
        GridOptions::default(),
    );
    let mean_bits = |row: &sybil_bench::grid::CellResult, metric: &str| {
        row.get(&format!("{metric}_mean")).to_bits()
    };

    let (cold_rows, cold) = part.run();
    assert_eq!(cold.cells_total, strategy_roster().len());
    assert_eq!(cold.cells_executed, strategy_roster().len());
    // Lemma 9: the worst instantaneous Sybil fraction any trial reached
    // stays below 3κ under every registered attack strategy.
    for row in &cold_rows {
        let worst = row.get("worst_bad_fraction");
        assert!(worst < bound(), "{}: Lemma 9 violated ({worst} >= {})", row.cell.id(), bound());
        assert_eq!(row.get("trials"), trials as f64);
        let mean = row.get("max_bad_fraction_mean");
        assert!(row.get("max_bad_fraction_ci95_lo") <= mean);
        assert!(mean <= row.get("max_bad_fraction_ci95_hi"));
    }

    // Store level: one distinct key per strategy cell, under the exact
    // canonical ids the spec derives — no two strategies may alias.
    let spec = expected_spec(&name, trials, horizon, seed);
    assert_eq!(part.grid.cells(), spec.cells(), "the part's cells are not the spec's");
    let store_path = results_dir().join(format!("{name}.store"));
    let spec_path = results_dir().join(format!("{name}.spec"));
    let written_spec = std::fs::read_to_string(&spec_path).expect("spec written for provenance");
    assert_eq!(written_spec, spec.to_text(), "driver spec drifted from the test's expectation");
    // Any fingerprint opens the file enough to count keys; use a fresh
    // store handle bound to a bogus fingerprint to prove mismatches
    // rebuild rather than resume.
    let (bogus, resumed) = ResultsStore::open(&store_path, "not-the-fingerprint").unwrap();
    assert!(!resumed, "a changed fingerprint must not resume");
    assert_eq!(bogus.len(), 0);
    drop(bogus);

    // Re-run: the bogus open above truncated the store (fingerprint
    // mismatch ⇒ rebuild), so the grid re-executes and re-records.
    let (rows_after_invalidation, summary) = part.run();
    assert_eq!(summary.cells_executed, strategy_roster().len());
    for (a, b) in cold_rows.iter().zip(&rows_after_invalidation) {
        assert_eq!(a.cell, b.cell);
        assert_eq!(
            mean_bits(a, "max_bad_fraction"),
            mean_bits(b, "max_bad_fraction"),
            "{}: deterministic re-run must reproduce the cell bit-exactly",
            a.cell.id()
        );
    }

    // Warm: every cell resumes; the store holds exactly |grid| keys with
    // the canonical ids.
    let (warm_rows, warm) = part.run();
    assert_eq!(warm.cells_executed, 0);
    assert_eq!(warm.cells_skipped, strategy_roster().len());
    for (a, b) in rows_after_invalidation.iter().zip(&warm_rows) {
        assert_eq!(mean_bits(a, "good_rate"), mean_bits(b, "good_rate"));
    }
    let fingerprint_line = std::fs::read_to_string(&store_path).expect("store readable");
    let ids: Vec<String> = spec.cells().iter().map(|c| c.id()).collect();
    for id in &ids {
        assert!(fingerprint_line.contains(id.as_str()), "store lacks canonical cell id {id}");
        assert!(id.contains("strategy="), "{id} lost the strategy axis");
    }
    assert_eq!(
        ids.iter().collect::<std::collections::BTreeSet<_>>().len(),
        strategy_roster().len(),
        "strategy cells must map to distinct store keys"
    );

    std::fs::remove_file(&store_path).ok();
    // The bogus-fingerprint open displaced the cold store to `.prev`.
    std::fs::remove_file(store_path.with_extension("store.prev")).ok();
    std::fs::remove_file(&spec_path).ok();
}
