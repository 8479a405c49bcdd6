//! Multi-trial experiment grids on the `sybil-exp` orchestration
//! subsystem.
//!
//! [`TrialGrid`] is the one driver every figure experiment runs through:
//! a driver *declares* its grid (named axes or an explicit cell list, plus
//! the context its store fingerprint hashes) and supplies the per-cell
//! measurement; [`TrialGrid::run`] does the rest — opens the shared
//! content-addressed [`WorkloadCache`], hands each cell its [`Trial`]s
//! (seeds derived grid-wide, workloads materialized once and
//! disk-streamed), executes on the `sybil-exp` pool with resume, retry and
//! quarantine, prints the run summary, and returns the records zipped
//! with their cells as [`CellResult`]s for the driver's row mapping.
//!
//! [`run_spend_grid`] is the (network × algorithm × T) instance behind
//! Figures 8 and 10 and the million-ID variant.

use crate::sweep::{default_workers, run_report_with, Algo};
use crate::table::results_dir;
use std::path::PathBuf;
use sybil_churn::model::ChurnModel;
use sybil_exp::runner::RunSummary;
use sybil_exp::spec::{text_fingerprint, CellSpec, AXIS_ALGO, AXIS_NETWORK, AXIS_T};
use sybil_exp::{
    defense_seed, trial_seed, ExperimentSpec, GridOptions, MetricSummary, Record, Welford,
    WorkloadCache,
};
use sybil_sim::engine::SimConfig;
use sybil_sim::time::Time;
use sybil_sim::workload_io::DiskWorkload;

/// One aggregated cell of a spend-rate grid: per-metric trial statistics.
#[derive(Clone, Debug)]
pub struct SpendSummary {
    /// Network name.
    pub network: String,
    /// Algorithm label.
    pub algo: String,
    /// Configured adversary spend rate `T`.
    pub t: f64,
    /// Good spend rate `A` over trials.
    pub good_rate: MetricSummary,
    /// Measured adversary spend rate over trials.
    pub adv_rate: MetricSummary,
    /// Maximum instantaneous Sybil fraction over trials.
    pub max_bad_fraction: MetricSummary,
    /// Purges executed over trials.
    pub purges: MetricSummary,
    /// Whether the algorithm's guarantee covers this `T` (curve cutoff).
    pub guarantee: bool,
}

/// The four metrics every spend cell records, in store-field order.
const METRICS: [&str; 4] = ["good_rate", "adv_rate", "max_bad_fraction", "purges"];

/// The trial count every figure experiment shares: 5 independent workload
/// seeds per cell at paper scale, 2 in `SYBIL_BENCH_FAST` smoke mode.
pub(crate) fn trials_for(fast: bool) -> u32 {
    if fast {
        2
    } else {
        5
    }
}

/// A multi-trial experiment grid, declared as data: the ordered cells, the
/// identity its results store is bound to, the networks its cells replay,
/// and the trial parameters.
///
/// A *declarative* grid ([`from_spec`](Self::from_spec)) is the cartesian
/// product of an [`ExperimentSpec`]'s named axes; its store fingerprint is
/// the hash of the spec text plus a driver-supplied context string, and
/// the spec is written next to the store as `<name>.spec`. An *explicit*
/// grid ([`from_cells`](Self::from_cells)) lists its cells (for grids that
/// are not a full product) and hashes a driver-supplied configuration
/// text. Either way the context must carry everything the axis labels
/// *resolve to* — churn-model parameters, defense configurations — so a
/// code change to a label's meaning re-runs the grid instead of resuming
/// stale cells.
pub struct TrialGrid {
    name: String,
    cells: Vec<CellSpec>,
    spec: Option<(ExperimentSpec, String)>,
    fingerprint: String,
    nets: Vec<ChurnModel>,
    trials: u32,
    horizon: f64,
    seed: u64,
}

/// One trial of one cell: its seeds, and the cached workload it replays.
///
/// Seeds derive from the grid's base seed and the trial index only —
/// never from the cell — so every cell of a trial replays the same
/// good-ID schedule and one cache entry per (network, trial) serves the
/// whole grid.
pub struct Trial<'a> {
    /// Trial index, `0..trials`.
    pub index: u32,
    /// Defense-construction seed, chained from the workload seed.
    pub defense_seed: u64,
    /// Simulated seconds per run.
    pub horizon: f64,
    workload_seed: u64,
    cell: &'a CellSpec,
    source: Option<(&'a WorkloadCache, &'a ChurnModel)>,
}

impl Trial<'_> {
    /// A fresh disk-streamed handle onto this trial's workload for the
    /// cell's network, generated into the cache on first use. Two calls
    /// give two independent streams of the same file.
    ///
    /// # Panics
    ///
    /// Panics if the grid declared no networks, or the cache is unusable.
    pub fn workload(&self) -> DiskWorkload {
        let cell = self.cell;
        let (cache, net) =
            self.source.unwrap_or_else(|| panic!("cell {}: grid has no networks", cell.id()));
        cache
            .get_or_create(net, Time(self.horizon), self.workload_seed)
            .unwrap_or_else(|e| panic!("workload cache failed for {}: {e}", cell.id()))
    }
}

/// One cell of a finished grid with what the store holds for it.
pub struct CellResult {
    /// The cell.
    pub cell: CellSpec,
    /// Its record; `None` for a quarantined cell, which every accessor
    /// reads as NaN so tables and CSVs render it blank.
    pub record: Option<Record>,
}

impl CellResult {
    /// The recorded field `name` (NaN when quarantined or absent).
    pub fn get(&self, name: &str) -> f64 {
        self.record.as_ref().and_then(|r| r.get(name)).unwrap_or(f64::NAN)
    }

    /// The recorded trial count (0 when quarantined).
    pub fn trials(&self) -> u64 {
        self.get("trials") as u64
    }

    /// The `<name>_mean, _ci95_lo, _ci95_hi` triple written by
    /// [`MetricSummary::fields`].
    pub fn summary(&self, name: &str) -> MetricSummary {
        MetricSummary::from_record_opt(self.record.as_ref(), name, self.trials())
    }
}

/// Two cells naming the same label could not be told apart (and would
/// alias in the store).
fn assert_distinct(grid: &str, what: &str, labels: impl IntoIterator<Item = String>) {
    let mut seen = std::collections::BTreeSet::new();
    for label in labels {
        assert!(seen.insert(label.clone()), "duplicate {what} {label:?} in {grid}");
    }
}

fn distinct_nets(name: &str, nets: &[ChurnModel]) -> Vec<ChurnModel> {
    assert_distinct(name, "network", nets.iter().map(|n| n.name.to_string()));
    nets.to_vec()
}

impl TrialGrid {
    /// The grid of `spec`'s named axes; `context` is hashed into the store
    /// fingerprint with the spec text.
    ///
    /// # Panics
    ///
    /// Panics if two of `nets` share a name — cells could not tell them
    /// apart.
    pub fn from_spec(spec: ExperimentSpec, context: String, nets: &[ChurnModel]) -> TrialGrid {
        TrialGrid {
            name: spec.name.clone(),
            cells: spec.cells(),
            fingerprint: text_fingerprint(&format!("{}\n{context}", spec.to_text())),
            nets: distinct_nets(&spec.name, nets),
            trials: spec.trials,
            horizon: spec.horizon,
            seed: spec.seed,
            spec: Some((spec, context)),
        }
    }

    /// An explicit cell list; `config` is the text whose hash binds the
    /// store (it must include the trial parameters too — no spec text
    /// carries them here).
    ///
    /// # Panics
    ///
    /// Panics if two of `nets` share a name.
    pub fn from_cells(
        name: &str,
        cells: Vec<CellSpec>,
        config: &str,
        nets: &[ChurnModel],
        trials: u32,
        horizon: f64,
        seed: u64,
    ) -> TrialGrid {
        TrialGrid {
            name: name.to_string(),
            cells,
            spec: None,
            fingerprint: text_fingerprint(config),
            nets: distinct_nets(name, nets),
            trials,
            horizon,
            seed,
        }
    }

    /// The cells, in grid (and row) order.
    pub fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    /// The fingerprint the results store is bound to.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The network `cell` replays: the one its `network` axis names, or —
    /// for cells without that axis — the grid's only network.
    ///
    /// # Panics
    ///
    /// Panics if the axis names a network the grid was not given, or the
    /// cell has no such axis and the grid has several networks.
    pub fn net(&self, cell: &CellSpec) -> &ChurnModel {
        match cell.value(AXIS_NETWORK) {
            Some(_) => {
                let name = cell.str_value(AXIS_NETWORK);
                self.nets.iter().find(|n| n.name == name).unwrap_or_else(|| {
                    panic!("{}: cell {} names an undeclared network", self.name, cell.id())
                })
            }
            None => match self.nets.as_slice() {
                [only] => only,
                _ => panic!(
                    "{}: cell {} does not say which network it replays",
                    self.name,
                    cell.id()
                ),
            },
        }
    }

    /// Runs the grid and returns one [`CellResult`] per cell, in cell
    /// order, plus the run summary (also printed to stderr).
    ///
    /// `run_cell` measures one cell: it receives the cell and its
    /// [`Trial`]s and returns the record fields (by convention a leading
    /// `trials` count, then [`MetricSummary::fields`] triples). It must be
    /// a pure function of its arguments — it runs on pool workers, and
    /// again if an attempt fails. Finished cells land in
    /// `results/<name>.store`; re-running the same grid resumes, skipping
    /// them. A grid without networks opens no workload cache.
    ///
    /// # Panics
    ///
    /// Panics if the cache or results directories are unusable.
    pub fn run<F>(
        &self,
        workers: usize,
        opts: &GridOptions,
        run_cell: F,
    ) -> (Vec<CellResult>, RunSummary)
    where
        F: Fn(&CellSpec, &[Trial<'_>]) -> Vec<(String, f64)> + Send + Sync,
    {
        let cache = (!self.nets.is_empty()).then(|| {
            WorkloadCache::open(default_cache_dir())
                .unwrap_or_else(|e| panic!("cannot open workload cache: {e}"))
        });
        let run = |cell: &CellSpec| {
            let source = cache.as_ref().map(|cache| (cache, self.net(cell)));
            let trials: Vec<Trial<'_>> = (0..self.trials)
                .map(|index| {
                    let workload_seed = trial_seed(self.seed, index as u64);
                    Trial {
                        index,
                        workload_seed,
                        defense_seed: defense_seed(workload_seed),
                        horizon: self.horizon,
                        cell,
                        source,
                    }
                })
                .collect();
            run_cell(cell, &trials)
        };
        let outcome = match &self.spec {
            Some((spec, context)) => sybil_exp::run_spec_grid_opts(
                spec,
                context,
                &results_dir(),
                cache.as_ref(),
                workers,
                opts,
                run,
            ),
            None => sybil_exp::run_grid(
                &self.name,
                &self.fingerprint,
                &results_dir().join(format!("{}.store", self.name)),
                self.cells.iter().map(|cell| (cell.id(), cell.clone())).collect(),
                cache.as_ref(),
                workers,
                opts,
                run,
            ),
        }
        .unwrap_or_else(|e| panic!("experiment {} failed: {e}", self.name));
        eprint!("{}", outcome.summary.render());
        let results = self
            .cells
            .iter()
            .cloned()
            .zip(outcome.records)
            .map(|(cell, record)| CellResult { cell, record })
            .collect();
        (results, outcome.summary)
    }
}

/// The cache directory the figure drivers share:
/// `SYBIL_EXP_CACHE_DIR` if set, else `target/workload_cache` under the
/// repo root (cache entries are derived artifacts, never committed).
pub fn default_cache_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("SYBIL_EXP_CACHE_DIR") {
        return PathBuf::from(dir);
    }
    let raw = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    raw.canonicalize().unwrap_or(raw).join("target").join("workload_cache")
}

/// Runs a multi-trial (networks × roster × T) spend grid: every cell
/// aggregates its trials' [`SimReport`](sybil_sim::SimReport)s into
/// t-based 95 % confidence intervals (see [`TrialGrid::run`] for caching,
/// resume and the printed summary). Each trial replays its cached
/// workload on one thread; the pool runs cells side by side.
///
/// # Panics
///
/// Panics if the cache or store directories are unusable, or if a label
/// in `roster`/`nets` is not unique — cells would alias in the store.
pub fn run_spend_grid(
    name: &str,
    nets: &[ChurnModel],
    roster: &[Algo],
    t_grid: &[f64],
    trials: u32,
    horizon: f64,
    base_seed: u64,
) -> (Vec<SpendSummary>, RunSummary) {
    run_spend(&spend_grid(name, nets, roster, t_grid, trials, horizon, base_seed), roster)
}

/// Declares the (networks × roster × T) spend grid Figures 8 and 10 run.
pub(crate) fn spend_grid(
    name: &str,
    nets: &[ChurnModel],
    roster: &[Algo],
    t_grid: &[f64],
    trials: u32,
    horizon: f64,
    base_seed: u64,
) -> TrialGrid {
    assert_distinct(name, "algorithm label", roster.iter().map(Algo::label));
    for &t in t_grid {
        // Spec validation only guarantees finiteness (axes are generic);
        // a spend rate is additionally a rate, so pin the domain here
        // before anything lands in a durable store.
        assert!(t >= 0.0, "{name}: spend rate {t} must be non-negative");
    }
    let spec = ExperimentSpec::three_axis(
        name,
        nets.iter().map(|n| n.name.to_string()).collect(),
        roster.iter().map(|a| a.label()).collect(),
        t_grid.to_vec(),
        trials,
        horizon,
        sybil_sim::SimConfig::default().kappa,
        base_seed,
    );
    // The spec names networks/algorithms by label; the fingerprint context
    // carries what those labels currently *mean*: full churn-model
    // parameters, the roster variants, and the default defense configs
    // `Algo::dispatch` resolves them against — so editing a model, a
    // roster entry, or a defense constant in code invalidates stored
    // cells instead of silently resuming them.
    let context = {
        use ergo_core::params::{ErgoConfig, Heuristics};
        // Every named config constructor `Algo::dispatch` can reach (see
        // sybil_defenses::variants): the classifier gate's remaining
        // inputs — accuracy and seed — are already covered by the roster
        // Debug form and the spec seed.
        format!(
            "networks = {nets:?}\nroster = {roster:?}\nergo = {:?}\nccom = {:?}\n\
             ch1 = {:?}\nch2 = {:?}\nsybilcontrol = {:?}\nremp = {:?}\n",
            ErgoConfig::default(),
            ErgoConfig::ccom(),
            ErgoConfig::with_heuristics(Heuristics::ch1()),
            ErgoConfig::with_heuristics(Heuristics::ch2()),
            sybil_defenses::SybilControl::default(),
            sybil_defenses::RempConfig::default(),
        )
    };
    TrialGrid::from_spec(spec, context, nets)
}

/// Runs a grid declared by [`spend_grid`] over `roster` (the same roster
/// it was declared with: cells name algorithms by label).
pub(crate) fn run_spend(grid: &TrialGrid, roster: &[Algo]) -> (Vec<SpendSummary>, RunSummary) {
    let algo_of = |cell: &CellSpec| {
        let label = cell.str_value(AXIS_ALGO);
        *roster.iter().find(|a| a.label() == label).expect("cell names a roster algorithm")
    };
    let (results, summary) =
        grid.run(default_workers(), &GridOptions::default(), |cell, trials| {
            let (algo, t) = (algo_of(cell), cell.f64_value(AXIS_T));
            let mut acc = [Welford::new(); 4];
            for trial in trials {
                let cfg =
                    SimConfig { horizon: Time(trial.horizon), adv_rate: t, ..SimConfig::default() };
                let report = run_report_with(cfg, algo, t, trial.defense_seed, trial.workload());
                acc[0].push(report.good_spend_rate());
                acc[1].push(report.adv_spend_rate());
                acc[2].push(report.max_bad_fraction);
                acc[3].push(report.purges as f64);
            }
            let mut fields = vec![("trials".to_string(), trials.len() as f64)];
            for (name, w) in METRICS.iter().zip(&acc) {
                fields.extend(w.summary().fields(name));
            }
            fields
        });
    let rows = results
        .iter()
        .map(|r| {
            let t = r.cell.f64_value(AXIS_T);
            SpendSummary {
                network: r.cell.str_value(AXIS_NETWORK).to_string(),
                algo: r.cell.str_value(AXIS_ALGO).to_string(),
                t,
                good_rate: r.summary("good_rate"),
                adv_rate: r.summary("adv_rate"),
                max_bad_fraction: r.summary("max_bad_fraction"),
                purges: r.summary("purges"),
                guarantee: algo_of(&r.cell).guarantee_covers(t, grid.net(&r.cell).initial_size),
            }
        })
        .collect();
    (rows, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sybil_churn::networks;

    /// Store compatibility, pinned per experiment driver at its
    /// `SYBIL_BENCH_FAST` parameters: SHA-256 over the store fingerprint
    /// and the ordered cell-id list. The values were captured from stores
    /// the pre-`TrialGrid` drivers wrote (`SYBIL_BENCH_FAST=1
    /// SYBIL_BENCH_WORKERS=1 cargo bench -p sybil-bench`); as long as they
    /// hold, a `results/*.store` written by any earlier commit resumes
    /// with zero cells re-executed. A pin may only change together with a
    /// deliberate change to what the experiment computes.
    #[test]
    fn store_identities_are_pinned() {
        use crate::{
            ablation_exp, committee_exp, dht_exp, figure10, figure8, figure9, invariants_exp,
            lower_bound_exp,
        };
        let pins = [
            (
                figure8::grid(true),
                "60abe5a3dcb89ce59f203e50bed916daf1eec5231cc61820cf8c9a16f15434e4",
            ),
            (
                figure10::grid(true),
                "8b884d81d551f378ccf6f06657f5ba38afa776881ae3995ec6953b2a26ef820c",
            ),
            (
                figure9::grid(true),
                "127f855001bf3a5c32d953ec5f363fd1fcdd37befdd4b5564e6d6b71f8bb1b35",
            ),
            (
                invariants_exp::invariants_grid(true),
                "325e2cbcf48d04d6c8e04da73e0762415d75cb284174d4d4b3a0cd46fc9f450d",
            ),
            (
                invariants_exp::scaling_grid(true),
                "a513883f782489115c7ca10a50513d144d10898f255214204dd7856087925031",
            ),
            (
                ablation_exp::grid(true),
                "e8af4ab423404d06f76315a818d00075aed5d768c358e9c9815f9bb50e502758",
            ),
            (
                committee_exp::grid(true),
                "6fbc7b2e3c9e7ef6c2895d1fe59a245b404931d03651fe8bf79532916ff2b81e",
            ),
            (
                dht_exp::end_to_end_grid(true),
                "d12deec73b181b40b40252bcd548511e5874f2b983b1b5d6023a2cef9f8eb3fa",
            ),
            (
                lower_bound_exp::grid(true),
                "fa260e954918620ee12079b1ae30482a4e0afe28df9e348c848350c3edf96f8e",
            ),
        ];
        for (grid, pin) in pins {
            let ids: Vec<String> = grid.cells().iter().map(|c| c.id()).collect();
            let identity = format!("{}\n{}", grid.fingerprint(), ids.join("\n"));
            assert_eq!(text_fingerprint(&identity), pin, "{}: store identity drifted", grid.name);
        }
    }

    #[test]
    fn tiny_grid_end_to_end_with_resume() {
        // A 1-network × 2-algo × 2-T grid with 2 trials, isolated cache and
        // store dirs via env override is not possible per-test (process
        // global), so use a uniquely named experiment in the shared dirs.
        let name = format!("grid-test-{}", std::process::id());
        let net = networks::gnutella();
        let roster = [Algo::Ergo, Algo::CCom];
        let (rows, summary) = run_spend_grid(&name, &[net], &roster, &[0.0, 64.0], 2, 50.0, 5);
        assert_eq!(rows.len(), 4);
        assert_eq!(summary.cells_executed, 4);
        for row in &rows {
            assert_eq!(row.good_rate.n, 2);
            assert!(row.good_rate.mean > 0.0);
            assert!(
                row.good_rate.ci95_lo <= row.good_rate.mean
                    && row.good_rate.mean <= row.good_rate.ci95_hi
            );
        }
        // Warm re-run: all cells resume from the store, bit-identically.
        let (rows2, summary2) =
            run_spend_grid(&name, &[networks::gnutella()], &roster, &[0.0, 64.0], 2, 50.0, 5);
        assert_eq!(summary2.cells_executed, 0);
        assert_eq!(summary2.cells_skipped, 4);
        for (a, b) in rows.iter().zip(&rows2) {
            assert_eq!(a.good_rate.mean.to_bits(), b.good_rate.mean.to_bits());
            assert_eq!(a.purges.mean.to_bits(), b.purges.mean.to_bits());
        }
        // Clean up this test's store artifacts.
        std::fs::remove_file(results_dir().join(format!("{name}.store"))).ok();
        std::fs::remove_file(results_dir().join(format!("{name}.spec"))).ok();
    }
}
