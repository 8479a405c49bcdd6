//! Multi-trial experiment grids on the `sybil-exp` orchestration
//! subsystem.
//!
//! [`TrialGrid`] is the one driver every figure experiment runs through:
//! a driver *declares* its grid (named axes or an explicit cell list, plus
//! the context its store fingerprint hashes) and supplies the per-cell
//! measurement; [`TrialGrid::run`] does the rest — opens the shared
//! content-addressed [`WorkloadCache`], hands each cell its [`Trial`]s
//! (seeds derived grid-wide, workloads materialized once and
//! disk-streamed), executes on the `sybil-exp` pool with resume and
//! quarantine, prints the run summary, and returns the records zipped
//! with their cells as [`CellResult`]s for the experiment's columns.
//!
//! [`spend_part`] is the (network × algorithm × T) instance behind
//! Figures 8 and 10 and the million-ID variant.

use crate::experiment::{Column, Part};
use crate::sweep::{run_report_with, Algo};
use crate::table::results_dir;
use std::path::PathBuf;
use sybil_churn::model::ChurnModel;
use sybil_exp::runner::RunSummary;
use sybil_exp::spec::{text_fingerprint, AxisValue, CellSpec, AXIS_ALGO, AXIS_NETWORK, AXIS_T};
use sybil_exp::{
    defense_seed, trial_seed, Durability, ExperimentSpec, Record, Welford, WorkloadCache,
};
use sybil_sim::engine::SimConfig;
use sybil_sim::time::Time;
use sybil_sim::workload_io::DiskWorkload;

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
#[derive(Clone)]
pub struct CellResult {
    /// The cell.
    pub cell: CellSpec,
    /// Its record; `None` for a quarantined cell, which every accessor
    /// reads as NaN so tables and CSVs render it blank.
    pub record: Option<Record>,
}

impl CellResult {
    /// A row of a table with its own [`Rows`](crate::experiment::Rows)
    /// source: not a cell of the grid, but rendered by the same columns,
    /// so it carries its labels as axes and its numbers as record fields.
    pub fn row(axes: Vec<(String, AxisValue)>, fields: Vec<(String, f64)>) -> CellResult {
        let cell = CellSpec::new(axes);
        CellResult { record: Some(Record::new(cell.id(), fields)), cell }
    }

    /// The recorded field `name` (NaN when quarantined).
    ///
    /// # Panics
    ///
    /// Panics if the record lacks the field: the column (or row source)
    /// asking for it and the measurement that wrote the record disagree
    /// about the schema (see "Adding an experiment" in the crate docs for
    /// what that asks of a measurement that gains a field).
    pub fn get(&self, name: &str) -> f64 {
        self.record.as_ref().map_or(f64::NAN, |r| {
            r.get(name).unwrap_or_else(|| panic!("record {} lacks field {name:?}", r.cell_id))
        })
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
    /// `trials` count, then [`sybil_exp::MetricSummary::fields`] triples). It must be
    /// a pure function of its arguments — it runs on pool workers. Finished
    /// cells land in
    /// `results/<name>.store`; re-running the same grid resumes, skipping
    /// them. A grid without networks opens no workload cache.
    ///
    /// # Panics
    ///
    /// Panics if the cache or results directories are unusable.
    pub fn run<F>(
        &self,
        workers: usize,
        durability: Durability,
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
            Some((spec, context)) => sybil_exp::run_spec_grid_with(
                spec,
                context,
                &results_dir(),
                cache.as_ref(),
                workers,
                durability,
                run,
            ),
            None => sybil_exp::run_grid(
                &self.name,
                &self.fingerprint,
                &results_dir().join(format!("{}.store", self.name)),
                self.cells.iter().map(|cell| (cell.id(), cell.clone())).collect(),
                cache.as_ref(),
                workers,
                durability,
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
/// repo root (cache entries are derived artifacts, never committed). A
/// value [`parse_cache_dir`] rejects exits 2.
pub fn default_cache_dir() -> PathBuf {
    let raw = std::env::var("SYBIL_EXP_CACHE_DIR");
    if let Some(dir) = sybil_exp::env::or_abort(parse_cache_dir(raw)) {
        return dir;
    }
    let raw = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    raw.canonicalize().unwrap_or(raw).join("target").join("workload_cache")
}

/// Parses a `SYBIL_EXP_CACHE_DIR` setting, trimmed like every knob. An
/// empty value is an error: as a path it names the current directory,
/// where the cache would write its entries and sweep its stale temporary
/// files. So is a value that is not Unicode, rather than a silent
/// fall-back to the default.
fn parse_cache_dir(raw: Result<String, std::env::VarError>) -> Result<Option<PathBuf>, String> {
    sybil_exp::env::parse("SYBIL_EXP_CACHE_DIR", raw, |v| match v {
        "" => Err("is empty: name a directory, or unset it for target/workload_cache".into()),
        dir => Ok(PathBuf::from(dir)),
    })
}

/// The part every spend experiment runs: the (networks × roster × T) grid
/// and its measurement — each cell replays its trials' cached workloads
/// under `BudgetJoiner(T)` and aggregates the [`SimReport`]s into t-based
/// 95 % confidence intervals per metric. The caller adds the tables.
///
/// # Panics
///
/// Panics if a label in `roster`/`nets` is not unique — cells would alias
/// in the store.
///
/// [`SimReport`]: sybil_sim::SimReport
pub fn spend_part(
    name: &str,
    nets: &[ChurnModel],
    roster: &[Algo],
    t_grid: &[f64],
    trials: u32,
    horizon: f64,
    base_seed: u64,
) -> Part {
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
    let roster = roster.to_vec();
    Part {
        grid: TrialGrid::from_spec(spec, context, nets),
        durability: Durability::Flush,
        measure: Box::new(move |cell, trials| {
            let (algo, t) = (algo_of(&roster, cell), cell.f64_value(AXIS_T));
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
        }),
        violated: None,
        tables: Vec::new(),
    }
}

/// The roster entry a spend cell's `algo` axis names.
pub(crate) fn algo_of(roster: &[Algo], cell: &CellSpec) -> Algo {
    let label = cell.str_value(AXIS_ALGO);
    *roster.iter().find(|a| a.label() == label).expect("cell names a roster algorithm")
}

/// The columns Figures 8 and 10 share — the per-network series the paper
/// plots, with the trial mean and 95 % confidence bounds for `A` — around
/// the one column in which they differ.
pub(crate) fn spend_columns(algo_header: &'static str, relative: Column) -> Vec<Column> {
    vec![
        Column::axis("network", AXIS_NETWORK),
        Column::axis(algo_header, AXIS_ALGO),
        Column::axis("T", AXIS_T),
        Column::count("trials", "trials"),
        Column::field("mean", "good_rate_mean"),
        Column::field("ci95_lo", "good_rate_ci95_lo"),
        Column::field("ci95_hi", "good_rate_ci95_hi"),
        relative,
        Column::field("max bad frac", "max_bad_fraction_mean"),
        Column::field("purges", "purges_mean"),
    ]
}

/// Plain Ergo's mean spend rate in the cell of `cells` that shares
/// `like`'s network and `T` (the denominator of every "relative to ERGO"
/// column).
pub(crate) fn ergo_mean(cells: &[CellResult], like: &CellResult) -> Option<f64> {
    let same = |c: &CellResult| {
        c.cell.str_value(AXIS_NETWORK) == like.cell.str_value(AXIS_NETWORK)
            && c.cell.f64_value(AXIS_T) == like.cell.f64_value(AXIS_T)
    };
    cells
        .iter()
        .find(|c| same(c) && c.cell.str_value(AXIS_ALGO) == "ERGO")
        .map(|c| c.get("good_rate_mean"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::REGISTRY;
    use crate::figure9::AXIS_FRAC;
    use std::env::VarError;
    use sybil_churn::networks;
    use sybil_exp::spec::Axis;
    use sybil_exp::ResultsStore;
    use sybil_sim::workload::WorkloadSource;

    /// Store and CSV compatibility, pinned for every grid of every
    /// registered experiment at its `SYBIL_BENCH_FAST` parameters: per
    /// grid, SHA-256 over the store fingerprint and the ordered cell-id
    /// list, then the header row of each CSV its tables write. The
    /// identities were captured from stores earlier commits wrote — the
    /// nine paper grids' from the pre-`TrialGrid` drivers
    /// (`SYBIL_BENCH_FAST=1 SYBIL_BENCH_WORKERS=1 cargo bench -p
    /// sybil-bench`), the two `_millions` from the bins that ran them
    /// before the registry — so as long as they hold, such a
    /// `results/*.store` resumes with zero cells re-executed. A pin may
    /// only change together with a deliberate change to what the
    /// experiment computes; an experiment without pins fails here.
    #[test]
    fn store_identities_are_pinned() {
        const PINS: &str = "\
figure8 60abe5a3dcb89ce59f203e50bed916daf1eec5231cc61820cf8c9a16f15434e4
  figure8.csv network,algorithm,T,trials,mean,ci95_lo,ci95_hi,A/T,max bad frac,purges,guarantee
  figure8_summary.csv network,baseline,T,A_baseline / A_ERGO
figure9 127f855001bf3a5c32d953ec5f363fd1fcdd37befdd4b5564e6d6b71f8bb1b35
  figure9.csv network,bad fraction,T,trials,intervals,min est/true,mean,ci95_lo,ci95_hi,max est/true
figure10 8b884d81d551f378ccf6f06657f5ba38afa776881ae3995ec6953b2a26ef820c
  figure10.csv network,variant,T,trials,mean,ci95_lo,ci95_hi,vs ERGO,max bad frac,purges
lower_bound fa260e954918620ee12079b1ae30482a4e0afe28df9e348c848350c3edf96f8e
  lower_bound.csv cost function,T,J,J_B (fixed point),spend rate,sqrt(TJ)+J,spend/bound
committee 6fbc7b2e3c9e7ef6c2895d1fe59a245b404931d03651fe8bf79532916ff2b81e
  committee.csv network,adversary,T,trials,elections,mean size,min good frac,bound,SMR msgs,A decentralized,ci95_lo,ci95_hi,A centralized,max bad frac
invariants 325e2cbcf48d04d6c8e04da73e0762415d75cb284174d4d4b3a0cd46fc9f450d
  invariants.csv network,adversary,T,trials,max bad frac,ci95_lo,ci95_hi,worst,bound (3k),held,A
scaling a513883f782489115c7ca10a50513d144d10898f255214204dd7856087925031
  scaling.csv network,algorithm,trials,A~T^e mean,ci95_lo,ci95_hi,points,theory
dht_end_to_end d12deec73b181b40b40252bcd548511e5874f2b983b1b5d6023a2cef9f8eb3fa
  dht_grid.csv bad fraction,strategy,lookup success rate
  dht_end_to_end.csv adversary,T (attack on membership),trials,ring size,Sybil fraction,wide-8 success mean,ci95_lo,ci95_hi
ablation e8af4ab423404d06f76315a818d00075aed5d768c358e9c9815f9bb50e502758
  ablation.csv knob,value,trials,mean,ci95_lo,ci95_hi,purges,max bad frac,bound
figure8_millions 2718fbf509073714033c881b295a0c3d37314b7cb01d8680c2c07b28d814f1bf
  figure8_millions.csv network,algorithm,T,trials,mean,ci95_lo,ci95_hi,A/T,max bad frac,purges,guarantee
invariants_millions cf8f6ffef1588398dd896376967a307b0064327d3f9a54afc535bfb563949c10
  invariants_millions.csv network,adversary,T,trials,max bad frac,ci95_lo,ci95_hi,worst,bound (3k),held,A
";
        let mut declared = Vec::new();
        for part in REGISTRY.iter().flat_map(|experiment| (experiment.parts)(true)) {
            let ids: Vec<String> = part.grid.cells().iter().map(|c| c.id()).collect();
            let identity = format!("{}\n{}", part.grid.fingerprint(), ids.join("\n"));
            declared.push(format!("{} {}", part.grid.name, text_fingerprint(&identity)));
            for table in &part.tables {
                declared.push(format!("  {}.csv {}", table.csv, table.header().join(",")));
            }
        }
        let pinned: Vec<&str> = PINS.lines().collect();
        assert_eq!(declared, pinned, "a store identity, CSV name or header row drifted");
    }

    /// Field for field, in field order, bit for bit: what resume must
    /// serve back.
    fn assert_same_records(cold: &[CellResult], warm: &[CellResult]) {
        let bits = |cells: &[CellResult]| -> Vec<(String, Vec<(String, u64)>)> {
            let records = cells.iter().map(|c| c.record.as_ref().expect("no holes"));
            let bits = |(name, value): &(String, f64)| (name.clone(), value.to_bits());
            records.map(|r| (r.cell_id.clone(), r.fields.iter().map(bits).collect())).collect()
        };
        assert_eq!(bits(cold), bits(warm));
    }

    /// Removes what the grid `name` wrote under `results/` when dropped,
    /// so a failed assertion leaves nothing behind either.
    struct Artifacts(String);

    impl Drop for Artifacts {
        fn drop(&mut self) {
            for ext in ["store", "spec", "store.failures", "store.prev"] {
                std::fs::remove_file(results_dir().join(format!("{}.{ext}", self.0))).ok();
            }
        }
    }

    #[test]
    fn tiny_grid_end_to_end_with_resume() {
        // 1 network × 2 algorithms × 2 T, 2 trials. The cache and store
        // dirs are process-global, so the experiment's name is unique.
        let name = format!("grid-test-{}", std::process::id());
        let _artifacts = Artifacts(name.clone());
        let roster = [Algo::Ergo, Algo::CCom];
        let part = spend_part(&name, &[networks::gnutella()], &roster, &[0.0, 64.0], 2, 50.0, 5);
        let (cold, summary) = part.run();
        assert_eq!(cold.len(), 4);
        assert_eq!(summary.cells_executed, 4);
        for c in &cold {
            assert_eq!(c.get("trials"), 2.0);
            assert!(c.get("good_rate_mean") > 0.0);
            assert!(
                c.get("good_rate_ci95_lo") <= c.get("good_rate_mean")
                    && c.get("good_rate_mean") <= c.get("good_rate_ci95_hi")
            );
        }
        // Warm re-run: all cells resume from the store, bit-identically.
        let (warm, summary2) = part.run();
        assert_eq!(summary2.cells_executed, 0);
        assert_eq!(summary2.cells_skipped, 4);
        assert!(summary2.resumed);
        assert_same_records(&cold, &warm);

        // Four named axes, the fourth with labels containing the store's
        // separator `/`: cold → warm the same way, and the store must hold
        // exactly |grid| distinct keys under the fingerprint the grid
        // declares — the structural guard against cell-id aliasing.
        let name = format!("grid-test-axes-{}", std::process::id());
        let _axes_artifacts = Artifacts(name.clone());
        let spec = ExperimentSpec {
            name: name.clone(),
            axes: vec![
                Axis::strs(AXIS_NETWORK, ["gnutella"]),
                Axis::strs(AXIS_ALGO, ["ERGO"]),
                Axis::floats(AXIS_T, [0.0, 1024.0]),
                Axis::strs(AXIS_FRAC, ["1/24", "1/6"]),
            ],
            trials: 2,
            horizon: 200.0,
            kappa: SimConfig::default().kappa,
            seed: 1,
        };
        let grid = TrialGrid::from_spec(spec, String::new(), &[networks::gnutella()]);
        let run = || {
            grid.run(2, Durability::Flush, |_, trials| {
                let sessions = trials.iter().map(|t| t.workload().session_count()).sum::<u64>();
                vec![("trials".into(), trials.len() as f64), ("sessions".into(), sessions as f64)]
            })
        };
        let (cold, summary) = run();
        assert_eq!((grid.cells().len(), summary.cells_executed), (4, 4));
        let (warm, summary2) = run();
        assert_eq!((summary2.cells_executed, summary2.cells_skipped), (0, 4));
        assert!(!summary.has_holes() && !summary2.has_holes());
        assert_same_records(&cold, &warm);
        let store_path = results_dir().join(format!("{name}.store"));
        let (store, resumed) = ResultsStore::open(&store_path, grid.fingerprint()).unwrap();
        assert!(resumed, "the declared fingerprint is the one the runner bound the store to");
        assert_eq!(store.len(), 4, "exactly |grid| distinct cell keys");
        for cell in grid.cells() {
            assert!(store.is_done(&cell.id()), "missing cell {}", cell.id());
        }
        drop(store);
    }

    #[test]
    fn cache_dir_parsing_is_strict() {
        assert_eq!(parse_cache_dir(Err(VarError::NotPresent)), Ok(None));
        assert_eq!(parse_cache_dir(Ok(" /tmp/wk ".into())), Ok(Some(PathBuf::from("/tmp/wk"))));
        for empty in ["", "  "] {
            let err = parse_cache_dir(Ok(empty.into())).unwrap_err();
            assert!(err.starts_with("SYBIL_EXP_CACHE_DIR=\"\" is empty"), "{err}");
        }
        let not_unicode = VarError::NotUnicode(std::ffi::OsString::from("\u{fffd}"));
        let err = parse_cache_dir(Err(not_unicode)).unwrap_err();
        assert!(err.starts_with("SYBIL_EXP_CACHE_DIR is not valid unicode"), "{err}");
    }
}
