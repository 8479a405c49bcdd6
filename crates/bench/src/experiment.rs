//! An experiment as one declaration, the registry of them, and the one
//! runner.
//!
//! An [`Experiment`] is a name, a banner and its [`Part`]s. A part is a
//! [`TrialGrid`], the measurement that fills one store record per cell,
//! and the [`TableSpec`]s rendered from those records: ordered
//! [`Column`] lists over [`CellResult`], one row per cell — or per row a
//! table's own [`Rows`] source returns (a slope fit per curve, the
//! baselines at the largest attack, the DHT's storeless static sweep). The
//! record's field names are the only schema: the measurement writes them,
//! the columns read them, and nothing sits in between.
//!
//! [`REGISTRY`] lists every experiment; [`main`] is all of
//! `benches/experiments.rs`, and [`run`] owns the banner, the timing, the
//! CSV files and whether the run counts as complete.

use crate::grid::{CellResult, Trial, TrialGrid};
use crate::sweep::{default_workers, fast_mode, reject_unknown_env};
use crate::table::{fmt_num, Table};
use crate::{
    ablation_exp, committee_exp, dht_exp, figure10, figure8, figure9, invariants_exp,
    lower_bound_exp,
};
use std::process::ExitCode;
use sybil_exp::spec::{AxisValue, CellSpec};
use sybil_exp::{Durability, RunSummary};

/// One experiment: what `cargo bench -p sybil-bench --bench experiments --
/// <name>` runs.
pub struct Experiment {
    /// The registry name.
    pub name: &'static str,
    /// Printed first: the paper artifact and the setup a reader needs.
    pub banner: &'static str,
    /// The parts, at `SYBIL_BENCH_FAST` (`true`) or paper scale.
    pub parts: fn(fast: bool) -> Vec<Part>,
}

/// Every experiment, by name. The first [`PAPER`] regenerate the paper's
/// evaluation and are what no name runs, in this order; the 10⁶-ID
/// variants run by name only.
pub static REGISTRY: [Experiment; 10] = [
    figure8::EXPERIMENT,
    figure9::EXPERIMENT,
    figure10::EXPERIMENT,
    lower_bound_exp::EXPERIMENT,
    committee_exp::EXPERIMENT,
    invariants_exp::EXPERIMENT,
    dht_exp::EXPERIMENT,
    ablation_exp::EXPERIMENT,
    figure8::MILLIONS,
    invariants_exp::MILLIONS,
];

/// How many of [`REGISTRY`]'s leading entries are the paper's evaluation.
pub const PAPER: usize = 8;

/// One cell's measurement: the cell and its trials in, the record fields
/// out (see [`TrialGrid::run`] for the contract).
pub type Measure = Box<dyn Fn(&CellSpec, &[Trial<'_>]) -> Vec<(String, f64)> + Send + Sync>;

/// One grid of an experiment with everything computed from it.
pub struct Part {
    /// The grid: cells, store identity, networks, trial parameters.
    pub grid: TrialGrid,
    /// How hard the store pushes each record to disk.
    pub durability: Durability,
    /// Fills one cell's record.
    pub measure: Measure,
    /// True for a cell whose data fails the experiment (Lemma 9's
    /// `VIOLATED`); a quarantined cell has no data and is reported apart.
    pub violated: Option<fn(&CellResult) -> bool>,
    /// The tables, in print order.
    pub tables: Vec<TableSpec>,
}

impl Part {
    /// Runs the grid (resuming its store) and returns the cell results in
    /// grid order with the run summary.
    pub fn run(&self) -> (Vec<CellResult>, RunSummary) {
        self.grid.run(default_workers(), self.durability, &*self.measure)
    }
}

/// Where a table's rows come from when they are not the grid's cells. It
/// runs after the grid and is handed the cell results: a derived table
/// (`scaling`, `figure8_summary`) is a function of them; the DHT's
/// storeless static sweep ignores them, and is a table only so that the
/// one runner prints it and writes its CSV.
pub type Rows = Box<dyn Fn(&[CellResult]) -> Vec<CellResult>>;

/// One output table: `results/<csv>.csv` and its rendering on stdout.
pub struct TableSpec {
    /// File stem under `results/`.
    pub csv: String,
    /// Printed above the table; empty for none.
    pub heading: &'static str,
    /// `None`: one row per cell. `Some`: the rows this source returns.
    pub rows: Option<Rows>,
    /// The columns, in order.
    pub columns: Vec<Column>,
}

impl TableSpec {
    /// A table with one row per cell.
    pub fn per_cell(csv: &str, columns: Vec<Column>) -> TableSpec {
        TableSpec { csv: csv.to_string(), heading: "", rows: None, columns }
    }

    /// The CSV header row.
    pub fn header(&self) -> Vec<&'static str> {
        self.columns.iter().map(|c| c.header).collect()
    }

    /// Builds the table from a finished grid's cell results.
    pub fn build(&self, cells: &[CellResult]) -> Table {
        let own_rows = self.rows.as_ref().map(|rows| rows(cells));
        let mut table = Table::new(self.header());
        for row in own_rows.as_deref().unwrap_or(cells) {
            table.push(self.columns.iter().map(|c| (c.value)(row, cells)).collect());
        }
        table
    }
}

/// How a row renders under a column. The second argument is always the
/// grid's cell results, for columns that compare a row with another cell
/// (Figure 10's "vs ERGO").
type Render = Box<dyn Fn(&CellResult, &[CellResult]) -> String>;

/// One column: its header and how a row renders under it.
pub struct Column {
    header: &'static str,
    value: Render,
}

impl Column {
    /// A column computed by `value`.
    pub fn new(
        header: &'static str,
        value: impl Fn(&CellResult, &[CellResult]) -> String + 'static,
    ) -> Column {
        Column { header, value: Box::new(value) }
    }

    /// The cell's value on `axis`: a label verbatim, a float through
    /// [`fmt_num`].
    pub fn axis(header: &'static str, axis: &'static str) -> Column {
        Column::new(header, move |r, _| match r.cell.value(axis) {
            Some(AxisValue::Str(label)) => label.clone(),
            Some(AxisValue::F64(x)) => fmt_num(*x),
            None => panic!("cell {} has no axis {axis:?}", r.cell.id()),
        })
    }

    /// The record field `name` through [`fmt_num`] (blank when the cell
    /// was quarantined).
    pub fn field(header: &'static str, name: &'static str) -> Column {
        Column::new(header, move |r, _| fmt_num(r.get(name)))
    }

    /// The record field `name` as a count (0 when the cell was
    /// quarantined).
    pub fn count(header: &'static str, name: &'static str) -> Column {
        Column::new(header, move |r, _| (r.get(name) as u64).to_string())
    }

    /// The same text in every row (a bound the rows are read against).
    pub fn text(header: &'static str, text: String) -> Column {
        Column::new(header, move |_, _| text.clone())
    }
}

/// Runs one experiment: banner, each part's grid, each table to stdout and
/// `results/<csv>.csv`, the elapsed time. Returns whether the run is
/// complete — `false` when a cell was quarantined (its row is blank) or
/// violated its part's invariant.
pub fn run(experiment: &Experiment, fast: bool) -> bool {
    println!("{}", experiment.banner);
    let start = std::time::Instant::now();
    let mut complete = true;
    for part in (experiment.parts)(fast) {
        let (cells, summary) = part.run();
        for spec in &part.tables {
            if !spec.heading.is_empty() {
                println!("\n{}", spec.heading);
            }
            let table = spec.build(&cells);
            println!("{}", table.render());
            if let Some(path) = table.write_csv(&spec.csv) {
                println!("csv: {}", path.display());
            }
        }
        if summary.has_holes() {
            eprintln!(
                "{}: {} cell(s) quarantined — their rows are blank; re-run to fill the holes",
                summary.experiment,
                summary.quarantined.len()
            );
            complete = false;
        }
        for cell in cells.iter().filter(|c| part.violated.is_some_and(|violated| violated(c))) {
            eprintln!("{}: VIOLATED in cell {}", summary.experiment, cell.cell.id());
            complete = false;
        }
    }
    println!("elapsed: {:.1?}\n", start.elapsed());
    complete
}

/// The `experiments` bench target: runs the named experiments, or the
/// paper's eight when none is named. Exits 2, before anything runs, on a
/// name the registry does not hold or a `SYBIL_BENCH_*` variable no bench
/// target reads, and 1 when a run was not complete.
pub fn main(names: &[String]) -> ExitCode {
    reject_unknown_env();
    let mut selected: Vec<&Experiment> = Vec::new();
    for name in names {
        match REGISTRY.iter().find(|e| e.name == name) {
            Some(experiment) => selected.push(experiment),
            None => {
                let known: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
                eprintln!("unknown experiment {name:?}; the registry holds: {}", known.join(", "));
                return ExitCode::from(2);
            }
        }
    }
    if selected.is_empty() {
        selected.extend(&REGISTRY[..PAPER]);
    }
    let fast = fast_mode();
    // Every selected experiment runs, whatever the ones before it did.
    let incomplete = selected.into_iter().filter(|e| !run(e, fast)).count();
    ExitCode::from(u8::from(incomplete > 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::results_dir;
    use sybil_exp::spec::AXIS_T;

    /// A grid of two cells (T = 0, 1), one trial, one table.
    fn two_cells(tag: &str, measure: Measure, violated: Option<fn(&CellResult) -> bool>) -> Part {
        let name = format!("runner-test-{tag}-{}", std::process::id());
        let cells =
            [0.0, 1.0].map(|t| CellSpec::new(vec![(AXIS_T.into(), AxisValue::F64(t))])).to_vec();
        let columns = vec![
            Column::axis("T", AXIS_T),
            Column::count("trials", "trials"),
            Column::field("x", "x"),
        ];
        Part {
            grid: TrialGrid::from_cells(&name, cells, "runner test", &[], 1, 1.0, 0),
            durability: Durability::Flush,
            measure,
            violated,
            tables: vec![TableSpec::per_cell(&name, columns)],
        }
    }

    fn x_is_t(cell: &CellSpec, trials: &[Trial<'_>]) -> Vec<(String, f64)> {
        vec![("trials".into(), trials.len() as f64), ("x".into(), cell.f64_value(AXIS_T))]
    }

    /// Runs `parts` through the runner, returns its verdict and the CSV it
    /// wrote, and removes what the run left in `results/`.
    fn run_and_clean(parts: fn(bool) -> Vec<Part>, leaves: &[&str]) -> (bool, String) {
        let complete = run(&Experiment { name: "runner-test", banner: "runner test", parts }, true);
        let stem = results_dir().join(&parts(true)[0].tables[0].csv);
        let csv = std::fs::read_to_string(stem.with_extension("csv")).expect("csv written");
        for extension in leaves {
            std::fs::remove_file(stem.with_extension(extension)).expect("artifact to remove");
        }
        (complete, csv)
    }

    #[test]
    fn quarantined_cell_renders_blank_and_fails_the_run() {
        let (complete, csv) = run_and_clean(
            |_| {
                let measure: Measure = Box::new(|cell, trials| match cell.f64_value(AXIS_T) {
                    0.0 => x_is_t(cell, trials),
                    _ => panic!("this cell always fails"),
                });
                vec![two_cells("hole", measure, None)]
            },
            &["csv", "store", "store.failures"],
        );
        assert!(!complete, "a quarantined cell must fail the run");
        assert_eq!(csv, "T,trials,x\n0,1,0\n1.000,0,\n", "the hole is a blank cell, not a number");
    }

    #[test]
    fn violated_cell_fails_the_run_and_a_clean_run_passes() {
        let (complete, csv) = run_and_clean(
            |_| vec![two_cells("violated", Box::new(x_is_t), Some(|r| r.get("x") >= 1.0))],
            &["csv", "store"],
        );
        assert!(!complete, "a cell its part calls violated must fail the run");
        assert_eq!(csv, "T,trials,x\n0,1,0\n1.000,1,1.000\n");
        let (complete, _) = run_and_clean(
            |_| vec![two_cells("clean", Box::new(x_is_t), Some(|r| r.get("x") >= 2.0))],
            &["csv", "store"],
        );
        assert!(complete);
    }

    #[test]
    fn unknown_name_exits_2_before_anything_runs() {
        // Were the names not all checked first, `figure8` would run.
        let names = ["figure8".to_string(), "figure7".to_string()];
        assert_eq!(main(&names), ExitCode::from(2));
    }
}
