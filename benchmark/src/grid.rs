//! `grid_fig8`: a Figure-8-shaped grid through `exp::run_spec_grid`, the
//! way `bench::grid::run_spend_grid` drives it, but with its cache and
//! store under the benchmark's own scratch directory and both cold on
//! every pass.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use sybil_bench::figure8;
use sybil_bench::sweep::{self, Algo};
use sybil_churn::model::ChurnModel;
use sybil_churn::networks;
use sybil_crypto::Sha256;
use sybil_exp::spec::{CellSpec, AXIS_ALGO, AXIS_NETWORK, AXIS_T};
use sybil_exp::{ExperimentSpec, GridOutcome, Welford, WorkloadCache};
use sybil_sim::Time;

use crate::adapters::Costs;
use crate::harness::{fresh_dir, Ctx, Driver, Layers, PassOut, PassTrace};
use crate::replay::{absorb_f64, invariant_applies, run_disk_cell, sim_config, EngineLayers};
use crate::{probes, stats};

/// Worker threads: both cores of the reference box, no more.
const WORKERS: usize = 2;
/// Independent workload seeds per cell.
const TRIALS: u32 = 2;
/// The grid's attack rates: the no-attack baseline, a light and a
/// heavy attack.
const T_GRID: [f64; 3] = [0.0, 1024.0, 1_048_576.0];

/// Exp-layer sums of the traced passes.
#[derive(Default)]
struct ExpLayers {
    cache_hits: u64,
    cache_misses: u64,
    cache_ns: u64,
    simulate_ns: u64,
    cells: u64,
    pool_busy_s: f64,
    idle_fractions: Vec<f64>,
    imbalances: Vec<f64>,
    other_s: f64,
    retries: u64,
    quarantined: u64,
    resume_s: Vec<f64>,
}

/// What the cell closure accumulates across worker threads.
#[derive(Default)]
struct CellSums {
    engine: EngineLayers,
    cache_ns: u64,
    simulate_ns: u64,
    failed: u64,
    latencies_us: Vec<f64>,
}

/// Workload 3.
#[derive(Default)]
pub struct GridFig8 {
    root: PathBuf,
    spec: Option<ExperimentSpec>,
    context: String,
    nets: HashMap<String, ChurnModel>,
    algos: HashMap<String, Algo>,
    cell_index: HashMap<String, u64>,
    passes: u64,
    engine: EngineLayers,
    exp: ExpLayers,
    invariants_hold: bool,
}

impl GridFig8 {
    /// One run of `spec` over `dir` (cold when `dir` is fresh, resumed
    /// when it holds a finished store).
    fn run_grid(
        &self,
        spec: &ExperimentSpec,
        dir: &Path,
        trace: Option<PassTrace<'_>>,
        sums: &Mutex<CellSums>,
    ) -> (GridOutcome, sybil_exp::CacheStats) {
        let cache = WorkloadCache::open(dir.join("cache")).unwrap_or_else(|e| {
            panic!("cannot open the workload cache under {}: {e}", dir.display())
        });
        let run_cell_spec = |cell: &CellSpec| -> Vec<(String, f64)> {
            let cell_started = Instant::now();
            let net = &self.nets[cell.str_value(AXIS_NETWORK)];
            let algo = self.algos[cell.str_value(AXIS_ALGO)];
            let t = cell.f64_value(AXIS_T);
            let span =
                trace.map(|tr| tr.tracer.open("cell", Some(tr.span), self.cell_index[&cell.id()]));
            let mut acc = [Welford::new(); 4];
            let (mut cache_ns, mut simulate_ns) = (0u64, 0u64);
            let mut engine = EngineLayers::default();
            let mut ok = true;
            for trial in 0..spec.trials {
                let started = Instant::now();
                let disk = cache
                    .get_or_create(net, Time(spec.horizon), spec.workload_seed(trial))
                    .unwrap_or_else(|e| panic!("workload cache failed for {}: {e}", cell.id()));
                cache_ns += started.elapsed().as_nanos() as u64;
                let cfg = sim_config(spec.horizon, t);
                let dseed = spec.defense_seed(trial);
                let started = Instant::now();
                let report = match (trace, span) {
                    (Some(tr), Some(span)) => {
                        let costs = Costs::default();
                        let trial_span = tr.tracer.open("trial", Some(span), u64::from(trial));
                        let report = run_disk_cell(cfg, algo, t, dseed, disk, Some(&costs));
                        tr.tracer.close(trial_span);
                        let wall_ns = started.elapsed().as_nanos() as u64;
                        engine.absorb(tr, trial_span, algo, wall_ns, 0, &report, &costs.totals());
                        report
                    }
                    _ => run_disk_cell(cfg, algo, t, dseed, disk, None),
                };
                simulate_ns += started.elapsed().as_nanos() as u64;
                ok &= !invariant_applies(algo) || sweep::check_invariant(&report, spec.kappa);
                acc[0].push(report.good_spend_rate());
                acc[1].push(report.adv_spend_rate());
                acc[2].push(report.max_bad_fraction);
                acc[3].push(report.purges as f64);
            }
            let mut fields = vec![("trials".to_string(), f64::from(spec.trials))];
            for (name, w) in
                ["good_rate", "adv_rate", "max_bad_fraction", "purges"].iter().zip(&acc)
            {
                fields.extend(w.summary().fields(name));
            }
            if let (Some(tr), Some(span)) = (trace, span) {
                tr.tracer.close(span);
                tr.tracer.aggregate(span, "exp.cache", u64::from(spec.trials), cache_ns);
            }
            let mut sums = sums.lock().expect("cell sums are plain additions");
            if ok {
                sums.latencies_us.push(cell_started.elapsed().as_secs_f64() * 1e6);
            } else {
                sums.failed += 1;
            }
            sums.cache_ns += cache_ns;
            sums.simulate_ns += simulate_ns;
            sums.engine.merge(engine);
            fields
        };
        let outcome = sybil_exp::run_spec_grid(
            spec,
            &self.context,
            &dir.join("results"),
            Some(&cache),
            WORKERS,
            run_cell_spec,
        )
        .unwrap_or_else(|e| panic!("grid_fig8 failed under {}: {e}", dir.display()));
        (outcome, cache.stats())
    }
}

fn fingerprint(outcome: &GridOutcome) -> sybil_crypto::Digest {
    let mut hasher = Sha256::new();
    for record in &outcome.records {
        match record {
            None => hasher.update(b"hole"),
            Some(record) => {
                hasher.update(record.cell_id.as_bytes());
                for (name, value) in &record.fields {
                    hasher.update(name.as_bytes());
                    absorb_f64(&mut hasher, *value);
                }
            }
        }
    }
    hasher.finalize()
}

impl Driver for GridFig8 {
    fn identical_passes(&self) -> bool {
        true
    }

    /// A fresh scratch root, the declarative spec with its fingerprint
    /// context, and a one-cell preflight grid (last network, first
    /// algorithm, the light attack, one trial; run cold, then resumed)
    /// that proves the cache, store and pool paths work under the scratch
    /// root before anything is timed. The full grid's workloads are *not*
    /// generated here: its cache is cold on every pass, as on a
    /// researcher's first run.
    fn setup(&mut self, ctx: &Ctx) {
        self.root = ctx.tmp.join("grid");
        fresh_dir(&self.root);
        let nets = networks::all_networks();
        let roster = figure8::roster();
        let spec = ExperimentSpec::three_axis(
            "grid_fig8",
            nets.iter().map(|n| n.name.to_string()).collect(),
            roster.iter().map(Algo::label).collect(),
            T_GRID.to_vec(),
            TRIALS,
            ctx.sizes.grid_horizon,
            sim_config(1.0, 0.0).kappa,
            ctx.seed,
        );
        let preflight = ExperimentSpec::three_axis(
            "preflight",
            vec![nets[nets.len() - 1].name.to_string()],
            vec![roster[0].label()],
            vec![T_GRID[1]],
            1,
            spec.horizon,
            spec.kappa,
            spec.seed,
        );
        self.context = format!("networks = {nets:?}\nroster = {roster:?}\n");
        self.cell_index =
            spec.cells().iter().enumerate().map(|(i, c)| (c.id(), i as u64)).collect();
        self.nets = nets.into_iter().map(|n| (n.name.to_string(), n)).collect();
        self.algos = roster.into_iter().map(|a| (a.label(), a)).collect();
        self.spec = Some(spec);
        let dir = self.root.join("preflight");
        let run = |dir: &Path| self.run_grid(&preflight, dir, None, &Mutex::default()).0.summary;
        let (cold, warm) = (run(&dir), run(&dir));
        self.invariants_hold = cold.cells_executed == 1 && warm.cells_skipped == 1;
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn pass(&mut self, _ctx: &Ctx, trace: Option<PassTrace<'_>>, out: &mut PassOut) {
        let dir = self.root.join(format!("pass-{}", self.passes));
        self.passes += 1;
        let sums = Mutex::new(CellSums::default());
        let started = Instant::now();
        fresh_dir(&dir);
        let spec = self.spec.as_ref().expect("set-up ran");
        let (cold, cache_stats) = self.run_grid(spec, &dir, trace, &sums);
        out.wall_s = started.elapsed().as_secs_f64();

        // Untimed: the warm re-run must skip every cell and hand back the
        // same records from the store (reads beside the pass's writes).
        let started = Instant::now();
        let (warm, _) = self.run_grid(spec, &dir, None, &Mutex::default());
        let resume_s = started.elapsed().as_secs_f64();
        let total = cold.records.len();
        let summary = &cold.summary;
        let resumed = warm.summary.cells_skipped == total && warm.records == cold.records;
        self.invariants_hold &= resumed && summary.cells_executed == total;
        let _ = std::fs::remove_dir_all(&dir);

        let sums = sums.into_inner().expect("no worker panicked holding the sums");
        out.attempted = total as u64;
        out.failed = sums.failed + summary.quarantined.len() as u64;
        out.ops = out.attempted - out.failed;
        out.latencies_us = sums.latencies_us;
        out.fingerprint = Some(fingerprint(&cold));
        if trace.is_some() {
            self.engine.merge(sums.engine);
            let exp = &mut self.exp;
            exp.cache_hits += cache_stats.hits;
            exp.cache_misses += cache_stats.misses;
            exp.cache_ns += sums.cache_ns;
            exp.simulate_ns += sums.simulate_ns;
            exp.cells += summary.cells_executed as u64;
            exp.pool_busy_s += summary.pool.workers.iter().map(|w| w.busy_secs).sum::<f64>();
            exp.idle_fractions.push(summary.pool.idle_fraction());
            exp.imbalances.push(summary.pool.job_imbalance());
            exp.other_s += summary.wall_secs - summary.pool.wall_secs;
            exp.retries += summary.retries;
            exp.quarantined += summary.quarantined.len() as u64;
            exp.resume_s.push(resume_s);
        }
    }

    fn finish(&mut self, ctx: &Ctx, _cells_per_s: f64, layers: &mut Layers) -> bool {
        if ctx.traced_run {
            let spec = self.spec.as_ref().expect("set-up ran");
            let started = Instant::now();
            for net in self.nets.values() {
                for trial in 0..spec.trials {
                    std::hint::black_box(
                        net.generate(Time(spec.horizon), spec.workload_seed(trial)),
                    );
                }
            }
            layers.set("churn.generate_s", started.elapsed().as_secs_f64());
            self.engine.report(layers);
            let exp = &mut self.exp;
            layers.set("exp.cache.hits", exp.cache_hits as f64);
            layers.set("exp.cache.misses", exp.cache_misses as f64);
            layers.set("exp.cache.busy_s", exp.cache_ns as f64 / 1e9);
            layers.set("exp.simulate.cells", exp.cells as f64);
            layers.set("exp.simulate.busy_s", exp.simulate_ns as f64 / 1e9);
            layers.set("exp.store.append_us", probes::store_append_us(&self.root));
            layers.set("exp.store.resume_s", stats::median(&mut exp.resume_s));
            layers.set("exp.pool.busy_s", exp.pool_busy_s);
            layers.set("exp.pool.idle_fraction", stats::median(&mut exp.idle_fractions));
            layers.set("exp.pool.job_imbalance", stats::median(&mut exp.imbalances));
            layers.set("exp.runner.other_s", exp.other_s);
            layers.set("exp.runner.retries", exp.retries as f64);
            layers.set("exp.runner.quarantined", exp.quarantined as f64);
        }
        let _ = std::fs::remove_dir_all(&self.root);
        self.invariants_hold
    }
}
