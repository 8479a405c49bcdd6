//! `replay_attack` and `replay_stream`: the engine on one thread, used two
//! ways. Also [`run_cell`], the one place a simulation is run with the
//! timed adapters installed (the grid's cells go through it too).

use std::path::PathBuf;
use std::time::Instant;

use sybil_bench::figure8;
use sybil_bench::sweep::{self, Algo, AlgoVisitor, RunParams};
use sybil_churn::model::ChurnModel;
use sybil_churn::networks;
use sybil_crypto::Sha256;
use sybil_exp::defense_seed;
use sybil_sim::adversary::BudgetJoiner;
use sybil_sim::defense::Defense;
use sybil_sim::engine::{SimConfig, Simulation};
use sybil_sim::workload_io::{write_workload_file, DiskWorkload};
use sybil_sim::{SimReport, Time, WorkloadSource};

use crate::adapters::{
    add_costs, timer_overhead_ns, CostTotals, Costs, TimedAdversary, TimedDefense, TimedSource,
    SLOT_NAMES,
};
use crate::harness::{fresh_dir, Ctx, Driver, Layers, PassOut, PassTrace};
use crate::{probes, stats};

/// Runs one simulation cell: exactly `sweep::run_report_with` when
/// untraced; with `costs`, the same simulation built by a benchmark-side
/// [`AlgoVisitor`] around the timed defense and adversary (see
/// [`run_disk_cell`] for sources that decode from disk).
pub fn run_cell<W: WorkloadSource>(
    cfg: SimConfig,
    algo: Algo,
    t: f64,
    defense_seed: u64,
    source: W,
    costs: Option<&Costs>,
) -> SimReport {
    struct Traced<'a, W> {
        cfg: SimConfig,
        t: f64,
        source: W,
        costs: &'a Costs,
    }
    impl<W: WorkloadSource> AlgoVisitor for Traced<'_, W> {
        type Out = SimReport;
        fn visit<D: Defense + 'static>(self, defense: D) -> SimReport {
            let costs = self.costs;
            Simulation::new(
                self.cfg,
                TimedDefense { inner: defense, costs },
                TimedAdversary { inner: BudgetJoiner::new(self.t), costs },
                self.source,
            )
            .run()
        }
    }
    match costs {
        None => sweep::run_report_with(cfg, algo, t, defense_seed, source),
        Some(costs) => algo.dispatch(defense_seed, Traced { cfg, t, source, costs }),
    }
}

/// [`run_cell`] on a workload file: with `costs`, decoding is timed too.
pub fn run_disk_cell(
    cfg: SimConfig,
    algo: Algo,
    t: f64,
    defense_seed: u64,
    disk: DiskWorkload,
    costs: Option<&Costs>,
) -> SimReport {
    match costs {
        None => run_cell(cfg, algo, t, defense_seed, disk, None),
        Some(costs) => {
            run_cell(cfg, algo, t, defense_seed, TimedSource { inner: disk, costs }, Some(costs))
        }
    }
}

/// Folds a float into a fingerprint at 9 significant digits: exact bits
/// would pin the platform's `libm` (the churn generators call `ln` and
/// `powf`, which may differ in the last place between builds of glibc),
/// not the program's decisions. `bench_compare` draws the same line.
pub fn absorb_f64(hasher: &mut Sha256, value: f64) {
    hasher.update(format!("{value:.8e};").as_bytes());
}

/// Folds the decision-bearing fields of a report into a pass fingerprint.
pub fn absorb_report(hasher: &mut Sha256, report: &SimReport) {
    for count in [
        report.events_processed,
        report.purges,
        report.good_joins_admitted,
        report.good_departures,
        report.bad_joins_admitted,
        report.final_members,
        report.peak_queue_len as u64,
    ] {
        hasher.update(&count.to_le_bytes());
    }
    for value in [report.good_spend_rate(), report.adv_spend_rate(), report.max_bad_fraction] {
        absorb_f64(hasher, value);
    }
}

/// Whether the Lemma 9 bound (`max_bad_fraction < 3κ = 1/6`) is claimed
/// for `algo`: the Ergo family. SybilControl and REMP break past their
/// capacity by design (the Figure 8 curve cutoffs).
pub fn invariant_applies(algo: Algo) -> bool {
    !matches!(algo, Algo::SybilControl | Algo::Remp(_))
}

/// The per-layer metric carrying `algo`'s median cell time.
pub fn cell_metric(algo: Algo) -> &'static str {
    match algo {
        Algo::CCom => "defenses.ccom.cell_us",
        Algo::SybilControl => "defenses.sybilcontrol.cell_us",
        Algo::Remp(_) => "defenses.remp.cell_us",
        Algo::ErgoSf(_) | Algo::ErgoSfFull(_) => "classifier.ergo_sf.cell_us",
        Algo::Ergo | Algo::ErgoCh1 | Algo::ErgoCh2 => "core.ergo.cell_us",
    }
}

/// Engine-side sums of the traced passes, shared by the three workloads
/// that run simulations.
#[derive(Default)]
pub struct EngineLayers {
    /// Callback totals over all traced cells.
    pub costs: CostTotals,
    /// Σ cell wall, ns.
    pub cell_ns: u64,
    /// Σ wall spent obtaining each cell's source (`cached_workload`
    /// clone, `DiskWorkload::open`), ns: a child of the cell span, named
    /// by the workload that reports it.
    pub fetch_ns: u64,
    /// Σ `events_processed`.
    pub events: u64,
    /// Σ `purges`.
    pub purges: u64,
    /// Max `peak_queue_len`.
    pub peak_queue_len: usize,
    /// Max `admission_bytes + workload_stream_bytes`.
    pub resident_bytes: usize,
    /// `(metric, cell wall in µs)` per traced cell.
    pub cell_us: Vec<(&'static str, f64)>,
}

impl EngineLayers {
    /// Accounts one traced cell and attaches its aggregates to `span`.
    #[allow(clippy::too_many_arguments)]
    pub fn absorb(
        &mut self,
        trace: PassTrace<'_>,
        span: u32,
        algo: Algo,
        wall_ns: u64,
        fetch_ns: u64,
        report: &SimReport,
        costs: &CostTotals,
    ) {
        add_costs(&mut self.costs, costs);
        self.fetch_ns += fetch_ns;
        for (name, (calls, ns)) in SLOT_NAMES.iter().zip(costs) {
            trace.tracer.aggregate(span, name, *calls, *ns);
        }
        self.cell_ns += wall_ns;
        self.events += report.events_processed;
        self.purges += report.purges;
        self.peak_queue_len = self.peak_queue_len.max(report.peak_queue_len);
        self.resident_bytes =
            self.resident_bytes.max(report.admission_bytes + report.workload_stream_bytes);
        self.cell_us.push((cell_metric(algo), wall_ns as f64 / 1e3));
    }

    /// Merges another accumulator (the grid's per-cell ones).
    pub fn merge(&mut self, other: EngineLayers) {
        add_costs(&mut self.costs, &other.costs);
        self.cell_ns += other.cell_ns;
        self.fetch_ns += other.fetch_ns;
        self.events += other.events;
        self.purges += other.purges;
        self.peak_queue_len = self.peak_queue_len.max(other.peak_queue_len);
        self.resident_bytes = self.resident_bytes.max(other.resident_bytes);
        self.cell_us.extend(other.cell_us);
    }

    /// Reports the `sim.*`, `defense.*` and `*.cell_us` metrics. Each
    /// `busy_s` is the wall summed inside the adapter minus the timer's own
    /// measured share of it; the engine's self time is the remainder:
    /// cell wall minus fetching the source, minus every callback's raw
    /// time, minus the timer cost that falls outside the callbacks. The
    /// parts therefore sum to an estimate of the *untraced* cell wall.
    pub fn report(&self, layers: &mut Layers) {
        let (inside, outside) = timer_overhead_ns();
        let mut children = self.fetch_ns as f64;
        for (name, &(calls, ns)) in SLOT_NAMES.iter().zip(&self.costs) {
            let busy_ns = (ns as f64 - calls as f64 * inside).max(0.0);
            layers.set(&format!("{name}.calls"), calls as f64);
            layers.set(&format!("{name}.busy_s"), busy_ns / 1e9);
            children += ns as f64 + calls as f64 * outside;
        }
        layers.set("sim.engine.self_s", (self.cell_ns as f64 - children).max(0.0) / 1e9);
        layers.set("sim.engine.events", self.events as f64);
        layers.set("sim.engine.purges", self.purges as f64);
        layers.set("sim.engine.peak_queue_len", self.peak_queue_len as f64);
        layers.set("sim.engine.resident_bytes", self.resident_bytes as f64);
        let mut names: Vec<&str> = self.cell_us.iter().map(|c| c.0).collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let mut walls: Vec<f64> =
                self.cell_us.iter().filter(|c| c.0 == name).map(|c| c.1).collect();
            layers.set(name, stats::median(&mut walls));
        }
    }

    /// Reports the queue and admission probes' per-op cost at this
    /// workload's observed queue depth and event count, and their
    /// estimated share of an *untraced* event's wall (every event is one
    /// queue pop+push and about one admission-map access).
    pub fn report_probes(&self, layers: &mut Layers, horizon: f64, ids: u64, events_per_s: f64) {
        let events_per_cell = self.events / self.cell_us.len().max(1) as u64;
        let queue_ns = probes::queue_ns_per_op(self.peak_queue_len, events_per_cell, horizon);
        let admission_ns = probes::admission_ns_per_op(ids);
        layers.set("sim.queue.ns_per_op", queue_ns);
        layers.set("sim.queue.est_share", queue_ns * 1e-9 * events_per_s);
        layers.set("sim.admission.ns_per_op", admission_ns);
        layers.set("sim.admission.est_share", admission_ns * 1e-9 * events_per_s);
    }
}

/// The engine configuration of every benchmark cell (κ = 1/18 as in
/// `RunParams::default()` and the grid specs).
pub fn sim_config(horizon: f64, t: f64) -> SimConfig {
    SimConfig { horizon: Time(horizon), adv_rate: t, ..SimConfig::default() }
}

/// Times one from-scratch generation of every network's workload.
fn generate_all(nets: &[ChurnModel], horizon: f64, seed: u64) -> f64 {
    let started = Instant::now();
    for net in nets {
        std::hint::black_box(net.generate(Time(horizon), seed));
    }
    started.elapsed().as_secs_f64()
}

/// Workload 1: the Figure 8 roster under attack, replayed from memory
/// through `sweep::run_report`.
#[derive(Default)]
pub struct ReplayAttack {
    nets: Vec<ChurnModel>,
    generate_s: f64,
    engine: EngineLayers,
    invariants_hold: bool,
}

/// The attack rates of `replay_attack`.
const ATTACK_RATES: [u32; 3] = [10, 15, 20];

impl Driver for ReplayAttack {
    fn identical_passes(&self) -> bool {
        true
    }

    /// Generates the four networks' schedules from scratch. The passes
    /// fetch theirs through `sweep::cached_workload` as every sweep does,
    /// which generates once more on first touch (in the first warm-up
    /// pass) and clones afterwards.
    fn setup(&mut self, ctx: &Ctx) {
        self.nets = networks::all_networks();
        self.generate_s = generate_all(&self.nets, ctx.sizes.attack_horizon, ctx.seed);
        self.invariants_hold = true;
    }

    fn pass(&mut self, ctx: &Ctx, trace: Option<PassTrace<'_>>, out: &mut PassOut) {
        let horizon = ctx.sizes.attack_horizon;
        let params = RunParams { horizon, seed: ctx.seed, ..RunParams::default() };
        let mut hasher = Sha256::new();
        let started = Instant::now();
        let mut cell = 0u64;
        for net in &self.nets {
            for algo in figure8::roster() {
                for exp in ATTACK_RATES {
                    let t = f64::from(1u32 << exp);
                    out.attempted += 1;
                    let cell_started = Instant::now();
                    let report = match trace {
                        None => sweep::run_report(net, algo, t, params),
                        Some(trace) => {
                            let span = trace.tracer.open("cell", Some(trace.span), cell);
                            let workload = sweep::cached_workload(net, horizon, ctx.seed);
                            let clone_ns = cell_started.elapsed().as_nanos() as u64;
                            let costs = Costs::default();
                            let report = run_cell(
                                sim_config(horizon, t),
                                algo,
                                t,
                                defense_seed(ctx.seed),
                                workload,
                                Some(&costs),
                            );
                            trace.tracer.close(span);
                            let wall_ns = cell_started.elapsed().as_nanos() as u64;
                            trace.tracer.aggregate(span, "sim.workload.clone", 1, clone_ns);
                            self.engine.absorb(
                                trace,
                                span,
                                algo,
                                wall_ns,
                                clone_ns,
                                &report,
                                &costs.totals(),
                            );
                            report
                        }
                    };
                    let wall_us = cell_started.elapsed().as_secs_f64() * 1e6;
                    if invariant_applies(algo) && !sweep::check_invariant(&report, params.kappa) {
                        out.failed += 1;
                        self.invariants_hold = false;
                    } else {
                        out.latencies_us.push(wall_us);
                    }
                    out.ops += report.events_processed;
                    absorb_report(&mut hasher, &report);
                    cell += 1;
                }
            }
        }
        out.wall_s = started.elapsed().as_secs_f64();
        out.fingerprint = Some(hasher.finalize());
    }

    fn finish(&mut self, ctx: &Ctx, events_per_s: f64, layers: &mut Layers) -> bool {
        if ctx.traced_run {
            layers.set("churn.generate_s", self.generate_s);
            layers.set("sim.workload.clone_s", self.engine.fetch_ns as f64 / 1e9);
            self.engine.report(layers);
            self.engine.report_probes(
                layers,
                ctx.sizes.attack_horizon,
                networks::DEFAULT_INITIAL,
                events_per_s,
            );
        }
        self.invariants_hold
    }
}

/// Workload 2: a million-ID schedule streamed from disk under ERGO with
/// no adversary.
#[derive(Default)]
pub struct ReplayStream {
    path: PathBuf,
    generate_s: f64,
    write_s: f64,
    engine: EngineLayers,
    invariants_hold: bool,
}

impl Driver for ReplayStream {
    fn identical_passes(&self) -> bool {
        true
    }

    /// Generates the schedule and writes it to a fresh directory; the
    /// file then sits in the page cache for every replay.
    fn setup(&mut self, ctx: &Ctx) {
        let dir = ctx.tmp.join("stream");
        fresh_dir(&dir);
        self.path = dir.join("millions.wkld");
        let net = networks::millions(ctx.sizes.stream_ids);
        let started = Instant::now();
        let workload = net.generate(Time(ctx.sizes.stream_horizon), ctx.seed);
        self.generate_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        write_workload_file(&self.path, &workload)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", self.path.display()));
        self.write_s = started.elapsed().as_secs_f64();
        self.invariants_hold = true;
    }

    fn pass(&mut self, ctx: &Ctx, trace: Option<PassTrace<'_>>, out: &mut PassOut) {
        let mut hasher = Sha256::new();
        let started = Instant::now();
        for replay in 0..ctx.sizes.stream_replays {
            out.attempted += 1;
            let span = trace.map(|t| t.tracer.open("replay", Some(t.span), replay as u64));
            let op_started = Instant::now();
            let disk = match DiskWorkload::open(&self.path) {
                Ok(disk) => disk,
                Err(e) => {
                    eprintln!("replay_stream: cannot open {}: {e}", self.path.display());
                    out.failed += 1;
                    continue;
                }
            };
            let open_ns = op_started.elapsed().as_nanos() as u64;
            let costs = trace.map(|_| Costs::default());
            let cfg = sim_config(ctx.sizes.stream_horizon, 0.0);
            let report =
                run_disk_cell(cfg, Algo::Ergo, 0.0, defense_seed(ctx.seed), disk, costs.as_ref());
            let wall_ns = op_started.elapsed().as_nanos() as u64;
            if let (Some(trace), Some(span), Some(costs)) = (trace, span, &costs) {
                trace.tracer.close(span);
                trace.tracer.aggregate(span, "sim.workload_io.open", 1, open_ns);
                self.engine.absorb(
                    trace,
                    span,
                    Algo::Ergo,
                    wall_ns,
                    open_ns,
                    &report,
                    &costs.totals(),
                );
            }
            if sweep::check_invariant(&report, SimConfig::default().kappa) {
                out.latencies_us.push(wall_ns as f64 / 1e3);
            } else {
                out.failed += 1;
                self.invariants_hold = false;
            }
            out.ops += report.events_processed;
            absorb_report(&mut hasher, &report);
        }
        out.wall_s = started.elapsed().as_secs_f64();
        out.fingerprint = Some(hasher.finalize());
    }

    fn finish(&mut self, ctx: &Ctx, events_per_s: f64, layers: &mut Layers) -> bool {
        if ctx.traced_run {
            layers.set("churn.generate_s", self.generate_s);
            layers.set("sim.workload_io.write_s", self.write_s);
            layers.set("sim.workload_io.open_s", self.engine.fetch_ns as f64 / 1e9);
            self.engine.report(layers);
            self.engine.report_probes(
                layers,
                ctx.sizes.stream_horizon,
                ctx.sizes.stream_ids,
                events_per_s,
            );
            let cfg = sim_config(ctx.sizes.stream_horizon, 0.0);
            let (s1, s2) = probes::shard_rates(&self.path, cfg, defense_seed(ctx.seed));
            layers.set("sim.shard.s2_events_per_s", s2);
            layers.set("sim.shard.s2_ratio", s2 / s1);
        }
        self.invariants_hold
    }
}
