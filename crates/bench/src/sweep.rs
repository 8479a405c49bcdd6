//! Shared experiment machinery: algorithm roster and spend-rate runs.

use ergo_core::defid::DefIdChecker;
use sybil_churn::model::ChurnModel;
use sybil_defenses as defs;
use sybil_exp::defense_seed;
use sybil_sim::adversary::BudgetJoiner;
use sybil_sim::defense::Defense;
use sybil_sim::engine::{SimConfig, Simulation};
use sybil_sim::time::Time;
use sybil_sim::workload::WorkloadSource;
use sybil_sim::SimReport;

/// Every algorithm appearing in the paper's Figures 8 and 10.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Algo {
    /// Plain Ergo (Figure 4).
    Ergo,
    /// CCom: constant entrance cost 1 (paper reference 98).
    CCom,
    /// SybilControl (paper reference 67).
    SybilControl,
    /// REMP with the given `Tmax` (paper reference 99, run with 10⁷).
    Remp(f64),
    /// ERGO-SF with the given classifier accuracy (Figure 8 variant: plain
    /// Ergo + classifier gate).
    ErgoSf(f64),
    /// ERGO-CH1 (Heuristics 1+2, Figure 10).
    ErgoCh1,
    /// ERGO-CH2 (Heuristics 1+2+3, Figure 10).
    ErgoCh2,
    /// ERGO-SF(x) as in Figure 10: Heuristics 1–4.
    ErgoSfFull(f64),
}

/// A generic consumer of a concretely-typed defense.
///
/// This is the monomorphized dispatch point for sweeps: [`Algo::dispatch`]
/// matches once on the algorithm and hands the visitor a *concrete*
/// defense value, so `Simulation::run` (and every per-event defense
/// callback in its inner loop) compiles as direct, inlinable calls instead
/// of virtual dispatch through `Box<dyn Defense>`.
pub trait AlgoVisitor {
    /// The result produced for the defense.
    type Out;

    /// Runs on the built, concretely-typed defense.
    fn visit<D: Defense + 'static>(self, defense: D) -> Self::Out;
}

impl Algo {
    /// Builds the defense and passes it, concretely typed, to `visitor`.
    pub fn dispatch<V: AlgoVisitor>(&self, seed: u64, visitor: V) -> V::Out {
        match *self {
            Algo::Ergo => visitor.visit(defs::ergo()),
            Algo::CCom => visitor.visit(defs::ccom()),
            Algo::SybilControl => visitor.visit(defs::SybilControl::default()),
            Algo::Remp(t_max) => visitor
                .visit(defs::Remp::new(defs::RempConfig { t_max, ..defs::RempConfig::default() })),
            Algo::ErgoSf(acc) => visitor.visit(defs::ergo_sf(acc, seed)),
            Algo::ErgoCh1 => visitor.visit(defs::ergo_ch1()),
            Algo::ErgoCh2 => visitor.visit(defs::ergo_ch2()),
            Algo::ErgoSfFull(acc) => visitor.visit(defs::ergo_sf_full(acc, seed)),
        }
    }

    /// Display name (matches the paper's legends).
    pub fn label(&self) -> String {
        match *self {
            Algo::Ergo => "ERGO".into(),
            Algo::CCom => "CCOM".into(),
            Algo::SybilControl => "SybilControl".into(),
            Algo::Remp(t_max) => format!("REMP-{t_max:.0e}"),
            Algo::ErgoSf(acc) => format!("ERGO-SF({:.0})", acc * 100.0),
            Algo::ErgoCh1 => "ERGO-CH1".into(),
            Algo::ErgoCh2 => "ERGO-CH2".into(),
            Algo::ErgoSfFull(acc) => format!("ERGO-SF({:.0})", acc * 100.0),
        }
    }

    /// Whether this algorithm's bad-fraction guarantee covers adversary
    /// spend rate `t` at good population `n_good` (the Figure 8 curve
    /// cutoffs: SybilControl breaks past its test capacity; REMP past Tmax;
    /// the Ergo family holds for all `T` by Theorem 1).
    pub fn guarantee_covers(&self, t: f64, n_good: u64) -> bool {
        match *self {
            Algo::SybilControl => {
                t < defs::SybilControl::default().breakdown_rate(n_good, 1.0 / 6.0)
            }
            Algo::Remp(t_max) => t <= t_max,
            _ => true,
        }
    }
}

/// Parameters for one spend-rate run.
#[derive(Clone, Copy, Debug)]
pub struct RunParams {
    /// Simulated seconds (paper: 10 000).
    pub horizon: f64,
    /// Adversary power fraction κ (paper: 1/18).
    pub kappa: f64,
    /// Workload / defense seed.
    pub seed: u64,
}

impl Default for RunParams {
    fn default() -> Self {
        RunParams { horizon: 10_000.0, kappa: 1.0 / 18.0, seed: 1 }
    }
}

/// Returns the (deterministic) workload for `(network, horizon, seed)`,
/// generating it on first use and cloning it from a process-wide cache
/// afterwards.
///
/// Sweeps run every algorithm and every spend rate against the *same*
/// good-ID schedule — Figure 8 alone replays each network's workload 60
/// times — and trace generation (tens of thousands of inverse-transform
/// samples) is a measurable slice of a sweep cell. The cache key hashes
/// the full model debug representation, so two models that merely share a
/// name cannot collide. Cloning is a flat memcpy of the session vectors;
/// the result is byte-identical to regenerating.
pub fn cached_workload(network: &ChurnModel, horizon: f64, seed: u64) -> sybil_sim::Workload {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};

    type WorkloadCache = Mutex<HashMap<(String, u64, u64), sybil_sim::Workload>>;
    static CACHE: OnceLock<WorkloadCache> = OnceLock::new();
    let key = (format!("{network:?}"), horizon.to_bits(), seed);
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(w) = cache.lock().expect("workload cache poisoned").get(&key) {
        return w.clone();
    }
    // Generate OUTSIDE the lock: first-touch generation is the expensive
    // part, and worker threads warming different keys must not serialize
    // on it. Racing generators produce identical deterministic workloads,
    // so a duplicated generation is wasted work, never wrong data.
    let generated = network.generate(Time(horizon), seed);
    let mut cache = cache.lock().expect("workload cache poisoned");
    if cache.len() > 64 {
        // Sweeps touch a handful of keys; a runaway caller (scripted
        // horizon scans) must not grow this without bound.
        cache.clear();
    }
    cache.entry(key).or_insert(generated).clone()
}

/// Runs one cell against an arbitrary [`WorkloadSource`] — the in-memory
/// `Workload` the legacy sweeps clone, or a cache-served
/// [`DiskWorkload`](sybil_sim::workload_io::DiskWorkload) that streams a
/// million-ID schedule through two read buffers.
///
/// The run is monomorphized per defense type via [`Algo::dispatch`]: the
/// engine's inner loop compiles with direct calls into the concrete
/// defense instead of `Box<dyn Defense>` virtual dispatch. `defense_seed`
/// must come from [`sybil_exp::defense_seed`] for results to be comparable across
/// runners (the perf scenarios, the sweeps, and the `sybil-exp` grids all
/// share that derivation).
pub fn run_report_with<W: WorkloadSource>(
    cfg: SimConfig,
    algo: Algo,
    t: f64,
    defense_seed: u64,
    source: W,
) -> SimReport {
    run_report_with_measured(cfg, algo, t, defense_seed, source).0
}

/// Heap-allocation counters measured over the engine's steady-state event
/// loop (the span `Simulation::run_spanned` brackets: after scheduling and
/// initialization, before report assembly). All zeros unless the binary
/// registered [`sybil_exp::alloc::CountingAlloc`] as its global allocator
/// (the `alloc-count` feature) — check
/// [`sybil_exp::alloc::counting_enabled`] to tell a structural zero from a
/// measured one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoopAllocs {
    /// Allocator calls during the event loop, on the engine's thread.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

/// [`run_report_with`], also returning the event loop's [`LoopAllocs`].
pub fn run_report_with_measured<W: WorkloadSource>(
    cfg: SimConfig,
    algo: Algo,
    t: f64,
    defense_seed: u64,
    source: W,
) -> (SimReport, LoopAllocs) {
    use std::cell::Cell;
    use sybil_exp::alloc::AllocStats;

    struct Runner<'a, W> {
        cfg: SimConfig,
        t: f64,
        source: W,
        measured: &'a Cell<LoopAllocs>,
    }
    impl<W: WorkloadSource> AlgoVisitor for Runner<'_, W> {
        type Out = SimReport;
        fn visit<D: Defense + 'static>(self, defense: D) -> SimReport {
            let stats: Cell<Option<AllocStats>> = Cell::new(None);
            let measured = self.measured;
            let (report, _defense) =
                Simulation::new(self.cfg, defense, BudgetJoiner::new(self.t), self.source)
                    .run_spanned(
                        || {
                            stats.set(Some(AllocStats::begin()));
                            // Attribution aid: SYBIL_BENCH_ALLOC_TRAP=N
                            // aborts with a backtrace at the N-th in-span
                            // allocation (see sybil_exp::alloc::trap_after).
                            if let Ok(n) = std::env::var("SYBIL_BENCH_ALLOC_TRAP") {
                                if let Ok(n) = n.parse::<u64>() {
                                    sybil_exp::alloc::trap_after(n);
                                }
                            }
                        },
                        || {
                            sybil_exp::alloc::disarm_trap();
                            let s = stats.get().expect("enter hook ran before exit");
                            measured.set(LoopAllocs { allocs: s.allocs(), bytes: s.bytes() });
                        },
                    );
            report
        }
    }
    let measured = Cell::new(LoopAllocs::default());
    let report = algo.dispatch(defense_seed, Runner { cfg, t, source, measured: &measured });
    (report, measured.get())
}

/// Runs one cell and returns the full simulation report. Workloads come
/// from [`cached_workload`]; see [`run_report_with`] for the
/// source-generic form the disk-streamed grids use.
pub fn run_report(network: &ChurnModel, algo: Algo, t: f64, params: RunParams) -> SimReport {
    run_report_measured(network, algo, t, params).0
}

/// [`run_report`], also returning the event loop's [`LoopAllocs`]. The
/// workload-cache clone and simulation construction happen outside the
/// measured span, so the counters cover exactly the steady-state loop.
pub fn run_report_measured(
    network: &ChurnModel,
    algo: Algo,
    t: f64,
    params: RunParams,
) -> (SimReport, LoopAllocs) {
    let workload = cached_workload(network, params.horizon, params.seed);
    let cfg = SimConfig {
        horizon: Time(params.horizon),
        kappa: params.kappa,
        adv_rate: t,
        ..SimConfig::default()
    };
    run_report_with_measured(cfg, algo, t, defense_seed(params.seed), workload)
}

/// Validates the DefID invariant over a report (bad fraction < 3κ for the
/// Ergo family).
pub fn check_invariant(report: &SimReport, kappa: f64) -> bool {
    let checker = DefIdChecker::with_kappa(kappa);
    report.max_bad_fraction < checker.bound()
}

/// The Figure 8/10 adversary spend grid: `T = 2⁰ … 2²⁰` (even exponents),
/// with 0 prepended for the no-attack baseline.
pub fn t_grid() -> Vec<f64> {
    let mut grid = vec![0.0];
    grid.extend((0..=20).step_by(2).map(|e| (1u64 << e) as f64));
    grid
}

/// Parses a worker-count override from `SYBIL_BENCH_WORKERS`.
///
/// Returns `Ok(None)` when the variable is unset, `Err` (with an
/// actionable message) when it is set to zero or garbage — silent
/// fallbacks here used to mask typos like `SYBIL_BENCH_WORKERS=all`.
pub fn workers_from_env() -> Result<Option<usize>, String> {
    sybil_exp::env::positive_usize(
        "SYBIL_BENCH_WORKERS",
        std::env::var("SYBIL_BENCH_WORKERS"),
        "need at least one worker (unset the variable to use all cores)",
    )
}

/// Number of worker threads to use (`SYBIL_BENCH_WORKERS` overrides; an
/// invalid override aborts with the parse error rather than being
/// silently ignored).
pub fn default_workers() -> usize {
    sybil_exp::env::or_abort(workers_from_env())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
}

/// Parses a `SYBIL_BENCH_FAST` setting: `1` is fast mode, `0` (or unset)
/// is the full paper-scale run.
///
/// Strict, like [`workers_from_env`]: any other value — `true`, `yes`, a
/// typo — is an error, not a silent full-scale run. The old
/// `v == "1"` check made `SYBIL_BENCH_FAST=true` quietly launch the
/// hours-long paper suite on a machine that asked for the one-minute
/// smoke.
fn parse_fast_mode(raw: Result<String, std::env::VarError>) -> Result<bool, String> {
    let parsed = sybil_exp::env::parse("SYBIL_BENCH_FAST", raw, |v| match v {
        "1" => Ok(true),
        "0" => Ok(false),
        _ => Err("is not valid: use 1 (fast smoke grids) or 0 / unset (full paper-scale run)"
            .to_string()),
    })?;
    Ok(parsed.unwrap_or(false))
}

/// True when `SYBIL_BENCH_FAST=1`: benches shrink grids/horizons so the
/// whole suite completes in about a minute (CI mode). The full paper-scale
/// run is the default; an invalid setting aborts with the parse error
/// rather than being silently ignored.
///
/// The result is read once and cached for the process lifetime — grid
/// drivers consult it per cell (and some helpers per trial), and the
/// environment cannot change under a running bench anyway.
pub fn fast_mode() -> bool {
    static FAST: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FAST.get_or_init(|| {
        sybil_exp::env::or_abort(parse_fast_mode(std::env::var("SYBIL_BENCH_FAST")))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sybil_churn::networks;

    #[test]
    fn t_grid_shape() {
        let g = t_grid();
        assert_eq!(g[0], 0.0);
        assert_eq!(g[1], 1.0);
        assert_eq!(*g.last().unwrap(), (1u64 << 20) as f64);
        assert_eq!(g.len(), 12);
    }

    #[test]
    fn run_report_with_matches_run_report_on_disk_source() {
        use sybil_sim::workload_io::{write_workload_file, DiskWorkload};
        let net = networks::gnutella();
        let params = RunParams { horizon: 60.0, ..RunParams::default() };
        let mem = run_report(&net, Algo::Ergo, 32.0, params);
        // Same cell replayed from the on-disk format must be bit-identical.
        let path = std::env::temp_dir().join(format!("sybil_sweep_eq_{}.wkld", std::process::id()));
        write_workload_file(&path, &cached_workload(&net, params.horizon, params.seed)).unwrap();
        let cfg = SimConfig {
            horizon: Time(params.horizon),
            kappa: params.kappa,
            adv_rate: 32.0,
            ..SimConfig::default()
        };
        let mut disk = run_report_with(
            cfg,
            Algo::Ergo,
            32.0,
            defense_seed(params.seed),
            DiskWorkload::open(&path).unwrap(),
        );
        // The stream-footprint gauge legitimately differs (retained
        // schedule vectors vs two read buffers); everything else must not.
        let mut mem = mem;
        mem.workload_stream_bytes = 0;
        disk.workload_stream_bytes = 0;
        assert_eq!(mem, disk);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn workers_env_validation() {
        // NOTE: env mutation — these cases run in one test to avoid racing
        // parallel test threads on the same variable.
        let key = "SYBIL_BENCH_WORKERS";
        let old = std::env::var(key).ok();
        std::env::remove_var(key);
        assert_eq!(workers_from_env(), Ok(None));
        std::env::set_var(key, "8");
        assert_eq!(workers_from_env(), Ok(Some(8)));
        std::env::set_var(key, "0");
        assert!(workers_from_env().unwrap_err().contains("at least one worker"));
        std::env::set_var(key, "all");
        assert!(workers_from_env().unwrap_err().contains("not a positive integer"));
        match old {
            Some(v) => std::env::set_var(key, v),
            None => std::env::remove_var(key),
        }
    }

    /// Regression for the silent fast-mode miss: `SYBIL_BENCH_FAST=true`
    /// (or any non-`1` value) used to silently run the full paper-scale
    /// suite. The parser is pure, so no env mutation is needed here.
    #[test]
    fn fast_mode_parsing_is_strict() {
        let parse = |v: &str| parse_fast_mode(Ok(v.to_string()));
        assert_eq!(parse("1"), Ok(true));
        assert_eq!(parse("0"), Ok(false));
        assert_eq!(parse(" 1 "), Ok(true), "whitespace is trimmed like the workers parser");
        assert_eq!(parse_fast_mode(Err(std::env::VarError::NotPresent)), Ok(false));
        for bad in ["true", "false", "yes", "FAST", "2", ""] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("SYBIL_BENCH_FAST"), "{err}");
            assert!(err.contains("use 1"), "error must be actionable: {err}");
        }
        // The cached accessor is stable across calls.
        assert_eq!(fast_mode(), fast_mode());
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(Algo::Ergo.label(), "ERGO");
        assert_eq!(Algo::Remp(1e7).label(), "REMP-1e7");
        assert_eq!(Algo::ErgoSf(0.98).label(), "ERGO-SF(98)");
    }

    #[test]
    fn guarantee_cutoffs() {
        assert!(Algo::Ergo.guarantee_covers(1e9, 10_000));
        assert!(!Algo::Remp(1e7).guarantee_covers(2e7, 10_000));
        assert!(Algo::SybilControl.guarantee_covers(100.0, 10_000));
        assert!(!Algo::SybilControl.guarantee_covers(1e6, 10_000));
    }

    #[test]
    fn small_point_runs_end_to_end() {
        let net = networks::gnutella();
        let p = RunParams { horizon: 50.0, ..RunParams::default() };
        let report = run_report(&net, Algo::Ergo, 10.0, p);
        assert_eq!(report.defense, "ERGO");
        assert!(report.good_spend_rate() > 0.0);
        assert!(report.max_bad_fraction < 1.0 / 6.0);
    }
}
