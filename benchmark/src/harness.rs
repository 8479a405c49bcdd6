//! One run: repeated set-up, warm-up, the fixed list of measured passes,
//! correctness checks and the final JSON line.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use sybil_crypto::{hex, Digest};

use crate::catalog::{self, Sizes};
use crate::stats;
use crate::trace::Tracer;

/// What the command line selects.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload name (an entry of [`catalog::WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured passes (`--seconds`; a pass is about a second).
    pub seconds: u32,
    /// Install the timed adapters and print per-layer metrics.
    pub trace: bool,
    /// Smoke sizes: one tiny warm-up and one tiny measured pass.
    pub smoke: bool,
}

/// What every driver sees of the run.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// The fixed work.
    pub sizes: Sizes,
    /// True for a `--trace 1` run (the gate then serves through
    /// [`crate::adapters::TimedGate`] from set-up on).
    pub traced_run: bool,
    /// This run's scratch directory (under `benchmark/target/tmp`).
    pub tmp: PathBuf,
}

/// The tracing context of one measured pass of a traced run.
#[derive(Clone, Copy)]
pub struct PassTrace<'a> {
    /// The run's recorder.
    pub tracer: &'a Tracer,
    /// The pass span, parent of the pass's cells or connections.
    pub span: u32,
}

/// What one pass did.
#[derive(Default)]
pub struct PassOut {
    /// Wall seconds of the timed part of the pass.
    pub wall_s: f64,
    /// Units of `ops_per_s` completed (events, cells, admissions, connections).
    pub ops: u64,
    /// Operations attempted (cells, replays, admissions, connections).
    pub attempted: u64,
    /// Operations refused, failed or incorrect.
    pub failed: u64,
    /// One latency sample per successful operation, in microseconds.
    pub latencies_us: Vec<f64>,
    /// SHA-256 over the pass's outputs.
    pub fingerprint: Option<Digest>,
}

/// Per-layer metric values by manifest name; names not set print as 0
/// (the layer is bypassed on that workload).
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets `name`, which must be an entry of [`catalog::PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let entry = catalog::PER_LAYER
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric of the catalog"));
        self.0.insert(entry.0, value);
    }

    /// Sets `<prefix>.calls` and `<prefix>.busy_s` from a `(calls, ns)` pair.
    pub fn set_calls_busy(&mut self, prefix: &str, (calls, ns): (u64, u64)) {
        self.set(&format!("{prefix}.calls"), calls as f64);
        self.set(&format!("{prefix}.busy_s"), ns as f64 / 1e9);
    }
}

/// One workload's implementation.
pub trait Driver {
    /// Whether every pass does identical work on identical state, so all
    /// pass fingerprints must agree (replay and grid). The gates keep
    /// their state across passes, so only pass 1 is comparable.
    fn identical_passes(&self) -> bool;

    /// One from-scratch set-up; replaces whatever an earlier call built.
    fn setup(&mut self, ctx: &Ctx);

    /// Stops what the last set-up started (the gates' server threads),
    /// outside the set-up timer. Called before every set-up.
    fn teardown(&mut self) {}

    /// Runs one pass. `trace` is set on the measured passes of a traced
    /// run; per-layer sums accumulate only then.
    fn pass(&mut self, ctx: &Ctx, trace: Option<PassTrace<'_>>, out: &mut PassOut);

    /// Tears down, checks the workload's invariants and, on a traced
    /// run, reports the per-layer numbers. `untraced_ops_per_s` is the
    /// rate of the last warm-up pass, the base of the probes' estimated
    /// shares. Returns whether the invariants held.
    fn finish(&mut self, ctx: &Ctx, untraced_ops_per_s: f64, layers: &mut Layers) -> bool;
}

/// The `benchmark/` directory: relative when run from the root of a
/// checkout (as the manifest's command does), else where it was built.
pub fn base_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// Empties and recreates `dir`.
pub fn fresh_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| panic!("cannot create scratch directory {}: {e}", dir.display()));
}

/// The result of one run.
pub struct Outcome {
    /// Fingerprints agree, match the pinned ones, invariants hold.
    pub correct: bool,
    /// Operations attempted over the measured passes.
    pub attempted: u64,
    /// Operations failed over the measured passes.
    pub failed: u64,
    /// `(name, value, unit)` in manifest order: end-to-end metrics for an
    /// untraced run, per-layer metrics for a traced one.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// The result line the driver reads.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity (a rate over zero operations).
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn driver_for(index: usize) -> Box<dyn Driver> {
    match index {
        0 => Box::<crate::replay::ReplayAttack>::default(),
        1 => Box::<crate::replay::ReplayStream>::default(),
        2 => Box::<crate::grid::GridFig8>::default(),
        3 => Box::new(crate::gate::GateDriver::new(false)),
        _ => Box::new(crate::gate::GateDriver::new(true)),
    }
}

/// Runs one workload as `args` says.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let index = catalog::workload_index(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = catalog::WORKLOADS.iter().map(|(n, _)| *n).collect();
        format!("unknown workload {:?}: expected one of {}", args.workload, names.join(", "))
    })?;
    let sizes = if args.smoke { catalog::SMOKE } else { catalog::FULL };
    crate::steady::fix_malloc_mmap_threshold();
    let tmp =
        base_dir().join("target/tmp").join(format!("{}-{}", args.workload, std::process::id()));
    fresh_dir(&tmp);
    let ctx = Ctx { seed: args.seed, sizes, traced_run: args.trace, tmp };
    let mut driver = driver_for(index);
    let calib_ns = if args.trace { stats::sha_calib_ns() } else { 0.0 };

    let mut setups: Vec<f64> = (0..sizes.setup_reps[index].max(1))
        .map(|_| {
            driver.teardown();
            let started = Instant::now();
            driver.setup(&ctx);
            started.elapsed().as_secs_f64()
        })
        .collect();
    let setup_s = stats::median(&mut setups);
    let setup_rss_mb = stats::rss_hwm_mb();

    let (warmups, measured) =
        if args.smoke { (1, 1) } else { (catalog::WARMUP_PASSES, args.seconds.max(1) as usize) };
    let tracer = Tracer::default();
    let mut fingerprints = Vec::with_capacity(warmups + measured);
    let mut rates = Vec::with_capacity(measured);
    let mut latencies = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut reference_rate = 0.0;
    for pass in 0..warmups + measured {
        let is_measured = pass >= warmups;
        if pass == warmups {
            stats::reset_rss_hwm();
        }
        let trace = (is_measured && args.trace)
            .then(|| PassTrace { tracer: &tracer, span: tracer.open("pass", None, pass as u64) });
        let mut out = PassOut::default();
        driver.pass(&ctx, trace, &mut out);
        if let Some(t) = trace {
            tracer.close(t.span);
        }
        fingerprints.push(out.fingerprint.expect("every pass reports a fingerprint"));
        let rate = out.ops as f64 / out.wall_s;
        if is_measured {
            rates.push(rate);
            attempted += out.attempted;
            failed += out.failed;
            latencies.append(&mut out.latencies_us);
        } else {
            reference_rate = rate;
        }
    }
    let peak_rss_mb = stats::rss_hwm_mb();

    let mut layers = Layers::default();
    let invariants_hold = driver.finish(&ctx, reference_rate, &mut layers);
    let _ = std::fs::remove_dir_all(&ctx.tmp);

    let fingerprint = hex::encode(fingerprints[0].as_bytes());
    let passes_agree =
        !driver.identical_passes() || fingerprints.iter().all(|f| *f == fingerprints[0]);
    let (_, pinned_full, pinned_smoke) = catalog::PINNED_SEED1[index];
    let pinned = if args.smoke { pinned_smoke } else { pinned_full };
    let pinned_ok = args.seed != 1 || pinned == fingerprint;
    if !passes_agree {
        eprintln!("{}: pass fingerprints differ within the run", args.workload);
    }
    if !pinned_ok {
        eprintln!("{}: fingerprint {fingerprint} is not the pinned {pinned}", args.workload);
    }
    if !invariants_hold {
        eprintln!("{}: a workload invariant failed", args.workload);
    }

    let pass_spread = stats::spread(&rates);
    let ops_per_s = stats::median(&mut rates);
    let samples = latencies.len();
    let latency_p50_us = stats::median(&mut latencies);
    eprintln!(
        "{}: seed {} fingerprint {fingerprint} | {measured} passes, {attempted} attempted, \
         {failed} failed, {samples} latency samples | ops/s {ops_per_s:.1} (pass spread \
         {pass_spread:.3}) p50 {latency_p50_us:.1} us rss {peak_rss_mb:.1} MB setup {setup_s:.5} s",
        args.workload, args.seed
    );

    let metrics = if args.trace {
        layers.set("run.passes", measured as f64);
        layers.set("run.pass_spread", pass_spread);
        layers.set("run.failed_share", failed as f64 / attempted.max(1) as f64);
        layers.set("run.calib_ns", calib_ns);
        layers.set("run.setup_rss_mb", setup_rss_mb);
        layers.set("trace.overhead_ratio", ops_per_s / reference_rate);
        let out = base_dir().join("out").join(format!("trace-{}.json", args.workload));
        tracer
            .write(&out, &args.workload, args.seed)
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        catalog::PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, layers.0.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let values = [ops_per_s, latency_p50_us, peak_rss_mb, setup_s];
        catalog::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _, _), value)| (name, value, unit))
            .collect()
    };
    Ok(Outcome {
        correct: passes_agree && pinned_ok && invariants_hold,
        attempted,
        failed,
        metrics,
    })
}
