//! The frozen catalog: workloads, their fixed pass lists, metric names
//! and the fingerprints pinned for `--seed 1`.
//!
//! Everything `BENCHMARK.json` says is generated from here
//! ([`manifest_json`]); `tests/contract.rs` fails when the two drift.
//! Sizes are *work*, never time: a run does the same cells, replays and
//! connections on every machine, and only the clock readings differ.

/// Seconds one run measures (`run_seconds` in the manifest). A measured
/// pass is calibrated to about one second on the 2-core reference box,
/// so `--seconds n` selects `n` measured passes.
pub const RUN_SECONDS: u32 = 10;

/// Untimed passes before the measured ones (caches, allocator, page
/// cache and branch predictors settle; pass 2 is also the untraced
/// reference of a traced run).
pub const WARMUP_PASSES: usize = 2;

/// The five workloads, in manifest order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "replay_attack",
        "Figure-8 roster x 4 networks x T in 2^10..2^20 replayed from memory on one thread: defense step and adversary turn do most of the work, the queue stays shallow, nothing is decoded",
    ),
    (
        "replay_stream",
        "million-ID workload streamed from disk under ERGO at T=0: decode, event queue, admission map and the bare loop dominate, zero adversary calls; a defense-side gain must not move it",
    ),
    (
        "grid_fig8",
        "what a researcher runs: exp::run_spec_grid on 2 workers with a cold workload cache and a fresh results store, so cache fill, store append and pool scheduling are on the path",
    ),
    (
        "gate_admit",
        "full two-phase admissions over TCP against the shipped gate: memory-hard verify and HMAC token dominate the server's share, transport is the constant base",
    ),
    (
        "gate_flood",
        "the same gate flooded with bad PoW solutions: accept, thread spawn, frame decode and teardown dominate, no memory-hard work; a memhard change must not move it",
    ),
];

/// One end-to-end metric: `(name, unit, better, bound)`.
///
/// The clock-derived metrics carry the largest bound the contract allows.
/// The shared 2-vCPU reference box drifts with its neighbours: identical
/// runs minutes apart differ by 10-25 %, and ten back-to-back runs spread
/// (interquartile range over median) by 0.03-0.14 whatever statistic
/// summarises the passes (`BASELINE.md`). A tenth would reject the
/// machine, not a change. Memory repeats far better.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_us", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
];

/// Per-layer metrics of the traced run: `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, &str); 87] = [
    ("churn.generate_s", "s", "lower"),
    ("sim.workload_io.write_s", "s", "lower"),
    ("sim.workload_io.open_s", "s", "lower"),
    ("sim.workload_io.decode.calls", "count", "lower"),
    ("sim.workload_io.decode.busy_s", "s", "lower"),
    ("sim.workload.clone_s", "s", "lower"),
    ("sim.queue.ns_per_op", "ns", "lower"),
    ("sim.queue.est_share", "ratio", "lower"),
    ("sim.admission.ns_per_op", "ns", "lower"),
    ("sim.admission.est_share", "ratio", "lower"),
    ("sim.engine.events", "count", "higher"),
    ("sim.engine.purges", "count", "higher"),
    ("sim.engine.peak_queue_len", "count", "lower"),
    ("sim.engine.resident_bytes", "bytes", "lower"),
    ("sim.engine.self_s", "s", "lower"),
    ("sim.adversary.calls", "count", "lower"),
    ("sim.adversary.busy_s", "s", "lower"),
    ("defense.join.calls", "count", "lower"),
    ("defense.join.busy_s", "s", "lower"),
    ("defense.depart.calls", "count", "lower"),
    ("defense.depart.busy_s", "s", "lower"),
    ("defense.bad_batch.calls", "count", "lower"),
    ("defense.bad_batch.busy_s", "s", "lower"),
    ("defense.purge.calls", "count", "lower"),
    ("defense.purge.busy_s", "s", "lower"),
    ("defense.periodic.calls", "count", "lower"),
    ("defense.periodic.busy_s", "s", "lower"),
    ("defense.query.calls", "count", "lower"),
    ("defense.query.busy_s", "s", "lower"),
    ("defense.drain.calls", "count", "lower"),
    ("defense.drain.busy_s", "s", "lower"),
    ("core.ergo.cell_us", "us", "lower"),
    ("defenses.ccom.cell_us", "us", "lower"),
    ("defenses.sybilcontrol.cell_us", "us", "lower"),
    ("defenses.remp.cell_us", "us", "lower"),
    ("classifier.ergo_sf.cell_us", "us", "lower"),
    ("sim.shard.s2_events_per_s", "1/s", "higher"),
    ("sim.shard.s2_ratio", "ratio", "higher"),
    ("exp.cache.hits", "count", "higher"),
    ("exp.cache.misses", "count", "lower"),
    ("exp.cache.busy_s", "s", "lower"),
    ("exp.simulate.cells", "count", "higher"),
    ("exp.simulate.busy_s", "s", "lower"),
    ("exp.store.append_us", "us", "lower"),
    ("exp.store.resume_s", "s", "lower"),
    ("exp.pool.busy_s", "s", "lower"),
    ("exp.pool.idle_fraction", "ratio", "lower"),
    ("exp.pool.job_imbalance", "ratio", "lower"),
    ("exp.runner.other_s", "s", "lower"),
    ("exp.runner.retries", "count", "lower"),
    ("exp.runner.quarantined", "count", "lower"),
    ("crypto.sha256.ns_per_block", "ns", "lower"),
    ("crypto.hmac.ns_per_tag", "ns", "lower"),
    ("crypto.pow.verify_ns", "ns", "lower"),
    ("gate.wire.encode_ns", "ns", "lower"),
    ("gate.wire.decode_ns", "ns", "lower"),
    ("gate.memhard.verify_us", "us", "lower"),
    ("gate.memhard.share", "ratio", "lower"),
    ("gate.service.connect.calls", "count", "lower"),
    ("gate.service.connect.busy_s", "s", "lower"),
    ("gate.service.join.calls", "count", "lower"),
    ("gate.service.join.busy_s", "s", "lower"),
    ("gate.service.mine.calls", "count", "lower"),
    ("gate.service.mine.busy_s", "s", "lower"),
    ("gate.service.depart.calls", "count", "lower"),
    ("gate.service.depart.busy_s", "s", "lower"),
    ("gate.transport.conn_setup_us", "us", "lower"),
    ("gate.transport.overhead_us", "us", "lower"),
    ("gate.counters.pow_verifications", "count", "lower"),
    ("gate.counters.mem_verifications", "count", "lower"),
    ("gate.counters.granted", "count", "higher"),
    ("gate.counters.admitted", "count", "higher"),
    ("gate.counters.rejected_pow", "count", "lower"),
    ("gate.counters.departed", "count", "higher"),
    ("gate.counters.dropped", "count", "lower"),
    ("gate.client.busy_s", "s", "lower"),
    ("gate.client.pow_hashes", "count", "lower"),
    ("gate.client.mine_attempts", "count", "lower"),
    ("gate.client.samples", "count", "higher"),
    ("gate.client.p99_us", "us", "lower"),
    ("gate.client.p999_us", "us", "lower"),
    ("run.passes", "count", "higher"),
    ("run.pass_spread", "ratio", "lower"),
    ("run.failed_share", "ratio", "lower"),
    ("run.calib_ns", "ns", "lower"),
    ("run.setup_rss_mb", "MB", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
];

/// The fixed work of one pass (and the set-up repetitions) per workload.
///
/// Calibrated once on the reference box so a full-size pass takes about a
/// second; `smoke` sizes make one pass of everything finish in seconds
/// for the contract tests.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `replay_attack`: simulated seconds per cell (60 cells per pass).
    pub attack_horizon: f64,
    /// `replay_stream`: initial population of `networks::millions`.
    pub stream_ids: u64,
    /// `replay_stream`: simulated seconds per replay.
    pub stream_horizon: f64,
    /// `replay_stream`: open+replay operations per pass.
    pub stream_replays: usize,
    /// `grid_fig8`: simulated seconds per trial (60 cells x 2 trials per pass).
    pub grid_horizon: f64,
    /// `gate_admit`: admissions per pass.
    pub admits: usize,
    /// `gate_admit`: an identity departs this many admissions after its own.
    pub depart_lag: usize,
    /// `gate_*`: bootstrap identities.
    pub gate_initial: u64,
    /// `gate_flood`: connections per pass.
    pub floods: usize,
    /// From-scratch set-ups per run, by workload (manifest order). Cheap
    /// set-ups repeat more often so their median is as steady as the rest.
    pub setup_reps: [usize; 5],
}

/// Full-size work.
pub const FULL: Sizes = Sizes {
    attack_horizon: 700.0,
    stream_ids: 1_000_000,
    stream_horizon: 4000.0,
    stream_replays: 10,
    grid_horizon: 900.0,
    admits: 2000,
    depart_lag: 1000,
    gate_initial: 100_000,
    floods: 16000,
    setup_reps: [50, 7, 30, 50, 50],
};

/// Smoke-size work (`--smoke`).
pub const SMOKE: Sizes = Sizes {
    attack_horizon: 20.0,
    stream_ids: 20_000,
    stream_horizon: 200.0,
    stream_replays: 2,
    grid_horizon: 20.0,
    admits: 20,
    depart_lag: 5,
    gate_initial: 1000,
    floods: 50,
    setup_reps: [2, 2, 2, 2, 2],
};

/// Pass-1 fingerprints for `--seed 1`: `(workload, full, smoke)`.
///
/// A pass fingerprint is a pure function of the seed and the sizes above,
/// so a mismatch means the *program's decisions* changed, which only a
/// bug fix proven against the paper may do (ROADMAP). Every run prints
/// its fingerprint on standard error; after such a fix, copy the new ones
/// from `--workload <w> --seed 1 --seconds 1` and `... --smoke`.
pub const PINNED_SEED1: [(&str, &str, &str); 5] = [
    (
        "replay_attack",
        "5c1985b28ef2580187de1ee4dc78fbe522fe9a2c8899cbf7f94f552a0e5a89f3",
        "89b66608d21dcbee0b0dec3f94d0de5bbadc8a12110b6b23ce3d752874d283a9",
    ),
    (
        "replay_stream",
        "54be47c84c92d25e6f411e00c889126f561615998aa94200e723dbe57173bf25",
        "a31ca0077e9774146e900d05904a21d03d134fa70587d7bc836ec35212189984",
    ),
    (
        "grid_fig8",
        "4562ad7ca1cb1f94d023f016189fa16d203eebe21f20869f60816f1b7f256981",
        "d173f30503113d5b053123b80d755b7b438cba0a7424f301d790376d70a9069d",
    ),
    (
        "gate_admit",
        "5b1e4e369dd628fcabe1b123d3f816d011382342e34ef49a5a364d1f3b4c5c00",
        "5d546cb87749309b535aac25911e07c4f05da81ea3a4eb69e1c51863051c7284",
    ),
    (
        "gate_flood",
        "bbabfe1f5ac5710ba63a99b2c0d3ecdc6b47411e6c348feef2fedc4e7f95890a",
        "6908ab1a90bc3f360da9b0d64c92b21827b96a1ef6d141f54f70181666a09364",
    ),
];

/// Index of `name` in [`WORKLOADS`].
pub fn workload_index(name: &str) -> Option<usize> {
    WORKLOADS.iter().position(|(n, _)| *n == name)
}

/// `BENCHMARK.json`, generated.
pub fn manifest_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
