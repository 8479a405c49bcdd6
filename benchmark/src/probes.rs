//! Micro-probes of the traced run: layers that cannot be wrapped from
//! outside (the event queue and admission map live inside the engine; the
//! crypto and wire functions are free functions inside the gate) are
//! driven directly through their public API at the workload's observed
//! operating point.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use sybil_bench::sweep::{self, Algo};
use sybil_crypto::{hmac_sha256, Challenge, Sha256, Solution};
use sybil_exp::{Record, ResultsStore};
use sybil_gate::{fill_and_mix, Frame, MemHardParams};
use sybil_sim::engine::SimConfig;
use sybil_sim::queue::EventQueue;
use sybil_sim::workload_io::DiskWorkload;
use sybil_sim::{AdmissionMap, AdmissionState, ShardedWorkload, Time};

use crate::stats;

/// SplitMix64: the benchmark's input generator.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Median ns per call of `f` over `rounds` rounds of `calls` calls.
fn ns_per_call(rounds: usize, calls: u32, mut f: impl FnMut(u32)) -> f64 {
    let mut samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let started = Instant::now();
            for i in 0..calls {
                f(i);
            }
            started.elapsed().as_nanos() as f64 / f64::from(calls)
        })
        .collect();
    stats::median(&mut samples)
}

/// ns per pop+push pair of the public [`EventQueue`], built as the
/// engine builds its queue (`sessions + 1024` expected events over
/// `horizon`) and driven in the engine's pattern: `depth` resident
/// events spread over the horizon; every pair pops the minimum, and
/// pushes alternately the next arrival just ahead (a monotone append) and
/// a departure uniformly into the rest of the horizon (an out-of-order
/// insert). Each fill runs `depth / 2` pairs, so the residents stay
/// spread; fills repeat until about `ops` pairs (at most 2^20) are timed.
pub fn queue_ns_per_op(depth: usize, ops: u64, horizon: f64) -> f64 {
    let depth = depth.max(2);
    let pairs_per_fill = (depth / 2) as u64;
    let fills = ops.clamp(1, 1 << 20).div_ceil(pairs_per_fill);
    let unit = |x: u64| (mix(x) >> 11) as f64 / (1u64 << 53) as f64;
    let arrival_gap = horizon / ops.max(1) as f64;
    let mut timed_ns = 0u128;
    for fill in 0..fills {
        let mut queue: EventQueue<u32> =
            EventQueue::with_horizon(Time(horizon), (ops / 2) as usize + 1024);
        for i in 0..depth as u64 {
            queue.push(Time(horizon * unit(fill << 32 | i)), i as u32);
        }
        let started = Instant::now();
        for i in 0..pairs_per_fill {
            let (at, event) = queue.pop().expect("pairs keep the queue at its depth");
            let at = at.as_secs();
            let ahead =
                if i % 2 == 0 { arrival_gap } else { (horizon - at) * unit(!(fill << 32 | i)) };
            queue.push(Time(at + ahead), event);
        }
        timed_ns += started.elapsed().as_nanos();
        black_box(queue.len());
    }
    timed_ns as f64 / (fills * pairs_per_fill) as f64
}

/// ns per single [`AdmissionMap`] `set` or `get` at `ids` identities,
/// addressed pseudo-randomly (a session's join and departure are far
/// apart in time, so the engine's accesses do not share segments either).
pub fn admission_ns_per_op(ids: u64) -> f64 {
    const PAIRS: u64 = 1 << 20;
    let ids = ids.max(1);
    let mut map = AdmissionMap::new(ids);
    let started = Instant::now();
    for i in 0..PAIRS {
        map.set(mix(i) % ids, AdmissionState::Admitted);
        black_box(map.get(mix(i ^ 0x5555) % ids));
    }
    started.elapsed().as_nanos() as f64 / (2 * PAIRS) as f64
}

/// Events per second of one untraced replay of the workload file at
/// `path` through 1 and through 2 engine shards. Two shards mean three
/// busy threads, one more than the reference box has cores: context, not
/// a claim.
pub fn shard_rates(path: &Path, cfg: SimConfig, defense_seed: u64) -> (f64, f64) {
    let rate = |shards: usize| {
        let disk = DiskWorkload::open(path)
            .unwrap_or_else(|e| panic!("cannot reopen {}: {e}", path.display()));
        let started = Instant::now();
        let report = if shards == 1 {
            sweep::run_report_with(cfg, Algo::Ergo, 0.0, defense_seed, disk)
        } else {
            let source = ShardedWorkload::from_disk(disk, shards);
            sweep::run_report_with(cfg, Algo::Ergo, 0.0, defense_seed, source)
        };
        report.events_processed as f64 / started.elapsed().as_secs_f64()
    };
    (rate(1), rate(2))
}

/// Median µs of one `ResultsStore::append` of a grid-shaped record into a
/// fresh store under `dir`.
pub fn store_append_us(dir: &Path) -> f64 {
    let path = dir.join("append-probe.store");
    let (store, _) = ResultsStore::open(&path, "append-probe")
        .unwrap_or_else(|e| panic!("cannot open {}: {e}", path.display()));
    let fields: Vec<(String, f64)> =
        (0..13).map(|i| (format!("field_{i}"), f64::from(i) * 1.5)).collect();
    let mut samples: Vec<f64> = (0..240)
        .map(|i| {
            let record = Record::new(format!("network=n/algo=a/T={i}"), fields.clone());
            let started = Instant::now();
            store.append(&record).expect("the probe store accepts appends");
            started.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    stats::median(&mut samples)
}

/// `(sha256 ns per block, hmac ns per tag, PoW verify ns)`.
pub fn crypto_ns() -> (f64, f64, f64) {
    let block = [0x5au8; 55]; // one compression including padding
    let sha = ns_per_call(9, 4096, |_| {
        black_box(Sha256::digest(black_box(&block)));
    });
    let hmac = ns_per_call(9, 2048, |i| {
        black_box(hmac_sha256(b"sybil-gate-master", &u128::from(i).to_be_bytes()));
    });
    let challenge = Challenge::new(&[7u8; 16], &9u64.to_be_bytes(), 1 << 20);
    let pow = ns_per_call(9, 2048, |i| {
        black_box(challenge.verify(&Solution { nonce: u64::from(i) }));
    });
    (sha, hmac, pow)
}

/// `(encode ns, decode ns)` per frame, over the seven frame types.
pub fn wire_ns() -> (f64, f64) {
    let frames = [
        Frame::Hello {
            version: sybil_gate::PROTOCOL_VERSION,
            difficulty: 8,
            nonce: [3; 16],
            mine_bits: 2,
            mem_blocks: 64,
            mem_passes: 1,
        },
        Frame::Join { client_tag: 1, solution: 2 },
        Frame::Granted { identity: 3, token: [4; 32] },
        Frame::MineSubmit { identity: 3, token: [4; 32], salt: 5 },
        Frame::Admitted { identity: 3 },
        Frame::Depart { identity: 3, token: [4; 32] },
        Frame::DepartAck { identity: 3 },
    ];
    let encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    let encode = ns_per_call(9, 7 * 512, |i| {
        black_box(frames[i as usize % 7].encode());
    });
    let decode = ns_per_call(9, 7 * 512, |i| {
        black_box(Frame::decode(&encoded[i as usize % 7]).expect("encoded frames decode"));
    });
    (encode, decode)
}

/// Median µs of one `fill_and_mix` at the served parameters: the server's
/// memory-hard verification.
pub fn memhard_verify_us(params: &MemHardParams) -> f64 {
    ns_per_call(9, 64, |i| {
        black_box(fill_and_mix(&[9u8; 32], u64::from(i), params));
    }) / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_return_positive_costs() {
        assert!(queue_ns_per_op(64, 10_000, 100.0) > 0.0);
        assert!(admission_ns_per_op(10_000) > 0.0);
        let (sha, hmac, pow) = crypto_ns();
        assert!(sha > 0.0 && hmac > sha && pow > 0.0);
        let (encode, decode) = wire_ns();
        assert!(encode > 0.0 && decode > 0.0);
        assert!(memhard_verify_us(&MemHardParams { blocks: 4, passes: 1 }) > 0.0);
        assert_ne!(mix(1), mix(2));
    }
}
