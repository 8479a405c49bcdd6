//! Workload replay: drives a gate through the loopback transport with
//! the same churn schedules the simulator runs.
//!
//! The replay turns a [`WorkloadSource`] into admission traffic: every
//! session join becomes a connection that either honestly solves both
//! defense phases or behaves adversarially (garbage or replayed PoW
//! solutions), and every departure — of an admitted session or of a
//! bootstrap member — becomes a `Depart` with the identity's credential.
//! Events are processed in a fixed merge order (departures before joins
//! at equal times), and all randomness comes from a seeded splitmix64,
//! so a given `(workload, seed, fraction)` triple yields the same
//! decision log on every run and every machine.
//!
//! Wall-clock enters only the *measurements*: the time spent inside each
//! `Join` and `MineSubmit` request is accumulated and recorded in a
//! latency histogram, never fed back into decisions.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

use sybil_crypto::{Challenge, Solver};
use sybil_sim::{Time, WorkloadSource, WorkloadStream};

use crate::hist::LatencyHist;
use crate::memhard::{mine, MemHardParams};
use crate::sharded::ShardedGate;
use crate::transport::{Loopback, SharedGate};
use crate::wire::Frame;

/// Replay parameters.
#[derive(Clone, Copy, Debug)]
pub struct ReplayConfig {
    /// Events past this time are not replayed.
    pub horizon: Time,
    /// Fraction of session joins driven adversarially, in `[0, 1]`.
    pub adversarial_fraction: f64,
    /// Seed for the client-side randomness (tags, adversary picks).
    pub seed: u64,
}

/// Client-side measurements from one replay.
#[derive(Clone, Debug, Default)]
pub struct ReplayReport {
    /// Connections opened (joins, adversarial probes, departures).
    pub connections: u64,
    /// Honest sessions fully admitted.
    pub admitted: u64,
    /// Join requests that were silently dropped.
    pub join_drops: u64,
    /// Depart requests issued.
    pub departs: u64,
    /// Total PoW hash attempts paid by honest clients.
    pub client_pow_work: u64,
    /// Total memory-hard salts tried by honest clients.
    pub mine_attempts: u64,
    /// Wall-clock seconds the server spent inside `Join` handling.
    pub pow_handle_secs: f64,
    /// Wall-clock seconds the server spent inside `MineSubmit` handling.
    pub mine_handle_secs: f64,
    /// Admission-decision latencies (`Join` and `MineSubmit` request
    /// round-trips), in nanoseconds.
    pub hist: LatencyHist,
}

impl ReplayReport {
    fn new() -> Self {
        ReplayReport { hist: LatencyHist::new(), ..Default::default() }
    }
}

/// splitmix64: the standard 64-bit finalizer, used for all client-side
/// pseudo-randomness (no external RNG crates in the offline build).
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An admitted identity waiting to depart: `(depart-time bits, identity)`
/// in a min-heap. `f64::to_bits` preserves order for the non-negative
/// finite times workloads carry.
type DepartKey = Reverse<(u64, u64)>;

/// Replays `source` against `gate` through the loopback transport.
/// Returns the driven service (decision log, counters) and the
/// client-side report.
pub fn replay<S: WorkloadSource>(
    source: S,
    gate: ShardedGate,
    cfg: &ReplayConfig,
) -> (ShardedGate, ReplayReport) {
    let mut lb = Loopback::new(gate);
    let mut report = ReplayReport::new();
    let mut stream = source.into_stream(cfg.horizon);

    let mut next_session = stream.next_session();
    let mut next_initial = stream.next_initial_departure();
    let mut pending_departs: BinaryHeap<DepartKey> = BinaryHeap::new();
    let mut tokens: HashMap<u64, [u8; 32]> = HashMap::new();
    let mut initial_departed = 0u64;
    let mut last_honest: Option<(u64, u64)> = None;
    let mut adversary_serial = 0u64;

    loop {
        let t_join = next_session.as_ref().map(|(_, s, _)| s.join);
        let t_initial = next_initial.as_ref().map(|(t, _)| *t);
        let t_depart = pending_departs.peek().map(|Reverse((bits, _))| Time(f64::from_bits(*bits)));
        // Fixed merge order at equal times: initial departures, then
        // admitted departures, then joins.
        let Some(now) = [t_initial, t_depart, t_join].into_iter().flatten().reduce(Time::min)
        else {
            break;
        };

        if t_initial == Some(now) {
            next_initial = stream.next_initial_departure();
            let identity = initial_departed;
            initial_departed += 1;
            if let Some(token) = lb.service().bootstrap_token(identity) {
                depart(&mut lb, &mut report, identity, *token.as_bytes(), now);
            }
        } else if t_depart == Some(now) {
            let Reverse((_, identity)) = pending_departs.pop().expect("peeked above");
            let token = tokens.remove(&identity).expect("token stored at admission");
            depart(&mut lb, &mut report, identity, token, now);
        } else {
            let (index, session, _) = next_session.take().expect("join time came from it");
            next_session = stream.next_session();
            let roll = splitmix64(cfg.seed ^ u64::from(index)) as f64 / u64::MAX as f64;
            if roll < cfg.adversarial_fraction {
                adversary_serial += 1;
                adversarial_join(
                    &mut lb,
                    &mut report,
                    cfg,
                    index,
                    adversary_serial,
                    last_honest,
                    now,
                );
            } else if let Some((identity, token, tag, solution)) =
                honest_join(&mut lb, &mut report, cfg, index, now)
            {
                last_honest = Some((tag, solution));
                if session.depart <= cfg.horizon {
                    tokens.insert(identity, token);
                    pending_departs.push(Reverse((session.depart.as_secs().to_bits(), identity)));
                }
            }
        }
    }

    (lb.into_service(), report)
}

/// One honest join: solve the hello PoW, submit, mine, submit. Returns
/// `(identity, token, client_tag, solution)` on full admission.
fn honest_join<G: SharedGate>(
    lb: &mut Loopback<G>,
    report: &mut ReplayReport,
    cfg: &ReplayConfig,
    index: u32,
    now: Time,
) -> Option<(u64, [u8; 32], u64, u64)> {
    let (conn, hello) = connect(lb, report, now);
    let Frame::Hello { difficulty, nonce, mine_bits, mem_blocks, mem_passes, .. } = hello else {
        return None;
    };
    let client_tag = splitmix64(cfg.seed.wrapping_add(1) ^ u64::from(index));
    let challenge = Challenge::new(&nonce, &client_tag.to_be_bytes(), difficulty);
    let mut solver = Solver::new();
    let solution = solver.solve(&challenge).nonce;
    report.client_pow_work += solver.work();

    let reply = timed_request(lb, report, conn, &Frame::Join { client_tag, solution }, now, true);
    let Some(Frame::Granted { identity, token }) = reply else {
        report.join_drops += 1;
        return None;
    };

    let mem = MemHardParams { blocks: mem_blocks, passes: mem_passes };
    let mined = mine(&token, mine_bits, &mem);
    report.mine_attempts += mined.attempts;
    let submit = Frame::MineSubmit { identity, token, salt: mined.salt };
    let reply = timed_request(lb, report, conn, &submit, now, false);
    matches!(reply, Some(Frame::Admitted { identity: i }) if i == identity)
        .then_some((identity, token, client_tag, solution))
}

/// One adversarial join. Even serials send a pseudo-random garbage
/// solution (it wins only with probability `1/difficulty`, and the
/// adversary abandons any accidental grant — an identity that never
/// completes phase two). Odd serials replay the last honest client's
/// `(tag, solution)` on this fresh connection, which the per-connection
/// nonce defeats.
fn adversarial_join<G: SharedGate>(
    lb: &mut Loopback<G>,
    report: &mut ReplayReport,
    cfg: &ReplayConfig,
    index: u32,
    serial: u64,
    last_honest: Option<(u64, u64)>,
    now: Time,
) {
    let (conn, hello) = connect(lb, report, now);
    let Frame::Hello { .. } = hello else { return };
    let (client_tag, solution) = match last_honest {
        Some(replayed) if serial % 2 == 1 => replayed,
        _ => (
            splitmix64(cfg.seed.wrapping_add(2) ^ u64::from(index)),
            splitmix64(cfg.seed.wrapping_add(3) ^ u64::from(index)),
        ),
    };
    let reply = timed_request(lb, report, conn, &Frame::Join { client_tag, solution }, now, true);
    if reply.is_none() {
        report.join_drops += 1;
    }
}

fn connect<G: SharedGate>(
    lb: &mut Loopback<G>,
    report: &mut ReplayReport,
    now: Time,
) -> (u64, Frame) {
    report.connections += 1;
    lb.connect(now)
}

fn depart<G: SharedGate>(
    lb: &mut Loopback<G>,
    report: &mut ReplayReport,
    identity: u64,
    token: [u8; 32],
    now: Time,
) {
    let (conn, _) = connect(lb, report, now);
    let reply = lb.request(conn, &Frame::Depart { identity, token }, now);
    debug_assert!(
        matches!(reply, Some(Frame::DepartAck { .. })),
        "credentialed departures must succeed"
    );
    report.departs += 1;
}

/// Issues one request, recording its round-trip in the latency histogram
/// and the matching handle-time accumulator.
fn timed_request<G: SharedGate>(
    lb: &mut Loopback<G>,
    report: &mut ReplayReport,
    conn: u64,
    frame: &Frame,
    now: Time,
    is_pow: bool,
) -> Option<Frame> {
    let start = Instant::now();
    let reply = lb.request(conn, frame, now);
    let elapsed = start.elapsed();
    report.hist.record(elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
    if is_pow {
        report.pow_handle_secs += elapsed.as_secs_f64();
    } else {
        report.mine_handle_secs += elapsed.as_secs_f64();
    }
    reply
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::GateConfig;
    use sybil_churn::{ArrivalProcess, ChurnModel, SessionModel};

    fn workload() -> sybil_sim::Workload {
        ChurnModel {
            name: "gate-test",
            initial_size: 50,
            arrival: ArrivalProcess::Poisson { rate: 20.0 },
            session: SessionModel::Exponential { mean: 5.0 },
        }
        .generate(Time(20.0), 7)
    }

    fn gate_cfg(initial: u64) -> GateConfig {
        GateConfig {
            difficulty_floor: 2,
            difficulty_cap: 64,
            mine_bits: 1,
            mem: MemHardParams { blocks: 4, passes: 1 },
            initial_size: initial,
            ..GateConfig::default()
        }
    }

    #[test]
    fn honest_replay_admits_everything_it_joins() {
        let wl = workload();
        let initial = wl.initial_size();
        let cfg = ReplayConfig { horizon: Time(10.0), adversarial_fraction: 0.0, seed: 3 };
        let (gate, report) = replay(wl, ShardedGate::new(gate_cfg(initial), 1), &cfg);
        let c = gate.counters();
        assert!(c.granted > 10, "workload should produce joins, got {}", c.granted);
        assert_eq!(c.granted, c.admitted, "honest clients always finish phase two");
        assert_eq!(c.rejected_pow, 0);
        assert_eq!(report.join_drops, 0);
        assert_eq!(report.hist.count(), 2 * c.granted);
        assert!(report.client_pow_work >= c.granted, "each join costs at least one attempt");
        assert_eq!(c.departed, report.departs);
    }

    #[test]
    fn adversarial_fraction_produces_rejections_not_admissions() {
        let wl = workload();
        let initial = wl.initial_size();
        let cfg = ReplayConfig { horizon: Time(10.0), adversarial_fraction: 0.5, seed: 3 };
        let (gate, report) = replay(wl, ShardedGate::new(gate_cfg(initial), 1), &cfg);
        let c = gate.counters();
        assert!(c.rejected_pow > 0, "adversarial joins must be rejected");
        assert!(c.admitted > 0, "honest joins still get through");
        assert!(report.join_drops >= c.rejected_pow);
        // Accidental adversarial grants are abandoned, never admitted:
        // every admission traces to an honest mine.
        assert!(c.admitted <= c.granted);
    }

    #[test]
    fn replay_is_deterministic_across_runs() {
        let cfg = ReplayConfig { horizon: Time(10.0), adversarial_fraction: 0.3, seed: 11 };
        let run = || {
            let wl = workload();
            let initial = wl.initial_size();
            let (gate, _) = replay(wl, ShardedGate::new(gate_cfg(initial), 1), &cfg);
            (gate.decision_log(), gate.counters())
        };
        let (log_a, counters_a) = run();
        let (log_b, counters_b) = run();
        assert_eq!(log_a, log_b, "decision logs must be byte-identical");
        assert_eq!(counters_a, counters_b);
    }
}
