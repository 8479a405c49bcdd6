//! End-to-end gate tests: workload replay through the loopback
//! transport, plus a TCP smoke test over localhost.
//!
//! The loopback tests are the CI contract — they exercise the full wire
//! encode/decode path deterministically with no sockets. The TCP test
//! covers the pooled server with a real kernel socket pair on
//! 127.0.0.1.

use std::sync::Arc;

use sybil_churn::{ArrivalProcess, ChurnModel, SessionModel};
use sybil_gate::memhard::{mine, MemHardParams};
use sybil_gate::{replay, Frame, GateConfig, ReplayConfig, ShardedGate};
use sybil_sim::Time;

fn workload() -> sybil_sim::Workload {
    ChurnModel {
        name: "gate-e2e",
        initial_size: 40,
        arrival: ArrivalProcess::Poisson { rate: 30.0 },
        session: SessionModel::Exponential { mean: 4.0 },
    }
    .generate(Time(15.0), 12)
}

fn gate_cfg(initial_size: u64) -> GateConfig {
    GateConfig {
        difficulty_floor: 2,
        difficulty_cap: 64,
        mine_bits: 1,
        mem: MemHardParams { blocks: 4, passes: 1 },
        initial_size,
        ..GateConfig::default()
    }
}

/// Same seed and workload ⇒ byte-identical decision logs and equal
/// fingerprints, across fresh service instances.
#[test]
fn replay_decision_log_is_byte_identical() {
    let run = || {
        let wl = workload();
        let initial = wl.initial_size();
        let cfg = ReplayConfig { horizon: Time(12.0), adversarial_fraction: 0.25, seed: 5 };
        let (gate, report) = replay(wl, ShardedGate::new(gate_cfg(initial), 1), &cfg);
        (gate.decision_log(), gate.fingerprint(), gate.counters(), report.connections)
    };
    let (log_a, fp_a, counters_a, conns_a) = run();
    let (log_b, fp_b, counters_b, conns_b) = run();
    assert!(!log_a.is_empty(), "the replay must produce decisions");
    assert_eq!(log_a, log_b, "decision logs must be byte-identical");
    assert_eq!(fp_a, fp_b);
    assert_eq!(counters_a, counters_b);
    assert_eq!(conns_a, conns_b);
    // The mix covers every decision kind the bench fingerprints.
    assert!(counters_a.admitted > 0 && counters_a.rejected_pow > 0 && counters_a.departed > 0);
}

/// The replay outcome is a pure function of (workload, seed, fraction):
/// changing any of them changes the fingerprint.
#[test]
fn fingerprint_is_sensitive_to_inputs() {
    let fp = |wl_seed: u64, replay_seed: u64, fraction: f64| {
        let wl = ChurnModel {
            name: "gate-e2e",
            initial_size: 40,
            arrival: ArrivalProcess::Poisson { rate: 30.0 },
            session: SessionModel::Exponential { mean: 4.0 },
        }
        .generate(Time(15.0), wl_seed);
        let initial = wl.initial_size();
        let cfg =
            ReplayConfig { horizon: Time(12.0), adversarial_fraction: fraction, seed: replay_seed };
        let (gate, _) = replay(wl, ShardedGate::new(gate_cfg(initial), 1), &cfg);
        gate.fingerprint()
    };
    let base = fp(12, 5, 0.25);
    assert_eq!(base, fp(12, 5, 0.25));
    assert_ne!(base, fp(13, 5, 0.25), "different workload must shift the log");
    assert_ne!(base, fp(12, 6, 0.25), "different client seed must shift the log");
    assert_ne!(base, fp(12, 5, 0.0), "different adversary mix must shift the log");
}

/// Full two-phase admission and departure over a real TCP socket on
/// localhost, speaking the same bytes the loopback tests pin.
#[test]
fn tcp_round_trip_admits_and_departs_one_identity() {
    use std::io::Write;
    use sybil_crypto::{Challenge, Solver};
    use sybil_gate::{read_frame, transport};

    let Ok(listener) = std::net::TcpListener::bind("127.0.0.1:0") else {
        eprintln!("skipping TCP smoke test: cannot bind localhost in this environment");
        return;
    };
    let addr = listener.local_addr().expect("bound listener has an address");
    let service = Arc::new(ShardedGate::new(gate_cfg(0), 1));
    let server = Arc::clone(&service);
    std::thread::spawn(move || {
        let _ = transport::serve(listener, server, 2);
    });

    let mut stream = std::net::TcpStream::connect(addr).expect("connect to local gate");
    let hello = read_frame(&mut stream).expect("read hello").expect("hello before EOF");
    let Frame::Hello { difficulty, nonce, mine_bits, mem_blocks, mem_passes, .. } = hello else {
        panic!("first frame must be the hello, got {hello:?}")
    };

    let client_tag = 77u64;
    let challenge = Challenge::new(&nonce, &client_tag.to_be_bytes(), difficulty);
    let solution = Solver::new().solve(&challenge).nonce;
    stream.write_all(&Frame::Join { client_tag, solution }.encode()).expect("send join");
    let reply = read_frame(&mut stream).expect("read grant").expect("grant before EOF");
    let Frame::Granted { identity, token } = reply else { panic!("expected grant, got {reply:?}") };

    let mem = MemHardParams { blocks: mem_blocks, passes: mem_passes };
    let mined = mine(&token, mine_bits, &mem);
    stream
        .write_all(&Frame::MineSubmit { identity, token, salt: mined.salt }.encode())
        .expect("send mine");
    let reply = read_frame(&mut stream).expect("read admit").expect("admit before EOF");
    assert_eq!(reply, Frame::Admitted { identity });

    stream.write_all(&Frame::Depart { identity, token }.encode()).expect("send depart");
    let reply = read_frame(&mut stream).expect("read ack").expect("ack before EOF");
    assert_eq!(reply, Frame::DepartAck { identity });

    let counters = service.counters();
    assert_eq!((counters.granted, counters.admitted, counters.departed), (1, 1, 1));
}

/// A malformed frame over TCP closes the connection without a reply and
/// without disturbing the service.
#[test]
fn tcp_malformed_frame_closes_connection() {
    use std::io::{Read, Write};
    use sybil_gate::{read_frame, transport};

    let Ok(listener) = std::net::TcpListener::bind("127.0.0.1:0") else {
        eprintln!("skipping TCP smoke test: cannot bind localhost in this environment");
        return;
    };
    let addr = listener.local_addr().expect("bound listener has an address");
    let service = Arc::new(ShardedGate::new(gate_cfg(0), 1));
    std::thread::spawn({
        let server = Arc::clone(&service);
        move || {
            let _ = transport::serve(listener, server, 2);
        }
    });

    let mut stream = std::net::TcpStream::connect(addr).expect("connect to local gate");
    let _hello = read_frame(&mut stream).expect("read hello").expect("hello before EOF");
    // An oversized length prefix: the server must refuse to allocate and
    // hang up.
    stream.write_all(&u32::MAX.to_le_bytes()).expect("send bogus prefix");
    stream.write_all(&[0u8; 16]).expect("send bogus body");
    let mut rest = Vec::new();
    let n = stream.read_to_end(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "no reply bytes for a malformed frame");
    assert_eq!(service.counters().granted, 0);
}
