//! A gate flooded with garbage keeps no state for it. Linked without
//! `cfg(test)`, so this is the production gate: no raw decision log.

use sybil_gate::{Frame, GateConfig, Response, ShardedGate, SharedGate};
use sybil_sim::Time;

/// Garbage connections driven through the gate.
const CONNECTIONS: u64 = 50_000;
/// What the gate may keep across the whole flood: the connection table's
/// first allocation and no more. A log of the decisions would be 34 bytes
/// per connection (a hello and a rejected join of 17 bytes each).
const SLACK_BYTES: usize = 1024;

#[test]
fn a_flood_of_bad_solutions_leaves_nothing_behind() {
    // A floor so high that the garbage solution cannot fluke past the
    // verifier: nothing is granted, so nothing is owed a record.
    let gate = ShardedGate::new(
        GateConfig { difficulty_floor: 1 << 30, initial_size: 16, ..GateConfig::default() },
        1,
    );
    let before = gate.state_bytes();
    let fingerprint = gate.fingerprint();
    // What a transport calls, with no socket behind it.
    let transport: &dyn SharedGate = &gate;
    for k in 0..CONNECTIONS {
        let now = Time(k as f64 * 1e-3);
        let (conn, _hello) = transport.connect(now);
        let reply = transport.handle(conn, &Frame::Join { client_tag: k, solution: 0 }, now);
        assert_eq!(reply, Response::Drop, "connection {k}");
        transport.disconnect(conn);
    }
    let c = gate.counters();
    assert_eq!((c.pow_verifications, c.rejected_pow), (CONNECTIONS, CONNECTIONS));
    assert_eq!((c.granted, c.dropped), (0, 0));
    assert_ne!(gate.fingerprint(), fingerprint, "every decision still reaches the fingerprint");
    let after = gate.state_bytes();
    assert!(
        after <= before + SLACK_BYTES,
        "{CONNECTIONS} garbage connections grew the gate from {before} to {after} bytes"
    );
}
