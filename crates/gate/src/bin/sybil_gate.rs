//! `sybil-gate` — the admission service, on a TCP socket.
//!
//! ```text
//! Usage: sybil-gate
//!
//!   SYBIL_GATE_ADDR         listen address (default 127.0.0.1:7744)
//!   SYBIL_GATE_DIFFICULTY   PoW difficulty floor (positive; default 8)
//!   SYBIL_GATE_WORKERS      handler pool ceiling: connections served at
//!                           once (positive; default 8)
//! ```
//!
//! Every knob follows the repo's strict-parsing contract: unset means
//! the default, garbage aborts with an actionable message — and so does
//! any other `SYBIL_GATE_*` variable, which would otherwise be a typo or
//! a removed knob silently ignored.

use std::net::TcpListener;
use std::sync::Arc;

use sybil_exp::env;
use sybil_gate::{transport, GateConfig, ShardedGate};

fn main() {
    env::or_abort(env::unknown_names(
        "SYBIL_GATE_",
        &["SYBIL_GATE_ADDR", "SYBIL_GATE_DIFFICULTY", "SYBIL_GATE_WORKERS"],
        std::env::vars_os().map(|(name, _)| name.to_string_lossy().into_owned()),
    ));
    let addr =
        env::or_abort(env::parse("SYBIL_GATE_ADDR", std::env::var("SYBIL_GATE_ADDR"), |v| {
            if v.is_empty() {
                Err("is empty: expected host:port (example: SYBIL_GATE_ADDR=0.0.0.0:7744)".into())
            } else {
                Ok(v.to_string())
            }
        }))
        .unwrap_or_else(|| "127.0.0.1:7744".to_string());
    let difficulty = env::or_abort(env::positive_usize(
        "SYBIL_GATE_DIFFICULTY",
        std::env::var("SYBIL_GATE_DIFFICULTY"),
        "a zero-difficulty gate admits for free (unset the variable for the default floor)",
    ));
    let workers = env::or_abort(env::positive_usize(
        "SYBIL_GATE_WORKERS",
        std::env::var("SYBIL_GATE_WORKERS"),
        "the handler pool needs a ceiling of at least one (unset the variable for the default)",
    ))
    .unwrap_or(8);

    let mut cfg = GateConfig::default();
    if let Some(d) = difficulty {
        cfg.difficulty_floor = d as u64;
    }
    let listener = TcpListener::bind(&addr).unwrap_or_else(|e| {
        eprintln!("error: cannot bind {addr}: {e}");
        std::process::exit(1)
    });
    println!(
        "sybil-gate listening on {addr} (difficulty floor {}, mine bits {}, up to {workers} \
         workers)",
        cfg.difficulty_floor, cfg.mine_bits
    );
    println!(
        "note: the gate implements Figure 4's entrance cost and not its purge, so it bounds the \
         rate of Sybil entry, not the Sybil fraction"
    );
    let service = Arc::new(ShardedGate::new(cfg, 1));
    if let Err(e) = transport::serve(listener, service, workers) {
        eprintln!("error: listener failed: {e}");
        std::process::exit(1);
    }
}
