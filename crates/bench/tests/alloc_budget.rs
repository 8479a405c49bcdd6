//! Steady-state allocation-budget tests: the zero-allocation hot-path
//! contract, pinned per defense × per adversary spend rate.
//!
//! Each case replays a gnutella-churn workload through one defense at one
//! adversary rate `T` and measures allocator calls over exactly the
//! engine's steady-state event loop (the span `Simulation::run_spanned`
//! brackets — construction and `Defense::init`, where capacity reserves
//! are free, fall outside it; see crates/sim/README.md, "Allocation
//! budget"). The warm-up is structural: everything before the span is the
//! warm-up, and the assertion covers every event after it.
//!
//! The measurements are only live when this binary is built with
//! `--features alloc-count` (the CI `alloc` job does); without it the
//! counters read zero structurally and the budget assertions are
//! vacuous, so the cases still run as behavioral smoke but say so.

use sybil_bench::sweep::{run_report_measured, Algo, RunParams};
use sybil_churn::networks;

// Under `alloc-count` every heap allocation in this process is counted on
// thread-local counters; each test thread measures its own span.
#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: sybil_exp::alloc::CountingAlloc = sybil_exp::alloc::CountingAlloc;

/// Asserts the steady-state loop of one (defense, T) cell allocates
/// nothing — when the counting allocator is registered.
fn assert_zero_budget(algo: Algo, t: f64) {
    let net = networks::gnutella();
    let params = RunParams { horizon: 1000.0, seed: 1, ..RunParams::default() };
    let (report, allocs) = run_report_measured(&net, algo, t, params);
    // The run must have actually exercised the hot path.
    assert!(
        report.good_joins_admitted + report.bad_joins_admitted > 0,
        "{algo:?} T={t}: cell admitted nothing; the budget span covered no work"
    );
    if sybil_exp::counting_enabled() {
        assert_eq!(
            allocs.allocs, 0,
            "{algo:?} T={t}: {} allocation(s) ({} bytes) in the steady-state event loop — \
             the zero-allocation contract is broken",
            allocs.allocs, allocs.bytes
        );
    } else {
        eprintln!("note: {algo:?} T={t} ran without --features alloc-count; budget not measured");
    }
}

#[test]
fn ergo_family_steady_state_allocates_nothing() {
    for t in [0.0, 1024.0, 65_536.0] {
        assert_zero_budget(Algo::Ergo, t);
        assert_zero_budget(Algo::ErgoCh1, t);
        assert_zero_budget(Algo::ErgoCh2, t);
    }
}

#[test]
fn ccom_steady_state_allocates_nothing() {
    for t in [0.0, 1024.0, 65_536.0] {
        assert_zero_budget(Algo::CCom, t);
    }
}

#[test]
fn sybilcontrol_steady_state_allocates_nothing() {
    for t in [0.0, 64.0, 4096.0] {
        assert_zero_budget(Algo::SybilControl, t);
    }
}

#[test]
fn remp_steady_state_allocates_nothing() {
    for t in [0.0, 1024.0] {
        assert_zero_budget(Algo::Remp(1e7), t);
    }
}

#[test]
fn ergo_sf_steady_state_allocates_nothing() {
    for t in [0.0, 1024.0] {
        assert_zero_budget(Algo::ErgoSf(0.9), t);
    }
}

/// Regression pin for the buffer-reuse drain: `drain_events_into` must
/// *append* to a non-empty buffer rather than clobber it.
#[test]
fn drain_events_into_appends_to_a_non_empty_buffer() {
    use sybil_sim::defense::{Defense, DefenseEvent};
    use sybil_sim::time::Time;

    let mut c = sybil_defenses::ergo();
    c.init(Time(0.0), 50, 10);
    for step in 1..=100u64 {
        c.good_join(Time(step as f64 * 7.0));
    }
    let now = Time(700.0);
    if c.purge_due(now) {
        c.purge(now, 0);
    }
    let sentinel = DefenseEvent::PurgeCompleted { at: Time(-1.0), members_after: 999 };
    let mut seeded = vec![sentinel];
    c.drain_events_into(&mut seeded);
    assert_eq!(seeded[0], sentinel, "drain_events_into must append, not clobber");
    assert!(seeded.len() > 1, "the drive produced no events");
}
