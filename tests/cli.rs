//! Drives the built `ergo-sim` binary: a flag outside its accepted range
//! is a usage error naming the flag (exit status 2, no library assertion
//! and no backtrace), an unknown adversary lists the registry's roster,
//! a run is a deterministic function of its flags, and a run the engine
//! cut short exits 3.

use std::process::{Command, Output};

fn ergo_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ergo-sim")).args(args).output().expect("ergo-sim runs")
}

#[test]
fn out_of_range_flags_are_usage_errors_naming_the_flag() {
    let rejected: [&[&str]; 8] = [
        &["--horizon", "-5"],
        &["--horizon", "inf"],
        &["--t", "-1"],
        &["--t", "nan"],
        &["--timeline", "0"],
        &["--defense", "ergo-sf", "--accuracy", "2"],
        &["--timeline", "1e-9"],
        &["--no-such-flag", "1"],
    ];
    for args in rejected {
        let out = ergo_sim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let flag = args[args.len() - 2];
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: ergo-sim"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"), "{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}

#[test]
fn a_run_holds_the_invariant_and_is_a_function_of_its_seed() {
    let run = |seed: &str| {
        let out = ergo_sim(&["--t", "4096", "--horizon", "300", "--seed", seed]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("utf-8 report")
    };
    let report = run("7");
    assert!(report.contains("INVARIANT HELD"), "{report}");
    assert_eq!(report, run("7"), "same seed, same stdout");
    assert_ne!(report, run("8"), "a different seed changes the workload");
}

/// A run the engine cut short is not a clean one: at `T = 10¹¹` CCom's
/// adversary turns hit their round bound, and the report prints the cut
/// counts and `TRUNCATED` in place of the invariant verdict, and exits 3.
/// (`T = 2³⁰` over 0.025 s, which cuts `purge_cycles`' 150-ID synthetic
/// workload, collapses into closed-form cycles on all four networks.)
#[test]
fn a_truncated_run_says_so_and_exits_3() {
    let out = ergo_sim(&["--defense", "ccom", "--t", "1e11", "--horizon", "0.025"]);
    let report = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(3), "{report}");
    assert!(report.contains("truncations:           adversary turns 2 |"), "{report}");
    assert!(report.contains("-> TRUNCATED"), "{report}");
    assert!(!report.contains("INVARIANT HELD") && !report.contains("VIOLATED"), "{report}");
    let clean = ergo_sim(&["--t", "4096", "--horizon", "300"]);
    let clean = String::from_utf8_lossy(&clean.stdout);
    assert!(
        clean.contains("truncations:           adversary turns 0 | purge cascades 0"),
        "{clean}"
    );
}

/// A run whose spend or membership leaves its range dies on a checked sum
/// in either profile: non-zero exit, no report (so no negative spend
/// rate: before the ledger's sums were checked a release build printed
/// `adversary spend rate: -2746656650997595.00/s`), and a message that
/// says `overflow`.
fn overflow_message(defense: &str) -> String {
    let out = ergo_sim(&["--t", "1e20", "--defense", defense, "--horizon", "2000"]);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!out.status.success(), "{defense}: {stderr}");
    assert!(out.stdout.is_empty(), "{defense}: no report, so no negative spend rate");
    assert!(stderr.contains("overflow"), "{defense}: {stderr}");
    stderr
}

/// REMP's membership passes 2⁶⁴ before its spend passes 2⁶³ units, so it
/// is the defense's own checked counter that stops this one.
#[test]
fn a_spend_beyond_the_ledger_range_is_an_overflow_not_a_negative_rate() {
    overflow_message("remp");
}

/// SybilControl's spend passes 2⁶³ units first: this is the ledger's own
/// panic, end to end — `FixedCost::from_cost` kept its range and the sums
/// are checked in release as in debug.
#[test]
fn a_spend_that_passes_the_ledger_range_first_is_a_ledger_overflow() {
    let stderr = overflow_message("sybilcontrol");
    assert!(stderr.contains("ledger overflow: 9000000000000000000 + "), "{stderr}");
}

#[test]
fn an_unknown_adversary_is_a_usage_error_listing_the_roster() {
    let out = ergo_sim(&["--adversary", "survivor", "--horizon", "10"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty(), "no report");
    for name in sybil_sim::adversary::STRATEGY_NAMES {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
}
