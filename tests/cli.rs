//! Drives the built `ergo-sim` binary: a flag outside its accepted range
//! is a usage error naming the flag (exit status 2, no library assertion
//! and no backtrace), and a run is a deterministic function of its flags.

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
