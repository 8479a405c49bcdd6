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

/// At the parent this printed `adversary spend rate: -2746656650997595.00/s`
/// from a release build. (A debug build stops earlier, on REMP's own
/// membership counter: its `+=` is overflow-checked there.)
#[test]
fn a_spend_beyond_the_ledger_range_is_an_overflow_not_a_negative_rate() {
    let out = ergo_sim(&["--t", "1e20", "--defense", "remp", "--horizon", "2000"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no report, so no negative spend rate");
    let message = if cfg!(debug_assertions) { "overflow" } else { "ledger overflow: " };
    assert!(stderr.contains(message), "{stderr}");
}
