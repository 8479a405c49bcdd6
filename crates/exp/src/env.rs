//! Strict environment-variable parsing, shared by every `SYBIL_*` knob.
//!
//! The repo's contract for configuration knobs: unset means the default,
//! a valid value overrides, and *anything else aborts with an actionable
//! message* — a typo like `SYBIL_BENCH_WORKERS=all` must never silently
//! launch an hours-long run with the wrong shape. This module is the one
//! implementation: every `SYBIL_BENCH_*` knob, `SYBIL_EXP_CACHE_DIR` and
//! the gate service's `SYBIL_GATE_*` knobs parse through it.
//!
//! Parsers are pure over the raw `std::env::var` result so tests exercise
//! them without touching the process environment (env mutation would race
//! parallel tests).

/// Parses the raw `std::env::var(name)` result with `parse`.
///
/// * unset → `Ok(None)` (the caller's default applies);
/// * non-unicode → `Err` naming the variable;
/// * set → `parse` sees the trimmed value; its error is a *reason
///   fragment* (e.g. `"is not a positive integer"`) that gets prefixed
///   with `name="value"` so every knob's errors read the same way.
pub fn parse<T>(
    name: &str,
    raw: Result<String, std::env::VarError>,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match raw {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(e) => Err(format!("{name} is not valid unicode: {e}")),
        Ok(v) => {
            let trimmed = v.trim();
            parse(trimmed).map(Some).map_err(|reason| format!("{name}={trimmed:?} {reason}"))
        }
    }
}

/// [`parse`] for the common positive-integer knob: `0` is rejected with
/// `zero_reason` (each knob has its own story for why zero is
/// meaningless), garbage with an example of a valid setting.
pub fn positive_usize(
    name: &str,
    raw: Result<String, std::env::VarError>,
    zero_reason: &str,
) -> Result<Option<usize>, String> {
    parse(name, raw, |v| match v.parse::<usize>() {
        Ok(0) => Err(format!("is invalid: {zero_reason}")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("is not a positive integer (example: {name}=4)")),
    })
}

/// Rejects a variable under `prefix` that is not one of `known`: a knob
/// that was removed, or a misspelt one (`SYBIL_GATE_WORKER=16`), would
/// otherwise be ignored and the run would start with the default shape.
/// `names` is every variable name in the environment
/// (`std::env::vars_os` keys, lossily decoded — a known name is ASCII).
pub fn unknown_names(
    prefix: &str,
    known: &[&str],
    names: impl Iterator<Item = String>,
) -> Result<(), String> {
    // The least stray name, so the message does not depend on the order
    // the environment lists them in.
    match names.filter(|n| n.starts_with(prefix) && !known.contains(&n.as_str())).min() {
        None => Ok(()),
        Some(name) => Err(format!(
            "{name} is not a variable this program reads (it knows {})",
            known.join(", ")
        )),
    }
}

/// Unwraps an env parse result, aborting the process (exit code 2) with
/// the parse error on stderr — the shared "garbage knob" failure path.
pub fn or_abort<T>(parsed: Result<T, String>) -> T {
    match parsed {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::env::VarError;

    #[test]
    fn unset_is_the_default() {
        assert_eq!(parse("X", Err(VarError::NotPresent), |_| Ok::<u32, String>(1)), Ok(None));
        assert_eq!(positive_usize("X", Err(VarError::NotPresent), "zero"), Ok(None));
    }

    #[test]
    fn values_are_trimmed_before_parsing() {
        assert_eq!(positive_usize("X", Ok(" 16 ".into()), "zero"), Ok(Some(16)));
    }

    #[test]
    fn errors_name_the_variable_and_the_value() {
        let err = positive_usize("SYBIL_TEST_KNOB", Ok("four".into()), "zero").unwrap_err();
        assert!(err.contains("SYBIL_TEST_KNOB=\"four\""), "{err}");
        assert!(err.contains("example: SYBIL_TEST_KNOB=4"), "{err}");
    }

    #[test]
    fn zero_gets_the_knob_specific_reason() {
        let err = positive_usize("K", Ok("0".into()), "this knob needs at least 1").unwrap_err();
        assert!(err.contains("this knob needs at least 1"), "{err}");
        assert!(err.contains("K=\"0\""), "{err}");
    }

    #[test]
    fn custom_parsers_compose() {
        let parse_bit = |v: &str| match v {
            "1" => Ok(true),
            "0" => Ok(false),
            _ => Err("is not valid: use 1 or 0".to_string()),
        };
        assert_eq!(parse("B", Ok("1".into()), parse_bit), Ok(Some(true)));
        assert_eq!(parse("B", Ok("0".into()), parse_bit), Ok(Some(false)));
        let err = parse("B", Ok("yes".into()), parse_bit).unwrap_err();
        assert!(err.contains("B=\"yes\"") && err.contains("use 1 or 0"), "{err}");
    }

    #[test]
    fn a_stray_variable_under_the_prefix_is_named_with_the_known_ones() {
        let known = ["SYBIL_GATE_ADDR", "SYBIL_GATE_WORKERS"];
        let env = |names: &[&str]| {
            unknown_names("SYBIL_GATE_", &known, names.iter().map(|n| n.to_string()))
        };
        assert_eq!(env(&[]), Ok(()));
        assert_eq!(
            env(&["PATH", "SYBIL_BENCH_FAST", "SYBIL_GATE_ADDR", "SYBIL_GATE_WORKERS"]),
            Ok(())
        );
        // A removed knob and a misspelt one; the first in name order is
        // reported whatever order the environment lists them in.
        for names in
            [["SYBIL_GATE_WORKER", "SYBIL_GATE_SHARDS"], ["SYBIL_GATE_SHARDS", "SYBIL_GATE_WORKER"]]
        {
            let err = env(&names).unwrap_err();
            assert!(err.starts_with("SYBIL_GATE_SHARDS is not a variable"), "{err}");
            assert!(err.ends_with("(it knows SYBIL_GATE_ADDR, SYBIL_GATE_WORKERS)"), "{err}");
        }
        let err = env(&["SYBIL_GATE_WORKER"]).unwrap_err();
        assert!(err.starts_with("SYBIL_GATE_WORKER is not"), "{err}");
    }

    #[test]
    fn or_abort_passes_ok_through() {
        assert_eq!(or_abort(Ok::<_, String>(7)), 7);
        // The Err arm exits the process; exercising it would kill the test
        // runner, so it is covered by the bins' integration with a bad env.
    }
}
