//! `ergo-sim` — run a Sybil-defense simulation from the command line.
//!
//! ```text
//! Usage: ergo-sim [OPTIONS]
//!
//!   --network   bitcoin|bittorrent|gnutella|ethereum   (default gnutella)
//!   --defense   ergo|ccom|ergo-ch1|ergo-ch2|ergo-sf|sybilcontrol|remp
//!                                                      (default ergo)
//!   --adversary none|budget|burst|churn-force|purge-survive|fraction-keep
//!                                                      (default budget)
//!   --t         adversary spend rate per second        (default 10000)
//!   --horizon   simulated seconds                      (default 2000)
//!   --seed      RNG seed                               (default 1)
//!   --accuracy  classifier accuracy for ergo-sf        (default 0.98)
//!   --timeline  print a membership timeline every N seconds
//! ```
//!
//! Networks and adversaries are looked up by name in the library's tables
//! (`networks::all_networks`, `sybil_sim::adversary::STRATEGY_NAMES`);
//! an adversary gets `StrategyParams::rate(--t)`, so `burst` fires every
//! 60 s and `fraction-keep` holds a target fraction of 0.
//!
//! A flag outside its accepted range is a usage error (exit status 2,
//! naming the flag and the range), never a library assertion.
//!
//! A run the engine cut short (an adversary turn or a purge cascade that
//! hit its round bound, counted in `SimReport::adversary_turn_truncations`
//! and `purge_cascade_truncations`) is not a result: the report prints
//! both counts, `TRUNCATED` in place of the invariant verdict, and the
//! process exits with status 3.
//!
//! Example:
//!
//! ```text
//! cargo run --release --bin ergo-sim -- --network ethereum --defense ergo-sf --t 65536
//! ```

use bankrupting_sybil::prelude::*;
use sybil_defenses as defs;
use sybil_sim::adversary::{build_strategy, StrategyParams, STRATEGY_NAMES};
use sybil_sim::Defense as DefenseTrait;

struct Options {
    network: String,
    defense: String,
    adversary: String,
    t: f64,
    horizon: f64,
    seed: u64,
    accuracy: f64,
    timeline: Option<f64>,
}

/// Parses a numeric flag and checks it against the range the library
/// accepts.
fn number(
    flag: &str,
    value: &str,
    accepted: &str,
    in_range: impl Fn(f64) -> bool,
) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(x) if in_range(x) => Ok(x),
        _ => Err(format!("{flag}: expected {accepted}, got {value:?}")),
    }
}

/// The most timeline rows a run may be asked for (`horizon / N`).
const MAX_TIMELINE_ROWS: f64 = 1e6;

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        network: "gnutella".into(),
        defense: "ergo".into(),
        adversary: "budget".into(),
        t: 10_000.0,
        horizon: 2_000.0,
        seed: 1,
        accuracy: 0.98,
        timeline: None,
    };
    const SECONDS: &str = "a finite number of seconds > 0";
    let positive = |x: f64| x.is_finite() && x > 0.0;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--help" || flag == "-h" {
            return Err(String::new());
        }
        let value = args.get(i + 1).ok_or_else(|| format!("missing value for {flag}"))?;
        match flag {
            "--network" => opts.network = value.clone(),
            "--defense" => opts.defense = value.clone(),
            "--adversary" => opts.adversary = value.clone(),
            "--t" => {
                let in_range = |x: f64| x.is_finite() && x >= 0.0;
                opts.t = number(flag, value, "a finite spend rate >= 0", in_range)?
            }
            "--horizon" => opts.horizon = number(flag, value, SECONDS, positive)?,
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--accuracy" => {
                let in_range = |x: f64| (0.0..=1.0).contains(&x);
                opts.accuracy = number(flag, value, "a probability in [0, 1]", in_range)?
            }
            "--timeline" => opts.timeline = Some(number(flag, value, SECONDS, positive)?),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    if opts.timeline.is_some_and(|dt| opts.horizon / dt > MAX_TIMELINE_ROWS) {
        return Err(format!("--timeline: at most {MAX_TIMELINE_ROWS} rows (--horizon / N)"));
    }
    Ok(opts)
}

/// The names `--network` accepts, `|`-separated.
fn network_names() -> String {
    networks::all_networks().iter().map(|n| n.name).collect::<Vec<_>>().join("|")
}

fn network(name: &str) -> Result<ChurnModel, String> {
    let found = networks::all_networks().into_iter().find(|n| n.name == name);
    found.ok_or_else(|| format!("unknown network {name} (known: {})", network_names()))
}

fn defense(opts: &Options) -> Result<Box<dyn DefenseTrait>, String> {
    Ok(match opts.defense.as_str() {
        "ergo" => Box::new(defs::ergo()),
        "ccom" => Box::new(defs::ccom()),
        "ergo-ch1" => Box::new(defs::ergo_ch1()),
        "ergo-ch2" => Box::new(defs::ergo_ch2()),
        "ergo-sf" => Box::new(defs::ergo_sf_full(opts.accuracy, opts.seed)),
        "sybilcontrol" => Box::new(defs::SybilControl::default()),
        "remp" => Box::new(defs::Remp::default()),
        other => return Err(format!("unknown defense {other}")),
    })
}

fn run(opts: &Options) -> Result<SimReport, String> {
    let adversary = build_strategy(&opts.adversary, &StrategyParams::rate(opts.t))?;
    let net = network(&opts.network)?;
    let workload = net.generate(Time(opts.horizon), opts.seed);
    let cfg = SimConfig {
        horizon: Time(opts.horizon),
        adv_rate: opts.t,
        timeline_resolution: opts.timeline,
        ..SimConfig::default()
    };
    Ok(Simulation::new(cfg, defense(opts)?, adversary, workload).run())
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!(
                "usage: ergo-sim [--network {}]\n\
                 \x20               [--defense ergo|ccom|ergo-ch1|ergo-ch2|ergo-sf|sybilcontrol|remp]\n\
                 \x20               [--adversary {}]\n\
                 \x20               [--t RATE] [--horizon SECS] [--seed N]\n\
                 \x20               [--accuracy P] [--timeline SECS]",
                network_names(),
                STRATEGY_NAMES.join("|")
            );
            std::process::exit(if msg.is_empty() { 0 } else { 2 });
        }
    };

    let report = match run(&opts) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };

    println!("defense:      {}", report.defense);
    println!("adversary:    {} (T = {}/s)", report.adversary, opts.t);
    println!("network:      {} over {} s", opts.network, opts.horizon);
    println!();
    println!("good spend rate A:     {:>12.2}/s", report.good_spend_rate());
    println!("adversary spend rate:  {:>12.2}/s", report.adv_spend_rate());
    println!(
        "  good breakdown:      entrance {:.0} | purge {:.0} | periodic {:.0}",
        report.ledger.good_entrance().value(),
        report.ledger.good_purge().value(),
        report.ledger.good_periodic().value()
    );
    println!(
        "joins:                 good {} (refused {}) | Sybil {} (of {} attempts)",
        report.good_joins_admitted,
        report.good_joins_refused,
        report.bad_joins_admitted,
        report.bad_join_attempts
    );
    println!("purges:                {} (skipped {})", report.purges, report.purges_skipped);
    println!(
        "truncations:           adversary turns {} | purge cascades {}",
        report.adversary_turn_truncations, report.purge_cascade_truncations
    );
    let truncated = report.adversary_turn_truncations > 0 || report.purge_cascade_truncations > 0;
    let verdict = if truncated {
        "TRUNCATED"
    } else if report.max_bad_fraction < 1.0 / 6.0 {
        "INVARIANT HELD"
    } else {
        "VIOLATED"
    };
    println!(
        "bad fraction:          max {:.4} | mean {:.4} | bound {:.4} -> {verdict}",
        report.max_bad_fraction,
        report.mean_bad_fraction,
        1.0 / 6.0,
    );
    println!("final membership:      {} ({} Sybil)", report.final_members, report.final_bad);
    if !report.estimates.is_empty() {
        let last = report.estimates.last().expect("nonempty");
        println!(
            "estimator:             {} intervals, final J-hat = {:.3}/s",
            report.estimates.len(),
            last.estimate
        );
    }
    if !report.timeline.is_empty() {
        println!("\n{:>10} {:>10} {:>8} {:>10}", "time", "members", "Sybil", "bad frac");
        for p in &report.timeline {
            println!(
                "{:>10.0} {:>10} {:>8} {:>10.4}",
                p.at.as_secs(),
                p.members,
                p.bad,
                p.bad as f64 / p.members.max(1) as f64
            );
        }
    }
    if truncated {
        std::process::exit(3);
    }
}
