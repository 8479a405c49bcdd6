//! Command line of the benchmark. The driver runs
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`; the last
//! line of standard output is the result.

use std::process::ExitCode;

use sybil_benchmark::catalog::{self, WORKLOADS};
use sybil_benchmark::harness::{self, RunArgs};
use sybil_benchmark::repeat;

const USAGE: &str = "usage: sybil-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]
       sybil-benchmark --smoke [--seed <n>] [--trace <0|1>]   one tiny pass of every workload
       sybil-benchmark --repeat <k> [--seconds <s>]           k fresh runs of every workload, spread table
       sybil-benchmark --manifest                             print BENCHMARK.json as the catalog defines it";

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or(format!("{flag} needs a value"))?;
    value.parse().map_err(|_| format!("{flag} {value:?} is not valid"))
}

fn run() -> Result<bool, String> {
    let mut args = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: catalog::RUN_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut repeat_runs = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => args.workload = parse(&flag, argv.next())?,
            "--seed" => args.seed = parse(&flag, argv.next())?,
            "--seconds" => args.seconds = parse(&flag, argv.next())?,
            "--trace" => args.trace = parse::<u8>(&flag, argv.next())? != 0,
            "--smoke" => args.smoke = true,
            "--repeat" => repeat_runs = Some(parse::<u32>(&flag, argv.next())?),
            "--manifest" => {
                print!("{}", catalog::manifest_json());
                return Ok(true);
            }
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    if let Some(k) = repeat_runs {
        return repeat::repeat(k.max(2), args.seconds);
    }
    let workloads: Vec<&str> = match (args.workload.is_empty(), args.smoke) {
        (false, _) => vec![args.workload.as_str()],
        (true, true) => WORKLOADS.iter().map(|(name, _)| *name).collect(),
        (true, false) => return Err(USAGE.to_string()),
    };
    for workload in workloads {
        let outcome = harness::run(&RunArgs { workload: workload.to_string(), ..args.clone() })?;
        // A printed result exits 0: `correct` travels in the line itself.
        println!("{}", outcome.json_line());
    }
    Ok(true)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
