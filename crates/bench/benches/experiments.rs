//! Regenerates the paper's evaluation: `cargo bench -p sybil-bench --bench
//! experiments -- <name>...` runs the named experiments of
//! `sybil_bench::experiment::REGISTRY`, no name the eight paper
//! experiments in order. `SYBIL_BENCH_FAST=1` shrinks every grid to a
//! smoke run.

fn main() -> std::process::ExitCode {
    // `cargo bench` appends `--bench` to the arguments of every target.
    let names: Vec<String> = std::env::args().skip(1).filter(|a| a != "--bench").collect();
    sybil_bench::experiment::main(&names)
}
