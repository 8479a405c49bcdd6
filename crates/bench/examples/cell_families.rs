//! Where `replay_attack`'s cell time goes, by defense family: the
//! benchmark's roster (4 networks × the Figure 8 roster × `T` ∈ {2¹⁰, 2¹⁵,
//! 2²⁰}, horizon 700 s, seed 1), each cell timed best of `rounds`, summed
//! per family with its purges, the purges applied in closed form and the
//! events the calendar queue served (`SimReport::queue_pops`). Also
//! prints every network's Ergo, CCom and ERGO-SF `T = 2²⁰` cells alone,
//! and gnutella's smaller ERGO-SF cells. Workloads are cached before any
//! timing.
//!
//! ```text
//! cargo run --release -p sybil-bench --example cell_families -- [rounds=5]
//! ```
use std::time::Instant;
use sybil_bench::figure8;
use sybil_bench::sweep::{self, Algo, RunParams};
use sybil_churn::networks;

fn family(algo: Algo) -> &'static str {
    match algo {
        Algo::CCom => "CCom",
        Algo::SybilControl => "SybilControl",
        Algo::Remp(_) => "REMP",
        Algo::ErgoSf(_) | Algo::ErgoSfFull(_) => "ERGO-SF",
        _ => "Ergo",
    }
}

fn main() {
    let rounds: usize = match std::env::args().nth(1) {
        None => 5,
        Some(arg) => arg.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            eprintln!("rounds must be a positive integer, got '{arg}'");
            std::process::exit(2)
        }),
    };
    let params = RunParams { horizon: 700.0, seed: 1, ..RunParams::default() };
    let nets = networks::all_networks();
    let mut cells = Vec::new();
    for (ni, net) in nets.iter().enumerate() {
        sweep::cached_workload(net, params.horizon, params.seed);
        for algo in figure8::roster() {
            for exp in [10u32, 15, 20] {
                cells.push((ni, algo, f64::from(1u32 << exp)));
            }
        }
    }
    // Best time, purges, collapsed purges and queue pops per cell.
    let mut best = vec![(f64::INFINITY, 0, 0, 0); cells.len()];
    for _ in 0..rounds {
        for (i, &(ni, algo, t)) in cells.iter().enumerate() {
            let started = Instant::now();
            let report = std::hint::black_box(sweep::run_report(&nets[ni], algo, t, params));
            let ms = started.elapsed().as_secs_f64() * 1e3;
            best[i] =
                (best[i].0.min(ms), report.purges, report.purges_collapsed, report.queue_pops);
        }
    }
    let total: f64 = best.iter().map(|b| b.0).sum();
    for fam in ["ERGO-SF", "CCom", "Ergo", "SybilControl", "REMP"] {
        let of_family = || cells.iter().zip(&best).filter(|(c, _)| family(c.1) == fam);
        let ms: f64 = of_family().map(|(_, b)| b.0).sum();
        let purges: u64 = of_family().map(|(_, b)| b.1).sum();
        let collapsed: u64 = of_family().map(|(_, b)| b.2).sum();
        let pops: u64 = of_family().map(|(_, b)| b.3).sum();
        println!(
            "{fam:<14} {ms:8.1} ms  {:5.1} %  {purges:>10} purges, {collapsed:>10} collapsed, \
             {pops:>8} queue pops",
            100.0 * ms / total
        );
    }
    println!("{:<14} {total:8.1} ms", format!("all {} cells", cells.len()));
    for (&(ni, algo, t), &(ms, purges, collapsed, _)) in cells.iter().zip(&best) {
        let fam = family(algo);
        let top = t > 1e6 && matches!(fam, "Ergo" | "CCom" | "ERGO-SF");
        if top || (nets[ni].name == "gnutella" && fam == "ERGO-SF") {
            println!(
                "{} {} T={t}: {ms:.1} ms, {purges} purges, {collapsed} collapsed",
                nets[ni].name,
                algo.label()
            );
        }
    }
}
