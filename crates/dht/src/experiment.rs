//! The DHT experiment (extension E7): lookup success rate vs Sybil
//! fraction, across routing strategies.
//!
//! The table this produces makes the Section 13.2 argument quantitative:
//!
//! * a single greedy path collapses as soon as any hop is Sybil;
//! * independent path retries saturate (capture compounds per hop);
//! * *wide paths* (per-hop redundancy) stay near-perfect — but **only**
//!   while the Sybil fraction is bounded, which is exactly what Ergo's
//!   `< 1/6` invariant supplies. Without the bound (30–50% Sybil), no
//!   constant redundancy survives.

use crate::lookup::{lookup_redundant, lookup_wide, LookupOutcome};
use crate::ring::Ring;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sybil_sim::id::Id;

/// A lookup routing strategy under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Strategy {
    /// One greedy finger-routing path.
    Greedy,
    /// `n` independent greedy paths from random good entry points.
    RedundantPaths(u32),
    /// A frontier of `n` nodes per hop (per-hop redundancy).
    WidePath(usize),
}

impl Strategy {
    /// Label for tables.
    fn label(&self) -> String {
        match *self {
            Strategy::Greedy => "greedy-1".into(),
            Strategy::RedundantPaths(n) => format!("paths-{n}"),
            Strategy::WidePath(n) => format!("wide-{n}"),
        }
    }

    fn run(&self, ring: &Ring, key: u64, rng: &mut StdRng) -> LookupOutcome {
        match *self {
            Strategy::Greedy => lookup_redundant(ring, key, 1, rng).0,
            Strategy::RedundantPaths(n) => lookup_redundant(ring, key, n, rng).0,
            Strategy::WidePath(w) => lookup_wide(ring, key, w, rng),
        }
    }
}

/// One cell of the success-rate grid.
#[derive(Clone, Debug, PartialEq)]
pub struct DhtCell {
    /// Fraction of ring nodes that are Sybil.
    pub bad_fraction: f64,
    /// Strategy label.
    pub strategy: String,
    /// Measured lookup success rate.
    pub success_rate: f64,
}

/// Builds a ring of `n` nodes with the given Sybil fraction.
pub fn build_ring(n: u64, bad_fraction: f64) -> Ring {
    assert!((0.0..1.0).contains(&bad_fraction));
    let n_bad = (n as f64 * bad_fraction).round() as u64;
    let n_good = n - n_bad;
    Ring::from_members(
        (0..n_good).map(|i| (Id(i), false)).chain((0..n_bad).map(|i| (Id(1 << 40 | i), true))),
    )
}

/// Runs one cell: `trials` random-key lookups with the given strategy.
fn run_cell(n: u64, bad_fraction: f64, strategy: Strategy, trials: u32, seed: u64) -> DhtCell {
    let ring = build_ring(n, bad_fraction);
    let mut rng = StdRng::seed_from_u64(seed);
    let successes =
        (0..trials).filter(|_| strategy.run(&ring, rng.gen(), &mut rng).is_success()).count();
    DhtCell {
        bad_fraction: ring.bad_fraction(),
        strategy: strategy.label(),
        success_rate: successes as f64 / trials as f64,
    }
}

/// The full grid: Sybil fractions from "well under Ergo's bound" to
/// "defense-less majority", for all three strategies.
pub fn run_grid(n: u64, trials: u32, seed: u64) -> Vec<DhtCell> {
    let fractions = [0.0, 0.05, 1.0 / 6.0 - 0.01, 0.30, 0.50];
    let strategies = [Strategy::Greedy, Strategy::RedundantPaths(8), Strategy::WidePath(8)];
    let mut out = Vec::new();
    for &f in &fractions {
        for &s in &strategies {
            out.push(run_cell(n, f, s, trials, seed));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shape_and_strategy_ordering() {
        let grid = run_grid(600, 150, 9);
        assert_eq!(grid.len(), 15);
        // At every attacked fraction: wide-8 ≥ paths-8 ≥ greedy-1.
        for chunk in grid.chunks(3).skip(1) {
            assert!(
                chunk[2].success_rate + 1e-9 >= chunk[1].success_rate,
                "wide should beat paths: {chunk:?}"
            );
            assert!(
                chunk[1].success_rate + 1e-9 >= chunk[0].success_rate,
                "paths should beat greedy: {chunk:?}"
            );
        }
        // Clean ring is perfect for everything.
        assert!(grid[..3].iter().all(|c| c.success_rate == 1.0));
    }

    #[test]
    fn ergo_bound_cell_is_recoverable_with_wide_paths() {
        let under_bound = run_cell(1000, 1.0 / 6.0 - 0.01, Strategy::WidePath(8), 300, 11);
        assert!(
            under_bound.success_rate > 0.98,
            "rate {} under the Ergo bound",
            under_bound.success_rate
        );
        let majority = run_cell(1000, 0.5, Strategy::WidePath(8), 300, 11);
        assert!(
            majority.success_rate < under_bound.success_rate,
            "bound {} vs majority {}",
            under_bound.success_rate,
            majority.success_rate
        );
    }
}
