//! GenID bootstrap (paper Sections 2.2 and 12.1).
//!
//! GenID initializes a permissionless system: all good IDs agree on a set
//! `S` containing every good ID with at most a `κ`-fraction bad, plus a
//! logarithmic committee with a good majority. The paper points to existing
//! solutions (e.g. Aggarwal et al., reference 38: expected O(1) rounds, O(n) bits per
//! good ID, O(1) challenges each).
//!
//! We model the bootstrap's *outcome* (its internals are prior work): every
//! participant solves a 1-hard challenge — optionally a real
//! `sybil-crypto` proof-of-work — and the adversary's κ-bounded solving
//! capacity caps its share of the resulting set.

use crate::election::{committee_size, elect, Committee};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sybil_crypto::pow::{Challenge, Solver};

/// Outcome of the GenID bootstrap.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GenIdOutcome {
    /// Good IDs in the agreed set (all of them, by GenID's guarantee).
    pub n_good: u64,
    /// Sybil IDs admitted (at most a κ-fraction of the set).
    pub n_bad: u64,
    /// The initial committee.
    pub committee: Committee,
    /// Resource burned by good IDs (1 per ID).
    pub good_cost: f64,
    /// Resource burned by the adversary (1 per admitted Sybil ID).
    pub adv_cost: f64,
}

/// Runs the (modeled) GenID bootstrap.
///
/// `kappa` bounds the adversary's challenge-solving capacity: it can place
/// at most a `κ`-fraction of the agreed set. `c` is the committee-size
/// constant.
///
/// # Panics
///
/// Panics if `kappa` is outside `[0, 1)` or `c ≤ 0`.
pub fn bootstrap(n_good: u64, kappa: f64, c: f64, seed: u64) -> GenIdOutcome {
    assert!((0.0..1.0).contains(&kappa), "kappa must be in [0,1)");
    let mut rng = StdRng::seed_from_u64(seed);
    // Adversary fills its κ share: n_bad / (n_good + n_bad) = κ.
    let n_bad = ((kappa / (1.0 - kappa)) * n_good as f64).floor() as u64;
    let n = n_good + n_bad;
    let committee = elect(n_good, n_bad, committee_size(n, c), &mut rng);
    GenIdOutcome { n_good, n_bad, committee, good_cost: n_good as f64, adv_cost: n_bad as f64 }
}

/// Demonstrates the bootstrap's challenge round with *real* proof-of-work:
/// each of `n` participants solves a 1-hard SHA-256 challenge bound to its
/// identity and the shared bootstrap nonce. Returns the total hash work.
///
/// Used by the examples; the simulations use the abstract cost model.
pub fn solve_bootstrap_challenges(n: u64, bootstrap_nonce: &[u8]) -> u64 {
    let mut solver = Solver::new();
    for i in 0..n {
        let challenge = Challenge::new(bootstrap_nonce, &i.to_be_bytes(), 1);
        let solution = solver.solve(&challenge);
        debug_assert!(challenge.verify(&solution));
    }
    solver.work()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_respects_kappa() {
        let out = bootstrap(10_000, 1.0 / 18.0, 30.0, 1);
        assert_eq!(out.n_good, 10_000);
        let bad_fraction = out.n_bad as f64 / (out.n_good + out.n_bad) as f64;
        assert!(bad_fraction <= 1.0 / 18.0 + 1e-9, "{bad_fraction}");
        assert!(out.n_bad > 0);
        assert_eq!(out.good_cost, 10_000.0);
    }

    #[test]
    fn committee_has_good_majority() {
        for seed in 0..50 {
            let out = bootstrap(10_000, 1.0 / 18.0, 30.0, seed);
            assert!(out.committee.good_majority(), "seed {seed}");
            assert!(out.committee.size() > 0);
        }
    }

    #[test]
    fn zero_kappa_means_no_sybils() {
        let out = bootstrap(100, 0.0, 10.0, 2);
        assert_eq!(out.n_bad, 0);
        assert_eq!(out.committee.bad, 0);
    }

    #[test]
    fn real_pow_bootstrap_burns_about_one_unit_each() {
        // 1-hard challenges succeed on the first attempt.
        let work = solve_bootstrap_challenges(50, b"genesis");
        assert_eq!(work, 50);
    }
}
