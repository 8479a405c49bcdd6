//! `k`-hard resource-burning challenges backed by SHA-256 proof-of-work.
//!
//! Paper Section 2: *"a `k`-hard RB challenge for any integer `k >= 1`
//! imposes a resource cost of `k` on the challenge solver"*, and solutions
//! *"cannot be stolen or pre-computed"*.
//!
//! We realize this as hash preimage search: a solution is a nonce `s` such
//! that `SHA256(challenge-nonce || solver-id || s)` has a 128-bit big-endian
//! prefix below `u128::MAX / k`. The expected number of hash evaluations is
//! exactly `k`, so hash evaluations are the burned resource unit:
//!
//! * binding the **challenge nonce** prevents pre-computation (the server
//!   draws a fresh nonce per challenge);
//! * binding the **solver identity** prevents theft (a solution found for
//!   one ID does not verify for another).
//!
//! Simulations use the abstract cost model (cost `k` for a `k`-hard
//! challenge, exactly as the paper's experiments do); this module is the
//! concrete backend a deployment would use, and the micro-benchmarks measure
//! its real cost scaling.

use crate::sha256::Sha256;

/// A resource-burning challenge of integer hardness `k >= 1`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Challenge {
    nonce: Vec<u8>,
    solver_id: Vec<u8>,
    hardness: u64,
}

/// A solution to a [`Challenge`]: the nonce found by the solver.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Solution {
    /// The solving nonce; feeding it back into the challenge hash meets the target.
    pub nonce: u64,
}

/// The one way a challenge construction can fail: hardness 0.
///
/// A 0-hard challenge is meaningless (its target would divide by zero), but
/// services that *compute* hardness from live load must be able to handle a
/// bad schedule without panicking — hence [`Challenge::try_new`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZeroHardness;

impl std::fmt::Display for ZeroHardness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("challenge hardness must be >= 1 (a 0-hard challenge is meaningless)")
    }
}

impl std::error::Error for ZeroHardness {}

impl Challenge {
    /// Creates a challenge binding `nonce` (challenger randomness) and
    /// `solver_id` (the identity that must do the work) at the given
    /// `hardness`, or [`ZeroHardness`] if `hardness == 0`.
    ///
    /// This is the constructor for callers whose hardness is *computed* —
    /// e.g. a difficulty schedule driven by a live load estimate — where a
    /// bad schedule must surface as an error, not a panic.
    pub fn try_new(nonce: &[u8], solver_id: &[u8], hardness: u64) -> Result<Self, ZeroHardness> {
        if hardness == 0 {
            return Err(ZeroHardness);
        }
        Ok(Challenge { nonce: nonce.to_vec(), solver_id: solver_id.to_vec(), hardness })
    }

    /// Creates a challenge like [`Challenge::try_new`], clamping
    /// `hardness` up to the minimum of 1.
    ///
    /// A convenience for callers with literal or already-validated
    /// hardness; computed schedules should prefer [`Challenge::try_new`]
    /// so a zero surfaces instead of being silently rounded up.
    pub fn new(nonce: &[u8], solver_id: &[u8], hardness: u64) -> Self {
        Challenge::try_new(nonce, solver_id, hardness.max(1)).expect("hardness clamped to >= 1")
    }

    /// The target threshold: digests with a 128-bit prefix strictly below
    /// this value are valid solutions.
    pub fn target(&self) -> u128 {
        // floor(2^128 / k) so that success probability is ~1/k per attempt.
        u128::MAX / self.hardness as u128
    }

    fn attempt_digest(&self, solution_nonce: u64) -> u128 {
        let mut h = Sha256::new();
        h.update(&(self.nonce.len() as u64).to_be_bytes());
        h.update(&self.nonce);
        h.update(&(self.solver_id.len() as u64).to_be_bytes());
        h.update(&self.solver_id);
        h.update(&solution_nonce.to_be_bytes());
        h.finalize().prefix_u128()
    }

    /// Checks whether `solution` solves this challenge.
    pub fn verify(&self, solution: &Solution) -> bool {
        self.attempt_digest(solution.nonce) < self.target()
    }
}

/// A brute-force challenge solver.
///
/// Tracks the total number of hash evaluations performed, which is the
/// "resource burned" in the concrete cost model.
#[derive(Clone, Debug, Default)]
pub struct Solver {
    work: u64,
}

impl Solver {
    /// Creates a solver with a zeroed work counter.
    pub fn new() -> Self {
        Solver::default()
    }

    /// Total hash evaluations performed by this solver across all calls.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Solves `challenge` by iterating nonces from 0.
    ///
    /// Deterministic given the challenge; the expected number of hash
    /// evaluations equals the challenge hardness.
    pub fn solve(&mut self, challenge: &Challenge) -> Solution {
        let target = challenge.target();
        let mut nonce = 0u64;
        loop {
            self.work += 1;
            if challenge.attempt_digest(nonce) < target {
                return Solution { nonce };
            }
            nonce = nonce.wrapping_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_verify_roundtrip() {
        let c = Challenge::new(b"nonce", b"id-1", 4);
        let s = Solver::new().solve(&c);
        assert!(c.verify(&s));
    }

    #[test]
    fn solution_bound_to_identity() {
        let c1 = Challenge::new(b"n", b"alice", 8);
        let sol = Solver::new().solve(&c1);
        let c2 = Challenge::new(b"n", b"bob", 8);
        // With overwhelming probability the stolen solution fails; hardness 8
        // gives a 1/8 chance per nonce, so re-verify on failure tolerance:
        // this is deterministic for the fixed inputs used here.
        assert!(c1.verify(&sol));
        assert!(!c2.verify(&sol));
    }

    #[test]
    fn solution_bound_to_challenger_nonce() {
        let c1 = Challenge::new(b"nonce-a", b"alice", 8);
        let sol = Solver::new().solve(&c1);
        let c2 = Challenge::new(b"nonce-b", b"alice", 8);
        assert!(!c2.verify(&sol));
    }

    #[test]
    fn one_hard_challenge_is_free() {
        // hardness 1 => target = u128::MAX, every digest qualifies.
        let c = Challenge::new(b"x", b"y", 1);
        let mut solver = Solver::new();
        let s = solver.solve(&c);
        assert!(c.verify(&s));
        assert_eq!(solver.work(), 1, "first attempt must succeed at k=1");
    }

    #[test]
    fn expected_work_scales_with_hardness() {
        // Average work over many challenges should be within a factor ~2 of k.
        let k = 32u64;
        let mut solver = Solver::new();
        let trials = 60;
        for i in 0..trials as u64 {
            let c = Challenge::new(&i.to_be_bytes() as &[u8], b"scaling", k);
            let s = solver.solve(&c);
            assert!(c.verify(&s));
        }
        let avg = solver.work() as f64 / trials as f64;
        assert!(
            avg > k as f64 * 0.5 && avg < k as f64 * 2.0,
            "avg work {avg} not within factor 2 of k={k}"
        );
    }

    #[test]
    fn zero_hardness_is_fallible_not_fatal() {
        // try_new surfaces the error a computed schedule needs to see…
        assert_eq!(Challenge::try_new(b"a", b"b", 0), Err(ZeroHardness));
        assert!(!ZeroHardness.to_string().is_empty());
        // …while the literal-hardness convenience clamps to 1.
        let clamped = Challenge::new(b"a", b"b", 0);
        assert_eq!(clamped, Challenge::try_new(b"a", b"b", 1).unwrap());
    }

    #[test]
    fn target_monotone_in_hardness() {
        let easy = Challenge::new(b"a", b"b", 2);
        let hard = Challenge::new(b"a", b"b", 1000);
        assert!(hard.target() < easy.target());
    }

    #[test]
    fn target_boundary_at_hardness_one() {
        // k = 1 must accept every digest: the target is the full range, so
        // the very first attempt succeeds (pinned by one_hard_challenge_is_free)
        // and no u128 prefix can miss it short of the all-ones digest.
        let c = Challenge::try_new(b"a", b"b", 1).unwrap();
        assert_eq!(c.target(), u128::MAX);
        // k = 2 halves the range — the boundary moves strictly down from k = 1.
        assert_eq!(Challenge::new(b"a", b"b", 2).target(), u128::MAX / 2);
    }

    /// Property: for a fixed (nonce, id), the work to solve is monotone
    /// non-decreasing in hardness — raising k shrinks the target, so the
    /// first qualifying attempt index can only move later. Deterministic
    /// (no tolerance) because the attempt sequence is fixed.
    #[test]
    fn solve_work_monotone_in_hardness() {
        for case in 0u64..8 {
            let nonce = case.to_be_bytes();
            let mut prev_work = 0u64;
            for k in [1u64, 2, 4, 16, 64, 256] {
                let c = Challenge::try_new(&nonce, b"monotone", k).unwrap();
                let mut solver = Solver::new();
                let s = solver.solve(&c);
                assert!(c.verify(&s));
                assert!(
                    solver.work() >= prev_work,
                    "case {case}: work {} at k={k} fell below {prev_work}",
                    solver.work()
                );
                prev_work = solver.work();
            }
        }
    }

    /// Property: a solution verifies under a *re-constructed* challenge
    /// (same nonce, id, hardness built from scratch) — the service-side
    /// pattern where the verifier never holds the solver's instance — and
    /// fails under any reconstruction that differs in one component.
    #[test]
    fn roundtrip_survives_challenge_reconstruction() {
        for i in 0u64..16 {
            let nonce = (i * 31).to_be_bytes();
            let id = (i * 131).to_be_bytes();
            let k = 1 + i % 7;
            let sol = Solver::new().solve(&Challenge::try_new(&nonce, &id, k).unwrap());
            let rebuilt = Challenge::try_new(&nonce, &id, k).unwrap();
            assert!(rebuilt.verify(&sol), "case {i}: rebuilt challenge rejected the solution");
            // Tightening the hardness far enough must reject: the digest is
            // fixed, so it falls out of a small enough target. k·2¹⁶ keeps
            // the acceptance odds per nonce at 2⁻¹⁶ — any accidental pass
            // here is a real bug, not noise, for these fixed inputs.
            let tightened = Challenge::try_new(&nonce, &id, k << 16).unwrap();
            if tightened.verify(&sol) {
                panic!("case {i}: solution survived a 2^16 hardness tightening");
            }
        }
    }
}
