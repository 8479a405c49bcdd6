//! Model parameters and algorithm constants.
//!
//! The paper fixes several constants (Section 9.3): the `5/12` symmetric-
//! difference threshold delineating GoodJEst intervals, the `1/11` membership
//! -change threshold delineating Ergo iterations, the adversary power bound
//! `κ ≤ 1/18` (giving the `3κ ≤ 1/6` bad-fraction invariant), and the
//! departure bound `ε < 1/12`. Section 13.3 discusses alternative constants
//! (e.g. interval threshold `1/2` with epoch threshold `3/5`), so all of them
//! are configurable here, with the paper's values as defaults.

/// A ratio expressed as `num/den` with exact integer comparisons.
///
/// Thresholds like "symmetric difference ≥ 5/12 of system size" are checked
/// as `den·lhs ≥ num·rhs`, avoiding floating-point drift at boundaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ratio {
    /// Numerator.
    pub num: u64,
    /// Denominator.
    pub den: u64,
}

impl Ratio {
    /// Creates a ratio.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub const fn new(num: u64, den: u64) -> Self {
        assert!(den != 0, "ratio denominator must be nonzero");
        Ratio { num, den }
    }

    /// True if `lhs ≥ (num/den)·rhs`, computed exactly in integers.
    ///
    /// Takes a single-width multiply fast path when the products fit in
    /// `u64` (they essentially always do: realistic counters and the
    /// paper's small ratio constants); the exact 128-bit form remains the
    /// overflow fallback. These compares sit on the estimator's
    /// per-event path.
    pub fn le_scaled(&self, lhs: u64, rhs: u64) -> bool {
        match (lhs.checked_mul(self.den), rhs.checked_mul(self.num)) {
            (Some(l), Some(r)) => l >= r,
            _ => (lhs as u128) * (self.den as u128) >= (rhs as u128) * (self.num as u128),
        }
    }
}

impl std::fmt::Display for Ratio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

/// GoodJEst interval threshold: intervals end when `|S(t')△S(t)| ≥ 5/12·|S(t')|`.
pub const INTERVAL_THRESHOLD: Ratio = Ratio::new(5, 12);

/// Ergo iteration threshold: purge when joins+departures exceed `|S(τ)|/11`.
pub const ITERATION_THRESHOLD: Ratio = Ratio::new(1, 11);

/// Heuristic 3's constant `c` (Section 10.3: "we set c = 1/11").
pub const HEURISTIC3_C: f64 = 1.0 / 11.0;

/// Minimum good population `n₀` required by the analysis
/// (Section 2.1.2): `n₀ ≥ max{6000, (720(γ+1))^{4/3}, (41β)²}`.
///
/// Returns the required bound for lifetime exponent `gamma` and burstiness
/// `beta`. Simulations below this bound still run (the paper's own
/// experiments use n₀ ≈ 9–10k with γ small), but the w.h.p. guarantees are
/// only proven above it.
pub fn n0_lower_bound(gamma: f64, beta: f64) -> f64 {
    let a = 6000.0f64;
    let b = (720.0 * (gamma + 1.0)).powf(4.0 / 3.0);
    let c = (41.0 * beta) * (41.0 * beta);
    a.max(b).max(c)
}

/// How the entrance cost is set (paper Figure 4, Step 1 vs the CCom baseline).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EntrancePolicy {
    /// Ergo: hardness `1 +` (number of IDs that joined in the last `1/J̃`
    /// seconds of the current iteration).
    RateBased,
    /// CCom: constant hardness (always 1 in the paper).
    Constant(f64),
}

/// Configuration for [`crate::goodjest::GoodJEst`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GoodJEstConfig {
    /// Interval threshold (default `5/12`).
    pub interval_threshold: Ratio,
    /// Assumed duration of system initialization, used for the initial
    /// estimate `J̃ ← |S(0)| / init_duration` (default 1 round = 1 s).
    pub init_duration: f64,
    /// Heuristic 1: defer estimate updates to the end of the current
    /// iteration (i.e. just after the purge removes Sybil IDs).
    pub align_to_iterations: bool,
}

impl Default for GoodJEstConfig {
    fn default() -> Self {
        GoodJEstConfig {
            interval_threshold: INTERVAL_THRESHOLD,
            init_duration: 1.0,
            align_to_iterations: false,
        }
    }
}

/// Which cost-reduction heuristics (Section 10.3) are active.
///
/// `ERGO-CH1` = Heuristics 1+2; `ERGO-CH2` = Heuristics 1+2+3;
/// `ERGO-SF` additionally gates joins through a classifier (Heuristic 4,
/// configured separately on [`crate::ergo::Ergo`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Heuristics {
    /// Heuristic 1: align estimator updates with iteration ends.
    pub h1_align_estimates: bool,
    /// Heuristic 2: trigger purges on the symmetric difference rather than
    /// the raw join+departure count.
    pub h2_symdiff_trigger: bool,
    /// Heuristic 3: skip a purge when the iteration's total join rate is
    /// below `c ·` (previous iteration's good join-rate estimate).
    pub h3_conditional_purge: bool,
    /// The constant `c` for Heuristic 3.
    pub h3_c: f64,
}

impl Heuristics {
    /// No heuristics: plain Ergo as specified in Figure 4.
    pub fn none() -> Self {
        Heuristics { h3_c: HEURISTIC3_C, ..Default::default() }
    }

    /// `ERGO-CH1`: Heuristics 1 and 2.
    pub fn ch1() -> Self {
        Heuristics {
            h1_align_estimates: true,
            h2_symdiff_trigger: true,
            h3_conditional_purge: false,
            h3_c: HEURISTIC3_C,
        }
    }

    /// `ERGO-CH2`: Heuristics 1, 2, and 3.
    pub fn ch2() -> Self {
        Heuristics { h3_conditional_purge: true, ..Self::ch1() }
    }
}

/// Configuration for [`crate::ergo::Ergo`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErgoConfig {
    /// Entrance-cost policy (Ergo's rate-based rule or CCom's constant).
    pub entrance: EntrancePolicy,
    /// Iteration threshold (default `1/11`).
    pub iteration_threshold: Ratio,
    /// Estimator configuration.
    pub estimator: GoodJEstConfig,
    /// Active heuristics.
    pub heuristics: Heuristics,
}

impl Default for ErgoConfig {
    fn default() -> Self {
        ErgoConfig {
            entrance: EntrancePolicy::RateBased,
            iteration_threshold: ITERATION_THRESHOLD,
            estimator: GoodJEstConfig::default(),
            heuristics: Heuristics::none(),
        }
    }
}

impl ErgoConfig {
    /// The paper's CCom baseline: constant entrance cost 1, same purges.
    pub fn ccom() -> Self {
        ErgoConfig { entrance: EntrancePolicy::Constant(1.0), ..Default::default() }
    }

    /// Ergo with a heuristic set, propagating Heuristic 1 to the estimator.
    pub fn with_heuristics(h: Heuristics) -> Self {
        let mut cfg = ErgoConfig { heuristics: h, ..Default::default() };
        cfg.estimator.align_to_iterations = h.h1_align_estimates;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_comparisons_are_exact() {
        let r = Ratio::new(5, 12);
        // 5/12 of 24 = 10.
        assert!(r.le_scaled(10, 24));
        assert!(!r.le_scaled(9, 24));
        assert_eq!(r.to_string(), "5/12");
    }

    #[test]
    fn ratio_handles_huge_values_without_overflow() {
        let r = Ratio::new(5, 12);
        assert!(r.le_scaled(u64::MAX / 2, u64::MAX));
    }

    /// The 128-bit fallback decides the boundary exactly: `5·2⁶⁰` is
    /// exactly 5/12 of `12·2⁶⁰` (a threshold met is met, as Figure 5's
    /// `≥ 5/12` reads), one less is not, and both products pass `u64`.
    #[test]
    fn ratio_boundary_is_exact_past_u64_products() {
        let r = Ratio::new(5, 12);
        let (lhs, rhs) = (5u64 << 60, 12u64 << 60);
        assert!(lhs.checked_mul(12).is_none() && rhs.checked_mul(5).is_none());
        assert!(r.le_scaled(lhs, rhs));
        assert!(!r.le_scaled(lhs - 1, rhs));
    }

    #[test]
    fn n0_bound_matches_paper() {
        // For small gamma and beta the 6000 floor dominates... gamma=1 gives
        // (720*2)^(4/3) ≈ 16279 which dominates instead.
        assert!(n0_lower_bound(0.0, 1.0) >= 6000.0);
        let g1 = n0_lower_bound(1.0, 1.0);
        assert!((g1 - (1440.0f64).powf(4.0 / 3.0)).abs() < 1e-6);
        // Large beta: the (41β)² term dominates.
        assert_eq!(n0_lower_bound(0.0, 10.0), 410.0 * 410.0);
    }

    #[test]
    fn heuristic_presets() {
        assert!(!Heuristics::none().h1_align_estimates);
        let ch1 = Heuristics::ch1();
        assert!(ch1.h1_align_estimates && ch1.h2_symdiff_trigger && !ch1.h3_conditional_purge);
        let ch2 = Heuristics::ch2();
        assert!(ch2.h3_conditional_purge);
        assert_eq!(ch2.h3_c, HEURISTIC3_C);
    }

    #[test]
    fn config_presets() {
        let ergo = ErgoConfig::default();
        assert_eq!(ergo.entrance, EntrancePolicy::RateBased);
        let ccom = ErgoConfig::ccom();
        assert_eq!(ccom.entrance, EntrancePolicy::Constant(1.0));
        let ch1 = ErgoConfig::with_heuristics(Heuristics::ch1());
        assert!(ch1.estimator.align_to_iterations);
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_panics() {
        let _ = Ratio::new(1, 0);
    }
}
