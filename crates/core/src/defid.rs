//! The DefID problem (paper Section 2.2) and its invariant's bound.
//!
//! **DefID** generalizes the well-studied GenID problem to churn: at *every*
//! time `t`, all good IDs must know a set `S(t)` such that (1) all good IDs
//! are in `S(t)`, and (2) an `O(κ)`-fraction of `S(t)` is bad. DefID is
//! strictly harder than GenID because every bad join or good departure
//! pushes the bad fraction up, and re-running a GenID solution per event
//! costs `Ω(n)` resource burning per event.
//!
//! [`bad_fraction_bound`] is requirement (2)'s bound — the Lemma 9
//! invariant `bad fraction < 3κ` — which the integration tests and the
//! invariant experiments hold a run's `max_bad_fraction` to.

/// The Lemma 9 bound `3κ` on the bad fraction.
///
/// # Panics
///
/// Panics if `kappa` is not in `(0, 1/3)`.
pub fn bad_fraction_bound(kappa: f64) -> f64 {
    assert!(kappa > 0.0 && kappa < 1.0 / 3.0, "kappa must be in (0, 1/3)");
    3.0 * kappa
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_bound_is_one_sixth() {
        // The paper's bound on adversary power, κ ≤ 1/18 (Theorem 1).
        assert!((bad_fraction_bound(1.0 / 18.0) - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "kappa")]
    fn kappa_out_of_range_panics() {
        let _ = bad_fraction_bound(0.4);
    }
}
