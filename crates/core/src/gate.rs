//! Classifier gating for joins (Heuristic 4 / ERGO-SF, paper Section 10).
//!
//! The paper's ERGO-SF experiment models an ML classifier (SybilFuse, reference 41)
//! by its accuracy: each joining ID is classified, and "all IDs that are
//! classified as bad are refused entry". The classifier is applied after the
//! joiner solves its entrance challenge, so refused Sybil attempts still
//! burn adversary resources — this is what produces the up-to-3-orders-of-
//! magnitude improvement for large attacks.
//!
//! By itself classification cannot solve DefID (Section 6): a false-negative
//! rate of even `10⁻⁶` lets the adversary accumulate a bad majority over
//! enough attempts. Gating *Ergo* with a classifier keeps Theorem 1's
//! guarantees while cutting costs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A join classifier characterized by its per-class accuracy.
///
/// `accuracy_good` is the probability a good joiner is (correctly) admitted;
/// `accuracy_bad` is the probability a Sybil joiner is (correctly) refused.
/// The paper uses a single accuracy for both (0.98 from the SybilFuse
/// evaluation, and 0.92 as a sensitivity check).
#[derive(Clone, Debug)]
pub struct ClassifierGate {
    accuracy_good: f64,
    accuracy_bad: f64,
    /// `ln(1 − p)` for `p` = [`Self::bad_admit_prob`]: the geometric law's
    /// divisor, a constant of the gate.
    ln_refuse: f64,
    rng: StdRng,
}

impl ClassifierGate {
    /// A gate with symmetric accuracy (the paper's ERGO-SF reduction).
    ///
    /// # Panics
    ///
    /// Panics if `accuracy` is outside `[0, 1]`.
    pub fn with_accuracy(accuracy: f64, seed: u64) -> Self {
        Self::with_accuracies(accuracy, accuracy, seed)
    }

    /// A gate with separate per-class accuracies.
    ///
    /// # Panics
    ///
    /// Panics if either accuracy is outside `[0, 1]`.
    pub fn with_accuracies(accuracy_good: f64, accuracy_bad: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&accuracy_good), "accuracy must be in [0,1]");
        assert!((0.0..=1.0).contains(&accuracy_bad), "accuracy must be in [0,1]");
        // Spelled as the sampler always computed it: `1 − (1 − a)` is not
        // `a` in the last place, and the draws are pinned.
        let p = 1.0 - accuracy_bad;
        let ln_refuse = (1.0 - p).ln();
        ClassifierGate { accuracy_good, accuracy_bad, ln_refuse, rng: StdRng::seed_from_u64(seed) }
    }

    /// Probability a good joiner is admitted.
    pub fn accuracy_good(&self) -> f64 {
        self.accuracy_good
    }

    /// Probability a Sybil joiner is refused.
    pub fn accuracy_bad(&self) -> f64 {
        self.accuracy_bad
    }

    /// Classifies a (truly) good joiner; `true` admits.
    pub fn admit_good(&mut self) -> bool {
        self.rng.gen::<f64>() < self.accuracy_good
    }

    /// Probability that a (truly) Sybil joiner slips past the classifier.
    pub fn bad_admit_prob(&self) -> f64 {
        1.0 - self.accuracy_bad
    }

    /// Classifies a (truly) Sybil joiner; `true` admits (false negative).
    pub fn admit_bad(&mut self) -> bool {
        self.rng.gen::<f64>() < self.bad_admit_prob()
    }

    /// Samples how many consecutive Sybil attempts are refused before the
    /// next one slips through (geometric law). Returns `u64::MAX` if Sybil
    /// IDs can never be admitted.
    ///
    /// Used to process large Sybil batches in O(admissions) rather than
    /// O(attempts).
    pub fn refusals_before_bad_admit(&mut self) -> u64 {
        let p = self.bad_admit_prob();
        if p >= 1.0 {
            return 0;
        }
        if p <= 0.0 {
            return u64::MAX;
        }
        // Geometric: floor(ln U / ln(1-p)) failures before the first success.
        let u: f64 = loop {
            let u = self.rng.gen::<f64>();
            if u > 0.0 {
                break u;
            }
        };
        // `as` truncates toward zero and saturates at `u64::MAX`.
        (u.ln() / self.ln_refuse) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracies_are_respected_statistically() {
        let mut g = ClassifierGate::with_accuracy(0.98, 7);
        let n = 50_000;
        let good_admitted = (0..n).filter(|_| g.admit_good()).count() as f64 / n as f64;
        assert!((good_admitted - 0.98).abs() < 0.01, "{good_admitted}");
        let bad_admitted = (0..n).filter(|_| g.admit_bad()).count() as f64 / n as f64;
        assert!((bad_admitted - 0.02).abs() < 0.01, "{bad_admitted}");
    }

    #[test]
    fn geometric_refusals_mean() {
        // Mean failures before success = (1-p)/p with p = 0.02 → 49.
        let mut g = ClassifierGate::with_accuracy(0.98, 11);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| g.refusals_before_bad_admit()).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 49.0).abs() < 2.5, "mean {mean}");
    }

    /// The sampler as it was before the divisor was stored: both logs and
    /// the `floor` per draw, from a bare RNG with the gate's seed. The
    /// stored `ln(1 − p)` must be that expression's value to the last
    /// place, or a draw near an integer boundary moves.
    #[test]
    fn stored_log_divisor_draws_what_recomputing_it_drew() {
        for accuracy in [0.98, 0.92] {
            for seed in [1u64, 7, 0xE560] {
                let mut gate = ClassifierGate::with_accuracy(accuracy, seed);
                let mut rng = StdRng::seed_from_u64(seed);
                for draw in 0..100_000 {
                    let p = 1.0 - accuracy;
                    let u: f64 = loop {
                        let u = rng.gen::<f64>();
                        if u > 0.0 {
                            break u;
                        }
                    };
                    let v = u.ln() / (1.0 - p).ln();
                    let expected = if v >= u64::MAX as f64 { u64::MAX } else { v.floor() as u64 };
                    assert_eq!(
                        gate.refusals_before_bad_admit(),
                        expected,
                        "accuracy {accuracy} seed {seed} draw {draw}"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_accuracies() {
        let mut always_refuse = ClassifierGate::with_accuracy(1.0, 1);
        assert_eq!(always_refuse.refusals_before_bad_admit(), u64::MAX);
        assert!(!always_refuse.admit_bad());
        assert!(always_refuse.admit_good());

        let mut never_refuse = ClassifierGate::with_accuracy(0.0, 1);
        assert_eq!(never_refuse.refusals_before_bad_admit(), 0);
        assert!(never_refuse.admit_bad());
        assert!(!never_refuse.admit_good());
    }

    #[test]
    fn asymmetric_accuracies() {
        let g = ClassifierGate::with_accuracies(0.9, 0.8, 3);
        assert_eq!(g.accuracy_good(), 0.9);
        assert_eq!(g.accuracy_bad(), 0.8);
        assert!((g.bad_admit_prob() - 0.2).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "accuracy")]
    fn invalid_accuracy_panics() {
        let _ = ClassifierGate::with_accuracy(1.5, 0);
    }
}
