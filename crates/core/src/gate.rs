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
use std::fmt;

/// A join classifier characterized by its per-class accuracy.
///
/// `accuracy_good` is the probability a good joiner is (correctly) admitted;
/// `accuracy_bad` is the probability a Sybil joiner is (correctly) refused.
/// The paper uses a single accuracy for both (0.98 from the SybilFuse
/// evaluation, and 0.92 as a sensitivity check).
///
/// # The refusal table
///
/// A geometric draw is `r(u) = ⌊fl(ln u) / ln(1 − p)⌋` for a uniform `u`
/// (the `as u64` truncation). The gate returns that integer from a table
/// instead of calling `ln` and dividing, and it returns the same integer
/// for every `u`, so every draw and every decision is unchanged.
///
/// `r` is non-increasing in `u` wherever the computed `ln` is, since a
/// correctly rounded divide by a negative constant and the truncation
/// are both monotone. The computed `ln` is monotone on `[2⁻¹⁶, 1)`:
///
/// * adjacent doubles `u₁ < u₂` there move `ln u` by
///   `δ ≥ ulp(u₁) / u₂ ≥ 2⁻⁵³`;
/// * `|ln u| < 11.1 < 16`, so an output ulp `V` is at most `2⁻⁴⁹` and
///   `δ ≥ V/16`;
/// * glibc's `log` errs by at most 0.52 ulp (0.519 is its implementation's
///   bound). Two results inside one output binade are misordered only if
///   `1.04 V − δ ≥ V`, that is `δ ≤ 0.04 V < V/16`, so never;
/// * at an output binade edge, results may be only `V/2` apart. The
///   bound is then `0.52 V + 0.26 V − δ ≥ V/2`, that is `δ ≤ 0.28 V`.
///   With `δ ≥ 2⁻⁵³` this is possible only where `|ln u|` crosses 2, 4
///   or 8. The test `ln_is_monotone_across_output_binade_edges` scans
///   those three crossings.
///
/// The table has one entry per bucket of `u`: 16 binades `[2⁻ᵏ, 2¹⁻ᵏ)`,
/// `k = 1 … 16`, each split by its top 6 mantissa bits (`BUCKET_BITS`).
/// A bucket's entry is computed the first time a draw lands in it. The
/// exact formula is evaluated at the bucket's first and last bit
/// patterns. If they agree, the entry is that value. If they differ by
/// one, a search over the bit patterns finds the first one where `r`
/// drops. A draw is then one load and one compare: `r − (bits ≥
/// threshold)`. The exact formula answers a draw below `2⁻¹⁶`, a draw in
/// a bucket that spans more than one step (a bucket is up to `2⁻⁶` wide
/// in `ln u`, so only above accuracy 0.984), and one whose `r` is too
/// wide for an entry. The table is 8 KiB, allocated with the gate, and a
/// draw takes from the RNG exactly what the formula's draw took.
#[derive(Clone)]
pub struct ClassifierGate {
    accuracy_good: f64,
    accuracy_bad: f64,
    /// `ln(1 − p)` for `p` = [`Self::bad_admit_prob`]: the geometric law's
    /// divisor, a constant of the gate.
    ln_refuse: f64,
    /// The refusal table, `UNFILLED` until a draw lands in a bucket.
    table: Box<[u64; BUCKETS]>,
    rng: StdRng,
}

/// Top mantissa bits that pick a bucket inside a binade. Of 2⁶, 2⁷ and 2⁸
/// buckets a binade, 2⁶ fills the whole table fastest (0.08, 0.13 and
/// 0.15 ms at accuracy 0.98) and draws as fast as the others.
const BUCKET_BITS: u32 = 6;
/// The mantissa bits below them: a bit pattern's offset in its bucket.
const OFFSET_BITS: u32 = 52 - BUCKET_BITS;
/// 16 binades of `2^BUCKET_BITS` buckets: 8 KiB of entries.
const BUCKETS: usize = 16 << BUCKET_BITS;
/// The bits of `2⁻¹⁶`, the table's first bucket.
const TABLE_FLOOR: u64 = (1023 - 16) << 52;
/// An entry is `r << R_SHIFT | threshold`, the threshold being the offset
/// of the first bit pattern where `r` drops by one, in
/// `1 ..= 2^OFFSET_BITS` (the top value when it never drops).
const R_SHIFT: u32 = OFFSET_BITS + 1;
/// An entry no draw has computed yet.
const UNFILLED: u64 = 0;
/// A bucket the exact formula answers.
const EXACT: u64 = u64::MAX;
/// The first `r` an entry cannot hold without reading as [`EXACT`].
const R_LIMIT: u64 = (1 << (64 - R_SHIFT)) - 1;

/// The geometric draw as the formula states it: failures before the first
/// success for `u` in `(0, 1)`. `as` truncates toward zero and saturates
/// at `u64::MAX`.
fn exact_refusals(u: f64, ln_refuse: f64) -> u64 {
    (u.ln() / ln_refuse) as u64
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
        ClassifierGate {
            accuracy_good,
            accuracy_bad,
            ln_refuse,
            table: Box::new([UNFILLED; BUCKETS]),
            rng: StdRng::seed_from_u64(seed),
        }
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
        self.refusals_at(u)
    }

    /// [`exact_refusals`] at `u` in `(0, 1)`, through the table.
    fn refusals_at(&mut self, u: f64) -> u64 {
        let bits = u.to_bits();
        if bits < TABLE_FLOOR {
            return exact_refusals(u, self.ln_refuse);
        }
        let bucket = ((bits - TABLE_FLOOR) >> OFFSET_BITS) as usize;
        let entry = self.table[bucket];
        if entry == UNFILLED || entry == EXACT {
            return self.fill_and_draw(bucket, u);
        }
        let offset = bits & ((1 << OFFSET_BITS) - 1);
        (entry >> R_SHIFT) - u64::from(offset >= entry & ((1 << R_SHIFT) - 1))
    }

    /// The draw at `u` in a bucket without a usable entry; computes the
    /// entry first if no draw has.
    #[cold]
    #[inline(never)]
    fn fill_and_draw(&mut self, bucket: usize, u: f64) -> u64 {
        if self.table[bucket] == UNFILLED {
            self.table[bucket] = self.entry(bucket);
        }
        if self.table[bucket] == EXACT {
            return exact_refusals(u, self.ln_refuse);
        }
        self.refusals_at(u)
    }

    /// Computes `bucket`'s entry from the exact formula.
    fn entry(&self, bucket: usize) -> u64 {
        let r = |bits: u64| exact_refusals(f64::from_bits(bits), self.ln_refuse);
        let first = TABLE_FLOOR + ((bucket as u64) << OFFSET_BITS);
        let last = first + (1 << OFFSET_BITS) - 1;
        let (top, bottom) = (r(first), r(last));
        if top >= R_LIMIT {
            return EXACT;
        }
        let threshold = if top == bottom {
            1 << OFFSET_BITS
        } else if top == bottom + 1 {
            // `r(lo) = top` and `r(hi) = bottom` throughout. The step is
            // a few patterns from `exp(top · ln(1 − p))`: strides doubling
            // out from there bracket it and bisection finishes, in about
            // five evaluations of `r` where bisection alone takes 46.
            let (mut lo, mut hi) = (first, last);
            let hint = (top as f64 * self.ln_refuse).exp().to_bits().clamp(first, last);
            let mut stride = 1;
            if r(hint) == top {
                lo = hint;
                while lo + stride < hi && r(lo + stride) == top {
                    lo += stride;
                    stride *= 2;
                }
                hi = hi.min(lo + stride);
            } else {
                hi = hint;
                while hi - stride > lo && r(hi - stride) != top {
                    hi -= stride;
                    stride *= 2;
                }
                lo = lo.max(hi - stride);
            }
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if r(mid) == top {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            hi - first
        } else {
            return EXACT;
        };
        top << R_SHIFT | threshold
    }
}

/// The table is a cache of [`exact_refusals`], so it is not printed.
impl fmt::Debug for ClassifierGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClassifierGate")
            .field("accuracy_good", &self.accuracy_good)
            .field("accuracy_bad", &self.accuracy_bad)
            .field("ln_refuse", &self.ln_refuse)
            .field("rng", &self.rng)
            .finish()
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

    /// The accuracies the table is checked at: the paper's two, an even
    /// coin and one whose buckets span several steps.
    const ACCURACIES: [f64; 4] = [0.5, 0.92, 0.98, 0.999];

    /// The sampler as it was before the divisor was stored and the table
    /// answered draws: both logs and the `floor` per draw, from a bare RNG
    /// with the gate's seed. The stored `ln(1 − p)` must be that
    /// expression's value to the last place, and the table must agree with
    /// it on every draw, or a draw near an integer boundary moves.
    #[test]
    fn stored_log_divisor_draws_what_recomputing_it_drew() {
        for accuracy in ACCURACIES {
            for seed in [1u64, 7, 0xE560] {
                let mut gate = ClassifierGate::with_accuracy(accuracy, seed);
                let mut rng = StdRng::seed_from_u64(seed);
                for draw in 0..350_000 {
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
                // The gate drew from its stream exactly what the bare RNG did.
                assert_eq!(gate.admit_good(), rng.gen::<f64>() < accuracy);
            }
        }
    }

    /// Every bucket filled, then the table read against the formula at the
    /// bucket's ends and on both sides of its threshold.
    #[test]
    fn every_bucket_agrees_with_the_formula_at_its_edges() {
        for accuracy in ACCURACIES {
            let mut gate = ClassifierGate::with_accuracy(accuracy, 1);
            let (mut steps, mut exact) = (0, 0usize);
            for bucket in 0..BUCKETS {
                let first = TABLE_FLOOR + ((bucket as u64) << OFFSET_BITS);
                let last = first + (1 << OFFSET_BITS) - 1;
                gate.refusals_at(f64::from_bits(first));
                let entry = gate.table[bucket];
                assert_ne!(entry, UNFILLED, "accuracy {accuracy} bucket {bucket}");
                let mut probes = vec![first, last];
                if entry == EXACT {
                    exact += 1;
                } else {
                    let threshold = entry & ((1 << R_SHIFT) - 1);
                    assert!((1..=1 << OFFSET_BITS).contains(&threshold));
                    if threshold < 1 << OFFSET_BITS {
                        steps += 1;
                        probes.extend([first + threshold - 1, first + threshold]);
                    }
                }
                for bits in probes {
                    let u = f64::from_bits(bits);
                    let r = exact_refusals(u, gate.ln_refuse);
                    assert_eq!(gate.refusals_at(u), r, "accuracy {accuracy} u {u:e}");
                }
            }
            // One step for each `m ≥ 1` with `(1 − p)^m ≥ 2⁻¹⁶`. At 0.999
            // the steps are 0.001 apart in `ln u` and every bucket spans
            // several.
            let want = match accuracy {
                0.5 => (16, 0),
                0.92 => (133, 0),
                0.98 => (548, 0),
                _ => (0, BUCKETS),
            };
            assert_eq!((steps, exact), want, "accuracy {accuracy}: steps, exact buckets");
        }
    }

    /// The argument in [`ClassifierGate`]'s docs leaves the three points
    /// where `ln u` crosses −2, −4 and −8 to this scan of the computed `ln`.
    #[test]
    fn ln_is_monotone_across_output_binade_edges() {
        for edge in [2.0f64, 4.0, 8.0] {
            let centre = (-edge).exp().to_bits();
            let mut previous = f64::NEG_INFINITY;
            for bits in centre - 4096..centre + 4096 {
                let ln = f64::from_bits(bits).ln();
                assert!(ln >= previous, "ln not monotone at {:e}", f64::from_bits(bits));
                previous = ln;
            }
            assert!(f64::from_bits(centre - 4096).ln() < -edge);
            assert!(f64::from_bits(centre + 4096).ln() > -edge);
        }
    }

    /// A `u` below `2⁻¹⁶` takes the formula and fills no bucket.
    #[test]
    fn draws_below_the_table_take_the_formula() {
        let mut gate = ClassifierGate::with_accuracy(0.98, 1);
        for u in [2f64.powi(-53), 1e-10, f64::from_bits(TABLE_FLOOR - 1)] {
            assert_eq!(gate.refusals_at(u), exact_refusals(u, gate.ln_refuse));
        }
        assert!(gate.table.iter().all(|&entry| entry == UNFILLED));
        let floor = f64::from_bits(TABLE_FLOOR);
        assert_eq!(gate.refusals_at(floor), exact_refusals(floor, gate.ln_refuse));
        assert_ne!(gate.table[0], UNFILLED);
    }

    /// At accuracy `1 − 2⁻⁵³` a refusal run is about `2⁵³ · ln(1/u)` long,
    /// too wide for an entry: every bucket is answered by the formula.
    #[test]
    fn refusals_too_wide_for_an_entry_take_the_formula() {
        let accuracy = 1.0 - f64::EPSILON / 2.0;
        let mut gate = ClassifierGate::with_accuracy(accuracy, 5);
        assert_eq!(gate.bad_admit_prob(), f64::EPSILON / 2.0);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let u = loop {
                let u = rng.gen::<f64>();
                if u > 0.0 {
                    break u;
                }
            };
            assert_eq!(gate.refusals_before_bad_admit(), exact_refusals(u, gate.ln_refuse));
        }
        for bucket in 0..BUCKETS {
            gate.refusals_at(f64::from_bits(TABLE_FLOOR + ((bucket as u64) << OFFSET_BITS)));
        }
        assert!(gate.table.iter().all(|&entry| entry == EXACT));
        let top = exact_refusals(0.5, gate.ln_refuse);
        assert!(top >= R_LIMIT, "{top}");
    }

    /// Accuracy 0 admits every Sybil, accuracy 1 none; neither draws from
    /// the stream nor fills the table.
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

        for (accuracy, refusals) in [(1.0, u64::MAX), (0.0, 0)] {
            let mut gate = ClassifierGate::with_accuracy(accuracy, 9);
            let mut rng = StdRng::seed_from_u64(9);
            for _ in 0..100 {
                assert_eq!(gate.refusals_before_bad_admit(), refusals);
            }
            assert!(gate.table.iter().all(|&entry| entry == UNFILLED));
            let u = rng.gen::<f64>();
            assert_eq!(gate.admit_good(), u < accuracy);
        }
    }

    #[test]
    fn asymmetric_accuracies() {
        let mut g = ClassifierGate::with_accuracies(0.9, 0.8, 3);
        assert!((g.bad_admit_prob() - 0.2).abs() < 1e-15);
        let n = 50_000;
        let good_admitted = (0..n).filter(|_| g.admit_good()).count() as f64 / n as f64;
        assert!((good_admitted - 0.9).abs() < 0.01, "{good_admitted}");
        let bad_admitted = (0..n).filter(|_| g.admit_bad()).count() as f64 / n as f64;
        assert!((bad_admitted - 0.2).abs() < 0.01, "{bad_admitted}");
    }

    #[test]
    #[should_panic(expected = "accuracy")]
    fn invalid_accuracy_panics() {
        let _ = ClassifierGate::with_accuracy(1.5, 0);
    }
}
