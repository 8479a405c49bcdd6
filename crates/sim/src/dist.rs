//! Probability distributions, implemented from scratch over uniform bits.
//!
//! The churn workloads in the paper's evaluation are driven by Weibull,
//! exponential, and Poisson models (Section 10 datasets). Only the uniform
//! source comes from the `rand` crate; all transforms live here so the
//! repository is self-contained and the samplers are independently testable.

use rand::Rng;

/// A continuous distribution over non-negative reals.
///
/// All samplers use inverse-transform sampling from a single uniform draw,
/// which keeps them deterministic given the RNG stream.
pub trait Sample {
    /// Draws one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// The distribution mean, used for steady-state sizing of churn models.
    fn mean(&self) -> f64;

    /// Fills `out` with independent samples.
    ///
    /// Guaranteed to consume the RNG stream exactly as `out.len()` calls
    /// to [`sample`](Self::sample) would — workload generation is seeded
    /// and fingerprinted, so batching must never perturb the draws.
    /// Implementations override this to split the work into a uniform
    /// block draw plus a tight transform-only loop, which is markedly
    /// faster for bulk cold-workload generation than interleaving RNG
    /// state updates with `ln`/`powf` calls one sample at a time.
    fn sample_fill<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        for slot in out.iter_mut() {
            *slot = self.sample(rng);
        }
    }
}

/// Draws a uniform in the open interval (0, 1), never exactly 0 or 1,
/// so `ln(u)` is always finite.
fn open_unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen();
        if u > 0.0 && u < 1.0 {
            return u;
        }
    }
}

/// Fills `out` with open-unit uniforms, element by element in order — the
/// exact RNG consumption of repeated [`open_unit`] calls (including the
/// rejection re-draws), so batched samplers stay stream-identical to
/// their one-at-a-time counterparts.
pub fn fill_open_unit<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    for slot in out.iter_mut() {
        *slot = open_unit(rng);
    }
}

/// Exponential distribution with the given mean (`rate = 1/mean`).
///
/// Used for Gnutella session times (mean 2.3 hours, Section 10).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean > 0.0 && mean.is_finite(), "mean must be positive and finite");
        Exponential { mean }
    }

    /// Creates an exponential distribution with the given rate (events/sec).
    pub fn with_rate(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive and finite");
        Exponential { mean: 1.0 / rate }
    }
}

impl Sample for Exponential {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        -self.mean * open_unit(rng).ln()
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn sample_fill<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        fill_open_unit(rng, out);
        for u in out.iter_mut() {
            *u = -self.mean * u.ln();
        }
    }
}

/// Weibull distribution with shape `k` and scale `lambda`.
///
/// Used for BitTorrent sessions (shape 0.59, scale 41.0) and Ethereum
/// sessions (shape 0.52, scale 9.8), per the paper's Section 10 datasets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Creates a Weibull distribution.
    ///
    /// # Panics
    ///
    /// Panics if `shape` or `scale` is not positive and finite.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape > 0.0 && shape.is_finite(), "shape must be positive and finite");
        assert!(scale > 0.0 && scale.is_finite(), "scale must be positive and finite");
        Weibull { shape, scale }
    }
}

impl Sample for Weibull {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse CDF: lambda * (-ln U)^(1/k).
        self.scale * (-open_unit(rng).ln()).powf(1.0 / self.shape)
    }

    fn mean(&self) -> f64 {
        self.scale * gamma(1.0 + 1.0 / self.shape)
    }

    fn sample_fill<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        fill_open_unit(rng, out);
        let inv_shape = 1.0 / self.shape;
        for u in out.iter_mut() {
            *u = self.scale * (-u.ln()).powf(inv_shape);
        }
    }
}

/// The gamma function, via the Lanczos approximation (g = 7, n = 9).
///
/// Accurate to ~15 significant digits for positive arguments, which is what
/// [`Weibull::mean`] needs for steady-state churn sizing.
pub fn gamma(x: f64) -> f64 {
    // Lanczos coefficients for g = 7, as published (more digits than f64
    // keeps — harmless, and clearer than rounding them by hand).
    #![allow(clippy::excessive_precision)]
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (std::f64::consts::TAU).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_mean<D: Sample>(d: &D, n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn gamma_known_values() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-10);
        assert!((gamma(2.0) - 1.0).abs() < 1e-10);
        assert!((gamma(3.0) - 2.0).abs() < 1e-10);
        assert!((gamma(4.0) - 6.0).abs() < 1e-9);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-10);
        assert!((gamma(1.5) - 0.886_226_925_452_758).abs() < 1e-10);
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Exponential::with_mean(42.0);
        let m = sample_mean(&d, 200_000, 1);
        assert!((m - 42.0).abs() / 42.0 < 0.02, "sample mean {m}");
        assert_eq!(d.mean(), 42.0);
        assert!((Exponential::with_rate(0.5).mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn weibull_mean_converges() {
        // BitTorrent parameters from the paper.
        let d = Weibull::new(0.59, 41.0);
        let analytic = d.mean();
        let m = sample_mean(&d, 400_000, 2);
        assert!((m - analytic).abs() / analytic < 0.03, "sample mean {m} vs analytic {analytic}");
        // Heavy-tailed shape <1 means mean > scale.
        assert!(analytic > 41.0);
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        let w = Weibull::new(1.0, 10.0);
        assert!((w.mean() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn samples_are_non_negative() {
        let mut rng = StdRng::seed_from_u64(6);
        let w = Weibull::new(0.52, 9.8);
        let e = Exponential::with_mean(1.0);
        for _ in 0..10_000 {
            assert!(w.sample(&mut rng) >= 0.0);
            assert!(e.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let d = Weibull::new(0.59, 41.0);
        let a = sample_mean(&d, 100, 7);
        let b = sample_mean(&d, 100, 7);
        assert_eq!(a, b);
    }

    /// The batched fill must be bit-identical to one-at-a-time sampling —
    /// same values AND same RNG stream position afterwards. Workload
    /// fingerprints depend on it.
    #[test]
    fn sample_fill_is_bit_identical_to_sequential() {
        fn check<D: Sample>(d: &D, seed: u64) {
            let n = 1000;
            let mut seq_rng = StdRng::seed_from_u64(seed);
            let sequential: Vec<f64> = (0..n).map(|_| d.sample(&mut seq_rng)).collect();
            let mut fill_rng = StdRng::seed_from_u64(seed);
            let mut filled = vec![0.0; n];
            d.sample_fill(&mut fill_rng, &mut filled);
            assert_eq!(sequential, filled);
            // Stream positions agree after the batch.
            assert_eq!(seq_rng.next_u64(), fill_rng.next_u64());
        }
        check(&Weibull::new(0.59, 41.0), 11);
        check(&Weibull::new(0.52, 9.8), 12);
        check(&Exponential::with_mean(8280.0), 13);
    }
}
