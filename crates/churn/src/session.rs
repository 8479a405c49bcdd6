//! Session-time models.
//!
//! A session time is how long an ID stays in the system. The paper's
//! datasets characterize churn by session-time distributions (Section 10):
//! Weibull for BitTorrent and Ethereum, exponential for Gnutella. Heavy
//! tails (Weibull shape < 1) are the realistic regime — a few IDs stay
//! very long while most churn quickly.

use rand::Rng;
use sybil_sim::dist::{Exponential, Sample, Weibull};

/// A distribution over session durations, in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SessionModel {
    /// Weibull with the given shape and scale (scale in seconds).
    Weibull {
        /// Shape parameter `k`; `< 1` is heavy-tailed.
        shape: f64,
        /// Scale parameter, seconds.
        scale: f64,
    },
    /// Exponential with the given mean (seconds).
    Exponential {
        /// Mean session length, seconds.
        mean: f64,
    },
    /// Every session lasts exactly this long (useful in tests).
    Fixed(f64),
}

impl SessionModel {
    /// Draws one session duration in seconds.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            SessionModel::Weibull { shape, scale } => Weibull::new(shape, scale).sample(rng),
            SessionModel::Exponential { mean } => Exponential::with_mean(mean).sample(rng),
            SessionModel::Fixed(d) => d,
        }
    }

    /// Fills `out` with independent session durations, bit-identical to
    /// `out.len()` calls of [`sample`](Self::sample) but batched: the
    /// distribution is constructed once and the uniform draws and the
    /// `ln`/`powf` transforms run in separate tight loops (the dominant
    /// cost of cold workload generation at scale).
    pub fn sample_fill<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        match *self {
            SessionModel::Weibull { shape, scale } => {
                Weibull::new(shape, scale).sample_fill(rng, out)
            }
            SessionModel::Exponential { mean } => {
                Exponential::with_mean(mean).sample_fill(rng, out)
            }
            SessionModel::Fixed(d) => out.fill(d),
        }
    }

    /// The analytic mean session duration (seconds).
    pub fn mean(&self) -> f64 {
        match *self {
            SessionModel::Weibull { shape, scale } => Weibull::new(shape, scale).mean(),
            SessionModel::Exponential { mean } => mean,
            SessionModel::Fixed(d) => d,
        }
    }

    /// The survival function `S(t) = P(session > t)`.
    pub fn survival(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 1.0;
        }
        match *self {
            SessionModel::Weibull { shape, scale } => (-(t / scale).powf(shape)).exp(),
            SessionModel::Exponential { mean } => (-t / mean).exp(),
            SessionModel::Fixed(d) => {
                if t < d {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Builds a sampler for the *residual* (equilibrium) session time — the
    /// remaining lifetime of a member observed at a random instant of a
    /// stationary system, with density `S(t)/μ`.
    ///
    /// Using this for the initial population makes departures stationary
    /// from `t = 0` (sampling fresh sessions instead creates a departure
    /// burst for heavy-tailed models, since their hazard rate diverges at
    /// zero).
    ///
    /// # Panics
    ///
    /// Panics if the session mean is not finite and positive: such a
    /// model has no stationary regime.
    pub fn residual_sampler(&self) -> ResidualSampler {
        let mean = self.mean();
        assert!(
            mean.is_finite() && mean > 0.0,
            "residual sampling requires a finite positive mean session"
        );
        // Trapezoid-integrate S(t) on a log-spaced grid until the integral
        // saturates at the mean; invert the normalized CDF by table lookup.
        let lo = mean * 1e-7;
        let hi = mean * 1e9;
        let points = 4096usize;
        let ratio = (hi / lo).powf(1.0 / (points - 1) as f64);
        let mut xs = Vec::with_capacity(points + 1);
        let mut cdf = Vec::with_capacity(points + 1);
        xs.push(0.0);
        cdf.push(0.0);
        let mut t_prev = 0.0f64;
        let mut s_prev = 1.0f64;
        let mut acc = 0.0f64;
        let mut t = lo;
        for _ in 0..points {
            let s = self.survival(t);
            acc += (t - t_prev) * (s + s_prev) / 2.0;
            xs.push(t);
            cdf.push(acc);
            t_prev = t;
            s_prev = s;
            if s < 1e-12 && acc > 0.999 * mean {
                break;
            }
            t *= ratio;
        }
        let total = *cdf.last().expect("nonempty table");
        for c in &mut cdf {
            *c /= total;
        }
        ResidualSampler { xs, cdf }
    }
}

/// Inverse-CDF sampler for residual session times (see
/// [`SessionModel::residual_sampler`]).
#[derive(Clone, Debug)]
pub struct ResidualSampler {
    xs: Vec<f64>,
    cdf: Vec<f64>,
}

impl ResidualSampler {
    /// Draws one residual lifetime.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        self.invert(u)
    }

    /// Fills `out` with independent residual lifetimes — bit-identical to
    /// `out.len()` calls of [`sample`](Self::sample), but the uniform
    /// draws and the table inversions run as two tight loops.
    pub fn sample_fill<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        for slot in out.iter_mut() {
            *slot = rng.gen();
        }
        for u in out.iter_mut() {
            *u = self.invert(*u);
        }
    }

    /// Table inversion of the normalized residual CDF at quantile `u`.
    fn invert(&self, u: f64) -> f64 {
        let idx = self.cdf.partition_point(|&c| c < u);
        if idx == 0 {
            return self.xs[0];
        }
        if idx >= self.xs.len() {
            return *self.xs.last().expect("nonempty table");
        }
        // Linear interpolation within the bracketing segment.
        let (c0, c1) = (self.cdf[idx - 1], self.cdf[idx]);
        let (x0, x1) = (self.xs[idx - 1], self.xs[idx]);
        if c1 <= c0 {
            return x1;
        }
        x0 + (x1 - x0) * (u - c0) / (c1 - c0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = SessionModel::Fixed(42.0);
        assert_eq!(m.sample(&mut rng), 42.0);
        assert_eq!(m.mean(), 42.0);
    }

    #[test]
    fn sample_means_match_analytic() {
        let mut rng = StdRng::seed_from_u64(2);
        let models = [
            SessionModel::Weibull { shape: 0.59, scale: 41.0 },
            SessionModel::Exponential { mean: 100.0 },
        ];
        for m in models {
            let n = 300_000;
            let mean: f64 = (0..n).map(|_| m.sample(&mut rng)).sum::<f64>() / n as f64;
            let analytic = m.mean();
            assert!(
                (mean - analytic).abs() / analytic < 0.05,
                "{m:?}: sample {mean} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn heavy_tail_weibull_mean_exceeds_scale() {
        let m = SessionModel::Weibull { shape: 0.52, scale: 9.8 };
        assert!(m.mean() > 9.8);
    }

    #[test]
    fn survival_is_monotone_and_bounded() {
        let models = [
            SessionModel::Weibull { shape: 0.6, scale: 100.0 },
            SessionModel::Exponential { mean: 100.0 },
            SessionModel::Fixed(50.0),
        ];
        for m in models {
            assert_eq!(m.survival(0.0), 1.0, "{m:?}");
            let mut prev = 1.0;
            for t in [1.0, 10.0, 100.0, 1000.0, 10_000.0] {
                let s = m.survival(t);
                assert!((0.0..=1.0).contains(&s), "{m:?} at {t}: {s}");
                assert!(s <= prev + 1e-12, "{m:?} not monotone at {t}");
                prev = s;
            }
        }
    }

    #[test]
    fn exponential_residual_is_memoryless() {
        // The exponential's residual life equals the original distribution.
        let m = SessionModel::Exponential { mean: 100.0 };
        let sampler = m.residual_sampler();
        let mut rng = StdRng::seed_from_u64(8);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| sampler.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 3.0, "residual mean {mean}");
    }

    #[test]
    fn weibull_residual_mean_matches_renewal_theory() {
        // Residual mean = E[S²]/(2μ); for Weibull(k, λ):
        // E[S²] = λ²Γ(1+2/k), μ = λΓ(1+1/k).
        use sybil_sim::dist::gamma;
        let (k, lambda) = (0.6, 100.0);
        let m = SessionModel::Weibull { shape: k, scale: lambda };
        let analytic = lambda * lambda * gamma(1.0 + 2.0 / k) / (2.0 * m.mean());
        let sampler = m.residual_sampler();
        let mut rng = StdRng::seed_from_u64(9);
        let n = 300_000;
        let mean: f64 = (0..n).map(|_| sampler.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!(
            (mean - analytic).abs() / analytic < 0.05,
            "residual mean {mean} vs analytic {analytic}"
        );
        // Heavy tails make residual life exceed the session mean.
        assert!(analytic > m.mean());
    }

    #[test]
    fn fixed_residual_is_uniform() {
        let m = SessionModel::Fixed(60.0);
        let sampler = m.residual_sampler();
        let mut rng = StdRng::seed_from_u64(10);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| sampler.sample(&mut rng)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 30.0).abs() < 0.5, "mean {mean}");
        // The numeric inversion smooths the survival discontinuity over one
        // log-grid step (~1% here), so allow a hair past the boundary.
        assert!(samples.iter().all(|&s| (0.0..=61.0).contains(&s)));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_mean_has_no_residual() {
        let _ = SessionModel::Exponential { mean: f64::INFINITY }.residual_sampler();
    }

    /// Blocked sampling must consume the RNG exactly like one-at-a-time
    /// sampling: generated workloads are seeded and fingerprinted.
    #[test]
    fn sample_fill_matches_sequential_draws() {
        let models = [
            SessionModel::Weibull { shape: 0.59, scale: 41.0 },
            SessionModel::Exponential { mean: 100.0 },
            SessionModel::Fixed(42.0),
        ];
        for m in models {
            let n = 500;
            let mut seq_rng = StdRng::seed_from_u64(77);
            let sequential: Vec<f64> = (0..n).map(|_| m.sample(&mut seq_rng)).collect();
            let mut fill_rng = StdRng::seed_from_u64(77);
            let mut filled = vec![0.0; n];
            m.sample_fill(&mut fill_rng, &mut filled);
            assert_eq!(sequential, filled, "{m:?}");
        }
    }

    #[test]
    fn residual_sample_fill_matches_sequential_draws() {
        let sampler = SessionModel::Weibull { shape: 0.6, scale: 100.0 }.residual_sampler();
        let n = 500;
        let mut seq_rng = StdRng::seed_from_u64(21);
        let sequential: Vec<f64> = (0..n).map(|_| sampler.sample(&mut seq_rng)).collect();
        let mut fill_rng = StdRng::seed_from_u64(21);
        let mut filled = vec![0.0; n];
        sampler.sample_fill(&mut fill_rng, &mut filled);
        assert_eq!(sequential, filled);
    }
}
