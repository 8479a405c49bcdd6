//! Arrival processes for good-ID joins.

use rand::Rng;
use sybil_sim::dist::{Exponential, Sample};

/// A point process generating join times.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at `rate` IDs/second (the paper's
    /// Gnutella model uses rate 1).
    Poisson {
        /// Arrival rate, IDs/second.
        rate: f64,
    },
    /// Poisson arrivals with a sinusoidally modulated rate
    /// `rate(t) = base·(1 + amplitude·sin(2πt/period))` — a diurnal pattern,
    /// used by the synthetic Bitcoin workload.
    Diurnal {
        /// Mean arrival rate, IDs/second.
        base: f64,
        /// Relative modulation amplitude in `[0, 1)`.
        amplitude: f64,
        /// Modulation period, seconds (86 400 for a day).
        period: f64,
    },
}

impl ArrivalProcess {
    /// The long-run mean arrival rate.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } => rate,
            ArrivalProcess::Diurnal { base, .. } => base,
        }
    }

    /// Generates all arrival times in `(0, horizon]`, sorted ascending.
    pub fn arrivals<R: Rng + ?Sized>(&self, horizon: f64, rng: &mut R) -> Vec<f64> {
        assert!(horizon >= 0.0 && horizon.is_finite());
        let mut out = Vec::new();
        match *self {
            ArrivalProcess::Poisson { rate } => {
                assert!(rate > 0.0, "rate must be positive");
                let inter = Exponential::with_rate(rate);
                let mut t = inter.sample(rng);
                while t <= horizon {
                    out.push(t);
                    t += inter.sample(rng);
                }
            }
            ArrivalProcess::Diurnal { base, amplitude, period } => {
                assert!(base > 0.0, "base rate must be positive");
                assert!((0.0..1.0).contains(&amplitude), "amplitude must be in [0,1)");
                assert!(period > 0.0, "period must be positive");
                // Thinning (Lewis–Shedler): propose at the max rate, accept
                // with probability rate(t)/max.
                let max_rate = base * (1.0 + amplitude);
                let inter = Exponential::with_rate(max_rate);
                let mut t = inter.sample(rng);
                while t <= horizon {
                    let rate_t =
                        base * (1.0 + amplitude * (std::f64::consts::TAU * t / period).sin());
                    if rng.gen::<f64>() * max_rate < rate_t {
                        out.push(t);
                    }
                    t += inter.sample(rng);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_rate_converges() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = ArrivalProcess::Poisson { rate: 2.0 }.arrivals(50_000.0, &mut rng);
        let rate = a.len() as f64 / 50_000.0;
        assert!((rate - 2.0).abs() < 0.05, "rate {rate}");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t > 0.0 && t <= 50_000.0));
    }

    #[test]
    fn diurnal_mean_rate_close_to_base() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = ArrivalProcess::Diurnal { base: 1.0, amplitude: 0.5, period: 1000.0 };
        // Over many whole periods the modulation averages out.
        let a = p.arrivals(50_000.0, &mut rng);
        let rate = a.len() as f64 / 50_000.0;
        assert!((rate - 1.0).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn diurnal_is_actually_modulated() {
        let mut rng = StdRng::seed_from_u64(6);
        let period = 10_000.0;
        let p = ArrivalProcess::Diurnal { base: 1.0, amplitude: 0.9, period };
        let a = p.arrivals(period, &mut rng);
        // First half-period (sin > 0) should see clearly more arrivals than
        // the second.
        let first = a.iter().filter(|&&t| t < period / 2.0).count();
        let second = a.len() - first;
        assert!(first as f64 > 1.3 * second as f64, "first {first} second {second}");
    }

    #[test]
    fn empty_horizon() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(ArrivalProcess::Poisson { rate: 1.0 }.arrivals(0.0, &mut rng).is_empty());
    }
}
