//! Multi-trial statistics: streaming mean/variance and t-based
//! confidence intervals.
//!
//! Trials are aggregated one [`SimReport`](sybil_sim::SimReport)-derived
//! metric at a time through [`Welford`] accumulators, so a cell's reports
//! never need to be resident together — at million-ID scale a single
//! report's timeline/estimate vectors are the only per-trial state, and
//! they are dropped as soon as the accumulators have absorbed them.

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Numerically stable for long streams: the incremental update never forms
/// `Σx²`, so catastrophic cancellation between large near-equal sums cannot
/// occur.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Welford {
        Welford::default()
    }

    /// Absorbs one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (NaN when empty — "no data" must not read as zero).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (NaN with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation (NaN with fewer than two observations).
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        self.std_dev() / (self.n as f64).sqrt()
    }

    /// The 95 % confidence interval half-width, `t₀.₀₂₅,ₙ₋₁ · s/√n`.
    ///
    /// NaN with fewer than two observations: a single trial carries no
    /// dispersion information, and pretending otherwise (e.g. a zero-width
    /// interval) would overstate certainty in the CSVs.
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            return f64::NAN;
        }
        t_critical_95(self.n - 1) * self.std_err()
    }

    /// Summarizes into `(mean, ci_lo, ci_hi)`.
    pub fn summary(&self) -> MetricSummary {
        let half = self.ci95_half_width();
        MetricSummary {
            n: self.n,
            mean: self.mean(),
            ci95_lo: self.mean() - half,
            ci95_hi: self.mean() + half,
        }
    }
}

/// A metric aggregated over trials: mean plus its 95 % CI bounds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricSummary {
    /// Trials absorbed.
    pub n: u64,
    /// Sample mean (NaN when no trials).
    pub mean: f64,
    /// Lower 95 % confidence bound (NaN below two trials).
    pub ci95_lo: f64,
    /// Upper 95 % confidence bound (NaN below two trials).
    pub ci95_hi: f64,
}

impl MetricSummary {
    /// The `<name>_mean`, `<name>_ci95_lo`, `<name>_ci95_hi` store-field
    /// triple every grid driver records per metric. This is the naming
    /// contract [`from_record`](Self::from_record) reads back; keeping
    /// both sides here keeps it single-sourced across drivers.
    pub fn fields(&self, name: &str) -> [(String, f64); 3] {
        [
            (format!("{name}_mean"), self.mean),
            (format!("{name}_ci95_lo"), self.ci95_lo),
            (format!("{name}_ci95_hi"), self.ci95_hi),
        ]
    }

    /// Reads the triple written by [`fields`](Self::fields) back out of a
    /// results-store record.
    ///
    /// # Panics
    ///
    /// Panics if the record lacks one of the three fields — a driver/store
    /// schema mismatch, not a runtime condition.
    pub fn from_record(record: &crate::store::Record, name: &str, trials: u64) -> MetricSummary {
        let get = |suffix: &str| {
            record.get(&format!("{name}_{suffix}")).unwrap_or_else(|| {
                panic!("results store record {} lacks field {name}_{suffix}", record.cell_id)
            })
        };
        MetricSummary {
            n: trials,
            mean: get("mean"),
            ci95_lo: get("ci95_lo"),
            ci95_hi: get("ci95_hi"),
        }
    }
}

/// Two-sided 95 % Student-t critical value for `df` degrees of freedom.
///
/// Exact table through df = 30, then the standard coarse rows (40, 60,
/// 120, ∞) applied with the printed-table convention: round `df` *down*
/// to the largest tabulated row — e.g. df = 35 uses the df = 30 value
/// 2.042, not the df = 40 value 2.021 — so between rows the interval is
/// slightly conservative, never narrower than the exact value.
pub fn t_critical_95(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::NAN,
        1..=30 => TABLE[(df - 1) as usize],
        31..=39 => 2.042,
        40..=59 => 2.021,
        60..=119 => 2.000,
        _ => 1.980,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_summary_fields_roundtrip_through_a_record() {
        let mut w = Welford::new();
        for x in [1.0, 2.0, 4.0] {
            w.push(x);
        }
        let s = w.summary();
        let record = crate::store::Record::new("cell", s.fields("good_rate").into_iter().collect());
        let back = MetricSummary::from_record(&record, "good_rate", s.n);
        assert_eq!(back, s);
    }

    #[test]
    fn welford_matches_naive_mean_and_variance() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        assert_eq!(w.count(), data.len() as u64);
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
    }

    #[test]
    fn welford_is_stable_under_large_offsets() {
        // Same spread around a huge offset: naive Σx² would lose all
        // precision; Welford must not.
        let mut w = Welford::new();
        for x in [1e12 + 1.0, 1e12 + 2.0, 1e12 + 3.0] {
            w.push(x);
        }
        assert!((w.variance() - 1.0).abs() < 1e-6, "variance {}", w.variance());
    }

    #[test]
    fn empty_and_single_observation_are_nan_not_zero() {
        let w = Welford::new();
        assert!(w.mean().is_nan());
        assert!(w.variance().is_nan());
        let mut w = Welford::new();
        w.push(3.0);
        assert_eq!(w.mean(), 3.0);
        assert!(w.ci95_half_width().is_nan(), "one trial must not claim an interval");
        let s = w.summary();
        assert_eq!(s.mean, 3.0);
        assert!(s.ci95_lo.is_nan() && s.ci95_hi.is_nan());
    }

    #[test]
    fn ci_covers_the_textbook_example() {
        // Five trials, s = 1, mean = 10: CI half-width = 2.776/√5 ≈ 1.2415.
        let mut w = Welford::new();
        for x in [9.0, 9.5, 10.0, 10.5, 11.0] {
            w.push(x);
        }
        let expected = t_critical_95(4) * w.std_err();
        let s = w.summary();
        assert!((s.ci95_hi - s.mean - expected).abs() < 1e-12);
        assert!(s.ci95_lo < s.mean && s.mean < s.ci95_hi);
        assert_eq!(s.n, 5);
    }

    #[test]
    fn t_table_is_monotone_and_bounded() {
        assert!(t_critical_95(0).is_nan());
        let mut prev = f64::INFINITY;
        for df in 1..200 {
            let t = t_critical_95(df);
            assert!(t <= prev, "t must not increase with df");
            assert!(t >= 1.960);
            prev = t;
        }
        assert_eq!(t_critical_95(1), 12.706);
        // Between tabulated rows, df rounds DOWN (conservative): df = 35
        // uses the df = 30 value, never the narrower df = 40 one.
        assert_eq!(t_critical_95(35), t_critical_95(30));
        // Finite df never reaches the normal limit 1.960: everything at or
        // beyond the last tabulated row uses that row's (wider) value.
        assert_eq!(t_critical_95(1_000_000), 1.980);
    }
}
