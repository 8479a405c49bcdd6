//! A minimal, dependency-free stand-in for the `rand` crate.
//!
//! The build environment is offline, so this workspace vendors the small
//! subset of the `rand 0.8` API the repository actually uses: the [`Rng`]
//! trait (`gen`, `gen_range`, `gen_bool`), [`SeedableRng::seed_from_u64`],
//! and [`rngs::StdRng`]. The generator is xoshiro256++ seeded through
//! SplitMix64 — deterministic across platforms and runs, which is all the
//! simulations require (reproducible streams, not cryptographic strength).
//!
//! The streams differ from upstream `rand`'s ChaCha-based `StdRng`; any
//! test expectation pinned to concrete sampled values is pinned to *this*
//! generator.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

use std::ops::{Range, RangeInclusive};

/// A source of randomness. Only `next_u64` is required; everything else is
/// derived from it.
pub trait Rng {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Samples a value of a type with a canonical uniform distribution
    /// (`f64`/`f32` in `[0, 1)`, integers over their full range).
    fn gen<T: Standard>(&mut self) -> T {
        T::from_rng(self)
    }

    /// Samples uniformly from a range (`a..b` or `a..=b`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p must be in [0,1]");
        f64::from_rng(self) < p
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types with a canonical uniform sampling rule, mirroring `rand`'s
/// `Standard` distribution.
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for u8 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl Standard for usize {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` using the top 53 bits.
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` using the top 24 bits.
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges that can be sampled uniformly, mirroring `rand`'s `SampleRange`.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

/// Unbiased integer sampling over `[0, n)` via 128-bit widening multiply
/// with rejection (Lemire's method).
fn uniform_below<R: Rng + ?Sized>(rng: &mut R, n: u64) -> u64 {
    assert!(n > 0, "cannot sample from an empty range");
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (n as u128);
        let lo = m as u64;
        if lo >= n.wrapping_neg() % n {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! int_range_impl {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from an empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from an empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(uniform_below(rng, span as u64) as $t)
            }
        }
    )*};
}

int_range_impl!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample from an empty range");
        let u: f64 = f64::from_rng(rng);
        let x = self.start + u * (self.end - self.start);
        // `u` < 1, but rounding of the affine transform can still land
        // exactly on the excluded upper bound; clamp to honor `a..b`.
        if x < self.end {
            x
        } else {
            self.end.next_down().max(self.start)
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "cannot sample from an empty range");
        let u: f64 = f64::from_rng(rng);
        start + u * (end - start)
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "cannot sample from an empty range");
        let u: f32 = f32::from_rng(rng);
        let x = self.start + u * (self.end - self.start);
        if x < self.end {
            x
        } else {
            self.end.next_down().max(self.start)
        }
    }
}

/// RNGs constructible from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    //! Concrete generators.

    use super::{Rng, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    ///
    /// Seeded via SplitMix64 so nearby seeds give uncorrelated streams.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut state = seed;
            let s = [
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
            ];
            StdRng { s }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.s;
            let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            let mut s = [s0, s1, s2, s3];
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            self.s = s;
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unit_float_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_range_bounds_hold() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = rng.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(-2.0f64..=2.0);
            assert!((-2.0..=2.0).contains(&y));
        }
    }

    #[test]
    fn gen_range_mean_is_centered() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen_range(0.0..1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn works_through_unsized_refs() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.gen()
        }
        let mut rng = StdRng::seed_from_u64(3);
        let dynrng: &mut StdRng = &mut rng;
        assert!((0.0..1.0).contains(&draw(dynrng)));
    }
}
