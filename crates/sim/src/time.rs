//! Virtual time for the discrete-event simulation.
//!
//! The paper measures time in seconds and defines a *round* as the time to
//! solve a 1-hard challenge plus a message round trip (Section 2). We model
//! time as `f64` seconds wrapped in a newtype so that times, durations, and
//! costs cannot be confused.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time, in seconds since simulation start.
///
/// `Time` is totally ordered via [`f64::total_cmp`], so it can key ordered
/// collections; simulation code never produces NaN times.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Time(pub f64);

impl Time {
    /// The simulation origin, `t = 0`.
    pub const ZERO: Time = Time(0.0);

    /// Seconds since the simulation origin.
    pub fn as_secs(&self) -> f64 {
        self.0
    }

    /// Returns the later of two times.
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two times.
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Eq for Time {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

impl Add<f64> for Time {
    type Output = Time;
    fn add(self, rhs: f64) -> Time {
        Time(self.0 + rhs)
    }
}

impl AddAssign<f64> for Time {
    fn add_assign(&mut self, rhs: f64) {
        self.0 += rhs;
    }
}

impl Sub<f64> for Time {
    type Output = Time;
    fn sub(self, rhs: f64) -> Time {
        Time(self.0 - rhs)
    }
}

impl SubAssign<f64> for Time {
    fn sub_assign(&mut self, rhs: f64) {
        self.0 -= rhs;
    }
}

impl Sub<Time> for Time {
    /// Difference between two times, in seconds.
    type Output = f64;
    fn sub(self, rhs: Time) -> f64 {
        self.0 - rhs.0
    }
}

impl Mul<f64> for Time {
    type Output = Time;
    fn mul(self, rhs: f64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Div<f64> for Time {
    type Output = Time;
    fn div(self, rhs: f64) -> Time {
        Time(self.0 / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let a = Time(1.0);
        let b = Time(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(Time::ZERO, Time(0.0));
    }

    #[test]
    fn arithmetic() {
        let t = Time(10.0) + 5.0;
        assert_eq!(t, Time(15.0));
        assert_eq!(t - Time(5.0), 10.0);
        assert_eq!((t - 5.0), Time(10.0));
        let mut u = Time(1.0);
        u += 1.5;
        assert_eq!(u, Time(2.5));
        u -= 0.5;
        assert_eq!(u, Time(2.0));
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Time(1.5).to_string(), "1.500s");
    }
}
