//! Resource-burning cost accounting.
//!
//! The paper's experiments "assume a cost of `k` for solving a `k`-hard RB
//! challenge" (Section 10.1); the [`Cost`] newtype carries that unit. The
//! [`Ledger`] splits spending by who paid (good IDs vs the adversary) and
//! why (entrance, purge, periodic work), which is exactly the decomposition
//! the analysis in Section 9.2 performs. The engine accumulates in the
//! fixed-point [`FixedLedger`], whose totals are exact and whose overflow
//! is a panic, and converts to the float [`Ledger`] once, for the report.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An amount of burned resource, in 1-hard-challenge units.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Cost(pub f64);

impl Cost {
    /// Zero cost.
    pub const ZERO: Cost = Cost(0.0);
    /// The cost of a single 1-hard challenge.
    pub const ONE: Cost = Cost(1.0);

    /// Raw value in 1-hard units.
    pub fn value(&self) -> f64 {
        self.0
    }

    /// True if this cost is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.0 == 0.0
    }
}

impl Eq for Cost {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl PartialOrd for Cost {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cost {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}rb", self.0)
    }
}

impl Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost(self.0 + rhs.0)
    }
}

impl AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        self.0 += rhs.0;
    }
}

impl Sub for Cost {
    type Output = Cost;
    fn sub(self, rhs: Cost) -> Cost {
        Cost(self.0 - rhs.0)
    }
}

impl SubAssign for Cost {
    fn sub_assign(&mut self, rhs: Cost) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Cost {
    type Output = Cost;
    fn mul(self, rhs: f64) -> Cost {
        Cost(self.0 * rhs)
    }
}

impl Div<f64> for Cost {
    type Output = Cost;
    fn div(self, rhs: f64) -> Cost {
        Cost(self.0 / rhs)
    }
}

impl Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        iter.fold(Cost::ZERO, |a, b| a + b)
    }
}

/// Why a cost was incurred.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Purpose {
    /// Entrance challenge solved to join the system.
    Entrance,
    /// 1-hard challenge solved during a purge to remain in the system.
    Purge,
    /// Periodic work (SybilControl neighbor tests, REMP recurring puzzles).
    Periodic,
}

/// Resource burning by payer and purpose, as a run's report carries it;
/// built by [`FixedLedger::to_ledger`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ledger {
    good_entrance: Cost,
    good_purge: Cost,
    good_periodic: Cost,
    adv_entrance: Cost,
    adv_purge: Cost,
    adv_periodic: Cost,
}

impl Ledger {
    /// Builds a ledger from per-purpose balances in `[Entrance, Purge,
    /// Periodic]` order — the seam through which the fixed-point ledger
    /// materializes its final float report.
    pub(crate) fn from_parts(good: [Cost; 3], adv: [Cost; 3]) -> Ledger {
        Ledger {
            good_entrance: good[0],
            good_purge: good[1],
            good_periodic: good[2],
            adv_entrance: adv[0],
            adv_purge: adv[1],
            adv_periodic: adv[2],
        }
    }

    /// Total burned by good IDs across all purposes.
    pub fn good_total(&self) -> Cost {
        self.good_entrance + self.good_purge + self.good_periodic
    }

    /// Total burned by the adversary across all purposes.
    pub fn adversary_total(&self) -> Cost {
        self.adv_entrance + self.adv_purge + self.adv_periodic
    }

    /// Good spending on entrance challenges.
    pub fn good_entrance(&self) -> Cost {
        self.good_entrance
    }

    /// Good spending on purge challenges.
    pub fn good_purge(&self) -> Cost {
        self.good_purge
    }

    /// Good spending on periodic work.
    pub fn good_periodic(&self) -> Cost {
        self.good_periodic
    }

    /// Adversary spending on entrance challenges.
    pub fn adversary_entrance(&self) -> Cost {
        self.adv_entrance
    }

    /// Adversary spending on purge retention.
    pub fn adversary_purge(&self) -> Cost {
        self.adv_purge
    }

    /// Adversary spending on periodic retention.
    pub fn adversary_periodic(&self) -> Cost {
        self.adv_periodic
    }
}

/// A non-negative resource amount in Q64.64 fixed point (64 integer bits,
/// 64 fractional bits, stored in an `i128`).
///
/// Conversion from [`Cost`] scales by 2⁶⁴ — exact — and rounds once
/// ([`FixedCost::from_cost`]); all subsequent accumulation is exact integer arithmetic,
/// which is associative, so a total does not depend on how its charges
/// were grouped. Every operation is checked in every build profile: an
/// amount that leaves the range panics with the operation and its
/// operands instead of wrapping into a negative balance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct FixedCost(i128);

impl FixedCost {
    /// Fractional bits.
    const FRAC_BITS: i32 = 64;

    /// Rounds a [`Cost`] into fixed point. This is the only lossy step in
    /// the ledger pipeline and it happens exactly once per charge.
    ///
    /// The result is `v · 2⁶⁴` rounded half away from zero, computed on
    /// the bits of `v`: an `f64` is `sig · 2^(exp − 1075)` with a 53-bit
    /// integer `sig`, so `v · 2⁶⁴` is `sig` shifted by `exp − 1011` places
    /// — left is exact; right drops bits, and adding half of the last
    /// kept place first rounds the dropped ones half away. That is what
    /// the float route — `(v * 2f64.powi(64)).round()`, cast to `i128` —
    /// computes (the product is exact, `round` rounds once, the cast is
    /// exact), without the library calls that route costs where the
    /// target has no rounding instruction. Zero, subnormals and everything
    /// else below 2⁻⁶⁵ shift right by more than `sig` is wide and come
    /// out 0.
    ///
    /// # Panics
    ///
    /// Panics unless the charge is finite, non-negative and below 2⁶³
    /// units (a NaN or an `as`-saturated charge would otherwise be booked
    /// as 0 or as the largest balance).
    pub fn from_cost(cost: Cost) -> FixedCost {
        let v = cost.value();
        assert!(
            (0.0..2f64.powi(127 - Self::FRAC_BITS)).contains(&v),
            "ledger overflow: charge {v} is not a finite amount in [0, 2^63) units"
        );
        // `-0.0` passes the assert, so the sign bit is masked, not assumed.
        let bits = v.to_bits() & (u64::MAX >> 1);
        let sig = (bits & ((1 << 52) - 1)) | (1 << 52);
        let shift = (bits >> 52) as i32 - 1075 + Self::FRAC_BITS;
        FixedCost(if shift >= 0 {
            // At most 74 places (v < 2⁶³): below 2¹²⁷.
            (sig as i128) << shift
        } else if shift >= -53 {
            ((sig + (1 << (-shift - 1))) >> -shift) as i128
        } else {
            0
        })
    }

    /// Converts back to a float [`Cost`] (rounds to nearest).
    pub fn to_cost(self) -> Cost {
        Cost(self.0 as f64 * 2f64.powi(-Self::FRAC_BITS))
    }

    /// `k` times this amount: the sum of `k` copies, checked like one.
    pub(crate) fn times(self, k: u64) -> FixedCost {
        let product = self.0.checked_mul(i128::from(k));
        product.map_or_else(|| self.overflow("×", k as f64), FixedCost)
    }

    #[cold]
    fn overflow(self, op: &str, rhs: f64) -> ! {
        panic!(
            "ledger overflow: {} {op} {rhs} leaves the Q64.64 range of 2^63 units",
            self.to_cost().value()
        )
    }
}

impl Add for FixedCost {
    type Output = FixedCost;
    fn add(self, rhs: FixedCost) -> FixedCost {
        let sum = self.0.checked_add(rhs.0);
        sum.map_or_else(|| self.overflow("+", rhs.to_cost().value()), FixedCost)
    }
}

impl AddAssign for FixedCost {
    fn add_assign(&mut self, rhs: FixedCost) {
        *self = *self + rhs;
    }
}

impl Sub for FixedCost {
    type Output = FixedCost;
    fn sub(self, rhs: FixedCost) -> FixedCost {
        let difference = self.0.checked_sub(rhs.0);
        difference.map_or_else(|| self.overflow("-", rhs.to_cost().value()), FixedCost)
    }
}

impl SubAssign for FixedCost {
    fn sub_assign(&mut self, rhs: FixedCost) {
        *self = *self - rhs;
    }
}

/// A [`Ledger`] with fixed-point balances: payer × purpose, exactly the
/// decomposition the float ledger reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FixedLedger {
    good: [FixedCost; 3],
    adv: [FixedCost; 3],
}

impl FixedLedger {
    fn slot(purpose: Purpose) -> usize {
        match purpose {
            Purpose::Entrance => 0,
            Purpose::Purge => 1,
            Purpose::Periodic => 2,
        }
    }

    /// Records spending by good IDs.
    pub fn charge_good(&mut self, purpose: Purpose, amount: Cost) {
        self.good[Self::slot(purpose)] += FixedCost::from_cost(amount);
    }

    /// Records spending by the adversary.
    pub fn charge_adversary(&mut self, purpose: Purpose, amount: Cost) {
        self.adv[Self::slot(purpose)] += FixedCost::from_cost(amount);
    }

    /// Records `k` equal charges by good IDs in one step: the balance is
    /// the one `k` calls of [`charge_good`](Self::charge_good) leave.
    pub(crate) fn charge_good_times(&mut self, purpose: Purpose, amount: Cost, k: u64) {
        self.good[Self::slot(purpose)] += FixedCost::from_cost(amount).times(k);
    }

    /// Records `k` equal charges by the adversary in one step, as
    /// [`charge_good_times`](Self::charge_good_times) does for good IDs.
    pub(crate) fn charge_adversary_times(&mut self, purpose: Purpose, amount: Cost, k: u64) {
        self.adv[Self::slot(purpose)] += FixedCost::from_cost(amount).times(k);
    }

    /// Total burned by good IDs.
    pub fn good_total(&self) -> FixedCost {
        self.good[0] + self.good[1] + self.good[2]
    }

    /// Total burned by the adversary.
    pub fn adversary_total(&self) -> FixedCost {
        self.adv[0] + self.adv[1] + self.adv[2]
    }

    /// Converts each balance to `f64` once, producing the float [`Ledger`]
    /// the report carries. Conversion order is fixed (per-slot), so the
    /// output is a pure function of the integer balances.
    pub fn to_ledger(&self) -> Ledger {
        Ledger::from_parts(self.good.map(FixedCost::to_cost), self.adv.map(FixedCost::to_cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_arithmetic() {
        let c = Cost(2.0) + Cost(3.0);
        assert_eq!(c, Cost(5.0));
        assert_eq!(c - Cost(1.0), Cost(4.0));
        assert_eq!(c * 2.0, Cost(10.0));
        assert_eq!(c / 5.0, Cost(1.0));
        assert_eq!(vec![Cost(1.0), Cost(2.0)].into_iter().sum::<Cost>(), Cost(3.0));
        assert!(Cost::ZERO.is_zero());
        assert!(!Cost::ONE.is_zero());
        assert!(Cost(1.0) < Cost(2.0));
    }

    #[test]
    fn display() {
        assert_eq!(Cost(1.5).to_string(), "1.50rb");
    }

    #[test]
    fn fixed_point_is_exact_on_dyadic_values() {
        for v in [0.0, 1.0, 1.5, 150.0, 0.25, 1e7] {
            assert_eq!(FixedCost::from_cost(Cost(v)).to_cost(), Cost(v));
        }
        let mut sum = FixedCost::default();
        for _ in 0..150 {
            sum += FixedCost::from_cost(Cost::ONE);
        }
        assert_eq!(sum.to_cost(), Cost(150.0));
    }

    #[test]
    fn fixed_ledger_round_trips_through_the_float_ledger() {
        let mut fl = FixedLedger::default();
        fl.charge_good(Purpose::Entrance, Cost(2.0));
        fl.charge_good(Purpose::Purge, Cost(3.0));
        fl.charge_good(Purpose::Periodic, Cost(5.0));
        fl.charge_adversary(Purpose::Entrance, Cost(7.0));
        fl.charge_adversary(Purpose::Purge, Cost(11.0));
        fl.charge_adversary(Purpose::Periodic, Cost(13.0));
        let l = fl.to_ledger();
        assert_eq!(l.good_total(), Cost(10.0));
        assert_eq!(l.adversary_total(), Cost(31.0));
        assert_eq!(l.good_entrance(), Cost(2.0));
        assert_eq!(l.good_purge(), Cost(3.0));
        assert_eq!(l.good_periodic(), Cost(5.0));
        assert_eq!(l.adversary_entrance(), Cost(7.0));
        assert_eq!(l.adversary_purge(), Cost(11.0));
        assert_eq!(l.adversary_periodic(), Cost(13.0));
        assert_eq!(fl.good_total().to_cost(), Cost(10.0));
        assert_eq!(fl.adversary_total().to_cost(), Cost(31.0));
    }

    /// A `×k` charge leaves every balance exactly as `k` single charges do,
    /// on amounts whose conversion rounds.
    #[test]
    fn a_charge_times_k_is_k_charges() {
        for (amount, k) in
            [(Cost(1.37), 1_000u64), (Cost(1.0 / 3.0), 7), (Cost(2e-20), 3), (Cost(5.0), 0)]
        {
            let (mut single, mut multiplied) = (FixedLedger::default(), FixedLedger::default());
            for _ in 0..k {
                single.charge_good(Purpose::Purge, amount);
                single.charge_adversary(Purpose::Entrance, amount);
            }
            multiplied.charge_good_times(Purpose::Purge, amount, k);
            multiplied.charge_adversary_times(Purpose::Entrance, amount, k);
            assert_eq!(multiplied, single, "{amount:?} × {k}");
        }
    }

    #[test]
    #[should_panic(expected = "ledger overflow: 1152921504606847000 × 8 leaves")]
    fn a_charge_times_k_past_the_range_panics() {
        FixedLedger::default().charge_adversary_times(Purpose::Entrance, Cost(2f64.powi(60)), 8);
    }

    /// The float route `from_cost` replaced, kept here as the reference:
    /// any value on which the bit-level conversion is off by one unit of
    /// 2⁻⁶⁴ fails this.
    #[test]
    fn from_cost_equals_one_rounding_of_the_scaled_float() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let check = |v: f64| {
            let reference = (v * 2f64.powi(64)).round() as i128;
            assert_eq!(FixedCost::from_cost(Cost(v)).0, reference, "{v:e} = {:#018x}", v.to_bits());
        };
        let below_2_63 = f64::from_bits(2f64.powi(63).to_bits() - 1);
        for v in [0.0, -0.0, f64::MIN_POSITIVE, 5e-324, below_2_63, 2f64.powi(-65), 2f64.powi(-64)]
        {
            check(v);
        }
        assert_eq!(FixedCost::from_cost(Cost(below_2_63)).0, i128::MAX - ((1 << 74) - 1));
        // Ties: k + ½ units of 2⁻⁶⁴ round away from zero, at every width
        // of k an f64 can hold a half beside.
        for bits in 0..52 {
            for k in [1u64 << bits, (1 << bits) + 1, (2 << bits) - 1] {
                let tie = (k as f64 + 0.5) * 2f64.powi(-64);
                assert_eq!(FixedCost::from_cost(Cost(tie)).0, k as i128 + 1);
                check(tie);
                check(f64::from_bits(tie.to_bits() - 1));
                check(f64::from_bits(tie.to_bits() + 1));
            }
        }
        // Integers above 2⁵³ (even by construction) and their neighbours.
        for e in 53..63 {
            for v in [2f64.powi(e), 2f64.powi(e) + 2f64.powi(e - 52), 2f64.powi(e) * 1.5] {
                check(v);
                check(f64::from_bits(v.to_bits() - 1));
            }
        }
        // Seeded significands across binary exponents −80…62: below, on
        // and above the places where bits start to drop.
        let mut rng = StdRng::seed_from_u64(0xC057);
        for _ in 0..8_000 {
            for e in -80..=62i64 {
                let significand = rng.gen::<u64>() >> 12;
                check(f64::from_bits(((e + 1023) as u64) << 52 | significand));
            }
        }
    }

    /// The T = 2⁶⁰ case: eight such charges reach 2⁶³ units.
    #[test]
    #[should_panic(expected = "ledger overflow: 8070450532247929000 + 1152921504606847000 leaves")]
    fn charges_that_pass_the_range_panic_instead_of_wrapping() {
        let mut ledger = FixedLedger::default();
        for _ in 0..8 {
            ledger.charge_adversary(Purpose::Entrance, Cost(2f64.powi(60)));
        }
    }

    #[test]
    #[should_panic(expected = "ledger overflow: charge 100000000000000000000 is not")]
    fn a_charge_above_the_range_panics_instead_of_saturating() {
        FixedLedger::default().charge_good(Purpose::Purge, Cost(1e20));
    }

    #[test]
    #[should_panic(expected = "ledger overflow: charge NaN is not")]
    fn a_nan_charge_panics_instead_of_booking_zero() {
        FixedLedger::default().charge_good(Purpose::Entrance, Cost(f64::NAN));
    }
}
