//! Half-life computation (Liben-Nowell, Balakrishnan, Karger, 2002),
//! discussed in the paper's Section 4.2 as the closest prior notion to the
//! ABC model's epoch.
//!
//! From time `t`: the *doubling time* is how long until `N` more IDs join
//! (where `N` is the population at `t`); the *halving time* is how long
//! until `N/2` of the IDs present at `t` depart. The *half-life from `t`*
//! is the smaller of the two, and the system half-life is the minimum over
//! all `t`. The paper proves there is always at least one epoch per
//! half-life (Section 4.2) — a property our cross-model tests verify.

use crate::abc::{event_stream, ChurnEvent};
use sybil_sim::time::Time;
use sybil_sim::workload::Workload;

/// Doubling, halving, and half-life times measured from one instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HalfLife {
    /// The reference instant.
    pub from: Time,
    /// Time until N more arrivals (None if not reached within the horizon).
    pub doubling: Option<f64>,
    /// Time until N/2 of the reference members depart (None if not reached).
    pub halving: Option<f64>,
}

impl HalfLife {
    /// The half-life: the minimum of doubling and halving times.
    pub fn value(&self) -> Option<f64> {
        match (self.doubling, self.halving) {
            (Some(d), Some(h)) => Some(d.min(h)),
            (Some(d), None) => Some(d),
            (None, Some(h)) => Some(h),
            (None, None) => None,
        }
    }
}

/// Measures the half-life from time `from` over the workload.
pub fn half_life_from(workload: &Workload, from: Time, horizon: Time) -> HalfLife {
    let events = event_stream(workload, horizon);
    // Population at `from`.
    let mut pop: u64 = workload.initial_size();
    for ev in &events {
        if ev.at() > from {
            break;
        }
        match ev {
            ChurnEvent::Join(_) => pop += 1,
            ChurnEvent::Depart { .. } => pop = pop.saturating_sub(1),
        }
    }
    let n = pop;
    let mut joins_after = 0u64;
    let mut old_departs = 0u64;
    let mut doubling = None;
    let mut halving = None;
    for ev in &events {
        if ev.at() <= from {
            continue;
        }
        match ev {
            ChurnEvent::Join(t) => {
                joins_after += 1;
                if doubling.is_none() && joins_after >= n {
                    doubling = Some(*t - from);
                }
            }
            ChurnEvent::Depart { at, joined_at } => {
                if *joined_at <= from {
                    old_departs += 1;
                    if halving.is_none() && 2 * old_departs >= n {
                        halving = Some(*at - from);
                    }
                }
            }
        }
        if doubling.is_some() && halving.is_some() {
            break;
        }
    }
    HalfLife { from, doubling, halving }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sybil_sim::workload::Session;

    /// 10 initial members; 10 arrivals at t=1..10; initial members depart
    /// at t=20..29.
    fn workload() -> Workload {
        Workload::new(
            (0..10).map(|i| Time(20.0 + i as f64)).collect(),
            (0..10).map(|i| Session::new(Time(1.0 + i as f64), Time(1000.0))).collect(),
        )
    }

    #[test]
    fn doubling_time_from_zero() {
        let hl = half_life_from(&workload(), Time::ZERO, Time(100.0));
        // Population 10 at t=0; the 10th join is at t=10.
        assert_eq!(hl.doubling, Some(10.0));
        // 5 of the original 10 have departed at t=24.
        assert_eq!(hl.halving, Some(24.0));
        assert_eq!(hl.value(), Some(10.0));
    }

    #[test]
    fn half_life_not_reached() {
        let w = Workload::new(vec![Time(1e9); 10], vec![]);
        let hl = half_life_from(&w, Time::ZERO, Time(100.0));
        assert_eq!(hl.value(), None);
    }

    #[test]
    fn at_least_one_epoch_per_half_life() {
        // Paper Section 4.2: "There is always at least one epoch in every
        // half-life." Check on a generated ABC trace.
        use crate::abc::{detect_epochs, AbcTraceGenerator};
        let w =
            AbcTraceGenerator { n0: 200, rho0: 4.0, alpha: 1.5, beta: 1.0, epochs: 4 }.generate(11);
        let horizon = Time(1e6);
        let epochs = detect_epochs(&w, horizon, (1, 2));
        let hl = half_life_from(&w, Time::ZERO, horizon);
        if let Some(v) = hl.value() {
            // Some epoch must end within [0, v].
            assert!(
                epochs.iter().any(|e| e.end.as_secs() <= v + 1e-9),
                "no epoch within the first half-life ({v} s)"
            );
        }
    }
}
