//! The ABC (α,β-smoothness) churn model: epoch detection, smoothness
//! measurement, and a compliant trace generator (paper Sections 2.1 and 5).
//!
//! **Epochs** partition time: an epoch ends when the symmetric difference
//! between the good-ID sets at its start and now *exceeds* 1/2 the good
//! population at its start. Per-epoch good join rates `ρᵢ` then define:
//!
//! * **α-smoothness** — `(1/α)ρᵢ₋₁ ≤ ρᵢ ≤ αρᵢ₋₁`: consecutive epochs' rates
//!   differ by at most an `α` factor (but may drift *exponentially* across
//!   epochs, which is what "churn rate that can vary exponentially" means).
//! * **β-smoothness** — within an epoch, any `ℓ`-second duration sees between
//!   `⌊ℓρᵢ/β⌋` and `⌈βℓρᵢ⌉` joins and at most `⌈βℓρᵢ⌉` departures: `β`
//!   bounds burstiness.
//!
//! [`detect_epochs`] replays a [`Workload`] and recovers its epochs;
//! [`measure_alpha`] / [`estimate_beta`] measure empirical smoothness; and
//! [`AbcTraceGenerator`] produces workloads with prescribed `(α, β)`, used
//! by the property tests that validate the paper's epoch/interval/iteration
//! translation lemmas (Lemmas 1 and 11).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sybil_sim::time::Time;
use sybil_sim::workload::{Session, Workload};

/// One detected epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Epoch {
    /// Epoch start.
    pub start: Time,
    /// Epoch end (when the symmetric difference exceeded the threshold).
    pub end: Time,
    /// Good joins during the epoch.
    pub joins: u64,
    /// Good departures during the epoch.
    pub departs: u64,
    /// Good population at the epoch start.
    pub start_size: u64,
}

impl Epoch {
    /// Epoch length in seconds.
    pub fn len(&self) -> f64 {
        self.end - self.start
    }

    /// The good join rate `ρ` of this epoch (joins per second).
    pub fn rho(&self) -> f64 {
        self.joins as f64 / self.len()
    }
}

/// A single replayed churn event (shared by epoch analysis and tests).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChurnEvent {
    /// A good ID joins at this time.
    Join(Time),
    /// A good ID that joined at `joined_at` departs at `at`.
    Depart {
        /// Departure time.
        at: Time,
        /// The departing ID's join time (0 for initial members).
        joined_at: Time,
    },
}

impl ChurnEvent {
    /// The event's time.
    pub fn at(&self) -> Time {
        match *self {
            ChurnEvent::Join(t) => t,
            ChurnEvent::Depart { at, .. } => at,
        }
    }
}

/// Flattens a workload into a time-sorted event stream up to `horizon`.
pub fn event_stream(workload: &Workload, horizon: Time) -> Vec<ChurnEvent> {
    let mut events = Vec::new();
    for &d in &workload.initial_departures {
        if d <= horizon {
            events.push(ChurnEvent::Depart { at: d, joined_at: Time::ZERO });
        }
    }
    for s in &workload.sessions {
        if s.join <= horizon {
            events.push(ChurnEvent::Join(s.join));
            if s.depart <= horizon {
                events.push(ChurnEvent::Depart { at: s.depart, joined_at: s.join });
            }
        }
    }
    events.sort_by_key(ChurnEvent::at);
    events
}

/// Replays the workload's good events and returns its epochs.
///
/// An epoch ends when `|G(t') △ G(t)| > threshold · |G(t)|` (the paper's
/// threshold is 1/2, passed as `(1, 2)`).
pub fn detect_epochs(workload: &Workload, horizon: Time, threshold: (u64, u64)) -> Vec<Epoch> {
    let (num, den) = threshold;
    assert!(den > 0, "threshold denominator must be nonzero");
    let mut epochs = Vec::new();
    let mut start = Time::ZERO;
    let mut start_size = workload.initial_size();
    let mut size = start_size;
    let mut old_departed = 0u64;
    let mut new_present = 0u64;
    let mut joins = 0u64;
    let mut departs = 0u64;

    for ev in event_stream(workload, horizon) {
        match ev {
            ChurnEvent::Join(t) => {
                size += 1;
                new_present += 1;
                joins += 1;
                maybe_close(
                    &mut epochs,
                    &mut start,
                    &mut start_size,
                    size,
                    &mut old_departed,
                    &mut new_present,
                    &mut joins,
                    &mut departs,
                    t,
                    num,
                    den,
                );
            }
            ChurnEvent::Depart { at, joined_at } => {
                size = size.saturating_sub(1);
                departs += 1;
                if joined_at <= start {
                    old_departed += 1;
                } else {
                    new_present = new_present.saturating_sub(1);
                }
                maybe_close(
                    &mut epochs,
                    &mut start,
                    &mut start_size,
                    size,
                    &mut old_departed,
                    &mut new_present,
                    &mut joins,
                    &mut departs,
                    at,
                    num,
                    den,
                );
            }
        }
    }
    epochs
}

#[allow(clippy::too_many_arguments)]
fn maybe_close(
    epochs: &mut Vec<Epoch>,
    start: &mut Time,
    start_size: &mut u64,
    size: u64,
    old_departed: &mut u64,
    new_present: &mut u64,
    joins: &mut u64,
    departs: &mut u64,
    now: Time,
    num: u64,
    den: u64,
) {
    let symdiff = *old_departed + *new_present;
    // Epoch ends when symdiff *exceeds* threshold × start size.
    if (symdiff as u128) * (den as u128) > (*start_size as u128) * (num as u128) && now > *start {
        epochs.push(Epoch {
            start: *start,
            end: now,
            joins: *joins,
            departs: *departs,
            start_size: *start_size,
        });
        *start = now;
        *start_size = size;
        *old_departed = 0;
        *new_present = 0;
        *joins = 0;
        *departs = 0;
    }
}

/// The empirical α: the largest ratio between consecutive epochs' join rates.
///
/// Returns 1.0 when fewer than two epochs exist.
pub fn measure_alpha(epochs: &[Epoch]) -> f64 {
    let mut alpha = 1.0f64;
    for pair in epochs.windows(2) {
        let (a, b) = (pair[0].rho(), pair[1].rho());
        if a > 0.0 && b > 0.0 {
            alpha = alpha.max(b / a).max(a / b);
        }
    }
    alpha
}

/// Empirically estimates β by probing windows of several lengths inside each
/// epoch and finding the smallest β consistent with the observed join and
/// departure counts.
///
/// The estimate is a lower bound on the true β (only sampled windows are
/// checked) but converges quickly in practice.
pub fn estimate_beta(workload: &Workload, epochs: &[Epoch], horizon: Time) -> f64 {
    let events = event_stream(workload, horizon);
    let mut beta = 1.0f64;
    for ep in epochs {
        let rho = ep.rho();
        if rho <= 0.0 || ep.len() <= 0.0 {
            continue;
        }
        // Probe dyadic window lengths down from the epoch length.
        let mut window = ep.len();
        while window * rho >= 1.0 {
            for k in 0..4 {
                let w_start = ep.start.as_secs() + (ep.len() - window) * (k as f64 / 3.0).min(1.0);
                let w_end = w_start + window;
                let mut joins = 0u64;
                let mut departs = 0u64;
                for ev in &events {
                    let t = ev.at().as_secs();
                    if t <= w_start {
                        continue;
                    }
                    if t > w_end {
                        break;
                    }
                    match ev {
                        ChurnEvent::Join(_) => joins += 1,
                        ChurnEvent::Depart { .. } => departs += 1,
                    }
                }
                let expected = window * rho;
                // joins ≤ ⌈β·expected⌉  ⇒  β ≥ (joins − 1)/expected
                beta = beta.max((joins.saturating_sub(1)) as f64 / expected);
                beta = beta.max((departs.saturating_sub(1)) as f64 / expected);
                // joins ≥ ⌊expected/β⌋  ⇒  β ≥ expected/(joins + 1)
                beta = beta.max(expected / (joins + 1) as f64);
            }
            window /= 2.0;
        }
    }
    beta
}

/// Generates workloads with prescribed `(α, β)` smoothness.
///
/// Each epoch keeps the population size-stable (departures pace joins, the
/// Figure 2 illustration); the join rate steps by a factor drawn from
/// `[1/α, α]` at each epoch boundary; and events arrive in clumps of `≈ β`
/// (β = 1 means perfectly regular spacing).
#[derive(Clone, Copy, Debug)]
pub struct AbcTraceGenerator {
    /// Good population at t = 0 (stays ≈ constant).
    pub n0: u64,
    /// Join rate of the first epoch, IDs/second.
    pub rho0: f64,
    /// α-smoothness bound used for rate steps.
    pub alpha: f64,
    /// β-burstiness: events arrive in clumps of `⌈β⌉`.
    pub beta: f64,
    /// Number of epochs to generate.
    pub epochs: u32,
}

impl AbcTraceGenerator {
    /// Generates the workload.
    ///
    /// # Panics
    ///
    /// Panics if parameters are non-positive or `alpha, beta < 1`.
    pub fn generate(&self, seed: u64) -> Workload {
        assert!(self.n0 > 0 && self.rho0 > 0.0);
        assert!(self.alpha >= 1.0 && self.beta >= 1.0, "alpha and beta must be >= 1");
        assert!(self.epochs > 0);
        let mut rng = StdRng::seed_from_u64(seed);

        // Alive members: (joined_at, index into sessions or initial).
        #[derive(Clone, Copy)]
        enum Member {
            Initial(usize),
            Arrival(usize),
        }
        // Members never selected to depart keep the infinite sentinel until
        // the end, where it is replaced by a finite far-future time;
        // `Session::new` rejects non-finite times, so joins and departure
        // sentinels are tracked in parallel vectors and zipped into
        // sessions only after the replacement.
        let far = Time(f64::INFINITY);
        let mut initial_departures = vec![far; self.n0 as usize];
        let mut session_joins: Vec<Time> = Vec::new();
        let mut session_departs: Vec<Time> = Vec::new();
        let mut alive: Vec<(Time, Member)> =
            (0..self.n0 as usize).map(|i| (Time::ZERO, Member::Initial(i))).collect();

        let mut t = 0.0f64;
        let mut rho = self.rho0;
        let clump = self.beta.ceil().max(1.0) as u64;

        for _ in 0..self.epochs {
            let epoch_start = Time(t);
            let start_size = alive.len() as u64;
            // Symmetric difference of *good* sets vs epoch start.
            let mut old_departed = 0u64;
            let mut new_present = 0u64;
            // Events come in clump pairs: `clump` joins then `clump`
            // departures, every `clump/rho` seconds each.
            let step = clump as f64 / rho;
            loop {
                // Joins.
                t += step / 2.0;
                for _ in 0..clump {
                    let join = Time(t);
                    session_joins.push(join);
                    session_departs.push(far);
                    alive.push((join, Member::Arrival(session_joins.len() - 1)));
                    new_present += 1;
                }
                // Departures: uniform random members, matching the join count.
                t += step / 2.0;
                for _ in 0..clump {
                    if alive.is_empty() {
                        break;
                    }
                    let idx = rng.gen_range(0..alive.len());
                    let (joined_at, member) = alive.swap_remove(idx);
                    let depart = Time(t);
                    match member {
                        Member::Initial(i) => initial_departures[i] = depart,
                        Member::Arrival(i) => session_departs[i] = depart,
                    }
                    if joined_at <= epoch_start {
                        old_departed += 1;
                    } else {
                        new_present = new_present.saturating_sub(1);
                    }
                }
                if 2 * (old_departed + new_present) > start_size {
                    break;
                }
            }
            // Next epoch's rate: a log-uniform factor in [1/alpha, alpha].
            let log_f = rng.gen_range(-self.alpha.ln()..=self.alpha.ln());
            rho *= log_f.exp();
        }

        // Members never selected to depart leave far beyond any horizon.
        let horizon_guard = Time(t * 10.0 + 1e7);
        for d in &mut initial_departures {
            if d.as_secs().is_infinite() {
                *d = horizon_guard;
            }
        }
        let sessions: Vec<Session> = session_joins
            .into_iter()
            .zip(session_departs)
            .map(|(join, depart)| {
                Session::new(
                    join,
                    if depart.as_secs().is_infinite() { horizon_guard } else { depart },
                )
            })
            .collect();
        Workload::new(initial_departures, sessions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator() -> AbcTraceGenerator {
        AbcTraceGenerator { n0: 400, rho0: 2.0, alpha: 2.0, beta: 1.0, epochs: 6 }
    }

    #[test]
    fn generated_trace_is_valid() {
        let w = generator().generate(1);
        w.validate().unwrap();
        assert_eq!(w.initial_size(), 400);
        assert!(!w.sessions.is_empty());
    }

    #[test]
    fn epochs_are_detected() {
        let w = generator().generate(2);
        let horizon = Time(1e6);
        let epochs = detect_epochs(&w, horizon, (1, 2));
        // The generator stops mid-way through its final epoch's boundary
        // condition, so we see ≈ the configured number.
        assert!((epochs.len() as i64 - 6).unsigned_abs() <= 1, "found {} epochs", epochs.len());
        for ep in &epochs {
            assert!(ep.len() > 0.0);
            assert!(ep.joins > 0);
            // Size-stable: joins ≈ departs.
            let ratio = ep.joins as f64 / ep.departs.max(1) as f64;
            assert!((0.5..2.0).contains(&ratio), "joins/departs {ratio}");
        }
    }

    #[test]
    fn epoch_rho_tracks_generator_rate() {
        // With alpha = 1 the rate never changes; every epoch's rho ≈ rho0.
        let w = AbcTraceGenerator { alpha: 1.0, ..generator() }.generate(3);
        let epochs = detect_epochs(&w, Time(1e6), (1, 2));
        for ep in &epochs {
            assert!((ep.rho() - 2.0).abs() < 0.5, "epoch rho {} vs configured 2.0", ep.rho());
        }
    }

    #[test]
    fn measured_alpha_respects_configured_bound() {
        let w = generator().generate(4);
        let epochs = detect_epochs(&w, Time(1e6), (1, 2));
        let alpha = measure_alpha(&epochs);
        // Epoch boundaries detected at replay differ slightly from the
        // generator's internal boundaries, so allow slack.
        assert!(alpha <= 2.0 * 1.5, "measured alpha {alpha}");
        assert!(alpha >= 1.0);
    }

    #[test]
    fn beta_estimate_grows_with_clumping() {
        let smooth = AbcTraceGenerator { beta: 1.0, ..generator() }.generate(5);
        let bursty = AbcTraceGenerator { beta: 8.0, ..generator() }.generate(5);
        let h = Time(1e6);
        let b_smooth = estimate_beta(&smooth, &detect_epochs(&smooth, h, (1, 2)), h);
        let b_bursty = estimate_beta(&bursty, &detect_epochs(&bursty, h, (1, 2)), h);
        assert!(b_bursty > b_smooth, "bursty {b_bursty} should exceed smooth {b_smooth}");
        assert!(b_smooth < 4.0, "smooth trace measured beta {b_smooth}");
    }

    #[test]
    fn event_stream_is_sorted_and_complete() {
        let w = Workload::new(
            vec![Time(5.0), Time(15.0)],
            vec![Session::new(Time(1.0), Time(3.0)), Session::new(Time(2.0), Time(100.0))],
        );
        let evs = event_stream(&w, Time(50.0));
        assert_eq!(evs.len(), 5); // 2 joins + 2 initial departs + 1 session depart
        assert!(evs.windows(2).all(|p| p[0].at() <= p[1].at()));
        // The session departing at 100 is beyond the horizon.
        assert!(evs.iter().all(|e| e.at() <= Time(50.0)));
    }

    #[test]
    fn alpha_of_uniform_trace_is_one() {
        let epochs = vec![
            Epoch { start: Time(0.0), end: Time(10.0), joins: 20, departs: 20, start_size: 40 },
            Epoch { start: Time(10.0), end: Time(20.0), joins: 20, departs: 20, start_size: 40 },
        ];
        assert_eq!(measure_alpha(&epochs), 1.0);
        assert_eq!(measure_alpha(&epochs[..1]), 1.0);
    }

    #[test]
    fn exponential_rate_growth_across_epochs_is_allowed() {
        // α-smoothness permits ρ to double every epoch: verify the detector
        // simply reports it (rates 2, 4, 8, ...).
        let epochs = vec![
            Epoch { start: Time(0.0), end: Time(10.0), joins: 20, departs: 20, start_size: 40 },
            Epoch { start: Time(10.0), end: Time(15.0), joins: 20, departs: 20, start_size: 40 },
            Epoch { start: Time(15.0), end: Time(17.5), joins: 20, departs: 20, start_size: 40 },
        ];
        let alpha = measure_alpha(&epochs);
        assert!((alpha - 2.0).abs() < 1e-9);
    }
}
