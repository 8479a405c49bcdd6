//! The four network workloads from the paper's evaluation (Section 10).
//!
//! * **Bitcoin** — the paper replays a measured 7-day join/departure trace
//!   (Neudecker et al.), initialized with 9212 IDs. That trace is not
//!   redistributable, so this crate substitutes a synthetic model at the
//!   same scale: heavy-tailed Weibull sessions plus a diurnally modulated
//!   arrival rate. The substitution preserves what the experiments exercise
//!   — bursty, non-stationary churn at Bitcoin scale (see DESIGN.md §7).
//! * **BitTorrent** — Weibull sessions with shape 0.59 and scale 41.0
//!   (minutes), from Stutzbach & Rejaie's measurement study, exactly as the
//!   paper specifies.
//! * **Ethereum** — Weibull sessions with shape 0.52 and scale 9.8
//!   (minutes), from the Kim et al. measurement study, as the paper
//!   specifies.
//! * **Gnutella** — exponential sessions with mean 2.3 hours and Poisson
//!   arrivals at 1 ID/second, as the paper specifies.
//!
//! BitTorrent/Ethereum arrival rates are set so the population is stationary
//! at the paper's initial size of 10 000 (Little's law), matching how the
//! paper simulates those networks from their session-time distributions.

use crate::arrival::ArrivalProcess;
use crate::model::ChurnModel;
use crate::session::SessionModel;

/// Seconds per minute, for the minute-denominated Weibull scales.
const MIN: f64 = 60.0;

/// The paper's initial population for BitTorrent/Ethereum/Gnutella.
pub const DEFAULT_INITIAL: u64 = 10_000;

/// Bitcoin's initial population (paper Section 10.2: 9212 IDs).
pub const BITCOIN_INITIAL: u64 = 9212;

/// Synthetic Bitcoin-scale workload (measured-trace substitute).
pub fn bitcoin() -> ChurnModel {
    // Mean session ≈ 6 h (Weibull shape 0.6), diurnal arrivals balancing
    // the 9212-node population.
    let session = SessionModel::Weibull { shape: 0.6, scale: 14_360.0 };
    let mean = 21_600.0;
    ChurnModel {
        name: "bitcoin",
        initial_size: BITCOIN_INITIAL,
        arrival: ArrivalProcess::Diurnal {
            base: BITCOIN_INITIAL as f64 / mean,
            amplitude: 0.5,
            period: 86_400.0,
        },
        session,
    }
}

/// BitTorrent: Weibull(0.59, 41.0 min) sessions (Stutzbach & Rejaie).
pub fn bittorrent() -> ChurnModel {
    let session = SessionModel::Weibull { shape: 0.59, scale: 41.0 * MIN };
    ChurnModel {
        name: "bittorrent",
        initial_size: DEFAULT_INITIAL,
        arrival: ArrivalProcess::Poisson { rate: DEFAULT_INITIAL as f64 / session.mean() },
        session,
    }
}

/// Ethereum: Weibull(0.52, 9.8 min) sessions (Kim et al.).
pub fn ethereum() -> ChurnModel {
    let session = SessionModel::Weibull { shape: 0.52, scale: 9.8 * MIN };
    ChurnModel {
        name: "ethereum",
        initial_size: DEFAULT_INITIAL,
        arrival: ArrivalProcess::Poisson { rate: DEFAULT_INITIAL as f64 / session.mean() },
        session,
    }
}

/// Gnutella: exponential sessions (mean 2.3 h), Poisson arrivals at 1 ID/s.
pub fn gnutella() -> ChurnModel {
    ChurnModel {
        name: "gnutella",
        initial_size: DEFAULT_INITIAL,
        arrival: ArrivalProcess::Poisson { rate: 1.0 },
        session: SessionModel::Exponential { mean: 2.3 * 3600.0 },
    }
}

/// All four evaluation networks, in the paper's presentation order.
pub fn all_networks() -> Vec<ChurnModel> {
    vec![bitcoin(), bittorrent(), gnutella(), ethereum()]
}

/// A Gnutella-session-law network scaled to an arbitrary stationary
/// population (Little's law sets the arrival rate) — the model behind the
/// million-ID scale experiments (`macro_millions`, `figure8_millions`).
///
/// At `initial_size = 1_000_000` this is Tor-scale: the population the
/// SybilControl-style pricing and classifier literature actually targets.
pub fn millions(initial_size: u64) -> ChurnModel {
    const MEAN_SESSION: f64 = 2.3 * 3600.0;
    ChurnModel {
        name: "millions",
        initial_size,
        arrival: ArrivalProcess::Poisson { rate: initial_size as f64 / MEAN_SESSION },
        session: SessionModel::Exponential { mean: MEAN_SESSION },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sybil_sim::time::Time;

    #[test]
    fn four_networks_with_paper_sizes() {
        let nets = all_networks();
        assert_eq!(nets.len(), 4);
        assert_eq!(nets[0].initial_size, 9212);
        for n in &nets[1..] {
            assert_eq!(n.initial_size, 10_000);
        }
    }

    #[test]
    fn bittorrent_session_mean_is_about_an_hour() {
        // Weibull(0.59, 41 min): mean = 41·Γ(1+1/0.59) ≈ 63 min.
        let mean = bittorrent().session.mean();
        assert!(mean > 50.0 * 60.0 && mean < 80.0 * 60.0, "mean {} s", mean);
    }

    #[test]
    fn ethereum_churns_faster_than_bittorrent() {
        assert!(ethereum().session.mean() < bittorrent().session.mean());
        // Faster churn ⇒ higher steady arrival rate at equal population.
        assert!(ethereum().arrival.mean_rate() > bittorrent().arrival.mean_rate());
    }

    #[test]
    fn populations_are_stationary() {
        for n in [bittorrent(), ethereum(), gnutella()] {
            let ss = n.steady_state_size();
            assert!((ss - 10_000.0).abs() / 10_000.0 < 0.25, "{}: steady state {ss}", n.name);
        }
    }

    #[test]
    fn traces_generate_and_validate() {
        for n in all_networks() {
            let w = n.generate(Time(2000.0), 7);
            w.validate().unwrap();
            assert!(w.initial_size() >= 9212);
            assert!(!w.sessions.is_empty(), "{} produced no arrivals", n.name);
        }
    }

    #[test]
    fn millions_model_is_stationary_at_requested_scale() {
        let m = millions(1_000_000);
        assert_eq!(m.initial_size, 1_000_000);
        assert!((m.steady_state_size() - 1_000_000.0).abs() < 1.0);
        // Scales linearly: the arrival rate follows the population.
        assert!(
            (millions(10_000).arrival.mean_rate() * 100.0
                - millions(1_000_000).arrival.mean_rate())
            .abs()
                < 1e-9
        );
    }

    #[test]
    fn gnutella_arrival_rate_is_one_per_second() {
        let w = gnutella().generate(Time(10_000.0), 3);
        let rate = w.sessions.len() as f64 / 10_000.0;
        assert!((rate - 1.0).abs() < 0.05, "rate {rate}");
    }
}
