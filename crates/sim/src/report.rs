//! Simulation outputs.

use crate::cost::Ledger;
use crate::time::Time;

/// A point-in-time sample of system state, for timeline plots.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimelinePoint {
    /// Sample time.
    pub at: Time,
    /// Total membership.
    pub members: u64,
    /// Sybil members (ground truth).
    pub bad: u64,
    /// Cumulative good spending.
    pub good_spend: f64,
    /// Cumulative adversary spending.
    pub adv_spend: f64,
}

/// A join-rate estimate produced by the defense's estimator over an interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EstimateRecord {
    /// Interval start.
    pub start: Time,
    /// Interval end (when the estimate was set).
    pub end: Time,
    /// Estimated good join rate (IDs/second).
    pub estimate: f64,
}

/// Everything a simulation run produces.
///
/// `PartialEq` compares every field bit-for-bit (floats included): two
/// reports are equal only if the runs were observably identical, which is
/// what the streaming-equivalence tests assert.
#[derive(Clone, Debug, PartialEq)]
pub struct SimReport {
    /// Defense name.
    pub defense: String,
    /// Adversary strategy name.
    pub adversary: String,
    /// Simulated horizon in seconds.
    pub horizon: f64,
    /// Full cost ledger.
    pub ledger: Ledger,
    /// Good IDs admitted over the run.
    pub good_joins_admitted: u64,
    /// Good IDs refused entry (classifier false positives).
    pub good_joins_refused: u64,
    /// Good departures processed.
    pub good_departures: u64,
    /// Sybil IDs admitted over the run.
    pub bad_joins_admitted: u64,
    /// Sybil join attempts (including classifier-refused ones).
    pub bad_join_attempts: u64,
    /// Purges executed.
    pub purges: u64,
    /// Purges skipped by Heuristic 3.
    pub purges_skipped: u64,
    /// Maximum instantaneous fraction of Sybil members observed.
    pub max_bad_fraction: f64,
    /// Time-weighted mean fraction of Sybil members.
    pub mean_bad_fraction: f64,
    /// Membership size at the end of the run.
    pub final_members: u64,
    /// Sybil members at the end of the run.
    pub final_bad: u64,
    /// Events dispatched by the engine over the run (the denominator of
    /// engine-throughput measurements).
    pub events_processed: u64,
    /// Largest number of pending events the queue ever held. With streaming
    /// workload scheduling this is O(active sessions), not O(workload).
    pub peak_queue_len: usize,
    /// Times an adversary wakeup was cut off by the engine's bound on
    /// act/join/purge rounds per wakeup (100 000). Nonzero values mean
    /// adversary turns were truncated and spend totals may undercount
    /// what the strategy wanted to do.
    pub adversary_turn_truncations: u64,
    /// Times an instant-purge cascade was cut off by the engine's bound on
    /// back-to-back purge rounds at one event time (16).
    pub purge_cascade_truncations: u64,
    /// Act/join/purge rounds of adversary turns, the cycles in
    /// `purges_collapsed` included: the same count whichever way the
    /// cycles ran.
    pub adversary_rounds: u64,
    /// Purges the defense applied in closed form
    /// ([`Defense::repeat_purge_cycles`](crate::defense::Defense::repeat_purge_cycles));
    /// the rest of `purges` resolved one at a time. Where the time went,
    /// not a decision: every other field reads the same either way.
    pub purges_collapsed: u64,
    /// Events the engine's calendar queue served, out of
    /// `events_processed`; the rest are the workload feeds' joins and
    /// initial departures and the adversary's wakeups, which the run loop
    /// holds beside the queue. Where the time went, not a decision.
    pub queue_pops: u64,
    /// Resident bytes of the packed admission map at the end of the run
    /// (segments are only allocated for sessions actually touched).
    pub admission_bytes: usize,
    /// Resident bytes held by the workload stream (for a disk-backed
    /// workload this is two read buffers; for an in-memory workload it is
    /// the retained schedule vectors).
    pub workload_stream_bytes: usize,
    /// Estimator updates logged by the defense (empty when not applicable).
    /// Purges are counted (`purges`, `purges_skipped`), not logged.
    pub estimates: Vec<EstimateRecord>,
    /// Join times of admitted good IDs (populated when
    /// [`crate::engine::SimConfig::record_good_joins`] is set).
    pub good_join_times: Vec<Time>,
    /// Periodic timeline samples (populated when
    /// [`crate::engine::SimConfig::timeline_resolution`] is set).
    pub timeline: Vec<TimelinePoint>,
}

impl SimReport {
    /// Good spend rate `A`: total good resource burning per second.
    pub fn good_spend_rate(&self) -> f64 {
        self.ledger.good_total().value() / self.horizon
    }

    /// Adversary spend rate: total adversary resource burning per second.
    pub fn adv_spend_rate(&self) -> f64 {
        self.ledger.adversary_total().value() / self.horizon
    }
}
