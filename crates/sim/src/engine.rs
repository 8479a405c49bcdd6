//! The discrete-event simulation engine.
//!
//! Mirrors the paper's experimental setup (Section 10.1): a defense is fed a
//! good-ID churn [`Workload`] while an [`Adversary`] with spend rate `T`
//! schedules Sybil joins, departures, purge survival, and periodic-test
//! retention. The engine owns ground truth, the cost ledger, and the
//! bad-fraction invariant tracking.
//!
//! The engine is generic over its [`WorkloadSource`]: the same loop replays
//! a resident [`Workload`] or a disk-backed
//! [`crate::workload_io::DiskWorkload`], and resident state is
//! O(active sessions) either way — the event queue streams, admission and
//! spend state live in a [`ShardedDefenseState`] (2-bit packed admission
//! slices plus fixed-point ledgers, one slice per workload shard), and the
//! disk stream holds two read buffers.
//!
//! # Example
//!
//! ```
//! use sybil_sim::adversary::NullAdversary;
//! use sybil_sim::engine::{SimConfig, Simulation};
//! use sybil_sim::testutil::UnitCostDefense;
//! use sybil_sim::time::Time;
//! use sybil_sim::workload::{Session, Workload};
//!
//! let workload = Workload::new(
//!     vec![Time(50.0); 10],
//!     vec![Session::new(Time(1.0), Time(20.0))],
//! );
//! let cfg = SimConfig { horizon: Time(100.0), ..SimConfig::default() };
//! let report = Simulation::new(cfg, UnitCostDefense::new(), NullAdversary, workload).run();
//! assert_eq!(report.good_joins_admitted, 1);
//! assert_eq!(report.final_bad, 0);
//! ```

use crate::adversary::{Adversary, DefenseView};
use crate::cost::{Cost, Purpose};
use crate::defense::{BatchStop, Defense, DefenseEvent};
use crate::queue::EventQueue;
use crate::report::{EstimateRecord, SimReport, TimelinePoint};
use crate::shard_state::ShardedDefenseState;
use crate::time::Time;
use crate::workload::{SessionIndex, StreamEvent, Workload, WorkloadSource, WorkloadStream};

/// Engine configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// Simulated duration in seconds (paper: 10 000 s per data point).
    pub horizon: Time,
    /// Fraction of challenges the adversary can solve in one round; caps
    /// purge retention at `⌊κ·N⌋` (paper: κ = 1/18).
    pub kappa: f64,
    /// Adversary budget accrual rate `T` (resource units per second).
    pub adv_rate: f64,
    /// Sybil IDs present at initialization (used by the GoodJEst
    /// experiments to seed a persistent bad population).
    pub initial_bad: u64,
    /// Duration of a purge round; 0 resolves purges instantaneously, which
    /// is what the paper's simulations do.
    pub round_duration: f64,
    /// Record admitted good-ID join times in the report (needed to compute
    /// true per-interval join rates for the Figure 9 analysis).
    pub record_good_joins: bool,
    /// If `Some(dt)`, sample a [`TimelinePoint`] every `dt` seconds.
    pub timeline_resolution: Option<f64>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            horizon: Time(10_000.0),
            kappa: 1.0 / 18.0,
            adv_rate: 0.0,
            initial_bad: 0,
            round_duration: 0.0,
            record_good_joins: false,
            timeline_resolution: None,
        }
    }
}

/// Why a [`Simulation`] could not be constructed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimBuildError {
    /// The workload holds more sessions than [`SessionIndex`] can address
    /// (event payloads pack the session index into 32 bits).
    TooManySessions {
        /// Sessions in the offending workload.
        sessions: u64,
    },
}

impl std::fmt::Display for SimBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimBuildError::TooManySessions { sessions } => write!(
                f,
                "workload has {sessions} sessions; the engine addresses at most {} \
                 (SessionIndex is 32-bit)",
                SessionIndex::MAX
            ),
        }
    }
}

impl std::error::Error for SimBuildError {}

#[derive(Clone, Copy, Debug)]
enum Event {
    /// Good arrival: index into the workload's sessions.
    GoodJoin(SessionIndex),
    /// Departure of an arrival session, carrying its join time so the
    /// workload record never needs to be re-read (the stream may have
    /// come from disk).
    GoodDepart(SessionIndex, Time),
    /// Departure of an ID present at t=0.
    InitialDepart,
    /// Adversary wakeup.
    AdvWake,
    /// Periodic defense work is due.
    Periodic,
    /// A purge round resolves.
    PurgeResolve,
    /// Timeline sampling tick.
    Sample,
}

/// What the merged run loop picked at one merge step: the head of the
/// external workload feed or the head of the internal queue.
enum MergedEvent {
    Workload(StreamEvent),
    Internal(Event),
}

/// A single simulation run binding a defense, an adversary, and a workload.
///
/// The workload is *not* loaded into the event queue up front. The
/// [`WorkloadStream`] yields sessions in join order, so the scheduler
/// keeps exactly one pending good join in the queue and feeds the next one
/// in when it pops; a session's departure is queued only once its join has
/// been processed, and initial departures stream the same way. The queue
/// therefore holds O(active sessions) entries instead of O(workload).
///
/// Determinism: each streamed event carries the exact sequence number an
/// eager scheduler would have assigned (see [`WorkloadStream`]), so
/// tie-breaking — and with it every simulation counter — is bit-identical
/// to eager scheduling.
pub struct Simulation<D, A, W: WorkloadSource = Workload> {
    cfg: SimConfig,
    defense: D,
    adversary: A,
    stream: W::Stream,
    initial_size: u64,
    queue: EventQueue<Event>,
    /// Departure `(time, seq)` of the session whose join is currently
    /// queued, if that departure falls within the horizon.
    pending_depart: Option<(Time, u64)>,
    budget: f64,
    last_budget_time: Time,
    /// Sharded defense state: per-shard admission slices, live counts,
    /// and spend ledgers, reduced deterministically at epoch boundaries.
    /// The shard count follows the workload source, so a sharded workload
    /// keeps each session's state with the shard that decodes it.
    state: ShardedDefenseState,
    purge_pending: bool,
    // Invariant tracking.
    frac_integral: f64,
    last_frac: f64,
    last_frac_time: Time,
    max_bad_fraction: f64,
    // Counters (session-attributed counters live in `state`).
    bad_joins_admitted: u64,
    bad_join_attempts: u64,
    purges: u64,
    purges_skipped: u64,
    events_processed: u64,
    peak_queue_len: usize,
    adversary_turn_truncations: u64,
    purge_cascade_truncations: u64,
    good_join_times: Vec<Time>,
    timeline: Vec<TimelinePoint>,
    /// The engine's recycled defense-event buffer: handed to
    /// [`Defense::drain_events_into`] so draining never allocates per call
    /// (defenses swap their filled log for this one and keep it).
    events_scratch: Vec<DefenseEvent>,
    /// Completed-interval estimates, accumulated from per-purge drains of
    /// the defense event log (see [`absorb_defense_events`]).
    ///
    /// [`absorb_defense_events`]: Simulation::absorb_defense_events
    estimates: Vec<EstimateRecord>,
    /// Completed-purge times, accumulated the same way. Draining at every
    /// purge boundary keeps the *defense-side* log at one iteration's
    /// worth of records, so no init-time reserve has to guess the total
    /// purge count — under heavy attack small memberships complete a
    /// purge every few events, making the full-run log Ω(events).
    purge_times: Vec<Time>,
}

/// Preallocated capacity of the engine's purge-time log: above the purge
/// count of any benchmark scenario (the heaviest sweep cell completes
/// ~73k), so steady-state replay never grows it. Runs that exceed it
/// still record every purge — they just pay a (counted) reallocation.
const PURGE_LOG_PREALLOC: usize = 1 << 17;

/// Preallocated capacity of the engine's estimate log; estimator
/// intervals are far sparser than purges.
const ESTIMATE_LOG_PREALLOC: usize = 4096;

/// Upper bound on act/join/purge rounds within a single adversary wakeup:
/// it bounds a buggy or adversarially pathological strategy that keeps
/// triggering instant purges.
const MAX_ADVERSARY_TURN_ROUNDS: u32 = 100_000;

/// Upper bound on back-to-back instant purge rounds resolved at one event
/// time. A purge can (in principle) leave the purge condition true again;
/// this bound prevents live-lock.
const MAX_PURGE_CASCADE_ROUNDS: u32 = 16;

impl<D: Defense, A: Adversary, W: WorkloadSource> Simulation<D, A, W> {
    /// Creates a simulation; call [`run`](Self::run) to execute it.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration or a workload
    /// [`try_new`](Self::try_new) rejects.
    pub fn new(cfg: SimConfig, defense: D, adversary: A, workload: W) -> Self {
        Self::try_new(cfg, defense, adversary, workload).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a simulation, returning a structured error for workloads the
    /// engine cannot address instead of panicking.
    ///
    /// # Panics
    ///
    /// Still panics on invalid *configuration* (non-positive horizon, κ
    /// outside `[0, 1)`, non-finite adversary rate) — those are programmer
    /// errors, not data-dependent conditions.
    pub fn try_new(
        cfg: SimConfig,
        defense: D,
        adversary: A,
        workload: W,
    ) -> Result<Self, SimBuildError> {
        assert!(cfg.horizon > Time::ZERO, "horizon must be positive");
        assert!((0.0..1.0).contains(&cfg.kappa), "kappa must be in [0,1)");
        assert!(cfg.adv_rate >= 0.0 && cfg.adv_rate.is_finite());
        let n_sessions = workload.session_count();
        if n_sessions > SessionIndex::MAX as u64 {
            return Err(SimBuildError::TooManySessions { sessions: n_sessions });
        }
        let initial_size = workload.initial_size();
        let state_shards = workload.state_shards();
        let preallocate_admission = workload.preallocate_admission();
        let mut state = ShardedDefenseState::new(n_sessions, state_shards);
        if preallocate_admission {
            // Resident sources opt in: first-touch segment boxes would be
            // the last allocations left inside the steady-state loop. The
            // report's admission gauge counts touched segments only, so
            // this is invisible to fingerprints and memory numbers.
            state.preallocate_admission();
        }
        // Preallocate the recorded series to their final lengths so the
        // steady-state event loop never grows them. Capacity is invisible
        // to the report, so this cannot perturb fingerprints.
        let good_join_cap = if cfg.record_good_joins { n_sessions as usize } else { 0 };
        let timeline_cap = match cfg.timeline_resolution {
            Some(dt) if dt > 0.0 => (cfg.horizon.as_secs() / dt) as usize + 2,
            _ => 0,
        };
        Ok(Simulation {
            cfg,
            defense,
            adversary,
            // Streaming scheduling keeps the queue at O(active sessions);
            // bucket count scales with the workload for O(1) occupancy.
            queue: EventQueue::with_horizon(cfg.horizon, n_sessions as usize + 1024),
            stream: workload.into_stream(cfg.horizon),
            initial_size,
            pending_depart: None,
            budget: 0.0,
            last_budget_time: Time::ZERO,
            state,
            purge_pending: false,
            frac_integral: 0.0,
            last_frac: 0.0,
            last_frac_time: Time::ZERO,
            max_bad_fraction: 0.0,
            bad_joins_admitted: 0,
            bad_join_attempts: 0,
            purges: 0,
            purges_skipped: 0,
            events_processed: 0,
            peak_queue_len: 0,
            adversary_turn_truncations: 0,
            purge_cascade_truncations: 0,
            good_join_times: Vec::with_capacity(good_join_cap),
            timeline: Vec::with_capacity(timeline_cap),
            events_scratch: Vec::with_capacity(256),
            estimates: Vec::with_capacity(ESTIMATE_LOG_PREALLOC),
            purge_times: Vec::with_capacity(PURGE_LOG_PREALLOC),
        })
    }

    /// Runs the simulation to the horizon and returns the report.
    pub fn run(self) -> SimReport {
        self.run_with_defense().0
    }

    /// Runs the simulation, returning both the report and the final defense
    /// state (for inspecting defense-internal history such as committee
    /// evolution).
    pub fn run_with_defense(self) -> (SimReport, D) {
        self.run_spanned(|| {}, || {})
    }

    /// Runs the simulation with instrumentation hooks bracketing the
    /// steady-state event loop: `enter` fires after scheduling and
    /// initialization (immediately before the first event pops), `exit`
    /// fires after the last event (before report assembly). The span is
    /// exactly the region the allocation budget covers — setup and
    /// teardown allocations are excluded by construction. Behavior is
    /// identical to [`run_with_defense`](Self::run_with_defense).
    pub fn run_spanned(mut self, enter: impl FnOnce(), exit: impl FnOnce()) -> (SimReport, D) {
        if self.stream.merged() {
            return self.run_merged(enter, exit);
        }
        self.schedule_workload();
        self.initialize();
        enter();
        // Loop-local counters: `dispatch(&mut self)` would otherwise force
        // these through memory on every event.
        let mut events_processed = 0u64;
        let mut peak_queue_len = self.queue.len();
        while let Some((t, ev)) = self.queue.pop() {
            if t > self.cfg.horizon {
                break;
            }
            events_processed += 1;
            self.state.note_event();
            self.accrue_budget(t);
            self.dispatch(t, ev);
            self.check_purge(t);
            peak_queue_len = peak_queue_len.max(self.queue.len());
        }
        exit();
        self.events_processed = events_processed;
        self.peak_queue_len = peak_queue_len;
        self.finish()
    }

    /// The run loop for *merged* streams (sharded workloads): the stream
    /// yields fully ordered `(time, seq, event)` triples, and this loop
    /// k-way-merges them against the internal event queue by the global
    /// `(time, seq)` key — the exact total order the monolithic loop pops.
    ///
    /// Internal events (adversary wakeups, periodic charges, purge
    /// resolutions, samples) draw sequence numbers above the workload's
    /// reserved floor in the same order as the monolithic scheduler
    /// (workload pushes never bump the counter there), so every key — and
    /// with it every `SimReport` bit — matches the 1-shard run.
    fn run_merged(mut self, enter: impl FnOnce(), exit: impl FnOnce()) -> (SimReport, D) {
        self.queue.advance_seq_to(self.stream.seq_floor());
        self.schedule_internal();
        self.initialize();
        enter();
        let mut events_processed = 0u64;
        let mut peak_queue_len = self.queue.len();
        let mut next_workload = self.stream.next_event();
        loop {
            // Keys are globally unique, so strict `<` decides the merge.
            let workload_key = next_workload.as_ref().map(|&(t, s, _)| (t, s));
            let take_workload = match (workload_key, self.queue.peek_key()) {
                (Some(w), Some(q)) => w < q,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let (t, ev) = if take_workload {
                let (t, _, ev) = next_workload.take().expect("workload head exists");
                next_workload = self.stream.next_event();
                (t, MergedEvent::Workload(ev))
            } else {
                let (t, ev) = self.queue.pop().expect("queue head exists");
                (t, MergedEvent::Internal(ev))
            };
            // Streams only yield in-horizon events, so (as in the
            // monolithic loop) only an internal event can end the run.
            if t > self.cfg.horizon {
                break;
            }
            events_processed += 1;
            self.state.note_event();
            self.accrue_budget(t);
            match ev {
                MergedEvent::Workload(StreamEvent::Join(i)) => self.handle_good_join(t, i),
                MergedEvent::Workload(StreamEvent::Depart(i, joined_at)) => {
                    self.handle_good_depart(t, i, joined_at)
                }
                MergedEvent::Workload(StreamEvent::InitialDepart) => self.handle_initial_depart(t),
                MergedEvent::Internal(ev) => self.dispatch(t, ev),
            }
            self.check_purge(t);
            peak_queue_len = peak_queue_len.max(self.queue.len());
        }
        exit();
        self.events_processed = events_processed;
        self.peak_queue_len = peak_queue_len;
        self.finish()
    }

    /// Primes the streaming schedule: reserves the workload's sequence
    /// range, then queues just the *first* good join and the *first*
    /// initial departure; the rest stream in lazily as their predecessors
    /// pop. See [`WorkloadStream`] for the determinism argument.
    fn schedule_workload(&mut self) {
        self.queue.advance_seq_to(self.stream.seq_floor());
        self.stream_next_session();
        self.stream_next_initial_depart();
        self.schedule_internal();
    }

    /// Queues the initial internal events (adversary wakeup, first timeline
    /// sample). Push order matters: these draw the first sequence numbers
    /// above the workload floor, in both the monolithic and merged modes.
    fn schedule_internal(&mut self) {
        if self.cfg.adv_rate > 0.0 {
            self.queue.push(Time::ZERO, Event::AdvWake);
        }
        if let Some(dt) = self.cfg.timeline_resolution {
            assert!(dt > 0.0, "timeline resolution must be positive");
            self.queue.push(Time::ZERO, Event::Sample);
        }
    }

    /// Feeds the next good join into the queue, remembering its departure
    /// so [`Event::GoodJoin`] handling can stream it in turn.
    fn stream_next_session(&mut self) {
        if let Some((i, s, join_seq)) = self.stream.next_session() {
            self.pending_depart =
                (s.depart <= self.cfg.horizon).then_some((s.depart, join_seq + 1));
            self.queue.push_with_seq(s.join, join_seq, Event::GoodJoin(i));
        }
    }

    /// Feeds the next initial departure into the queue.
    fn stream_next_initial_depart(&mut self) {
        if let Some((at, seq)) = self.stream.next_initial_departure() {
            self.queue.push_with_seq(at, seq, Event::InitialDepart);
        }
    }

    fn initialize(&mut self) {
        let n_good = self.initial_size;
        let n_bad = self.cfg.initial_bad;
        let per_id = self.defense.init(Time::ZERO, n_good, n_bad);
        self.state.charge_root_good(Purpose::Entrance, per_id * n_good as f64);
        self.state.charge_root_adversary(Purpose::Entrance, per_id * n_bad as f64);
        if let Some(next) = self.defense.next_periodic() {
            self.queue.push(next, Event::Periodic);
        }
        self.note_membership_change(Time::ZERO);
    }

    fn view(&self, now: Time) -> DefenseView {
        // The quote is a windowed count inside the defense — by far the
        // most expensive view field — and most strategies never read it.
        let quote = if self.adversary.needs_quote() { self.defense.quote(now) } else { Cost::ZERO };
        DefenseView { now, n_members: self.defense.n_members(), n_bad: self.defense.n_bad(), quote }
    }

    fn accrue_budget(&mut self, now: Time) {
        let dt = now - self.last_budget_time;
        if dt > 0.0 {
            self.budget += self.cfg.adv_rate * dt;
            self.last_budget_time = now;
        }
    }

    /// Updates the bad-fraction integral and max after any membership change.
    fn note_membership_change(&mut self, now: Time) {
        let dt = now - self.last_frac_time;
        if dt > 0.0 {
            self.frac_integral += self.last_frac * dt;
            self.last_frac_time = now;
        }
        let members = self.defense.n_members();
        let frac = if members == 0 { 0.0 } else { self.defense.n_bad() as f64 / members as f64 };
        self.last_frac = frac;
        if frac > self.max_bad_fraction {
            self.max_bad_fraction = frac;
        }
    }

    /// Semantic effect of a good join: defense verdict, ledger charge,
    /// admission record, counters — all recorded on the session's owning
    /// state shard. Shared verbatim by the monolithic dispatch and the
    /// merged loop — bit-identity between the two modes rests on this
    /// being one code path.
    fn handle_good_join(&mut self, now: Time, i: SessionIndex) {
        let admission = self.defense.good_join(now);
        self.state.record_good_join(i as u64, admission.is_admitted(), admission.cost());
        if admission.is_admitted() && self.cfg.record_good_joins {
            self.good_join_times.push(now);
        }
        self.note_membership_change(now);
    }

    /// Semantic effect of an arrival session's departure: only admitted
    /// sessions count, and the admission verdict lives on the session's
    /// owning state shard.
    fn handle_good_depart(&mut self, now: Time, i: SessionIndex, joined_at: Time) {
        if self.state.record_good_depart(i as u64) {
            self.defense.good_depart(now, joined_at);
            self.note_membership_change(now);
        }
    }

    /// Semantic effect of a t=0 resident's departure (root-owned; initial
    /// residents are not arrival sessions).
    fn handle_initial_depart(&mut self, now: Time) {
        self.defense.good_depart(now, Time::ZERO);
        self.state.record_initial_depart();
        self.note_membership_change(now);
    }

    fn dispatch(&mut self, now: Time, ev: Event) {
        match ev {
            Event::GoodJoin(i) => {
                // Stream first: this session's departure (the pending one
                // is always ours — only one workload join is queued at a
                // time), then the next session's join. The departure event
                // carries `now` (= the session's join time) so departure
                // handling never re-reads the workload record.
                if let Some((at, seq)) = self.pending_depart.take() {
                    self.queue.push_with_seq(at, seq, Event::GoodDepart(i, now));
                }
                self.stream_next_session();
                self.handle_good_join(now, i);
            }
            Event::GoodDepart(i, joined_at) => self.handle_good_depart(now, i, joined_at),
            Event::InitialDepart => {
                self.stream_next_initial_depart();
                self.handle_initial_depart(now);
            }
            Event::AdvWake => {
                self.adversary_turn(now);
                if let Some(next) = self.adversary.next_wakeup(now) {
                    if next <= self.cfg.horizon {
                        self.queue.push(next, Event::AdvWake);
                    }
                }
            }
            Event::Periodic => {
                self.periodic_charge(now);
                if let Some(next) = self.defense.next_periodic() {
                    if next <= self.cfg.horizon {
                        self.queue.push(next, Event::Periodic);
                    }
                }
            }
            Event::PurgeResolve => {
                self.purge_pending = false;
                self.resolve_purge(now);
            }
            Event::Sample => {
                self.timeline.push(TimelinePoint {
                    at: now,
                    members: self.defense.n_members(),
                    bad: self.defense.n_bad(),
                    good_spend: self.state.good_total().value(),
                    adv_spend: self.state.adversary_total().value(),
                });
                let dt = self.cfg.timeline_resolution.expect("samples are scheduled by it");
                let next = now + dt;
                if next <= self.cfg.horizon {
                    self.queue.push(next, Event::Sample);
                }
            }
        }
    }

    /// Lets the adversary spend: departures, then batched joins, resolving
    /// any purge its own joins trigger (instant rounds) before continuing.
    ///
    /// Each act/join/purge round either makes progress or ends the turn, so
    /// well-behaved adversaries never get near [`MAX_ADVERSARY_TURN_ROUNDS`];
    /// hitting it is counted in [`SimReport::adversary_turn_truncations`]
    /// rather than silently swallowed.
    fn adversary_turn(&mut self, now: Time) {
        // Bounded loop: each pass either makes progress (joins/departs) or
        // breaks, and purge resolution resets the defense's join counter.
        let mut rounds_left = MAX_ADVERSARY_TURN_ROUNDS;
        loop {
            if rounds_left == 0 {
                self.adversary_turn_truncations += 1;
                break;
            }
            rounds_left -= 1;
            let view = self.view(now);
            let action = self.adversary.act(&view, Cost(self.budget.max(0.0)));
            let mut progressed = false;
            if action.departs > 0 {
                let departed = self.defense.bad_depart(now, action.departs);
                progressed |= departed > 0;
                self.note_membership_change(now);
            }
            if action.max_joins > 0 && action.join_budget > Cost::ZERO {
                let batch = self.defense.bad_join_batch(now, action.join_budget, action.max_joins);
                self.budget -= batch.spent.value();
                self.state.charge_root_adversary(Purpose::Entrance, batch.spent);
                self.bad_joins_admitted += batch.admitted;
                self.bad_join_attempts += batch.attempts;
                progressed |= batch.attempts > 0;
                self.note_membership_change(now);
                if batch.stop == BatchStop::PurgeTriggered {
                    if self.cfg.round_duration == 0.0 {
                        self.resolve_purge(now);
                        continue;
                    } else {
                        if !self.purge_pending {
                            self.purge_pending = true;
                            self.queue.push(now + self.cfg.round_duration, Event::PurgeResolve);
                        }
                        break;
                    }
                }
            }
            if !progressed {
                break;
            }
            // Joins succeeded without tripping a purge: the batch consumed
            // everything affordable, so yield until the next wakeup.
            break;
        }
    }

    /// Schedules or resolves a purge if the defense's condition holds (at
    /// most [`MAX_PURGE_CASCADE_ROUNDS`] back to back; running out is
    /// counted in [`SimReport::purge_cascade_truncations`]).
    fn check_purge(&mut self, now: Time) {
        if self.purge_pending {
            return;
        }
        // Loop defensively: a purge can (in principle) leave the condition
        // true again; bail out after a bounded number of rounds to avoid
        // live-lock, counting the truncation in the report.
        for _ in 0..MAX_PURGE_CASCADE_ROUNDS {
            if !self.defense.purge_due(now) {
                return;
            }
            if self.cfg.round_duration == 0.0 {
                self.resolve_purge(now);
            } else {
                self.purge_pending = true;
                self.queue.push(now + self.cfg.round_duration, Event::PurgeResolve);
                return;
            }
        }
        if self.defense.purge_due(now) {
            self.purge_cascade_truncations += 1;
        }
    }

    fn resolve_purge(&mut self, now: Time) {
        let view = self.view(now);
        let cap = (self.cfg.kappa * view.n_members as f64) as u64;
        let retain = self
            .adversary
            .purge_retention(&view, cap, Cost(self.budget.max(0.0)))
            .min(cap)
            .min(view.n_bad);
        let report = self.defense.purge(now, retain);
        self.state.apply_purge(&report);
        self.budget -= report.adv_cost.value();
        if report.skipped {
            self.purges_skipped += 1;
        } else {
            self.purges += 1;
        }
        self.absorb_defense_events();
        self.note_membership_change(now);
    }

    /// Drains the defense's event log into the engine's accumulators.
    ///
    /// Called after every purge resolution and once more at finish. The
    /// drain ping-pongs the recycled `events_scratch` buffer with the
    /// defense's log, and the accumulators are preallocated, so in steady
    /// state this whole path allocates nothing. Event order within each
    /// category is chronological at every drain, so the resulting vectors
    /// are byte-identical to a single drain at finish.
    fn absorb_defense_events(&mut self) {
        self.events_scratch.clear();
        self.defense.drain_events_into(&mut self.events_scratch);
        for &ev in &self.events_scratch {
            match ev {
                DefenseEvent::EstimateUpdated { start, end, estimate } => {
                    self.estimates.push(EstimateRecord { start, end, estimate });
                }
                DefenseEvent::PurgeCompleted { at, .. } => self.purge_times.push(at),
                DefenseEvent::PurgeSkipped { .. } => {}
            }
        }
    }

    fn periodic_charge(&mut self, now: Time) {
        let cost_per = self.defense.periodic_cost_per_member(now);
        let view = self.view(now);
        let retain = self
            .adversary
            .periodic_retention(&view, cost_per, Cost(self.budget.max(0.0)))
            .min(view.n_bad);
        let report = self.defense.periodic_apply(now, retain);
        let adv_cost = cost_per * retain as f64;
        self.state.apply_periodic(&report, adv_cost);
        self.budget -= adv_cost.value();
        self.note_membership_change(now);
    }

    fn finish(mut self) -> (SimReport, D) {
        // Collect any defense events logged since the last purge.
        self.absorb_defense_events();
        // Close the bad-fraction integral at the horizon.
        let dt = self.cfg.horizon - self.last_frac_time;
        if dt > 0.0 {
            self.frac_integral += self.last_frac * dt;
        }
        // The final epoch reduction: fold every shard's remaining delta
        // and seal the fixed-point ledgers into the report's float form.
        let sealed = self.state.finalize();
        let report = SimReport {
            defense: self.defense.name(),
            adversary: self.adversary.name(),
            horizon: self.cfg.horizon.as_secs(),
            ledger: sealed.ledger,
            good_joins_admitted: sealed.good_joins_admitted,
            good_joins_refused: sealed.good_joins_refused,
            good_departures: sealed.good_departures,
            bad_joins_admitted: self.bad_joins_admitted,
            bad_join_attempts: self.bad_join_attempts,
            purges: self.purges,
            purges_skipped: self.purges_skipped,
            max_bad_fraction: self.max_bad_fraction,
            mean_bad_fraction: self.frac_integral / self.cfg.horizon.as_secs(),
            final_members: self.defense.n_members(),
            final_bad: self.defense.n_bad(),
            events_processed: self.events_processed,
            peak_queue_len: self.peak_queue_len,
            adversary_turn_truncations: self.adversary_turn_truncations,
            purge_cascade_truncations: self.purge_cascade_truncations,
            admission_bytes: sealed.admission_bytes,
            workload_stream_bytes: self.stream.resident_bytes(),
            estimates: self.estimates,
            purge_times: self.purge_times,
            good_join_times: self.good_join_times,
            timeline: self.timeline,
        };
        (report, self.defense)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{BudgetJoiner, NullAdversary};
    use crate::testutil::UnitCostDefense;
    use crate::workload::{MemoryStream, Session};

    fn small_workload() -> Workload {
        Workload::new(
            vec![Time(1e9); 100],
            (0..50).map(|i| Session::new(Time(i as f64 + 1.0), Time(i as f64 + 500.0))).collect(),
        )
    }

    #[test]
    fn no_attack_run_admits_all_good() {
        let cfg = SimConfig { horizon: Time(1000.0), ..SimConfig::default() };
        let report =
            Simulation::new(cfg, UnitCostDefense::new(), NullAdversary, small_workload()).run();
        assert_eq!(report.good_joins_admitted, 50);
        assert_eq!(report.bad_joins_admitted, 0);
        assert_eq!(report.max_bad_fraction, 0.0);
        // init (100) + joins (50) each cost 1.
        assert_eq!(report.ledger.good_total().value(), 150.0);
    }

    #[test]
    fn departures_are_processed() {
        let w = Workload::new(vec![Time(10.0); 5], vec![Session::new(Time(1.0), Time(2.0))]);
        let cfg = SimConfig { horizon: Time(100.0), ..SimConfig::default() };
        let report = Simulation::new(cfg, UnitCostDefense::new(), NullAdversary, w).run();
        assert_eq!(report.good_departures, 6);
        assert_eq!(report.final_members, 0);
    }

    #[test]
    fn adversary_budget_limits_joins() {
        // Unit cost, T=1: over 100 s the adversary can afford ~100 joins.
        let cfg = SimConfig { horizon: Time(100.0), adv_rate: 1.0, ..SimConfig::default() };
        let report =
            Simulation::new(cfg, UnitCostDefense::new(), BudgetJoiner::new(1.0), small_workload())
                .run();
        assert!(report.bad_joins_admitted > 50, "{}", report.bad_joins_admitted);
        assert!(report.bad_joins_admitted <= 101, "{}", report.bad_joins_admitted);
        let spent = report.ledger.adversary_total().value();
        assert!(spent <= 100.0 + 1e-9, "overspent: {spent}");
    }

    #[test]
    fn bad_fraction_tracked() {
        let cfg = SimConfig { horizon: Time(100.0), adv_rate: 5.0, ..SimConfig::default() };
        let report =
            Simulation::new(cfg, UnitCostDefense::new(), BudgetJoiner::new(5.0), small_workload())
                .run();
        assert!(report.max_bad_fraction > 0.0);
        assert!(report.mean_bad_fraction > 0.0);
        assert!(report.max_bad_fraction <= 1.0);
        assert!(report.mean_bad_fraction <= report.max_bad_fraction);
    }

    #[test]
    fn timeline_sampling() {
        let cfg = SimConfig {
            horizon: Time(10.0),
            timeline_resolution: Some(1.0),
            ..SimConfig::default()
        };
        let report =
            Simulation::new(cfg, UnitCostDefense::new(), NullAdversary, small_workload()).run();
        assert_eq!(report.timeline.len(), 11); // t = 0..=10
        assert!(report.timeline.windows(2).all(|w| w[0].at < w[1].at));
    }

    #[test]
    fn initial_bad_is_seeded() {
        let cfg = SimConfig { horizon: Time(10.0), initial_bad: 20, ..SimConfig::default() };
        let report =
            Simulation::new(cfg, UnitCostDefense::new(), NullAdversary, small_workload()).run();
        assert_eq!(report.final_bad, 20);
        assert!(report.max_bad_fraction > 0.1);
    }

    #[test]
    fn record_good_joins_flag() {
        let cfg =
            SimConfig { horizon: Time(1000.0), record_good_joins: true, ..SimConfig::default() };
        let report =
            Simulation::new(cfg, UnitCostDefense::new(), NullAdversary, small_workload()).run();
        assert_eq!(report.good_join_times.len(), 50);
        assert!(report.good_join_times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn admission_memory_is_reported() {
        let cfg = SimConfig { horizon: Time(1000.0), ..SimConfig::default() };
        let report =
            Simulation::new(cfg, UnitCostDefense::new(), NullAdversary, small_workload()).run();
        // One touched segment (2 KiB) plus the directory entry.
        assert!(report.admission_bytes > 0);
        assert!(report.admission_bytes < 4096, "{}", report.admission_bytes);
        assert!(report.workload_stream_bytes > 0);
    }

    /// A stub source that claims more sessions than `SessionIndex` holds;
    /// `try_new` must reject it before any streaming happens.
    struct OverflowingSource;
    impl WorkloadSource for OverflowingSource {
        type Stream = MemoryStream;
        fn initial_size(&self) -> u64 {
            0
        }
        fn session_count(&self) -> u64 {
            SessionIndex::MAX as u64 + 1
        }
        fn into_stream(self, _horizon: Time) -> MemoryStream {
            unreachable!("rejected before streaming")
        }
    }

    #[test]
    fn session_count_boundary_is_a_structured_error() {
        let cfg = SimConfig { horizon: Time(10.0), ..SimConfig::default() };
        let err =
            Simulation::try_new(cfg, UnitCostDefense::new(), NullAdversary, OverflowingSource)
                .err()
                .expect("must reject > SessionIndex::MAX sessions");
        assert_eq!(err, SimBuildError::TooManySessions { sessions: SessionIndex::MAX as u64 + 1 });
        assert!(err.to_string().contains("32-bit"));
    }
}
