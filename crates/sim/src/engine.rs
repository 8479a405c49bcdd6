//! The discrete-event simulation engine.
//!
//! Mirrors the paper's experimental setup (Section 10.1): a defense is fed a
//! good-ID churn [`Workload`] while an [`Adversary`] with spend rate `T`
//! schedules Sybil joins, departures, purge survival, and periodic-test
//! retention. The engine owns ground truth, the cost ledger, and the
//! bad-fraction invariant tracking.
//!
//! The engine is generic over its [`WorkloadSource`]: one loop, over one
//! `(time, seq)` event order, replays a resident [`Workload`] or a
//! disk-backed [`crate::workload_io::DiskWorkload`], and resident state is
//! O(active sessions) either way — the event queue streams, admission and
//! spend state live in a [`RunState`] (a 2-bit packed admission map plus a
//! fixed-point ledger), and the disk stream holds two read buffers.
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
use crate::defense::{BatchStop, Defense, DefenseEvent, PurgeCycles};
use crate::queue::EventQueue;
use crate::report::{EstimateRecord, SimReport, TimelinePoint};
use crate::state::RunState;
use crate::time::Time;
use crate::workload::{SessionIndex, Workload, WorkloadSource, WorkloadStream};

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

/// A queued event. Joins, initial departures and adversary wakeups are
/// not among them: the run loop holds the next of each beside the queue.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// Departure of an arrival session, carrying its join time so the
    /// workload record never needs to be re-read (the stream may have
    /// come from disk).
    GoodDepart(SessionIndex, Time),
    /// Periodic defense work is due.
    Periodic,
    /// A purge round resolves.
    PurgeResolve,
    /// Timeline sampling tick.
    Sample,
}

/// Which of the events held beside the queue comes next.
#[derive(Clone, Copy)]
enum Held {
    Join,
    Initial,
    Wake,
}

/// A single simulation run binding a defense, an adversary, and a workload.
///
/// The workload is *not* loaded into the event queue up front. The
/// [`WorkloadStream`] yields sessions in join order and initial
/// departures in time order, so the run loop holds the next of each (the
/// two *heads*) beside the queue. The adversary has at most one wakeup
/// pending, so the loop holds that beside the queue too, in a one-entry
/// *slot*. At every step it processes whichever of the heads, the slot
/// and the queue front has the least `(time, seq)` key. A session's
/// departure is queued only once its join has been processed; departures,
/// periodic charges, purge resolutions and samples are the queue's
/// traffic. The queue therefore holds O(active sessions) entries instead
/// of O(workload), and the reported `peak_queue_len` counts the heads and
/// the slot when they are occupied, as if they were queued.
///
/// Determinism: each streamed event carries a sequence number that orders
/// it against every other event exactly as an eager scheduler's would
/// (see [`WorkloadStream`]), and a wakeup draws its sequence number from
/// the queue's counter (`EventQueue::take_seq`) at the point where it
/// would have been pushed, so tie-breaking — and with it every simulation
/// counter — is bit-identical to eager scheduling. Every run,
/// from memory or from disk, goes through this one loop
/// ([`run_spanned`](Self::run_spanned)) on one thread.
pub struct Simulation<D, A, W: WorkloadSource = Workload> {
    cfg: SimConfig,
    defense: D,
    adversary: A,
    stream: W::Stream,
    initial_size: u64,
    queue: EventQueue<Event>,
    budget: f64,
    last_budget_time: Time,
    /// Admission verdicts, good-ID tallies and the spend ledger.
    state: RunState,
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
    adversary_rounds: u64,
    purges_collapsed: u64,
    queue_pops: u64,
    good_join_times: Vec<Time>,
    timeline: Vec<TimelinePoint>,
    /// The engine's recycled defense-event buffer: handed to
    /// [`Defense::drain_events_into`] so draining never allocates per call
    /// (defenses append to it).
    events_scratch: Vec<DefenseEvent>,
    /// Completed-interval estimates, accumulated from per-purge drains of
    /// the defense event log (see [`absorb_defense_events`]).
    ///
    /// [`absorb_defense_events`]: Simulation::absorb_defense_events
    estimates: Vec<EstimateRecord>,
}

/// Preallocated capacity of the engine's estimate log; estimator
/// intervals are far sparser than purges.
const ESTIMATE_LOG_PREALLOC: usize = 4096;

/// Upper bound on act/join/purge rounds within a single adversary wakeup:
/// it bounds a buggy or adversarially pathological strategy that keeps
/// triggering instant purges.
const MAX_ADVERSARY_TURN_ROUNDS: u64 = 100_000;

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
        let mut state = RunState::new(n_sessions);
        if workload.preallocate_admission() {
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
            adversary_rounds: 0,
            purges_collapsed: 0,
            queue_pops: 0,
            good_join_times: Vec::with_capacity(good_join_cap),
            timeline: Vec::with_capacity(timeline_cap),
            events_scratch: Vec::with_capacity(256),
            estimates: Vec::with_capacity(ESTIMATE_LOG_PREALLOC),
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
        self.queue.advance_seq_to(self.stream.seq_floor());
        let mut wake = self.schedule_internal();
        self.initialize();
        // The two sorted feeds' heads. Streams yield only in-horizon
        // events and the slot only in-horizon wakeups, so only a queued
        // event can end the run.
        let mut join = self.stream.next_session();
        let mut initial = self.stream.next_initial_departure();
        enter();
        // Loop-local counters: `dispatch(&mut self)` would otherwise force
        // these through memory on every event.
        let mut events_processed = 0u64;
        let mut queue_pops = 0u64;
        let held = |join: &Option<_>, initial: &Option<_>, wake: &Option<_>| {
            usize::from(join.is_some())
                + usize::from(initial.is_some())
                + usize::from(wake.is_some())
        };
        let mut peak_queue_len = self.queue.len() + held(&join, &initial, &wake);
        loop {
            // The least key held beside the queue, and whose it is.
            let mut next_held = join.map(|(_, s, seq)| ((s.join, seq), Held::Join));
            for (key, which) in [(initial, Held::Initial), (wake, Held::Wake)] {
                if let Some(key) = key {
                    if next_held.is_none_or(|(least, _)| key < least) {
                        next_held = Some((key, which));
                    }
                }
            }
            let queued = match next_held {
                Some((key, _)) => self.queue.pop_before(key),
                None => self.queue.pop(),
            };
            let Some(t) = queued.map(|(t, _)| t).or(next_held.map(|((t, _), _)| t)) else {
                break;
            };
            if t > self.cfg.horizon {
                break;
            }
            events_processed += 1;
            self.accrue_budget(t);
            match (queued, next_held) {
                (Some((_, ev)), _) => {
                    queue_pops += 1;
                    self.dispatch(t, ev);
                }
                (None, Some((_, Held::Join))) => {
                    let (i, s, seq) = join.expect("the join head is the least key");
                    // The departure carries the join time, so departure
                    // handling never re-reads the workload record.
                    if s.depart <= self.cfg.horizon {
                        self.queue.push_with_seq(s.depart, seq + 1, Event::GoodDepart(i, s.join));
                    }
                    join = self.stream.next_session();
                    self.handle_good_join(t, i);
                }
                (None, Some((_, Held::Initial))) => {
                    initial = self.stream.next_initial_departure();
                    self.handle_initial_depart(t);
                }
                (None, Some((_, Held::Wake))) => wake = self.adversary_wake(t),
                (None, None) => unreachable!("an empty queue and no held event end the run"),
            }
            self.check_purge(t);
            peak_queue_len = peak_queue_len.max(self.queue.len() + held(&join, &initial, &wake));
        }
        exit();
        self.events_processed = events_processed;
        self.queue_pops = queue_pops;
        self.peak_queue_len = peak_queue_len;
        self.finish()
    }

    /// Queues the first timeline sample and returns the adversary's first
    /// wakeup for the slot. Order matters: the two draw the first sequence
    /// numbers above the workload floor, the wakeup first.
    fn schedule_internal(&mut self) -> Option<(Time, u64)> {
        let wake = (self.cfg.adv_rate > 0.0).then(|| (Time::ZERO, self.queue.take_seq()));
        if let Some(dt) = self.cfg.timeline_resolution {
            assert!(dt > 0.0, "timeline resolution must be positive");
            self.queue.push(Time::ZERO, Event::Sample);
        }
        wake
    }

    fn initialize(&mut self) {
        let n_good = self.initial_size;
        let n_bad = self.cfg.initial_bad;
        let per_id = self.defense.init(Time::ZERO, n_good, n_bad);
        self.state.charge_good(Purpose::Entrance, per_id * n_good as f64);
        self.state.charge_adversary(Purpose::Entrance, per_id * n_bad as f64);
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
        // With no Sybil ID the quotient is +0.0 (or the empty system's
        // 0.0): the divide is skipped, not the value.
        let bad = self.defense.n_bad();
        let members = self.defense.n_members();
        let frac = if bad == 0 || members == 0 { 0.0 } else { bad as f64 / members as f64 };
        self.last_frac = frac;
        if frac > self.max_bad_fraction {
            self.max_bad_fraction = frac;
        }
    }

    /// Semantic effect of a good join: defense verdict, ledger charge,
    /// admission record, counters.
    fn handle_good_join(&mut self, now: Time, i: SessionIndex) {
        let admission = self.defense.good_join(now);
        self.state.record_good_join(i as u64, admission.is_admitted(), admission.cost());
        if admission.is_admitted() && self.cfg.record_good_joins {
            self.good_join_times.push(now);
        }
        self.note_membership_change(now);
    }

    /// Semantic effect of an arrival session's departure: only admitted
    /// sessions count.
    fn handle_good_depart(&mut self, now: Time, i: SessionIndex, joined_at: Time) {
        if self.state.record_good_depart(i as u64) {
            self.defense.good_depart(now, joined_at);
            self.note_membership_change(now);
        }
    }

    /// Semantic effect of a t=0 resident's departure (initial residents
    /// are not arrival sessions).
    fn handle_initial_depart(&mut self, now: Time) {
        self.defense.good_depart(now, Time::ZERO);
        self.state.record_initial_depart();
        self.note_membership_change(now);
    }

    fn dispatch(&mut self, now: Time, ev: Event) {
        match ev {
            Event::GoodDepart(i, joined_at) => self.handle_good_depart(now, i, joined_at),
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

    /// An adversary wakeup: its turn, then the next wakeup's key for the
    /// slot, if it is within the horizon. The key's sequence number is
    /// drawn where a push of the wakeup would draw it: after any purge
    /// round the turn queued and before the loop's `check_purge` can queue
    /// one, so the slot orders against queued events exactly as a queued
    /// wakeup would.
    fn adversary_wake(&mut self, now: Time) -> Option<(Time, u64)> {
        self.adversary_turn(now);
        let next = self.adversary.next_wakeup(now).filter(|&next| next <= self.cfg.horizon)?;
        Some((next, self.queue.take_seq()))
    }

    /// Lets the adversary spend: departures, then batched joins, resolving
    /// any purge its own joins trigger (instant rounds) before continuing.
    ///
    /// A round goes on to the next only through such a purge. A strategy
    /// [`Adversary::stationary_within_instant`] repeats the same round from
    /// there, so the defense may apply the repeats in one call
    /// ([`repeat_purge_cycles`](Self::repeat_purge_cycles)); they count as
    /// rounds all the same. Well-behaved adversaries never get near
    /// [`MAX_ADVERSARY_TURN_ROUNDS`]; a turn that would run past it is cut
    /// and counted in [`SimReport::adversary_turn_truncations`] rather than
    /// silently swallowed.
    fn adversary_turn(&mut self, now: Time) {
        let mut rounds = 0;
        let mut purged = true;
        while purged && rounds < MAX_ADVERSARY_TURN_ROUNDS {
            purged = self.adversary_round(now);
            rounds += 1;
            if purged && self.adversary.stationary_within_instant() {
                rounds += self.repeat_purge_cycles(now, MAX_ADVERSARY_TURN_ROUNDS - rounds);
            }
        }
        if purged {
            self.adversary_turn_truncations += 1;
        }
        self.adversary_rounds += rounds;
    }

    /// One act/join round of an adversary turn. Returns true if its batch
    /// triggered a purge that resolved at once.
    fn adversary_round(&mut self, now: Time) -> bool {
        let view = self.view(now);
        let action = self.adversary.act(&view, Cost(self.budget.max(0.0)));
        if action.departs > 0 {
            self.defense.bad_depart(now, action.departs);
            self.note_membership_change(now);
        }
        if action.max_joins == 0 || action.join_budget <= Cost::ZERO {
            return false;
        }
        let batch = self.defense.bad_join_batch(now, action.join_budget, action.max_joins);
        self.budget -= batch.spent.value();
        self.state.charge_adversary(Purpose::Entrance, batch.spent);
        self.bad_joins_admitted += batch.admitted;
        self.bad_join_attempts += batch.attempts;
        self.note_membership_change(now);
        if batch.stop != BatchStop::PurgeTriggered {
            return false;
        }
        if self.cfg.round_duration != 0.0 {
            if !self.purge_pending {
                self.purge_pending = true;
                self.queue.push(now + self.cfg.round_duration, Event::PurgeResolve);
            }
            return false;
        }
        self.resolve_purge(now);
        true
    }

    /// Right after an instant purge in a stationary adversary's turn: lets
    /// the defense apply the identical cycles that follow, up to
    /// `max_cycles`, and books them as that many rounds would. Returns how
    /// many it applied.
    fn repeat_purge_cycles(&mut self, now: Time, max_cycles: u64) -> u64 {
        let budget = Cost(self.budget.max(0.0));
        let Some(cycles) = self.defense.repeat_purge_cycles(now, budget, max_cycles) else {
            return 0;
        };
        let PurgeCycles { cycles: k, budget_left, batch, purge } = cycles;
        // The defense applies a cycle only if `budget` paid for its batch,
        // so the budget was positive and the clamp above left it as it is.
        self.budget = budget_left.value();
        self.state.apply_purge_cycles(&cycles);
        self.bad_joins_admitted += k * batch.admitted;
        self.bad_join_attempts += k * batch.attempts;
        debug_assert!(!purge.skipped, "a repeated purge cycle purges");
        self.purges += k;
        self.purges_collapsed += k;
        // Each cycle's peak: its batch on top of the membership its purge
        // restores. The fraction after the purge is the one already noted.
        let bad = self.defense.n_bad() + batch.admitted;
        let peak = bad as f64 / (self.defense.n_members() + batch.admitted) as f64;
        if peak > self.max_bad_fraction {
            self.max_bad_fraction = peak;
        }
        self.absorb_defense_events();
        k
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
    /// Called after every purge resolution and once more at finish, so the
    /// defense-side log holds at most one iteration's intervals. The drain
    /// appends to the recycled `events_scratch` buffer and the accumulator
    /// is preallocated, so in steady state this whole path allocates
    /// nothing. Events are chronological at every drain, so the result is
    /// byte-identical to a single drain at finish.
    fn absorb_defense_events(&mut self) {
        self.events_scratch.clear();
        self.defense.drain_events_into(&mut self.events_scratch);
        for &DefenseEvent::EstimateUpdated { start, end, estimate } in &self.events_scratch {
            self.estimates.push(EstimateRecord { start, end, estimate });
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
        // Seal the fixed-point ledger into the report's float form.
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
            adversary_rounds: self.adversary_rounds,
            purges_collapsed: self.purges_collapsed,
            queue_pops: self.queue_pops,
            admission_bytes: sealed.admission_bytes,
            workload_stream_bytes: self.stream.resident_bytes(),
            estimates: self.estimates,
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

    /// Session joins come from the feed, their departures from the queue.
    #[test]
    fn queue_pops_count_the_calendar_only() {
        let cfg = SimConfig { horizon: Time(1000.0), ..SimConfig::default() };
        let report =
            Simulation::new(cfg, UnitCostDefense::new(), NullAdversary, small_workload()).run();
        assert_eq!((report.events_processed, report.queue_pops), (100, 50));
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
