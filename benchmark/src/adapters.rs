//! Timed adapters: the traced run's view into each layer.
//!
//! Each adapter implements one of the crates' public traits
//! ([`Defense`], [`Adversary`], [`WorkloadSource`]/[`WorkloadStream`],
//! [`SharedGate`]) by forwarding to the real implementation and adding
//! the call's wall time to a slot. Nothing inside the crates changes; the
//! untraced run never constructs an adapter.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sybil_gate::service::Response;
use sybil_gate::{Frame, ShardedGate, SharedGate};
use sybil_sim::adversary::{Adversary, AdversaryAction, DefenseView};
use sybil_sim::defense::{
    Admission, BatchAdmission, Defense, DefenseEvent, PeriodicReport, PurgeReport,
};
use sybil_sim::{Cost, Session, SessionIndex, StreamEvent, Time, WorkloadSource, WorkloadStream};

/// The engine-side callbacks that are aggregated per cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// `Defense::good_join`.
    Join,
    /// `Defense::good_depart` and `bad_depart`.
    Depart,
    /// `Defense::bad_join_batch`.
    BadBatch,
    /// `Defense::purge`.
    Purge,
    /// `Defense::periodic_apply`.
    Periodic,
    /// `Defense::{init, quote, purge_due, next_periodic,
    /// periodic_cost_per_member}`; the field getters (`n_members`,
    /// `n_bad`) are forwarded untimed.
    Query,
    /// `Defense::drain_events_into`.
    Drain,
    /// `Adversary::act`: one call per adversary turn. The retention
    /// decisions inside purge and periodic rounds are forwarded untimed.
    Adversary,
    /// `WorkloadSource::into_stream` and every `WorkloadStream` pull.
    Decode,
}

/// Number of [`Slot`]s.
pub const SLOTS: usize = 9;

/// Aggregate names, indexed by `Slot as usize`.
pub const SLOT_NAMES: [&str; SLOTS] = [
    "defense.join",
    "defense.depart",
    "defense.bad_batch",
    "defense.purge",
    "defense.periodic",
    "defense.query",
    "defense.drain",
    "sim.adversary",
    "sim.workload_io.decode",
];

/// `(calls, busy_ns)` per slot.
pub type CostTotals = [(u64, u64); SLOTS];

/// Adds `from` into `into`, slot by slot.
pub fn add_costs(into: &mut CostTotals, from: &CostTotals) {
    for (a, b) in into.iter_mut().zip(from) {
        a.0 += b.0;
        a.1 += b.1;
    }
}

/// Per-cell callback counters, shared by the three engine-side adapters
/// of one simulation (single-threaded, hence `Cell`).
#[derive(Default)]
pub struct Costs {
    slots: [Cell<(u64, u64)>; SLOTS],
}

impl Costs {
    fn time<R>(&self, slot: Slot, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        let ns = started.elapsed().as_nanos() as u64;
        let cell = &self.slots[slot as usize];
        let (calls, busy) = cell.get();
        cell.set((calls + 1, busy + ns));
        out
    }

    /// The counters so far.
    pub fn totals(&self) -> CostTotals {
        std::array::from_fn(|i| self.slots[i].get())
    }
}

/// What one timed call costs by itself, in ns: `(inside, outside)` the
/// interval it adds to its slot, measured on an empty closure. The
/// callbacks timed here run for a few nanoseconds and fire 10^7 times a
/// second, so the two clock reads are most of what a raw sum would show;
/// [`crate::replay::EngineLayers::report`] subtracts them.
pub fn timer_overhead_ns() -> (f64, f64) {
    const CALLS: u32 = 1 << 20;
    let costs = Costs::default();
    let started = Instant::now();
    for _ in 0..CALLS {
        costs.time(Slot::Query, || std::hint::black_box(()));
    }
    let total = started.elapsed().as_nanos() as f64 / f64::from(CALLS);
    let inside = costs.totals()[Slot::Query as usize].1 as f64 / f64::from(CALLS);
    (inside, (total - inside).max(0.0))
}

/// A [`Defense`] that times every callback of the wrapped one.
pub struct TimedDefense<'a, D> {
    /// The real defense.
    pub inner: D,
    /// Where the time goes.
    pub costs: &'a Costs,
}

impl<D: Defense> Defense for TimedDefense<'_, D> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn init(&mut self, now: Time, n_good: u64, n_bad: u64) -> Cost {
        self.costs.time(Slot::Query, || self.inner.init(now, n_good, n_bad))
    }
    fn quote(&self, now: Time) -> Cost {
        self.costs.time(Slot::Query, || self.inner.quote(now))
    }
    fn good_join(&mut self, now: Time) -> Admission {
        self.costs.time(Slot::Join, || self.inner.good_join(now))
    }
    fn good_depart(&mut self, now: Time, joined_at: Time) {
        self.costs.time(Slot::Depart, || self.inner.good_depart(now, joined_at))
    }
    fn bad_join_batch(&mut self, now: Time, budget: Cost, max_attempts: u64) -> BatchAdmission {
        self.costs.time(Slot::BadBatch, || self.inner.bad_join_batch(now, budget, max_attempts))
    }
    fn bad_depart(&mut self, now: Time, n: u64) -> u64 {
        self.costs.time(Slot::Depart, || self.inner.bad_depart(now, n))
    }
    fn purge_due(&self, now: Time) -> bool {
        self.costs.time(Slot::Query, || self.inner.purge_due(now))
    }
    fn purge(&mut self, now: Time, retain_bad: u64) -> PurgeReport {
        self.costs.time(Slot::Purge, || self.inner.purge(now, retain_bad))
    }
    fn next_periodic(&self) -> Option<Time> {
        self.costs.time(Slot::Query, || self.inner.next_periodic())
    }
    fn periodic_cost_per_member(&self, now: Time) -> Cost {
        self.costs.time(Slot::Query, || self.inner.periodic_cost_per_member(now))
    }
    fn periodic_apply(&mut self, now: Time, bad_retained: u64) -> PeriodicReport {
        self.costs.time(Slot::Periodic, || self.inner.periodic_apply(now, bad_retained))
    }
    fn n_members(&self) -> u64 {
        self.inner.n_members()
    }
    fn n_bad(&self) -> u64 {
        self.inner.n_bad()
    }
    fn n_good(&self) -> u64 {
        self.inner.n_good()
    }
    fn drain_events_into(&mut self, out: &mut Vec<DefenseEvent>) {
        self.costs.time(Slot::Drain, || self.inner.drain_events_into(out))
    }
}

/// An [`Adversary`] that times every turn of the wrapped one.
pub struct TimedAdversary<'a, A> {
    /// The real strategy.
    pub inner: A,
    /// Where the time goes.
    pub costs: &'a Costs,
}

impl<A: Adversary> Adversary for TimedAdversary<'_, A> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn next_wakeup(&self, now: Time) -> Option<Time> {
        self.inner.next_wakeup(now)
    }
    fn needs_quote(&self) -> bool {
        self.inner.needs_quote()
    }
    fn act(&mut self, view: &DefenseView, budget: Cost) -> AdversaryAction {
        self.costs.time(Slot::Adversary, || self.inner.act(view, budget))
    }
    fn purge_retention(&mut self, view: &DefenseView, cap: u64, budget: Cost) -> u64 {
        self.inner.purge_retention(view, cap, budget)
    }
    fn periodic_retention(&mut self, view: &DefenseView, cost_per_id: Cost, budget: Cost) -> u64 {
        self.inner.periodic_retention(view, cost_per_id, budget)
    }
}

/// A [`WorkloadSource`] whose stream times every decode.
pub struct TimedSource<'a, W> {
    /// The real source.
    pub inner: W,
    /// Where the time goes.
    pub costs: &'a Costs,
}

impl<'a, W: WorkloadSource> WorkloadSource for TimedSource<'a, W> {
    type Stream = TimedStream<'a, W::Stream>;

    fn initial_size(&self) -> u64 {
        self.inner.initial_size()
    }
    fn session_count(&self) -> u64 {
        self.inner.session_count()
    }
    fn into_stream(self, horizon: Time) -> Self::Stream {
        let TimedSource { inner, costs } = self;
        TimedStream { inner: costs.time(Slot::Decode, || inner.into_stream(horizon)), costs }
    }
    fn state_shards(&self) -> usize {
        self.inner.state_shards()
    }
    fn preallocate_admission(&self) -> bool {
        self.inner.preallocate_admission()
    }
}

/// The stream of a [`TimedSource`].
pub struct TimedStream<'a, S> {
    inner: S,
    costs: &'a Costs,
}

impl<S: WorkloadStream> WorkloadStream for TimedStream<'_, S> {
    fn seq_floor(&self) -> u64 {
        self.inner.seq_floor()
    }
    fn next_session(&mut self) -> Option<(SessionIndex, Session, u64)> {
        self.costs.time(Slot::Decode, || self.inner.next_session())
    }
    fn next_initial_departure(&mut self) -> Option<(Time, u64)> {
        self.costs.time(Slot::Decode, || self.inner.next_initial_departure())
    }
    fn resident_bytes(&self) -> usize {
        self.inner.resident_bytes()
    }
    fn merged(&self) -> bool {
        self.inner.merged()
    }
    fn next_event(&mut self) -> Option<(Time, u64, StreamEvent)> {
        self.costs.time(Slot::Decode, || self.inner.next_event())
    }
}

/// The gate's handler entry points, by per-layer metric prefix.
pub const GATE_OPS: [&str; 4] =
    ["gate.service.connect", "gate.service.join", "gate.service.mine", "gate.service.depart"];

/// A [`SharedGate`] that times each handler call into the wrapped
/// [`ShardedGate`], by frame type. Handler threads share it, hence
/// atomics (`Relaxed`: the sums publish nothing else, and are read after
/// the client has seen the last reply).
pub struct TimedGate {
    /// The real gate.
    pub inner: Arc<ShardedGate>,
    slots: [(AtomicU64, AtomicU64); 4],
}

impl TimedGate {
    /// Wraps `inner`.
    pub fn new(inner: Arc<ShardedGate>) -> Self {
        TimedGate { inner, slots: Default::default() }
    }

    /// `(calls, busy_ns)` per entry of [`GATE_OPS`].
    pub fn totals(&self) -> [(u64, u64); 4] {
        std::array::from_fn(|i| {
            (self.slots[i].0.load(Ordering::Relaxed), self.slots[i].1.load(Ordering::Relaxed))
        })
    }

    fn time<R>(&self, slot: usize, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        self.slots[slot].0.fetch_add(1, Ordering::Relaxed);
        self.slots[slot].1.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl SharedGate for TimedGate {
    fn connect(&self, now: Time) -> (u64, Frame) {
        self.time(0, || self.inner.connect(now))
    }
    fn handle(&self, conn: u64, frame: &Frame, now: Time) -> Response {
        let slot = match frame {
            Frame::Join { .. } => 1,
            Frame::MineSubmit { .. } => 2,
            Frame::Depart { .. } => 3,
            // Server-to-client frames inbound: the benchmark never sends
            // them, and the gate drops them without work worth a slot.
            _ => return self.inner.handle(conn, frame, now),
        };
        self.time(slot, || self.inner.handle(conn, frame, now))
    }
}
