//! Sharded shared-nothing workload replay.
//!
//! A [`ShardedWorkload`] splits one workload's ID space across `S` shards.
//! Each shard owns its slice of the schedule — the sessions and initial
//! departures whose global index is congruent to the shard id mod `S` —
//! decodes its records with a private cursor, orders its slice's events
//! with a private [`EventQueue`], and emits them as bounded batches of
//! pre-ordered `(time, seq, event)` triples over a channel. No shard
//! shares mutable state with any other.
//!
//! The coordinator side is [`ShardedStream`]: a *merged*
//! [`WorkloadStream`] the engine k-way-merges against its internal queue
//! (see `Simulation::run_merged`). The canonical cross-shard merge order
//! is the global `(time, seq)` key, where `seq` is the exact
//! eager-equivalent sequence number the monolithic scheduler would have
//! assigned — a pure function of the workload, independent of `S`. Batch
//! boundaries (the "epochs" at which messages are drained) therefore
//! never influence ordering: an `S`-shard run replays the byte-for-byte
//! identical event sequence as a 1-shard run, and the engine's `SimReport`
//! is bit-identical for every defense and adversary strategy.
//!
//! # Status: retained for the frozen benchmark only
//!
//! Nothing in `crates/` or `src/` outside tests constructs a
//! [`ShardedWorkload`]: every trial above this crate runs on one thread
//! through the plain streams, and parallelism is the experiment pool. The
//! module, `Simulation::run_merged` and the merged-stream trait methods
//! stay because the frozen `benchmark/` package calls
//! [`ShardedWorkload::from_disk`] for its `sim.shard.*` probe and
//! implements those trait methods; they go when that package is next
//! thawed. `crates/sim/README.md` ("Sharded replay: retired above this
//! crate, and why") records the speedup ceiling and every measurement
//! behind the decision. Until then the two `shard_equivalence` suites keep
//! pinning this path to the plain loop.
//!
//! # What lives where
//!
//! Shards own decode + ordering *and* — since the defense state was
//! sharded (see [`shard_state`](crate::shard_state)) — the per-ID
//! admission verdicts and spend ledgers of the identities congruent to
//! their index: the engine routes each admission outcome to shard
//! `id mod S` and folds the per-shard ledgers back in canonical `0..S`
//! order at epoch boundaries. Every per-ID charge is rounded to the
//! integer ledger grid *before* routing, so the fold is exact integer
//! addition and float non-associativity cannot leak shard structure
//! into results. The defense instance itself and the global aggregates
//! it consumes stay coordinator-side, fed by the epoch reductions
//! rather than coordinator-wide scans.
//!
//! # Failure semantics
//!
//! Shard workers run under `catch_unwind` (the `run_parallel_catch`
//! quarantine semantics from `sybil-exp`): a panicking shard sends a final
//! [`ShardMsg::Panicked`] instead of leaving its peers deadlocked on a
//! full or silent channel, and the coordinator re-panics with the shard's
//! message — inside an experiment pool that quarantines the cell. Dropping
//! the stream early (coordinator panic or a run cut short) drops the
//! receivers first, which unblocks any worker parked on a full channel
//! (its `send` fails and it exits cleanly), then joins every worker.
//!
//! # One shard runs inline
//!
//! `S = 1` spawns no thread at all: the single producer is polled pull-style
//! from `next_event`, preserving the monolithic engine's
//! single-threaded performance profile, so "1 shard" in benchmarks is an
//! honest baseline.

use crate::queue::EventQueue;
use crate::time::Time;
use crate::workload::{
    Session, SessionIndex, StreamEvent, Workload, WorkloadSource, WorkloadStream,
};
use crate::workload_io::{DiskRecords, DiskWorkload};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Events per cross-shard message batch (one "epoch" of a shard's feed).
const BATCH_EVENTS: usize = 4096;
/// Batches a shard may run ahead of the coordinator before its `send`
/// blocks — bounds per-shard buffering at `CHANNEL_BATCHES × BATCH_EVENTS`
/// events.
const CHANNEL_BATCHES: usize = 4;

/// A workload wrapper that replays its schedule through `S` shared-nothing
/// shards (see the module docs).
///
/// Wraps either a resident [`Workload`] or a [`DiskWorkload`]; implements
/// [`WorkloadSource`], so it drops into `Simulation::new` wherever the
/// underlying workload did.
#[derive(Clone, Debug)]
pub struct ShardedWorkload {
    input: ShardInput,
    shards: usize,
}

#[derive(Clone, Debug)]
enum ShardInput {
    Memory(Arc<MemoryInput>),
    Disk(DiskWorkload),
}

/// Canonicalized resident schedule shared (read-only) by memory shards.
#[derive(Debug)]
struct MemoryInput {
    /// Sessions stably sorted by join time (what [`Workload::new`]
    /// produces; hand-built unsorted workloads are canonicalized here, so
    /// their session *indices* are the sorted positions).
    sessions: Vec<Session>,
    /// Initial departures sorted ascending — the on-disk order, so memory
    /// and disk sharding assign identical sequence numbers.
    initial: Vec<Time>,
}

impl ShardedWorkload {
    /// Shards a resident workload.
    ///
    /// The schedule is canonicalized first (sessions stably join-sorted,
    /// initial departures ascending — exactly the on-disk order), so a
    /// hand-built unsorted workload replays with sorted-position session
    /// indices. Workloads from [`Workload::new`] or generators are already
    /// sorted and replay with unchanged indices.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0.
    pub fn from_workload(workload: Workload, shards: usize) -> ShardedWorkload {
        assert!(shards >= 1, "at least one shard required");
        let mut sessions = workload.sessions;
        sessions.sort_by_key(|a| a.join);
        let mut initial = workload.initial_departures;
        initial.sort();
        ShardedWorkload {
            input: ShardInput::Memory(Arc::new(MemoryInput { sessions, initial })),
            shards,
        }
    }

    /// Shards a disk-backed workload: every shard opens its own buffered
    /// cursors over the shared file, so shards never contend on a reader.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0.
    pub fn from_disk(workload: DiskWorkload, shards: usize) -> ShardedWorkload {
        assert!(shards >= 1, "at least one shard required");
        ShardedWorkload { input: ShardInput::Disk(workload), shards }
    }

    /// The shard count this workload replays with.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

impl WorkloadSource for ShardedWorkload {
    type Stream = ShardedStream;

    fn initial_size(&self) -> u64 {
        match &self.input {
            ShardInput::Memory(m) => m.initial.len() as u64,
            ShardInput::Disk(d) => d.initial_size(),
        }
    }

    fn session_count(&self) -> u64 {
        match &self.input {
            ShardInput::Memory(m) => m.sessions.len() as u64,
            ShardInput::Disk(d) => d.session_count(),
        }
    }

    /// Defense state shards alongside the workload: session `i`'s
    /// admission slice and ledger delta live on shard `i mod S`, the same
    /// congruence that owns its decode.
    fn state_shards(&self) -> usize {
        self.shards
    }

    fn into_stream(self, horizon: Time) -> ShardedStream {
        // Seq totals are computed once, coordinator-side, with the same
        // early-exit passes the unsharded streams use.
        let (session_seqs, initial_in_horizon) = match &self.input {
            ShardInput::Memory(m) => {
                let mut seqs = 0u64;
                for s in &m.sessions {
                    if s.join > horizon {
                        break; // Sorted: the rest are out too.
                    }
                    seqs += 1 + u64::from(s.depart <= horizon);
                }
                (seqs, m.initial.partition_point(|d| *d <= horizon) as u64)
            }
            ShardInput::Disk(d) => {
                let scan = d.prescan(horizon);
                (scan.session_seqs, scan.initial_in_horizon)
            }
        };
        let seq_floor = session_seqs + initial_in_horizon;
        let shards = self.shards;
        let expected_per_shard =
            ((session_seqs + initial_in_horizon) as usize / shards).saturating_add(64);
        let producer = |shard: usize| -> ShardProducer<AnyRecords> {
            let records = match &self.input {
                ShardInput::Memory(m) => AnyRecords::Memory(MemoryRecords {
                    input: Arc::clone(m),
                    session_pos: 0,
                    initial_pos: 0,
                }),
                ShardInput::Disk(d) => AnyRecords::Disk(
                    d.records()
                        .unwrap_or_else(|e| panic!("workload file {}: {e}", d.path().display())),
                ),
            };
            ShardProducer::new(
                records,
                horizon,
                shard,
                shards,
                session_seqs,
                initial_in_horizon,
                expected_per_shard,
            )
        };
        let feeds = if shards == 1 {
            vec![Feed::Inline(Box::new(producer(0)))]
        } else {
            (0..shards).map(|k| Feed::Channel(spawn_shard(producer(k), k))).collect()
        };
        ShardedStream { heads: vec![None; feeds.len()], feeds, seq_floor }
    }
}

/// Record cursor a shard producer decodes its schedule from; exactly the
/// stored order, no filtering — the producer applies horizon and
/// ownership.
trait ShardRecords {
    /// Next session record in join-sorted order.
    fn next_session(&mut self) -> Option<Session>;
    /// Next initial departure in ascending order.
    fn next_initial(&mut self) -> Option<Time>;
}

struct MemoryRecords {
    input: Arc<MemoryInput>,
    session_pos: usize,
    initial_pos: usize,
}

impl ShardRecords for MemoryRecords {
    fn next_session(&mut self) -> Option<Session> {
        let s = self.input.sessions.get(self.session_pos).copied()?;
        self.session_pos += 1;
        Some(s)
    }

    fn next_initial(&mut self) -> Option<Time> {
        let d = self.input.initial.get(self.initial_pos).copied()?;
        self.initial_pos += 1;
        Some(d)
    }
}

impl ShardRecords for DiskRecords {
    fn next_session(&mut self) -> Option<Session> {
        DiskRecords::next_session(self)
    }

    fn next_initial(&mut self) -> Option<Time> {
        DiskRecords::next_initial(self)
    }
}

/// The two production cursor types, statically dispatched.
enum AnyRecords {
    Memory(MemoryRecords),
    Disk(DiskRecords),
}

impl ShardRecords for AnyRecords {
    fn next_session(&mut self) -> Option<Session> {
        match self {
            AnyRecords::Memory(m) => m.next_session(),
            AnyRecords::Disk(d) => d.next_session(),
        }
    }

    fn next_initial(&mut self) -> Option<Time> {
        match self {
            AnyRecords::Memory(m) => m.next_initial(),
            AnyRecords::Disk(d) => d.next_initial(),
        }
    }
}

/// One pre-ordered workload event crossing a shard boundary.
#[derive(Clone, Copy, Debug)]
struct FeedItem {
    at: Time,
    seq: u64,
    event: StreamEvent,
}

/// What a shard worker sends its coordinator.
enum ShardMsg {
    /// The next batch of pre-ordered events (never empty).
    Batch(Vec<FeedItem>),
    /// The shard's slice is exhausted; no further messages follow.
    Done,
    /// The worker panicked; the payload is the panic message. No further
    /// messages follow. The coordinator re-panics with it, so a pool
    /// running the cell under `run_parallel_catch` quarantines it.
    Panicked(String),
}

/// One shard's replay state: decodes the full record stream, keeps the
/// slice it owns (global index ≡ shard mod shards), and yields that
/// slice's events in global `(time, seq)` order.
///
/// Mirrors the monolithic engine's streaming scheduler exactly: one
/// pending join at a time, its departure queued when the join pops,
/// initial departures streamed alongside — so the per-shard queue stays at
/// O(active own sessions).
struct ShardProducer<C> {
    records: C,
    horizon: Time,
    shard: u64,
    shards: u64,
    /// Global index of the next session record to decode.
    next_index: u64,
    /// Global sequence number of the next session event.
    next_seq: u64,
    sessions_done: bool,
    /// Sorted rank of the next initial-departure record to decode.
    initial_rank: u64,
    /// In-horizon initial departures (global, from the pre-scan).
    initial_in_horizon: u64,
    /// First initial-departure seq (= total session seqs).
    initial_seq_base: u64,
    queue: EventQueue<StreamEvent>,
    /// Departure of the own session whose join is currently queued, if in
    /// horizon: `(depart, seq, index, join)`.
    pending_depart: Option<(Time, u64, SessionIndex, Time)>,
}

impl<C: ShardRecords> ShardProducer<C> {
    fn new(
        records: C,
        horizon: Time,
        shard: usize,
        shards: usize,
        session_seqs: u64,
        initial_in_horizon: u64,
        expected_events: usize,
    ) -> Self {
        let mut p = ShardProducer {
            records,
            horizon,
            shard: shard as u64,
            shards: shards as u64,
            next_index: 0,
            next_seq: 0,
            sessions_done: false,
            initial_rank: 0,
            initial_in_horizon,
            initial_seq_base: session_seqs,
            queue: EventQueue::with_horizon(horizon, expected_events),
            pending_depart: None,
        };
        p.queue.advance_seq_to(session_seqs + initial_in_horizon);
        p.stream_next_own_session();
        p.stream_next_own_initial();
        p
    }

    /// Decodes records forward — assigning every session its global index
    /// and seq, owned or not — until the next *own* in-horizon join is
    /// queued or the in-horizon schedule ends.
    fn stream_next_own_session(&mut self) {
        while !self.sessions_done {
            let Some(s) = self.records.next_session() else {
                self.sessions_done = true;
                return;
            };
            if s.join > self.horizon {
                self.sessions_done = true; // Sorted: the rest are out too.
                return;
            }
            let index = self.next_index;
            self.next_index += 1;
            let join_seq = self.next_seq;
            let departs_in = s.depart <= self.horizon;
            self.next_seq += 1 + u64::from(departs_in);
            if index % self.shards == self.shard {
                self.pending_depart =
                    departs_in.then_some((s.depart, join_seq + 1, index as SessionIndex, s.join));
                self.queue.push_with_seq(
                    s.join,
                    join_seq,
                    StreamEvent::Join(index as SessionIndex),
                );
                return;
            }
        }
    }

    /// Advances the initial-departure cursor to the next *own* record and
    /// queues it (seqs are the sorted rank offset past all session seqs,
    /// as on disk).
    fn stream_next_own_initial(&mut self) {
        while self.initial_rank < self.initial_in_horizon {
            let d = self
                .records
                .next_initial()
                .expect("pre-scan counted more in-horizon initial departures than stored");
            let rank = self.initial_rank;
            self.initial_rank += 1;
            if rank % self.shards == self.shard {
                self.queue.push_with_seq(
                    d,
                    self.initial_seq_base + rank,
                    StreamEvent::InitialDepart,
                );
                return;
            }
        }
    }

    /// Next event of this shard's slice, in global `(time, seq)` order.
    fn next(&mut self) -> Option<FeedItem> {
        let (at, seq, event) = self.queue.pop_keyed()?;
        match event {
            StreamEvent::Join(_) => {
                // Queue this join's departure first (its seq is join+1,
                // so or within the same timestamp it stays ordered), then
                // the next own join — the monolithic scheduler's order.
                if let Some((d_at, d_seq, i, joined_at)) = self.pending_depart.take() {
                    self.queue.push_with_seq(d_at, d_seq, StreamEvent::Depart(i, joined_at));
                }
                self.stream_next_own_session();
            }
            StreamEvent::InitialDepart => self.stream_next_own_initial(),
            StreamEvent::Depart(..) => {}
        }
        Some(FeedItem { at, seq, event })
    }
}

/// Worker loop: batches the producer's events into [`ShardMsg`]s. A failed
/// `send` means the coordinator dropped the stream — that is a clean stop,
/// not an error.
///
/// Batch buffers are pooled: the coordinator sends each spent (cleared)
/// `Vec` back over `recycle`, and the worker prefers a recycled buffer
/// over a fresh allocation. In steady state the pool converges to the
/// channel depth plus the two in-flight buffers, so a shard's entire feed
/// reuses a handful of `Vec`s instead of allocating one per 4096 events.
/// Both ends use the non-blocking `try_*` calls, so the recycle path can
/// never deadlock or stall either side — a miss just falls back to
/// allocation (worker) or dropping the buffer (coordinator).
fn produce_batches<C: ShardRecords>(
    mut producer: ShardProducer<C>,
    tx: SyncSender<ShardMsg>,
    recycle: Receiver<Vec<FeedItem>>,
) {
    let mut batch = Vec::with_capacity(BATCH_EVENTS);
    while let Some(item) = producer.next() {
        batch.push(item);
        if batch.len() >= BATCH_EVENTS {
            if tx.send(ShardMsg::Batch(std::mem::take(&mut batch))).is_err() {
                return;
            }
            batch = recycle.try_recv().unwrap_or_else(|_| Vec::with_capacity(BATCH_EVENTS));
        }
    }
    if !batch.is_empty() && tx.send(ShardMsg::Batch(batch)).is_err() {
        return;
    }
    let _ = tx.send(ShardMsg::Done);
}

/// Extracts a human-readable panic message (the `run_parallel_catch`
/// convention).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic of unknown type".to_string()
    }
}

/// Spawns one shard worker under `catch_unwind` isolation.
fn spawn_shard<C: ShardRecords + Send + 'static>(
    producer: ShardProducer<C>,
    shard: usize,
) -> ChannelFeed {
    let (tx, rx) = std::sync::mpsc::sync_channel::<ShardMsg>(CHANNEL_BATCHES);
    // Spent batch buffers flow back to the worker here. Depth matches the
    // data channel: the coordinator can never hold more spent buffers than
    // batches it has received, so `try_send` only misses if the worker has
    // already exited (then the buffer is simply dropped).
    let (recycle_tx, recycle_rx) = std::sync::mpsc::sync_channel::<Vec<FeedItem>>(CHANNEL_BATCHES);
    let panic_tx = tx.clone();
    let handle = std::thread::Builder::new()
        .name(format!("sybil-shard-{shard}"))
        .spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                produce_batches(producer, tx, recycle_rx)
            }));
            if let Err(payload) = result {
                // The quarantine path: surface the panic as a message so
                // the coordinator fails loudly instead of its peers
                // deadlocking on a channel that will never fill.
                let _ = panic_tx.send(ShardMsg::Panicked(panic_message(payload.as_ref())));
            }
        })
        .expect("spawn shard worker thread");
    ChannelFeed {
        rx: Some(rx),
        recycle_tx,
        batch: Vec::new(),
        head: 0,
        done: false,
        shard,
        handle: Some(handle),
    }
}

/// One shard's feed on the coordinator side.
enum Feed {
    /// `S = 1`: the producer is polled inline, no thread or channel.
    Inline(Box<ShardProducer<AnyRecords>>),
    /// `S ≥ 2`: a worker thread feeding batches over a bounded channel.
    Channel(ChannelFeed),
}

struct ChannelFeed {
    rx: Option<Receiver<ShardMsg>>,
    /// Returns spent batch buffers to the worker (see [`produce_batches`]).
    recycle_tx: SyncSender<Vec<FeedItem>>,
    /// The in-flight batch, read through `head`. An owned `Vec` rather
    /// than an `IntoIter` so the buffer survives being drained and can be
    /// recycled ([`FeedItem`] is `Copy`, so indexed reads are free).
    batch: Vec<FeedItem>,
    head: usize,
    done: bool,
    shard: usize,
    handle: Option<JoinHandle<()>>,
}

impl ChannelFeed {
    /// Next item of this shard's feed: drains the current batch, then
    /// blocks for the next message.
    ///
    /// # Panics
    ///
    /// Panics if the shard reported a panic or died without `Done` — the
    /// coordinator's run dies with it (and a surrounding
    /// `run_parallel_catch` pool quarantines the cell).
    fn next(&mut self) -> Option<FeedItem> {
        loop {
            if self.done {
                return None;
            }
            if let Some(item) = self.batch.get(self.head).copied() {
                self.head += 1;
                return Some(item);
            }
            let rx = self.rx.as_ref().expect("receiver live until done");
            match rx.recv() {
                Ok(ShardMsg::Batch(items)) => {
                    let mut spent = std::mem::replace(&mut self.batch, items);
                    self.head = 0;
                    if spent.capacity() > 0 {
                        spent.clear();
                        let _ = self.recycle_tx.try_send(spent);
                    }
                }
                Ok(ShardMsg::Done) => {
                    self.done = true;
                    self.rx = None;
                }
                Ok(ShardMsg::Panicked(msg)) => {
                    self.done = true;
                    self.rx = None;
                    panic!("workload shard {} panicked: {msg}", self.shard);
                }
                Err(_) => {
                    self.done = true;
                    self.rx = None;
                    panic!("workload shard {} worker died without reporting", self.shard);
                }
            }
        }
    }
}

impl Drop for ChannelFeed {
    fn drop(&mut self) {
        // Receiver first: a worker parked on a full channel sees the send
        // fail and exits, so the join below cannot deadlock.
        self.rx = None;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The coordinator-side merged stream over `S` shard feeds.
///
/// Holds at most one head item per feed plus one in-flight batch per
/// channel; [`WorkloadStream::next_event`] returns the minimum head by the
/// global `(time, seq)` key. Keys are globally unique, so the merge is a
/// total order — identical for every `S`.
pub struct ShardedStream {
    feeds: Vec<Feed>,
    heads: Vec<Option<FeedItem>>,
    seq_floor: u64,
}

impl WorkloadStream for ShardedStream {
    fn seq_floor(&self) -> u64 {
        self.seq_floor
    }

    fn next_session(&mut self) -> Option<(SessionIndex, Session, u64)> {
        unreachable!("merged streams are consumed via next_event")
    }

    fn next_initial_departure(&mut self) -> Option<(Time, u64)> {
        unreachable!("merged streams are consumed via next_event")
    }

    /// Canonically zero: shard buffers live on worker threads and vary
    /// with scheduling, so charging them here would make a memory *gauge*
    /// shard-count-dependent and break bit-identical reports. The real
    /// bound is `shards × CHANNEL_BATCHES × BATCH_EVENTS` feed items.
    fn resident_bytes(&self) -> usize {
        0
    }

    fn merged(&self) -> bool {
        true
    }

    fn next_event(&mut self) -> Option<(Time, u64, StreamEvent)> {
        let mut best: Option<(usize, (Time, u64))> = None;
        for (k, head) in self.heads.iter_mut().enumerate() {
            if head.is_none() {
                *head = match &mut self.feeds[k] {
                    Feed::Inline(p) => p.next(),
                    Feed::Channel(f) => f.next(),
                };
            }
            if let Some(item) = head {
                let key = (item.at, item.seq);
                if best.is_none_or(|(_, k)| key < k) {
                    best = Some((k, key));
                }
            }
        }
        let (k, _) = best?;
        let item = self.heads[k].take().expect("best head exists");
        Some((item.at, item.seq, item.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> Workload {
        Workload::new(
            vec![Time(7.0), Time(2.0), Time(50.0)],
            vec![
                Session::new(Time(1.0), Time(3.0)),
                Session::new(Time(2.0), Time(99.0)),
                Session::new(Time(2.0), Time(4.0)),
                Session::new(Time(30.0), Time(31.0)),
            ],
        )
    }

    /// All shard counts must yield the identical `(time, seq, event)`
    /// triple sequence — and it must be the eager scheduler's order.
    #[test]
    fn shard_counts_agree_on_the_event_sequence() {
        let horizon = Time(10.0);
        let reference: Vec<(Time, u64, StreamEvent)> = {
            let mut s = ShardedWorkload::from_workload(workload(), 1).into_stream(horizon);
            std::iter::from_fn(move || s.next_event()).collect()
        };
        // Joins at 1, 2, 2 (seqs 0, 2, 3); departs at 3, 4 (seqs 1, 4);
        // initial departures at 2, 7 (seqs 5, 6) — 7 in-horizon events.
        assert_eq!(reference.len(), 7);
        assert_eq!(reference[0], (Time(1.0), 0, StreamEvent::Join(0)));
        let mut sorted = reference.clone();
        sorted.sort_by_key(|a| (a.0, a.1));
        assert_eq!(reference, sorted, "merge must yield global (time, seq) order");
        for shards in [2, 3, 7, 16] {
            let mut s = ShardedWorkload::from_workload(workload(), shards).into_stream(horizon);
            let got: Vec<_> = std::iter::from_fn(move || s.next_event()).collect();
            assert_eq!(got, reference, "{shards} shards");
        }
    }

    /// A cursor that panics partway through its records, to exercise the
    /// quarantine path end to end.
    struct PanickingRecords {
        yielded: usize,
    }

    impl ShardRecords for PanickingRecords {
        fn next_session(&mut self) -> Option<Session> {
            if self.yielded >= 2 {
                panic!("synthetic shard fault");
            }
            self.yielded += 1;
            Some(Session::new(Time(self.yielded as f64), Time(self.yielded as f64 + 0.5)))
        }

        fn next_initial(&mut self) -> Option<Time> {
            None
        }
    }

    /// A panicking shard must surface as a coordinator panic carrying the
    /// shard's message — promptly, with no deadlock — and the stream must
    /// still join its workers on drop.
    #[test]
    fn shard_panic_propagates_instead_of_deadlocking() {
        let result = std::panic::catch_unwind(|| {
            let producer = ShardProducer::new(
                PanickingRecords { yielded: 0 },
                Time(100.0),
                0,
                1,
                100, // claim more seqs than the cursor will yield
                0,
                64,
            );
            let feed = spawn_shard(producer, 0);
            let mut stream = ShardedStream {
                feeds: vec![Feed::Channel(feed)],
                heads: vec![None],
                seq_floor: 100,
            };
            while stream.next_event().is_some() {}
        });
        let payload = result.expect_err("coordinator must panic");
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("shard 0 panicked"), "{msg}");
        assert!(msg.contains("synthetic shard fault"), "{msg}");
    }

    /// Dropping the stream mid-run (without draining) must not deadlock on
    /// workers blocked on a full channel: drop order unblocks their sends.
    #[test]
    fn early_drop_joins_blocked_workers() {
        // A workload big enough that workers outpace a coordinator that
        // never reads: they park on the bounded channel.
        let sessions =
            (0..100_000).map(|i| Session::new(Time(i as f64 * 0.001), Time(1000.0))).collect();
        let w = Workload::new(vec![], sessions);
        let mut stream = ShardedWorkload::from_workload(w, 3).into_stream(Time(2000.0));
        // Consume a few events, then drop with most of the feed pending.
        for _ in 0..10 {
            stream.next_event();
        }
        drop(stream); // must return (joins all three workers)
    }
}
