//! A stable discrete-event queue.
//!
//! Events fire in time order; ties break by insertion order, which makes
//! whole simulations deterministic given seeds. The paper assumes "every
//! join and departure event occurs at a unique point in time" with the
//! server ordering apparent ties (Section 2.1.1) — the insertion sequence
//! number plays that role here.
//!
//! # The calendar
//!
//! The queue ([`EventQueue::with_horizon`]) is a static calendar over
//! `[0, horizon]` divided into fixed-width buckets, grouped 64 to a coarse
//! *span*, in three tiers split at a cursor that only moves forward:
//!
//! * **Staged** — spans two or more past the cursor's. Each span holds
//!   one unordered list of 8-entry chunks; `staged` holds one `u32` per
//!   span. A push appends to its span's first chunk: no compare, no
//!   search, no allocator call.
//! * **Fine** — the buckets after the cursor in its span and the next.
//!   Each bucket is a list of chunks the same way (`heads`, one `u32` per
//!   bucket, at most 256 KiB). When the cursor enters a span, the span
//!   after it leaves staging: its chunks are read once, front to back,
//!   and each entry is appended to its bucket's list.
//! * **Near** — one sorted buffer holding every entry whose bucket is at
//!   or behind the cursor. When it runs dry the cursor moves to the next
//!   occupied bucket, whose chunks are moved into the buffer and sorted
//!   once. Pops take the buffer's front; a push at or behind the cursor
//!   is inserted in order, O(1) when it is the new maximum (the engine's
//!   pop-then-push-a-successor pattern) or the new minimum.
//!
//! Both list tiers share one chunk arena, and a drained chunk goes on a
//! free list that the next new chunk takes. Staging is for the engine's
//! far-future departures: a session's departure is pushed at its join and
//! popped about 1 300 simulated seconds later. Linked straight into its
//! bucket, each landed in a random arena slot, cold by the time the
//! cursor came to it; staged, the entries of a span sit together in a few
//! chunks, and a bucket's chunks were written a span or two before they
//! are read.
//!
//! The engine keeps three events outside the queue: the heads of its two
//! pre-sorted workload feeds (the next session's join, the next initial
//! departure) and the adversary's next wakeup, whose key it draws with
//! `EventQueue::take_seq`. It merges them in with
//! [`EventQueue::pop_before`], which pops the front only if it precedes
//! the least of their keys. With the near buffer empty, a key before the
//! exact first time past the cursor's bucket is refused on that one
//! compare; any other key moves the cursor at most to the key's bucket: a
//! cursor that ran ahead to the next occupied bucket would turn every
//! departure the feed pushes after it into a sorted insert into the near
//! buffer.
//!
//! Simulation time only moves forward, so push and pop are amortized
//! `O(1)` when events spread over the horizon, which is exactly the
//! engine's workload, and the memory is the arena: at the peak, a chunk
//! per 8 pending entries plus at most one part-filled chunk per list,
//! reused through the free list. Events past the horizon share one
//! overflow bucket (the engine stops at the first such event anyway).
//!
//! Every entry's `(time, seq)` key is unique, so the pop order is total
//! and strictly increasing; `tests::calendar_agrees_with_reference_model`
//! pins it against a reference model.

use crate::time::Time;
use std::collections::VecDeque;

/// A time-ordered event queue with FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use sybil_sim::queue::EventQueue;
/// use sybil_sim::time::Time;
///
/// let mut q = EventQueue::with_horizon(Time(10.0), 64);
/// q.push(Time(2.0), "b");
/// q.push(Time(1.0), "a");
/// q.push(Time(2.0), "c");
/// assert_eq!(q.len(), 3);
/// assert_eq!(q.pop(), Some((Time(1.0), "a")));
/// assert_eq!(q.pop(), Some((Time(2.0), "b")));
/// assert_eq!(q.pop(), Some((Time(2.0), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Clone, Debug)]
pub struct EventQueue<E> {
    calendar: Calendar<E>,
    seq: u64,
}

#[derive(Clone, Debug)]
struct Entry<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

/// "No chunk": the end of a list and of the free list.
const NIL: u32 = u32::MAX;

/// Fine buckets per coarse span.
const SPAN: usize = 64;

/// Entries per chunk.
const CHUNK: usize = 8;

/// One arena slot: up to [`CHUNK`] entries of one list (a fine bucket's
/// or a staged span's), the first `len` of them filled; or a vacant slot
/// (`len` is 0) linked into the free list.
#[derive(Clone, Debug)]
struct Chunk<E> {
    next: u32,
    len: u32,
    entries: [Option<Entry<E>>; CHUNK],
}

/// The chunk arena both far tiers share, with its free list.
#[derive(Clone, Debug)]
struct Chunks<E> {
    slots: Vec<Chunk<E>>,
    /// First vacant chunk, chained through `next`.
    free: u32,
}

impl<E> Chunks<E> {
    /// Adds `entry` to the list headed by `head`: into its first chunk if
    /// that has room, else into a new first chunk, the one the last drain
    /// freed.
    fn append(&mut self, head: &mut u32, entry: Entry<E>) {
        if let Some(chunk) = self.slots.get_mut(*head as usize) {
            if let Some(slot) = chunk.entries.get_mut(chunk.len as usize) {
                *slot = Some(entry);
                chunk.len += 1;
                return;
            }
        }
        let slot = match self.free {
            NIL => {
                let slot = self.slots.len();
                assert!(slot < NIL as usize, "event queue arena outgrew its u32 chunk indices");
                self.slots.push(Chunk {
                    next: NIL,
                    len: 0,
                    entries: std::array::from_fn(|_| None),
                });
                slot as u32
            }
            slot => {
                self.free = self.slots[slot as usize].next;
                slot
            }
        };
        let chunk = &mut self.slots[slot as usize];
        chunk.next = std::mem::replace(head, slot);
        chunk.entries[0] = Some(entry);
        chunk.len = 1;
    }

    /// Takes the entries of `chunk` out one by one into `each`, then frees
    /// it and returns the next chunk of its list. `each` may append to other
    /// lists: `chunk` is freed only after its last entry is out.
    fn drain(&mut self, chunk: u32, mut each: impl FnMut(&mut Self, Entry<E>)) -> u32 {
        let len = std::mem::take(&mut self.slots[chunk as usize].len);
        for k in 0..len as usize {
            let entry = self.slots[chunk as usize].entries[k].take();
            each(self, entry.expect("a filled slot holds an entry"));
        }
        std::mem::replace(
            &mut self.slots[chunk as usize].next,
            std::mem::replace(&mut self.free, chunk),
        )
    }
}

/// Near-buffer capacity reserved at construction, beside one arena chunk
/// per span, outside the engine's measured span: the fully resident
/// scenarios never outgrow them, so their loops stay at zero allocations.
/// Deeper queues double from them.
const NEAR_RESERVE: usize = 256;

/// The calendar: fixed-width buckets over `[0, horizon]`, plus one
/// overflow bucket for times past the horizon (see the module docs).
#[derive(Clone, Debug)]
struct Calendar<E> {
    /// Per fine bucket after the cursor, in the cursor's span or the next
    /// one, the first chunk of its list ([`NIL`] when empty). Every other
    /// bucket is empty here: its entries are in `near` or staged.
    heads: Vec<u32>,
    /// Per span two or more past the cursor's, the first chunk of the list
    /// its entries are staged in. Spans up to the cursor's next are empty.
    staged: Vec<u32>,
    chunks: Chunks<E>,
    /// Every entry whose bucket is `<= cursor`, ascending by `(time, seq)`.
    near: VecDeque<Entry<E>>,
    /// Buckets per second (`n_buckets / horizon`).
    inv_width: f64,
    cursor: usize,
    /// The least time whose bucket is past the cursor's.
    past_cursor: f64,
    /// Entries in all three tiers.
    len: usize,
}

/// The bucket of `at` at `inv_width` buckets per second: times before 0
/// clamp to bucket 0, times past the horizon to the overflow bucket,
/// `last`.
fn bucket_of(at: Time, inv_width: f64, last: usize) -> usize {
    ((at.as_secs().max(0.0) * inv_width) as usize).min(last)
}

impl<E> Calendar<E> {
    fn new(horizon: Time, n_buckets: usize) -> Self {
        let n = n_buckets.max(1);
        let spans = (n + 1).div_ceil(SPAN);
        let mut calendar = Calendar {
            heads: vec![NIL; n + 1],
            staged: vec![NIL; spans],
            chunks: Chunks { slots: Vec::with_capacity(spans), free: NIL },
            near: VecDeque::with_capacity(NEAR_RESERVE),
            inv_width: n as f64 / horizon.as_secs().max(f64::MIN_POSITIVE),
            cursor: 0,
            past_cursor: 0.0,
            len: 0,
        };
        calendar.past_cursor = calendar.first_time_past(0);
        calendar
    }

    fn bucket_index(&self, at: Time) -> usize {
        bucket_of(at, self.inv_width, self.heads.len() - 1)
    }

    /// The least time whose bucket is past `bucket` (infinite past the
    /// overflow bucket). `bucket_index` is monotone in time, so the float
    /// quotient is stepped by ulps to the exact edge.
    fn first_time_past(&self, bucket: usize) -> f64 {
        let edge = bucket + 1;
        if edge >= self.heads.len() {
            return f64::INFINITY;
        }
        let mut t = edge as f64 / self.inv_width;
        while self.bucket_index(Time(t)) < edge {
            t = t.next_up();
        }
        while t > 0.0 && self.bucket_index(Time(t.next_down())) >= edge {
            t = t.next_down();
        }
        t
    }

    fn push(&mut self, entry: Entry<E>) {
        let idx = self.bucket_index(entry.at);
        self.len += 1;
        if idx > self.cursor {
            let span = idx / SPAN;
            let head = if span > self.cursor / SPAN + 1 {
                &mut self.staged[span]
            } else {
                &mut self.heads[idx]
            };
            self.chunks.append(head, entry);
            return;
        }
        match self.near.back() {
            Some(last) if last.key() > entry.key() => {
                let pos = self.near.partition_point(|e| e.key() < entry.key());
                self.near.insert(pos, entry);
            }
            // New maximum (the monotone engine pattern) or empty buffer.
            _ => self.near.push_back(entry),
        }
    }

    /// Moves the cursor one bucket on. Entering a span moves the span
    /// after it out of staging into its fine buckets.
    fn step_cursor(&mut self) {
        self.cursor += 1;
        if self.cursor.is_multiple_of(SPAN) {
            let span = self.cursor / SPAN + 1;
            let Some(head) = self.staged.get_mut(span) else { return };
            let mut chunk = std::mem::replace(head, NIL);
            let (heads, inv_width) = (&mut self.heads, self.inv_width);
            let last = heads.len() - 1;
            while chunk != NIL {
                chunk = self.chunks.drain(chunk, |chunks, entry| {
                    chunks.append(&mut heads[bucket_of(entry.at, inv_width, last)], entry);
                });
            }
        }
    }

    /// Moves the cursor to the next occupied bucket (every entry is past
    /// the cursor, so there is one) and loads it.
    fn load_next_bucket(&mut self) {
        debug_assert!(self.near.is_empty() && self.len > 0);
        self.step_cursor();
        while self.heads[self.cursor] == NIL {
            self.step_cursor();
        }
        self.load_cursor_bucket();
        self.past_cursor = self.first_time_past(self.cursor);
    }

    /// Moves the cursor bucket's list into the empty `near`, sorted.
    fn load_cursor_bucket(&mut self) {
        let mut chunk = std::mem::replace(&mut self.heads[self.cursor], NIL);
        let near = &mut self.near;
        while chunk != NIL {
            chunk = self.chunks.drain(chunk, |_, entry| near.push_back(entry));
        }
        self.near.make_contiguous().sort_unstable_by_key(Entry::key);
    }

    fn pop(&mut self) -> Option<Entry<E>> {
        if self.near.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.load_next_bucket();
        }
        self.len -= 1;
        self.near.pop_front()
    }

    /// Pops the minimum if its key is below `key`. With nothing loaded, a
    /// key before `past_cursor` is refused on that one compare (every
    /// entry is past the cursor's bucket); otherwise
    /// [`walk_to`](Self::walk_to) moves the cursor towards the key.
    // Left to the inliner: with `#[inline]` here as well as on the disk
    // stream's reads, `grid_fig8` read 0.926-0.992× in three sessions of
    // alternating pairs, and 1.008× without it (`replay_stream` 1.254×).
    fn pop_before(&mut self, key: (Time, u64)) -> Option<Entry<E>> {
        if self.near.is_empty() {
            if self.len == 0 || key.0.as_secs() < self.past_cursor {
                return None;
            }
            self.walk_to(key.0);
        }
        if self.near.front()?.key() < key {
            self.len -= 1;
            self.near.pop_front()
        } else {
            None
        }
    }

    /// Walks the cursor only as far as `at`'s bucket and loads the first
    /// occupied bucket it meets there. Entries past that bucket cannot
    /// precede `at`, so they stay where they are.
    #[inline(never)]
    fn walk_to(&mut self, at: Time) {
        let limit = self.bucket_index(at);
        while self.cursor < limit {
            self.step_cursor();
            if self.heads[self.cursor] != NIL {
                self.load_cursor_bucket();
                break;
            }
        }
        self.past_cursor = self.first_time_past(self.cursor);
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue for a simulation over `[0, horizon]`.
    ///
    /// `expected_events` sizes the bucket array (one bucket per expected
    /// event, clamped to a sane range) so that average bucket occupancy
    /// stays O(1) and push/pop are amortized constant-time.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not positive.
    pub fn with_horizon(horizon: Time, expected_events: usize) -> Self {
        assert!(horizon > Time::ZERO, "calendar queue needs a positive horizon");
        let n_buckets = expected_events.clamp(64, 65_536);
        EventQueue { calendar: Calendar::new(horizon, n_buckets), seq: 0 }
    }

    /// Schedules `event` at time `at`.
    // Left to the inliner, like `push_with_seq` and `pop`: PR 14's
    // `#[inline(never)]` was re-measured on each against this body and
    // dropped (alternated runs: `replay_stream` +1.5 % without them,
    // `bench_report` scenarios within ±2 %; the old body lost 10-18 %).
    pub fn push(&mut self, at: Time, event: E) {
        let seq = self.take_seq();
        self.calendar.push(Entry { at, seq, event });
    }

    /// Draws the sequence number [`push`](Self::push) would have drawn
    /// here, and queues nothing: an event its caller holds outside the
    /// queue keys on it, and orders against queued events exactly as if it
    /// had been pushed.
    pub(crate) fn take_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Schedules `event` at time `at` with an explicit tie-breaking
    /// sequence number.
    ///
    /// This exists so schedulers can *stream* events into the queue lazily
    /// while reproducing the exact FIFO order an eager scheduler would have
    /// produced: the caller precomputes each event's sequence number and
    /// reserves the range via [`advance_seq_to`](Self::advance_seq_to).
    /// Pushing a seq at or above the reserved floor would collide with
    /// future [`push`](Self::push) assignments and panics.
    pub fn push_with_seq(&mut self, at: Time, seq: u64, event: E) {
        assert!(
            seq < self.seq,
            "push_with_seq: seq {seq} not below the reserved floor {}",
            self.seq
        );
        self.calendar.push(Entry { at, seq, event });
    }

    /// Raises the internal sequence counter to at least `floor`, reserving
    /// `0..floor` for [`push_with_seq`](Self::push_with_seq).
    pub fn advance_seq_to(&mut self, floor: u64) {
        self.seq = self.seq.max(floor);
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.calendar.pop().map(|e| (e.at, e.event))
    }

    /// Removes and returns the earliest event if its `(time, seq)` key is
    /// below `key`, and otherwise returns `None`; the cursor never moves
    /// past `key`'s bucket (see the module docs), and a bucket is loaded
    /// at most once.
    pub fn pop_before(&mut self, key: (Time, u64)) -> Option<(Time, E)> {
        self.calendar.pop_before(key).map(|e| (e.at, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.calendar.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue() -> EventQueue<i32> {
        EventQueue::with_horizon(Time(100.0), 64)
    }

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = queue();
        q.push(Time(3.0), 30);
        q.push(Time(1.0), 10);
        q.push(Time(1.0), 11);
        q.push(Time(2.0), 20);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![10, 11, 20, 30]);
    }

    #[test]
    fn len_counts_both_tiers() {
        let mut q = queue();
        assert!(q.is_empty());
        q.push(Time(5.0), 0);
        q.push(Time(90.0), 1);
        assert_eq!(q.pop(), Some((Time(5.0), 0)));
        // The far entry is still pending after the near one popped.
        q.push(Time(5.0), 2);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = queue();
        q.push(Time(10.0), 1);
        q.push(Time(5.0), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(Time(7.0), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert!(q.pop().is_none());
    }

    #[test]
    fn push_with_seq_reproduces_eager_order() {
        let make = || EventQueue::<u32>::with_horizon(Time(10.0), 64);
        // Eager: everything pushed up front.
        let mut eager = make();
        for (t, e) in [(2.0, 0u32), (2.0, 1), (1.0, 2), (2.0, 3)] {
            eager.push(Time(t), e);
        }
        // Streaming: seqs 0..4 reserved, events fed in late and out of
        // seq order.
        let mut streaming = make();
        streaming.advance_seq_to(4);
        streaming.push_with_seq(Time(1.0), 2, 2);
        assert_eq!(streaming.pop(), Some((Time(1.0), 2)));
        assert_eq!(eager.pop(), Some((Time(1.0), 2)));
        streaming.push_with_seq(Time(2.0), 3, 3);
        streaming.push_with_seq(Time(2.0), 0, 0);
        streaming.push_with_seq(Time(2.0), 1, 1);
        for _ in 0..3 {
            assert_eq!(streaming.pop(), eager.pop());
        }
        assert!(streaming.pop().is_none() && eager.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "not below the reserved floor")]
    fn push_with_seq_rejects_unreserved() {
        let mut q: EventQueue<()> = EventQueue::with_horizon(Time(10.0), 64);
        q.push_with_seq(Time(1.0), 0, ());
    }

    /// A drawn number is the one a push there would have taken: the
    /// event held outside keys between the pushes around it.
    #[test]
    fn take_seq_draws_the_next_push_number() {
        let mut q = queue();
        q.push(Time(1.0), 0);
        let held = (Time(1.0), q.take_seq());
        q.push(Time(1.0), 2);
        assert_eq!(held.1, 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_before(held), Some((Time(1.0), 0)));
        assert_eq!(q.pop_before(held), None);
        assert_eq!(q.pop(), Some((Time(1.0), 2)));
    }

    #[test]
    fn calendar_handles_past_horizon_and_negative_times() {
        let mut q = EventQueue::with_horizon(Time(10.0), 64);
        q.push(Time(25.0), 2); // past the horizon → overflow bucket
        q.push(Time(-1.0), 0); // clamps to bucket 0
        q.push(Time(5.0), 1);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    /// A deterministic pseudo-random stream for the tests below.
    fn lcg(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        }
    }

    /// Reference model: an ordered map keyed by `(time, seq)`. The
    /// calendar must agree with it on interleaved push, pop and
    /// `pop_before` sequences (FIFO tie-breaking included), shallow and at
    /// depth: every pop returns the reference's least entry, and `len`
    /// matches after every operation. Each payload is its entry's seq, so
    /// the popped payloads pin the key order. Times are coarse (multiples
    /// of 0.25) to force exact ties. Pushes land at the cursor's bucket,
    /// behind it, before zero, past the horizon and anywhere on the
    /// horizon; `pop_before` keys (with any seq, so they tie with queued
    /// entries) behind the cursor, at it, up to 256 s ahead of it (past a
    /// shallow trial's sparse far tier) and past the horizon. A refused
    /// `pop_before` leaves the cursor at or before the key's bucket, or
    /// where it was. The wide shapes (a span of 64 buckets is 1 s and
    /// 1/16 s) stage most far pushes. In those that push only ahead of
    /// the cursor the near buffer runs dry, and both pops and
    /// `pop_before`s carry the cursor across span edges; each such trial
    /// checks it did.
    #[test]
    fn calendar_agrees_with_reference_model() {
        use std::collections::BTreeMap;
        const HORIZON: f64 = 64.0;
        let mut next = lcg(0x1234_5678_9abc_def0);
        // (standing entries, operations, buckets, pushes only ahead)
        let shapes = std::iter::repeat_n((0usize, 400usize, 128usize, false), 50)
            .chain(std::iter::repeat_n((0, 2000, 4096, false), 10))
            .chain(std::iter::repeat_n((0, 2000, 4096, true), 10))
            .chain(std::iter::repeat_n((500, 4000, 65_536, true), 5))
            .chain([(10_000, 100_000, 10_128, false), (20_000, 100_000, 65_536, false)]);
        for (trial, (standing, ops, buckets, ahead)) in shapes.enumerate() {
            let mut q: EventQueue<u64> = EventQueue::with_horizon(Time(HORIZON), buckets);
            let mut reference: BTreeMap<(Time, u64), u64> = BTreeMap::new();
            let mut seq = 0u64;
            let mut now = 0.0f64;
            let (mut staged, mut crossed_by_pop, mut crossed_by_pop_before) = (false, false, false);
            for op in 0..standing + ops {
                let r = next();
                let span = q.calendar.cursor / SPAN;
                if op >= standing && r % 4 == 3 {
                    let step = ((r >> 4) % 256) as f64;
                    let at = match (r >> 2) % 4 {
                        0 => now - step.min(8.0) * 0.25,
                        1 => now,
                        2 => now + step,
                        _ => HORIZON + step,
                    };
                    let key = (Time(at), (r >> 12) % (seq + 1));
                    let cursor = q.calendar.cursor;
                    let popped = q.pop_before(key);
                    crossed_by_pop_before |= q.calendar.cursor / SPAN > span;
                    match reference.first_key_value() {
                        Some((&first, &want)) if first < key => {
                            reference.pop_first();
                            assert_eq!(popped, Some((first.0, want)), "trial {trial} op {op}");
                            now = first.0.as_secs();
                        }
                        _ => {
                            assert_eq!(popped, None, "trial {trial} op {op}");
                            let bound = cursor.max(q.calendar.bucket_index(key.0));
                            assert!(q.calendar.cursor <= bound, "trial {trial} op {op}");
                        }
                    }
                } else if op < standing || r.is_multiple_of(2) || reference.is_empty() {
                    let step = ((r >> 4) % 256) as f64 * 0.25;
                    let at = match (r >> 1) % 8 {
                        _ if ahead && op >= standing => now.max(0.0) + 0.25 + step % 8.0,
                        0 => now,
                        1 => now - step.min(2.0),
                        2 => -1.0 - step,
                        3 => HORIZON + step,
                        _ => step,
                    };
                    q.push(Time(at), seq);
                    reference.insert((Time(at), seq), seq);
                    seq += 1;
                } else {
                    let ((at, _), want) = reference.pop_first().expect("non-empty");
                    assert_eq!(q.pop(), Some((at, want)), "trial {trial} op {op}");
                    crossed_by_pop |= q.calendar.cursor / SPAN > span;
                    now = at.as_secs();
                }
                assert_eq!(q.len(), reference.len(), "trial {trial} op {op}");
                staged |= q.calendar.staged.iter().any(|&head| head != NIL);
            }
            assert!(staged || buckets < 4096, "trial {trial}");
            assert!(
                !ahead || (crossed_by_pop && crossed_by_pop_before),
                "trial {trial} {crossed_by_pop} {crossed_by_pop_before}"
            );
            // Drain; both must agree to the end.
            for ((at, _), want) in reference {
                assert_eq!(q.pop(), Some((at, want)), "trial {trial}");
            }
            assert!(q.pop().is_none() && q.is_empty());
        }
    }

    /// `past_cursor` is the exact edge of the cursor's bucket: the bucket
    /// of that time is past the cursor, and the bucket of the float just
    /// below it is not. Checked at random horizons, bucket counts and
    /// cursors, at the overflow bucket (no time lies past it), and on a
    /// queue whose cursor the walks themselves moved.
    #[test]
    fn past_cursor_is_the_exact_bucket_edge() {
        let mut next = lcg(0xed9e);
        for trial in 0..2000 {
            let horizon = match trial % 4 {
                0 => 4000.0,
                1 => 700.0,
                2 => (next() % 100_000 + 1) as f64 / 7.0,
                _ => f64::from_bits(next() % (1 << 40) + 0x3f00_0000_0000_0000),
            };
            let q: EventQueue<()> =
                EventQueue::with_horizon(Time(horizon), (next() % 70_000) as usize);
            let last = q.calendar.heads.len() - 1;
            for cursor in [0, last - 1, last, next() as usize % last] {
                let edge = q.calendar.first_time_past(cursor);
                if cursor == last {
                    assert_eq!(edge, f64::INFINITY);
                    continue;
                }
                assert!(q.calendar.bucket_index(Time(edge)) > cursor, "trial {trial}");
                let below = Time(edge.next_down());
                assert!(q.calendar.bucket_index(below) <= cursor, "trial {trial} at {cursor}");
            }
        }
        let mut q: EventQueue<u32> = EventQueue::with_horizon(Time(4000.0), 65_536);
        for i in 0..5000 {
            q.push(Time((next() % 4_000_000) as f64 / 1000.0), i);
        }
        while !q.is_empty() {
            let key = (Time((next() % 4_000_000) as f64 / 1000.0), 0);
            if q.pop_before(key).is_none() {
                q.pop();
            }
            assert_eq!(q.calendar.past_cursor, q.calendar.first_time_past(q.calendar.cursor));
        }
    }

    /// `pop_before` refuses an entry that does not precede the key without
    /// loading its bucket: the cursor stops at the key's bucket, so an
    /// entry pushed between the key and the far entry still goes to the
    /// far tier, and pops before the far one.
    #[test]
    fn a_refused_pop_before_leaves_the_cursor_at_or_before_the_key() {
        let mut q: EventQueue<u32> = EventQueue::with_horizon(Time(100.0), 100);
        q.push(Time(90.0), 0);
        let key = (Time(10.5), 0);
        assert_eq!(q.pop_before(key), None);
        assert_eq!(q.calendar.cursor, q.calendar.bucket_index(key.0));
        assert!(q.calendar.near.is_empty());
        q.push(Time(20.0), 1);
        assert!(q.calendar.near.is_empty(), "a push past the key's bucket is a far push");
        assert_eq!(q.pop_before((Time(20.0), 1)), None, "equal keys do not precede");
        assert_eq!(q.pop_before((Time(20.0), 2)), Some((Time(20.0), 1)));
        assert_eq!(q.pop_before((Time(95.0), 0)), Some((Time(90.0), 0)));
        assert_eq!(q.pop_before((Time(95.0), 0)), None);
        assert!(q.is_empty());
    }

    /// A chunk freed by a drain is the next one a new list chunk takes:
    /// a far entry popped before the next is pushed leaves one chunk in
    /// the arena, and a random walk of a million operations never holds
    /// more chunks than its lists can need at once (one partly filled
    /// chunk per fine bucket in two spans and per staged span, the rest
    /// full).
    #[test]
    fn arena_reuses_freed_chunks() {
        let mut q: EventQueue<u32> = EventQueue::with_horizon(Time(1e6), 4096);
        for i in 0..1000 {
            q.push(Time(f64::from(i) * 997.0), i);
            assert_eq!(q.pop(), Some((Time(f64::from(i) * 997.0), i)));
        }
        assert_eq!(q.calendar.chunks.slots.len(), 1);

        let mut next = lcg(7);
        let mut q: EventQueue<u32> = EventQueue::with_horizon(Time(1e6), 4096);
        for i in 0..1000 {
            q.push(Time((next() % 1000) as f64), i);
        }
        let spans = q.calendar.staged.len();
        let bound = |peak_len: usize| 2 * SPAN + spans + peak_len.div_ceil(CHUNK);
        let mut peak_len = q.len();
        for _ in 0..1_000_000 {
            let (now, event) = q.pop().expect("standing population");
            // Mostly far pushes, in bursts that move the peak.
            let burst = if next().is_multiple_of(64) { 3 } else { 1 };
            for _ in 0..burst {
                q.push(now + (next() % 2000) as f64 * 0.5, event);
            }
            if next() % 64 == 1 {
                q.pop();
                q.pop();
            }
            peak_len = peak_len.max(q.len());
            assert!(q.calendar.chunks.slots.len() <= bound(peak_len));
        }
        assert!(peak_len < 2000, "the population random-walks, it does not grow: {peak_len}");
    }

    /// The engine's same-instant bursts (quantized trace timestamps,
    /// purge cascades) push ascending seqs at the time being popped: each
    /// is the near buffer's new maximum and must be O(1), not a front
    /// insert that moves the whole buffer.
    #[test]
    fn same_time_burst_under_the_cursor_is_linear() {
        let started = std::time::Instant::now();
        let mut q: EventQueue<u32> = EventQueue::with_horizon(Time(10.0), 64);
        q.push(Time(5.0), u32::MAX);
        assert_eq!(q.pop(), Some((Time(5.0), u32::MAX)));
        for i in 0..100_000 {
            q.push(Time(5.0), i);
        }
        for i in 0..100_000 {
            assert_eq!(q.pop(), Some((Time(5.0), i)));
        }
        assert!(q.is_empty());
        let took = started.elapsed();
        assert!(took < std::time::Duration::from_secs(2), "took {took:?}");
    }

    #[test]
    fn clone_of_a_half_drained_queue_pops_the_same_sequence() {
        let mut next = lcg(11);
        let mut q: EventQueue<u64> = EventQueue::with_horizon(Time(100.0), 256);
        for i in 0..2000 {
            q.push(Time((next() % 400) as f64 * 0.25), i);
        }
        for _ in 0..1000 {
            q.pop();
        }
        // Entries in both tiers and vacant nodes on the free list.
        q.push(Time(99.0), 2000);
        let mut copy = q.clone();
        for i in 0..500 {
            let at = Time(50.0 + (next() % 200) as f64 * 0.25);
            q.push(at, 3000 + i);
            copy.push(at, 3000 + i);
        }
        assert_eq!(copy.len(), q.len());
        // Every payload is distinct, so equal payloads mean equal keys.
        while let Some(popped) = q.pop() {
            assert_eq!(copy.pop(), Some(popped));
        }
        assert!(copy.is_empty());
    }
}
