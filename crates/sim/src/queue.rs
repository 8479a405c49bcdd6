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
//! `[0, horizon]` divided into fixed-width buckets, in two tiers split at
//! a cursor that only moves forward:
//!
//! * **Far** — buckets after the cursor. A bucket is an unordered singly
//!   linked list through one node arena shared by all buckets; `heads`
//!   holds one `u32` per bucket (at most 256 KiB). A push takes the node
//!   the last unlink freed and links it at its bucket's head: no compare,
//!   no search, no allocator call.
//! * **Near** — one sorted buffer holding every entry whose bucket is at
//!   or behind the cursor. When it runs dry the cursor moves to the next
//!   occupied bucket, whose list is unlinked into the buffer and sorted
//!   once. Pops take the buffer's front; a push at or behind the cursor
//!   is inserted in order, O(1) when it is the new maximum (the engine's
//!   pop-then-push-a-successor pattern) or the new minimum.
//!
//! Simulation time only moves forward, so push and pop are amortized
//! `O(1)` when events spread over the horizon, which is exactly the
//! engine's workload, and the memory is the arena: one node per far entry
//! at the peak, reused through a free list. Events past the horizon share
//! one overflow bucket (the engine stops at the first such event anyway).
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
/// assert_eq!(q.peek(), Some((Time(1.0), &"a")));
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

/// "No node": the end of a bucket's list and of the free list.
const NIL: u32 = u32::MAX;

/// One arena slot: a far entry linked into its bucket's list, or a vacant
/// slot (`entry` is `None`) linked into the free list.
#[derive(Clone, Debug)]
struct Node<E> {
    next: u32,
    entry: Option<Entry<E>>,
}

/// Arena and near-buffer capacity reserved at construction, outside the
/// engine's measured span: the fully resident scenarios never outgrow it,
/// so their loops stay at zero allocations. Deeper queues double from it.
const ARENA_RESERVE: usize = 1024;
const NEAR_RESERVE: usize = 256;

/// The calendar: fixed-width buckets over `[0, horizon]`, plus one
/// overflow bucket for times past the horizon (see the module docs).
#[derive(Clone, Debug)]
struct Calendar<E> {
    /// Per bucket after the cursor, the arena index of the first node of
    /// its list ([`NIL`] when empty). Buckets at or behind the cursor are
    /// always empty here: their entries live in `near`.
    heads: Vec<u32>,
    nodes: Vec<Node<E>>,
    /// First vacant node, chained through `next`.
    free: u32,
    /// Every entry whose bucket is `<= cursor`, ascending by `(time, seq)`.
    near: VecDeque<Entry<E>>,
    /// Buckets per second (`n_buckets / horizon`).
    inv_width: f64,
    cursor: usize,
    /// Entries in both tiers.
    len: usize,
}

impl<E> Calendar<E> {
    fn new(horizon: Time, n_buckets: usize) -> Self {
        let n = n_buckets.max(1);
        Calendar {
            heads: vec![NIL; n + 1],
            nodes: Vec::with_capacity(ARENA_RESERVE),
            free: NIL,
            near: VecDeque::with_capacity(NEAR_RESERVE),
            inv_width: n as f64 / horizon.as_secs().max(f64::MIN_POSITIVE),
            cursor: 0,
            len: 0,
        }
    }

    fn bucket_index(&self, at: Time) -> usize {
        // Times before 0 clamp to bucket 0, times past the horizon to the
        // overflow bucket (last index).
        let raw = at.as_secs().max(0.0) * self.inv_width;
        (raw as usize).min(self.heads.len() - 1)
    }

    fn push(&mut self, entry: Entry<E>) {
        let idx = self.bucket_index(entry.at);
        self.len += 1;
        if idx > self.cursor {
            let node = Node { next: self.heads[idx], entry: Some(entry) };
            self.heads[idx] = match self.free {
                NIL => {
                    let slot = self.nodes.len();
                    assert!(slot < NIL as usize, "event queue arena outgrew its u32 node indices");
                    self.nodes.push(node);
                    slot as u32
                }
                slot => {
                    self.free = std::mem::replace(&mut self.nodes[slot as usize], node).next;
                    slot
                }
            };
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

    /// Moves the cursor to the next occupied bucket (every entry is in the
    /// far tier, so there is one) and unlinks its list into `near`, sorted.
    fn load_next_bucket(&mut self) {
        debug_assert!(self.near.is_empty() && self.len > 0);
        self.cursor += 1;
        while self.heads[self.cursor] == NIL {
            self.cursor += 1;
        }
        let mut slot = std::mem::replace(&mut self.heads[self.cursor], NIL);
        while slot != NIL {
            let node = &mut self.nodes[slot as usize];
            self.near.push_back(node.entry.take().expect("linked node holds an entry"));
            let next = std::mem::replace(&mut node.next, self.free);
            self.free = slot;
            slot = next;
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

    fn peek(&self) -> Option<&Entry<E>> {
        if !self.near.is_empty() || self.len == 0 {
            return self.near.front();
        }
        // Nothing at or behind the cursor: the minimum is the least entry
        // of the next occupied bucket, found without unlinking it.
        let mut slot = *self.heads[self.cursor + 1..].iter().find(|&&head| head != NIL)?;
        let mut min: Option<&Entry<E>> = None;
        while slot != NIL {
            let node = &self.nodes[slot as usize];
            let entry = node.entry.as_ref().expect("linked node holds an entry");
            if min.is_none_or(|m| entry.key() < m.key()) {
                min = Some(entry);
            }
            slot = node.next;
        }
        min
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
        let seq = self.seq;
        self.seq += 1;
        self.calendar.push(Entry { at, seq, event });
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

    /// Removes and returns the earliest event together with its full
    /// `(time, seq)` ordering key.
    ///
    /// The merged (sharded) engine loop compares this key against the
    /// heads of external pre-ordered feeds, so it needs the sequence
    /// number [`pop`](Self::pop) discards.
    pub fn pop_keyed(&mut self) -> Option<(Time, u64, E)> {
        self.calendar.pop().map(|e| (e.at, e.seq, e.event))
    }

    /// The earliest pending event, if any, without removing it.
    pub fn peek(&self) -> Option<(Time, &E)> {
        self.calendar.peek().map(|e| (e.at, &e.event))
    }

    /// Full `(time, seq)` ordering key of the earliest pending event.
    pub fn peek_key(&self) -> Option<(Time, u64)> {
        self.calendar.peek().map(|e| e.key())
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
    fn peek_and_len() {
        let mut q = queue();
        assert!(q.is_empty());
        assert_eq!(q.peek(), None);
        q.push(Time(5.0), 0);
        assert_eq!(q.peek(), Some((Time(5.0), &0)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn keyed_accessors_expose_seq() {
        let mut q = queue();
        q.push(Time(2.0), 20); // seq 0
        q.push(Time(1.0), 10); // seq 1
        q.push(Time(2.0), 21); // seq 2
        assert_eq!(q.peek_key(), Some((Time(1.0), 1)));
        assert_eq!(q.pop_keyed(), Some((Time(1.0), 1, 10)));
        assert_eq!(q.peek_key(), Some((Time(2.0), 0)));
        assert_eq!(q.pop_keyed(), Some((Time(2.0), 0, 20)));
        assert_eq!(q.pop_keyed(), Some((Time(2.0), 2, 21)));
        assert_eq!(q.pop_keyed(), None);
        assert_eq!(q.peek_key(), None);
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
    /// calendar must agree with it on interleaved push/pop sequences
    /// (FIFO tie-breaking included), shallow and at depth: after every
    /// operation `peek_key` is the key the next `pop_keyed` returns and
    /// `len` matches. Times are coarse (multiples of 0.25) to force exact
    /// ties, and land at the cursor's bucket, behind it, before zero,
    /// past the horizon and anywhere on the horizon.
    #[test]
    fn calendar_agrees_with_reference_model() {
        use std::collections::BTreeMap;
        const HORIZON: f64 = 64.0;
        let mut next = lcg(0x1234_5678_9abc_def0);
        let shapes = std::iter::repeat_n((0usize, 400usize), 50).chain([(10_000, 100_000)]);
        for (trial, (standing, ops)) in shapes.enumerate() {
            let mut q: EventQueue<u64> = EventQueue::with_horizon(Time(HORIZON), standing + 128);
            let mut reference: BTreeMap<(Time, u64), u64> = BTreeMap::new();
            let mut seq = 0u64;
            let mut now = 0.0f64;
            for op in 0..standing + ops {
                let r = next();
                if op < standing || r.is_multiple_of(2) || reference.is_empty() {
                    let step = ((r >> 4) % 256) as f64 * 0.25;
                    let at = match (r >> 1) % 8 {
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
                    let ((at, s), want) = reference.pop_first().expect("non-empty");
                    assert_eq!(q.pop_keyed(), Some((at, s, want)), "trial {trial} op {op}");
                    now = at.as_secs();
                }
                assert_eq!(q.peek_key(), reference.keys().next().copied(), "trial {trial} op {op}");
                assert_eq!(q.len(), reference.len());
            }
            // Drain; both must agree to the end.
            for ((at, s), want) in reference {
                assert_eq!(q.peek_key(), Some((at, s)), "trial {trial}");
                assert_eq!(q.pop_keyed(), Some((at, s, want)), "trial {trial}");
            }
            assert!(q.pop().is_none() && q.is_empty() && q.peek().is_none());
        }
    }

    /// A node freed by an unlink is the next one a far push takes: the
    /// arena never holds more nodes than entries were pending at once.
    #[test]
    fn arena_reuses_freed_nodes() {
        let mut next = lcg(7);
        let mut q: EventQueue<u32> = EventQueue::with_horizon(Time(1e6), 4096);
        for i in 0..1000 {
            q.push(Time((next() % 1000) as f64), i);
        }
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
            assert!(q.calendar.nodes.len() <= peak_len);
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

    /// `run_merged` peeks once per step at a queue that is empty for whole
    /// replays (T = 0): that must not walk the 65 537 bucket heads.
    #[test]
    fn peek_at_an_empty_queue_does_not_scan() {
        let started = std::time::Instant::now();
        let mut q: EventQueue<u32> = EventQueue::with_horizon(Time(10.0), 65_536);
        q.push(Time(1.0), 0);
        q.pop();
        for _ in 0..100_000 {
            assert_eq!(q.peek_key(), None);
        }
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
        while let Some(popped) = q.pop_keyed() {
            assert_eq!(copy.pop_keyed(), Some(popped));
        }
        assert!(copy.is_empty());
    }
}
