//! Good-ID workloads: the churn schedule a simulation replays.
//!
//! A workload is the sessions of *good* IDs only — the adversary schedules
//! its own Sybil IDs reactively. Workloads come from `sybil-churn`'s trace
//! generators or are constructed directly in tests.
//!
//! The engine does not consume a [`Workload`] directly: it pulls events
//! through the [`WorkloadSource`]/[`WorkloadStream`] traits, which
//! [`Workload`] implements in memory and
//! [`crate::workload_io::DiskWorkload`] implements over a buffered file
//! reader, so million-ID schedules never have to be resident at once.

use crate::time::Time;

/// Index of a session within its workload.
///
/// The engine packs this into event payloads, so it is deliberately a
/// 32-bit type: workloads are capped at [`SessionIndex::MAX`] sessions
/// (enforced by `Simulation::try_new` with a structured error).
pub type SessionIndex = u32;

/// One good ID's session: present from `join` until `depart`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Session {
    /// When the ID requests to join.
    pub join: Time,
    /// When the ID departs (may exceed the simulation horizon).
    pub depart: Time,
}

impl Session {
    /// Creates a session.
    ///
    /// # Panics
    ///
    /// Panics if `depart < join` or either time is non-finite. A NaN join
    /// would silently corrupt the sorted-cursor merge ordering in the
    /// engine (every comparison against NaN is false), so it is rejected
    /// at construction.
    pub fn new(join: Time, depart: Time) -> Self {
        assert!(
            join.as_secs().is_finite() && depart.as_secs().is_finite(),
            "session times must be finite (got join {}, depart {})",
            join.as_secs(),
            depart.as_secs()
        );
        assert!(depart >= join, "session departs before it joins");
        Session { join, depart }
    }
}

/// The good-ID churn schedule for one simulation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Workload {
    /// Departure times of the IDs present at `t = 0`.
    pub initial_departures: Vec<Time>,
    /// Sessions of IDs arriving after `t = 0`, sorted by join time.
    pub sessions: Vec<Session>,
}

impl Workload {
    /// Creates a workload, sorting sessions by join time.
    pub fn new(initial_departures: Vec<Time>, mut sessions: Vec<Session>) -> Self {
        sessions.sort_by_key(|s| s.join);
        Workload { initial_departures, sessions }
    }

    /// Number of good IDs present at `t = 0`.
    pub fn initial_size(&self) -> u64 {
        self.initial_departures.len() as u64
    }

    /// Validates internal consistency; used by generators and tests.
    ///
    /// Checks that sessions are sorted, non-negative-length, and that all
    /// times (session joins/departs and initial departures) are finite.
    /// NaN must be rejected explicitly: every comparison against it is
    /// false, so the sortedness and ordering checks below would silently
    /// pass a NaN-corrupted schedule straight into the engine's
    /// sorted-cursor merge.
    pub fn validate(&self) -> Result<(), String> {
        for (i, &d) in self.initial_departures.iter().enumerate() {
            if !d.as_secs().is_finite() {
                return Err(format!("initial departure {i} is non-finite: {}", d.as_secs()));
            }
        }
        for (i, s) in self.sessions.iter().enumerate() {
            if !s.join.as_secs().is_finite() || !s.depart.as_secs().is_finite() {
                return Err(format!(
                    "session {i} has non-finite times: join {}, depart {}",
                    s.join.as_secs(),
                    s.depart.as_secs()
                ));
            }
            if s.depart < s.join {
                return Err(format!("session {i} departs before joining"));
            }
        }
        for w in self.sessions.windows(2) {
            if w[1].join < w[0].join {
                return Err(format!("sessions out of order: {} after {}", w[1].join, w[0].join));
            }
        }
        Ok(())
    }
}

/// A provider of workload events the engine can replay.
///
/// Implementations own the schedule in whatever representation suits them
/// (resident vectors, a buffered disk reader, a synthetic generator) and
/// are consumed into a [`WorkloadStream`] once the horizon is known.
pub trait WorkloadSource {
    /// The stream type this source opens.
    type Stream: WorkloadStream;

    /// Number of good IDs present at `t = 0`.
    fn initial_size(&self) -> u64;

    /// Total number of arrival sessions in the schedule (including any
    /// past the horizon).
    fn session_count(&self) -> u64;

    /// Consumes the source into a stream of in-horizon events, each
    /// carrying a sequence number that keeps the orders described in
    /// [`WorkloadStream`].
    fn into_stream(self, horizon: Time) -> Self::Stream;

    /// Unread by the engine; kept because the frozen `benchmark/` implements it.
    fn state_shards(&self) -> usize {
        1
    }

    /// Whether the engine should eagerly allocate the full admission map
    /// before the event loop starts. Fully resident sources opt in: their
    /// session universe already occupies memory, so lazy segments buy no
    /// residency story and only cost first-touch allocations inside the
    /// measured steady-state loop. Streamed sources keep the lazy default
    /// so admission residency stays proportional to the touched ID space.
    /// The canonical `admission_bytes` gauge counts *touched* segments
    /// either way, so reports are identical under both policies.
    fn preallocate_admission(&self) -> bool {
        false
    }
}

/// Unused by the engine; kept because the frozen `benchmark/` names it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StreamEvent {
    /// Session `index` joins.
    Join(SessionIndex),
    /// Session `index` (if admitted at join time) departs; the carried
    /// time is the join time, which the defense needs for lifetime
    /// accounting — the engine never re-reads the schedule record.
    Depart(SessionIndex, Time),
    /// One of the IDs present at `t = 0` departs.
    InitialDepart,
}

/// A cursor over one workload's in-horizon events.
///
/// # The sequence-number contract
///
/// Simulations must be bit-reproducible, and streams must replay exactly
/// what an eager scheduler (all events queued up front) would have
/// produced. The engine breaks same-instant ties by sequence number, and
/// the eager scheduler numbered sessions in input order (join, then the
/// departure if it falls within the horizon), then in-horizon initial
/// departures in input order, then dynamic events (adversary wakeups,
/// purges, periodic charges, samples) as they were scheduled. A stream
/// must keep every order that numbering decides:
///
/// * session seqs are exactly the eager ones (join seq `s`, departure
///   `s + 1`; the engine derives the departure's seq from the join's);
/// * every initial-departure seq is above every session seq;
/// * each feed is yielded in ascending key order — sessions by
///   `(join, seq)`, initial departures by `(time, seq)` — because the
///   engine holds only each feed's head and merges it with its queue;
/// * [`seq_floor`](Self::seq_floor) is above every seq the stream
///   yields: the engine reserves `0..floor`, and dynamic events draw
///   numbers from the floor up.
///
/// The floor is a bound, not a count: the in-memory stream packs the
/// numbers, while the on-disk stream, which counts nothing ahead of the
/// replay, numbers initial departures from `2·session_count` in stored
/// (sorted) order, with the floor `2·session_count + initial_count`.
/// Initial departures are payload-identical, so shifting or permuting
/// seqs within their block changes no observable pop sequence — and with
/// it no `SimReport` field.
pub trait WorkloadStream {
    /// An upper bound on the sequence numbers this stream yields: the
    /// engine reserves `0..floor` for them.
    fn seq_floor(&self) -> u64;

    /// Next session in `(join, seq)` order, as `(index, session, join seq)`.
    /// Returns `None` once all in-horizon sessions have been yielded.
    fn next_session(&mut self) -> Option<(SessionIndex, Session, u64)>;

    /// Next in-horizon initial departure in ascending `(time, seq)` order.
    fn next_initial_departure(&mut self) -> Option<(Time, u64)>;

    /// Approximate resident bytes held by this stream (buffers, cursors,
    /// and any retained schedule data), for memory reporting.
    fn resident_bytes(&self) -> usize;

    /// Unread by the engine; kept because the frozen `benchmark/` implements it.
    fn merged(&self) -> bool {
        false
    }

    /// Never called by the engine; kept because the frozen `benchmark/` implements it.
    fn next_event(&mut self) -> Option<(Time, u64, StreamEvent)> {
        None
    }
}

/// In-memory stream over a [`Workload`].
///
/// Retains the workload vectors (they are already resident) and the
/// descending-sorted initial-departure cursor; sessions stream straight
/// off their join-sorted vector.
pub struct MemoryStream {
    workload: Workload,
    horizon: Time,
    /// Index of the next session whose join has not been yielded.
    next_session: usize,
    /// Sequence number for the next session event.
    next_session_seq: u64,
    /// In-horizon initial departures as `(time, seq)`, sorted descending
    /// so the next one pops off the tail.
    initial: Vec<(Time, u64)>,
    seq_floor: u64,
}

impl WorkloadSource for Workload {
    type Stream = MemoryStream;

    fn initial_size(&self) -> u64 {
        self.initial_departures.len() as u64
    }

    fn session_count(&self) -> u64 {
        self.sessions.len() as u64
    }

    /// In-memory workloads are fully resident; eager admission segments
    /// keep the engine's steady-state loop allocation-free.
    fn preallocate_admission(&self) -> bool {
        true
    }

    /// One O(n) pass assigns every in-horizon workload event the sequence
    /// number an eager scheduler would have used (see [`WorkloadStream`]).
    ///
    /// # Panics
    ///
    /// Panics if the sessions are not sorted by join time, as
    /// [`Workload::new`] leaves them (the fields are public, so a
    /// hand-built workload can break that).
    fn into_stream(self, horizon: Time) -> MemoryStream {
        let sessions = &self.sessions;
        assert!(
            sessions.windows(2).all(|w| w[0].join <= w[1].join),
            "sessions must be sorted by join time, as Workload::new sorts them"
        );
        let mut seq = 0u64;
        for s in sessions {
            if s.join <= horizon {
                seq += 1;
                if s.depart <= horizon {
                    seq += 1;
                }
            }
        }
        let mut initial: Vec<(Time, u64)> = Vec::with_capacity(self.initial_departures.len());
        for &d in &self.initial_departures {
            if d <= horizon {
                initial.push((d, seq));
                seq += 1;
            }
        }
        initial.sort_by(|a, b| b.cmp(a));
        MemoryStream {
            workload: self,
            horizon,
            next_session: 0,
            next_session_seq: 0,
            initial,
            seq_floor: seq,
        }
    }
}

impl WorkloadStream for MemoryStream {
    fn seq_floor(&self) -> u64 {
        self.seq_floor
    }

    fn next_session(&mut self) -> Option<(SessionIndex, Session, u64)> {
        let i = self.next_session;
        let s = self.workload.sessions.get(i).copied()?;
        if s.join > self.horizon {
            // Sessions are sorted: everything further is out too.
            self.next_session = self.workload.sessions.len();
            return None;
        }
        let join_seq = self.next_session_seq;
        self.next_session = i + 1;
        self.next_session_seq = join_seq + if s.depart <= self.horizon { 2 } else { 1 };
        Some((i as SessionIndex, s, join_seq))
    }

    fn next_initial_departure(&mut self) -> Option<(Time, u64)> {
        self.initial.pop()
    }

    fn resident_bytes(&self) -> usize {
        self.workload.sessions.capacity() * std::mem::size_of::<Session>()
            + self.workload.initial_departures.capacity() * std::mem::size_of::<Time>()
            + self.initial.capacity() * std::mem::size_of::<(Time, u64)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_sorts_sessions() {
        let w = Workload::new(
            vec![Time(100.0)],
            vec![Session::new(Time(5.0), Time(6.0)), Session::new(Time(1.0), Time(9.0))],
        );
        assert_eq!(w.sessions[0].join, Time(1.0));
        assert_eq!(w.initial_size(), 1);
        w.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "departs before")]
    fn bad_session_panics() {
        let _ = Session::new(Time(2.0), Time(1.0));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_join_panics() {
        let _ = Session::new(Time(f64::NAN), Time(1.0));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_depart_panics() {
        let _ = Session::new(Time(1.0), Time(f64::INFINITY));
    }

    #[test]
    fn validate_rejects_non_finite_times() {
        // Constructed via struct literals: deserializers or generators that
        // bypass Session::new must still be caught by validate().
        let nan_join = Workload {
            initial_departures: vec![],
            sessions: vec![Session { join: Time(f64::NAN), depart: Time(2.0) }],
        };
        assert!(nan_join.validate().unwrap_err().contains("non-finite"));
        let inf_depart = Workload {
            initial_departures: vec![],
            sessions: vec![Session { join: Time(1.0), depart: Time(f64::INFINITY) }],
        };
        assert!(inf_depart.validate().unwrap_err().contains("non-finite"));
        let nan_initial = Workload { initial_departures: vec![Time(f64::NAN)], sessions: vec![] };
        assert!(nan_initial.validate().unwrap_err().contains("non-finite"));
    }

    #[test]
    fn memory_stream_yields_in_horizon_events_with_seqs() {
        let w = Workload::new(
            vec![Time(2.0), Time(50.0), Time(1.0)],
            vec![
                Session::new(Time(1.0), Time(3.0)),   // join seq 0, depart seq 1
                Session::new(Time(2.0), Time(99.0)),  // join seq 2 (depart out)
                Session::new(Time(30.0), Time(31.0)), // out of horizon entirely
            ],
        );
        let mut stream = w.into_stream(Time(10.0));
        // Sessions: seqs 0..3; initial departures in input order: 3, 4.
        assert_eq!(stream.seq_floor(), 5);
        assert_eq!(stream.next_session(), Some((0, Session::new(Time(1.0), Time(3.0)), 0)));
        assert_eq!(stream.next_session(), Some((1, Session::new(Time(2.0), Time(99.0)), 2)));
        assert_eq!(stream.next_session(), None);
        // Initial departures ascend by time; 50.0 is past the horizon.
        assert_eq!(stream.next_initial_departure(), Some((Time(1.0), 4)));
        assert_eq!(stream.next_initial_departure(), Some((Time(2.0), 3)));
        assert_eq!(stream.next_initial_departure(), None);
        assert!(stream.resident_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "Workload::new")]
    fn memory_stream_rejects_unsorted_sessions() {
        // Hand-built, bypassing Workload::new's sort.
        let w = Workload {
            initial_departures: vec![],
            sessions: vec![Session::new(Time(5.0), Time(6.0)), Session::new(Time(1.0), Time(9.0))],
        };
        let _ = w.into_stream(Time(10.0));
    }
}
