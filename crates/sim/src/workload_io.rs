//! Versioned binary on-disk workload format and its streaming reader.
//!
//! Million-ID schedules are too large to hold resident per sweep cell, so
//! the engine can replay them straight from disk: [`write_workload`]
//! serializes a [`Workload`] into a fixed little-endian layout and
//! [`DiskWorkload`] implements [`WorkloadSource`] over buffered readers,
//! keeping resident memory at two read buffers regardless of workload
//! size.
//!
//! # Format (version 1, all integers and floats little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic, the ASCII bytes "SYBWKLD0"
//! 8       4     version (u32) — currently 1
//! 12      4     flags (u32) — reserved, must be 0
//! 16      8     initial_count (u64)
//! 24      8     session_count (u64)
//! 32      8·i   initial departures: initial_count × f64 seconds,
//!               sorted ascending, finite, non-negative
//! …       16·s  sessions: session_count × (join f64, depart f64),
//!               sorted by join ascending, finite, depart ≥ join
//! ```
//!
//! Initial departures are stored *sorted* (the in-memory representation is
//! not): the reader can then stream them with one cursor. The reader
//! numbers them from `2·session_count`, a bound read from the header, so
//! the file is read once, by the replay itself. Relative to an unsorted
//! in-memory source this permutes and shifts the seqs of payload-identical
//! initial-departure events and nothing else, so replayed `SimReport`s are
//! bit-identical either way (see [`WorkloadStream`]'s contract).
//!
//! # Decoding
//!
//! The replay reads one record per event, so the two reads are the hot
//! path: each parses a whole record straight out of the reader's buffer
//! ([`BufReader::buffer`]) and consumes it, and is `#[inline]` and small
//! enough to inline into the event loop. What is rare goes through
//! `#[cold]` helpers: a refill (a record the buffer does not hold whole,
//! one in 512 sessions at the default 8 KiB, which `read_exact` completes
//! across the refill) and the corrupt-record panics, whose formatting
//! kept the reads out of line when it sat in them. The checks are the
//! same on both paths.

use crate::time::Time;
use crate::workload::{Session, SessionIndex, Workload, WorkloadSource, WorkloadStream};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The 8-byte magic at offset 0.
pub const MAGIC: [u8; 8] = *b"SYBWKLD0";
/// The current (and only) format version.
pub const FORMAT_VERSION: u32 = 1;
/// Header length in bytes.
pub const HEADER_LEN: u64 = 32;

fn invalid<T>(msg: String) -> io::Result<T> {
    Err(io::Error::new(io::ErrorKind::InvalidData, msg))
}

/// Serializes `workload` into the on-disk format.
///
/// Sessions are written in join-sorted order and initial departures are
/// sorted ascending; the workload is validated first so a NaN or
/// inverted session can never reach a file.
pub fn write_workload<W: Write>(out: &mut W, workload: &Workload) -> io::Result<()> {
    if let Err(e) = workload.validate() {
        return invalid(format!("refusing to write invalid workload: {e}"));
    }
    let mut initial: Vec<f64> = workload.initial_departures.iter().map(|t| t.as_secs()).collect();
    initial.sort_by(|a, b| a.total_cmp(b));
    out.write_all(&MAGIC)?;
    out.write_all(&FORMAT_VERSION.to_le_bytes())?;
    out.write_all(&0u32.to_le_bytes())?;
    out.write_all(&(initial.len() as u64).to_le_bytes())?;
    out.write_all(&(workload.sessions.len() as u64).to_le_bytes())?;
    for d in initial {
        out.write_all(&d.to_le_bytes())?;
    }
    for s in &workload.sessions {
        out.write_all(&s.join.as_secs().to_le_bytes())?;
        out.write_all(&s.depart.as_secs().to_le_bytes())?;
    }
    Ok(())
}

/// Writes `workload` to `path` (buffered), creating or truncating it.
pub fn write_workload_file<P: AsRef<Path>>(path: P, workload: &Workload) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    write_workload(&mut out, workload)?;
    out.flush()
}

/// A workload backed by a file in the on-disk format.
///
/// Opening reads and checks only the header; the record regions are
/// consumed lazily by the stream. The path is retained so the stream can
/// open independent buffered readers for the two regions.
#[derive(Clone, Debug)]
pub struct DiskWorkload {
    path: PathBuf,
    initial_count: u64,
    session_count: u64,
}

impl DiskWorkload {
    /// Opens `path`, validating magic, version, and that the file length
    /// matches the header's record counts.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<DiskWorkload> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact(&mut header)
            .map_err(|e| io::Error::new(e.kind(), format!("workload header unreadable: {e}")))?;
        if header[0..8] != MAGIC {
            return invalid(format!("bad workload magic {:?}", &header[0..8]));
        }
        let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return invalid(format!(
                "unsupported workload format version {version} (this build reads {FORMAT_VERSION})"
            ));
        }
        let flags = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes"));
        if flags != 0 {
            return invalid(format!("unknown workload flags {flags:#x}"));
        }
        let initial_count = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
        let session_count = u64::from_le_bytes(header[24..32].try_into().expect("8 bytes"));
        // Checked: a header whose counts wrap the length must not open, and
        // the stream's seq bounds (`2·session_count + initial_count`) then
        // fit in a u64 too.
        let expected = initial_count
            .checked_mul(8)
            .zip(session_count.checked_mul(16))
            .and_then(|(i, s)| i.checked_add(s)?.checked_add(HEADER_LEN));
        let actual = file.seek(SeekFrom::End(0))?;
        if expected != Some(actual) {
            let implied = expected.map_or_else(|| "more than 2^64".to_string(), |e| e.to_string());
            return invalid(format!(
                "workload file is {actual} bytes, header implies {implied} \
                 ({initial_count} initial departures + {session_count} sessions)"
            ));
        }
        Ok(DiskWorkload { path, initial_count, session_count })
    }

    /// The file this workload reads from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn sessions_offset(&self) -> u64 {
        HEADER_LEN + self.initial_count * 8
    }

    /// Opens a file handle positioned at `offset`, buffered by `buffer`.
    fn reader_at(
        &self,
        offset: u64,
        buffer: fn(File) -> BufReader<File>,
    ) -> io::Result<BufReader<File>> {
        let mut file = File::open(&self.path)?;
        file.seek(SeekFrom::Start(offset))?;
        Ok(buffer(file))
    }

    /// [`into_stream`](WorkloadSource::into_stream) over readers that
    /// `buffer` builds; the tests shrink the buffer so that records
    /// straddle its refills.
    fn stream_with(self, horizon: Time, buffer: fn(File) -> BufReader<File>) -> DiskStream {
        let fail = |e: &dyn std::fmt::Display| -> ! {
            panic!("workload file {}: {e}", self.path.display())
        };
        DiskStream {
            sessions: self.reader_at(self.sessions_offset(), buffer).unwrap_or_else(|e| fail(&e)),
            initial: self.reader_at(HEADER_LEN, buffer).unwrap_or_else(|e| fail(&e)),
            horizon,
            next_index: 0,
            next_session_seq: 0,
            sessions_remaining: self.session_count,
            prev_join: f64::NEG_INFINITY,
            initial_base: 2 * self.session_count,
            initial_read: 0,
            initial_count: self.initial_count,
            prev_initial: f64::NEG_INFINITY,
            path: self.path,
        }
    }
}

impl WorkloadSource for DiskWorkload {
    type Stream = DiskStream;

    fn initial_size(&self) -> u64 {
        self.initial_count
    }

    fn session_count(&self) -> u64 {
        self.session_count
    }

    /// Opens both record regions for the replay cursors; no record is read
    /// before the replay asks for it.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be opened. The stream itself panics when
    /// it reads a record that violates the format invariants (unsorted,
    /// non-finite, inverted sessions); [`write_workload`] can produce
    /// neither, so this indicates a corrupt or foreign file.
    fn into_stream(self, horizon: Time) -> DiskStream {
        self.stream_with(horizon, BufReader::new)
    }
}

/// Streaming cursor over a [`DiskWorkload`]: two independent buffered
/// readers (sessions and initial departures), each holding one 8 KiB
/// buffer — resident memory is O(1) in the workload size.
///
/// Nothing is counted ahead of the replay, so the sequence numbers come
/// from the header alone: sessions take `0..2·session_count` as in memory
/// (join, then the departure if it is in the horizon), initial departures
/// `2·session_count + k` for the `k`-th stored one, and the floor is
/// `2·session_count + initial_count`. See [`WorkloadStream`] for why the
/// gaps this leaves change nothing.
pub struct DiskStream {
    sessions: BufReader<File>,
    initial: BufReader<File>,
    path: PathBuf,
    horizon: Time,
    next_index: SessionIndex,
    next_session_seq: u64,
    /// Session records not yet read; 0 once the region (or horizon) ends.
    sessions_remaining: u64,
    /// Join time of the last session read, for the sortedness check.
    prev_join: f64,
    /// Seq of the first initial departure, `2·session_count`.
    initial_base: u64,
    /// Initial-departure records read so far; `initial_count` once the
    /// region (or horizon) ends.
    initial_read: u64,
    initial_count: u64,
    /// The last initial departure read, for the sortedness check.
    prev_initial: f64,
}

/// The replay's slow paths, out of line so that the two record reads of
/// the `WorkloadStream` impl below inline into the event loop (see the
/// module docs, "Decoding").
impl DiskStream {
    #[cold]
    #[inline(never)]
    fn refill_session(&mut self) -> [u8; 16] {
        // Record counts were checked at open; a read failure here means
        // the file changed underneath us.
        let mut record = [0u8; 16];
        self.sessions.read_exact(&mut record).unwrap_or_else(|e| {
            panic!("workload file {}: session unreadable mid-replay: {e}", self.path.display())
        });
        record
    }

    #[cold]
    #[inline(never)]
    fn refill_initial(&mut self) -> [u8; 8] {
        let mut record = [0u8; 8];
        self.initial.read_exact(&mut record).unwrap_or_else(|e| {
            panic!(
                "workload file {}: initial departure unreadable mid-replay: {e}",
                self.path.display()
            )
        });
        record
    }

    #[cold]
    #[inline(never)]
    fn corrupt_session(&self, join: f64, depart: f64) -> ! {
        panic!(
            "workload file {}: corrupt session {}: join {join}, depart {depart}",
            self.path.display(),
            self.next_index
        );
    }

    #[cold]
    #[inline(never)]
    fn corrupt_initial(&self, i: u64, d: f64) -> ! {
        panic!(
            "workload file {}: corrupt initial departure {i}: {d} after {}",
            self.path.display(),
            self.prev_initial
        );
    }
}

impl WorkloadStream for DiskStream {
    fn seq_floor(&self) -> u64 {
        self.initial_base + self.initial_count
    }

    /// # Panics
    ///
    /// Panics on a record that is non-finite, departs before it joins or
    /// joins before its predecessor, naming its index (`corrupt session
    /// <i>`), and if the file can no longer be read.
    #[inline]
    fn next_session(&mut self) -> Option<(SessionIndex, Session, u64)> {
        if self.sessions_remaining == 0 {
            return None;
        }
        self.sessions_remaining -= 1;
        let record = match self.sessions.buffer().first_chunk::<16>() {
            Some(&record) => {
                self.sessions.consume(16);
                record
            }
            None => self.refill_session(),
        };
        let record = u128::from_le_bytes(record);
        let (join, depart) = (f64::from_bits(record as u64), f64::from_bits((record >> 64) as u64));
        if !join.is_finite() || !depart.is_finite() || depart < join || join < self.prev_join {
            self.corrupt_session(join, depart);
        }
        self.prev_join = join;
        if Time(join) > self.horizon {
            // Sorted: everything further is out of horizon too.
            self.sessions_remaining = 0;
            return None;
        }
        let session = Session { join: Time(join), depart: Time(depart) };
        let join_seq = self.next_session_seq;
        self.next_session_seq = join_seq + if session.depart <= self.horizon { 2 } else { 1 };
        let index = self.next_index;
        self.next_index += 1;
        Some((index, session, join_seq))
    }

    /// # Panics
    ///
    /// Panics on a record that is non-finite or below its predecessor,
    /// naming its index (`corrupt initial departure <i>`), and if the file
    /// can no longer be read.
    #[inline]
    fn next_initial_departure(&mut self) -> Option<(Time, u64)> {
        if self.initial_read == self.initial_count {
            return None;
        }
        let i = self.initial_read;
        self.initial_read += 1;
        let record = match self.initial.buffer().first_chunk::<8>() {
            Some(&record) => {
                self.initial.consume(8);
                record
            }
            None => self.refill_initial(),
        };
        let d = f64::from_le_bytes(record);
        if !d.is_finite() || d < self.prev_initial {
            self.corrupt_initial(i, d);
        }
        self.prev_initial = d;
        if Time(d) > self.horizon {
            // Sorted: everything further is out of horizon too.
            self.initial_read = self.initial_count;
            return None;
        }
        Some((Time(d), self.initial_base + i))
    }

    fn resident_bytes(&self) -> usize {
        self.sessions.capacity() + self.initial.capacity() + std::mem::size_of::<DiskStream>()
    }
}

/// A [`DiskWorkload`] under the name the frozen `benchmark/` package
/// compiles against: it exists only because
/// `benchmark/src/probes.rs::shard_rates` calls
/// [`from_disk`](Self::from_disk), and it goes when that package is next
/// thawed. It replays exactly as the wrapped workload does, through a
/// plain [`DiskStream`]: there is one event loop and no sharded replay.
#[derive(Clone, Debug)]
pub struct ShardedWorkload(DiskWorkload);

impl ShardedWorkload {
    /// Wraps `workload`; `shards` changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0.
    pub fn from_disk(workload: DiskWorkload, shards: usize) -> ShardedWorkload {
        assert!(shards >= 1, "at least one shard required");
        ShardedWorkload(workload)
    }
}

impl WorkloadSource for ShardedWorkload {
    type Stream = DiskStream;

    fn initial_size(&self) -> u64 {
        self.0.initial_size()
    }

    fn session_count(&self) -> u64 {
        self.0.session_count()
    }

    fn into_stream(self, horizon: Time) -> DiskStream {
        self.0.into_stream(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique temp-file path per call (no tempfile crate offline).
    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("sybil_wkld_{tag}_{}_{n}.bin", std::process::id()))
    }

    fn sample_workload() -> Workload {
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

    #[test]
    fn roundtrip_streams_identical_events() {
        let w = sample_workload();
        let path = temp_path("roundtrip");
        write_workload_file(&path, &w).unwrap();
        let disk = DiskWorkload::open(&path).unwrap();
        assert_eq!(disk.initial_size(), 3);
        assert_eq!(disk.session_count(), 4);

        let horizon = Time(10.0);
        let mut mem = w.into_stream(horizon);
        let mut dsk = disk.into_stream(horizon);
        let mut session_seqs = Vec::new();
        loop {
            let (a, b) = (mem.next_session(), dsk.next_session());
            assert_eq!(a, b);
            match a {
                Some((_, s, seq)) => {
                    session_seqs.push(seq);
                    if s.depart <= horizon {
                        session_seqs.push(seq + 1);
                    }
                }
                None => break,
            }
        }
        // Initial departures: identical times in ascending order. The disk
        // stream's seqs ascend, sit above every session seq, and every seq
        // is below its floor: the orders the contract asks for.
        let mem_initial: Vec<(Time, u64)> =
            std::iter::from_fn(|| mem.next_initial_departure()).collect();
        let dsk_initial: Vec<(Time, u64)> =
            std::iter::from_fn(|| dsk.next_initial_departure()).collect();
        assert_eq!(
            mem_initial.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            dsk_initial.iter().map(|(t, _)| *t).collect::<Vec<_>>()
        );
        assert_eq!(dsk_initial.len(), 2, "7.0 and 2.0 are in the horizon, 50.0 is not");
        let initial_seqs: Vec<u64> = dsk_initial.iter().map(|(_, s)| *s).collect();
        assert!(initial_seqs.windows(2).all(|w| w[0] < w[1]), "{initial_seqs:?}");
        let last_session = *session_seqs.iter().max().expect("in-horizon sessions");
        assert!(initial_seqs[0] > last_session, "{initial_seqs:?} vs {session_seqs:?}");
        let floor = dsk.seq_floor();
        assert!(session_seqs.iter().chain(&initial_seqs).all(|&s| s < floor), "floor {floor}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_bad_magic_version_and_truncation() {
        let w = sample_workload();
        let path = temp_path("reject");
        write_workload_file(&path, &w).unwrap();
        let good = std::fs::read(&path).unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        std::fs::write(&path, &bad_magic).unwrap();
        assert!(DiskWorkload::open(&path).unwrap_err().to_string().contains("magic"));

        let mut bad_version = good.clone();
        bad_version[8] = 99;
        std::fs::write(&path, &bad_version).unwrap();
        assert!(DiskWorkload::open(&path).unwrap_err().to_string().contains("version"));

        let truncated = &good[..good.len() - 8];
        std::fs::write(&path, truncated).unwrap();
        assert!(DiskWorkload::open(&path).unwrap_err().to_string().contains("bytes"));

        // 2^60 sessions of 16 bytes wrap an unchecked length to 0, which
        // a bare header would match.
        let mut wrapping = good[..HEADER_LEN as usize].to_vec();
        wrapping[16..24].copy_from_slice(&0u64.to_le_bytes());
        wrapping[24..32].copy_from_slice(&(1u64 << 60).to_le_bytes());
        std::fs::write(&path, &wrapping).unwrap();
        let err = DiskWorkload::open(&path).unwrap_err().to_string();
        assert!(err.contains("more than 2^64"), "{err}");

        std::fs::write(&path, &good).unwrap();
        assert!(DiskWorkload::open(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_rejects_invalid_workloads() {
        let nan = Workload { initial_departures: vec![Time(f64::NAN)], sessions: vec![] };
        let mut sink = Vec::new();
        let err = write_workload(&mut sink, &nan).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    /// Writes a file in the on-disk format without the writer's checks, so
    /// the records reach the reader exactly as given.
    fn write_raw(path: &Path, initial: &[f64], sessions: &[(f64, f64)]) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&(initial.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&(sessions.len() as u64).to_le_bytes());
        for d in initial {
            bytes.extend_from_slice(&d.to_le_bytes());
        }
        for (join, depart) in sessions {
            bytes.extend_from_slice(&join.to_le_bytes());
            bytes.extend_from_slice(&depart.to_le_bytes());
        }
        std::fs::write(path, bytes).unwrap();
    }

    /// A file whose header is sound but whose records break the format
    /// opens, and its replay stops with a panic naming the first bad
    /// record: an inverted, NaN, infinite (either end) or out-of-order
    /// session, or an out-of-order or NaN initial departure. The same
    /// panic comes from a stream over 24-byte buffers, where the record
    /// may arrive split across a refill.
    #[test]
    fn corrupt_records_panic_during_replay() {
        use crate::adversary::NullAdversary;
        use crate::engine::{SimConfig, Simulation};
        use crate::testutil::UnitCostDefense;
        type Case = (&'static [f64], &'static [(f64, f64)], &'static str);
        let cases: [Case; 8] = [
            (&[], &[(1.0, 2.0), (3.0, 4.0), (2.0, 5.0)], "corrupt session 2:"),
            (&[7.0], &[(1.0, 2.0), (f64::NAN, 3.0)], "corrupt session 1:"),
            (&[7.0], &[(1.0, 2.0), (3.0, f64::INFINITY)], "corrupt session 1:"),
            (&[7.0], &[(1.0, 2.0), (3.0, 2.5)], "corrupt session 1:"),
            (
                &[],
                &[(1.0, 2.0), (3.0, 4.0), (5.0, 6.0), (f64::INFINITY, 7.0)],
                "corrupt session 3:",
            ),
            (&[1.0, 5.0, 3.0], &[(1.0, 2.0)], "corrupt initial departure 2:"),
            (&[1.0, 5.0, 6.0, 3.0], &[(1.0, 2.0)], "corrupt initial departure 3:"),
            (&[1.0, f64::NAN], &[], "corrupt initial departure 1:"),
        ];
        let through_the_engine = |disk: DiskWorkload| {
            let cfg = SimConfig { horizon: Time(100.0), ..SimConfig::default() };
            Simulation::new(cfg, UnitCostDefense::new(), NullAdversary, disk).run();
        };
        let through_tiny_buffers = |disk: DiskWorkload| {
            drain(disk.stream_with(Time(100.0), tiny_buffer));
        };
        let replays: [&dyn Fn(DiskWorkload); 2] = [&through_the_engine, &through_tiny_buffers];
        for (initial, sessions, want) in cases {
            let path = temp_path("corrupt");
            write_raw(&path, initial, sessions);
            for replay in replays {
                let disk = DiskWorkload::open(&path).expect("header and length are sound");
                let replay =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| replay(disk)));
                let payload = replay.expect_err(want);
                let message = payload.downcast_ref::<String>().expect("a formatted panic message");
                assert!(message.contains(want), "{want}: {message}");
            }
            std::fs::remove_file(&path).ok();
        }
    }

    /// A 24-byte read buffer: every other 16-byte session record
    /// straddles a refill.
    fn tiny_buffer(file: File) -> BufReader<File> {
        BufReader::with_capacity(24, file)
    }

    /// A stream's sessions and initial departures, as it yields them.
    type Records = (Vec<(SessionIndex, Session, u64)>, Vec<(Time, u64)>);

    /// Every record, in order, that `stream` yields.
    fn drain(mut stream: impl WorkloadStream) -> Records {
        let sessions = std::iter::from_fn(|| stream.next_session()).collect();
        let initial = std::iter::from_fn(|| stream.next_initial_departure()).collect();
        (sessions, initial)
    }

    /// Records split across refills decode as whole ones: a stream over
    /// 24-byte buffers yields what the default 8 KiB stream and the
    /// in-memory stream yield, over thousands of records, with sessions
    /// and departures ending inside and past the horizon.
    #[test]
    fn records_straddling_the_read_buffer_replay_the_same_events() {
        let mut next = 0x5eed_u64;
        let mut draw = move || {
            next = next.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (next >> 11) as f64 / (1u64 << 53) as f64
        };
        let initial = (0..1500).map(|_| Time(draw() * 1200.0)).collect();
        let mut joins: Vec<f64> = (0..3000).map(|_| draw() * 1200.0).collect();
        joins.sort_by(f64::total_cmp);
        let sessions =
            joins.iter().map(|&j| Session::new(Time(j), Time(j + draw() * 300.0))).collect();
        let w = Workload::new(initial, sessions);
        let path = temp_path("straddle");
        write_workload_file(&path, &w).unwrap();
        let horizon = Time(1000.0);
        let tiny = drain(DiskWorkload::open(&path).unwrap().stream_with(horizon, tiny_buffer));
        let default = drain(DiskWorkload::open(&path).unwrap().into_stream(horizon));
        std::fs::remove_file(&path).ok();
        assert_eq!(tiny, default);
        let memory = drain(w.into_stream(horizon));
        assert_eq!(tiny.0, memory.0);
        let times = |initial: &[(Time, u64)]| initial.iter().map(|&(t, _)| t).collect::<Vec<_>>();
        assert_eq!(times(&tiny.1), times(&memory.1));
        assert!(tiny.0.len() > 2000 && tiny.1.len() > 1000, "most records are in the horizon");
    }

    #[test]
    fn empty_workload_roundtrips() {
        let path = temp_path("empty");
        write_workload_file(&path, &Workload::default()).unwrap();
        let disk = DiskWorkload::open(&path).unwrap();
        assert_eq!(disk.initial_size(), 0);
        assert_eq!(disk.session_count(), 0);
        let mut stream = disk.into_stream(Time(100.0));
        assert_eq!(stream.seq_floor(), 0);
        assert_eq!(stream.next_session(), None);
        assert_eq!(stream.next_initial_departure(), None);
        std::fs::remove_file(&path).ok();
    }
}
