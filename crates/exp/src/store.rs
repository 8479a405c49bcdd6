//! Append-only, resumable per-cell results store.
//!
//! A store is one text file: a versioned header binding it to a spec
//! fingerprint, then one `cell` line per finished grid cell. Lines are
//! appended (and flushed) as cells complete, so a killed run loses at most
//! the in-flight cells; re-running the same experiment loads the store,
//! skips every recorded cell, and appends only the remainder.
//!
//! # Format (version 1)
//!
//! ```text
//! sybil-exp-results v1
//! spec_fingerprint = <64 hex chars>
//! cell <id> <name>=<f64 bits as 0x hex>,<name>=...
//! ```
//!
//! Field values are stored as `0x`-prefixed bit patterns: resumed cells
//! must reproduce *exactly* what the original run measured, so the store
//! never round-trips floats through decimal.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Format tag on the first line of a store file.
pub const STORE_MAGIC: &str = "sybil-exp-results";
/// Current (and only) store format version.
pub const STORE_VERSION: u32 = 1;

/// How hard an append pushes a record toward the platter.
///
/// [`Durability::Flush`] hands the line to the OS (one `write(2)` per
/// append): a killed *process* loses at most in-flight cells, but a
/// kernel panic or power cut can still lose recently appended ones.
/// [`Durability::Sync`] adds `fdatasync(2)` per append, so a record the
/// store acknowledged survives machine crashes too — the mode
/// crash-safety-critical runs (e.g. `invariants_millions`) default to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Durability {
    /// Write-and-flush to the OS; no fsync. The default.
    #[default]
    Flush,
    /// `fdatasync` after every append (and after the header on create).
    Sync,
}

/// One finished cell: its id plus named metric values.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// The cell id (see `CellSpec::id`).
    pub cell_id: String,
    /// Named metric values, in insertion order.
    pub fields: Vec<(String, f64)>,
}

impl Record {
    /// Creates a record; field names must be non-empty and free of the
    /// format's separators.
    pub fn new(cell_id: impl Into<String>, fields: Vec<(String, f64)>) -> Record {
        let record = Record { cell_id: cell_id.into(), fields };
        debug_assert!(record.validate().is_ok(), "{:?}", record.validate());
        record
    }

    fn validate(&self) -> Result<(), String> {
        if self.cell_id.is_empty() || self.cell_id.chars().any(|c| c.is_whitespace()) {
            return Err(format!(
                "cell id {:?} must be non-empty, without whitespace",
                self.cell_id
            ));
        }
        for (name, _) in &self.fields {
            if name.is_empty() || name.chars().any(|c| c.is_whitespace() || c == ',' || c == '=') {
                return Err(format!("field name {name:?} contains a reserved character"));
            }
        }
        Ok(())
    }

    /// Looks up a field by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.fields.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// The file handle plus the length of the durable, well-formed prefix.
/// Tracking `valid_len` lets a failed append *self-heal*: the file is
/// truncated back to the last good record, so a torn write can never
/// corrupt the line a later append starts.
#[derive(Debug)]
struct StoreWriter {
    file: File,
    valid_len: u64,
    durability: Durability,
}

/// The append-only results store for one experiment.
///
/// Appends are serialized through an internal lock, so worker threads can
/// record cells as they finish.
#[derive(Debug)]
pub struct ResultsStore {
    path: PathBuf,
    fingerprint: String,
    done: BTreeMap<String, Record>,
    writer: Mutex<StoreWriter>,
}

impl ResultsStore {
    /// Opens the store at `path` for the experiment identified by
    /// `spec_fingerprint`, with the default [`Durability::Flush`].
    ///
    /// * No file: a fresh store is created with a header.
    /// * Existing file with a matching header: its records load as
    ///   already-done cells and new records append after them.
    /// * Existing file with a different fingerprint or an unreadable
    ///   header/record: the file is **replaced** by a fresh store — the
    ///   grid changed (or the file is foreign), so none of its cells can
    ///   be trusted as results of this spec.
    ///
    /// Returns the store and whether prior results were kept (`true` =
    /// resumed).
    pub fn open<P: AsRef<Path>>(
        path: P,
        spec_fingerprint: &str,
    ) -> io::Result<(ResultsStore, bool)> {
        Self::open_with(path, spec_fingerprint, Durability::Flush)
    }

    /// [`open`](Self::open) with an explicit [`Durability`] mode.
    pub fn open_with<P: AsRef<Path>>(
        path: P,
        spec_fingerprint: &str,
        durability: Durability,
    ) -> io::Result<(ResultsStore, bool)> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        if path.exists() {
            match Self::load(&path, spec_fingerprint) {
                Ok((done, valid_len)) => {
                    let file = OpenOptions::new().append(true).open(&path)?;
                    if valid_len < file.metadata()?.len() {
                        // A torn trailing fragment from a killed append:
                        // drop it so the next append starts a clean line.
                        file.set_len(valid_len)?;
                    }
                    let store = ResultsStore {
                        path,
                        fingerprint: spec_fingerprint.to_string(),
                        done,
                        writer: Mutex::new(StoreWriter { file, valid_len, durability }),
                    };
                    return Ok((store, true));
                }
                Err(_) => {
                    // Mismatched spec or corrupt store: start over, but
                    // keep the old file aside — a completed paper-scale
                    // store represents hours of compute, and one run with
                    // a tweaked knob (e.g. SYBIL_BENCH_FAST=1) must not
                    // destroy it. Only one `.prev` is kept; switching
                    // specs back restores nothing automatically, but the
                    // data survives for manual recovery.
                    let backup = path.with_extension(match path.extension() {
                        Some(ext) => format!("{}.prev", ext.to_string_lossy()),
                        None => "prev".to_string(),
                    });
                    std::fs::rename(&path, backup)?;
                }
            }
        }
        let mut file = File::create(&path)?;
        let header =
            format!("{STORE_MAGIC} v{STORE_VERSION}\nspec_fingerprint = {spec_fingerprint}\n");
        file.write_all(header.as_bytes())?;
        if durability == Durability::Sync {
            file.sync_data()?;
        }
        Ok((
            ResultsStore {
                path,
                fingerprint: spec_fingerprint.to_string(),
                done: BTreeMap::new(),
                writer: Mutex::new(StoreWriter {
                    file,
                    valid_len: header.len() as u64,
                    durability,
                }),
            },
            false,
        ))
    }

    /// Parses the store, returning the records and the byte length of the
    /// valid (newline-terminated) prefix.
    ///
    /// Every append writes a complete line ending in `\n` in one flush, so
    /// a final fragment *without* a trailing newline can only be a torn
    /// write from a killed run — it is dropped undecoded (the cut may fall
    /// inside a multi-byte character; the caller truncates it) while all
    /// previously flushed records are kept. A malformed or non-UTF-8 line
    /// that *is* newline-terminated, by contrast, cannot come from a torn
    /// append and marks the whole store corrupt.
    fn load(path: &Path, spec_fingerprint: &str) -> io::Result<(BTreeMap<String, Record>, u64)> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let bytes = std::fs::read(path)?;
        let valid_len = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let text = std::str::from_utf8(&bytes[..valid_len])
            .map_err(|e| bad(format!("store is not UTF-8: {e}")))?;
        let mut lines = text.split_terminator('\n').map(str::trim);
        let header = lines.next().ok_or_else(|| bad("empty store".into()))?;
        let expect = format!("{STORE_MAGIC} v{STORE_VERSION}");
        if header != expect {
            return Err(bad(format!("bad store header {header:?}")));
        }
        let fp_line = lines.next().ok_or_else(|| bad("missing fingerprint line".into()))?;
        let fp = fp_line
            .strip_prefix("spec_fingerprint =")
            .map(str::trim)
            .ok_or_else(|| bad(format!("bad fingerprint line {fp_line:?}")))?;
        if fp != spec_fingerprint {
            return Err(bad(format!(
                "store belongs to spec {fp}, current spec is {spec_fingerprint}"
            )));
        }
        let mut done = BTreeMap::new();
        for line in lines.filter(|line| !line.is_empty()) {
            let parse = || -> Result<Record, String> {
                let rest = line
                    .strip_prefix("cell ")
                    .ok_or_else(|| format!("unexpected store line {line:?}"))?;
                let (id, fields_text) =
                    rest.split_once(' ').ok_or_else(|| format!("malformed cell line {line:?}"))?;
                let mut fields = Vec::new();
                for pair in fields_text.split(',').filter(|p| !p.is_empty()) {
                    let (name, bits) =
                        pair.split_once('=').ok_or_else(|| format!("malformed field {pair:?}"))?;
                    let bits = bits
                        .strip_prefix("0x")
                        .and_then(|h| u64::from_str_radix(h, 16).ok())
                        .ok_or_else(|| format!("malformed field value {pair:?}"))?;
                    fields.push((name.to_string(), f64::from_bits(bits)));
                }
                Ok(Record { cell_id: id.to_string(), fields })
            };
            let record = parse().map_err(bad)?;
            done.insert(record.cell_id.clone(), record);
        }
        Ok((done, valid_len as u64))
    }

    /// True if `cell_id` already has a recorded result.
    pub fn is_done(&self, cell_id: &str) -> bool {
        self.done.contains_key(cell_id)
    }

    /// The previously recorded result for `cell_id`, if any.
    pub fn get(&self, cell_id: &str) -> Option<&Record> {
        self.done.get(cell_id)
    }

    /// Number of recorded cells.
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// True if no cells are recorded.
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }

    /// Appends a finished cell and flushes it to disk. Thread-safe.
    ///
    /// The whole line goes down in one `write(2)` (plus `fdatasync` under
    /// [`Durability::Sync`]). If the write fails partway — `ENOSPC`, say —
    /// the file is truncated back to the last good record before the error
    /// is returned, so a failed append can never corrupt the line a later
    /// append starts.
    ///
    /// Appending does not update the in-memory `done` set — the set
    /// answers "was this done before *this* run", and cells are only run
    /// once per run.
    pub fn append(&self, record: &Record) -> io::Result<()> {
        record.validate().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let line = Self::render_line(record);
        let mut guard = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let writer = &mut *guard;
        let mut result = writer.file.write_all(line.as_bytes());
        if result.is_ok() && writer.durability == Durability::Sync {
            result = writer.file.sync_data();
        }
        if result.is_ok() {
            writer.valid_len += line.len() as u64;
        } else {
            // Self-heal: drop any torn bytes so the next append starts a
            // clean line. If even the truncation fails, the torn fragment
            // stays on disk and reopen-time truncation handles it.
            let _ = writer.file.set_len(writer.valid_len);
            let _ = writer.file.seek(SeekFrom::Start(writer.valid_len));
        }
        result
    }

    fn render_line(record: &Record) -> String {
        let fields: Vec<String> = record
            .fields
            .iter()
            .map(|(name, value)| format!("{name}=0x{:016x}", value.to_bits()))
            .collect();
        format!("cell {} {}\n", record.cell_id, fields.join(","))
    }

    /// The order-insensitive canonical rendering of the store on disk:
    /// header, fingerprint line, then one line per cell sorted by id.
    ///
    /// Parallel workers append records in nondeterministic order, so two
    /// equivalent runs rarely produce byte-identical *files*. They do
    /// produce identical canonical bytes: a run with a quarantined cell
    /// plus the resume that fills it equals a run without the failure,
    /// bit for bit.
    pub fn canonical_bytes(&self) -> io::Result<Vec<u8>> {
        let (done, _) = Self::load(&self.path, &self.fingerprint)?;
        let mut out =
            format!("{STORE_MAGIC} v{STORE_VERSION}\nspec_fingerprint = {}\n", self.fingerprint)
                .into_bytes();
        for record in done.values() {
            out.extend_from_slice(Self::render_line(record).as_bytes());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_store(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("sybil_exp_store_{tag}_{}_{n}.txt", std::process::id()))
    }

    fn record(id: &str, v: f64) -> Record {
        Record::new(id, vec![("mean".into(), v), ("ci95_lo".into(), v - 1.0)])
    }

    #[test]
    fn fresh_append_reload_roundtrip_is_bit_exact() {
        let path = temp_store("roundtrip");
        let (store, resumed) = ResultsStore::open(&path, "fp-a").unwrap();
        assert!(!resumed);
        assert!(store.is_empty());
        let r = record("net/ERGO/T=16", 0.1 + 0.2); // not exactly representable in decimal
        store.append(&r).unwrap();
        store.append(&record("net/CCOM/T=16", f64::NAN)).unwrap();
        drop(store);

        let (store, resumed) = ResultsStore::open(&path, "fp-a").unwrap();
        assert!(resumed);
        assert_eq!(store.len(), 2);
        assert!(store.is_done("net/ERGO/T=16"));
        let got = store.get("net/ERGO/T=16").unwrap();
        assert_eq!(got.get("mean").unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        // NaN round-trips (bit-level storage).
        assert!(store.get("net/CCOM/T=16").unwrap().get("mean").unwrap().is_nan());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_fingerprint_restarts_fresh() {
        let path = temp_store("fp");
        let (store, _) = ResultsStore::open(&path, "fp-a").unwrap();
        store.append(&record("a", 1.0)).unwrap();
        drop(store);
        let (store, resumed) = ResultsStore::open(&path, "fp-B").unwrap();
        assert!(!resumed, "changed spec must invalidate old results");
        assert!(store.is_empty());
        // The displaced store survives as .prev for manual recovery.
        let backup = path.with_extension("txt.prev");
        let prev = std::fs::read_to_string(&backup).unwrap();
        assert!(prev.contains("fp-a") && prev.contains("cell a"), "{prev}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&backup).ok();
    }

    #[test]
    fn corrupt_store_restarts_fresh() {
        let path = temp_store("corrupt");
        let (store, _) = ResultsStore::open(&path, "fp-a").unwrap();
        store.append(&record("a", 1.0)).unwrap();
        drop(store);
        // A line the format does not recognize invalidates the store.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("garbage line\n");
        std::fs::write(&path, &text).unwrap();
        let (store, resumed) = ResultsStore::open(&path, "fp-a").unwrap();
        assert!(!resumed);
        assert!(store.is_empty());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(path.with_extension("txt.prev")).ok();
    }

    #[test]
    fn torn_trailing_append_keeps_completed_cells() {
        let path = temp_store("torn");
        let (store, _) = ResultsStore::open(&path, "fp").unwrap();
        store.append(&record("a", 1.0)).unwrap();
        store.append(&record("b", 2.0)).unwrap();
        drop(store);
        // Simulate a killed run: a partial cell line with no newline.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("cell c mean=0x3f");
        std::fs::write(&path, &text).unwrap();

        // Completed cells survive; only the torn fragment is lost.
        let (store, resumed) = ResultsStore::open(&path, "fp").unwrap();
        assert!(resumed, "a torn append must not discard the store");
        assert_eq!(store.len(), 2);
        assert!(store.is_done("a") && store.is_done("b") && !store.is_done("c"));
        // The fragment was truncated, so new appends form clean lines.
        store.append(&record("c", 3.0)).unwrap();
        drop(store);
        let (store, _) = ResultsStore::open(&path, "fp").unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.get("c").unwrap().get("mean"), Some(3.0));
        std::fs::remove_file(&path).ok();
    }

    /// A kill can also tear a write *mid-record*: the line made it partway
    /// to disk, cut anywhere inside it — for a non-ASCII cell id possibly
    /// inside a multi-byte character. At every cut through the last two of
    /// three records, the records wholly before the cut survive and
    /// re-appending the cut cell works.
    #[test]
    fn torn_write_mid_record_keeps_prior_cells() {
        for ids in [["a", "b", "c"], ["a", "ε=0.1", "ε=0.2"]] {
            let path = temp_store("torn_mid");
            let (store, _) = ResultsStore::open(&path, "fp").unwrap();
            for (i, id) in ids.iter().enumerate() {
                store.append(&record(id, i as f64)).unwrap();
            }
            drop(store);
            let full = std::fs::read(&path).unwrap();
            // Where each record's line ends: the last three newlines.
            let newlines: Vec<usize> = (1..=full.len()).filter(|&i| full[i - 1] == b'\n').collect();
            let ends = &newlines[newlines.len() - 3..];
            for cut in ends[0]..full.len() {
                std::fs::write(&path, &full[..cut]).unwrap();
                let (store, resumed) = ResultsStore::open(&path, "fp").unwrap();
                assert!(resumed, "{ids:?} cut at {cut}: a torn record discarded the store");
                let lost = ends.iter().position(|&end| end > cut).unwrap();
                assert_eq!(store.len(), lost, "{ids:?} cut at {cut}");
                assert!(ids[..lost].iter().all(|id| store.is_done(id)), "{ids:?} cut at {cut}");
                store.append(&record(ids[lost], lost as f64)).unwrap();
                drop(store);
                let (store, _) = ResultsStore::open(&path, "fp").unwrap();
                assert_eq!(store.len(), lost + 1, "{ids:?} cut at {cut}");
                assert_eq!(store.get(ids[lost]).unwrap().get("mean"), Some(lost as f64));
            }
            std::fs::remove_file(&path).ok();
        }
    }

    /// Append order differs between runs (parallel workers);
    /// canonical bytes are the order-insensitive identity.
    #[test]
    fn canonical_bytes_ignore_append_order() {
        let path_ab = temp_store("canon_ab");
        let path_ba = temp_store("canon_ba");
        let (ab, _) = ResultsStore::open(&path_ab, "fp").unwrap();
        ab.append(&record("a", 1.0)).unwrap();
        ab.append(&record("b", 2.0)).unwrap();
        let (ba, _) = ResultsStore::open(&path_ba, "fp").unwrap();
        ba.append(&record("b", 2.0)).unwrap();
        ba.append(&record("a", 1.0)).unwrap();
        assert_ne!(
            std::fs::read(&path_ab).unwrap(),
            std::fs::read(&path_ba).unwrap(),
            "raw files should differ (order)"
        );
        assert_eq!(ab.canonical_bytes().unwrap(), ba.canonical_bytes().unwrap());
        // Canonical bytes see records appended this run, not just loaded ones.
        assert!(String::from_utf8(ab.canonical_bytes().unwrap()).unwrap().contains("cell a "));
        std::fs::remove_file(&path_ab).ok();
        std::fs::remove_file(&path_ba).ok();
    }

    #[test]
    fn sync_durability_roundtrips() {
        let path = temp_store("sync");
        let (store, resumed) = ResultsStore::open_with(&path, "fp", Durability::Sync).unwrap();
        assert!(!resumed);
        store.append(&record("a", 1.0)).unwrap();
        drop(store);
        let (store, resumed) = ResultsStore::open_with(&path, "fp", Durability::Sync).unwrap();
        assert!(resumed);
        assert_eq!(store.get("a").unwrap().get("mean"), Some(1.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_appends_after_existing_records() {
        let path = temp_store("resume");
        let (store, _) = ResultsStore::open(&path, "fp").unwrap();
        store.append(&record("a", 1.0)).unwrap();
        drop(store);
        let (store, resumed) = ResultsStore::open(&path, "fp").unwrap();
        assert!(resumed);
        assert!(store.is_done("a") && !store.is_done("b"));
        store.append(&record("b", 2.0)).unwrap();
        drop(store);
        let (store, _) = ResultsStore::open(&path, "fp").unwrap();
        assert_eq!(store.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_appends_all_land() {
        let path = temp_store("parallel");
        let (store, _) = ResultsStore::open(&path, "fp").unwrap();
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..10u64 {
                        store.append(&record(&format!("cell-{w}-{i}"), i as f64)).unwrap();
                    }
                });
            }
        });
        drop(store);
        let (store, _) = ResultsStore::open(&path, "fp").unwrap();
        assert_eq!(store.len(), 40);
        std::fs::remove_file(&path).ok();
    }

    /// Regression for the figure9 aliasing bug: two cells that differ only
    /// by an axis value containing a separator character (`/`, `=`) must
    /// round-trip to distinct store keys and resume independently. Under
    /// the old `label.replace('/', "of")` id scheme, `"1/2"` and `"1of2"`
    /// collapsed to one key and their records silently merged on resume.
    #[test]
    fn separator_laden_axis_values_resume_independently() {
        use crate::spec::{AxisValue, CellSpec};
        let path = temp_store("alias");
        let cell = |v: &str| CellSpec::new(vec![("frac".into(), AxisValue::Str(v.into()))]);
        for (a, b) in [("1/2", "1of2"), ("a=b", "a%3Db")] {
            let (id_a, id_b) = (cell(a).id(), cell(b).id());
            assert_ne!(id_a, id_b, "{a:?} vs {b:?} alias");

            // Record only the first cell, as an interrupted run would.
            let (store, _) = ResultsStore::open(&path, "fp").unwrap();
            store.append(&Record::new(id_a.clone(), vec![("mean".into(), 1.0)])).unwrap();
            drop(store);

            // On resume the second cell is still pending — it must not be
            // served the first cell's record.
            let (store, resumed) = ResultsStore::open(&path, "fp").unwrap();
            assert!(resumed);
            assert!(store.is_done(&id_a), "{a:?} lost its record");
            assert!(!store.is_done(&id_b), "{b:?} aliased onto {a:?}");
            store.append(&Record::new(id_b.clone(), vec![("mean".into(), 2.0)])).unwrap();
            drop(store);

            // Both cells now round-trip with their own values.
            let (store, _) = ResultsStore::open(&path, "fp").unwrap();
            assert_eq!(store.get(&id_a).unwrap().get("mean"), Some(1.0));
            assert_eq!(store.get(&id_b).unwrap().get("mean"), Some(2.0));
            drop(store);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn invalid_record_names_are_rejected() {
        let path = temp_store("invalid");
        let (store, _) = ResultsStore::open(&path, "fp").unwrap();
        let bad = Record { cell_id: "has space".into(), fields: vec![] };
        assert!(store.append(&bad).is_err());
        let bad = Record { cell_id: "ok".into(), fields: vec![("a=b".into(), 1.0)] };
        assert!(store.append(&bad).is_err());
        std::fs::remove_file(&path).ok();
    }
}
