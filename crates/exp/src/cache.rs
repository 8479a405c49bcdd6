//! Content-addressed on-disk workload cache.
//!
//! Grid sweeps replay the same good-ID schedule for every (algorithm, T)
//! cell of a trial — Figure 8 alone replays each network's workload 60
//! times — and at million-ID scale a single generation is seconds of
//! inverse-transform sampling plus tens of megabytes that must not stay
//! resident. The cache materializes each `(churn model, seed, horizon)`
//! workload **once** through [`sybil_sim::workload_io`] and hands every
//! subsequent cell a [`DiskWorkload`] that streams it back through two
//! 8 KiB read buffers.
//!
//! # Keying
//!
//! The cache is content-addressed: the key is
//! `SHA-256(model debug representation ‖ seed ‖ horizon bits)`, truncated
//! to 32 hex chars in the filename `wk_<hash>.wkld`. The model's full
//! `Debug` form goes into the hash, so two models that merely share a name
//! cannot collide, and any parameter change produces a fresh entry.
//!
//! # Validation and eviction
//!
//! Reuse always re-validates the file header (magic, version, record
//! counts vs file length) via [`DiskWorkload::open`]; a truncated or
//! corrupt entry is deleted and regenerated, never silently replayed.
//! After each insertion the cache enforces a byte budget by evicting
//! oldest-modified entries first, ties broken by path so 1-second-mtime
//! filesystems still evict deterministically (the just-written file is
//! exempt, and entries whose mtime cannot be read are never preferred
//! victims).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use sybil_churn::model::ChurnModel;
use sybil_sim::time::Time;
use sybil_sim::workload_io::{write_workload_file, DiskWorkload};

/// Default cache byte budget: 4 GiB (a million-ID workload file is ~10 MB,
/// so this comfortably holds hundreds of trials before evicting).
pub const DEFAULT_BUDGET_BYTES: u64 = 4 << 30;

/// Counters describing how the cache behaved over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries served from an existing valid file.
    pub hits: u64,
    /// Entries generated and written because no file existed.
    pub misses: u64,
    /// Existing files rejected by header validation and regenerated.
    pub rejected: u64,
    /// Files evicted by the size budget.
    pub evictions: u64,
    /// Stale `.tmp_*` files removed by the open-time sweep. Unlike the
    /// other counters this is absolute per cache open, not per call.
    pub temps_swept: u64,
    /// Stale temp files the open-time sweep could not inspect or remove —
    /// each one is a multi-megabyte leak outside the byte budget, so a
    /// nonzero count here deserves a look at the cache directory.
    pub temp_sweep_failures: u64,
}

impl CacheStats {
    /// Renders as a compact `hits/misses/rejected/evictions` summary, with
    /// temp-sweep activity appended only when there was any.
    pub fn render(&self) -> String {
        let mut out = format!(
            "cache: {} hits, {} misses, {} rejected, {} evicted",
            self.hits, self.misses, self.rejected, self.evictions
        );
        if self.temps_swept > 0 {
            out.push_str(&format!(", {} stale temps swept", self.temps_swept));
        }
        if self.temp_sweep_failures > 0 {
            out.push_str(&format!(", {} temp sweeps FAILED", self.temp_sweep_failures));
        }
        out
    }
}

/// A content-addressed workload cache rooted at one directory.
///
/// Thread-safe: worker threads resolving different keys generate in
/// parallel (generation happens outside the internal lock); racing
/// generators of the *same* key produce byte-identical files and the
/// atomic rename makes either result valid.
#[derive(Debug)]
pub struct WorkloadCache {
    dir: PathBuf,
    budget_bytes: u64,
    stats: Mutex<CacheStats>,
}

impl WorkloadCache {
    /// Opens (creating if needed) a cache rooted at `dir` with the default
    /// size budget.
    pub fn open<P: AsRef<Path>>(dir: P) -> io::Result<WorkloadCache> {
        Self::with_budget(dir, DEFAULT_BUDGET_BYTES)
    }

    /// Opens a cache with an explicit byte budget.
    pub fn with_budget<P: AsRef<Path>>(dir: P, budget_bytes: u64) -> io::Result<WorkloadCache> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let (temps_swept, temp_sweep_failures) = sweep_stale_temps(&dir);
        let stats = CacheStats { temps_swept, temp_sweep_failures, ..CacheStats::default() };
        Ok(WorkloadCache { dir, budget_bytes, stats: Mutex::new(stats) })
    }

    /// Snapshot of the behavior counters.
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock().expect("cache stats poisoned")
    }

    /// The content-addressed key for `(model, seed, horizon)`.
    pub fn key(model: &ChurnModel, horizon: Time, seed: u64) -> String {
        let mut hasher = sybil_crypto::sha256::Sha256::new();
        hasher.update(format!("{model:?}").as_bytes());
        hasher.update(&seed.to_le_bytes());
        hasher.update(&horizon.as_secs().to_bits().to_le_bytes());
        sybil_crypto::hex::encode(&hasher.finalize().as_bytes()[..16])
    }

    /// Path of the cache entry for `(model, seed, horizon)`.
    pub fn entry_path(&self, model: &ChurnModel, horizon: Time, seed: u64) -> PathBuf {
        self.dir.join(format!("wk_{}.wkld", Self::key(model, horizon, seed)))
    }

    /// Returns a disk-streamed workload for `(model, seed, horizon)`,
    /// generating and writing it on first use.
    ///
    /// A pre-existing file is validated (header magic, version, and record
    /// counts vs length) before reuse; validation failure deletes and
    /// regenerates it. Generation runs outside the cache lock so worker
    /// threads warming different keys never serialize on it.
    pub fn get_or_create(
        &self,
        model: &ChurnModel,
        horizon: Time,
        seed: u64,
    ) -> io::Result<DiskWorkload> {
        let path = self.entry_path(model, horizon, seed);
        // Bounded retries: a concurrent insert's eviction pass (which only
        // exempts *its own* new entry) can remove this entry between our
        // rename and open. Regenerating self-heals; the bound keeps a
        // genuinely broken filesystem from looping forever.
        let mut last_err = None;
        for _ in 0..4 {
            if path.exists() {
                match DiskWorkload::open(&path) {
                    Ok(disk) => {
                        self.stats.lock().expect("cache stats poisoned").hits += 1;
                        return Ok(disk);
                    }
                    Err(_) => {
                        // Truncated/corrupt/foreign: remove and fall
                        // through to regeneration. Losing the race to
                        // another remover is fine — the file is gone
                        // either way.
                        fs::remove_file(&path).ok();
                        self.stats.lock().expect("cache stats poisoned").rejected += 1;
                    }
                }
            }
            // Generate OUTSIDE the lock; write to a unique temp name, then
            // rename into place. Racing generators produce byte-identical
            // deterministic files, so whichever rename lands last is
            // correct. A failed write or rename removes the temp and
            // retries the whole attempt — regeneration is the fallback,
            // never a propagated panic.
            let workload = model.generate(horizon, seed);
            let tmp = self.dir.join(format!(
                ".tmp_{}_{}_{}",
                std::process::id(),
                unique_suffix(),
                path.file_name().and_then(|n| n.to_str()).unwrap_or("wk")
            ));
            let written =
                write_workload_file(&tmp, &workload).and_then(|()| fs::rename(&tmp, &path));
            drop(workload);
            if let Err(e) = written {
                fs::remove_file(&tmp).ok();
                last_err = Some(e);
                continue;
            }
            self.stats.lock().expect("cache stats poisoned").misses += 1;
            self.enforce_budget(&path)?;
            match DiskWorkload::open(&path) {
                Ok(disk) => return Ok(disk),
                Err(e) => last_err = Some(e), // likely evicted by a peer
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::other(format!("cache entry {} unobtainable", path.display()))
        }))
    }

    /// Evicts oldest-modified entries until the cache fits the budget.
    /// `keep` (the entry just written) is never evicted, so a single
    /// workload larger than the whole budget still works.
    ///
    /// Eviction order is `(mtime, path)`: on filesystems with 1-second
    /// mtime granularity a whole batch of entries can tie, and sorting by
    /// mtime alone made the victim depend on directory iteration order —
    /// the path tie-break keeps it deterministic. An entry whose mtime
    /// cannot be read still counts toward the total but is skipped as a
    /// victim (the old `UNIX_EPOCH` fallback made exactly the entries we
    /// know least about the *first* to die).
    fn enforce_budget(&self, keep: &Path) -> io::Result<()> {
        // Serialize eviction passes; concurrent evictors would both scan
        // and could double-count removals.
        let mut stats = self.stats.lock().expect("cache stats poisoned");
        let mut entries: Vec<(std::time::SystemTime, PathBuf, u64)> = Vec::new();
        let mut total = 0u64;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if !name.starts_with("wk_") || !name.ends_with(".wkld") {
                continue;
            }
            let meta = match entry.metadata() {
                Ok(m) => m,
                Err(_) => continue, // raced with another evictor
            };
            total += meta.len();
            // Unreadable mtime: counts toward the total, never a victim.
            if let Ok(mtime) = meta.modified() {
                entries.push((mtime, entry.path(), meta.len()));
            }
        }
        entries.sort();
        for (_, path, len) in entries {
            if total <= self.budget_bytes {
                break;
            }
            if path == keep {
                continue;
            }
            if fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                stats.evictions += 1;
            }
        }
        Ok(())
    }
}

/// Process-wide unique suffix for temp files (no tempfile crate offline).
fn unique_suffix() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    COUNTER.fetch_add(1, Ordering::Relaxed)
}

/// Removes `.tmp_*` files left behind by interrupted runs, returning
/// `(swept, failures)`.
///
/// The eviction pass only sees `wk_*.wkld` names, so a run killed between
/// write and rename would otherwise leak multi-megabyte temp files outside
/// the byte budget forever. Only files older than an hour are swept: a
/// live writer (this process or another) finishes its write-then-rename in
/// seconds, so age is a safe liveness proxy. Best-effort, but no longer
/// silent: a temp whose age cannot be read or whose removal fails counts
/// as a failure so leaked files show up in [`CacheStats`] instead of
/// accumulating invisibly. (An unlisted directory counts as one failure —
/// nothing in it could be inspected.)
fn sweep_stale_temps(dir: &Path) -> (u64, u64) {
    const STALE_SECS: u64 = 3600;
    let (mut swept, mut failures) = (0u64, 0u64);
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(_) => return (0, 1),
    };
    for entry in entries.flatten() {
        if !entry.file_name().to_string_lossy().starts_with(".tmp_") {
            continue;
        }
        match entry.metadata().and_then(|m| m.modified()) {
            Ok(mtime) => {
                let stale = mtime.elapsed().is_ok_and(|age| age.as_secs() > STALE_SECS);
                if !stale {
                    continue; // live writer (or clock skew): leave it alone
                }
                match fs::remove_file(entry.path()) {
                    Ok(()) => swept += 1,
                    // Losing the remove race to a peer sweep is success,
                    // not a leak.
                    Err(e) if e.kind() == io::ErrorKind::NotFound => swept += 1,
                    Err(_) => failures += 1,
                }
            }
            Err(_) => failures += 1,
        }
    }
    (swept, failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sybil_churn::arrival::ArrivalProcess;
    use sybil_churn::session::SessionModel;

    fn toy_model() -> ChurnModel {
        ChurnModel {
            name: "cache-toy",
            initial_size: 50,
            arrival: ArrivalProcess::Poisson { rate: 1.0 },
            session: SessionModel::Exponential { mean: 100.0 },
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sybil_exp_cache_{tag}_{}_{}",
            std::process::id(),
            unique_suffix()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn miss_then_hit_serves_same_bytes() {
        let dir = temp_dir("hit");
        let cache = WorkloadCache::open(&dir).unwrap();
        let model = toy_model();
        let a = cache.get_or_create(&model, Time(200.0), 3).unwrap();
        assert_eq!(cache.stats().misses, 1);
        let bytes_a = fs::read(a.path()).unwrap();
        let b = cache.get_or_create(&model, Time(200.0), 3).unwrap();
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(bytes_a, fs::read(b.path()).unwrap());
        // Distinct seed → distinct entry.
        cache.get_or_create(&model, Time(200.0), 4).unwrap();
        assert_eq!(cache.stats().misses, 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn key_depends_on_model_content_not_just_name() {
        let a = toy_model();
        let mut b = toy_model();
        b.initial_size += 1;
        assert_ne!(WorkloadCache::key(&a, Time(10.0), 1), WorkloadCache::key(&b, Time(10.0), 1));
        assert_ne!(WorkloadCache::key(&a, Time(10.0), 1), WorkloadCache::key(&a, Time(11.0), 1));
        assert_ne!(WorkloadCache::key(&a, Time(10.0), 1), WorkloadCache::key(&a, Time(10.0), 2));
        assert_eq!(WorkloadCache::key(&a, Time(10.0), 1), WorkloadCache::key(&a, Time(10.0), 1));
    }

    #[test]
    fn corrupt_entry_is_rejected_and_regenerated() {
        let dir = temp_dir("corrupt");
        let cache = WorkloadCache::open(&dir).unwrap();
        let model = toy_model();
        let first = cache.get_or_create(&model, Time(200.0), 9).unwrap();
        let path = first.path().to_path_buf();
        let good = fs::read(&path).unwrap();
        // Truncate the file mid-record, then at every offset of its header.
        let header_len = sybil_sim::workload_io::HEADER_LEN as usize;
        let cuts = std::iter::once(good.len() - 5).chain(0..header_len);
        for (rejected, cut) in (1..).zip(cuts) {
            fs::write(&path, &good[..cut]).unwrap();
            let again = cache.get_or_create(&model, Time(200.0), 9).unwrap();
            assert_eq!(cache.stats().rejected, rejected, "cut at {cut}");
            assert_eq!(fs::read(again.path()).unwrap(), good, "regenerated bytes differ");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_evicts_oldest_entries_but_not_the_new_one() {
        let dir = temp_dir("evict");
        // Budget below one file: every insertion evicts all others.
        let cache = WorkloadCache::with_budget(&dir, 1).unwrap();
        let model = toy_model();
        let a = cache.get_or_create(&model, Time(200.0), 1).unwrap();
        assert!(a.path().exists(), "newest entry must survive its own eviction pass");
        let b = cache.get_or_create(&model, Time(200.0), 2).unwrap();
        assert!(b.path().exists());
        assert!(!a.path().exists(), "older entry should have been evicted");
        assert!(cache.stats().evictions >= 1);
        fs::remove_dir_all(&dir).ok();
    }

    /// Same-second mtimes (ubiquitous on 1 s-granularity filesystems) must
    /// not make the victim depend on directory iteration order: ties break
    /// by path, lexicographically smallest first.
    #[test]
    fn eviction_ties_break_deterministically_by_path() {
        let dir = temp_dir("tie");
        let model = toy_model();
        // Materialize two entries and pin them to one identical mtime.
        let sizes: Vec<(PathBuf, u64)> = (1u64..=2)
            .map(|seed| {
                let cache = WorkloadCache::open(&dir).unwrap();
                let w = cache.get_or_create(&model, Time(200.0), seed).unwrap();
                let p = w.path().to_path_buf();
                let len = fs::metadata(&p).unwrap().len();
                (p, len)
            })
            .collect();
        let stamp = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000);
        for (p, _) in &sizes {
            fs::File::options().write(true).open(p).unwrap().set_modified(stamp).unwrap();
        }
        let survivor_by_path = sizes.iter().map(|(p, _)| p).max().unwrap().clone();
        let victim_by_path = sizes.iter().map(|(p, _)| p).min().unwrap().clone();

        // A third insertion over-budget by one byte must evict exactly one
        // of the tied pair: the lexicographically smaller path.
        let third_probe = {
            let probe_dir = temp_dir("tie_probe");
            let cache = WorkloadCache::open(&probe_dir).unwrap();
            let w = cache.get_or_create(&model, Time(200.0), 3).unwrap();
            let len = fs::metadata(w.path()).unwrap().len();
            fs::remove_dir_all(&probe_dir).ok();
            len
        };
        let budget = sizes.iter().map(|(_, l)| l).sum::<u64>() + third_probe - 1;
        let cache = WorkloadCache::with_budget(&dir, budget).unwrap();
        let third = cache.get_or_create(&model, Time(200.0), 3).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert!(third.path().exists(), "the just-written entry is exempt");
        assert!(survivor_by_path.exists(), "tie must evict the smaller path first");
        assert!(!victim_by_path.exists(), "smaller path should have been evicted");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_inserts_under_tiny_budget_all_succeed() {
        // Budget 1 byte: every insert's eviction pass tries to delete every
        // other entry, so writers race evictors constantly. get_or_create
        // must self-heal (regenerate) rather than surface NotFound.
        let dir = temp_dir("evict_race");
        let cache = WorkloadCache::with_budget(&dir, 1).unwrap();
        let model = toy_model();
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let cache = &cache;
                let model = &model;
                scope.spawn(move || {
                    for round in 0..8u64 {
                        let seed = (w + round) % 3;
                        cache.get_or_create(model, Time(80.0), seed).unwrap();
                    }
                });
            }
        });
        assert!(cache.stats().evictions > 0, "budget 1 must evict");
        fs::remove_dir_all(&dir).ok();
    }

    /// Sweeping is no longer silent: removed stale temps are counted into
    /// the open-time stats, and fresh temps (a live writer's) are spared.
    #[test]
    fn stale_temp_sweep_is_counted_not_silent() {
        let dir = temp_dir("sweep");
        let stale = dir.join(".tmp_stale_leftover");
        let fresh = dir.join(".tmp_fresh_writer");
        fs::write(&stale, b"torn").unwrap();
        fs::write(&fresh, b"torn").unwrap();
        let old = std::time::SystemTime::now() - std::time::Duration::from_secs(2 * 3600);
        fs::File::options().write(true).open(&stale).unwrap().set_modified(old).unwrap();

        let cache = WorkloadCache::open(&dir).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.temps_swept, 1, "exactly the stale temp is swept");
        assert_eq!(stats.temp_sweep_failures, 0);
        assert!(!stale.exists() && fresh.exists());
        assert!(stats.render().contains("1 stale temps swept"), "{}", stats.render());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_warmers_do_not_corrupt() {
        let dir = temp_dir("race");
        let cache = WorkloadCache::open(&dir).unwrap();
        let model = toy_model();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for seed in 0..6u64 {
                        cache.get_or_create(&model, Time(150.0), seed).unwrap();
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 24);
        // All six entries valid on disk.
        for seed in 0..6u64 {
            DiskWorkload::open(cache.entry_path(&model, Time(150.0), seed)).unwrap();
        }
        fs::remove_dir_all(&dir).ok();
    }
}
