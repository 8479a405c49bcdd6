//! The chunked work-stealing job pool ([`run_parallel_catch`]) with
//! per-worker instrumentation ([`PoolStats`]). One job is one grid cell
//! on one thread; the pool is the only parallelism above `sybil-sim`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::PoisonError;
use std::time::Instant;

/// Per-worker scheduling counters from one pool run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkerStats {
    /// Jobs this worker executed.
    pub jobs: u64,
    /// Chunks this worker claimed off the shared cursor. A worker claiming
    /// many more chunks than `jobs / chunk size` would imply under static
    /// partitioning has been stealing slack from slower siblings.
    pub chunks: u64,
    /// Jobs whose closure panicked (caught; the worker kept running).
    pub panics: u64,
    /// Wall seconds this worker spent inside job closures.
    pub busy_secs: f64,
}

/// Aggregate pool efficiency counters from one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PoolStats {
    /// Per-worker counters, indexed by worker.
    pub workers: Vec<WorkerStats>,
    /// Wall seconds from first spawn to last join.
    pub wall_secs: f64,
    /// Chunk size used for cursor claims.
    pub chunk_size: usize,
}

impl PoolStats {
    /// Total jobs executed.
    pub fn total_jobs(&self) -> u64 {
        self.workers.iter().map(|w| w.jobs).sum()
    }

    /// Fraction of total worker-seconds spent *outside* job closures —
    /// scheduling overhead plus tail idling while the last chunks drain.
    /// Near 0 is perfect scaling; large values at high core counts mean
    /// the chunking (or the job mix) is leaving workers starved.
    pub fn idle_fraction(&self) -> f64 {
        let capacity = self.wall_secs * self.workers.len() as f64;
        if capacity <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.workers.iter().map(|w| w.busy_secs).sum();
        ((capacity - busy) / capacity).max(0.0)
    }

    /// Ratio of the busiest worker's job count to the mean — 1.0 is a
    /// perfectly balanced run; high values mean a few workers carried the
    /// grid (long-tailed cells).
    pub fn job_imbalance(&self) -> f64 {
        if self.workers.is_empty() {
            return 1.0;
        }
        let max = self.workers.iter().map(|w| w.jobs).max().unwrap_or(0) as f64;
        let mean = self.total_jobs() as f64 / self.workers.len() as f64;
        if mean <= 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Total jobs whose closure panicked (caught, not fatal).
    pub fn total_panics(&self) -> u64 {
        self.workers.iter().map(|w| w.panics).sum()
    }

    /// Merges another run's counters into this one: per-worker counters
    /// add elementwise (extra workers append), wall time accumulates.
    /// Used by the grid runner to fold retry rounds into one report; the
    /// chunk size stays the first (bulk) round's.
    pub fn absorb(&mut self, other: &PoolStats) {
        for (i, w) in other.workers.iter().enumerate() {
            if i < self.workers.len() {
                let mine = &mut self.workers[i];
                mine.jobs += w.jobs;
                mine.chunks += w.chunks;
                mine.panics += w.panics;
                mine.busy_secs += w.busy_secs;
            } else {
                self.workers.push(*w);
            }
        }
        self.wall_secs += other.wall_secs;
        if self.chunk_size == 0 {
            self.chunk_size = other.chunk_size;
        }
    }

    /// One-line human summary for experiment run reports.
    pub fn render(&self) -> String {
        let jobs: Vec<u64> = self.workers.iter().map(|w| w.jobs).collect();
        let panics = self.total_panics();
        let panic_note = if panics > 0 { format!(", {panics} panicked") } else { String::new() };
        format!(
            "pool: {} jobs on {} workers in {:.2}s (chunk {}, idle {:.1}%, imbalance {:.2}{panic_note}, per-worker jobs {:?})",
            self.total_jobs(),
            self.workers.len(),
            self.wall_secs,
            self.chunk_size,
            self.idle_fraction() * 100.0,
            self.job_imbalance(),
            jobs,
        )
    }
}

/// What happened to one job under [`run_parallel_catch`].
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutcome<T> {
    /// The closure returned normally.
    Done(T),
    /// The closure panicked; the payload's message (panics are caught per
    /// job, so one poisoned cell can never abort its siblings).
    Panicked(String),
}

/// Renders a caught panic payload (the `&str` / `String` forms `panic!`
/// produces; anything else is labelled opaquely).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One worker's buffered output: `(job index, outcome)` pairs plus stats.
type WorkerBuffer<T> = (Vec<(usize, JobOutcome<T>)>, WorkerStats);

/// Runs `jobs` on `workers` threads, preserving input order of results,
/// catching per-job panics, and reporting per-worker scheduling stats.
///
/// Scheduling is chunked work-stealing: workers claim contiguous chunks of
/// roughly `n / (workers · 8)` jobs off a shared atomic cursor, so fast
/// workers steal the slack of slow ones at chunk granularity while the
/// claim itself is a single uncontended `fetch_add`. Results land in
/// per-worker buffers; no lock is held while a job runs.
///
/// Each job runs under [`catch_unwind`]: a panicking closure yields
/// [`JobOutcome::Panicked`] with its message while every other job — on
/// the same worker or its siblings — runs to completion. Job-slot claims
/// ignore mutex poisoning (a slot's guard is never held across user code,
/// so poison there can only mean a *sibling* worker's panic mid-claim,
/// which must not cascade).
///
/// Determinism: a job closure must depend only on what it captured (the
/// experiment drivers capture fixed seeds; multi-trial drivers derive
/// theirs from `trial_seed`) and never on which worker runs it, so the
/// returned vector is identical regardless of `workers` or scheduling —
/// only [`PoolStats`] varies between runs.
pub fn run_parallel_catch<T, F>(jobs: Vec<F>, workers: usize) -> (Vec<JobOutcome<T>>, PoolStats)
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    assert!(workers > 0, "need at least one worker");
    let n = jobs.len();
    if n == 0 {
        return (Vec::new(), PoolStats::default());
    }
    let workers = workers.min(n);
    // Chunks small enough that a slow chunk can be compensated by steals,
    // large enough to amortize the atomic claim.
    let chunk = (n / (workers * 8)).max(1);
    let jobs: Vec<std::sync::Mutex<Option<F>>> =
        jobs.into_iter().map(|f| std::sync::Mutex::new(Some(f))).collect();
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    let mut buffers: Vec<WorkerBuffer<T>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, JobOutcome<T>)> = Vec::new();
                    let mut stats = WorkerStats::default();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        stats.chunks += 1;
                        let end = (start + chunk).min(n);
                        for (slot, idx) in jobs[start..end].iter().zip(start..end) {
                            let f = slot
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .take()
                                .expect("job claimed twice");
                            let job_started = Instant::now();
                            let outcome = match catch_unwind(AssertUnwindSafe(f)) {
                                Ok(value) => JobOutcome::Done(value),
                                Err(payload) => {
                                    stats.panics += 1;
                                    JobOutcome::Panicked(panic_message(payload))
                                }
                            };
                            local.push((idx, outcome));
                            stats.busy_secs += job_started.elapsed().as_secs_f64();
                            stats.jobs += 1;
                        }
                    }
                    (local, stats)
                })
            })
            .collect();
        // Workers catch job panics, so a join can only fail if the worker
        // thread itself died (e.g. an abort) — genuinely unrecoverable.
        buffers = handles.into_iter().map(|h| h.join().expect("worker thread died")).collect();
    });
    let wall_secs = started.elapsed().as_secs_f64();
    let mut results: Vec<Option<JobOutcome<T>>> = (0..n).map(|_| None).collect();
    let mut worker_stats = Vec::with_capacity(buffers.len());
    for (buffer, stats) in buffers {
        worker_stats.push(stats);
        for (idx, value) in buffer {
            results[idx] = Some(value);
        }
    }
    let stats = PoolStats { workers: worker_stats, wall_secs, chunk_size: chunk };
    (results.into_iter().map(|r| r.expect("job resolved")).collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    type Job<T> = Box<dyn FnOnce() -> T + Send>;

    /// Runs jobs none of which may panic.
    fn run_ok<T: Send>(jobs: Vec<Job<T>>, workers: usize) -> (Vec<T>, PoolStats) {
        let (outcomes, stats) = run_parallel_catch(jobs, workers);
        let values = outcomes
            .into_iter()
            .map(|o| match o {
                JobOutcome::Done(v) => v,
                JobOutcome::Panicked(msg) => panic!("job panicked: {msg}"),
            })
            .collect();
        (values, stats)
    }

    #[test]
    fn run_parallel_preserves_order() {
        let jobs: Vec<Job<usize>> = (0..20usize).map(|i| Box::new(move || i * i) as _).collect();
        assert_eq!(run_ok(jobs, 4).0, (0..20usize).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_parallel_handles_edge_shapes() {
        // Empty job list.
        let none: Vec<Job<u32>> = Vec::new();
        assert!(run_ok(none, 4).0.is_empty());
        // More workers than jobs.
        let jobs: Vec<Job<usize>> = (0..3usize).map(|i| Box::new(move || i) as _).collect();
        assert_eq!(run_ok(jobs, 64).0, vec![0, 1, 2]);
        // Single worker degrades to sequential.
        let jobs: Vec<Job<usize>> = (0..7usize).map(|i| Box::new(move || i + 1) as _).collect();
        assert_eq!(run_ok(jobs, 1).0, (1..=7).collect::<Vec<_>>());
    }

    #[test]
    fn stats_account_for_every_job_and_chunk() {
        let jobs: Vec<Job<usize>> = (0..40usize).map(|i| Box::new(move || i) as _).collect();
        let (out, stats) = run_ok(jobs, 4);
        assert_eq!(out.len(), 40);
        assert_eq!(stats.total_jobs(), 40);
        assert_eq!(stats.workers.len(), 4);
        let chunks: u64 = stats.workers.iter().map(|w| w.chunks).sum();
        // Every claimed chunk is non-empty, and together they cover the
        // jobs exactly once.
        assert!((1..=40).contains(&chunks));
        assert!(stats.chunk_size >= 1);
        assert!(stats.wall_secs >= 0.0);
        assert!((0.0..=1.0).contains(&stats.idle_fraction()));
        assert!(stats.job_imbalance() >= 1.0 - 1e-9);
        // Render mentions the headline numbers.
        let line = stats.render();
        assert!(line.contains("40 jobs") && line.contains("4 workers"), "{line}");
    }

    /// Regression for the pre-hardening cascade: a deliberately panicking
    /// job used to poison shared state and convert every sibling worker's
    /// slot claim into an `expect("job slot poisoned")` abort, and the
    /// join into `expect("worker panicked")`. Now the panic is caught per
    /// job: every other job completes and reports its value.
    #[test]
    fn panicking_job_does_not_cascade_to_siblings() {
        let jobs: Vec<Job<usize>> = (0..24usize)
            .map(|i| {
                Box::new(move || {
                    if i == 7 {
                        panic!("deliberate test panic in job {i}");
                    }
                    i * 10
                }) as _
            })
            .collect();
        let (outcomes, stats) = run_parallel_catch(jobs, 4);
        assert_eq!(outcomes.len(), 24);
        assert_eq!(stats.total_jobs(), 24, "every job must still be claimed and run");
        assert_eq!(stats.total_panics(), 1);
        for (i, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                JobOutcome::Done(v) => {
                    assert_ne!(i, 7);
                    assert_eq!(v, i * 10);
                }
                JobOutcome::Panicked(msg) => {
                    assert_eq!(i, 7);
                    assert!(msg.contains("deliberate test panic in job 7"), "{msg}");
                }
            }
        }
        let line = stats.render();
        assert!(line.contains("1 panicked"), "{line}");
    }

    #[test]
    fn computed_chunk_is_recorded_in_stats() {
        let jobs: Vec<Job<usize>> = (0..64usize).map(|i| Box::new(move || i) as _).collect();
        let (_, stats) = run_ok(jobs, 2);
        assert_eq!(stats.chunk_size, 64 / (2 * 8));
    }

    #[test]
    fn absorb_merges_worker_counters_elementwise() {
        let mut a = PoolStats {
            workers: vec![WorkerStats { jobs: 3, chunks: 1, panics: 0, busy_secs: 0.5 }],
            wall_secs: 1.0,
            chunk_size: 2,
        };
        let b = PoolStats {
            workers: vec![
                WorkerStats { jobs: 2, chunks: 2, panics: 1, busy_secs: 0.25 },
                WorkerStats { jobs: 4, chunks: 1, panics: 0, busy_secs: 0.75 },
            ],
            wall_secs: 0.5,
            chunk_size: 1,
        };
        a.absorb(&b);
        assert_eq!(a.total_jobs(), 9);
        assert_eq!(a.total_panics(), 1);
        assert_eq!(a.workers.len(), 2);
        assert_eq!(a.workers[0].jobs, 5);
        assert_eq!(a.wall_secs, 1.5);
        assert_eq!(a.chunk_size, 2, "first round's chunk size wins");
    }

    #[test]
    fn single_worker_stats_are_fully_busy_shaped() {
        let jobs: Vec<Job<u64>> = (0..8u64)
            .map(|i| {
                Box::new(move || {
                    // A tiny but nonzero workload so busy_secs registers.
                    let mut acc = i;
                    for k in 0..2000u64 {
                        acc = acc.wrapping_mul(31).wrapping_add(k);
                    }
                    std::hint::black_box(acc)
                }) as _
            })
            .collect();
        let (_, stats) = run_ok(jobs, 1);
        assert_eq!(stats.workers.len(), 1);
        assert_eq!(stats.workers[0].jobs, 8);
        assert!(stats.workers[0].busy_secs > 0.0);
    }
}
