//! Heap-allocation counting for allocation-budget enforcement.
//!
//! The simulation's hot loop is supposed to allocate *nothing* in steady
//! state, and "supposed to" is worthless without a measurement. This module
//! provides a [`CountingAlloc`] global-allocator wrapper that counts every
//! allocation (and its bytes) on thread-local counters, plus a scoped
//! [`AllocStats`] guard for reading the deltas around a region of code.
//!
//! # Wiring
//!
//! The counters always compile, and this crate registers nothing outside
//! its own tests. A binary or test that measures registers the wrapper as
//! its global allocator, as `sybil-bench`'s `bench_report` and its
//! allocation-budget tests do:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: sybil_exp::alloc::CountingAlloc = sybil_exp::alloc::CountingAlloc;
//! ```
//!
//! Without it the guard still compiles but every delta reads zero, so a
//! measuring target asserts [`counting_enabled`], the runtime probe, before
//! it trusts a zero.
//!
//! # Thread-awareness
//!
//! Counters are thread-local: a guard measures allocations made by *its*
//! thread only. That is exactly the right scope for the engine's
//! steady-state budget — a trial runs on one thread, so the guard around
//! its event loop sees every allocation the trial makes and none of a
//! sibling pool worker's. It also keeps the counting overhead to two
//! thread-local increments per allocation, cheap enough to leave on for
//! whole benchmark runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// One-shot trap countdown: negative = disarmed.
    static TRAP: Cell<i64> = const { Cell::new(-1) };
    /// Reentrancy guard: capturing the trap backtrace itself allocates.
    static IN_TRAP: Cell<bool> = const { Cell::new(false) };
}

/// A [`GlobalAlloc`] wrapper around [`System`] that counts allocations and
/// allocated bytes on thread-local counters. Frees are not tracked: the
/// budget is "how often does the hot path hit the allocator", and
/// deallocation churn always pairs with an allocation that is.
pub struct CountingAlloc;

// The allocator trait is inherently unsafe to implement; the wrapper adds
// only Cell increments around a direct System delegation.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow-in-place still round-trips the allocator; count it.
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[inline]
fn note(size: usize) {
    ALLOCS.with(|c| c.set(c.get().wrapping_add(1)));
    BYTES.with(|c| c.set(c.get().wrapping_add(size as u64)));
    TRAP.with(|c| {
        let remaining = c.get();
        if remaining < 0 {
            return;
        }
        if remaining == 0 {
            c.set(-1);
            trap_fire(size);
        } else {
            c.set(remaining - 1);
        }
    });
}

#[cold]
fn trap_fire(size: usize) {
    if IN_TRAP.with(|f| f.replace(true)) {
        return;
    }
    // Attribution beats survival here: this path only runs when a human
    // armed the trap to find a hot-path allocation site.
    let bt = std::backtrace::Backtrace::force_capture();
    eprintln!("== allocation trap fired ({size} bytes) ==\n{bt}");
    std::process::abort();
}

/// Arms a one-shot trap on this thread: the `n`-th subsequent allocation
/// (0 = the very next one) prints a backtrace to stderr and aborts the
/// process. A debugging aid for *attributing* residual hot-path
/// allocations once the counters say they exist — arm it at the top of
/// the measured region, binary-search `n`, read the backtrace. Run with
/// `RUST_BACKTRACE=1` for symbol names. Never armed in normal runs.
pub fn trap_after(n: u64) {
    TRAP.with(|c| c.set(n.min(i64::MAX as u64) as i64));
}

/// Disarms a pending [`trap_after`] trap on this thread.
pub fn disarm_trap() {
    TRAP.with(|c| c.set(-1));
}

/// This thread's cumulative `(allocations, bytes)` counters. Zero forever
/// unless a [`CountingAlloc`] is registered as the global allocator.
pub fn thread_counters() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// True if allocation counting is live in this process — i.e. the binary
/// registered [`CountingAlloc`] as its global allocator. Probed at runtime
/// (one boxed allocation), so a measuring target can refuse to publish
/// structural zeros as measurements.
pub fn counting_enabled() -> bool {
    let before = ALLOCS.with(Cell::get);
    let probe = Box::new(0u64);
    std::hint::black_box(&probe);
    let after = ALLOCS.with(Cell::get);
    after != before
}

/// Scoped read of this thread's allocation counters: construct with
/// [`AllocStats::begin`], read deltas with [`allocs`](AllocStats::allocs) /
/// [`bytes`](AllocStats::bytes). Reads are non-destructive, so guards nest
/// freely.
#[derive(Clone, Copy, Debug)]
pub struct AllocStats {
    start_allocs: u64,
    start_bytes: u64,
}

impl AllocStats {
    /// Snapshots this thread's counters.
    pub fn begin() -> Self {
        let (start_allocs, start_bytes) = thread_counters();
        AllocStats { start_allocs, start_bytes }
    }

    /// Allocations on this thread since [`begin`](AllocStats::begin).
    pub fn allocs(&self) -> u64 {
        ALLOCS.with(Cell::get).wrapping_sub(self.start_allocs)
    }

    /// Bytes allocated on this thread since [`begin`](AllocStats::begin).
    pub fn bytes(&self) -> u64 {
        BYTES.with(Cell::get).wrapping_sub(self.start_bytes)
    }
}

// This crate's test binary counts, so the tests below measure.
#[cfg(test)]
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_counts_this_threads_allocations() {
        let stats = AllocStats::begin();
        let v: Vec<u64> = Vec::with_capacity(32);
        std::hint::black_box(&v);
        drop(v);
        assert!(stats.allocs() >= 1, "allocation went uncounted");
        assert!(stats.bytes() >= 32 * 8, "bytes went uncounted");
    }

    /// A pool worker's allocations stay on its own counters, so a guard
    /// around one cell sees none of a sibling cell's.
    #[test]
    fn a_spawned_threads_allocations_do_not_show_in_the_spawner() {
        let stats = AllocStats::begin();
        let (allocs, bytes) = std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let inner = AllocStats::begin();
                let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(1 << 16));
                drop(v);
                (inner.allocs(), inner.bytes())
            });
            worker.join().unwrap()
        });
        assert!(allocs >= 1 && bytes >= 8 << 16, "the worker's allocation went uncounted");
        assert!(stats.bytes() < 8 << 16, "the worker's {bytes} bytes showed in the spawner");
    }

    #[test]
    fn guards_nest_non_destructively() {
        let outer = AllocStats::begin();
        let _x = std::hint::black_box(Box::new(1u8));
        let inner = AllocStats::begin();
        let _y = std::hint::black_box(Box::new(2u8));
        assert!(outer.allocs() >= inner.allocs());
        assert!(outer.bytes() >= inner.bytes());
    }

    #[test]
    fn probe_is_stable() {
        // This test binary registers the counting allocator: live, every time.
        assert!((0..2).all(|_| counting_enabled()));
    }
}
