//! The two process settings the benchmark fixes so that what it measures
//! does not depend on the scheduler's or the allocator's mood. Both are
//! foreign calls into glibc and the only `unsafe` in the package.
//!
//! **One CPU for the gate workloads.** On the shared 2-vCPU reference box the kernel places a connection's
//! client thread and its handler thread on the same vCPU or on different
//! ones from run to run, and a cross-vCPU wake-up goes through the
//! hypervisor: the same code measured 5 300 or 15 000 connections a
//! second depending on that placement alone. The gate workloads have one
//! runnable thread at a time (closed loop, one connection), so they pin
//! the driving thread before starting the servers; every thread spawned
//! afterwards inherits the mask, and each connection costs its CPU work
//! plus a same-CPU context switch, whatever the hypervisor does.
//!
//! **A fixed `malloc` mmap threshold.** glibc serves requests above a
//! threshold with `mmap` and moves that threshold up (from 128 KiB towards
//! 32 MiB) whenever such a block is freed; from then on blocks of that
//! size come from the heap and stay resident after `free`. The grid's two
//! workers free their 1-3 MB queue tables in an order the scheduler
//! picks, so the threshold climbed at different moments and the same work
//! peaked at 20 MB or at 29 MB resident, run by run. Fixing the threshold
//! switches the adaptation off; timings did not move (`BASELINE.md`).

/// Pins the calling thread (and the threads it spawns from now on) to the
/// highest-numbered CPU it is allowed on. Returns false, changing
/// nothing, where that is not possible (not Linux, unreadable
/// `/proc/thread-self/status`, the call refused).
pub fn pin_to_one_cpu() -> bool {
    allowed_cpus().and_then(|cpus| cpus.last().copied()).is_some_and(set_affinity)
}

/// The calling thread's `Cpus_allowed_list` (`/proc/thread-self/status`), ascending.
fn allowed_cpus() -> Option<Vec<usize>> {
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let mut cpus = Vec::new();
    for range in list.trim().split(',') {
        let (first, last) = range.split_once('-').unwrap_or((range, range));
        cpus.extend(first.parse::<usize>().ok()?..=last.parse::<usize>().ok()?);
    }
    Some(cpus)
}

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
fn set_affinity(cpu: usize) -> bool {
    extern "C" {
        // int sched_setaffinity(pid_t pid, size_t cpusetsize, const cpu_set_t *mask);
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // glibc's cpu_set_t: 1024 bits.
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else { return false };
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised 128-byte buffer and the size
    // passed is its size; the call only reads it. pid 0 is the calling
    // thread. The function has no other preconditions.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn set_affinity(_cpu: usize) -> bool {
    false
}

/// Fixes glibc malloc's mmap threshold at 4 MiB for the rest of the
/// process, which also turns its dynamic adjustment off. Returns false,
/// changing nothing, on other C libraries.
pub fn fix_malloc_mmap_threshold() -> bool {
    set_mmap_threshold(4 << 20)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[allow(unsafe_code)]
fn set_mmap_threshold(bytes: i32) -> bool {
    extern "C" {
        // int mallopt(int param, int value);
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` takes two integers by value and has no
    // preconditions; glibc serialises it against concurrent allocation
    // with the arena lock. It returns 1 on success.
    unsafe { mallopt(M_MMAP_THRESHOLD, bytes) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn set_mmap_threshold(_bytes: i32) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_the_allowed_list_to_one_cpu() {
        // On its own thread: the mask is per thread and must not leak
        // into the other tests.
        std::thread::spawn(|| {
            let before = allowed_cpus().expect("Linux exposes Cpus_allowed_list");
            if pin_to_one_cpu() {
                assert_eq!(allowed_cpus(), Some(vec![*before.last().unwrap()]));
            }
        })
        .join()
        .unwrap();
    }
}
