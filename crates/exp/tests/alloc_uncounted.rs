//! The false side of the counting probe: this test binary registers no
//! global allocator, so `counting_enabled` must say so and a guard must
//! read zero. The measuring targets assert the probe before they trust a
//! zero, and that assert protects nothing unless the probe can read false.

use sybil_exp::{counting_enabled, AllocStats};

#[test]
fn without_counting_alloc_the_probe_is_off_and_guards_read_zero() {
    assert!(!counting_enabled(), "no CountingAlloc is registered, yet the probe reads live");
    let stats = AllocStats::begin();
    let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(32));
    drop(v);
    assert_eq!((stats.allocs(), stats.bytes()), (0, 0));
}
