//! Small measurement helpers: order statistics, process memory, the
//! cross-machine calibration loop.

use std::time::Instant;

use sybil_crypto::Sha256;

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty slice. Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank quantile of an ascending slice; 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(max - min) / median`; 0 for fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    let mid = median(&mut sorted);
    if mid == 0.0 {
        return 0.0;
    }
    (sorted[sorted.len() - 1] - sorted[0]) / mid
}

fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The process's peak resident set since start or since the last
/// [`reset_rss_hwm`], in MB.
pub fn rss_hwm_mb() -> f64 {
    status_mb("VmHWM:").unwrap_or(0.0)
}

/// Resets the kernel's RSS high-water mark to the current RSS, so a later
/// [`rss_hwm_mb`] reports the peak of what ran in between. Where
/// `/proc/self/clear_refs` is not writable nothing changes, and the mark
/// stays the process's lifetime peak.
pub fn reset_rss_hwm() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Nanoseconds per SHA-256 compression in a fixed 2^18-block chain:
/// context for reading numbers across machines, never a scaling factor.
pub fn sha_calib_ns() -> f64 {
    const BLOCKS: u32 = 1 << 18;
    let mut digest = Sha256::digest(b"sybil-benchmark calibration");
    let started = Instant::now();
    for _ in 0..BLOCKS {
        digest = Sha256::digest(digest.as_bytes());
    }
    std::hint::black_box(digest);
    started.elapsed().as_nanos() as f64 / f64::from(BLOCKS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(quantile(&sorted, 0.5), 5.0);
        assert_eq!(quantile(&sorted, 0.99), 10.0);
        assert_eq!(spread(&[9.0, 10.0, 11.0]), 0.2);
    }
}
