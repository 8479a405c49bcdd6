//! Packed per-session admission state.
//!
//! The engine must remember, for every workload session, whether its join
//! was admitted, refused, or not yet processed — the departure event needs
//! the outcome long after the join fired. A `Vec<Option<bool>>` spends a
//! byte (and an allocation touch) per session, which at million-ID scale
//! is megabytes of resident state for three possible values.
//!
//! [`AdmissionMap`] packs the three states into 2 bits per session inside
//! fixed-size segments that are allocated lazily on first write. Sessions
//! the run never reaches (past the horizon, or simply not yet streamed)
//! cost nothing beyond a null slot in the segment directory, so resident
//! memory tracks the sessions actually *touched*, not the workload length.

/// Admission status of one workload session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionState {
    /// The session's join has not been processed yet.
    Pending,
    /// The join was admitted to membership.
    Admitted,
    /// The join paid but was refused entry (classifier gate).
    Refused,
}

impl AdmissionState {
    fn from_bits(bits: u64) -> AdmissionState {
        match bits {
            0 => AdmissionState::Pending,
            1 => AdmissionState::Admitted,
            _ => AdmissionState::Refused,
        }
    }

    fn to_bits(self) -> u64 {
        match self {
            AdmissionState::Pending => 0,
            AdmissionState::Admitted => 1,
            AdmissionState::Refused => 2,
        }
    }
}

/// Sessions per segment. 8192 two-bit entries pack into 2 KiB, small
/// enough that sparse access patterns waste little and large enough that
/// the directory stays tiny (one pointer per 8192 sessions).
pub(crate) const SEGMENT_ENTRIES: usize = 8192;
/// `u64` words per segment (`SEGMENT_ENTRIES · 2 / 64`).
const SEGMENT_WORDS: usize = SEGMENT_ENTRIES / 32;

/// The canonical resident-bytes gauge for an admission space of `len`
/// sessions of which `touched_segments` segments hold non-Pending state:
/// touched payloads plus the full directory. For a lazily allocated map
/// this is exactly [`AdmissionMap::allocated_bytes`]; the engine reports
/// this figure so that preallocating a resident source's segments leaves
/// the gauge a pure function of the touched ID space.
pub(crate) fn canonical_bytes(len: u64, touched_segments: usize) -> usize {
    touched_segments * SEGMENT_WORDS * 8
        + (len as usize).div_ceil(SEGMENT_ENTRIES)
            * std::mem::size_of::<Option<Box<[u64; SEGMENT_WORDS]>>>()
}

/// A segmented 2-bit packed map from session index to [`AdmissionState`].
///
/// Unallocated segments read as [`AdmissionState::Pending`]; the first
/// write to a segment allocates it (O(1) amortized — one zeroed 2 KiB
/// box). Reads and writes are O(1).
///
/// # Example
///
/// ```
/// use sybil_sim::admission::{AdmissionMap, AdmissionState};
///
/// let mut map = AdmissionMap::new(1_000_000);
/// assert_eq!(map.get(999_999), AdmissionState::Pending);
/// map.set(3, AdmissionState::Admitted);
/// map.set(4, AdmissionState::Refused);
/// assert_eq!(map.get(3), AdmissionState::Admitted);
/// assert_eq!(map.get(4), AdmissionState::Refused);
/// // Only the one touched segment is resident.
/// assert!(map.allocated_bytes() < 4096);
/// ```
#[derive(Clone, Debug, Default)]
pub struct AdmissionMap {
    /// Segment directory; `None` segments are all-Pending.
    segments: Vec<Option<Box<[u64; SEGMENT_WORDS]>>>,
    /// Number of addressable sessions.
    len: u64,
    /// Segments currently allocated.
    allocated: usize,
}

impl AdmissionMap {
    /// Creates a map for `len` sessions; no segment memory is allocated
    /// until the first [`set`](Self::set).
    pub fn new(len: u64) -> Self {
        let n_segments = (len as usize).div_ceil(SEGMENT_ENTRIES);
        AdmissionMap { segments: vec![None; n_segments], len, allocated: 0 }
    }

    /// Creates a map for `len` sessions that all read as `state`, written
    /// a word (32 entries) at a time. Entries past `len` in the last
    /// segment stay Pending, so a later [`grow`](Self::grow) reads as one
    /// would on a map built by [`new`](Self::new).
    pub fn filled(len: u64, state: AdmissionState) -> Self {
        let mut map = AdmissionMap::new(len);
        let pattern = state.to_bits() * 0x5555_5555_5555_5555;
        let mut left = len as usize;
        for segment in &mut map.segments {
            let n = left.min(SEGMENT_ENTRIES);
            let mut words = Box::new([0u64; SEGMENT_WORDS]);
            words[..n / 32].fill(pattern);
            if !n.is_multiple_of(32) {
                words[n / 32] = pattern & ((1 << (2 * (n % 32))) - 1);
            }
            *segment = Some(words);
            left -= n;
        }
        map.allocated = map.segments.len();
        map
    }

    /// Number of addressable sessions.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the map addresses no sessions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The admission state of session `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn get(&self, index: u64) -> AdmissionState {
        assert!(index < self.len, "admission index {index} out of bounds (len {})", self.len);
        let index = index as usize;
        match &self.segments[index / SEGMENT_ENTRIES] {
            None => AdmissionState::Pending,
            Some(words) => {
                let slot = index % SEGMENT_ENTRIES;
                let bits = (words[slot / 32] >> ((slot % 32) * 2)) & 0b11;
                AdmissionState::from_bits(bits)
            }
        }
    }

    /// Sets the admission state of session `index`, allocating its segment
    /// on first touch.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn set(&mut self, index: u64, state: AdmissionState) {
        assert!(index < self.len, "admission index {index} out of bounds (len {})", self.len);
        let index = index as usize;
        let segment = &mut self.segments[index / SEGMENT_ENTRIES];
        if segment.is_none() {
            if state == AdmissionState::Pending {
                return; // Writing the default into a virgin segment is a no-op.
            }
            *segment = Some(Box::new([0u64; SEGMENT_WORDS]));
            self.allocated += 1;
        }
        let words = segment.as_mut().expect("segment allocated above");
        let slot = index % SEGMENT_ENTRIES;
        let shift = (slot % 32) * 2;
        let word = &mut words[slot / 32];
        *word = (*word & !(0b11 << shift)) | (state.to_bits() << shift);
    }

    /// Allocates every segment up front.
    ///
    /// Used by the engine for workload sources that are fully resident
    /// anyway (the session universe already occupies memory, so lazy
    /// segment allocation buys no residency story — it only costs
    /// mid-loop allocations); disk-streamed sources stay lazy. The
    /// canonical report gauge counts *touched* segments, not allocated
    /// ones, so reports are identical either way.
    pub fn preallocate(&mut self) {
        for segment in &mut self.segments {
            if segment.is_none() {
                *segment = Some(Box::new([0u64; SEGMENT_WORDS]));
            }
        }
        self.allocated = self.segments.len();
    }

    /// Extends the map to address `len` sessions (no-op if it already
    /// does). New sessions read as [`AdmissionState::Pending`] and cost
    /// only directory slots until written — this is how a long-running
    /// service grows its identity space without copying packed state.
    pub fn grow(&mut self, len: u64) {
        if len <= self.len {
            return;
        }
        let n_segments = (len as usize).div_ceil(SEGMENT_ENTRIES);
        self.segments.resize(n_segments, None);
        self.len = len;
    }

    /// Number of segments currently allocated.
    pub fn allocated_segments(&self) -> usize {
        self.allocated
    }

    /// Resident bytes: allocated segment payloads plus the directory.
    pub fn allocated_bytes(&self) -> usize {
        self.allocated * SEGMENT_WORDS * 8
            + self.segments.len() * std::mem::size_of::<Option<Box<[u64; SEGMENT_WORDS]>>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_to_pending() {
        let map = AdmissionMap::new(100);
        for i in 0..100 {
            assert_eq!(map.get(i), AdmissionState::Pending);
        }
        assert_eq!(map.allocated_segments(), 0);
        assert_eq!(map.len(), 100);
        assert!(!map.is_empty());
        assert!(AdmissionMap::new(0).is_empty());
    }

    #[test]
    fn set_get_roundtrip_across_segments() {
        let len = (3 * SEGMENT_ENTRIES + 17) as u64;
        let mut map = AdmissionMap::new(len);
        // A deterministic pattern touching every segment and both parities.
        let state_for = |i: u64| match i % 3 {
            0 => AdmissionState::Pending,
            1 => AdmissionState::Admitted,
            _ => AdmissionState::Refused,
        };
        for i in (0..len).step_by(7) {
            map.set(i, state_for(i));
        }
        for i in 0..len {
            let want = if i % 7 == 0 { state_for(i) } else { AdmissionState::Pending };
            assert_eq!(map.get(i), want, "index {i}");
        }
    }

    #[test]
    fn neighbors_do_not_clobber() {
        let mut map = AdmissionMap::new(64);
        map.set(10, AdmissionState::Admitted);
        map.set(11, AdmissionState::Refused);
        map.set(12, AdmissionState::Admitted);
        map.set(11, AdmissionState::Admitted); // overwrite
        assert_eq!(map.get(10), AdmissionState::Admitted);
        assert_eq!(map.get(11), AdmissionState::Admitted);
        assert_eq!(map.get(12), AdmissionState::Admitted);
        assert_eq!(map.get(9), AdmissionState::Pending);
        assert_eq!(map.get(13), AdmissionState::Pending);
    }

    #[test]
    fn lazy_allocation_is_per_segment() {
        let mut map = AdmissionMap::new(10 * SEGMENT_ENTRIES as u64);
        assert_eq!(map.allocated_segments(), 0);
        // Pending writes allocate nothing.
        map.set(5, AdmissionState::Pending);
        assert_eq!(map.allocated_segments(), 0);
        map.set(0, AdmissionState::Admitted);
        map.set(SEGMENT_ENTRIES as u64 - 1, AdmissionState::Refused);
        assert_eq!(map.allocated_segments(), 1);
        map.set(9 * SEGMENT_ENTRIES as u64, AdmissionState::Admitted);
        assert_eq!(map.allocated_segments(), 2);
        // 2 KiB per segment plus the directory.
        assert!(map.allocated_bytes() >= 2 * SEGMENT_WORDS * 8);
        assert!(map.allocated_bytes() < 3 * SEGMENT_WORDS * 8 + 1024);
    }

    #[test]
    fn grow_extends_without_disturbing_state() {
        let mut map = AdmissionMap::new(10);
        map.set(3, AdmissionState::Admitted);
        map.grow(5); // shrinking request is a no-op
        assert_eq!(map.len(), 10);
        map.grow(2 * SEGMENT_ENTRIES as u64 + 1);
        assert_eq!(map.len(), 2 * SEGMENT_ENTRIES as u64 + 1);
        assert_eq!(map.get(3), AdmissionState::Admitted);
        assert_eq!(map.get(2 * SEGMENT_ENTRIES as u64), AdmissionState::Pending);
        // Growth adds directory slots, not segment payloads.
        assert_eq!(map.allocated_segments(), 1);
        map.set(2 * SEGMENT_ENTRIES as u64, AdmissionState::Refused);
        assert_eq!(map.get(2 * SEGMENT_ENTRIES as u64), AdmissionState::Refused);
    }

    #[test]
    fn filled_matches_setting_every_entry() {
        for len in [0, 1, 31, 32, 33, SEGMENT_ENTRIES as u64, 2 * SEGMENT_ENTRIES as u64 + 45] {
            for state in [AdmissionState::Admitted, AdmissionState::Refused] {
                let mut filled = AdmissionMap::filled(len, state);
                let mut set = AdmissionMap::new(len);
                for i in 0..len {
                    set.set(i, state);
                }
                // The tail past `len` reads Pending once grown.
                let grown = len + SEGMENT_ENTRIES as u64 + 1;
                filled.grow(grown);
                set.grow(grown);
                for i in 0..grown {
                    assert_eq!(filled.get(i), set.get(i), "len {len}, {state:?}, index {i}");
                }
                assert_eq!(filled.allocated_bytes(), set.allocated_bytes(), "len {len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        AdmissionMap::new(10).get(10);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_out_of_bounds_panics() {
        AdmissionMap::new(10).set(10, AdmissionState::Admitted);
    }
}
