//! Identifiers.
//!
//! Every joining ID is treated as new (paper Section 2.1.1: a join-event
//! counter is concatenated to the chosen name, guaranteeing uniqueness).

/// An opaque identifier for a (virtual) participant.
///
/// Defenses treat IDs as opaque; whether an ID is good or Sybil is ground
/// truth known only to the simulation engine and the adversary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Id(pub u64);

impl std::fmt::Display for Id {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "id{}", self.0)
    }
}

impl Id {
    /// Serializes the ID for use as a PoW solver identity.
    pub fn to_bytes(self) -> [u8; 8] {
        self.0.to_be_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_bytes_roundtrip() {
        let id = Id(0xdead_beef);
        assert_eq!(u64::from_be_bytes(id.to_bytes()), 0xdead_beef);
        assert_eq!(id.to_string(), "id3735928559");
    }
}
