//! Minimal hexadecimal encoding: digests, fingerprints and cache keys as text.

/// Encodes `bytes` as a lowercase hex string.
///
/// # Example
///
/// ```
/// assert_eq!(sybil_crypto::hex::encode(&[0xde, 0xad]), "dead");
/// ```
pub fn encode(bytes: &[u8]) -> String {
    const TABLE: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(TABLE[(b >> 4) as usize] as char);
        out.push(TABLE[(b & 0xf) as usize] as char);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty() {
        assert_eq!(encode(&[]), "");
    }
}
