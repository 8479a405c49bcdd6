//! A from-scratch implementation of SHA-256 (FIPS 180-4).
//!
//! A digest costs its compressions and little else: `update` compresses
//! whole blocks where they lie in the input and buffers only the tail,
//! `finalize` pads in one step (one compression, or two when 56 or more
//! bytes are buffered). The compression runs on one of two bodies, chosen
//! at run time with no build flag or option: on an x86_64 CPU with the SHA
//! extensions (`sha`, with `ssse3` and `sse4.1`) it is `sha256rnds2` and
//! `sha256msg1`/`sha256msg2` on four words at a time; elsewhere it is the
//! portable body, whose 64 rounds are unrolled over a rolling 16-word
//! message schedule. [`backend`] says which one runs. The tests check the
//! hasher bit for bit against a straightforward reference, and the two
//! bodies against each other block by block.

/// A 32-byte SHA-256 digest.
///
/// Digests order lexicographically, which [`crate::pow`] exploits: a
/// `k`-hard challenge asks for a digest below a target value.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Returns the digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Interprets the first 16 bytes as a big-endian `u128`.
    ///
    /// This prefix is what proof-of-work hardness comparisons use: a uniform
    /// digest yields a uniform `u128` prefix, so `prefix < u128::MAX / k`
    /// holds with probability `1/k`.
    pub fn prefix_u128(&self) -> u128 {
        let mut b = [0u8; 16];
        b.copy_from_slice(&self.0[..16]);
        u128::from_be_bytes(b)
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({})", crate::hex::encode(&self.0))
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&crate::hex::encode(&self.0))
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// SHA-256 round constants: the first 32 bits of the fractional parts of the
/// cube roots of the first 64 primes (FIPS 180-4 Section 4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes (FIPS 180-4 Section 5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A streaming SHA-256 hasher.
///
/// # Example
///
/// ```
/// use sybil_crypto::sha256::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// let digest = hasher.finalize();
/// assert_eq!(digest, Sha256::digest(b"hello world"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (used for the length suffix in padding).
    len: u64,
    /// Partially filled block.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, len: 0, buf: [0; 64], buf_len: 0 }
    }

    /// One-shot convenience: hash `data` and return the digest.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("chunks_exact yields 64 bytes"));
        }
        let tail = blocks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the computation and returns the digest, consuming the hasher.
    pub fn finalize(mut self) -> Digest {
        // The 0x80 marker, zeros, and the message length in bits in the last
        // eight bytes; a tail with no room left for the length takes a second
        // block.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf = [0; 64];
        }
        self.buf[56..].copy_from_slice(&self.len.wrapping_mul(8).to_be_bytes());
        compress(&mut self.state, &self.buf);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// Names the compression body this CPU runs: `"x86 SHA extensions"` or
/// `"portable"`.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        return "x86 SHA extensions";
    }
    "portable"
}

/// The SHA-256 compression function: folds one 64-byte block into `state`,
/// on the SHA extensions where the CPU has them.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        // SAFETY: `x86::compress` needs the `sha`, `sse2`, `ssse3` and
        // `sse4.1` target features; `available` has just found the first
        // and the last two on this CPU, and x86_64 always has `sse2`.
        #[allow(unsafe_code)]
        unsafe {
            x86::compress(state, block)
        };
        return;
    }
    compress_portable(state, block);
}

/// The portable compression body, and the reference the SHA-extension body
/// is tested against.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    // The message schedule rolls through 16 words: round `i` reads word
    // `i % 16`, which rounds 16 and up first overwrite with `W[i]`, computed
    // from the slots still holding `W[i-16]`, `W[i-15]`, `W[i-7]`, `W[i-2]`.
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("chunks_exact yields 4 bytes"));
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    // One round, with FIPS 180-4's working variables `a`..`h` bound to the
    // names passed in. Rather than shift all eight down, a round writes the
    // new `a` into the `h` name and the new `e` into the `d` name, and the
    // next round is passed the names rotated by one.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {{
            let i: usize = $i;
            if i >= 16 {
                let (w15, w2) = (w[(i + 1) % 16], w[(i + 14) % 16]);
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[i % 16] =
                    w[i % 16].wrapping_add(s0).wrapping_add(w[(i + 9) % 16]).wrapping_add(s1);
            }
            let t1 = $h
                .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                .wrapping_add($g ^ ($e & ($f ^ $g)))
                .wrapping_add(K[i])
                .wrapping_add(w[i % 16]);
            $d = $d.wrapping_add(t1);
            $h = t1
                .wrapping_add($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                .wrapping_add(($a & $b) | ($c & ($a | $b)));
        }};
    }
    // Eight rounds bring every name back to its own variable.
    macro_rules! eight_rounds {
        ($i:expr) => {
            round!(a, b, c, d, e, f, g, h, $i);
            round!(h, a, b, c, d, e, f, g, $i + 1);
            round!(g, h, a, b, c, d, e, f, $i + 2);
            round!(f, g, h, a, b, c, d, e, $i + 3);
            round!(e, f, g, h, a, b, c, d, $i + 4);
            round!(d, e, f, g, h, a, b, c, $i + 5);
            round!(c, d, e, f, g, h, a, b, $i + 6);
            round!(b, c, d, e, f, g, h, a, $i + 7);
        };
    }
    eight_rounds!(0);
    eight_rounds!(8);
    eight_rounds!(16);
    eight_rounds!(24);
    eight_rounds!(32);
    eight_rounds!(40);
    eight_rounds!(48);
    eight_rounds!(56);

    for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(v);
    }
}

/// The SHA-256 compression on the CPU's SHA extensions.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    /// Whether this CPU has every feature [`compress`] is compiled for
    /// (x86_64 always has `sse2`). The answer is detected once and cached.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Message words `4q` to `4q + 3`, read big-endian from bytes `16q` to
    /// `16q + 16`, word `4q` in the low lane.
    #[target_feature(enable = "sse2")]
    fn words(block: &[u8; 64], q: usize) -> __m128i {
        let w = |i: usize| {
            let at = 4 * (4 * q + i);
            u32::from_be_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]]) as i32
        };
        _mm_set_epi32(w(3), w(2), w(1), w(0))
    }

    /// Folds one 64-byte block into `state`, the same function as
    /// [`super::compress_portable`].
    ///
    /// `sha256rnds2` keeps the working variables in two registers, `ABEF`
    /// and `CDGH` (`A` and `C` in the high lane), and runs two rounds on
    /// the low two lanes of its message-plus-constant operand. The message
    /// schedule rolls through four registers of four words: quad `q ≥ 4`
    /// overwrites quad `q − 4`'s register with `W[4q..4q + 4]`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let s = state.map(|v| v as i32);
        let mut abef = _mm_set_epi32(s[0], s[1], s[4], s[5]);
        let mut cdgh = _mm_set_epi32(s[2], s[3], s[6], s[7]);
        let (abef_in, cdgh_in) = (abef, cdgh);
        let mut w = [words(block, 0), words(block, 1), words(block, 2), words(block, 3)];

        // Four rounds on quad `q`: `W[i] = σ1(W[i-2]) + W[i-7] + σ0(W[i-15])
        // + W[i-16]`, where `msg1` adds σ0 of the next four words into quad
        // `q − 4`, `alignr` lines up `W[i-7]` from quads `q − 2` and `q − 1`,
        // and `msg2` adds σ1 of quad `q − 1`'s last two words and of the new
        // quad's own first two.
        macro_rules! quad {
            ($q:expr) => {{
                let q: usize = $q;
                if q >= 4 {
                    let t = _mm_sha256msg1_epu32(w[q % 4], w[(q + 1) % 4]);
                    let t = _mm_add_epi32(t, _mm_alignr_epi8::<4>(w[(q + 3) % 4], w[(q + 2) % 4]));
                    w[q % 4] = _mm_sha256msg2_epu32(t, w[(q + 3) % 4]);
                }
                let k = |i: usize| K[4 * q + i] as i32;
                let wk = _mm_add_epi32(w[q % 4], _mm_set_epi32(k(3), k(2), k(1), k(0)));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
            }};
        }
        macro_rules! four_quads {
            ($q:expr) => {
                quad!($q);
                quad!($q + 1);
                quad!($q + 2);
                quad!($q + 3);
            };
        }
        four_quads!(0);
        four_quads!(4);
        four_quads!(8);
        four_quads!(12);

        let abef = _mm_add_epi32(abef, abef_in);
        let cdgh = _mm_add_epi32(cdgh, cdgh_in);
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|v| v as u32);
    }
}

/// The second block of a 64-byte message: the 0x80 marker, zeros, and the
/// length, 512 bits.
const PAD_64B: [u8; 64] = {
    let mut pad = [0u8; 64];
    pad[0] = 0x80;
    pad[62] = 0x02;
    pad
};

/// One link of [`calibrate_64b`]'s chain: writes `i` into the message's
/// first eight bytes, hashes the message on the portable body, and writes
/// the digest into bytes 8 to 40. The digest is `Sha256::digest`'s.
fn calibration_step(msg: &mut [u8; 64], i: u64) {
    msg[..8].copy_from_slice(&i.to_le_bytes());
    let mut state = H0;
    compress_portable(&mut state, msg);
    compress_portable(&mut state, &PAD_64B);
    for (bytes, word) in msg[8..40].chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
}

/// Hashes a chain of one million 64-byte messages and returns
/// `(messages, wall seconds)`: the `sha256_64b` machine-speed calibration
/// `bench_report` publishes and `bench_compare` scales its throughput
/// floors by. It runs the portable compression body on every CPU, never
/// the SHA extensions, so it measures the machine only while that body
/// stays put. The rule that keeps it so: a change to the *portable*
/// compression re-bases the report, and regenerates the committed one
/// (`BENCH_engine.json`) in the same change, or every floor moves by its
/// speed-up.
pub fn calibrate_64b() -> (u64, f64) {
    let ops: u64 = 1_000_000;
    let mut msg = [0u8; 64];
    let started = std::time::Instant::now();
    for i in 0..ops {
        calibration_step(&mut msg, i);
    }
    (ops, started.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex_digest(data: &[u8]) -> String {
        Sha256::digest(data).to_string()
    }

    #[test]
    fn nist_empty_string() {
        assert_eq!(
            hex_digest(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hex_digest(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block_message() {
        assert_eq!(
            hex_digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex_digest(&data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn fox_vectors() {
        assert_eq!(
            hex_digest(b"The quick brown fox jumps over the lazy dog"),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"
        );
        assert_eq!(
            hex_digest(b"The quick brown fox jumps over the lazy dog."),
            "ef537f25c895bfa782526529a9b63d97aa631564d5d789c2b765448c8635fb6c"
        );
    }

    #[test]
    fn streaming_matches_one_shot_at_all_split_points() {
        let data: Vec<u8> = (0u8..=255).cycle().take(300).collect();
        let expect = Sha256::digest(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }

    #[test]
    fn streaming_many_small_updates() {
        let data = vec![7u8; 1000];
        let mut h = Sha256::new();
        for b in &data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn boundary_lengths_hash_consistently() {
        // Lengths around the 55/56/64-byte padding boundaries are the classic
        // place for padding bugs; check self-consistency of streaming.
        for len in [0, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            let mid = len / 2;
            h.update(&data[..mid]);
            h.update(&data[mid..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "len {len}");
        }
    }

    #[test]
    fn calibration_chain_is_sha256_digest() {
        let mut msg = [0u8; 64];
        let mut expect = [0u8; 64];
        for i in 0..1000u64 {
            calibration_step(&mut msg, i);
            expect[..8].copy_from_slice(&i.to_le_bytes());
            let digest = Sha256::digest(&expect);
            expect[8..40].copy_from_slice(digest.as_bytes());
            assert_eq!(msg, expect, "link {i}");
        }
    }

    #[test]
    fn digest_prefix_is_big_endian() {
        let d = Digest([
            0x01, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, //
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ]);
        assert_eq!(d.prefix_u128(), 1u128 << 120);
    }

    #[test]
    fn digest_debug_is_nonempty_and_ordered() {
        let a = Sha256::digest(b"a");
        assert!(!format!("{a:?}").is_empty());
        let b = Sha256::digest(b"b");
        // Ordering is lexicographic on bytes; just check it is total/consistent.
        assert_eq!(a.cmp(&b), a.as_bytes().cmp(b.as_bytes()));
    }
}

/// The hasher checked against a reference: the straightforward
/// implementation this module replaced (byte-at-a-time padding, every block
/// copied before it is compressed, a 64-word schedule, eight registers moved
/// every round). Every check compares whole digests, so one differing output
/// bit fails it.
#[cfg(test)]
mod differential {
    use super::{backend, compress, compress_portable, Digest, Sha256, H0, K};
    use crate::pow::{Challenge, Solver};

    struct Reference {
        state: [u32; 8],
        len: u64,
        buf: [u8; 64],
        buf_len: usize,
    }

    impl Reference {
        fn digest(data: &[u8]) -> Digest {
            let mut h = Reference { state: H0, len: 0, buf: [0; 64], buf_len: 0 };
            h.update(data);
            h.finalize()
        }

        fn update(&mut self, data: &[u8]) {
            self.len = self.len.wrapping_add(data.len() as u64);
            let mut rest = data;
            if self.buf_len > 0 {
                let need = 64 - self.buf_len;
                let take = need.min(rest.len());
                self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
                self.buf_len += take;
                rest = &rest[take..];
                if self.buf_len == 64 {
                    let block = self.buf;
                    self.compress(&block);
                    self.buf_len = 0;
                }
            }
            while rest.len() >= 64 {
                let (block, tail) = rest.split_at(64);
                let mut b = [0u8; 64];
                b.copy_from_slice(block);
                self.compress(&b);
                rest = tail;
            }
            if !rest.is_empty() {
                self.buf[..rest.len()].copy_from_slice(rest);
                self.buf_len = rest.len();
            }
        }

        fn finalize(mut self) -> Digest {
            let bit_len = self.len.wrapping_mul(8);
            self.update(&[0x80]);
            while self.buf_len != 56 {
                self.update(&[0x00]);
            }
            self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
            let block = self.buf;
            self.compress(&block);
            let mut out = [0u8; 32];
            for (i, word) in self.state.iter().enumerate() {
                out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
            }
            Digest(out)
        }

        fn compress(&mut self, block: &[u8; 64]) {
            let mut w = [0u32; 64];
            for (i, chunk) in block.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ ((!e) & g);
                let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let t2 = s0.wrapping_add(maj);
                h = g;
                g = f;
                f = e;
                e = d.wrapping_add(t1);
                d = c;
                c = b;
                b = a;
                a = t1.wrapping_add(t2);
            }
            for (word, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
                *word = word.wrapping_add(v);
            }
        }
    }

    /// SplitMix64: the seeded stream the random cases are drawn from.
    fn next(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn bytes(seed: &mut u64, len: usize) -> Vec<u8> {
        (0..len).map(|_| next(seed) as u8).collect()
    }

    #[test]
    fn every_length_to_300_at_every_split_point() {
        let mut seed = 1;
        for len in 0..=300 {
            let data = bytes(&mut seed, len);
            let expect = Reference::digest(&data);
            for split in 0..=len {
                let mut h = Sha256::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), expect, "len {len}, split at {split}");
            }
        }
    }

    #[test]
    fn seeded_messages_in_random_chunkings() {
        let mut seed = 2;
        // Each message is a seeded window of one random pool, its length
        // drawn below a power of two up to 4 KiB picked first: every size
        // class gets as many cases as the longest, and the dev-profile run
        // stays in seconds.
        let pool = bytes(&mut seed, 1 << 16);
        for case in 0..100_000 {
            let len = (next(&mut seed) % ((1 << (next(&mut seed) % 13)) + 1)) as usize;
            let start = (next(&mut seed) % (pool.len() - len) as u64) as usize;
            let data = &pool[start..start + len];
            let mut h = Sha256::new();
            let mut rest = data;
            while !rest.is_empty() {
                let at = (next(&mut seed) % 200) as usize;
                let (chunk, tail) = rest.split_at(at.min(rest.len()));
                h.update(chunk);
                rest = tail;
            }
            assert_eq!(h.finalize(), Reference::digest(data), "case {case}, {len} bytes");
        }
    }

    #[test]
    fn padding_edges() {
        // 55 and 56 bytes straddle the one-block padding limit, 63 and 64 the
        // block itself, 119 and 120 the same limit one block later.
        for len in [55, 56, 63, 64, 119, 120] {
            for fill in [0x00, 0x80, 0xff] {
                let data = vec![fill; len];
                assert_eq!(Sha256::digest(&data), Reference::digest(&data), "len {len}");
            }
        }
    }

    /// The dispatched compression against the portable body, on 10⁵ seeded
    /// `(state, block)` pairs and the all-zero, all-ones and `H0` edges.
    /// Only a CPU with the SHA extensions dispatches anywhere else, so
    /// elsewhere this checks nothing; the digest-level tests above run
    /// through the dispatcher on every CPU.
    #[test]
    fn sha_extensions_compress_as_the_portable_body_does() {
        if backend() == "portable" {
            return;
        }
        let both = |state: [u32; 8], block: &[u8; 64]| {
            let (mut fast, mut portable) = (state, state);
            compress(&mut fast, block);
            compress_portable(&mut portable, block);
            (fast, portable)
        };
        for (state, block) in [([0; 8], [0; 64]), ([u32::MAX; 8], [0xff; 64]), (H0, [0; 64])] {
            let (fast, portable) = both(state, &block);
            assert_eq!(fast, portable, "state {state:08x?}, block of {:#04x}", block[0]);
        }
        let mut seed = 3;
        for case in 0..100_000 {
            let state = [0; 8].map(|_| next(&mut seed) as u32);
            let block = bytes(&mut seed, 64).try_into().expect("64 bytes");
            let (fast, portable) = both(state, &block);
            assert_eq!(fast, portable, "case {case}");
        }
    }

    /// Eight challenges' winning nonces and work counts, recorded with the
    /// reference hasher: the searches read 954 digests between them, and any
    /// one of those crossing its target moves these.
    #[test]
    fn solver_work_counts_are_pinned() {
        let pinned =
            [(1, 2), (2, 3), (2, 3), (9, 10), (116, 117), (16, 17), (379, 380), (421, 422)];
        for (i, (nonce, work)) in (0u64..).zip(pinned) {
            let challenge = Challenge::new(&i.to_be_bytes(), b"golden-solver", 1 << (2 + i));
            let mut solver = Solver::new();
            assert_eq!((solver.solve(&challenge).nonce, solver.work()), (nonce, work), "case {i}");
        }
    }
}
