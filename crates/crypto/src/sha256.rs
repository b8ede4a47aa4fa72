//! SHA-256 (FIPS 180-4).
//!
//! Used as the compression function underlying [`crate::hmac`] and for
//! deriving sub-keys in [`crate::keys`].
//!
//! The block function has two implementations: the portable one in this
//! file and one on the x86 SHA extensions in [`crate::kernels`].  Which one
//! runs is decided per call from CPU detection alone; the portable one is
//! the only path on every other CPU and the reference the differential
//! tests compare the accelerated one against.

use crate::kernels;

/// Bytes per compression-function block.
pub(crate) const BLOCK_LEN: usize = 64;

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    total_len: u64,
    compress: Compress,
}

/// A block function: folds every whole 64-byte block of its input into the
/// chaining state.
type Compress = fn(&mut [u32; 8], &[u8]);

pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

impl Sha256 {
    /// Creates a fresh hasher on the fastest block function this CPU has.
    pub fn new() -> Self {
        Sha256::with_compress(kernels::sha256_compress())
    }

    /// A hasher pinned to the portable block function, whatever the CPU:
    /// the reference side of the differential tests and of the portable
    /// lines in `benches/crypto_ops.rs`.
    pub fn portable() -> Self {
        Sha256::with_compress(compress_portable)
    }

    fn with_compress(compress: Compress) -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffer_len: 0,
            total_len: 0,
            compress,
        }
    }

    /// Feeds `data` into the hasher.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        if self.buffer_len > 0 {
            let take = (BLOCK_LEN - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len < BLOCK_LEN {
                return;
            }
            (self.compress)(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }

        // Every whole block is compressed where it lies, in one call.
        let whole = input.len() - input.len() % BLOCK_LEN;
        if whole > 0 {
            (self.compress)(&mut self.state, &input[..whole]);
        }
        let rest = &input[whole..];
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // 0x80, zeros up to the last eight bytes of a block, then the
        // message length in bits: one block, or two when fewer than nine
        // bytes of the current one are free.
        let mut tail = [0u8; 2 * BLOCK_LEN];
        tail[..self.buffer_len].copy_from_slice(&self.buffer[..self.buffer_len]);
        tail[self.buffer_len] = 0x80;
        let tail_len = if self.buffer_len < BLOCK_LEN - 8 {
            BLOCK_LEN
        } else {
            2 * BLOCK_LEN
        };
        let bit_len = self.total_len.wrapping_mul(8);
        tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
        (self.compress)(&mut self.state, &tail[..tail_len]);

        let mut digest = [0u8; 32];
        for (out, word) in digest.chunks_exact_mut(4).zip(self.state) {
            out.copy_from_slice(&word.to_be_bytes());
        }
        digest
    }

    /// One-shot convenience for hashing a byte slice.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut hasher = Sha256::new();
        hasher.update(data);
        hasher.finalize()
    }
}

/// The portable block function: compresses every whole block of `blocks`.
pub(crate) fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(BLOCK_LEN) {
        let mut w = [0u32; 64];
        for (word, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{hex, Lcg};

    type NewHasher = fn() -> Sha256;

    /// Both sides of every vector: the block function `Sha256::new` picked
    /// on this CPU and the portable one (the same function where the CPU
    /// has no SHA extensions).
    fn both() -> [(&'static str, NewHasher); 2] {
        [("selected", Sha256::new), ("portable", Sha256::portable)]
    }

    fn digest_with(new: NewHasher, data: &[u8]) -> [u8; 32] {
        let mut hasher = new();
        hasher.update(data);
        hasher.finalize()
    }

    #[test]
    fn published_vectors_on_both_paths() {
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"The quick brown fox jumps over the lazy dog",
                "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592",
            ),
            // 448-bit message from the FIPS 180-4 appendix (two blocks).
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        for (path, new) in both() {
            for (message, expected) in vectors {
                assert_eq!(hex(&digest_with(new, message)), expected, "{path}");
            }
        }
    }

    #[test]
    fn million_a_vector_on_both_paths() {
        for (path, new) in both() {
            let mut hasher = new();
            let chunk = [b'a'; 1000];
            for _ in 0..1000 {
                hasher.update(&chunk);
            }
            assert_eq!(
                hex(&hasher.finalize()),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{path}"
            );
        }
    }

    #[test]
    fn selected_matches_portable_for_every_length_and_offset() {
        // One byte of slack in front so the input starts at every
        // alignment the kernels' unaligned loads can meet.
        let mut rng = Lcg(0x5AA5);
        let backing: Vec<u8> = (0..1024 + 16).map(|_| rng.byte()).collect();
        for len in 0..=1024usize {
            let offset = len % 16;
            let data = &backing[offset..offset + len];
            assert_eq!(
                Sha256::digest(data),
                digest_with(Sha256::portable, data),
                "length {len} at offset {offset}"
            );
        }
    }

    #[test]
    fn random_update_splits_match_oneshot_on_both_paths() {
        let mut rng = Lcg(0xC0FFEE);
        let data: Vec<u8> = (0..3000).map(|_| rng.byte()).collect();
        let oneshot = digest_with(Sha256::portable, &data);
        for (path, new) in both() {
            for chunk_size in [1usize, 3, 63, 64, 65, 100, 128, 129] {
                let mut hasher = new();
                for chunk in data.chunks(chunk_size) {
                    hasher.update(chunk);
                }
                assert_eq!(hasher.finalize(), oneshot, "{path} chunk size {chunk_size}");
            }
            for _ in 0..200 {
                let mut hasher = new();
                let mut rest = &data[..];
                while !rest.is_empty() {
                    let take = (rng.next() as usize % 200).min(rest.len());
                    hasher.update(&rest[..take]);
                    rest = &rest[take..];
                }
                assert_eq!(hasher.finalize(), oneshot, "{path} random splits");
            }
        }
    }
}
