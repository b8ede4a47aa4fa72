//! ChaCha20 stream cipher (RFC 8439 block function and counter mode).
//!
//! Obladi re-encrypts every bucket it writes back to untrusted storage with
//! fresh randomness so the server cannot correlate bucket contents across
//! writes.  ChaCha20 in counter mode with a per-write random nonce provides
//! exactly that "randomized encryption" primitive.
//!
//! [`ChaCha20::block`] is the portable code: one block at a time, the only
//! path on CPUs without AVX2 and the reference the differential tests
//! compare against.  Where the CPU has AVX2, [`crate::kernels`] computes
//! eight blocks per pass instead.  (Lane-wise array code that the compiler
//! is left to vectorise was tried first and dropped: without AVX2 LLVM
//! keeps the lanes scalar and spills them — slower than one block at a
//! time — and with AVX2 its output ran between 290 and 740 MB/s depending
//! on incidental source shape, against 2.2 GB/s for the explicit kernel.)

use crate::kernels;

/// Bytes per keystream block.
pub(crate) const BLOCK_LEN: usize = 64;
/// "expand 32-byte k".
pub(crate) const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// ChaCha20 cipher instance holding a 256-bit key.
#[derive(Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
}

impl ChaCha20 {
    /// Constructs a cipher from a 32-byte key.
    pub fn new(key: &[u8; 32]) -> Self {
        let mut words = [0u32; 8];
        for (word, chunk) in words.iter_mut().zip(key.chunks_exact(4)) {
            *word = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        ChaCha20 { key: words }
    }

    /// Produces one 64-byte keystream block for `(nonce, counter)`.
    pub fn block(&self, nonce: &[u8; 12], counter: u32) -> [u8; 64] {
        block(&self.key, &nonce_words(nonce), counter)
    }

    /// Encrypts or decrypts `data` in place (XOR with the keystream starting
    /// at block counter `initial_counter`, which wraps at `u32::MAX`), on
    /// the widest kernel this CPU has.
    pub fn apply_keystream(&self, nonce: &[u8; 12], initial_counter: u32, data: &mut [u8]) {
        kernels::chacha20_xor(&self.key, &nonce_words(nonce), initial_counter, data);
    }

    /// [`ChaCha20::apply_keystream`] pinned to the portable path, whatever
    /// the CPU: the only path on CPUs without AVX2, and what the
    /// differential tests and the portable line of `benches/crypto_ops.rs`
    /// call directly.
    pub fn apply_keystream_portable(
        &self,
        nonce: &[u8; 12],
        initial_counter: u32,
        data: &mut [u8],
    ) {
        xor_portable(&self.key, &nonce_words(nonce), initial_counter, data);
    }

    /// Convenience: returns an encrypted copy of `data`.
    pub fn encrypt(&self, nonce: &[u8; 12], data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        self.apply_keystream(nonce, 1, &mut out);
        out
    }

    /// Convenience: returns a decrypted copy of `data` (identical to
    /// [`ChaCha20::encrypt`] since XOR is an involution).
    pub fn decrypt(&self, nonce: &[u8; 12], data: &[u8]) -> Vec<u8> {
        self.encrypt(nonce, data)
    }
}

fn nonce_words(nonce: &[u8; 12]) -> [u32; 3] {
    let mut words = [0u32; 3];
    for (word, chunk) in words.iter_mut().zip(nonce.chunks_exact(4)) {
        *word = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    words
}

/// One keystream block, portably.
fn block(key: &[u32; 8], nonce: &[u32; 3], counter: u32) -> [u8; BLOCK_LEN] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&SIGMA);
    state[4..12].copy_from_slice(key);
    state[12] = counter;
    state[13..].copy_from_slice(nonce);

    let mut working = state;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }

    let mut out = [0u8; BLOCK_LEN];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The portable keystream path: block by block.
pub(crate) fn xor_portable(key: &[u32; 8], nonce: &[u32; 3], counter: u32, data: &mut [u8]) {
    let mut counter = counter;
    for chunk in data.chunks_mut(BLOCK_LEN) {
        let keystream = block(key, nonce, counter);
        for (byte, k) in chunk.iter_mut().zip(keystream.iter()) {
            *byte ^= k;
        }
        counter = counter.wrapping_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{unhex, Lcg};

    fn rfc_key() -> [u8; 32] {
        let mut key = [0u8; 32];
        for (i, byte) in key.iter_mut().enumerate() {
            *byte = i as u8;
        }
        key
    }

    /// The block-by-block reference, written out against the public
    /// one-block function so it shares nothing with either path's loop.
    fn blockwise(cipher: &ChaCha20, nonce: &[u8; 12], initial_counter: u32, data: &mut [u8]) {
        let mut counter = initial_counter;
        for chunk in data.chunks_mut(64) {
            let keystream = cipher.block(nonce, counter);
            for (byte, k) in chunk.iter_mut().zip(keystream.iter()) {
                *byte ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }

    #[test]
    fn rfc8439_block_test_vector() {
        // RFC 8439 §2.3.2: key = 00..1f, nonce = 000000090000004a00000000,
        // counter = 1.
        let cipher = ChaCha20::new(&rfc_key());
        let nonce = [
            0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let block = cipher.block(&nonce, 1);
        let expected: [u8; 64] = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0, 0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a,
            0xc3, 0xd4, 0x6c, 0x4e, 0xd2, 0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2,
            0xd7, 0x05, 0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9,
            0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e,
        ];
        assert_eq!(block, expected);
    }

    #[test]
    fn rfc8439_encryption_test_vector_on_both_paths() {
        // RFC 8439 §2.4.2: 114 bytes (two blocks), counter starts at 1.
        let cipher = ChaCha20::new(&rfc_key());
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let expected = unhex(
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d",
        );
        assert_eq!(plaintext.len(), 114);
        assert_eq!(cipher.encrypt(&nonce, plaintext), expected);
        let mut portable = plaintext.to_vec();
        cipher.apply_keystream_portable(&nonce, 1, &mut portable);
        assert_eq!(portable, expected);
    }

    #[test]
    fn both_paths_match_blockwise_for_every_length_and_offset() {
        let cipher = ChaCha20::new(&rfc_key());
        let nonce = [9u8; 12];
        let mut rng = Lcg(0xCAC4A);
        let backing: Vec<u8> = (0..1024 + 16).map(|_| rng.byte()).collect();
        for len in 0..=1024usize {
            let offset = len % 16;
            let input = &backing[offset..offset + len];
            let mut expected = input.to_vec();
            blockwise(&cipher, &nonce, 1, &mut expected);

            // Same (mis)alignment for the buffers the kernels write.
            let mut selected = backing.clone();
            cipher.apply_keystream(&nonce, 1, &mut selected[offset..offset + len]);
            assert_eq!(&selected[offset..offset + len], &expected[..], "len {len}");
            let mut portable = backing.clone();
            cipher.apply_keystream_portable(&nonce, 1, &mut portable[offset..offset + len]);
            assert_eq!(&portable[offset..offset + len], &expected[..], "len {len}");
        }
    }

    #[test]
    fn counter_wraps_exactly_like_the_blockwise_reference() {
        let cipher = ChaCha20::new(&rfc_key());
        let nonce = [5u8; 12];
        let mut rng = Lcg(77);
        let input: Vec<u8> = (0..20 * 64 + 17).map(|_| rng.byte()).collect();
        // Counters whose eight-block passes straddle the wrap at every
        // lane, plus ordinary 4- and 8-block boundaries.
        let counters =
            (0..=9u32)
                .map(|back| u32::MAX - back)
                .chain([0, 1, 3, 4, 5, 7, 8, 9, u32::MAX / 2]);
        for initial_counter in counters {
            let mut expected = input.clone();
            blockwise(&cipher, &nonce, initial_counter, &mut expected);
            let mut selected = input.clone();
            cipher.apply_keystream(&nonce, initial_counter, &mut selected);
            assert_eq!(selected, expected, "selected, counter {initial_counter}");
            let mut portable = input.clone();
            cipher.apply_keystream_portable(&nonce, initial_counter, &mut portable);
            assert_eq!(portable, expected, "portable, counter {initial_counter}");
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let cipher = ChaCha20::new(&rfc_key());
        let nonce = [7u8; 12];
        let plaintext = b"the quick brown fox jumps over the lazy dog".to_vec();
        let ciphertext = cipher.encrypt(&nonce, &plaintext);
        assert_ne!(ciphertext, plaintext);
        assert_eq!(cipher.decrypt(&nonce, &ciphertext), plaintext);
    }

    #[test]
    fn different_nonces_give_different_ciphertexts() {
        let cipher = ChaCha20::new(&rfc_key());
        let plaintext = vec![0u8; 128];
        let c1 = cipher.encrypt(&[1u8; 12], &plaintext);
        let c2 = cipher.encrypt(&[2u8; 12], &plaintext);
        assert_ne!(c1, c2);
    }

    #[test]
    fn empty_input_is_fine() {
        let cipher = ChaCha20::new(&rfc_key());
        assert!(cipher.encrypt(&[0u8; 12], &[]).is_empty());
    }
}
