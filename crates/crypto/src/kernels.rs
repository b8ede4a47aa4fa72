//! CPU-specific kernels: SHA-256 on the x86 SHA extensions and eight
//! ChaCha20 blocks per pass on AVX2.
//!
//! This is the only module in the workspace that contains `unsafe` (CI
//! greps for it everywhere else).  Two things need it, and nothing else:
//!
//! * calling a `#[target_feature]` function from code compiled without that
//!   feature — sound exactly when the CPU has the feature, which
//!   [`sha256_compress`] and [`chacha20_xor`] establish with
//!   `is_x86_feature_detected!` immediately before handing the function
//!   out or calling it;
//! * the unaligned vector loads and stores, which go through `load128` /
//!   `store128` / `store256` on array references of exactly the vector's
//!   size, so the pointer is valid for the access by construction.
//!
//! Everything else in the kernels — the `std::arch` arithmetic, shuffles
//! and SHA instructions — is safe code inside functions that carry the
//! matching `#[target_feature]`.
//!
//! Kernel choice is CPU detection only: no feature flag, no environment
//! variable.  On other architectures, and on x86-64 CPUs without the
//! extensions, the portable code in [`crate::sha256`] and
//! [`crate::chacha20`] is the only path.

use crate::chacha20;
use crate::sha256;

/// Which kernels this process runs, as one static string for reports:
/// `sha-ni+avx2`, `sha-ni`, `avx2` or `portable`.
pub fn selected() -> &'static str {
    match (sha_ni_detected(), avx2_detected()) {
        (true, true) => "sha-ni+avx2",
        (true, false) => "sha-ni",
        (false, true) => "avx2",
        (false, false) => "portable",
    }
}

/// The fastest SHA-256 block function this CPU has.
pub(crate) fn sha256_compress() -> fn(&mut [u32; 8], &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni_detected() {
        return x86::sha256_compress_detected;
    }
    sha256::compress_portable
}

/// XORs the ChaCha20 keystream for `(nonce, counter..)` into `data` on the
/// widest kernel this CPU has.
pub(crate) fn chacha20_xor(key: &[u32; 8], nonce: &[u32; 3], counter: u32, data: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_detected() {
        // SAFETY: `chacha20_xor_avx2` requires AVX2, detected on the line
        // above.
        unsafe { x86::chacha20_xor_avx2(key, nonce, counter, data) };
        return;
    }
    chacha20::xor_portable(key, nonce, counter, data);
}

fn sha_ni_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::chacha20::SIGMA;
    use crate::sha256::{BLOCK_LEN, K};
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi32, _mm256_or_si256, _mm256_permute2x128_si256,
        _mm256_set1_epi32, _mm256_set_epi8, _mm256_setr_epi32, _mm256_shuffle_epi8,
        _mm256_slli_epi32, _mm256_srli_epi32, _mm256_storeu_si256, _mm256_unpackhi_epi32,
        _mm256_unpackhi_epi64, _mm256_unpacklo_epi32, _mm256_unpacklo_epi64, _mm256_xor_si256,
        _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// The SHA-extension block function behind a plain `fn` signature.
    /// Private to [`super`], which hands it out only from
    /// [`super::sha256_compress`], after detection.
    pub(super) fn sha256_compress_detected(state: &mut [u32; 8], blocks: &[u8]) {
        // SAFETY: `sha256_compress_ni` requires the `sha`, `sse2`, `ssse3`
        // and `sse4.1` features; this function is reachable only through
        // the pointer `super::sha256_compress` returns after
        // `is_x86_feature_detected!` confirmed all four.
        unsafe { sha256_compress_ni(state, blocks) }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn load128(bytes: &[u8; 16]) -> __m128i {
        // SAFETY: `bytes` is a live reference to exactly 16 bytes, which is
        // what `_mm_loadu_si128` reads; the load has no alignment
        // requirement.  (`sse2` is part of the caller's detected set.)
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn store128(bytes: &mut [u8; 16], value: __m128i) {
        // SAFETY: `bytes` is an exclusive reference to exactly 16 bytes,
        // which is what `_mm_storeu_si128` writes; the store has no
        // alignment requirement.  (`sse2` is part of the caller's detected
        // set.)
        unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast(), value) }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn load_words(words: &[u32]) -> __m128i {
        let mut bytes = [0u8; 16];
        for (out, word) in bytes.chunks_exact_mut(4).zip(words) {
            out.copy_from_slice(&word.to_le_bytes());
        }
        load128(&bytes)
    }

    /// SHA-256 over every whole block of `blocks` with `sha256rnds2` (two
    /// rounds per instruction) and `sha256msg1/2` (the message schedule).
    /// The instructions want the state as the register pair `ABEF`/`CDGH`,
    /// so it is permuted once on the way in and once on the way out.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn sha256_compress_ni(state: &mut [u32; 8], blocks: &[u8]) {
        // Big-endian message words: reverse the bytes of each 32-bit lane.
        let byte_swap = _mm_set_epi64x(0x0C0D_0E0F_0809_0A0B, 0x0405_0607_0001_0203);

        let dcba = load_words(&state[..4]);
        let hgfe = load_words(&state[4..]);
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks.chunks_exact(BLOCK_LEN) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // The four most recent groups of four schedule words; group `i`
            // lives in `w[i % 4]`.
            let mut w = [byte_swap; 4];
            for (group, bytes) in w.iter_mut().zip(block.chunks_exact(16)) {
                let bytes: &[u8; 16] = bytes.try_into().expect("chunks_exact(16)");
                *group = _mm_shuffle_epi8(load128(bytes), byte_swap);
            }
            for i in 0..16 {
                if i >= 4 {
                    // W[4i..4i+4] from the previous sixteen words.
                    let partial = _mm_sha256msg1_epu32(w[i % 4], w[(i + 1) % 4]);
                    let shifted = _mm_alignr_epi8(w[(i + 3) % 4], w[(i + 2) % 4], 4);
                    w[i % 4] =
                        _mm_sha256msg2_epu32(_mm_add_epi32(partial, shifted), w[(i + 3) % 4]);
                }
                let wk = _mm_add_epi32(w[i % 4], load_words(&K[4 * i..4 * i + 4]));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let mut out = [0u8; 16];
        store128(&mut out, _mm_blend_epi16(feba, dchg, 0xF0));
        store_words(&mut state[..4], &out);
        store128(&mut out, _mm_alignr_epi8(dchg, feba, 8));
        store_words(&mut state[4..], &out);
    }

    fn store_words(words: &mut [u32], bytes: &[u8; 16]) {
        for (word, chunk) in words.iter_mut().zip(bytes.chunks_exact(4)) {
            *word = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
    }

    /// ChaCha20 blocks computed side by side: one per 32-bit lane.
    const LANES: usize = 8;
    /// Keystream bytes per pass.
    const PASS_LEN: usize = LANES * 64;

    /// XORs the keystream for blocks `counter..` (wrapping, as the
    /// block-by-block path does) into `data`, eight blocks per pass.
    #[target_feature(enable = "avx2")]
    pub(super) fn chacha20_xor_avx2(
        key: &[u32; 8],
        nonce: &[u32; 3],
        counter: u32,
        data: &mut [u8],
    ) {
        let mut counter = counter;
        let mut keystream = [0u8; PASS_LEN];
        for pass in data.chunks_mut(PASS_LEN) {
            chacha20_keystream_avx2(key, nonce, counter, &mut keystream);
            for (byte, k) in pass.iter_mut().zip(&keystream) {
                *byte ^= k;
            }
            counter = counter.wrapping_add(LANES as u32);
        }
    }

    /// Keystream blocks `counter .. counter + 8` (wrapping), in order.
    /// Word `w` of all eight blocks lives in the eight lanes of `x[w]`, so a
    /// quarter round is the scalar one with vector operands.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn chacha20_keystream_avx2(
        key: &[u32; 8],
        nonce: &[u32; 3],
        counter: u32,
        out: &mut [u8; PASS_LEN],
    ) {
        let splat = |word: u32| _mm256_set1_epi32(word as i32);
        let counters = _mm256_add_epi32(splat(counter), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
        let mut input = [counters; 16];
        for (word, value) in input[..4].iter_mut().zip(SIGMA) {
            *word = splat(value);
        }
        for (word, value) in input[4..12].iter_mut().zip(key) {
            *word = splat(*value);
        }
        for (word, value) in input[13..].iter_mut().zip(nonce) {
            *word = splat(*value);
        }

        let mut x = input;
        for _ in 0..10 {
            // Column rounds.
            quarter_round(&mut x, 0, 4, 8, 12);
            quarter_round(&mut x, 1, 5, 9, 13);
            quarter_round(&mut x, 2, 6, 10, 14);
            quarter_round(&mut x, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut x, 0, 5, 10, 15);
            quarter_round(&mut x, 1, 6, 11, 12);
            quarter_round(&mut x, 2, 7, 8, 13);
            quarter_round(&mut x, 3, 4, 9, 14);
        }
        for (word, add) in x.iter_mut().zip(input) {
            *word = _mm256_add_epi32(*word, add);
        }

        // A block is its sixteen words in order: two 32-byte halves, each
        // one row of an 8x8 transpose of `x[..8]` / `x[8..]`.
        let low = transpose8(x[..8].try_into().expect("eight words"));
        let high = transpose8(x[8..].try_into().expect("eight words"));
        for (block, (low, high)) in out.chunks_exact_mut(64).zip(low.into_iter().zip(high)) {
            let (first, second) = block.split_at_mut(32);
            store256(first.try_into().expect("half a block"), low);
            store256(second.try_into().expect("half a block"), high);
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn quarter_round(x: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize) {
        // Rotations by a whole number of bytes are one byte shuffle.
        let rotate_16 = _mm256_set_epi8(
            13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2, //
            13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2,
        );
        let rotate_8 = _mm256_set_epi8(
            14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1, 0, 3, //
            14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1, 0, 3,
        );
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rotate_16);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        x[b] = rotate_left::<12, 20>(_mm256_xor_si256(x[b], x[c]));
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rotate_8);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        x[b] = rotate_left::<7, 25>(_mm256_xor_si256(x[b], x[c]));
    }

    /// Rotates every 32-bit lane left by `LEFT` bits (`RIGHT = 32 - LEFT`).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotate_left<const LEFT: i32, const RIGHT: i32>(v: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi32::<LEFT>(v), _mm256_srli_epi32::<RIGHT>(v))
    }

    /// Transposes eight rows of eight 32-bit lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose8(rows: [__m256i; 8]) -> [__m256i; 8] {
        let [r0, r1, r2, r3, r4, r5, r6, r7] = rows;
        let (a0, a1) = (_mm256_unpacklo_epi32(r0, r1), _mm256_unpackhi_epi32(r0, r1));
        let (a2, a3) = (_mm256_unpacklo_epi32(r2, r3), _mm256_unpackhi_epi32(r2, r3));
        let (a4, a5) = (_mm256_unpacklo_epi32(r4, r5), _mm256_unpackhi_epi32(r4, r5));
        let (a6, a7) = (_mm256_unpacklo_epi32(r6, r7), _mm256_unpackhi_epi32(r6, r7));
        let (b0, b1) = (_mm256_unpacklo_epi64(a0, a2), _mm256_unpackhi_epi64(a0, a2));
        let (b2, b3) = (_mm256_unpacklo_epi64(a1, a3), _mm256_unpackhi_epi64(a1, a3));
        let (b4, b5) = (_mm256_unpacklo_epi64(a4, a6), _mm256_unpackhi_epi64(a4, a6));
        let (b6, b7) = (_mm256_unpacklo_epi64(a5, a7), _mm256_unpackhi_epi64(a5, a7));
        [
            _mm256_permute2x128_si256::<0x20>(b0, b4),
            _mm256_permute2x128_si256::<0x20>(b1, b5),
            _mm256_permute2x128_si256::<0x20>(b2, b6),
            _mm256_permute2x128_si256::<0x20>(b3, b7),
            _mm256_permute2x128_si256::<0x31>(b0, b4),
            _mm256_permute2x128_si256::<0x31>(b1, b5),
            _mm256_permute2x128_si256::<0x31>(b2, b6),
            _mm256_permute2x128_si256::<0x31>(b3, b7),
        ]
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store256(bytes: &mut [u8; 32], value: __m256i) {
        // SAFETY: `bytes` is an exclusive reference to exactly 32 bytes,
        // which is what `_mm256_storeu_si256` writes; the store has no
        // alignment requirement.  (`avx2` is enabled on every caller.)
        unsafe { _mm256_storeu_si256(bytes.as_mut_ptr().cast(), value) }
    }
}
