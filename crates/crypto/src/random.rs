//! The process's source of nonces and master secrets: one ChaCha20
//! keystream per thread, keyed once from the operating system.
//!
//! Every sealed slot draws a 96-bit nonce under a ChaCha20 key that lives
//! as long as the deployment, so nonces must not repeat and must not be
//! guessable from the clock.  Each thread reads 44 bytes of `/dev/urandom`
//! the first time it needs randomness (a 256-bit key and a 96-bit stream
//! nonce) and afterwards serves draws from its own keystream, eight blocks
//! at a time: no system call, clock read or lock per seal.  Where
//! `/dev/urandom` cannot be read the seed falls back to the vendored
//! `rand::thread_rng()` (time- and hasher-derived, 64 bits of entropy) —
//! a weak seed, but drawn once per thread rather than once per nonce.

use crate::chacha20::ChaCha20;
use rand::RngCore;
use std::cell::RefCell;
use std::io::Read;

/// Keystream served per refill (eight blocks: one AVX2 pass).
const BUFFER_LEN: usize = 512;
const BUFFER_BLOCKS: u32 = (BUFFER_LEN / 64) as u32;

struct Keystream {
    cipher: ChaCha20,
    nonce: [u8; 12],
    /// Next unused block of the stream.
    counter: u32,
    buffer: [u8; BUFFER_LEN],
    /// Bytes of `buffer` already handed out.
    used: usize,
}

impl Keystream {
    fn from_os() -> Self {
        let mut seed = [0u8; 44];
        let from_os = std::fs::File::open("/dev/urandom").and_then(|mut f| f.read_exact(&mut seed));
        if from_os.is_err() {
            rand::thread_rng().fill_bytes(&mut seed);
        }
        let key: [u8; 32] = seed[..32].try_into().expect("32 of 44 bytes");
        Keystream {
            cipher: ChaCha20::new(&key),
            nonce: seed[32..].try_into().expect("12 of 44 bytes"),
            counter: 0,
            buffer: [0u8; BUFFER_LEN],
            used: BUFFER_LEN,
        }
    }

    fn fill(&mut self, mut out: &mut [u8]) {
        while !out.is_empty() {
            if self.used == BUFFER_LEN {
                self.refill();
            }
            let take = out.len().min(BUFFER_LEN - self.used);
            let (head, rest) = out.split_at_mut(take);
            head.copy_from_slice(&self.buffer[self.used..self.used + take]);
            self.used += take;
            out = rest;
        }
    }

    fn refill(&mut self) {
        // A stream is 2^32 blocks (256 GiB) long; start a fresh one from
        // the OS rather than let the block counter wrap into reuse.
        if self.counter > u32::MAX - BUFFER_BLOCKS {
            *self = Keystream::from_os();
        }
        self.buffer = [0u8; BUFFER_LEN];
        self.cipher
            .apply_keystream(&self.nonce, self.counter, &mut self.buffer);
        self.counter += BUFFER_BLOCKS;
        self.used = 0;
    }
}

thread_local! {
    static KEYSTREAM: RefCell<Keystream> = RefCell::new(Keystream::from_os());
}

/// Fills `out` with bytes from this thread's keystream.
pub(crate) fn fill(out: &mut [u8]) {
    KEYSTREAM.with(|keystream| keystream.borrow_mut().fill(out));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn a_million_nonces_from_four_threads_are_pairwise_distinct() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 250_000;
        let drawn: Vec<Vec<[u8; 12]>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut nonces = vec![[0u8; 12]; PER_THREAD];
                        for nonce in &mut nonces {
                            fill(nonce);
                        }
                        nonces
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|worker| worker.join().expect("nonce thread panicked"))
                .collect()
        });
        let distinct: HashSet<[u8; 12]> = drawn.into_iter().flatten().collect();
        assert_eq!(distinct.len(), THREADS * PER_THREAD);
    }

    #[test]
    fn draws_of_any_size_cross_refills_without_repeating() {
        let mut big = vec![0u8; 3 * BUFFER_LEN + 7];
        fill(&mut big);
        assert!(big.chunks(64).all(|chunk| chunk.iter().any(|&b| b != 0)));
        let windows: HashSet<&[u8]> = big.chunks_exact(16).collect();
        assert_eq!(windows.len(), big.len() / 16);
    }

    #[test]
    fn an_exhausted_stream_reseeds_instead_of_wrapping() {
        let mut stream = Keystream::from_os();
        stream.counter = u32::MAX - 3;
        let before = stream.nonce;
        let mut out = [0u8; 32];
        stream.fill(&mut out);
        assert_ne!(stream.nonce, before, "a fresh stream must have been keyed");
        assert_eq!(stream.counter, BUFFER_BLOCKS);
    }
}
