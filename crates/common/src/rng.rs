//! Deterministic, seedable randomness helpers.
//!
//! Everything that needs randomness in the workspace (leaf remapping, bucket
//! permutations, workload generators, latency jitter) draws from a
//! [`DetRng`], which is a thin wrapper around a seeded xoshiro-style
//! generator.  Centralising this makes whole-system runs reproducible from a
//! single seed and lets tests derive independent streams per component.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic random number generator seeded from a `u64`.
///
/// The generator is intentionally *not* cryptographically secure — it is
/// used for simulation decisions (leaf assignment, permutations, workload
/// key choice).  Cryptographic randomness (keys, nonces) lives in
/// `obladi-crypto`.
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: StdRng,
}

impl DetRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child generator identified by `label`.
    ///
    /// Children with different labels produce independent streams, which
    /// lets each subsystem (ORAM, workload, latency model) own a private
    /// generator while the whole run stays reproducible.
    pub fn derive(&self, label: u64) -> DetRng {
        // SplitMix64-style mixing of the label into a fresh seed.
        let mut x = label.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let mut clone = self.inner.clone();
        let base = clone.next_u64();
        DetRng::new(base ^ x)
    }

    /// Returns a uniformly random value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "below() requires a positive bound");
        self.inner.gen_range(0..bound)
    }

    /// Returns a uniformly random `usize` in `0..bound`.
    pub fn below_usize(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        self.inner.gen_range(0..bound)
    }

    /// Returns a uniformly random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Returns a random boolean that is `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.gen_bool(p.clamp(0.0, 1.0))
    }

    /// Returns a uniformly random `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen_range(0.0..1.0)
    }

    /// Fills `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        self.inner.fill_bytes(buf);
    }

    /// Produces a uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut perm = Vec::with_capacity(n);
        self.permutation_into(&mut perm, n);
        perm
    }

    /// Refills `perm` with a uniformly random permutation of `0..n`, in the
    /// allocation it already has: the same draws, in the same order, as
    /// [`DetRng::permutation`], so it yields the same permutation.
    pub fn permutation_into(&mut self, perm: &mut Vec<u32>, n: usize) {
        perm.clear();
        perm.extend(0..n as u32);
        for i in (1..n).rev() {
            let j = self.below_usize(i + 1);
            perm.swap(i, j);
        }
    }

    /// Chooses `k` distinct indices from `0..n` uniformly at random
    /// (reservoir-free partial Fisher–Yates; `k <= n`).
    pub fn choose_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        debug_assert!(k <= n);
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below_usize(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should differ");
    }

    #[test]
    fn derive_is_deterministic_and_label_sensitive() {
        let parent = DetRng::new(99);
        let mut c1 = parent.derive(1);
        let mut c1b = parent.derive(1);
        let mut c2 = parent.derive(2);
        assert_eq!(c1.next_u64(), c1b.next_u64());
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = DetRng::new(3);
        for bound in [1u64, 2, 7, 1000] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut rng = DetRng::new(11);
        for n in [0usize, 1, 2, 17, 100] {
            let p = rng.permutation(n);
            let set: HashSet<u32> = p.iter().copied().collect();
            assert_eq!(set.len(), n);
            assert!(p.iter().all(|&v| (v as usize) < n));
        }
    }

    #[test]
    fn a_permutation_refilled_in_place_is_the_one_drawn_afresh() {
        let (mut fresh, mut in_place) = (DetRng::new(19), DetRng::new(19));
        let mut perm = Vec::new();
        for n in [8usize, 0, 1, 8, 100, 3] {
            let capacity = perm.capacity();
            in_place.permutation_into(&mut perm, n);
            assert_eq!(perm, fresh.permutation(n));
            if n <= capacity {
                assert_eq!(perm.capacity(), capacity, "no new allocation");
            }
        }
        assert_eq!(fresh.next_u64(), in_place.next_u64(), "same draws");
    }

    #[test]
    fn choose_distinct_returns_unique_indices() {
        let mut rng = DetRng::new(13);
        let picks = rng.choose_distinct(50, 20);
        let set: HashSet<usize> = picks.iter().copied().collect();
        assert_eq!(set.len(), 20);
        assert!(picks.iter().all(|&v| v < 50));
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::new(17);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}
