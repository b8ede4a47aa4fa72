//! Client-side bucket metadata (§4).
//!
//! Each bucket has `Z + S` physical slots.  The client remembers, per
//! bucket, a random permutation mapping *logical* slots to physical slots,
//! which logical slots are still valid (not yet read since the last time the
//! bucket was written), which real slots hold which keys, and how many times
//! the bucket has been accessed since its last reshuffle.  Logical slots
//! `0..Z` are real slots, `Z..Z+S` are dummy slots.
//!
//! In the paper this is the client-side "permutation map"; Obladi checkpoints
//! it (encrypted) for durability and recovers it after a crash rather than
//! scanning the whole ORAM (§8).

use crate::codec::{Decoder, Encoder};
use obladi_common::error::Result;
use obladi_common::rng::DetRng;
use obladi_common::types::{Key, Leaf, Version};

/// Client-side metadata for one bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketMeta {
    /// `perm[logical] = physical slot index`, length `Z + S`.
    pub perm: Vec<u32>,
    /// `valid[logical]`: whether the logical slot may still be read before
    /// the next reshuffle of this bucket.
    pub valid: Vec<bool>,
    /// Contents of the real slots: `real[i] = Some((key, leaf))` when logical
    /// real slot `i` holds `key` mapped to `leaf`.
    pub real: Vec<Option<(Key, Leaf)>>,
    /// Number of accesses (slot reads) since the bucket was last written.
    pub reads_since_shuffle: u32,
    /// Version of the bucket on untrusted storage that this metadata
    /// describes (0 = never written).
    pub version: Version,
}

impl BucketMeta {
    /// Creates metadata for a freshly (re)written bucket with no real
    /// blocks: a new random permutation, everything valid.
    pub fn fresh(z: u32, s: u32, rng: &mut DetRng) -> Self {
        let total = (z + s) as usize;
        BucketMeta {
            perm: rng.permutation(total),
            valid: vec![true; total],
            real: vec![None; z as usize],
            reads_since_shuffle: 0,
            version: 0,
        }
    }

    /// Number of real slots (`Z`).
    pub fn z(&self) -> usize {
        self.real.len()
    }

    /// Number of dummy slots (`S`).
    pub fn s(&self) -> usize {
        self.perm.len() - self.real.len()
    }

    /// Number of real blocks currently stored.
    pub fn num_real(&self) -> usize {
        self.real.iter().filter(|r| r.is_some()).count()
    }

    /// Logical index of `key` among the real slots, if present and valid.
    pub fn find_key(&self, key: Key) -> Option<usize> {
        self.real
            .iter()
            .position(|r| matches!(r, Some((k, _)) if *k == key))
    }

    /// Logical indices of valid dummy slots.
    pub fn valid_dummies(&self) -> Vec<usize> {
        (self.z()..self.perm.len())
            .filter(|&i| self.valid[i])
            .collect()
    }

    /// Logical indices of valid, occupied real slots.
    pub fn valid_reals(&self) -> Vec<usize> {
        (0..self.z())
            .filter(|&i| self.valid[i] && self.real[i].is_some())
            .collect()
    }

    /// Picks a uniformly random valid dummy slot, if any remain.
    pub fn pick_valid_dummy(&self, rng: &mut DetRng) -> Option<usize> {
        let dummies = self.valid_dummies();
        if dummies.is_empty() {
            None
        } else {
            Some(dummies[rng.below_usize(dummies.len())])
        }
    }

    /// Marks a logical slot as read and returns its physical slot index.
    pub fn mark_read(&mut self, logical: usize) -> u32 {
        debug_assert!(self.valid[logical], "slot read twice between shuffles");
        self.valid[logical] = false;
        self.reads_since_shuffle += 1;
        self.perm[logical]
    }

    /// Removes the key stored in logical real slot `logical` (the block has
    /// moved to the stash or been superseded by a newer write).
    pub fn clear_real(&mut self, logical: usize) -> Option<(Key, Leaf)> {
        self.real[logical].take()
    }

    /// Whether the bucket has run out of valid dummy slots, or has been
    /// accessed `s` times, and therefore needs an early reshuffle before it
    /// can be accessed again (§4).
    pub fn needs_early_reshuffle(&self) -> bool {
        self.valid_dummies().is_empty() || self.reads_since_shuffle as usize >= self.s()
    }

    /// Re-initialises the metadata after the bucket has been logically
    /// rewritten with `blocks` (at most `Z` of them).
    pub fn rewrite(&mut self, blocks: &[(Key, Leaf)], rng: &mut DetRng) {
        let z = self.z();
        let total = self.perm.len();
        debug_assert!(blocks.len() <= z);
        self.perm = rng.permutation(total);
        self.valid = vec![true; total];
        self.real = vec![None; z];
        for (i, (key, leaf)) in blocks.iter().enumerate() {
            self.real[i] = Some((*key, *leaf));
        }
        self.reads_since_shuffle = 0;
    }

    /// Serialises the metadata.
    pub fn encode(&self, enc: &mut Encoder<'_>) {
        enc.put_u32(self.perm.len() as u32);
        for &p in &self.perm {
            enc.put_u32(p);
        }
        for &v in &self.valid {
            enc.put_bool(v);
        }
        enc.put_u32(self.real.len() as u32);
        for slot in &self.real {
            match slot {
                Some((key, leaf)) => {
                    enc.put_bool(true);
                    enc.put_u64(*key);
                    enc.put_u64(*leaf);
                }
                None => enc.put_bool(false),
            }
        }
        enc.put_u32(self.reads_since_shuffle);
        enc.put_u64(self.version);
    }

    /// Deserialises metadata written by [`BucketMeta::encode`].
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let total = dec.get_u32()? as usize;
        let mut perm = Vec::with_capacity(total);
        for _ in 0..total {
            perm.push(dec.get_u32()?);
        }
        let mut valid = Vec::with_capacity(total);
        for _ in 0..total {
            valid.push(dec.get_bool()?);
        }
        let z = dec.get_u32()? as usize;
        let mut real = Vec::with_capacity(z);
        for _ in 0..z {
            if dec.get_bool()? {
                let key = dec.get_u64()?;
                let leaf = dec.get_u64()?;
                real.push(Some((key, leaf)));
            } else {
                real.push(None);
            }
        }
        let reads_since_shuffle = dec.get_u32()?;
        let version = dec.get_u64()?;
        Ok(BucketMeta {
            perm,
            valid,
            real,
            reads_since_shuffle,
            version,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> (BucketMeta, DetRng) {
        let mut rng = DetRng::new(1);
        (BucketMeta::fresh(3, 5, &mut rng), rng)
    }

    #[test]
    fn fresh_bucket_is_empty_and_valid() {
        let (m, _) = meta();
        assert_eq!(m.z(), 3);
        assert_eq!(m.s(), 5);
        assert_eq!(m.num_real(), 0);
        assert_eq!(m.valid_dummies().len(), 5);
        assert!(m.valid_reals().is_empty());
        assert!(!m.needs_early_reshuffle());
    }

    #[test]
    fn permutation_covers_all_physical_slots() {
        let (m, _) = meta();
        let mut phys: Vec<u32> = m.perm.clone();
        phys.sort_unstable();
        assert_eq!(phys, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn find_and_clear_real_keys() {
        let (mut m, _) = meta();
        m.real[1] = Some((42, 6));
        assert_eq!(m.find_key(42), Some(1));
        assert_eq!(m.find_key(43), None);
        assert_eq!(m.num_real(), 1);
        assert_eq!(m.clear_real(1), Some((42, 6)));
        assert_eq!(m.find_key(42), None);
    }

    #[test]
    fn mark_read_invalidates_and_counts() {
        let (mut m, _) = meta();
        let physical = m.mark_read(4);
        assert!(physical < 8);
        assert!(!m.valid[4]);
        assert_eq!(m.reads_since_shuffle, 1);
        assert_eq!(m.valid_dummies().len(), 4);
    }

    #[test]
    fn early_reshuffle_when_dummies_exhausted() {
        let (mut m, _) = meta();
        for i in m.z()..m.perm.len() {
            m.mark_read(i);
        }
        assert!(m.needs_early_reshuffle());
    }

    #[test]
    fn pick_valid_dummy_only_returns_valid_dummy_slots() {
        let (mut m, mut rng) = meta();
        for _ in 0..20 {
            if let Some(i) = m.pick_valid_dummy(&mut rng) {
                assert!(i >= m.z());
                assert!(m.valid[i]);
                m.mark_read(i);
            }
        }
        assert!(m.pick_valid_dummy(&mut rng).is_none());
    }

    #[test]
    fn rewrite_resets_state() {
        let (mut m, mut rng) = meta();
        m.mark_read(0);
        m.mark_read(5);
        m.rewrite(&[(7, 2), (9, 3)], &mut rng);
        assert_eq!(m.num_real(), 2);
        assert_eq!(m.find_key(7), Some(0));
        assert_eq!(m.find_key(9), Some(1));
        assert!(m.valid.iter().all(|&v| v));
        assert_eq!(m.reads_since_shuffle, 0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (mut m, mut rng) = meta();
        m.real[0] = Some((11, 4));
        m.mark_read(6);
        m.version = 9;
        m.rewrite(&[(1, 1)], &mut rng);
        m.real[2] = Some((3, 7));
        m.mark_read(1);

        let mut bytes = Vec::new();
        m.encode(&mut Encoder::new(&mut bytes));
        let mut dec = Decoder::new(&bytes);
        let decoded = BucketMeta::decode(&mut dec).unwrap();
        dec.expect_end().unwrap();
        assert_eq!(decoded, m);
    }
}
