//! The client-side stash (§4).
//!
//! Blocks that have been read out of the tree (or written dummilessly,
//! §6.3) live in the stash until an eviction flushes them back.  Ring ORAM
//! bounds the stash size by a constant; Obladi additionally pads the stash
//! to its maximum size when checkpointing it so the checkpoint length does
//! not reveal access skew (§8).
//!
//! The blocks eligible for a bucket are those whose leaf lies in the
//! bucket's subtree, a contiguous leaf range ([`Stash::in_leaves`]).

use crate::block::Block;
use crate::codec::{Decoder, Encoder};
use obladi_common::error::{ObladiError, Result};
use obladi_common::types::{Key, Leaf, Value};
use std::collections::HashMap;
use std::ops::Range;

/// The client-side stash.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Stash {
    blocks: HashMap<Key, (Leaf, Value)>,
    /// High-water mark, for statistics and bound checking in tests.
    peak: usize,
}

/// `clone_from` touches only what differs: it drops the keys `source`
/// lacks, and copies the other blocks into the entries and value buffers
/// the target already has, so refreshing a copy of a stash that changed
/// by a few blocks allocates for those few at most.
impl Clone for Stash {
    fn clone(&self) -> Self {
        Stash {
            blocks: self.blocks.clone(),
            peak: self.peak,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.blocks.retain(|key, _| source.blocks.contains_key(key));
        for (key, (leaf, value)) in &source.blocks {
            let mine = self.blocks.entry(*key).or_default();
            mine.0 = *leaf;
            mine.1.clone_from(value);
        }
        self.peak = source.peak;
    }
}

impl Stash {
    /// Creates an empty stash.
    pub fn new() -> Self {
        Stash::default()
    }

    /// Number of blocks currently stashed.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the stash is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Largest size the stash has reached.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Inserts or replaces a block, enforcing `max` as a hard bound.
    pub fn insert(&mut self, key: Key, leaf: Leaf, value: Value, max: usize) -> Result<()> {
        self.blocks.insert(key, (leaf, value));
        self.peak = self.peak.max(self.blocks.len());
        if self.blocks.len() > max {
            return Err(ObladiError::StashOverflow {
                len: self.blocks.len(),
                max,
            });
        }
        Ok(())
    }

    /// Looks up a block without removing it.
    pub fn get(&self, key: Key) -> Option<(Leaf, &Value)> {
        self.blocks.get(&key).map(|(leaf, value)| (*leaf, value))
    }

    /// Whether the stash holds `key`.
    pub fn contains(&self, key: Key) -> bool {
        self.blocks.contains_key(&key)
    }

    /// Removes and returns a block.
    pub fn remove(&mut self, key: Key) -> Option<(Leaf, Value)> {
        self.blocks.remove(&key)
    }

    /// Updates the leaf a stashed block is mapped to (remap on access).
    pub fn remap(&mut self, key: Key, new_leaf: Leaf) -> bool {
        let Some((leaf, _)) = self.blocks.get_mut(&key) else {
            return false;
        };
        *leaf = new_leaf;
        true
    }

    /// `(leaf, key)` of the blocks mapped to a leaf in `leaves`, in no
    /// particular order: for a bucket's subtree leaves
    /// ([`crate::TreeGeometry::subtree_leaves`]), the blocks eligible for
    /// the bucket.
    pub fn in_leaves(&self, leaves: Range<Leaf>) -> impl Iterator<Item = (Leaf, Key)> + '_ {
        (self.blocks.iter())
            .filter(move |(_, (leaf, _))| leaves.contains(leaf))
            .map(|(key, (leaf, _))| (*leaf, *key))
    }

    /// Iterates over `(key, leaf)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Key, Leaf)> + '_ {
        self.blocks.iter().map(|(k, (leaf, _))| (*k, *leaf))
    }

    /// Serialises the stash, padding to `padded_entries` blocks of
    /// `block_size` payload bytes each so the encoding length is constant.
    pub fn encode_padded(&self, padded_entries: usize, block_size: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + padded_entries * (20 + block_size));
        self.encode_padded_to(padded_entries, block_size, &mut Encoder::new(&mut out));
        out
    }

    /// Appends the padded stash to `enc` (see [`Stash::encode_padded`]).
    pub fn encode_padded_to(
        &self,
        padded_entries: usize,
        block_size: usize,
        enc: &mut Encoder<'_>,
    ) {
        let mut entries: Vec<(&Key, &(Leaf, Value))> = self.blocks.iter().collect();
        entries.sort_unstable_by_key(|(k, _)| **k);
        enc.put_u64(self.blocks.len() as u64);
        for (key, (leaf, value)) in &entries {
            enc.put_u64(**key);
            enc.put_u64(*leaf);
            enc.put_bytes(value);
        }
        // Pad with dummy entries so ciphertext length is workload independent.
        for _ in entries.len()..padded_entries {
            enc.put_u64(u64::MAX);
            enc.put_u64(0);
            enc.put_zeroed_bytes(block_size);
        }
    }

    /// Decodes a stash written by [`Stash::encode_padded`].
    pub fn decode_padded(bytes: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(bytes);
        let count = dec.get_u64()? as usize;
        let mut stash = Stash::new();
        for _ in 0..count {
            let key = dec.get_u64()?;
            let leaf = dec.get_u64()?;
            let value = dec.get_bytes()?;
            stash.insert(key, leaf, value, usize::MAX)?;
        }
        // Remaining padding entries are ignored.
        Ok(stash)
    }

    /// What turns `before` into this stash, each in key order: the blocks
    /// that are new or whose leaf or value changed, and the keys that left.
    pub fn changes_since(&self, before: &Stash) -> (Vec<Block>, Vec<Key>) {
        let mut added: Vec<Block> = self
            .blocks
            .iter()
            .filter(|(key, block)| before.blocks.get(key) != Some(block))
            .map(|(key, (leaf, value))| Block::real(*key, *leaf, value.clone()))
            .collect();
        added.sort_unstable_by_key(|b| b.key);
        let mut removed: Vec<Key> = before.blocks.keys().copied().collect();
        removed.retain(|key| !self.blocks.contains_key(key));
        removed.sort_unstable();
        (added, removed)
    }

    /// The stash contents as [`Block`]s, in key order.
    pub fn to_blocks(&self) -> Vec<Block> {
        let mut blocks: Vec<Block> = self
            .blocks
            .iter()
            .map(|(k, (leaf, value))| Block::real(*k, *leaf, value.clone()))
            .collect();
        blocks.sort_unstable_by_key(|b| b.key);
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut stash = Stash::new();
        stash.insert(1, 5, vec![1, 2, 3], 10).unwrap();
        assert!(stash.contains(1));
        assert_eq!(stash.get(1), Some((5, &vec![1, 2, 3])));
        assert_eq!(stash.remove(1), Some((5, vec![1, 2, 3])));
        assert!(stash.is_empty());
    }

    #[test]
    fn overflow_is_reported_but_block_is_kept() {
        let mut stash = Stash::new();
        stash.insert(1, 0, vec![], 2).unwrap();
        stash.insert(2, 0, vec![], 2).unwrap();
        let err = stash.insert(3, 0, vec![], 2).unwrap_err();
        assert!(matches!(err, ObladiError::StashOverflow { len: 3, max: 2 }));
        assert_eq!(stash.len(), 3, "block is retained so data is not lost");
        assert_eq!(stash.peak(), 3);
    }

    #[test]
    fn remap_changes_leaf() {
        let mut stash = Stash::new();
        stash.insert(7, 1, vec![9], 10).unwrap();
        assert!(stash.remap(7, 4));
        assert_eq!(stash.get(7).unwrap().0, 4);
        assert!(!stash.remap(8, 4));
    }

    #[test]
    fn a_leaf_range_holds_the_blocks_mapped_into_it() {
        let mut stash = Stash::new();
        stash.insert(1, 0, vec![], 10).unwrap();
        stash.insert(2, 3, vec![], 10).unwrap();
        stash.insert(3, 7, vec![], 10).unwrap();
        stash.insert(4, 3, vec![], 10).unwrap();
        let keys = |stash: &Stash, leaves| {
            let mut found: Vec<(Leaf, Key)> = stash.in_leaves(leaves).collect();
            found.sort_unstable();
            found.into_iter().map(|(_, key)| key).collect::<Vec<_>>()
        };
        assert_eq!(keys(&stash, 3..8), vec![2, 4, 3]);
        assert_eq!(keys(&stash, 4..7).len(), 0);
        stash.remap(2, 5);
        stash.remove(4);
        stash.insert(3, 1, vec![], 10).unwrap();
        assert_eq!(keys(&stash, 3..8), vec![2]);
        assert_eq!(keys(&stash, 0..3), vec![1, 3]);
    }

    #[test]
    fn padded_encoding_has_constant_length() {
        let mut small = Stash::new();
        small.insert(1, 1, vec![7; 16], 100).unwrap();
        let mut large = Stash::new();
        for k in 0..10 {
            large.insert(k, k, vec![7; 16], 100).unwrap();
        }
        let a = small.encode_padded(20, 16);
        let b = large.encode_padded(20, 16);
        assert_eq!(a.len(), b.len());

        let decoded = Stash::decode_padded(&b).unwrap();
        assert_eq!(decoded.len(), 10);
        assert_eq!(decoded.get(3), Some((3, &vec![7; 16])));
    }

    #[test]
    fn clone_from_keeps_the_entries_both_stashes_hold() {
        let mut live = Stash::new();
        for key in 0..4 {
            live.insert(key, key, vec![key as u8; 16], 100).unwrap();
        }
        let mut copy = live.clone();
        let value_at = |stash: &Stash, key| stash.get(key).map(|(_, value)| value.as_ptr());
        let kept = value_at(&copy, 1);
        live.remove(0);
        live.remap(1, 9);
        live.insert(2, 2, vec![5; 8], 100).unwrap();
        live.insert(7, 7, vec![7], 100).unwrap();
        copy.clone_from(&live);
        assert_eq!(copy, live);
        assert_eq!(
            value_at(&copy, 1),
            kept,
            "an unchanged block keeps its buffer"
        );
    }

    #[test]
    fn to_blocks_is_sorted() {
        let mut stash = Stash::new();
        stash.insert(9, 1, vec![1], 10).unwrap();
        stash.insert(2, 2, vec![2], 10).unwrap();
        let blocks = stash.to_blocks();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].key, 2);
        assert_eq!(blocks[1].key, 9);
    }
}
