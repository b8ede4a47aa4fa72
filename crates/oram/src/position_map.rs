//! The position map: logical key → leaf label (§4).
//!
//! The position map is client-side state.  Obladi checkpoints it for
//! durability; to keep checkpoints small it normally logs *deltas* (the keys
//! remapped since the last checkpoint), padded to the maximum number of
//! entries an epoch could have changed so the delta size does not leak how
//! many real requests the epoch contained (§8, Optimizations).

use crate::codec::{Decoder, Encoder};
use obladi_common::error::Result;
use obladi_common::types::{Key, Leaf};
use std::collections::{HashMap, HashSet};

/// Map from logical keys to the leaf each key is currently assigned to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PositionMap {
    positions: HashMap<Key, Leaf>,
    dirty: HashSet<Key>,
}

impl PositionMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        PositionMap::default()
    }

    /// Number of keys tracked.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Current leaf of `key`, if the key exists.
    pub fn get(&self, key: Key) -> Option<Leaf> {
        self.positions.get(&key).copied()
    }

    /// Assigns `key` to `leaf`, marking the entry dirty for the next delta
    /// checkpoint.  Returns the previous leaf, if any.
    pub fn set(&mut self, key: Key, leaf: Leaf) -> Option<Leaf> {
        self.dirty.insert(key);
        self.positions.insert(key, leaf)
    }

    /// Removes a key entirely (used when a transaction deletes an object).
    pub fn remove(&mut self, key: Key) -> Option<Leaf> {
        self.dirty.insert(key);
        self.positions.remove(&key)
    }

    /// Marks `key` dirty for the next delta although its entry stands.
    pub(crate) fn mark_dirty(&mut self, key: Key) {
        self.dirty.insert(key);
    }

    /// Drains the keys modified since the last drain or
    /// [`PositionMap::take_delta`], leaving their values to the caller.
    pub(crate) fn take_dirty(&mut self) -> HashSet<Key> {
        std::mem::take(&mut self.dirty)
    }

    /// Whether `key` exists.
    pub fn contains(&self, key: Key) -> bool {
        self.positions.contains_key(&key)
    }

    /// Number of entries modified since the last [`PositionMap::take_delta`].
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Drains the dirty set into a delta: `(key, Option<leaf>)` pairs where
    /// `None` means the key was removed.
    pub fn take_delta(&mut self) -> Vec<(Key, Option<Leaf>)> {
        let mut delta: Vec<(Key, Option<Leaf>)> = self
            .dirty
            .drain()
            .map(|k| (k, self.positions.get(&k).copied()))
            .collect();
        delta.sort_unstable_by_key(|(k, _)| *k);
        delta
    }

    /// Applies a delta produced by [`PositionMap::take_delta`].
    pub fn apply_delta(&mut self, delta: &[(Key, Option<Leaf>)]) {
        for (key, leaf) in delta {
            match leaf {
                Some(l) => {
                    self.positions.insert(*key, *l);
                }
                None => {
                    self.positions.remove(key);
                }
            }
        }
    }

    /// Serialises the full map.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.positions.len() * 16);
        self.encode_to(&mut Encoder::new(&mut out));
        out
    }

    /// Appends the full map to `enc`.
    pub fn encode_to(&self, enc: &mut Encoder<'_>) {
        let mut entries: Vec<(Key, Leaf)> = self.positions.iter().map(|(k, v)| (*k, *v)).collect();
        entries.sort_unstable();
        enc.put_u64(entries.len() as u64);
        for (key, leaf) in entries {
            enc.put_u64(key);
            enc.put_u64(leaf);
        }
    }

    /// Deserialises a full map.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(bytes);
        let count = dec.get_u64()? as usize;
        let mut positions = HashMap::with_capacity(count);
        for _ in 0..count {
            let key = dec.get_u64()?;
            let leaf = dec.get_u64()?;
            positions.insert(key, leaf);
        }
        dec.expect_end()?;
        Ok(PositionMap {
            positions,
            dirty: HashSet::new(),
        })
    }

    /// Serialises a delta, padding it with sentinel entries to
    /// `padded_entries` so the ciphertext length does not reveal how many
    /// keys were actually touched.
    pub fn encode_delta(delta: &[(Key, Option<Leaf>)], padded_entries: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + padded_entries * 17);
        Self::encode_delta_to(delta, padded_entries, &mut Encoder::new(&mut out));
        out
    }

    /// Appends a padded delta to `enc` (see [`PositionMap::encode_delta`]).
    pub fn encode_delta_to(
        delta: &[(Key, Option<Leaf>)],
        padded_entries: usize,
        enc: &mut Encoder<'_>,
    ) {
        enc.put_u64(delta.len() as u64);
        for (key, leaf) in delta {
            enc.put_u64(*key);
            match leaf {
                Some(l) => {
                    enc.put_bool(true);
                    enc.put_u64(*l);
                }
                None => {
                    enc.put_bool(false);
                    enc.put_u64(0);
                }
            }
        }
        // Padding entries: never decoded (count above bounds the real ones).
        for _ in delta.len()..padded_entries {
            enc.put_u64(u64::MAX);
            enc.put_bool(false);
            enc.put_u64(0);
        }
    }

    /// Decodes a delta written by [`PositionMap::encode_delta`].
    pub fn decode_delta(bytes: &[u8]) -> Result<Vec<(Key, Option<Leaf>)>> {
        let mut dec = Decoder::new(bytes);
        let count = dec.get_u64()? as usize;
        let mut delta = Vec::with_capacity(count);
        for _ in 0..count {
            let key = dec.get_u64()?;
            let present = dec.get_bool()?;
            let leaf = dec.get_u64()?;
            delta.push((key, if present { Some(leaf) } else { None }));
        }
        // Remaining bytes are padding; ignore them.
        Ok(delta)
    }

    /// Iterates over all `(key, leaf)` entries (test helper).
    pub fn iter(&self) -> impl Iterator<Item = (Key, Leaf)> + '_ {
        self.positions.iter().map(|(k, v)| (*k, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove() {
        let mut map = PositionMap::new();
        assert!(map.is_empty());
        assert_eq!(map.set(1, 10), None);
        assert_eq!(map.set(1, 20), Some(10));
        assert_eq!(map.get(1), Some(20));
        assert!(map.contains(1));
        assert_eq!(map.remove(1), Some(20));
        assert!(!map.contains(1));
        assert_eq!(map.len(), 0);
    }

    #[test]
    fn delta_contains_only_dirty_entries() {
        let mut map = PositionMap::new();
        map.set(1, 10);
        map.set(2, 20);
        let _ = map.take_delta();
        map.set(2, 25);
        map.remove(1);
        let delta = map.take_delta();
        assert_eq!(delta, vec![(1, None), (2, Some(25))]);
        assert_eq!(map.dirty_len(), 0);
    }

    #[test]
    fn apply_delta_reconstructs_state() {
        let mut original = PositionMap::new();
        original.set(5, 50);
        original.set(6, 60);
        let mut replica = PositionMap::new();
        replica.apply_delta(&original.clone().take_delta());
        assert_eq!(replica.get(5), Some(50));
        assert_eq!(replica.get(6), Some(60));

        original.remove(5);
        original.set(6, 61);
        replica.apply_delta(&original.take_delta());
        assert_eq!(replica.get(5), None);
        assert_eq!(replica.get(6), Some(61));
    }

    #[test]
    fn full_encode_decode_roundtrip() {
        let mut map = PositionMap::new();
        for key in 0..100 {
            map.set(key, key * 3 % 17);
        }
        let decoded = PositionMap::decode(&map.encode()).unwrap();
        assert_eq!(decoded.len(), 100);
        for key in 0..100 {
            assert_eq!(decoded.get(key), map.get(key));
        }
    }

    #[test]
    fn delta_encoding_is_padded_to_fixed_size() {
        let small = PositionMap::encode_delta(&[(1, Some(2))], 10);
        let large =
            PositionMap::encode_delta(&(0..10).map(|k| (k, Some(k))).collect::<Vec<_>>(), 10);
        assert_eq!(small.len(), large.len(), "padded deltas must not leak size");
        let decoded = PositionMap::decode_delta(&small).unwrap();
        assert_eq!(decoded, vec![(1, Some(2))]);
    }

    #[test]
    fn delta_roundtrip_with_removals() {
        let delta = vec![(3, None), (9, Some(4))];
        let bytes = PositionMap::encode_delta(&delta, 5);
        assert_eq!(PositionMap::decode_delta(&bytes).unwrap(), delta);
    }
}
