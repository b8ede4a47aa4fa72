//! Aggregate client-side ORAM state and its (delta) serialization.
//!
//! Obladi's recovery design (§8) hinges on being able to persist and restore
//! everything the Ring ORAM client keeps in memory: the position map, the
//! per-bucket permutation / validity metadata, the stash, and the access /
//! eviction counters.  [`OramMeta`] gathers that state; full checkpoints
//! (everything, the stash padded to `max_stash`) and delta checkpoints
//! ([`MetaDelta`]: what changed since the previous checkpoint, padded to
//! what one pipeline window can touch) are produced here and encrypted /
//! logged by `obladi-core::durability`.

use crate::block::Block;
use crate::bucket::BucketMeta;
use crate::codec::{Decoder, Encoder};
use crate::position_map::PositionMap;
use crate::stash::Stash;
use obladi_common::config::OramConfig;
use obladi_common::error::{ObladiError, Result};
use obladi_common::rng::DetRng;
use obladi_common::types::{BucketId, Key, Leaf};
use std::collections::HashSet;
use std::sync::Arc;

/// All client-side Ring ORAM state.
#[derive(Debug, Clone, PartialEq)]
pub struct OramMeta {
    /// Tree configuration.
    pub config: OramConfig,
    /// Key → leaf map.
    pub position: PositionMap,
    /// Per-bucket metadata, indexed by bucket id.  The live state and the
    /// committed copy each hold their own buckets: a publish copies every
    /// dirtied bucket into the copy's, in the allocations it already has,
    /// so [`OramMeta::bucket_mut`] never clones.  The `Arc` lets a
    /// checkpoint share the copy's buckets while it is encoded.
    pub buckets: Vec<Arc<BucketMeta>>,
    /// The client stash.
    pub stash: Stash,
    /// Number of logical accesses performed (reads + writes); evictions are
    /// owed every `A` accesses.
    pub access_count: u64,
    /// Number of `evict_path` operations performed so far (`G`).
    pub evict_count: u64,
    /// Buckets whose metadata changed since the last drain.
    dirty_buckets: HashSet<BucketId>,
}

impl OramMeta {
    /// Creates fresh metadata for an empty tree.
    pub fn new(config: OramConfig, rng: &mut DetRng) -> Self {
        let num_buckets = config.num_buckets() as usize;
        let buckets = (0..num_buckets)
            .map(|_| Arc::new(BucketMeta::fresh(config.z, config.s, rng)))
            .collect();
        OramMeta {
            config,
            position: PositionMap::new(),
            buckets,
            stash: Stash::new(),
            access_count: 0,
            evict_count: 0,
            dirty_buckets: HashSet::new(),
        }
    }

    /// Mutable access to one bucket's metadata, which marks the bucket
    /// dirty: the next publish copies it, the next delta holds it.  A
    /// bucket whose `Arc` something else still holds is cloned first, so
    /// the holder keeps what it saw; the client's own buckets are never
    /// shared.
    pub fn bucket_mut(&mut self, bucket: BucketId) -> &mut BucketMeta {
        self.dirty_buckets.insert(bucket);
        Arc::make_mut(&mut self.buckets[bucket as usize])
    }

    /// Serialises the complete state (full checkpoint).
    pub fn encode_full(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_full_into(&mut out);
        out
    }

    /// Appends the complete state to `out` in one pass: the nested position
    /// map and padded stash are written where they end up, not encoded
    /// aside and copied in.
    pub fn encode_full_into(&self, out: &mut Vec<u8>) {
        let stash_len = self.config.max_stash * (20 + self.config.block_size);
        out.reserve(1024 + self.position.len() * 16 + stash_len + self.buckets.len() * 64);
        let mut enc = Encoder::new(out);
        enc.put_u64(self.config.num_objects);
        enc.put_u32(self.config.z);
        enc.put_u32(self.config.s);
        enc.put_u32(self.config.a);
        enc.put_u32(self.config.levels);
        enc.put_u64(self.config.block_size as u64);
        enc.put_u64(self.config.max_stash as u64);
        enc.put_u64(self.access_count);
        enc.put_u64(self.evict_count);
        enc.put_section(|enc| self.position.encode_to(enc));
        enc.put_section(|enc| {
            self.stash
                .encode_padded_to(self.config.max_stash, self.config.block_size, enc)
        });
        enc.put_u64(self.buckets.len() as u64);
        for bucket in &self.buckets {
            bucket.encode(&mut enc);
        }
    }

    /// Restores state from a full checkpoint.
    pub fn decode_full(bytes: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(bytes);
        let num_objects = dec.get_u64()?;
        let z = dec.get_u32()?;
        let s = dec.get_u32()?;
        let a = dec.get_u32()?;
        let levels = dec.get_u32()?;
        let block_size = dec.get_u64()? as usize;
        let max_stash = dec.get_u64()? as usize;
        let config = OramConfig {
            num_objects,
            z,
            s,
            a,
            levels,
            block_size,
            max_stash,
        };
        let access_count = dec.get_u64()?;
        let evict_count = dec.get_u64()?;
        let position = PositionMap::decode(dec.get_slice()?)?;
        let stash = Stash::decode_padded(dec.get_slice()?)?;
        let bucket_count = dec.get_u64()? as usize;
        if bucket_count != config.num_buckets() as usize {
            return Err(ObladiError::Codec(format!(
                "checkpoint has {bucket_count} buckets, config implies {}",
                config.num_buckets()
            )));
        }
        let mut buckets = Vec::with_capacity(bucket_count);
        for _ in 0..bucket_count {
            buckets.push(Arc::new(BucketMeta::decode(&mut dec)?));
        }
        dec.expect_end()?;
        Ok(OramMeta {
            config,
            position,
            buckets,
            stash,
            access_count,
            evict_count,
            dirty_buckets: HashSet::new(),
        })
    }

    /// Drains the ids dirtied since the last drain — keys with their
    /// leaves, then buckets with their metadata — for `crate::committed`.
    /// Ids an iterator is dropped before yielding are drained all the same,
    /// and both dirty sets keep their allocations.
    pub(crate) fn drain_dirty(
        &mut self,
    ) -> (
        impl Iterator<Item = (Key, Option<Leaf>)> + '_,
        impl Iterator<Item = (BucketId, &BucketMeta)> + '_,
    ) {
        let buckets = &self.buckets;
        let dirty_buckets =
            (self.dirty_buckets.drain()).map(move |id| (id, &*buckets[id as usize]));
        (self.position.drain_dirty(), dirty_buckets)
    }

    /// Applies a delta checkpoint on top of the current state.
    pub fn apply_delta(&mut self, delta: &MetaDelta) {
        self.access_count = delta.access_count;
        self.evict_count = delta.evict_count;
        self.position.apply_delta(&delta.position_delta);
        for (bucket, meta) in &delta.buckets {
            Arc::make_mut(&mut self.buckets[*bucket as usize]).clone_from(meta);
        }
        if delta.stash_replaced {
            self.stash = Stash::new();
        }
        for key in &delta.stash_removed {
            self.stash.remove(*key);
        }
        for block in delta.stash_added.iter().cloned() {
            let added = self
                .stash
                .insert(block.key, block.leaf, block.value, usize::MAX);
            added.expect("no bound to exceed");
        }
    }

    /// Sanity check: every key in the position map is present in exactly one
    /// of stash or its path's buckets (used by invariant tests).
    pub fn locate_key(&self, key: Key, path: &[BucketId]) -> KeyLocation {
        if self.stash.contains(key) {
            return KeyLocation::Stash;
        }
        for &bucket in path {
            if self.buckets[bucket as usize].find_key(key).is_some() {
                return KeyLocation::Bucket(bucket);
            }
        }
        KeyLocation::Missing
    }
}

/// Where a key currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyLocation {
    /// In the client stash.
    Stash,
    /// In the given bucket.
    Bucket(BucketId),
    /// Nowhere (not yet written, or lost — a bug if the key exists).
    Missing,
}

/// First `u64` of a delta record.  The layout before it (whole stash,
/// padded to `max_stash`) began with the access counter, which never gets
/// here; that layout is still decoded and never written.
const DELTA_LAYOUT: u64 = u64::MAX;

/// What an empty real slot of a bucket encodes shorter than a full one.
const FREE_SLOT_PAD: usize = 16;

/// A delta checkpoint of the proxy's ORAM metadata: what changed since the
/// previous checkpoint, full or delta.  Every section is padded to a byte
/// length the configuration alone decides (see DESIGN.md, "Checkpoints").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetaDelta {
    /// Logical access counter at checkpoint time.
    pub access_count: u64,
    /// Eviction counter at checkpoint time.
    pub evict_count: u64,
    /// Position-map changes since the previous checkpoint.
    pub position_delta: Vec<(Key, Option<Leaf>)>,
    /// Entries the position delta and the stash additions (those to at most
    /// `stash_pad`) are padded to: what one pipeline window can touch.
    pub max_position_delta: usize,
    /// Metadata of buckets touched since the previous checkpoint.
    pub buckets: Vec<(BucketId, Arc<BucketMeta>)>,
    /// Stash blocks that are new, remapped or overwritten since the
    /// previous checkpoint, in key order.
    pub stash_added: Vec<Block>,
    /// Keys that left the stash since the previous checkpoint, in key order.
    pub stash_removed: Vec<Key>,
    /// Decoded from the old layout: `stash_added` is the whole stash.
    pub stash_replaced: bool,
    /// `max_stash`: the entries the stash removals are padded to.
    pub stash_pad: usize,
    /// Block size used for stash padding.
    pub block_size: usize,
}

impl MetaDelta {
    /// Whether a section holds more than it is padded to, so that the
    /// record is longer than the configuration says.
    pub fn exceeds_pad(&self) -> bool {
        self.position_delta.len() > self.max_position_delta
            || self.stash_added.len() > self.max_position_delta.min(self.stash_pad)
            || self.stash_removed.len() > self.stash_pad
    }

    /// Serialises the delta.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the delta to `out` in one pass (see
    /// [`OramMeta::encode_full_into`]).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        debug_assert!(!self.stash_replaced, "the old layout is never written");
        let start = out.len();
        let added_len = 8 + self.max_position_delta.min(self.stash_pad) * (20 + self.block_size);
        let removed_len = 8 + self.stash_pad * 8;
        out.reserve(added_len + removed_len + (self.max_position_delta + self.buckets.len()) * 128);
        let mut enc = Encoder::new(out);
        enc.put_u64(DELTA_LAYOUT);
        enc.put_u64(self.access_count);
        enc.put_u64(self.evict_count);
        enc.put_section(|enc| {
            PositionMap::encode_delta_to(&self.position_delta, self.max_position_delta, enc)
        });
        enc.put_u64(self.buckets.len() as u64);
        for (bucket, meta) in &self.buckets {
            enc.put_u64(*bucket);
            meta.encode(&mut enc);
            enc.put_zeroed_bytes(FREE_SLOT_PAD * meta.real.iter().filter(|r| r.is_none()).count());
        }
        enc.put_padded_section(added_len, |enc| {
            enc.put_u64(self.stash_added.len() as u64);
            for block in &self.stash_added {
                enc.put_u64(block.key);
                enc.put_u64(block.leaf);
                enc.put_bytes(&block.value);
            }
        });
        enc.put_padded_section(removed_len, |enc| {
            enc.put_u64(self.stash_removed.len() as u64);
            for key in &self.stash_removed {
                enc.put_u64(*key);
            }
        });
        enc.put_u64(self.stash_pad as u64);
        enc.put_u64(self.block_size as u64);
        enc.put_u64(self.max_position_delta as u64);

        let obs = obladi_obs::global();
        let record = |name: &str, value: usize| obs.histogram(name).record(value as u64);
        record("oram.checkpoint.stash_added", self.stash_added.len());
        record("oram.checkpoint.stash_removed", self.stash_removed.len());
        record("oram.checkpoint.delta_bytes", out.len() - start);
        if self.exceeds_pad() {
            obs.counter("oram.checkpoint.pad_overflow").inc();
        }
    }

    /// Deserialises a delta of either layout.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(bytes);
        let mut access_count = dec.get_u64()?;
        let stash_replaced = access_count != DELTA_LAYOUT;
        if !stash_replaced {
            access_count = dec.get_u64()?;
        }
        let evict_count = dec.get_u64()?;
        let position_delta = PositionMap::decode_delta(dec.get_slice()?)?;
        let bucket_count = dec.get_u64()? as usize;
        let mut buckets = Vec::with_capacity(bucket_count.min(1 << 16));
        for _ in 0..bucket_count {
            let id = dec.get_u64()?;
            buckets.push((id, Arc::new(BucketMeta::decode(&mut dec)?)));
            if !stash_replaced {
                dec.get_slice()?;
            }
        }
        // Additions are laid out as a stash is; the old layout's whole
        // stash reads as nothing but additions.
        let stash_added = Stash::decode_padded(dec.get_slice()?)?.to_blocks();
        let mut stash_removed = Vec::new();
        if !stash_replaced {
            let mut removed = Decoder::new(dec.get_slice()?);
            for _ in 0..removed.get_u64()? {
                stash_removed.push(removed.get_u64()?);
            }
        }
        let stash_pad = dec.get_u64()? as usize;
        let block_size = dec.get_u64()? as usize;
        let max_position_delta = dec.get_u64()? as usize;
        dec.expect_end()?;
        Ok(MetaDelta {
            access_count,
            evict_count,
            position_delta,
            max_position_delta,
            buckets,
            stash_added,
            stash_removed,
            stash_replaced,
            stash_pad,
            block_size,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::committed::Committed;

    fn small_meta() -> OramMeta {
        let config = OramConfig::small_for_tests(64);
        let mut rng = DetRng::new(3);
        OramMeta::new(config, &mut rng)
    }

    /// The delta a client checkpointed at `since` logs once it has published
    /// `meta`.
    fn delta_since(since: &OramMeta, meta: &mut OramMeta, max_position_delta: usize) -> MetaDelta {
        let mut committed = Committed::new(since);
        committed.publish(meta);
        committed.take_delta(max_position_delta)
    }

    #[test]
    fn new_meta_has_fresh_buckets() {
        let meta = small_meta();
        assert_eq!(meta.buckets.len() as u64, meta.config.num_buckets());
        assert!(meta.position.is_empty());
        assert!(meta.stash.is_empty());
        assert_eq!(meta.access_count, 0);
    }

    #[test]
    fn full_checkpoint_roundtrip() {
        let mut meta = small_meta();
        meta.position.set(4, 2);
        meta.position.set(9, 1);
        meta.stash.insert(9, 1, vec![5; 8], 100).unwrap();
        meta.bucket_mut(0).real[0] = Some((4, 2));
        meta.access_count = 17;
        meta.evict_count = 2;

        let restored = OramMeta::decode_full(&meta.encode_full()).unwrap();
        assert_eq!(restored.config, meta.config);
        assert_eq!(restored.access_count, 17);
        assert_eq!(restored.evict_count, 2);
        assert_eq!(restored.position.get(4), Some(2));
        assert_eq!(restored.stash.get(9), Some((1, &vec![5; 8])));
        assert_eq!(restored.buckets[0].real[0], Some((4, 2)));
    }

    #[test]
    fn delta_roundtrip_restores_changes() {
        let mut meta = small_meta();
        let mut replica = meta.clone();

        meta.position.set(1, 3);
        meta.bucket_mut(2).real[0] = Some((1, 3));
        meta.stash.insert(5, 0, vec![1], 100).unwrap();
        meta.access_count = 9;

        replica.stash.insert(6, 0, vec![2], 100).unwrap();
        let delta = delta_since(&replica, &mut meta, 16);
        assert_eq!(delta.stash_removed, vec![6]);
        let decoded = MetaDelta::decode(&delta.encode()).unwrap();
        assert_eq!(decoded, delta);
        assert!(!decoded.exceeds_pad());

        replica.apply_delta(&decoded);
        assert_eq!(replica.position.get(1), Some(3));
        assert_eq!(replica.buckets[2].real[0], Some((1, 3)));
        assert_eq!(replica.stash.to_blocks(), meta.stash.to_blocks());
        assert_eq!(replica.access_count, 9);
    }

    /// The layout PR 17 wrote: no marker, the whole stash padded to
    /// `stash_pad` dummy entries, buckets unpadded.  Decoded, never written.
    fn encode_old_layout(delta: &MetaDelta, stash: &Stash) -> Vec<u8> {
        let mut out = Vec::new();
        let mut enc = Encoder::new(&mut out);
        enc.put_u64(delta.access_count);
        enc.put_u64(delta.evict_count);
        enc.put_section(|enc| {
            PositionMap::encode_delta_to(&delta.position_delta, delta.max_position_delta, enc)
        });
        enc.put_u64(delta.buckets.len() as u64);
        for (bucket, meta) in &delta.buckets {
            enc.put_u64(*bucket);
            meta.encode(&mut enc);
        }
        enc.put_section(|enc| stash.encode_padded_to(delta.stash_pad, delta.block_size, enc));
        enc.put_u64(delta.stash_pad as u64);
        enc.put_u64(delta.block_size as u64);
        enc.put_u64(delta.max_position_delta as u64);
        out
    }

    #[test]
    fn the_old_layout_decodes_and_replaces_the_stash() {
        let mut meta = small_meta();
        let mut replica = meta.clone();
        replica.stash.insert(6, 0, vec![2], 100).unwrap();
        meta.position.set(1, 3);
        meta.bucket_mut(2).real[0] = Some((1, 3));
        meta.stash.insert(5, 0, vec![1], 100).unwrap();
        meta.access_count = 9;
        let delta = delta_since(&replica, &mut meta, 16);

        let decoded = MetaDelta::decode(&encode_old_layout(&delta, &meta.stash)).unwrap();
        assert!(decoded.stash_replaced);
        assert_eq!(decoded.stash_added, meta.stash.to_blocks());
        assert_eq!(decoded.buckets, delta.buckets);
        replica.apply_delta(&decoded);
        assert_eq!(replica.stash.to_blocks(), meta.stash.to_blocks());
        assert_eq!(replica.position.get(1), Some(3));
        assert_eq!(replica.access_count, 9);
    }

    #[test]
    fn delta_length_is_a_function_of_the_pads_and_the_dirty_bucket_count() {
        let mut meta = small_meta();
        meta.bucket_mut(1);
        meta.bucket_mut(2);
        let empty = delta_since(&meta.clone(), &mut meta, 8);
        let expected = empty.encode().len();

        // Fuller buckets, every pad filled to the brim, values of any length.
        meta.bucket_mut(1).real[0] = Some((1, 3));
        meta.bucket_mut(2).real = vec![Some((7, 1)); meta.config.z as usize];
        for key in 0..8 {
            meta.position.set(key, key);
        }
        let mut full = delta_since(&meta.clone(), &mut meta, 8);
        let block =
            |key: u64| Block::real(key, key, vec![9; key as usize % meta.config.block_size]);
        full.stash_added = (0..8).map(block).collect();
        full.stash_removed = (100..100 + meta.config.max_stash as u64).collect();
        assert!(!full.exceeds_pad());
        assert_eq!(full.encode().len(), expected);
        assert_eq!(MetaDelta::decode(&full.encode()).unwrap(), full);

        // The additions' pad is capped at the stash's own bound.
        let grow_window = |by: usize| {
            let mut wider = full.clone();
            wider.max_position_delta += by;
            wider.encode().len() - expected
        };
        let entry = 20 + meta.config.block_size;
        assert_eq!(grow_window(1), 17 + entry);
        let to_cap = meta.config.max_stash - 8;
        assert_eq!(grow_window(to_cap + 5), (to_cap + 5) * 17 + to_cap * entry);

        // One entry over a pad: the record grows, and says so.
        let overflows = obladi_obs::global().counter("oram.checkpoint.pad_overflow");
        let before = overflows.get();
        full.position_delta.push((99, None));
        assert!(full.exceeds_pad());
        assert_eq!(full.encode().len(), expected + 17);
        assert!(overflows.get() > before);
        full.position_delta.pop();
        full.stash_added.push(block(8));
        assert!(
            full.exceeds_pad(),
            "short values may hide an entry too many"
        );
    }

    #[test]
    fn dirty_ids_are_drained_once() {
        let mut meta = small_meta();
        meta.position.set(1, 1);
        meta.bucket_mut(0);
        meta.bucket_mut(2);
        let (keys, buckets) = meta.drain_dirty();
        assert_eq!(keys.collect::<Vec<_>>(), vec![(1, Some(1))]);
        assert_eq!(buckets.take(1).count(), 1, "the other is drained unread");
        let (keys, buckets) = meta.drain_dirty();
        assert_eq!((keys.count(), buckets.count()), (0, 0));
    }

    #[test]
    fn locate_key_distinguishes_stash_bucket_missing() {
        let mut meta = small_meta();
        meta.stash.insert(10, 0, vec![], 100).unwrap();
        meta.bucket_mut(1).real[0] = Some((11, 0));
        assert_eq!(meta.locate_key(10, &[0, 1]), KeyLocation::Stash);
        assert_eq!(meta.locate_key(11, &[0, 1]), KeyLocation::Bucket(1));
        assert_eq!(meta.locate_key(12, &[0, 1]), KeyLocation::Missing);
    }

    #[test]
    fn corrupt_full_checkpoint_is_rejected() {
        let meta = small_meta();
        let mut bytes = meta.encode_full();
        bytes.truncate(bytes.len() / 2);
        assert!(OramMeta::decode_full(&bytes).is_err());
    }
}
