//! Epoch-generation version chains for the split ORAM client (MVCC).
//!
//! The split client publishes a *generation* — an immutable snapshot of the
//! checkpointable metadata (position map, bucket metadata, stash, counters)
//! — at the end of every flush.  Readers and checkpoints pin a generation
//! instead of quiescing the other plane: the write-back engine keeps
//! mutating the live state while every pinned generation stays
//! materializable, byte for byte, until its last pin drops.
//!
//! A generation is not stored as a full copy.  Each retained entry keeps an
//! **undo overlay** over the live state:
//!
//! * `position_undo` — for every key mutated since this generation
//!   published, the value it had *at publish time* (`None` = absent).  The
//!   first live mutation of a key records the pre-image into every retained
//!   entry that does not have it yet (see [`GenerationChain::note_position`]),
//!   so each entry independently converges on "my value of the key".
//! * `bucket_undo` — the same scheme for buckets, made cheap by the
//!   copy-on-write `Arc<BucketMeta>` representation: recording a pre-image
//!   is one `Arc` clone, and [`OramMeta::bucket_mut`] clones the bucket data
//!   only when a snapshot actually still shares it.
//! * `stash` / counters — snapshotted eagerly at publish (one clone of a
//!   stash that is all but empty at a flush's end, shared from then on).
//!
//! Materializing a generation is therefore: clone the live position map and
//! bucket pointer vector, apply the entry's undo overlays, attach the
//! entry's stash and counters.  Because the full-state encoders sort their
//! entries, two materializations of the same generation — no matter how far
//! the live state has advanced in between — encode to identical bytes,
//! which is exactly the snapshot-isolation property the generation tests
//! assert.
//!
//! Each entry also carries the **frozen delta** its publish captured
//! (`OramMeta::take_delta` output — positions, shared bucket pointers,
//! counters, no stash — patched by the publisher so in-flight reader
//! targets stay accounted for), merged into the successor's if no
//! checkpoint consumes it before the next publish.  A delta checkpoint
//! consumes it and adds the **stash change set**: the generation's stash
//! against that of the last checkpoint of either kind, which the chain
//! keeps.  A full checkpoint consumes the window too, so the delta behind
//! it covers one window, not two.

use crate::bucket::BucketMeta;
use crate::metadata::{MetaDelta, OramMeta};
use crate::stash::Stash;
use obladi_common::types::{BucketId, Key, Leaf};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// One published generation (see the module docs).
struct GenEntry {
    id: u64,
    /// Pre-images of keys mutated since this generation published.
    position_undo: HashMap<Key, Option<Leaf>>,
    /// Pre-images of buckets mutated since this generation published.
    bucket_undo: HashMap<BucketId, Arc<BucketMeta>>,
    /// Stash at publish time.
    stash: Arc<Stash>,
    access_count: u64,
    evict_count: u64,
    /// The delta this publish captured; consumed by at most one delta
    /// checkpoint, merged forward otherwise.
    frozen_delta: Option<MetaDelta>,
    /// Outstanding pins (in-flight reader batches, checkpoint guards).
    pins: usize,
}

/// The chain of retained generations, oldest first.  Never empty after
/// [`GenerationChain::seed`]; the last entry is the latest committed
/// generation, earlier entries are kept alive only by their pins.
pub(crate) struct GenerationChain {
    entries: Vec<GenEntry>,
    next_id: u64,
    /// Stash of the generation the last checkpoint, full or delta,
    /// captured: what the next delta's stash change set is against.
    checkpointed_stash: Arc<Stash>,
}

impl GenerationChain {
    pub(crate) fn new() -> Self {
        GenerationChain {
            entries: Vec::new(),
            next_id: 0,
            checkpointed_stash: Arc::default(),
        }
    }

    /// Publishes the construction-time state as generation 0 so the chain
    /// is never empty (checkpoints and pins always have a target).  The
    /// first delta is against it: a recovered client starts from the state
    /// its last checkpoint described.
    pub(crate) fn seed(&mut self, stash: Stash, access_count: u64, evict_count: u64) {
        debug_assert!(self.entries.is_empty(), "seed on a non-empty chain");
        let id = self.next_id;
        self.next_id += 1;
        self.checkpointed_stash = Arc::new(stash);
        self.entries.push(GenEntry {
            id,
            position_undo: HashMap::new(),
            bucket_undo: HashMap::new(),
            stash: self.checkpointed_stash.clone(),
            access_count,
            evict_count,
            frozen_delta: None,
            pins: 0,
        });
    }

    /// Number of retained generations (latest + pinned history).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Id of the latest committed generation.
    pub(crate) fn latest_id(&self) -> u64 {
        self.entries.last().expect("chain is never empty").id
    }

    /// Total outstanding pins across all retained generations.
    pub(crate) fn total_pins(&self) -> usize {
        self.entries.iter().map(|e| e.pins).sum()
    }

    /// Records the pre-image of `key` (its *current* live value) into every
    /// retained generation that has not seen the key change yet.  Must be
    /// called before every live position-map mutation.
    pub(crate) fn note_position(&mut self, key: Key, live: Option<Leaf>) {
        for entry in &mut self.entries {
            entry.position_undo.entry(key).or_insert(live);
        }
    }

    /// Records the pre-image of `bucket` (one `Arc` clone of its current
    /// live metadata) into every retained generation that has not seen the
    /// bucket change yet.  Must be called before every live bucket mutation.
    pub(crate) fn note_bucket(&mut self, bucket: BucketId, live: &Arc<BucketMeta>) {
        for entry in &mut self.entries {
            entry
                .bucket_undo
                .entry(bucket)
                .or_insert_with(|| live.clone());
        }
    }

    /// Pins the latest generation and returns its id.
    pub(crate) fn pin_latest(&mut self) -> u64 {
        let entry = self.entries.last_mut().expect("chain is never empty");
        entry.pins += 1;
        entry.id
    }

    /// Drops one pin from generation `id`, retiring any generation that is
    /// neither latest nor pinned.  Returns how many entries were retired.
    pub(crate) fn unpin(&mut self, id: u64) -> usize {
        if let Some(entry) = self.entries.iter_mut().find(|e| e.id == id) {
            debug_assert!(entry.pins > 0, "unpin without a pin");
            entry.pins = entry.pins.saturating_sub(1);
        }
        self.retire_unpinned()
    }

    /// Publishes a new generation.  `frozen_delta` is the patched
    /// `take_delta` output of this publish; `position_undo` / `bucket_undo`
    /// seed the new entry's overlays with the in-flight reader targets that
    /// must stay accounted for (see `split::publish_generation`).  If the
    /// previous latest generation's frozen delta was never consumed it is
    /// merged into the new one.  Returns `(id, retired)`.
    pub(crate) fn publish(
        &mut self,
        mut frozen_delta: MetaDelta,
        stash: Stash,
        access_count: u64,
        evict_count: u64,
        position_undo: HashMap<Key, Option<Leaf>>,
        bucket_undo: HashMap<BucketId, Arc<BucketMeta>>,
    ) -> (u64, usize) {
        if let Some(prior) = self.entries.last_mut().and_then(|e| e.frozen_delta.take()) {
            frozen_delta = merge_frozen(prior, frozen_delta);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.entries.push(GenEntry {
            id,
            position_undo,
            bucket_undo,
            stash: Arc::new(stash),
            access_count,
            evict_count,
            frozen_delta: Some(frozen_delta),
            pins: 0,
        });
        let retired = self.retire_unpinned();
        (id, retired)
    }

    /// Consumes the latest generation's frozen delta for a delta
    /// checkpoint, stamping in the pads and the stash change set against
    /// the previous checkpoint.  If it was already consumed (no publish
    /// since) the delta carries the generation's counters and nothing else
    /// — a no-op on apply, keeping the checkpoint chain contiguous.
    pub(crate) fn take_frozen_delta(
        &mut self,
        max_position_delta: usize,
        stash_pad: usize,
        block_size: usize,
    ) -> MetaDelta {
        let entry = self.entries.last_mut().expect("chain is never empty");
        let mut delta = entry.frozen_delta.take().unwrap_or_else(|| MetaDelta {
            access_count: entry.access_count,
            evict_count: entry.evict_count,
            ..MetaDelta::default()
        });
        (delta.max_position_delta, delta.stash_pad, delta.block_size) =
            (max_position_delta, stash_pad, block_size);
        (delta.stash_added, delta.stash_removed) =
            entry.stash.changes_since(&self.checkpointed_stash);
        self.checkpointed_stash = entry.stash.clone();
        delta
    }

    /// A full checkpoint captured the latest generation: the window's
    /// frozen delta is spent, and the next delta starts from here.
    pub(crate) fn full_checkpoint_taken(&mut self) {
        let entry = self.entries.last_mut().expect("chain is never empty");
        entry.frozen_delta = None;
        self.checkpointed_stash = entry.stash.clone();
    }

    /// Reconstructs the full metadata of generation `id` from the live
    /// state and the entry's undo overlays.  Returns `None` if the
    /// generation has been retired.
    pub(crate) fn materialize(&self, id: u64, live: &OramMeta) -> Option<OramMeta> {
        let entry = self.entries.iter().find(|e| e.id == id)?;
        let mut position = live.position.clone();
        for (&key, pre) in &entry.position_undo {
            match pre {
                Some(leaf) => {
                    position.set(key, *leaf);
                }
                None => {
                    position.remove(key);
                }
            }
        }
        position.clear_dirty();
        let mut buckets = live.buckets.clone();
        for (&bucket, arc) in &entry.bucket_undo {
            buckets[bucket as usize] = arc.clone();
        }
        Some(OramMeta::from_snapshot_parts(
            live.config,
            position,
            buckets,
            (*entry.stash).clone(),
            entry.access_count,
            entry.evict_count,
        ))
    }

    /// Drops every generation that is neither latest nor pinned.
    fn retire_unpinned(&mut self) -> usize {
        let latest = self.latest_id();
        let before = self.entries.len();
        self.entries.retain(|e| e.id == latest || e.pins > 0);
        before - self.entries.len()
    }
}

/// Folds an unconsumed frozen delta into its successor.  Deltas carry
/// absolute values, so the newer entry wins per key / bucket and the merge
/// is idempotent; everything else comes from the newer delta.
fn merge_frozen(older: MetaDelta, newer: MetaDelta) -> MetaDelta {
    let mut position: BTreeMap<Key, Option<Leaf>> = older.position_delta.into_iter().collect();
    position.extend(newer.position_delta);
    let mut buckets: BTreeMap<BucketId, Arc<BucketMeta>> = older.buckets.into_iter().collect();
    buckets.extend(newer.buckets);
    MetaDelta {
        position_delta: position.into_iter().collect(),
        buckets: buckets.into_iter().collect(),
        ..newer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obladi_common::config::OramConfig;
    use obladi_common::rng::DetRng;

    fn live_meta() -> OramMeta {
        let config = OramConfig::small_for_tests(64);
        let mut rng = DetRng::new(7);
        OramMeta::new(config, &mut rng)
    }

    fn empty_delta(meta: &OramMeta) -> MetaDelta {
        MetaDelta {
            access_count: meta.access_count,
            evict_count: meta.evict_count,
            ..MetaDelta::default()
        }
    }

    #[test]
    fn materialize_applies_undo_overlays() {
        let mut live = live_meta();
        let mut chain = GenerationChain::new();
        chain.seed(live.stash.clone(), 0, 0);
        live.position.set(5, 3);
        let delta = live.take_delta(8);
        let (id, _) = chain.publish(
            delta,
            live.stash.clone(),
            live.access_count,
            live.evict_count,
            HashMap::new(),
            HashMap::new(),
        );

        // Mutate the live state after the publish, noting pre-images.
        chain.note_position(5, live.position.get(5));
        live.position.set(5, 9);
        chain.note_position(6, live.position.get(6));
        live.position.set(6, 1);
        chain.note_bucket(0, &live.buckets[0]);
        live.bucket_mut(0).reads_since_shuffle = 3;

        let snap = chain.materialize(id, &live).expect("latest is retained");
        assert_eq!(snap.position.get(5), Some(3), "pre-mutation value");
        assert_eq!(snap.position.get(6), None, "key added later is absent");
        assert_eq!(snap.buckets[0].reads_since_shuffle, 0, "bucket pre-image");
        // The live state is untouched by materialization.
        assert_eq!(live.position.get(5), Some(9));
        assert_eq!(live.buckets[0].reads_since_shuffle, 3);
    }

    #[test]
    fn pins_keep_generations_alive_and_retire_frees_them() {
        let live = live_meta();
        let mut chain = GenerationChain::new();
        chain.seed(live.stash.clone(), 0, 0);
        let g0 = chain.pin_latest();
        let (g1, retired) = chain.publish(
            empty_delta(&live),
            live.stash.clone(),
            0,
            0,
            HashMap::new(),
            HashMap::new(),
        );
        assert_eq!(retired, 0, "a pinned generation must not retire");
        assert_eq!(chain.len(), 2);
        let (_, retired) = chain.publish(
            empty_delta(&live),
            live.stash.clone(),
            0,
            0,
            HashMap::new(),
            HashMap::new(),
        );
        assert_eq!(retired, 1, "the unpinned middle generation retires");
        assert!(chain.materialize(g0, &live).is_some());
        assert!(chain.materialize(g1, &live).is_none());
        let retired = chain.unpin(g0);
        assert_eq!(retired, 1);
        assert_eq!(chain.len(), 1);
    }

    #[test]
    fn unconsumed_frozen_delta_merges_forward() {
        let mut live = live_meta();
        let mut chain = GenerationChain::new();
        chain.seed(live.stash.clone(), 0, 0);
        live.position.set(1, 10);
        live.position.set(2, 20);
        live.access_count = 2;
        let first = live.take_delta(8);
        chain.publish(
            first,
            live.stash.clone(),
            2,
            0,
            HashMap::new(),
            HashMap::new(),
        );
        // Nobody consumed the first delta; the second publish must carry
        // both epochs' changes.
        live.position.set(2, 25);
        live.position.set(3, 30);
        live.access_count = 4;
        let second = live.take_delta(8);
        chain.publish(
            second,
            live.stash.clone(),
            4,
            0,
            HashMap::new(),
            HashMap::new(),
        );
        let merged = chain.take_frozen_delta(8, 4, 8);
        assert_eq!(
            merged.position_delta,
            vec![(1, Some(10)), (2, Some(25)), (3, Some(30))]
        );
        assert_eq!(merged.access_count, 4);
        // Consumed: the next take synthesizes an empty, no-op delta.
        let empty = chain.take_frozen_delta(8, 4, 8);
        assert!(empty.position_delta.is_empty());
        assert!(empty.buckets.is_empty());
        assert_eq!(empty.access_count, 4);
    }

    fn publish(chain: &mut GenerationChain, live: &mut OramMeta) {
        let delta = live.take_delta(0);
        let (stash, accesses, evictions) = (live.stash.clone(), live.access_count, 0);
        chain.publish(
            delta,
            stash,
            accesses,
            evictions,
            HashMap::new(),
            HashMap::new(),
        );
    }

    #[test]
    fn the_stash_change_set_is_against_the_last_checkpoint_of_either_kind() {
        let mut live = live_meta();
        live.stash.insert(1, 1, vec![1], 100).unwrap();
        live.stash.insert(2, 2, vec![2], 100).unwrap();
        let mut chain = GenerationChain::new();
        chain.seed(live.stash.clone(), 0, 0);
        let keys =
            |blocks: &[crate::block::Block]| blocks.iter().map(|b| b.key).collect::<Vec<_>>();

        // Two windows pass unconsumed: key 3 comes and goes inside them, key
        // 2 leaves, key 1 is overwritten, key 4 arrives.
        live.stash.insert(3, 3, vec![3], 100).unwrap();
        live.stash.remove(2);
        publish(&mut chain, &mut live);
        live.stash.remove(3);
        live.stash.insert(1, 1, vec![9], 100).unwrap();
        live.stash.insert(4, 4, vec![4], 100).unwrap();
        publish(&mut chain, &mut live);
        let delta = chain.take_frozen_delta(8, 4, 8);
        assert_eq!(keys(&delta.stash_added), vec![1, 4]);
        assert_eq!(delta.stash_added[0].value, vec![9]);
        assert_eq!(delta.stash_removed, vec![2]);
        assert!(!delta.stash_replaced);
        let again = chain.take_frozen_delta(8, 4, 8);
        assert!(again.stash_added.is_empty() && again.stash_removed.is_empty());

        // A full checkpoint spends the window: the delta behind it holds
        // only what came after.
        live.position.set(7, 7);
        live.stash.insert(5, 5, vec![5], 100).unwrap();
        publish(&mut chain, &mut live);
        chain.full_checkpoint_taken();
        live.position.set(8, 8);
        live.stash.remove(4);
        publish(&mut chain, &mut live);
        let delta = chain.take_frozen_delta(8, 4, 8);
        assert_eq!(delta.position_delta, vec![(8, Some(8))]);
        assert!(delta.stash_added.is_empty());
        assert_eq!(delta.stash_removed, vec![4]);
        assert_eq!(
            (delta.max_position_delta, delta.stash_pad, delta.block_size),
            (8, 4, 8)
        );
    }
}
