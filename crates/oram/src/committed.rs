//! The committed snapshot of the split ORAM client.
//!
//! The write-back engine *publishes* the client metadata (position map,
//! bucket metadata, stash, counters) at the end of every flush, and both
//! checkpoint forms describe the last published state, never the live one:
//! the other plane keeps mutating the live state while a checkpoint is
//! taken.  There is one such state at a time — §8 checkpoints exactly one
//! per epoch — and [`Committed`] is its only description.  It is not a copy
//! but an **undo overlay** over the live state:
//!
//! * `position_undo` / `bucket_undo` — for every key and bucket mutated
//!   since the publish, the value it had *at the publish* (`None` = absent
//!   key).  The first live mutation records the pre-image; a bucket's is one
//!   clone of its copy-on-write `Arc` ([`OramMeta::bucket_mut`] copies the
//!   data only while the overlay still shares it).  A publish clears both:
//!   it runs only while no reader batch is in flight (see `split::publish`),
//!   so the live state it publishes accounts for every block.
//! * `stash` / counters — taken eagerly at the publish.
//! * `dirty_keys` / `dirty_buckets` — the **ids** dirtied between the last
//!   checkpoint of either kind and the publish: a set union per publish, so
//!   a driver that never checkpoints holds at most every key and bucket once.
//!
//! Everything reads through the overlay, `committed(k) =
//! undo.get(k).unwrap_or(live(k))`: a `Full` is every key and bucket
//! ([`Committed::meta`]), a delta is the dirty ids' committed values plus
//! the stash change set against `checkpointed_stash`
//! ([`Committed::take_delta`]).  The full-state encoders sort their entries,
//! so two reads of one published state encode to identical bytes however
//! far the live state has moved in between.

use crate::bucket::BucketMeta;
use crate::metadata::{MetaDelta, OramMeta};
use crate::stash::Stash;
use obladi_common::types::{BucketId, Key, Leaf};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The last published state (see the module docs).
pub(crate) struct Committed {
    position_undo: HashMap<Key, Option<Leaf>>,
    bucket_undo: HashMap<BucketId, Arc<BucketMeta>>,
    stash: Arc<Stash>,
    access_count: u64,
    evict_count: u64,
    dirty_keys: HashSet<Key>,
    dirty_buckets: HashSet<BucketId>,
    /// Stash of the published state the last checkpoint, full or delta,
    /// captured: what the next delta's stash change set is against.
    checkpointed_stash: Arc<Stash>,
}

impl Committed {
    /// The construction-time state, as if just checkpointed: a recovered
    /// client starts from the state its last checkpoint described.
    pub(crate) fn new(live: &OramMeta) -> Self {
        let stash = Arc::new(live.stash.clone());
        Committed {
            position_undo: HashMap::new(),
            bucket_undo: HashMap::new(),
            stash: stash.clone(),
            access_count: live.access_count,
            evict_count: live.evict_count,
            dirty_keys: HashSet::new(),
            dirty_buckets: HashSet::new(),
            checkpointed_stash: stash,
        }
    }

    /// Must run before every live position-map mutation of `key`, with its
    /// current live value.
    pub(crate) fn note_position(&mut self, key: Key, live: Option<Leaf>) {
        self.position_undo.entry(key).or_insert(live);
    }

    /// Must run before every live mutation of `bucket`, with its current
    /// live metadata.
    pub(crate) fn note_bucket(&mut self, bucket: BucketId, live: &Arc<BucketMeta>) {
        self.bucket_undo
            .entry(bucket)
            .or_insert_with(|| live.clone());
    }

    /// Publishes `live` as the committed state: the overlays start over,
    /// and the ids `live` dirtied since the last publish join the window.
    pub(crate) fn publish(&mut self, live: &mut OramMeta) {
        let (keys, buckets) = live.take_dirty();
        self.dirty_keys.extend(keys);
        self.dirty_buckets.extend(buckets);
        self.position_undo.clear();
        self.bucket_undo.clear();
        self.stash = Arc::new(live.stash.clone());
        self.access_count = live.access_count;
        self.evict_count = live.evict_count;
    }

    /// The delta checkpoint of the window, which it spends: the dirty ids at
    /// their committed values, the stash change set against the previous
    /// checkpoint, the counters.  Taken again before the next publish it
    /// holds the counters and nothing else — a no-op on apply that keeps the
    /// checkpoint chain contiguous.
    pub(crate) fn take_delta(&mut self, live: &OramMeta, max_position_delta: usize) -> MetaDelta {
        let mut position_delta: Vec<(Key, Option<Leaf>)> = std::mem::take(&mut self.dirty_keys)
            .into_iter()
            .map(|key| match self.position_undo.get(&key) {
                Some(pre) => (key, *pre),
                None => (key, live.position.get(key)),
            })
            .collect();
        position_delta.sort_unstable_by_key(|(key, _)| *key);
        let mut buckets: Vec<(BucketId, Arc<BucketMeta>)> = std::mem::take(&mut self.dirty_buckets)
            .into_iter()
            .map(|bucket| (bucket, self.bucket(bucket, live).clone()))
            .collect();
        buckets.sort_unstable_by_key(|(bucket, _)| *bucket);
        let (stash_added, stash_removed) = self.stash.changes_since(&self.checkpointed_stash);
        self.checkpointed_stash = self.stash.clone();
        MetaDelta {
            access_count: self.access_count,
            evict_count: self.evict_count,
            position_delta,
            max_position_delta,
            buckets,
            stash_added,
            stash_removed,
            stash_replaced: false,
            stash_pad: live.config.max_stash,
            block_size: live.config.block_size,
        }
    }

    /// A full checkpoint captured the committed state: the window is spent,
    /// and the delta behind it starts from here.
    pub(crate) fn full_taken(&mut self) {
        self.dirty_keys.clear();
        self.dirty_buckets.clear();
        self.checkpointed_stash = self.stash.clone();
    }

    /// The whole committed state: what a full checkpoint encodes.
    pub(crate) fn meta(&self, live: &OramMeta) -> OramMeta {
        let undo: Vec<_> = self.position_undo.iter().map(|(k, v)| (*k, *v)).collect();
        let mut position = live.position.clone();
        position.take_dirty(); // a snapshot tracks nothing
        position.apply_delta(&undo);
        let buckets = (0..live.buckets.len() as BucketId)
            .map(|bucket| self.bucket(bucket, live).clone())
            .collect();
        OramMeta::from_snapshot_parts(
            live.config,
            position,
            buckets,
            (*self.stash).clone(),
            self.access_count,
            self.evict_count,
        )
    }

    fn bucket<'a>(&'a self, bucket: BucketId, live: &'a OramMeta) -> &'a Arc<BucketMeta> {
        let live = &live.buckets[bucket as usize];
        self.bucket_undo.get(&bucket).unwrap_or(live)
    }

    /// Ids the next delta would hold.
    #[cfg(test)]
    pub(crate) fn pending_ids(&self) -> usize {
        self.dirty_keys.len() + self.dirty_buckets.len()
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

    /// A live mutation the way `split` makes one: pre-image first.
    fn set_position(committed: &mut Committed, live: &mut OramMeta, key: Key, leaf: Leaf) {
        committed.note_position(key, live.position.get(key));
        live.position.set(key, leaf);
    }

    fn set_bucket_reads(committed: &mut Committed, live: &mut OramMeta, bucket: BucketId, n: u32) {
        committed.note_bucket(bucket, &live.buckets[bucket as usize]);
        live.bucket_mut(bucket).reads_since_shuffle = n;
        live.mark_bucket_dirty(bucket);
    }

    #[test]
    fn the_first_mutation_records_the_pre_image_once() {
        let mut live = live_meta();
        let mut committed = Committed::new(&live);
        set_position(&mut committed, &mut live, 5, 3);
        committed.publish(&mut live);

        // Mutated twice after the publish: the first pre-image stays.
        set_position(&mut committed, &mut live, 5, 9);
        set_position(&mut committed, &mut live, 5, 11);
        set_bucket_reads(&mut committed, &mut live, 0, 3);
        set_bucket_reads(&mut committed, &mut live, 0, 4);

        let full = committed.meta(&live);
        assert_eq!(full.position.get(5), Some(3), "value at the publish");
        assert_eq!(full.buckets[0].reads_since_shuffle, 0, "bucket pre-image");
        assert_eq!(full.position.dirty_len(), 0, "a snapshot tracks nothing");
        // Reading the committed state leaves the live one alone.
        assert_eq!(live.position.get(5), Some(11));
        assert_eq!(live.buckets[0].reads_since_shuffle, 4);
        assert_eq!(full.encode_full(), committed.meta(&live).encode_full());
    }

    #[test]
    fn a_key_added_after_the_publish_is_in_neither_checkpoint_form() {
        let mut live = live_meta();
        let mut committed = Committed::new(&live);
        set_position(&mut committed, &mut live, 5, 3);
        committed.publish(&mut live);
        set_position(&mut committed, &mut live, 6, 1);
        set_bucket_reads(&mut committed, &mut live, 2, 7);

        assert_eq!(committed.meta(&live).position.get(6), None);
        let delta = committed.take_delta(&live, 8);
        assert_eq!(delta.position_delta, vec![(5, Some(3))]);
        assert!(delta.buckets.is_empty());

        // They are the next window's.
        committed.publish(&mut live);
        let delta = committed.take_delta(&live, 8);
        assert_eq!(delta.position_delta, vec![(6, Some(1))]);
        assert_eq!(delta.buckets.len(), 1);
        assert_eq!(delta.buckets[0].1.reads_since_shuffle, 7);
    }

    #[test]
    fn unconsumed_windows_join_and_a_window_taken_twice_is_counters_only() {
        let mut live = live_meta();
        let mut committed = Committed::new(&live);
        set_position(&mut committed, &mut live, 1, 10);
        set_position(&mut committed, &mut live, 2, 20);
        live.access_count = 2;
        committed.publish(&mut live);
        // Nobody consumed the first window; the delta must carry both, each
        // key once, at its latest published value.
        set_position(&mut committed, &mut live, 2, 25);
        set_position(&mut committed, &mut live, 3, 30);
        live.access_count = 4;
        committed.publish(&mut live);
        assert_eq!(committed.pending_ids(), 3);
        live.access_count = 5;

        let joined = committed.take_delta(&live, 8);
        assert_eq!(
            joined.position_delta,
            vec![(1, Some(10)), (2, Some(25)), (3, Some(30))]
        );
        assert_eq!(joined.access_count, 4);
        let again = committed.take_delta(&live, 8);
        assert!(again.position_delta.is_empty() && again.buckets.is_empty());
        assert!(again.stash_added.is_empty() && again.stash_removed.is_empty());
        assert_eq!(again.access_count, 4);
    }

    #[test]
    fn the_stash_change_set_is_against_the_last_checkpoint_of_either_kind() {
        let mut live = live_meta();
        live.stash.insert(1, 1, vec![1], 100).unwrap();
        live.stash.insert(2, 2, vec![2], 100).unwrap();
        let mut committed = Committed::new(&live);
        let keys =
            |blocks: &[crate::block::Block]| blocks.iter().map(|b| b.key).collect::<Vec<_>>();

        // Two windows pass unconsumed: key 3 comes and goes inside them, key
        // 2 leaves, key 1 is overwritten, key 4 arrives.
        live.stash.insert(3, 3, vec![3], 100).unwrap();
        live.stash.remove(2);
        committed.publish(&mut live);
        live.stash.remove(3);
        live.stash.insert(1, 1, vec![9], 100).unwrap();
        live.stash.insert(4, 4, vec![4], 100).unwrap();
        committed.publish(&mut live);
        let delta = committed.take_delta(&live, 8);
        assert_eq!(keys(&delta.stash_added), vec![1, 4]);
        assert_eq!(delta.stash_added[0].value, vec![9]);
        assert_eq!(delta.stash_removed, vec![2]);
        assert!(!delta.stash_replaced);

        // A full checkpoint spends the window: the delta behind it holds
        // only what came after.
        set_position(&mut committed, &mut live, 7, 7);
        live.stash.insert(5, 5, vec![5], 100).unwrap();
        committed.publish(&mut live);
        committed.full_taken();
        assert_eq!(committed.pending_ids(), 0);
        set_position(&mut committed, &mut live, 8, 8);
        live.stash.remove(4);
        committed.publish(&mut live);
        let delta = committed.take_delta(&live, 8);
        assert_eq!(delta.position_delta, vec![(8, Some(8))]);
        assert!(delta.stash_added.is_empty());
        assert_eq!(delta.stash_removed, vec![4]);
        let config = live.config;
        assert_eq!(
            (delta.max_position_delta, delta.stash_pad, delta.block_size),
            (8, config.max_stash, config.block_size)
        );
    }
}
