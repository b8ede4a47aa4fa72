//! The committed snapshot of the split ORAM client.
//!
//! The write-back engine *publishes* the client metadata (position map,
//! bucket metadata, stash, counters) at the end of every flush, and both
//! checkpoint forms describe the last published state, never the live one,
//! which the other plane keeps mutating.  There is one such state at a
//! time — §8 checkpoints exactly one per epoch — and [`Committed`] holds
//! it: a **copy** of the live state as of the last publish.
//!
//! A publish runs only while no reader batch is in flight (see
//! `split::publish`), so at that moment the live state *is* the committed
//! one, and refreshing the copy needs no pre-images: it copies the
//! positions of the keys and the metadata of the buckets dirtied since the
//! previous publish ([`OramMeta::drain_dirty`]; every position write and
//! every [`OramMeta::bucket_mut`] marks its id), plus the stash and the
//! counters.  Every copy lands in the allocations the copy already has
//! (`clone_from`), and the two states share no bucket, so a publish and the
//! live mutations after it allocate nothing.
//!
//! The drained ids also join the *window*: the ids dirtied since the last
//! checkpoint of either kind, a set union per publish, so a driver that
//! never checkpoints holds at most every key and bucket once.  A `Full` is
//! the copy itself ([`Committed::meta`] shares its `Arc`; the caller
//! encodes it outside the client lock), and a delta shares the copy's
//! buckets; both are gone by the next publish, else that publish clones
//! what they still hold.  A delta is the window's values in
//! the copy plus the stash change set against `checkpointed_stash`, the
//! stash the last checkpoint captured ([`Committed::take_delta`]).  The
//! full-state encoders sort their entries, so two reads of one published
//! state encode to identical bytes however far the live state has moved.

use crate::bucket::BucketMeta;
use crate::metadata::{MetaDelta, OramMeta};
use crate::stash::Stash;
use obladi_common::types::{BucketId, Key, Leaf};
use std::collections::HashSet;
use std::sync::Arc;

/// The last published state (see the module docs).
pub(crate) struct Committed {
    meta: Arc<OramMeta>,
    dirty_keys: HashSet<Key>,
    dirty_buckets: HashSet<BucketId>,
    checkpointed_stash: Stash,
}

impl Committed {
    /// The construction-time state, as if just checkpointed: a recovered
    /// client starts from the state its last checkpoint described.
    pub(crate) fn new(live: &OramMeta) -> Self {
        let mut meta = live.clone();
        for bucket in &mut meta.buckets {
            *bucket = Arc::new(BucketMeta::clone(bucket));
        }
        drop(meta.drain_dirty()); // the copy tracks nothing
        Committed {
            checkpointed_stash: meta.stash.clone(),
            meta: Arc::new(meta),
            dirty_keys: HashSet::new(),
            dirty_buckets: HashSet::new(),
        }
    }

    /// Publishes `live` as the committed state: the copy takes the values
    /// of the ids `live` dirtied since the last publish, and those ids join
    /// the window.
    pub(crate) fn publish(&mut self, live: &mut OramMeta) {
        let meta = Arc::make_mut(&mut self.meta);
        let (keys, buckets) = live.drain_dirty();
        for (key, leaf) in keys {
            meta.position.apply(key, leaf);
            self.dirty_keys.insert(key);
        }
        for (bucket, current) in buckets {
            Arc::make_mut(&mut meta.buckets[bucket as usize]).clone_from(current);
            self.dirty_buckets.insert(bucket);
        }
        meta.stash.clone_from(&live.stash);
        meta.access_count = live.access_count;
        meta.evict_count = live.evict_count;
    }

    /// The delta checkpoint of the window, which it spends: the dirty ids at
    /// their committed values, the stash change set against the previous
    /// checkpoint, the counters.  Taken again before the next publish it
    /// holds the counters and nothing else — a no-op on apply that keeps the
    /// checkpoint chain contiguous.
    pub(crate) fn take_delta(&mut self, max_position_delta: usize) -> MetaDelta {
        let meta = &*self.meta;
        let mut position_delta: Vec<(Key, Option<Leaf>)> = (self.dirty_keys.drain())
            .map(|key| (key, meta.position.get(key)))
            .collect();
        position_delta.sort_unstable_by_key(|(key, _)| *key);
        let mut buckets: Vec<_> = (self.dirty_buckets.drain())
            .map(|bucket| (bucket, meta.buckets[bucket as usize].clone()))
            .collect();
        buckets.sort_unstable_by_key(|(bucket, _)| *bucket);
        let (stash_added, stash_removed) = meta.stash.changes_since(&self.checkpointed_stash);
        self.checkpointed_stash.clone_from(&meta.stash);
        MetaDelta {
            access_count: meta.access_count,
            evict_count: meta.evict_count,
            position_delta,
            max_position_delta,
            buckets,
            stash_added,
            stash_removed,
            stash_replaced: false,
            stash_pad: meta.config.max_stash,
            block_size: meta.config.block_size,
        }
    }

    /// A full checkpoint captured the committed state: the window is spent,
    /// and the delta behind it starts from here.
    pub(crate) fn full_taken(&mut self) {
        self.dirty_keys.clear();
        self.dirty_buckets.clear();
        self.checkpointed_stash.clone_from(&self.meta.stash);
    }

    /// The whole committed state: what a full checkpoint encodes.
    pub(crate) fn meta(&self) -> Arc<OramMeta> {
        self.meta.clone()
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

    #[test]
    fn a_mutation_after_the_publish_reaches_neither_checkpoint_form_until_the_next_publish() {
        let mut live = live_meta();
        let mut committed = Committed::new(&live);
        live.position.set(5, 3);
        committed.publish(&mut live);
        assert_eq!(committed.meta().encode_full(), live.encode_full());
        committed.full_taken();

        // Mutated twice after the publish: both forms keep the published
        // values.
        live.position.set(5, 9);
        live.position.set(5, 11);
        live.bucket_mut(0).reads_since_shuffle = 3;
        live.bucket_mut(0).reads_since_shuffle = 4;
        let full = committed.meta();
        assert_eq!(full.position.get(5), Some(3), "value at the publish");
        assert_eq!(
            full.buckets[0].reads_since_shuffle, 0,
            "bucket at the publish"
        );
        assert_eq!(full.position.dirty_len(), 0, "the copy tracks nothing");
        let delta = committed.take_delta(8);
        assert!(delta.position_delta.is_empty() && delta.buckets.is_empty());
        // Reading the committed state leaves the live one alone.
        assert_eq!(live.position.get(5), Some(11));
        assert_eq!(live.buckets[0].reads_since_shuffle, 4);

        // The next publish carries the latest values, and the bucket's mark
        // came with its mutation.
        committed.publish(&mut live);
        assert_eq!(committed.meta().encode_full(), live.encode_full());
        let delta = committed.take_delta(8);
        assert_eq!(delta.position_delta, vec![(5, Some(11))]);
        assert_eq!(delta.buckets.len(), 1);
        assert_eq!(delta.buckets[0].1.reads_since_shuffle, 4);
    }

    #[test]
    fn a_key_added_after_the_publish_is_in_neither_checkpoint_form() {
        let mut live = live_meta();
        let mut committed = Committed::new(&live);
        live.position.set(5, 3);
        committed.publish(&mut live);
        live.position.set(6, 1);
        live.bucket_mut(2).reads_since_shuffle = 7;

        assert_eq!(committed.meta().position.get(6), None);
        let delta = committed.take_delta(8);
        assert_eq!(delta.position_delta, vec![(5, Some(3))]);
        assert!(delta.buckets.is_empty());

        // They are the next window's.
        committed.publish(&mut live);
        let delta = committed.take_delta(8);
        assert_eq!(delta.position_delta, vec![(6, Some(1))]);
        assert_eq!(delta.buckets.len(), 1);
        assert_eq!(delta.buckets[0].1.reads_since_shuffle, 7);
    }

    #[test]
    fn unconsumed_windows_join_and_a_window_taken_twice_is_counters_only() {
        let mut live = live_meta();
        let mut committed = Committed::new(&live);
        live.position.set(1, 10);
        live.position.set(2, 20);
        live.access_count = 2;
        committed.publish(&mut live);
        // Nobody consumed the first window; the delta must carry both, each
        // key once, at its latest published value.
        live.position.set(2, 25);
        live.position.set(3, 30);
        live.access_count = 4;
        committed.publish(&mut live);
        assert_eq!(committed.pending_ids(), 3);
        live.access_count = 5;

        let joined = committed.take_delta(8);
        assert_eq!(
            joined.position_delta,
            vec![(1, Some(10)), (2, Some(25)), (3, Some(30))]
        );
        assert_eq!(joined.access_count, 4);
        let again = committed.take_delta(8);
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
        let delta = committed.take_delta(8);
        assert_eq!(keys(&delta.stash_added), vec![1, 4]);
        assert_eq!(delta.stash_added[0].value, vec![9]);
        assert_eq!(delta.stash_removed, vec![2]);
        assert!(!delta.stash_replaced);

        // A full checkpoint spends the window: the delta behind it holds
        // only what came after.
        live.position.set(7, 7);
        live.stash.insert(5, 5, vec![5], 100).unwrap();
        committed.publish(&mut live);
        committed.full_taken();
        assert_eq!(committed.pending_ids(), 0);
        live.position.set(8, 8);
        live.stash.remove(4);
        committed.publish(&mut live);
        let delta = committed.take_delta(8);
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
