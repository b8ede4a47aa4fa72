//! Geometry of the Ring ORAM binary tree.
//!
//! Buckets are numbered heap-style: the root is bucket `0`, the children of
//! bucket `i` are `2i + 1` and `2i + 2`.  A tree with `levels` levels has
//! `2^(levels-1)` leaves and `2^levels - 1` buckets.  Leaves are labelled
//! `0..num_leaves` from left to right; the *path* to leaf `l` is the list of
//! buckets from the root down to the leaf bucket.
//!
//! Eviction targets follow Ring ORAM's deterministic reverse-lexicographic
//! order: the `g`-th eviction touches the path whose leaf label is the
//! bit-reversal of `g mod num_leaves`.  This determinism is what Obladi's
//! recovery exploits to recompute bucket versions without logging them (§8).
//!
//! The top `cached_levels` levels of the tree may be kept in the client
//! instead of on storage (Ring ORAM's tree-top caching): their buckets hold
//! no block, so [`TreeGeometry::path`] and [`TreeGeometry::stored_buckets`]
//! leave them out, and every block above the first stored level stays in
//! the stash.

use obladi_common::config::OramConfig;
use obladi_common::types::{BucketId, Leaf};
use std::ops::Range;

/// Tree geometry helper derived from an [`OramConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeGeometry {
    /// Number of levels (root is level 0).
    pub levels: u32,
    /// Levels `0..cached_levels` live in the client's stash, not on
    /// storage; always below `levels`, so the leaf level is stored.
    pub cached_levels: u32,
}

impl TreeGeometry {
    /// Builds the geometry for a configuration.
    pub fn new(config: &OramConfig) -> Self {
        TreeGeometry {
            levels: config.levels,
            cached_levels: 0,
        }
    }

    /// Builds a geometry directly from a level count (tests).
    pub fn with_levels(levels: u32) -> Self {
        assert!((1..=40).contains(&levels));
        TreeGeometry {
            levels,
            cached_levels: 0,
        }
    }

    /// The same tree with its top `cached` levels kept in the client.
    pub fn with_cached_levels(self, cached: u32) -> Self {
        assert!(cached < self.levels, "the leaf level is always stored");
        TreeGeometry {
            cached_levels: cached,
            ..self
        }
    }

    /// Number of leaves (`2^(levels-1)`).
    pub fn num_leaves(&self) -> u64 {
        1u64 << (self.levels - 1)
    }

    /// Number of buckets (`2^levels - 1`).
    pub fn num_buckets(&self) -> u64 {
        (1u64 << self.levels) - 1
    }

    /// The bucket at `level` on the path from the root to `leaf`.
    ///
    /// `level` 0 is the root; `level == levels - 1` is the leaf bucket.
    pub fn bucket_at(&self, leaf: Leaf, level: u32) -> BucketId {
        debug_assert!(leaf < self.num_leaves());
        debug_assert!(level < self.levels);
        let first_of_level = (1u64 << level) - 1;
        let offset = leaf >> (self.levels - 1 - level);
        first_of_level + offset
    }

    /// The stored buckets on the path from root to `leaf`, topmost first:
    /// levels `cached_levels..levels`.
    pub fn path(&self, leaf: Leaf) -> Vec<BucketId> {
        (self.cached_levels..self.levels)
            .map(|lvl| self.bucket_at(leaf, lvl))
            .collect()
    }

    /// The level of a bucket (root = 0).
    pub fn level_of(&self, bucket: BucketId) -> u32 {
        debug_assert!(bucket < self.num_buckets());
        64 - (bucket + 1).leading_zeros() - 1
    }

    /// Deepest level at which the paths to `a` and `b` share a bucket.
    ///
    /// Level 0 (the root) is always shared; the result is `levels - 1` when
    /// `a == b`.
    pub fn shared_depth(&self, a: Leaf, b: Leaf) -> u32 {
        let width = self.levels - 1;
        if width == 0 {
            return 0;
        }
        let diff = a ^ b;
        if diff == 0 {
            return width;
        }
        // Number of identical leading bits among the `width`-bit labels.
        let highest = 63 - diff.leading_zeros() as u64;
        (width as u64 - 1 - highest) as u32
    }

    /// Whether `bucket` lies on the path to `leaf`.
    pub fn on_path(&self, bucket: BucketId, leaf: Leaf) -> bool {
        let level = self.level_of(bucket);
        self.bucket_at(leaf, level) == bucket
    }

    /// The deterministic eviction target for the `g`-th `evict_path`
    /// (reverse-lexicographic order).
    pub fn evict_target(&self, g: u64) -> Leaf {
        let width = self.levels - 1;
        if width == 0 {
            return 0;
        }
        let index = g % self.num_leaves();
        // Bit-reverse `index` within `width` bits.
        let mut reversed = 0u64;
        for bit in 0..width {
            if (index >> bit) & 1 == 1 {
                reversed |= 1 << (width - 1 - bit);
            }
        }
        reversed
    }

    /// The leaves whose paths pass through `bucket`: its subtree's leaf
    /// labels, which are contiguous.
    pub fn subtree_leaves(&self, bucket: BucketId) -> Range<Leaf> {
        let level = self.level_of(bucket);
        let first = (bucket - ((1u64 << level) - 1)) << (self.levels - 1 - level);
        first..first + (1u64 << (self.levels - 1 - level))
    }

    /// The first bucket on storage: every id below it is a cached bucket.
    pub fn first_stored_bucket(&self) -> BucketId {
        (1u64 << self.cached_levels) - 1
    }

    /// Iterator over the bucket ids on storage (levels `cached_levels..`).
    pub fn stored_buckets(&self) -> impl Iterator<Item = BucketId> {
        self.first_stored_bucket()..self.num_buckets()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn geo(levels: u32) -> TreeGeometry {
        TreeGeometry::with_levels(levels)
    }

    #[test]
    fn counts_match_formulae() {
        let g = geo(4);
        assert_eq!(g.num_leaves(), 8);
        assert_eq!(g.num_buckets(), 15);
        let g1 = geo(1);
        assert_eq!(g1.num_leaves(), 1);
        assert_eq!(g1.num_buckets(), 1);
    }

    #[test]
    fn path_walks_root_to_leaf() {
        let g = geo(4);
        // Leaf 0 is the leftmost path.
        assert_eq!(g.path(0), vec![0, 1, 3, 7]);
        // Leaf 7 is the rightmost path.
        assert_eq!(g.path(7), vec![0, 2, 6, 14]);
        // Leaf 5 = binary 101: root, right, left, right.
        assert_eq!(g.path(5), vec![0, 2, 5, 12]);
    }

    #[test]
    fn level_of_inverts_bucket_at() {
        let g = geo(5);
        for leaf in 0..g.num_leaves() {
            for level in 0..g.levels {
                let bucket = g.bucket_at(leaf, level);
                assert_eq!(g.level_of(bucket), level);
                assert!(g.on_path(bucket, leaf));
            }
        }
    }

    #[test]
    fn shared_depth_properties() {
        let g = geo(4);
        assert_eq!(g.shared_depth(3, 3), 3);
        assert_eq!(g.shared_depth(0, 7), 0);
        // Leaves 0 (000) and 1 (001) share the first two branches.
        assert_eq!(g.shared_depth(0, 1), 2);
        // Leaves 0 (000) and 2 (010) share only the first branch.
        assert_eq!(g.shared_depth(0, 2), 1);
        // Symmetric.
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(g.shared_depth(a, b), g.shared_depth(b, a));
            }
        }
    }

    #[test]
    fn shared_depth_matches_path_intersection() {
        let g = geo(5);
        for a in 0..g.num_leaves() {
            for b in 0..g.num_leaves() {
                let pa = g.path(a);
                let pb = g.path(b);
                let common = pa.iter().zip(pb.iter()).take_while(|(x, y)| x == y).count() as u32;
                assert_eq!(g.shared_depth(a, b), common - 1);
            }
        }
    }

    #[test]
    fn evict_targets_cycle_through_all_leaves() {
        let g = geo(4);
        let targets: HashSet<Leaf> = (0..g.num_leaves()).map(|i| g.evict_target(i)).collect();
        assert_eq!(targets.len() as u64, g.num_leaves());
        // The order is the reverse-lexicographic order: consecutive targets
        // alternate between left and right subtrees.
        assert_eq!(g.evict_target(0), 0);
        assert_eq!(g.evict_target(1), 4);
        assert_eq!(g.evict_target(2), 2);
        assert_eq!(g.evict_target(3), 6);
        // The sequence repeats with period num_leaves.
        assert_eq!(g.evict_target(8), g.evict_target(0));
    }

    #[test]
    fn subtree_leaves_are_the_leaves_whose_paths_cross_the_bucket() {
        let g = geo(5);
        for bucket in 0..g.num_buckets() {
            let crossing: Vec<Leaf> = (0..g.num_leaves())
                .filter(|&leaf| g.on_path(bucket, leaf))
                .collect();
            let range: Vec<Leaf> = g.subtree_leaves(bucket).collect();
            assert_eq!(range, crossing, "bucket {bucket}");
        }
    }

    #[test]
    fn cached_levels_leave_paths_and_stored_buckets() {
        let g = geo(4).with_cached_levels(2);
        assert_eq!(g.path(5), vec![5, 12]);
        assert_eq!(g.first_stored_bucket(), 3);
        assert_eq!(
            g.stored_buckets().collect::<Vec<_>>(),
            (3..15).collect::<Vec<_>>()
        );
        assert_eq!(g.num_buckets(), 15, "cached buckets are still tree buckets");
        let uncached = geo(4);
        assert_eq!(uncached.path(5), vec![0, 2, 5, 12]);
        assert_eq!(uncached.stored_buckets().count(), 15);
    }

    #[test]
    #[should_panic(expected = "the leaf level is always stored")]
    fn the_leaf_level_cannot_be_cached() {
        geo(3).with_cached_levels(3);
    }

    #[test]
    fn single_level_tree_is_degenerate_but_valid() {
        let g = geo(1);
        assert_eq!(g.path(0), vec![0]);
        assert_eq!(g.evict_target(5), 0);
        assert_eq!(g.shared_depth(0, 0), 0);
    }
}
